//! BLAST: genomic database search.
//!
//! Shape: scan a pre-staged sequence database with large sequential
//! reads, scoring each block against the query (moderate compute per
//! block), appending compact match records. More I/O-bound than the
//! simulations. Paper-reported overhead: **+5.2 %**.

use super::{AppSpec, Scale};
use crate::compute::{compute, fill_data};
use idbox_interpose::GuestCtx;
use idbox_kernel::OpenFlags;

/// Database blocks at bench scale.
const DB_BLOCKS: u64 = 24_000;
/// Block size (the paper's applications do primarily large-block I/O).
const BLOCK: usize = 8192;
/// Compute units per scanned block (alignment scoring).
const COMPUTE_PER_BLOCK: u64 = 5_200;

pub(super) fn spec() -> AppSpec {
    AppSpec {
        name: "blast",
        description: "genomic database search",
        paper_overhead_pct: 5.2,
        prepare,
        run,
    }
}

fn prepare(ctx: &mut GuestCtx<'_>, scale: Scale) {
    // Stage the database: nr-style blocks of packed sequences.
    let blocks = scale.steps(DB_BLOCKS);
    let fd = ctx
        .open("blast.db", OpenFlags::wronly_create_trunc(), 0o644)
        .expect("create db");
    let mut block = vec![0u8; BLOCK];
    for i in 0..blocks {
        fill_data(i * 77 + 1, &mut block);
        ctx.write(fd, &block).expect("stage db block");
    }
    ctx.close(fd).expect("close db");
    ctx.write_file("query.fa", b">query\nMKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ\n")
        .expect("stage query");
}

fn run(ctx: &mut GuestCtx<'_>, scale: Scale) -> i32 {
    let Ok(query) = ctx.read_file("query.fa") else {
        return 1;
    };
    let Ok(db) = ctx.open("blast.db", OpenFlags::rdonly(), 0) else {
        return 1;
    };
    let Ok(hits) = ctx.open("blast.hits", OpenFlags::wronly_create_trunc(), 0o644) else {
        return 1;
    };
    let mut buf = vec![0u8; BLOCK];
    let mut block_no = 0u64;
    let mut best = 0u64;
    loop {
        let n = match ctx.read(db, &mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => return 1,
        };
        // Score the block against the query.
        let score = compute(COMPUTE_PER_BLOCK) ^ (buf[0] as u64) ^ (query.len() as u64);
        if score > best {
            best = score;
            let record = format!("hit block={} score={:016x} len={}\n", block_no, score, n);
            if ctx.write(hits, record.as_bytes()).is_err() {
                return 1;
            }
        }
        block_no += 1;
    }
    if ctx.close(db).is_err() || ctx.close(hits).is_err() {
        return 1;
    }
    let _ = scale;
    if block_no == 0 {
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_interpose::{share, Supervisor};
    use idbox_kernel::Kernel;
    use idbox_vfs::Cred;

    #[test]
    fn scans_whole_database() {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "blast").unwrap();
        let mut sup = Supervisor::direct(kernel.clone());
        let mut ctx = GuestCtx::new(&mut sup, pid);
        prepare(&mut ctx, Scale::test());
        assert_eq!(run(&mut ctx, Scale::test()), 0);
        let hits = ctx.read_file("/tmp/blast.hits").unwrap();
        assert!(!hits.is_empty());
        // The read mix should dominate the syscall profile.
        let k = &*kernel;
        assert!(k.stats.count("read") >= Scale::test().steps(DB_BLOCKS));
    }
}
