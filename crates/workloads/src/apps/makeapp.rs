//! `make`: a software build (the paper builds Parrot itself).
//!
//! Shape: the metadata storm that makes interposition expensive —
//! recursive directory scans, a `stat` of every source and target for
//! dependency checking, small reads of sources and headers, and a
//! `fork`/`exec`/`wait` per compilation unit whose child reads the
//! source and writes an object file. Compute (the "compiler") is small
//! per file. Paper-reported overhead: **+35 %**.

use super::{AppSpec, Scale};
use crate::compute::{compute, fill_data};
use idbox_interpose::GuestCtx;

/// Source files at bench scale.
const SOURCES: u64 = 400;
/// Subdirectories the tree is spread over.
const DIRS: u64 = 12;
/// Headers every source includes (each stat'd + read per compile).
const HEADERS: u64 = 8;
/// Compute units per compiled file (parsing + codegen, scaled down).
const COMPUTE_PER_FILE: u64 = 40_000;
/// Size of a source file.
const SRC_SIZE: usize = 1200;

pub(super) fn spec() -> AppSpec {
    AppSpec {
        name: "make",
        description: "software build (metadata-intensive)",
        paper_overhead_pct: 35.0,
        prepare,
        run,
    }
}

fn dir_of(i: u64) -> String {
    format!("src{}", i % DIRS)
}

fn prepare(ctx: &mut GuestCtx<'_>, scale: Scale) {
    for d in 0..DIRS {
        let _ = ctx.mkdir(&format!("src{d}"), 0o755);
    }
    let _ = ctx.mkdir("include", 0o755);
    let mut body = vec![0u8; SRC_SIZE];
    for h in 0..HEADERS {
        fill_data(h + 1000, &mut body);
        ctx.write_file(&format!("include/h{h}.h"), &body)
            .expect("stage header");
    }
    for i in 0..scale.steps(SOURCES) {
        fill_data(i, &mut body);
        ctx.write_file(&format!("{}/f{i}.c", dir_of(i)), &body)
            .expect("stage source");
    }
    ctx.write_file("Makefile", b"all: everything\n").expect("stage makefile");
}

fn run(ctx: &mut GuestCtx<'_>, scale: Scale) -> i32 {
    if ctx.read_file("Makefile").is_err() {
        return 1;
    }
    // Pass 1: scan the tree, stat everything to build the dependency
    // graph (make's hallmark).
    for d in 0..DIRS {
        let Ok(entries) = ctx.readdir(&format!("src{d}")) else {
            return 1;
        };
        for e in entries {
            if e.name == "." || e.name == ".." {
                continue;
            }
            if ctx.stat(&format!("src{d}/{}", e.name)).is_err() {
                return 1;
            }
        }
    }
    // Pass 2: per source file — stat source, stat (missing) object, stat
    // each header, then compile in a child process.
    let n = scale.steps(SOURCES);
    for i in 0..n {
        let src = format!("{}/f{i}.c", dir_of(i));
        let obj = format!("{}/f{i}.o", dir_of(i));
        if ctx.stat(&src).is_err() {
            return 1;
        }
        let out_of_date = ctx.stat(&obj).is_err(); // ENOENT: must build
        for h in 0..HEADERS {
            if ctx.stat(&format!("include/h{h}.h")).is_err() {
                return 1;
            }
        }
        if !out_of_date {
            continue;
        }
        // The "compiler" child: read source + headers, compute, write
        // the object file.
        let src_c = src.clone();
        let obj_c = obj.clone();
        let child = ctx.run_child(move |cc| {
            if cc.exec("/bin/cc").is_err() {
                return 1;
            }
            let Ok(source) = cc.read_file(&src_c) else {
                return 1;
            };
            let mut includes = 0u64;
            for h in 0..HEADERS {
                // The compiler stats each include before reading it.
                let header = format!("include/h{h}.h");
                if cc.stat(&header).is_err() || cc.read_file(&header).is_err() {
                    return 1;
                }
                includes += 1;
            }
            let code = compute(COMPUTE_PER_FILE) ^ source.len() as u64 ^ includes;
            let mut object = vec![0u8; SRC_SIZE / 2];
            fill_data(code, &mut object);
            if cc.write_file(&obj_c, &object).is_err() {
                return 1;
            }
            0
        });
        if child.is_err() {
            return 1;
        }
        match ctx.wait() {
            Ok((_, 0)) => {}
            _ => return 1,
        }
    }
    // Pass 3: "link" — stat + read every object, write the binary.
    let mut image = Vec::new();
    for i in 0..n {
        let obj = format!("{}/f{i}.o", dir_of(i));
        if ctx.stat(&obj).is_err() {
            return 1;
        }
        let Ok(o) = ctx.read_file(&obj) else {
            return 1;
        };
        image.extend_from_slice(&o[..16.min(o.len())]);
    }
    if ctx.write_file("parrot.bin", &image).is_err() {
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
    fn builds_everything_and_is_stat_heavy() {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "make").unwrap();
        let mut sup = Supervisor::direct(kernel.clone());
        let mut ctx = GuestCtx::new(&mut sup, pid);
        prepare(&mut ctx, Scale::test());
        assert_eq!(run(&mut ctx, Scale::test()), 0);
        assert!(ctx.stat("/tmp/parrot.bin").is_ok());
        // Objects exist for every source.
        let n = Scale::test().steps(SOURCES);
        for i in 0..n {
            assert!(ctx.stat(&format!("/tmp/{}/f{i}.o", dir_of(i))).is_ok());
        }
        // The defining property: stats dominate the profile.
        let k = &*kernel;
        let stats = k.stats.count("stat");
        let writes = k.stats.count("write");
        assert!(
            stats > writes,
            "make must be metadata-bound: {stats} stats vs {writes} writes"
        );
        assert!(k.stats.count("fork") >= n);
    }

    #[test]
    fn second_build_is_incremental() {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "make").unwrap();
        let mut sup = Supervisor::direct(kernel.clone());
        let mut ctx = GuestCtx::new(&mut sup, pid);
        prepare(&mut ctx, Scale::test());
        assert_eq!(run(&mut ctx, Scale::test()), 0);
        let forks_after_first = kernel.stats.count("fork");
        assert_eq!(run(&mut ctx, Scale::test()), 0);
        let forks_after_second = kernel.stats.count("fork");
        assert_eq!(
            forks_after_first, forks_after_second,
            "up-to-date objects must not be recompiled"
        );
    }
}
