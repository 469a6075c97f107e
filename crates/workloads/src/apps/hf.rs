//! HF: Hartree-Fock nucleic/electronic interaction simulation.
//!
//! Shape: an iterative self-consistent-field solver — modest compute per
//! iteration with *frequent medium-sized* I/O: integral blocks written
//! and re-read each sweep, plus periodic checkpoints. The chattiest of
//! the scientific codes. Paper-reported overhead: **+6.5 %**.

use super::{AppSpec, Scale};
use crate::compute::{compute, fill_data};
use idbox_interpose::GuestCtx;
use idbox_kernel::OpenFlags;

/// SCF iterations at bench scale.
const ITERATIONS: u64 = 25_000;
/// Compute units per iteration (Fock matrix contraction, scaled down).
const COMPUTE_PER_ITER: u64 = 10_700;
/// Integral record size (medium: bigger than a word, smaller than a
/// page).
const RECORD: usize = 2048;
/// Checkpoint every this many iterations.
const CHECKPOINT_EVERY: u64 = 64;

pub(super) fn spec() -> AppSpec {
    AppSpec {
        name: "hf",
        description: "Hartree-Fock electronic structure simulation",
        paper_overhead_pct: 6.5,
        prepare,
        run,
    }
}

fn prepare(ctx: &mut GuestCtx<'_>, _scale: Scale) {
    let mut basis = vec![0u8; 16 * 1024];
    fill_data(0x4F, &mut basis);
    ctx.write_file("hf.basis", &basis).expect("stage basis set");
}

fn run(ctx: &mut GuestCtx<'_>, scale: Scale) -> i32 {
    let Ok(basis) = ctx.read_file("hf.basis") else {
        return 1;
    };
    let Ok(ints) = ctx.open("hf.integrals", OpenFlags::rdwr_create(), 0o644) else {
        return 1;
    };
    let mut record = vec![0u8; RECORD];
    let mut readback = vec![0u8; RECORD];
    let mut energy = basis.len() as u64;
    for iter in 0..scale.steps(ITERATIONS) {
        energy = compute(COMPUTE_PER_ITER) ^ energy.rotate_left(5) ^ iter;
        // Write this sweep's integral block, then re-read the previous
        // one (out-of-core SCF pattern).
        fill_data(energy, &mut record);
        let slot = (iter % 8) * RECORD as u64;
        if ctx.pwrite(ints, &record, slot).is_err() {
            return 1;
        }
        let prev = ((iter + 7) % 8) * RECORD as u64;
        if ctx.pread(ints, &mut readback, prev).is_err() {
            return 1;
        }
        if iter % CHECKPOINT_EVERY == 0 {
            let ckpt = format!("iter={iter} energy={energy:016x}\n");
            if ctx.write_file("hf.checkpoint", ckpt.as_bytes()).is_err() {
                return 1;
            }
        }
    }
    if ctx.close(ints).is_err() {
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
    fn converges_with_checkpoints() {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "hf").unwrap();
        let mut sup = Supervisor::direct(kernel.clone());
        let mut ctx = GuestCtx::new(&mut sup, pid);
        prepare(&mut ctx, Scale::test());
        assert_eq!(run(&mut ctx, Scale::test()), 0);
        let ckpt = ctx.read_file("/tmp/hf.checkpoint").unwrap();
        assert!(String::from_utf8(ckpt).unwrap().starts_with("iter="));
        // The mix is pread/pwrite-heavy.
        let k = &*kernel;
        assert!(k.stats.count("pwrite") >= Scale::test().steps(ITERATIONS));
        assert!(k.stats.count("pread") >= Scale::test().steps(ITERATIONS));
    }
}
