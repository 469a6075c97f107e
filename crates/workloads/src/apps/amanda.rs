//! AMANDA: gamma-ray telescope simulation.
//!
//! Shape: read a small configuration, then a long Monte-Carlo loop
//! dominated by compute, periodically appending large (8 KiB) event
//! blocks to an output file. Paper-reported overhead: **+1.1 %**.

use super::{AppSpec, Scale};
use crate::compute::{compute, fill_data};
use idbox_interpose::GuestCtx;
use idbox_kernel::OpenFlags;

/// Event-generation steps at bench scale.
const STEPS: u64 = 3000;
/// Compute units per step (photon propagation).
const COMPUTE_PER_STEP: u64 = 54_000;
/// Event block size.
const BLOCK: usize = 8192;

pub(super) fn spec() -> AppSpec {
    AppSpec {
        name: "amanda",
        description: "gamma-ray telescope simulation",
        paper_overhead_pct: 1.1,
        prepare,
        run,
    }
}

fn prepare(ctx: &mut GuestCtx<'_>, _scale: Scale) {
    ctx.write_file("amanda.cfg", b"strings=19\ndepth=1500m\nmedium=ice\n")
        .expect("stage config");
}

fn run(ctx: &mut GuestCtx<'_>, scale: Scale) -> i32 {
    let Ok(cfg) = ctx.read_file("amanda.cfg") else {
        return 1;
    };
    let mut seed = cfg.len() as u64;
    let Ok(out) = ctx.open("amanda.out", OpenFlags::append_create(), 0o644) else {
        return 1;
    };
    let mut block = vec![0u8; BLOCK];
    for step in 0..scale.steps(STEPS) {
        // Propagate photons through the ice.
        seed = compute(COMPUTE_PER_STEP) ^ seed.rotate_left(9) ^ step;
        // Every step emits one event block.
        fill_data(seed, &mut block);
        if ctx.write(out, &block).is_err() {
            return 1;
        }
    }
    if ctx.close(out).is_err() {
        return 1;
    }
    // Summary record.
    let summary = format!("events={} seed={seed:016x}\n", scale.steps(STEPS));
    if ctx.write_file("amanda.summary", summary.as_bytes()).is_err() {
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
    fn produces_event_blocks() {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "amanda").unwrap();
        let mut sup = Supervisor::direct(kernel.clone());
        let mut ctx = GuestCtx::new(&mut sup, pid);
        prepare(&mut ctx, Scale::test());
        assert_eq!(run(&mut ctx, Scale::test()), 0);
        let st = ctx.stat("/tmp/amanda.out").unwrap();
        let steps = Scale::test().steps(STEPS);
        assert_eq!(st.size, steps * BLOCK as u64);
        assert!(ctx.read_file("/tmp/amanda.summary").is_ok());
    }
}
