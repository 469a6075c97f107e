//! CMS: high-energy physics apparatus simulation.
//!
//! Shape: read detector geometry once, then simulate particle events —
//! heavy compute per event, one 8 KiB event record written per event.
//! Paper-reported overhead: **+2.1 %**.

use super::{AppSpec, Scale};
use crate::compute::{compute, fill_data};
use idbox_interpose::GuestCtx;
use idbox_kernel::OpenFlags;

/// Simulated events at bench scale.
const EVENTS: u64 = 4000;
/// Compute units per event (tracking through the detector).
const COMPUTE_PER_EVENT: u64 = 77_000;
/// Event record size.
const BLOCK: usize = 8192;

pub(super) fn spec() -> AppSpec {
    AppSpec {
        name: "cms",
        description: "high-energy physics detector simulation",
        paper_overhead_pct: 2.1,
        prepare,
        run,
    }
}

fn prepare(ctx: &mut GuestCtx<'_>, _scale: Scale) {
    // Geometry description, read once at startup.
    let mut geometry = vec![0u8; 64 * 1024];
    fill_data(0xCE05, &mut geometry);
    ctx.write_file("cms.geometry", &geometry).expect("stage geometry");
}

fn run(ctx: &mut GuestCtx<'_>, scale: Scale) -> i32 {
    let Ok(geometry) = ctx.read_file("cms.geometry") else {
        return 1;
    };
    let Ok(out) = ctx.open("cms.events", OpenFlags::wronly_create_trunc(), 0o644) else {
        return 1;
    };
    let mut record = vec![0u8; BLOCK];
    let mut state = geometry.len() as u64;
    for event in 0..scale.steps(EVENTS) {
        state = compute(COMPUTE_PER_EVENT) ^ state.rotate_left(7) ^ event;
        fill_data(state, &mut record);
        if ctx.write(out, &record).is_err() {
            return 1;
        }
    }
    if ctx.close(out).is_err() {
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
    fn one_record_per_event() {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "cms").unwrap();
        let mut sup = Supervisor::direct(kernel);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        prepare(&mut ctx, Scale::test());
        assert_eq!(run(&mut ctx, Scale::test()), 0);
        let st = ctx.stat("/tmp/cms.events").unwrap();
        assert_eq!(st.size, Scale::test().steps(EVENTS) * BLOCK as u64);
    }
}
