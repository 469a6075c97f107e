//! IBIS: integrated biosphere / climate simulation.
//!
//! Shape: read forcing data once, then long time-stepping loops that are
//! almost pure compute, with a small annual summary appended rarely. The
//! most compute-dominated of the suite. Paper-reported overhead:
//! **+0.7 %**.

use super::{AppSpec, Scale};
use crate::compute::{compute, fill_data};
use idbox_interpose::GuestCtx;
use idbox_kernel::OpenFlags;

/// Simulated years at bench scale.
const YEARS: u64 = 2500;
/// Compute units per simulated year (land-surface physics).
const COMPUTE_PER_YEAR: u64 = 96_000;
/// Annual summary record.
const SUMMARY: usize = 128;

pub(super) fn spec() -> AppSpec {
    AppSpec {
        name: "ibis",
        description: "integrated biosphere / climate simulation",
        paper_overhead_pct: 0.7,
        prepare,
        run,
    }
}

fn prepare(ctx: &mut GuestCtx<'_>, _scale: Scale) {
    let mut forcing = vec![0u8; 128 * 1024];
    fill_data(0x1B15, &mut forcing);
    ctx.write_file("ibis.forcing", &forcing).expect("stage forcing");
}

fn run(ctx: &mut GuestCtx<'_>, scale: Scale) -> i32 {
    let Ok(forcing) = ctx.read_file("ibis.forcing") else {
        return 1;
    };
    let Ok(out) = ctx.open("ibis.annual", OpenFlags::append_create(), 0o644) else {
        return 1;
    };
    let mut carbon = forcing.len() as u64;
    let mut summary = [0u8; SUMMARY];
    for year in 0..scale.steps(YEARS) {
        carbon = compute(COMPUTE_PER_YEAR) ^ carbon.rotate_left(3) ^ year;
        fill_data(carbon, &mut summary);
        if ctx.write(out, &summary).is_err() {
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
    fn writes_one_summary_per_year() {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "ibis").unwrap();
        let mut sup = Supervisor::direct(kernel);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        prepare(&mut ctx, Scale::test());
        assert_eq!(run(&mut ctx, Scale::test()), 0);
        let st = ctx.stat("/tmp/ibis.annual").unwrap();
        assert_eq!(st.size, Scale::test().steps(YEARS) * SUMMARY as u64);
    }
}
