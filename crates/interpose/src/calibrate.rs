//! Cost-model calibration.
//!
//! Figure 5(a)'s headline is that a trapped system call costs **an order
//! of magnitude** more than a direct one. Our substrate reaches the
//! kernel by function call, so the six context switches of a real trap
//! are performed explicitly by the [`idbox_types::SwitchEngine`]; this module measures
//! the host and picks the switch footprint that lands boxed `getpid` at
//! the target ratio (10x by default). Every other number in the
//! evaluation — stat vs. read, 1-byte vs. 8-kilobyte transfers, whole-
//! application overheads — then *emerges* from the mechanism rather than
//! being dialed in.

use crate::guest::GuestCtx;
use crate::{share, AllowAll, Supervisor};
use idbox_kernel::Kernel;
use idbox_types::CostModel;
use idbox_vfs::Cred;
use std::time::Instant;

/// The slowdown Figure 5(a) reports for trapped `getpid`.
pub const TARGET_RATIO: f64 = 10.0;

/// Iterations per measurement batch.
const BATCH: u32 = 20_000;

/// Measure the per-call cost of `getpid` under a fresh supervisor.
fn measure_getpid(interposed: Option<CostModel>) -> f64 {
    let kernel = share(Kernel::new());
    let pid = kernel
        .spawn(Cred::ROOT, "/tmp", "calibrate")
        .expect("spawn");
    let mut sup = match interposed {
        None => Supervisor::direct(kernel),
        Some(model) => Supervisor::interposed(kernel, Box::new(AllowAll), model),
    };
    let mut ctx = GuestCtx::new(&mut sup, pid);
    // Warm up caches and the switch footprint.
    for _ in 0..2_000 {
        ctx.getpid();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..BATCH {
            ctx.getpid();
        }
        let per_call = start.elapsed().as_secs_f64() / BATCH as f64;
        best = best.min(per_call);
    }
    best
}

/// Measure the boxed/direct `getpid` latency ratio under `model`.
pub fn measure_ratio(model: CostModel) -> f64 {
    let direct = measure_getpid(None);
    let boxed = measure_getpid(Some(model));
    boxed / direct
}

/// Find a cost model whose boxed/direct `getpid` ratio is close to
/// `target`. Binary-searches the switch footprint; returns the model and
/// the achieved ratio.
pub fn calibrate_to(target: f64) -> (CostModel, f64) {
    let base = CostModel::calibrated();
    // The mechanism alone (peeks, pokes, nullified call, bookkeeping) has
    // a floor; if it already exceeds the target, run with free switches.
    let floor = measure_ratio(CostModel::free_switches());
    if floor >= target {
        return (CostModel::free_switches(), floor);
    }
    let (mut lo, mut hi) = (64usize, 1 << 22);
    let mut best = (base, f64::INFINITY);
    for _ in 0..14 {
        let mid = (lo + hi) / 2;
        let model = CostModel {
            switch_footprint_bytes: mid,
            ..base
        };
        let ratio = measure_ratio(model);
        if (ratio - target).abs() < (best.1 - target).abs() {
            best = (model, ratio);
        }
        if (ratio - target).abs() / target < 0.05 {
            return (model, ratio);
        }
        if ratio < target {
            lo = mid + 1;
        } else {
            hi = mid.saturating_sub(1).max(64);
        }
        if lo >= hi {
            break;
        }
    }
    best
}

/// Calibrate to the paper's 10x target.
pub fn calibrate() -> (CostModel, f64) {
    calibrate_to(TARGET_RATIO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interposition_is_slower_than_direct() {
        // Even without asserting the exact ratio (CI machines vary), the
        // boxed path must cost measurably more.
        let ratio = measure_ratio(CostModel::calibrated());
        assert!(ratio > 1.5, "boxed/direct getpid ratio {ratio} too low");
    }

    #[test]
    fn bigger_footprint_costs_more() {
        let small = measure_ratio(CostModel::calibrated().scaled(0.25));
        let large = measure_ratio(CostModel::calibrated().scaled(16.0));
        assert!(
            large > small,
            "footprint scaling had no effect: {small} vs {large}"
        );
    }
}
