//! Timing harness: run an application direct vs. boxed and report the
//! overhead, reproducing the methodology of Figure 5(b).

use crate::apps::{AppSpec, Scale};
use idbox_core::IdentityBox;
use idbox_interpose::{share, GuestCtx, Supervisor};
use idbox_kernel::Kernel;
use idbox_types::{CostModel, SysResult, TrapCostReport};
use idbox_vfs::Cred;
use std::time::{Duration, Instant};

/// The identity the boxed runs carry (any name works; we use the
/// paper's).
pub const RUNNER_IDENTITY: &str = "globus:/O=UnivNowhere/CN=Fred";

/// One application's direct-vs-boxed measurement.
#[derive(Debug, Clone)]
pub struct AppMeasurement {
    /// Application name.
    pub name: &'static str,
    /// The overhead the paper reports (percent).
    pub paper_pct: f64,
    /// Wall-clock of the direct (unmodified) run.
    pub direct: Duration,
    /// Wall-clock of the identity-boxed run.
    pub boxed: Duration,
    /// Trap-cost counters of the boxed run.
    pub report: TrapCostReport,
}

impl AppMeasurement {
    /// Measured overhead in percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.boxed.as_secs_f64() / self.direct.as_secs_f64() - 1.0) * 100.0
    }
}

/// Time one run of `app` on a fresh kernel. `model`: `None` = direct,
/// `Some` = inside an identity box with that cost model.
fn time_one(
    app: &AppSpec,
    scale: Scale,
    model: Option<CostModel>,
) -> SysResult<(Duration, TrapCostReport)> {
    let mut k = Kernel::new();
    k.accounts_mut()
        .add(idbox_kernel::Account::new("dthain", 1000, 1000))
        .unwrap();
    let kernel = share(k);
    let sup_cred = Cred::new(1000, 1000);
    match model {
        None => {
            // The unmodified baseline: plain process, direct syscalls.
            let pid = {
                let k = &*kernel;
                let root = k.vfs().root();
                k.vfs().mkdir_all(root, "/work", 0o777, &Cred::ROOT)?;
                k.spawn(sup_cred, "/work", app.name)?
            };
            let mut sup = Supervisor::direct(kernel);
            let mut ctx = GuestCtx::new(&mut sup, pid);
            (app.prepare)(&mut ctx, scale);
            let start = Instant::now();
            let code = (app.run)(&mut ctx, scale);
            let elapsed = start.elapsed();
            assert_eq!(code, 0, "{} failed in direct mode", app.name);
            Ok((elapsed, TrapCostReport::default()))
        }
        Some(model) => {
            let options = idbox_core::BoxOptions {
                cost_model: model,
                ..Default::default()
            };
            let b = IdentityBox::with_options(kernel, RUNNER_IDENTITY, sup_cred, options)?;
            let pid = b.spawn_process(app.name)?;
            let mut sup = b.supervisor();
            let mut ctx = GuestCtx::new(&mut sup, pid);
            (app.prepare)(&mut ctx, scale);
            let start = Instant::now();
            let code = (app.run)(&mut ctx, scale);
            let elapsed = start.elapsed();
            assert_eq!(code, 0, "{} failed in boxed mode", app.name);
            ctx.exit(code);
            Ok((elapsed, sup.cost_report()))
        }
    }
}

/// Measure one application direct vs. boxed, best of `trials`.
pub fn measure_app(
    app: &AppSpec,
    scale: Scale,
    model: CostModel,
    trials: u32,
) -> SysResult<AppMeasurement> {
    let mut direct = Duration::MAX;
    let mut boxed = Duration::MAX;
    let mut report = TrapCostReport::default();
    for _ in 0..trials.max(1) {
        let (d, _) = time_one(app, scale, None)?;
        direct = direct.min(d);
        let (b, r) = time_one(app, scale, Some(model))?;
        if b < boxed {
            boxed = b;
            report = r;
        }
    }
    Ok(AppMeasurement {
        name: app.name,
        paper_pct: app.paper_overhead_pct,
        direct,
        boxed,
        report,
    })
}

/// Measure the whole suite (Figure 5(b)).
pub fn time_direct_and_boxed(
    scale: Scale,
    model: CostModel,
    trials: u32,
) -> SysResult<Vec<AppMeasurement>> {
    crate::apps::all_apps()
        .iter()
        .map(|app| measure_app(app, scale, model, trials))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural check at tiny scale: the harness completes and the
    /// boxed run interposes every syscall.
    #[test]
    fn harness_measures_all_apps() {
        let results =
            time_direct_and_boxed(Scale(0.005), CostModel::calibrated(), 1).unwrap();
        assert_eq!(results.len(), 6);
        for m in &results {
            assert!(m.direct > Duration::ZERO);
            assert!(m.boxed > Duration::ZERO);
            assert!(m.report.traps > 0, "{} never trapped", m.name);
        }
    }

    /// The full shape comparison runs at bench scale in release mode
    /// only (see crates/bench). Here we check the one ordering that
    /// survives debug-build noise: make is the most trap-intensive per
    /// unit of direct runtime.
    #[test]
    fn make_is_most_metadata_intensive() {
        let results =
            time_direct_and_boxed(Scale(0.01), CostModel::free_switches(), 1).unwrap();
        let density = |m: &AppMeasurement| m.report.traps as f64 / m.direct.as_secs_f64();
        let make = results.iter().find(|m| m.name == "make").unwrap();
        for other in results.iter().filter(|m| m.name != "make") {
            assert!(
                density(make) > density(other),
                "make trap density {} <= {} of {}",
                density(make),
                density(other),
                other.name
            );
        }
    }
}
