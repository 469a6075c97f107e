//! The application suite.

mod amanda;
mod blast;
mod cms;
mod hf;
mod ibis;
mod makeapp;

use idbox_interpose::GuestCtx;

/// Workload scale factor: `Scale(1.0)` is bench scale (hundreds of
/// milliseconds per run); unit tests use small fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Bench scale.
    pub fn bench() -> Self {
        Scale(1.0)
    }

    /// Fast scale for unit tests.
    pub fn test() -> Self {
        Scale(0.01)
    }

    /// Scale a step count (never below 1).
    pub fn steps(&self, base: u64) -> u64 {
        ((base as f64 * self.0) as u64).max(1)
    }
}

/// One synthetic application.
pub struct AppSpec {
    /// Short name as used in Figure 5(b).
    pub name: &'static str,
    /// What the real application was.
    pub description: &'static str,
    /// The slowdown the paper reports for it (percent).
    pub paper_overhead_pct: f64,
    /// Stage input files (run unmeasured, in whichever mode).
    pub prepare: fn(&mut GuestCtx<'_>, Scale),
    /// The measured phase. Works entirely in the process's cwd.
    pub run: fn(&mut GuestCtx<'_>, Scale) -> i32,
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AppSpec({})", self.name)
    }
}

/// The whole suite, in Figure 5(b) order.
pub fn all_apps() -> Vec<AppSpec> {
    vec![
        amanda::spec(),
        blast::spec(),
        cms::spec(),
        hf::spec(),
        ibis::spec(),
        makeapp::spec(),
    ]
}

/// Find one app by name.
pub fn app_by_name(name: &str) -> Option<AppSpec> {
    all_apps().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_interpose::{share, Supervisor};
    use idbox_kernel::Kernel;
    use idbox_vfs::Cred;

    /// Every app must run to successful completion in both modes, with
    /// the same observable results.
    #[test]
    fn apps_complete_in_both_modes() {
        for app in all_apps() {
            for interposed in [false, true] {
                let kernel = share(Kernel::new());
                let pid = {
                    let k = &*kernel;
                    let root = k.vfs().root();
                    k.vfs()
                        .mkdir_all(root, "/work", 0o777, &Cred::ROOT)
                        .unwrap();
                    k.spawn(Cred::new(1000, 1000), "/work", app.name).unwrap()
                };
                let mut sup = if interposed {
                    Supervisor::interposed(
                        kernel,
                        Box::new(idbox_interpose::AllowAll),
                        idbox_types::CostModel::calibrated(),
                    )
                } else {
                    Supervisor::direct(kernel)
                };
                let mut ctx = idbox_interpose::GuestCtx::new(&mut sup, pid);
                (app.prepare)(&mut ctx, Scale::test());
                let code = (app.run)(&mut ctx, Scale::test());
                assert_eq!(
                    code, 0,
                    "{} failed (interposed={})",
                    app.name, interposed
                );
            }
        }
    }

    #[test]
    fn suite_matches_figure5b() {
        let names: Vec<_> = all_apps().iter().map(|a| a.name).collect();
        assert_eq!(names, ["amanda", "blast", "cms", "hf", "ibis", "make"]);
        // The paper's reported overheads ride along for the harness.
        let make = app_by_name("make").unwrap();
        assert_eq!(make.paper_overhead_pct, 35.0);
        let ibis = app_by_name("ibis").unwrap();
        assert_eq!(ibis.paper_overhead_pct, 0.7);
    }

    #[test]
    fn scale_steps_never_zero() {
        assert_eq!(Scale(1e-9).steps(100), 1);
        assert_eq!(Scale(2.0).steps(100), 200);
    }
}
