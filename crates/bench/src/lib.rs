//! Shared measurement helpers for the figure-regeneration harnesses.
//!
//! Each table and figure of the paper has a binary here (printed,
//! human-readable reproduction) and, where latency distributions matter,
//! a Criterion bench. Measured rows are also appended as TSV under
//! `results/` at the workspace root so EXPERIMENTS.md can cite them.

use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ServerVerifier};
use idbox_chirp::{ChirpServer, ChirpServerHandle, ServerConfig};
use idbox_core::{BoxOptions, IdentityBox};
use idbox_interpose::{share, GuestCtx, Supervisor};
use idbox_kernel::{Account, Kernel};
use idbox_types::{AuthMethod, CostModel};
use idbox_vfs::Cred;
use idbox_workloads::micro::{self, MicroCase};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// One Figure 5(a) measurement row.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Which syscall case.
    pub case: MicroCase,
    /// Microseconds per call, unmodified.
    pub direct_us: f64,
    /// Microseconds per call, inside the identity box.
    pub boxed_us: f64,
}

impl MicroResult {
    /// Boxed / direct latency ratio.
    pub fn ratio(&self) -> f64 {
        self.boxed_us / self.direct_us
    }
}

/// A Figure 5(a) row measured both with the fast-path caches (dentry +
/// ACL verdict) enabled and with them off — the before/after pair the
/// per-trap-tax ablation reports.
#[derive(Debug, Clone)]
pub struct MicroAblation {
    /// Which syscall case.
    pub case: MicroCase,
    /// Microseconds per call, unmodified.
    pub direct_us: f64,
    /// Microseconds per call, boxed, caches on (the shipping config).
    pub boxed_us: f64,
    /// Microseconds per call, boxed, dentry + verdict caches disabled.
    pub boxed_nocache_us: f64,
}

impl MicroAblation {
    /// Boxed (cached) / direct latency ratio — the Figure 5(a) number.
    pub fn ratio(&self) -> f64 {
        self.boxed_us / self.direct_us
    }

    /// Boxed (uncached) / direct latency ratio.
    pub fn nocache_ratio(&self) -> f64 {
        self.boxed_nocache_us / self.direct_us
    }

    /// How much the caches buy on this case: uncached / cached boxed
    /// latency (> 1 means the caches help).
    pub fn cache_speedup(&self) -> f64 {
        self.boxed_nocache_us / self.boxed_us
    }

    /// Whether this case exercises path resolution + ACL evaluation on
    /// every call (the metadata-heavy mix the caches target). Data-path
    /// cases go through an open descriptor and bypass both caches.
    pub fn is_metadata_heavy(&self) -> bool {
        matches!(self.case, MicroCase::Stat | MicroCase::OpenClose)
    }
}

/// The slowdowns the paper's Figure 5(a) chart shows (approximate bar
/// readings): getpid/stat/read-1/write-1 near 10x, open/close near
/// 5.5x, and the 8 KiB transfers near 2.8-3.3x — "an order of
/// magnitude" for the small calls, less once bulk bytes amortize the
/// trap. The band accepts that whole range.
pub fn fig5a_paper_ratio_band() -> (f64, f64) {
    (2.5, 40.0)
}

/// Direct mode: a plain process. Boxed mode: a full identity box (its
/// policy does the real per-call ACL work the paper's numbers include).
/// `caches` toggles the whole fast path at once — the kernel's dentry
/// cache and the box's ACL/verdict caches — for before/after ablations.
fn micro_ctx(model: Option<CostModel>, caches: bool) -> (Supervisor, idbox_kernel::Pid) {
    let mut k = Kernel::new();
    k.accounts_mut()
        .add(Account::new("dthain", 1000, 1000))
        .expect("fresh kernel");
    k.vfs_mut().set_dentry_cache(caches);
    let kernel = share(k);
    let sup_cred = Cred::new(1000, 1000);
    match model {
        None => {
            let pid = kernel
                .spawn(sup_cred, "/tmp", "micro")
                .expect("spawn");
            (Supervisor::direct(kernel), pid)
        }
        Some(m) => {
            let b = IdentityBox::with_options(
                kernel,
                "globus:/O=UnivNowhere/CN=Fred",
                sup_cred,
                BoxOptions {
                    cost_model: m,
                    cache_acls: caches,
                    ..Default::default()
                },
            )
            .expect("create box");
            let pid = b.spawn_process("micro").expect("spawn");
            (b.supervisor(), pid)
        }
    }
}

/// Time one microbenchmark case: seconds per call, best of 3 batches.
pub fn time_micro_case(case: MicroCase, model: Option<CostModel>, iters: u64) -> f64 {
    time_micro_case_cfg(case, model, iters, true)
}

/// [`time_micro_case`] with the fast-path caches configurable.
pub fn time_micro_case_cfg(
    case: MicroCase,
    model: Option<CostModel>,
    iters: u64,
    caches: bool,
) -> f64 {
    let (mut sup, pid) = micro_ctx(model, caches);
    let mut ctx = GuestCtx::new(&mut sup, pid);
    micro::prepare(&mut ctx);
    micro::run_case(&mut ctx, case, iters / 10); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        micro::run_case(&mut ctx, case, iters);
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Measure the whole Figure 5(a) table.
pub fn measure_fig5a(model: CostModel, iters: u64) -> Vec<MicroResult> {
    MicroCase::all()
        .into_iter()
        .map(|case| MicroResult {
            case,
            direct_us: time_micro_case(case, None, iters) * 1e6,
            boxed_us: time_micro_case(case, Some(model), iters) * 1e6,
        })
        .collect()
}

/// Measure the Figure 5(a) table with the boxed column run twice:
/// fast-path caches on and off.
pub fn measure_fig5a_ablation(model: CostModel, iters: u64) -> Vec<MicroAblation> {
    MicroCase::all()
        .into_iter()
        .map(|case| MicroAblation {
            case,
            direct_us: time_micro_case(case, None, iters) * 1e6,
            boxed_us: time_micro_case_cfg(case, Some(model), iters, true) * 1e6,
            boxed_nocache_us: time_micro_case_cfg(case, Some(model), iters, false) * 1e6,
        })
        .collect()
}

/// Where measured rows are recorded (workspace `results/`).
pub fn results_path(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    let _ = std::fs::create_dir_all(&p);
    p.push(name);
    p
}

/// Write a TSV result file (header + rows).
pub fn write_tsv(name: &str, header: &str, rows: &[String]) {
    let path = results_path(name);
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "{header}");
        for r in rows {
            let _ = writeln!(f, "{r}");
        }
        eprintln!("(results written to {})", path.display());
    }
}

/// Write a text result file verbatim (used for JSON reports).
pub fn write_text(name: &str, contents: &str) {
    let path = results_path(name);
    if std::fs::write(&path, contents).is_ok() {
        eprintln!("(results written to {})", path.display());
    }
}

/// A numeric harness knob from the environment, or `default` when it
/// is unset or not a number.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A comma-separated list knob from the environment (unparsable items
/// skipped), or `default` when it is unset or yields nothing.
pub fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Spawn a Chirp server for a wire harness: Globus-only authentication
/// trusting a fresh `/O=UnivNowhere` CA (returned, to issue client
/// certificates), and a root ACL that lets its holders list and reserve
/// directories with full rights. `config` supplies everything else.
pub fn spawn_server(config: ServerConfig) -> (ChirpServerHandle, CertificateAuthority) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xBE7C4);
    let mut verifier = ServerVerifier::new();
    verifier.accept = vec![AuthMethod::Globus];
    verifier.cas.trust(ca.clone());
    let mut root_acl = Acl::empty();
    root_acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    let s = ChirpServer::new(ServerConfig {
        verifier,
        root_acl,
        ..config
    })
    .unwrap();
    (s.spawn().unwrap(), ca)
}

/// A standard bench-quality cost model: calibrate quickly toward the
/// paper's 10x getpid target, falling back to the static default under
/// unusual hosts. Set `IDBOX_BENCH_FAST=1` to skip the calibration
/// sweep (CI smoke runs, where absolute ratios do not matter).
pub fn bench_model() -> CostModel {
    if std::env::var_os("IDBOX_BENCH_FAST").is_some() {
        eprintln!("IDBOX_BENCH_FAST set: using the static cost model, no calibration sweep");
        return CostModel::calibrated();
    }
    let (model, ratio) = idbox_interpose::calibrate::calibrate();
    eprintln!(
        "calibrated cost model: footprint={} bytes, boxed/direct getpid = {ratio:.1}x",
        model.switch_footprint_bytes
    );
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_measurement_is_sane() {
        // Tiny iteration counts: this is a smoke test of the harness,
        // not a benchmark.
        let r = time_micro_case(MicroCase::Getpid, None, 200);
        assert!(r > 0.0 && r < 1.0);
    }

    #[test]
    fn cache_off_measurement_is_sane() {
        let r = time_micro_case_cfg(
            MicroCase::Stat,
            Some(CostModel::free_switches()),
            200,
            false,
        );
        assert!(r > 0.0 && r < 1.0);
    }

    #[test]
    fn results_dir_created() {
        let p = results_path("smoke.tsv");
        assert!(p.parent().unwrap().exists());
    }
}
