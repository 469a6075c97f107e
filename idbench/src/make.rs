//! `box_make`: the paper's `make` application built over and over
//! inside an identity box on one thread, no network. Each build gets a
//! fresh kernel and a freshly prepared tree (that is its set-up); its
//! outputs must equal those of an unboxed reference build, and after
//! each build the boxed guest probes another identity's file, which
//! must fail with `EACCES`.

use crate::peel::{replay_kernel, replay_resolve, vfs_bytes, Captured, Recorder, SUP_CRED};
use crate::spans::SpanLog;
use crate::wire::Tally;
use idbox_core::{BoxOptions, IdentityBox, IdentityBoxPolicy};
use idbox_interpose::{share, GuestCtx, SharedKernel, Supervisor};
use idbox_kernel::{Kernel, Pid};
use idbox_types::{CostModel, Errno, TrapCostReport};
use idbox_workloads::apps::{app_by_name, AppSpec, Scale};
use std::sync::Arc;
use std::time::Instant;

/// Tree scale: 1600 sources, about half a second per boxed build on a
/// contemporary core.
pub const SCALE: Scale = Scale(4.0);
pub const BUILDER: &str = "globus:/O=UnivNowhere/CN=Builder";
pub const OTHER: &str = "globus:/O=UnivNowhere/CN=Other";
const SECRET: &[u8] = b"not for the builder\n";

/// A kernel holding a prepared tree in the builder's box, plus a file
/// in another identity's home for the probe.
pub struct Prepared {
    pub kernel: SharedKernel,
    pub pid: Pid,
    pub home: String,
    pub probe: String,
    policy: IdentityBoxPolicy,
    pub setup_s: f64,
}

fn app() -> AppSpec {
    app_by_name("make").expect("the make app exists")
}

/// Set up one build: fresh kernel, the other identity's home with its
/// secret, the builder's box, and `make`'s tree staged from inside it.
pub fn prepare(model: CostModel) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let kernel = share(Kernel::new());
    let other = IdentityBox::create(Arc::clone(&kernel), OTHER, SUP_CRED)
        .map_err(|e| format!("other box: {e:?}"))?;
    let probe = format!("{}/secret", other.home());
    {
        let k = kernel.read();
        let root = k.vfs().root();
        k.vfs()
            .write_file(root, &probe, SECRET, &SUP_CRED)
            .map_err(|e| format!("secret: {e:?}"))?;
    }
    let b = IdentityBox::with_options(
        Arc::clone(&kernel),
        BUILDER,
        SUP_CRED,
        BoxOptions {
            cost_model: model,
            ..Default::default()
        },
    )
    .map_err(|e| format!("builder box: {e:?}"))?;
    let pid = b
        .spawn_process("make")
        .map_err(|e| format!("spawn: {e:?}"))?;
    let policy = IdentityBoxPolicy::new(b.identity().clone(), SUP_CRED, b.passwd_copy(), true);
    let mut sup = b.supervisor();
    (app().prepare)(&mut GuestCtx::new(&mut sup, pid), SCALE);
    Ok(Prepared {
        kernel,
        pid,
        home: b.home().to_string(),
        probe,
        policy,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// What one build left behind: every object file and the binary, by
/// path relative to the build directory.
pub type Outputs = Vec<(String, Vec<u8>)>;

fn outputs(kernel: &SharedKernel, dir: &str) -> Result<Outputs, String> {
    files(kernel, dir, &[".o", ".bin"])
}

/// Every file under `dir` whose name ends in one of `suffixes`, with its
/// bytes, by relative path, sorted.
fn files(kernel: &SharedKernel, dir: &str, suffixes: &[&str]) -> Result<Outputs, String> {
    let k = kernel.read();
    let vfs = k.vfs();
    let root = vfs.root();
    let mut out = Vec::new();
    let mut dirs = vec![String::new()];
    while let Some(rel) = dirs.pop() {
        let abs = if rel.is_empty() {
            dir.to_string()
        } else {
            format!("{dir}/{rel}")
        };
        let entries = vfs
            .readdir(root, &abs, &SUP_CRED)
            .map_err(|e| format!("{abs}: {e:?}"))?;
        for e in entries {
            let name = if rel.is_empty() {
                e.name.clone()
            } else {
                format!("{rel}/{}", e.name)
            };
            if e.name.starts_with('.') {
                continue;
            }
            if e.kind == idbox_vfs::FileKind::Dir {
                dirs.push(name);
            } else if suffixes.iter().any(|s| name.ends_with(s)) {
                let data = vfs
                    .read_file(root, &format!("{dir}/{name}"), &SUP_CRED)
                    .map_err(|e| format!("{name}: {e:?}"))?;
                out.push((name, data));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The unboxed reference build whose outputs every boxed build must
/// reproduce, and its wall time.
pub fn reference() -> Result<(Outputs, f64), String> {
    let kernel = share(Kernel::new());
    let pid = {
        let k = kernel.read();
        let root = k.vfs().root();
        k.vfs()
            .mkdir_all(root, "/work", 0o777, &idbox_vfs::Cred::ROOT)
            .map_err(|e| format!("{e:?}"))?;
        k.spawn(SUP_CRED, "/work", "make")
            .map_err(|e| format!("{e:?}"))?
    };
    let mut sup = Supervisor::direct(Arc::clone(&kernel));
    let mut ctx = GuestCtx::new(&mut sup, pid);
    (app().prepare)(&mut ctx, SCALE);
    let t0 = Instant::now();
    let code = (app().run)(&mut ctx, SCALE);
    let secs = t0.elapsed().as_secs_f64();
    if code != 0 {
        return Err(format!("reference build exited {code}"));
    }
    Ok((outputs(&kernel, "/work")?, secs))
}

/// One boxed build's measurements.
pub struct Build {
    pub secs: f64,
    pub cost: TrapCostReport,
    pub syscalls: u64,
    pub dentry: (u64, u64),
    pub verdicts: (u64, u64),
    pub denials: u64,
    pub check_ns: u64,
    pub captured: Vec<Captured>,
    pub out_bytes: u64,
    /// The build's kernel, kept while the build is the latest one so
    /// the run's resident memory can be read with a built tree loaded.
    pub kernel: Option<SharedKernel>,
}

/// Run `make` in the prepared box (through the recording policy when
/// `record`), check its outputs against the reference and probe the
/// other identity's secret.
pub fn build(
    p: Prepared,
    model: CostModel,
    reference: &Outputs,
    record: bool,
    tally: &mut Tally,
    log: &mut SpanLog,
    parent: u64,
) -> Build {
    let stats = p.policy.stats();
    let (policy, rlog): (Box<dyn idbox_interpose::SyscallPolicy>, _) = if record {
        let (rec, rlog) = Recorder::new(p.policy);
        (Box::new(rec), Some(rlog))
    } else {
        (Box::new(p.policy), None)
    };
    let mut sup = Supervisor::interposed(Arc::clone(&p.kernel), policy, model);
    let (sys0, dentry0) = {
        let k = p.kernel.read();
        (k.total_syscalls(), k.vfs().dentry_stats())
    };
    let mut ctx = GuestCtx::new(&mut sup, p.pid);
    let open = log.open();
    let code = (app().run)(&mut ctx, SCALE);
    let ns = log.close("make.build", open, parent, 0);
    tally.attempted += 1;
    if code != 0 {
        tally.fail(format!("make exited {code}"));
    }
    tally.probes += 1;
    tally.attempted += 1;
    match ctx.read_file(&p.probe) {
        Err(Errno::EACCES) => {}
        Ok(_) => {
            tally.fail_open = true;
            tally.fail(format!("FAIL-OPEN: builder read {}", p.probe));
        }
        Err(e) => tally.fail(format!("probe {}: {e:?}, want EACCES", p.probe)),
    }
    let (sys1, dentry1) = {
        let k = p.kernel.read();
        (k.total_syscalls(), k.vfs().dentry_stats())
    };
    let mut out_bytes = 0;
    tally.attempted += 1;
    match outputs(&p.kernel, &p.home) {
        Ok(got) if got == *reference => out_bytes = got.iter().map(|(_, d)| d.len() as u64).sum(),
        Ok(got) => tally.fail(format!(
            "build outputs differ: {} files vs {} expected",
            got.len(),
            reference.len()
        )),
        Err(e) => tally.fail(format!("reading outputs: {e}")),
    }
    let (check_ns, captured) = match rlog {
        Some(l) => {
            let mut l = l.lock();
            (l.check_ns, std::mem::take(&mut l.calls))
        }
        None => (0, Vec::new()),
    };
    let (_, denials, _, _) = stats.snapshot();
    Build {
        secs: ns as f64 / 1e9,
        cost: sup.cost_report(),
        syscalls: sys1 - sys0,
        dentry: (dentry1.0 - dentry0.0, dentry1.1 - dentry0.1),
        verdicts: stats.verdict_snapshot(),
        denials,
        check_ns,
        captured,
        out_bytes,
        kernel: Some(p.kernel),
    }
}

/// Median wall time of `n` unboxed builds, each on a fresh tree.
pub fn direct_build_s(n: usize) -> Result<f64, String> {
    let mut v = Vec::new();
    for _ in 0..n {
        v.push(reference()?.1);
    }
    Ok(crate::stats::median(&mut v))
}

/// Kernel and vfs replays of one build's captured calls, on a fresh
/// tree prepared the same way: (syscall ns, resolve ns, mismatches,
/// vfs read MiB/s, vfs write MiB/s).
pub fn peel(
    model: CostModel,
    captured: &[Captured],
    log: &mut SpanLog,
) -> Result<(u64, u64, u64, f64, f64), String> {
    let p = prepare(model)?;
    let home = {
        let k = p.kernel.read();
        let root = k.vfs().root();
        k.vfs()
            .resolve(root, &p.home, true, &SUP_CRED)
            .map_err(|e| format!("{e:?}"))?
    };
    let resolve_ns = replay_resolve(&p.kernel, captured, home, log);
    let (syscall_ns, mismatches) = replay_kernel(&p.kernel, captured, log);
    let sources: Vec<(String, usize)> = files(&p.kernel, &p.home, &[".c"])?
        .into_iter()
        .map(|(rel, data)| (format!("{}/{rel}", p.home), data.len()))
        .collect();
    let root = p.kernel.read().vfs().root();
    let (r, w) = vfs_bytes(&p.kernel, &sources, root, log);
    Ok((syscall_ns, resolve_ns, mismatches, r, w))
}
