//! Layer peeling: the workload's seeded op stream replayed
//! single-threaded at each layer's public entry point, on a replica
//! kernel staged exactly like the served one:
//!
//! * `GuestCtx` on a direct supervisor (no box) and on an identity-box
//!   supervisor (interposition + policy + kernel + vfs);
//! * `IdentityBoxPolicy::check`, timed in place on the boxed replay,
//!   which also captures every call the policy let through;
//! * `Kernel::syscall_shared` on the captured calls;
//! * `Vfs::resolve` on the captured calls' paths, and
//!   `Vfs::file_extents` / `Vfs::write_at` on the workload's files;
//! * the Chirp `codec` on the request and reply lines of each RPC.
//!
//! Every figure is per op, where an op is one RPC of the stream, so the
//! layers line up against each other and against the wire numbers.

use crate::model::{identity, Action, Gen, Kind, Oracle};
use crate::spans::SpanLog;
use idbox_chirp::{codec, export_path};
use idbox_core::{BoxOptions, IdentityBox, IdentityBoxPolicy};
use idbox_interpose::{GuestCtx, PolicyDecision, SharedKernel, Supervisor, SyscallPolicy};
use idbox_kernel::{Kernel, OpenFlags, Pid, SysRet, Syscall};
use idbox_types::{CostModel, Errno, Identity, SysResult, TrapCostReport, ACL_FILE_NAME};
use idbox_vfs::{Cred, Ino};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// The server's supervising user: boxes run under it.
pub const SUP_CRED: Cred = Cred {
    uid: 1000,
    gid: 1000,
};

/// A call the policy let through (as the kernel received it, after any
/// rewrite) and whether it succeeded.
#[derive(Debug, Clone)]
pub struct Captured {
    pub pid: Pid,
    pub call: Syscall,
    pub ok: bool,
}

/// Wraps the box policy: times every `check` and records each call the
/// kernel was asked to run.
pub struct Recorder {
    inner: IdentityBoxPolicy,
    pending: Option<Syscall>,
    log: Arc<Mutex<RecorderLog>>,
}

#[derive(Default)]
pub struct RecorderLog {
    pub calls: Vec<Captured>,
    pub check_ns: u64,
}

impl Recorder {
    pub fn new(inner: IdentityBoxPolicy) -> (Recorder, Arc<Mutex<RecorderLog>>) {
        let log = Arc::new(Mutex::new(RecorderLog::default()));
        (
            Recorder {
                inner,
                pending: None,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl SyscallPolicy for Recorder {
    fn name(&self) -> &str {
        "recorded-identity-box"
    }

    fn check(&mut self, kernel: &Kernel, pid: Pid, call: &Syscall) -> PolicyDecision {
        let t0 = Instant::now();
        let d = self.inner.check(kernel, pid, call);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut log = self.log.lock();
        log.check_ns += ns;
        self.pending = match &d {
            PolicyDecision::Allow => Some(call.clone()),
            PolicyDecision::Rewrite(c) => Some(c.clone()),
            PolicyDecision::Deny(_) => None,
        };
        d
    }

    fn post(&mut self, kernel: &Kernel, pid: Pid, call: &Syscall, result: &mut SysResult<SysRet>) {
        self.inner.post(kernel, pid, call, result);
        if let Some(call) = self.pending.take() {
            self.log.lock().calls.push(Captured {
                pid,
                call,
                ok: result.is_ok(),
            });
        }
    }
}

/// A box on `kernel` with the identity, supervising user and cost
/// model the server's sessions use, and its guest process.
pub struct PeelBox {
    pub pid: Pid,
    identity: Identity,
    passwd: String,
}

impl PeelBox {
    pub fn new(kernel: &SharedKernel, ident: &str, model: CostModel) -> SysResult<PeelBox> {
        let b = IdentityBox::with_options(
            Arc::clone(kernel),
            ident,
            SUP_CRED,
            BoxOptions {
                cost_model: model,
                ..Default::default()
            },
        )?;
        let pid = b.spawn_process("peel")?;
        Ok(PeelBox {
            pid,
            identity: b.identity().clone(),
            passwd: b.passwd_copy().to_string(),
        })
    }

    /// A fresh box policy (cold caches) for this box.
    pub fn policy(&self) -> IdentityBoxPolicy {
        IdentityBoxPolicy::new(self.identity.clone(), SUP_CRED, self.passwd.clone(), true)
    }
}

/// Run one action through a guest context the way the Chirp server's
/// dispatch does. Returns an error when any of its calls failed in a
/// way the wire would have reported (probes excepted: `Ok(false)` when a
/// probe was refused, `Ok(true)` when it was let through).
pub fn guest_action(ctx: &mut GuestCtx<'_>, a: &Action, direct: bool) -> SysResult<bool> {
    let ep = export_path;
    match a {
        Action::Stat { path, .. } => ctx.stat(&ep(path)).map(|_| false),
        Action::Read { path } => {
            let fd = ctx.open(&ep(path), OpenFlags::rdonly(), 0)?;
            ctx.pread_extents(fd, 1 << 20, 0)?;
            ctx.close(fd).map(|_| false)
        }
        Action::Readdir { path, .. } => ctx.readdir(&ep(path)).map(|_| false),
        Action::Getacl { path, .. } => ctx
            .read_file(&format!("{}/{ACL_FILE_NAME}", ep(path)))
            .map(|_| false),
        Action::Get { path } | Action::GetKey { path, .. } => {
            ctx.read_file_extents(&ep(path)).map(|_| false)
        }
        Action::Probe { path } => match ctx.read_file_extents(&ep(path)) {
            Ok(_) => Ok(true),
            Err(Errno::EACCES) => Ok(false),
            Err(e) => Err(e),
        },
        Action::Put { path, key, len } => ctx
            .write_file_mode(&ep(path), &crate::rng::content(*key, *len), 0o644)
            .map(|_| false),
        Action::PutBuf { path, data } => ctx.write_file_mode(&ep(path), data, 0o644).map(|_| false),
        Action::Rename { from, to } => ctx.rename(&ep(from), &ep(to)).map(|_| false),
        Action::Unlink { path } => ctx.unlink(&ep(path)).map(|_| false),
        Action::Mkdir { path } => ctx.mkdir(&ep(path), 0o755).map(|_| false),
        Action::Rmdir { path } => {
            // Unboxed there is no policy to drop the ACL file first.
            if direct {
                let _ = ctx.unlink(&format!("{}/{ACL_FILE_NAME}", ep(path)));
            }
            ctx.rmdir(&ep(path)).map(|_| false)
        }
        Action::Truncate { path, len } => ctx.truncate(&ep(path), *len).map(|_| false),
        Action::Setacl { path, acl } => ctx
            .write_file(&format!("{}/{ACL_FILE_NAME}", ep(path)), acl.as_bytes())
            .map(|_| false),
        Action::GetBurst { paths } => {
            for p in paths {
                ctx.read_file_extents(&ep(p))?;
            }
            Ok(false)
        }
        Action::PwriteSeries { path, chunks } => {
            let fd = ctx.open(
                &ep(path),
                OpenFlags {
                    write: true,
                    ..OpenFlags::default()
                },
                0o644,
            )?;
            for (off, data) in chunks {
                ctx.pwrite(fd, data, *off)?;
            }
            ctx.close(fd).map(|_| false)
        }
    }
}

/// The request and reply head lines of each RPC of an action, as the
/// client and server spell them.
fn wire_lines(a: &Action, stat_reply: &str) -> Vec<(String, String)> {
    let w = codec::encode_word;
    let ok = |n: usize| codec::ok_num(n as i64);
    match a {
        Action::Stat { path, .. } => vec![(format!("stat {}", w(path)), stat_reply.to_string())],
        Action::Read { path } => vec![
            (
                format!("open {} {} 0", w(path), OpenFlags::rdonly().to_bits()),
                ok(3),
            ),
            ("pread 3 4096 0".to_string(), ok(4096)),
            ("close 3".to_string(), "ok".to_string()),
        ],
        Action::Readdir { path, .. } => vec![(format!("readdir {}", w(path)), ok(400))],
        Action::Getacl { path, .. } => vec![(format!("getacl {}", w(path)), ok(64))],
        Action::Get { path } | Action::Probe { path } => {
            vec![(format!("get {}", w(path)), ok(4096))]
        }
        Action::GetKey { path, len, .. } => vec![(format!("get {}", w(path)), ok(*len))],
        Action::Put { path, len, .. } => {
            vec![(format!("put {} {len} 420", w(path)), "ok".to_string())]
        }
        Action::PutBuf { path, data } => {
            vec![(
                format!("put {} {} 420", w(path), data.len()),
                "ok".to_string(),
            )]
        }
        Action::Rename { from, to } => {
            vec![(format!("rename {} {}", w(from), w(to)), "ok".to_string())]
        }
        Action::Unlink { path } => vec![(format!("unlink {}", w(path)), "ok".to_string())],
        Action::Mkdir { path } => vec![(format!("mkdir {} 493", w(path)), "ok".to_string())],
        Action::Rmdir { path } => vec![(format!("rmdir {}", w(path)), "ok".to_string())],
        Action::Truncate { path, len } => {
            vec![(format!("truncate {} {len}", w(path)), "ok".to_string())]
        }
        Action::Setacl { path, acl } => vec![(
            format!("setacl {} {}", w(path), acl.len()),
            "ok".to_string(),
        )],
        Action::GetBurst { paths } => paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    codec::with_id(&format!("get {}", w(p)), i as u64 + 1),
                    ok(16 << 20),
                )
            })
            .collect(),
        Action::PwriteSeries { path, chunks } => {
            let mut v = vec![(format!("open {} 2 420", w(path)), ok(3))];
            for (off, data) in chunks {
                v.push((format!("pwrite 3 {off} {}", data.len()), ok(data.len())));
            }
            v.push(("close 3".to_string(), "ok".to_string()));
            v
        }
    }
}

/// Layer-peeling results, per op of the replayed stream.
#[derive(Debug, Default, Clone)]
pub struct Peel {
    pub ops: u64,
    pub direct_op_ns: f64,
    pub boxed_op_ns: f64,
    pub cost: TrapCostReport,
    pub check_ns: f64,
    pub syscall_ns: f64,
    pub resolve_ns: f64,
    pub codec_ns: f64,
    pub vfs_read_mib_s: f64,
    pub vfs_write_mib_s: f64,
    /// Replayed calls whose outcome differed from the boxed run's.
    pub replay_mismatches: u64,
    /// Probes the boxed replay let through (fail-open).
    pub fail_open: u64,
    /// Boxed-replay actions that failed although the wire run expects
    /// them to succeed.
    pub boxed_errors: u64,
}

/// The stream both users run, interleaved job by job.
fn stream(kind: Kind, seed: u64, oracle: &Oracle, jobs: usize) -> Vec<(usize, Vec<Action>)> {
    let mut gens = [Gen::new(kind, seed, 0), Gen::new(kind, seed, 1)];
    (0..jobs)
        .map(|j| {
            let u = j % 2;
            (u, gens[u].next_cycle(oracle))
        })
        .collect()
}

/// Peel the Chirp workload `kind` on `kernel`, a replica staged like
/// the served one. Spans of every replayed op land in `log`.
pub fn peel_chirp(
    kernel: &SharedKernel,
    oracle: &Oracle,
    jobs: usize,
    log: &mut SpanLog,
) -> SysResult<Peel> {
    let kind = oracle.kind;
    let model = idbox_chirp::ServerConfig::default().cost_model;
    let stream = stream(kind, oracle.seed, oracle, jobs);
    let ops: u64 = stream
        .iter()
        .flat_map(|(_, acts)| acts.iter().map(Action::rpcs))
        .sum();
    let mut peel = Peel {
        ops,
        ..Peel::default()
    };

    // Direct: one plain process per user, no box.
    let mut direct_ns = 0u64;
    {
        let pids: Vec<Pid> = (0..2)
            .map(|_| kernel.read().spawn(SUP_CRED, "/", "peel-direct"))
            .collect::<SysResult<_>>()?;
        let mut sup = Supervisor::direct(Arc::clone(kernel));
        for (op, (u, acts)) in stream.iter().enumerate() {
            let mut ctx = GuestCtx::new(&mut sup, pids[*u]);
            for a in acts {
                let open = log.open();
                let _ = guest_action(&mut ctx, a, true);
                direct_ns += log.close("interpose.direct", open, 0, op as u64);
            }
        }
    }
    peel.direct_op_ns = direct_ns as f64 / ops as f64;

    // Boxed, as the server runs it; then again with the recording policy.
    let boxes = (0..2)
        .map(|u| PeelBox::new(kernel, &identity(u), model))
        .collect::<SysResult<Vec<_>>>()?;
    let mut boxed_ns = 0u64;
    {
        let mut sups: Vec<Supervisor> = boxes
            .iter()
            .map(|b| Supervisor::interposed(Arc::clone(kernel), Box::new(b.policy()), model))
            .collect();
        for (op, (u, acts)) in stream.iter().enumerate() {
            let mut ctx = GuestCtx::new(&mut sups[*u], boxes[*u].pid);
            for a in acts {
                let open = log.open();
                match guest_action(&mut ctx, a, false) {
                    Ok(true) => peel.fail_open += 1,
                    Ok(false) => {}
                    Err(_) => peel.boxed_errors += 1,
                }
                boxed_ns += log.close("interpose.boxed", open, 0, op as u64);
            }
        }
        for s in &sups {
            peel.cost = peel.cost.merged(s.cost_report());
        }
    }
    peel.boxed_op_ns = boxed_ns as f64 / ops as f64;

    let mut captured = Vec::new();
    let mut check_ns = 0u64;
    for (u, b) in boxes.iter().enumerate() {
        let (rec, rlog) = Recorder::new(b.policy());
        let mut sup = Supervisor::interposed(Arc::clone(kernel), Box::new(rec), model);
        for (_, acts) in stream.iter().filter(|(owner, _)| *owner == u) {
            let mut ctx = GuestCtx::new(&mut sup, b.pid);
            for a in acts {
                let _ = guest_action(&mut ctx, a, false);
            }
        }
        let mut l = rlog.lock();
        check_ns += l.check_ns;
        captured.push(std::mem::take(&mut l.calls));
    }
    peel.check_ns = check_ns as f64 / ops as f64;

    // Kernel and vfs: the captured calls, user by user.
    let root = kernel.read().vfs().root();
    let mut syscall_ns = 0u64;
    let mut resolve_ns = 0u64;
    for calls in &captured {
        let (ns, mismatches) = replay_kernel(kernel, calls, log);
        syscall_ns += ns;
        peel.replay_mismatches += mismatches;
        resolve_ns += replay_resolve(kernel, calls, root, log);
    }
    peel.syscall_ns = syscall_ns as f64 / ops as f64;
    peel.resolve_ns = resolve_ns as f64 / ops as f64;

    // Codec: request and reply head lines of every RPC.
    let stat_reply = {
        let k = kernel.read();
        let p = export_path(oracle.files[0].first().map_or("/", |f| f.0.as_str()));
        let mut line = "ok".to_string();
        if let Ok(st) = k.vfs().stat(root, &p, true, &SUP_CRED) {
            for w in idbox_interpose::abi::encode_stat(&st) {
                line.push_str(&format!(" {w}"));
            }
        }
        line
    };
    let mut codec_ns = 0u64;
    for (op, (_, acts)) in stream.iter().enumerate() {
        for a in acts {
            for (req, reply) in wire_lines(a, &stat_reply) {
                let open = log.open();
                codec_round_trip(&req, &reply);
                codec_ns += log.close("chirp.codec", open, 0, op as u64);
            }
        }
    }
    peel.codec_ns = codec_ns as f64 / ops as f64;

    let files: Vec<(String, usize)> = oracle
        .files
        .iter()
        .flatten()
        .map(|(p, d)| (export_path(p), d.len()))
        .collect();
    (peel.vfs_read_mib_s, peel.vfs_write_mib_s) = vfs_bytes(kernel, &files, root, log);
    Ok(peel)
}

/// One request through the codec as client and server handle it: the
/// client stamps the trace token, the server strips the v2 tokens and
/// splits the words, the client parses the reply head.
pub fn codec_round_trip(req: &str, reply: &str) {
    let stamped = codec::with_trace(req, idbox_obs::next_trace_id());
    let (line, _) = codec::strip_trace(&stamped);
    let (line, _) = codec::strip_retry(line);
    let (line, _) = codec::strip_id(line);
    let words = codec::split_words(line);
    let parsed = codec::parse_response(reply);
    let _ = std::hint::black_box((words, parsed));
}

/// Replay captured calls through `Kernel::syscall_shared`. The policy's
/// own follow-up (dropping a directory's ACL file before a retried
/// `rmdir`) is repeated so the replay stays in step. Returns the time
/// spent in the kernel and how many outcomes differed from the capture.
pub fn replay_kernel(kernel: &SharedKernel, calls: &[Captured], log: &mut SpanLog) -> (u64, u64) {
    let k = kernel.read();
    let (mut ns, mut mismatches) = (0u64, 0u64);
    for (i, c) in calls.iter().enumerate() {
        let open = log.open();
        let mut r = k.syscall_shared(c.pid, c.call.clone());
        if let (Syscall::Rmdir(p), Err(Errno::ENOTEMPTY)) = (&c.call, &r) {
            let _ = k.syscall_shared(c.pid, Syscall::Unlink(format!("{p}/{ACL_FILE_NAME}")));
            r = k.syscall_shared(c.pid, c.call.clone());
        }
        ns += log.close("kernel.syscall", open, 0, i as u64);
        mismatches += u64::from(r.is_ok() != c.ok);
    }
    (ns, mismatches)
}

/// Resolve every path the captured calls named (relative ones from
/// `cwd`), as the kernel's path walk does. Returns the time spent.
pub fn replay_resolve(
    kernel: &SharedKernel,
    calls: &[Captured],
    cwd: Ino,
    log: &mut SpanLog,
) -> u64 {
    let k = kernel.read();
    let vfs = k.vfs();
    let root = vfs.root();
    let mut ns = 0u64;
    for (i, c) in calls.iter().enumerate() {
        for p in call_paths(&c.call) {
            let start = if p.starts_with('/') { root } else { cwd };
            let open = log.open();
            let _ = std::hint::black_box(vfs.resolve(start, p, true, &SUP_CRED));
            ns += log.close("vfs.resolve", open, 0, i as u64);
        }
    }
    ns
}

fn call_paths(call: &Syscall) -> Vec<&str> {
    use Syscall::*;
    match call {
        Stat(p)
        | Lstat(p)
        | Open(p, ..)
        | Mkdir(p, _)
        | Rmdir(p)
        | Unlink(p)
        | Readlink(p)
        | Truncate(p, _)
        | AccessCheck(p, _)
        | Readdir(p)
        | Chmod(p, _)
        | Chown(p, ..)
        | Chdir(p)
        | Exec(p) => vec![p.as_str()],
        Rename(a, b) | Link(a, b) => vec![a.as_str(), b.as_str()],
        Symlink(_, b) => vec![b.as_str()],
        _ => Vec::new(),
    }
}

/// Read (borrow extents of) and rewrite (same bytes, in place) every
/// listed file through the vfs; MiB/s of each.
pub fn vfs_bytes(
    kernel: &SharedKernel,
    files: &[(String, usize)],
    start: Ino,
    log: &mut SpanLog,
) -> (f64, f64) {
    let k = kernel.read();
    let vfs = k.vfs();
    let (mut read_ns, mut write_ns, mut bytes) = (0u64, 0u64, 0u64);
    for (i, (path, len)) in files.iter().enumerate() {
        let Ok(ino) = vfs.resolve(start, path, true, &SUP_CRED) else {
            continue;
        };
        let open = log.open();
        let extents = vfs.file_extents(ino, 0, *len);
        read_ns += log.close("vfs.file_extents", open, 0, i as u64);
        let Ok(extents) = extents else { continue };
        let data = extents.to_vec();
        let open = log.open();
        let _ = vfs.write_at(ino, 0, &data);
        write_ns += log.close("vfs.write_at", open, 0, i as u64);
        bytes += *len as u64;
    }
    let mib = bytes as f64 / (1 << 20) as f64;
    let rate = |ns: u64| {
        if ns == 0 {
            0.0
        } else {
            mib / (ns as f64 / 1e9)
        }
    };
    (rate(read_ns), rate(write_ns))
}
