//! The Chirp server.

use crate::codec::{self, error_line, ok_num};
use crate::eventloop::{self, LoopCtx, Registration, WorkerHandle, BATCH_MAX_OPS};
use crate::export_path;
use idbox_acl::Acl;
use idbox_auth::ServerVerifier;
use idbox_core::{AuditRing, Verdict};
use idbox_interpose::abi;
use idbox_interpose::{share, GuestCtx, SharedKernel};
use idbox_kernel::{Account, Kernel, OpenFlags, Pid, Syscall};
use idbox_obs::{
    now_unix_ns, IdentityCounters, IdentityMetrics, Phase, SlowOpLog, TraceCell,
    IDENTITY_METRICS_DEFAULT_CAP, SLOW_OP_DEFAULT_CAP,
};
use idbox_types::{CostModel, Errno, SysResult};
use idbox_vfs::{Cred, ExtentList};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use std::time::Duration;

/// A registered guest program: what a staged `#!guest <name>` script
/// resolves to.
pub type GuestFn = Arc<dyn Fn(&mut GuestCtx<'_>, &[String]) -> i32 + Send + Sync>;

/// Server configuration.
pub struct ServerConfig {
    /// Server name (advertised to the catalog).
    pub name: String,
    /// Authentication configuration.
    pub verifier: ServerVerifier,
    /// The ACL installed on the export root (the paper's `/` ACL).
    pub root_acl: Acl,
    /// Cost model for the per-connection identity boxes.
    pub cost_model: CostModel,
    /// Reverse-lookup table for the hostname method.
    pub host_db: BTreeMap<IpAddr, String>,
    /// A catalog to report to (the paper's "servers report themselves
    /// to a catalog"), with re-registration on this heartbeat period.
    pub catalog: Option<SocketAddr>,
    /// Heartbeat period for catalog re-registration.
    pub heartbeat: Duration,
    /// Per-socket read/write timeout. An idle connection whose client
    /// neither sends nor receives within this window is disconnected
    /// (slowloris mitigation). `None` waits forever.
    pub io_timeout: Option<Duration>,
    /// Maximum concurrently served connections. Clients over the cap are
    /// refused with a protocol `error` line instead of being accepted.
    pub max_connections: usize,
    /// Qualified principals (`method:name`, e.g.
    /// `globus:/O=UnivNowhere/CN=Admin`) allowed to call the admin
    /// RPCs (`stats`, `audit`, `metrics`, `slowops`, `tracedump`,
    /// `health`, `walsnap`). Everyone else gets `EACCES`; the default
    /// is empty, so observability is off the wire unless explicitly
    /// granted.
    pub admins: Vec<String>,
    /// Operations at least this long are kept as spans in the slow-op
    /// ring (the `slowops` RPC). `Duration::ZERO` keeps everything.
    pub slow_op_threshold: Duration,
    /// Load-shedding watermark: when this many RPCs are already in
    /// dispatch server-wide, new requests are refused with a fast
    /// `error EAGAIN` instead of queueing behind the backlog. The
    /// session stays connected; a retrying client simply backs off.
    /// `None` disables shedding.
    pub busy_watermark: Option<usize>,
    /// Per-identity concurrency cap: an identity already running this
    /// many RPCs has further requests shed with `error EAGAIN`, so one
    /// noisy principal cannot monopolize dispatch. `None` means
    /// unlimited.
    pub max_inflight_per_identity: Option<usize>,
    /// How long shutdown waits for in-flight RPCs to finish before
    /// force-closing their sockets. Bounded so a stuck guest program
    /// cannot hang the embedding process (or CI) forever.
    pub drain_deadline: Duration,
    /// Event-loop worker threads multiplexing connections. `0` (the
    /// default) means the host's parallelism clamped to [2, 8]. At
    /// least two workers run even on one core, so a long-running
    /// dispatch (a slow `exec`) never blocks every other connection.
    pub event_loops: usize,
    /// Soft watchdog budget for one event-loop readiness cycle. A
    /// worker whose cycle (readiness → dispatch → flush) exceeds the
    /// budget bumps its stall counter and emits a rate-limited
    /// `loop-stall` audit row. `None` (the default) and
    /// `Some(Duration::ZERO)` disable the watchdog.
    pub loop_stall: Option<Duration>,
    /// Ablation switch for the zero-copy data plane: when set, `get`
    /// and `pread` fall back to the copying read path (flat buffer
    /// materialized under the shard lock, then copied into the
    /// connection's write buffer), so the extent pipeline can be A/B
    /// benchmarked against the pre-extent behaviour. `false` (the
    /// default) serves reads zero-copy.
    pub copy_data_plane: bool,
    /// Directory for the write-ahead log. When set, every namespace and
    /// account mutation is logged to disk and replayed on the next
    /// boot, so the export space survives a restart or crash. `None`
    /// (the in-memory default) keeps the kernel volatile.
    pub wal_dir: Option<std::path::PathBuf>,
    /// Group-commit burst backstop: the flusher is woken early once
    /// this many records are dirty (the `wal_sync_ms` tick is the
    /// primary pacing). `0` = fsync every append (strictest). Default
    /// 65536.
    pub wal_sync_ops: u64,
    /// Group-commit interval: a background flusher fsyncs dirty records
    /// at least this often, in milliseconds. Ignored when syncing every
    /// op. Default 25.
    pub wal_sync_ms: u64,
    /// Auto-snapshot cadence: snapshot + truncate the log whenever this
    /// many records have accumulated since the last snapshot. `0`
    /// disables auto-snapshots (the `walsnap` RPC still works). Default
    /// 10000.
    pub wal_snapshot_ops: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let mut host_db = BTreeMap::new();
        host_db.insert(
            IpAddr::from([127, 0, 0, 1]),
            "localhost".to_string(),
        );
        ServerConfig {
            name: "chirp".to_string(),
            verifier: ServerVerifier::new(),
            root_acl: Acl::empty(),
            cost_model: CostModel::free_switches(),
            host_db,
            catalog: None,
            heartbeat: Duration::from_secs(60),
            io_timeout: None,
            max_connections: 1024,
            admins: Vec::new(),
            slow_op_threshold: Duration::from_millis(1),
            busy_watermark: None,
            max_inflight_per_identity: None,
            drain_deadline: Duration::from_secs(1),
            event_loops: 0,
            loop_stall: None,
            copy_data_plane: false,
            wal_dir: None,
            wal_sync_ops: 65536,
            wal_sync_ms: 25,
            wal_snapshot_ops: 10_000,
        }
    }
}

/// Live-connection registry: duplicated stream handles keyed by a
/// connection id, used both to gate admission (`len()` against
/// `max_connections`) and to signal lingering sessions on shutdown
/// (`TcpStream::shutdown` unblocks their reads).
pub(crate) type ConnRegistry = Arc<std::sync::Mutex<std::collections::HashMap<u64, TcpStream>>>;

/// A Chirp server ready to be spawned.
pub struct ChirpServer {
    config: ServerConfig,
    kernel: SharedKernel,
    programs: BTreeMap<String, GuestFn>,
    sup_cred: Cred,
    audit: Arc<AuditRing>,
    metrics: Arc<IdentityMetrics>,
    slow_ops: Arc<SlowOpLog>,
    /// Auto-snapshot cadence in records (0 = off); meaningful only when
    /// the kernel carries a WAL.
    wal_snapshot_every: u64,
    /// The recovery report from boot, when a WAL directory was
    /// configured.
    recovery: Option<idbox_vfs::RecoveryReport>,
}

/// The kernel's syscall name table, as the `'static` slice the metrics
/// registry sizes and labels its per-syscall counters with.
const SYSCALL_NAMES: &[&str] = &Syscall::NAMES;

impl ChirpServer {
    /// Build a server with its own simulated kernel: the export space
    /// lives at [`crate::EXPORT_ROOT`] and carries `config.root_acl`.
    /// The server runs as an ordinary user (`chirp`, uid 1000) — no
    /// privileges anywhere.
    ///
    /// Setup failures (account clash, export-root creation, a root ACL
    /// that cannot be installed) come back as errors so a bad config
    /// cannot kill the embedding process.
    pub fn new(config: ServerConfig) -> SysResult<Self> {
        // Durable mode: boot the kernel from the WAL directory's
        // snapshot + log instead of from scratch.
        let (k, recovery) = match &config.wal_dir {
            Some(dir) => {
                let mut wal_cfg = idbox_vfs::WalConfig::new(dir.clone());
                wal_cfg.sync_ops = config.wal_sync_ops;
                wal_cfg.sync_ms = config.wal_sync_ms;
                let (k, report) = Kernel::with_durability(wal_cfg).map_err(|_| Errno::EIO)?;
                (k, Some(report))
            }
            None => (Kernel::new(), None),
        };
        let wal_snapshot_every = if config.wal_dir.is_some() {
            config.wal_snapshot_ops
        } else {
            0
        };
        let restored = recovery.as_ref().is_some_and(|r| r.restored);
        // Setup is idempotent across restarts: on a restored namespace
        // the account and export root already exist, and the operator's
        // live ACL and ownership (possibly changed since first boot via
        // `setacl`) are preserved rather than clobbered with the
        // config's bootstrap values.
        if k.accounts().lookup("chirp").is_none() {
            k.account_add(Account::new("chirp", 1000, 1000))?;
        }
        let sup_cred = Cred::new(1000, 1000);
        let root = k.vfs().root();
        let export = k
            .vfs()
            .mkdir_all(root, crate::EXPORT_ROOT, 0o755, &Cred::ROOT)?;
        if !restored {
            k.vfs()
                .chown(root, crate::EXPORT_ROOT, 1000, 1000, &Cred::ROOT)?;
            idbox_core::write_acl(k.vfs(), export, &config.root_acl, &sup_cred)?;
        }
        let slow_ops = Arc::new(SlowOpLog::new(
            SLOW_OP_DEFAULT_CAP,
            config.slow_op_threshold.as_nanos().min(u128::from(u64::MAX)) as u64,
        ));
        Ok(ChirpServer {
            config,
            kernel: share(k),
            programs: BTreeMap::new(),
            sup_cred,
            audit: Arc::new(AuditRing::default()),
            metrics: Arc::new(IdentityMetrics::new(
                SYSCALL_NAMES,
                IDENTITY_METRICS_DEFAULT_CAP,
            )),
            slow_ops,
            wal_snapshot_every,
            recovery,
        })
    }

    /// The boot recovery report, when a WAL directory was configured.
    pub fn recovery(&self) -> Option<&idbox_vfs::RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Register a guest program for `exec` (resolved from staged
    /// `#!guest <name>` scripts).
    pub fn register_program(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut GuestCtx<'_>, &[String]) -> i32 + Send + Sync + 'static,
    ) {
        self.programs.insert(name.into(), Arc::new(f));
    }

    /// The server's kernel (tests inspect the export space through it).
    pub fn kernel(&self) -> &SharedKernel {
        &self.kernel
    }

    /// Bind to a local port and serve connections from a readiness-
    /// polled event loop: an accept thread admits connections and
    /// hands them to worker threads, each multiplexing its share of
    /// connections as nonblocking state machines. Returns a handle
    /// carrying the bound address.
    pub fn spawn(self) -> std::io::Result<ChirpServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let verifier = Arc::new(self.config.verifier);
        let host_db = Arc::new(self.config.host_db);
        let max_connections = self.config.max_connections;
        let audit = Arc::clone(&self.audit);
        let metrics = Arc::clone(&self.metrics);
        let drain_deadline = self.config.drain_deadline;
        let draining = Arc::new(AtomicBool::new(false));
        let inflight = Arc::new(AtomicU64::new(0));
        let conns: ConnRegistry = Arc::default();
        let conns2 = Arc::clone(&conns);
        let n_workers = match self.config.event_loops {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8),
            n => n,
        };
        let loop_stats = Arc::new(idbox_obs::LoopStats::new(n_workers));
        // First server in the process wires the lock shim's contention
        // hook into the flight recorder (idempotent).
        idbox_obs::flight::install_lock_hook();
        let ctl = SessionCtl {
            kernel: Arc::clone(&self.kernel),
            admins: Arc::new(self.config.admins),
            audit: Arc::clone(&self.audit),
            metrics: Arc::clone(&self.metrics),
            slow_ops: Arc::clone(&self.slow_ops),
            loop_stats: Arc::clone(&loop_stats),
            draining: Arc::clone(&draining),
            inflight: Arc::clone(&inflight),
            busy_watermark: self.config.busy_watermark,
            max_inflight_per_identity: self.config.max_inflight_per_identity,
            copy_data_plane: self.config.copy_data_plane,
        };
        let lc = Arc::new(LoopCtx {
            ctl,
            programs: Arc::new(self.programs),
            cost_model: self.config.cost_model,
            sup_cred: self.sup_cred,
            io_timeout: self.config.io_timeout,
            conns: Arc::clone(&conns),
            stall_budget: self.config.loop_stall.filter(|d| !d.is_zero()),
        });
        let workers = eventloop::spawn_workers(n_workers, lc, Arc::clone(&stop))?;
        let wakers: Vec<WorkerHandle> = workers
            .iter()
            .map(|w| w.duplicate())
            .collect::<std::io::Result<_>>()?;
        // Auto-snapshot: when the kernel is durable and a cadence is
        // configured, a background thread snapshots the namespace and
        // truncates the log whenever enough records accumulate. RPCs
        // proceed while it runs; the vfs shard read locks inside
        // `snapshot_cut` provide the consistency point.
        let wal = self.kernel.vfs().wal().cloned();
        if let (Some(wal), every) = (wal, self.wal_snapshot_every) {
            if every > 0 {
                let kernel = Arc::clone(&self.kernel);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if wal.since_snapshot() >= every {
                            let _ = kernel.wal_snapshot();
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                });
            }
        }
        // Catalog heartbeat: register now and on every period until
        // shutdown.
        if let Some(catalog) = self.config.catalog {
            let name = self.config.name.clone();
            let stop = Arc::clone(&stop);
            let period = self.config.heartbeat;
            let addr_str = addr.to_string();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = crate::catalog::register(catalog, &addr_str, &name);
                    // Sleep in small slices so shutdown is prompt.
                    let mut remaining = period;
                    while !stop.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                        let slice = remaining.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            });
        }
        let join = std::thread::spawn(move || {
            let mut next_id: u64 = 0;
            loop {
                let accepted = listener.accept();
                // Shutdown wakes this blocking `accept` with a
                // self-connect after setting `stop`.
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                match accepted {
                    Ok((mut stream, peer)) => {
                        // Admission gate: over the cap, the client gets
                        // a protocol error line, never a session. The
                        // refusal happens before authentication, so it
                        // is counted against the server (the label-less
                        // `idbox_admission_shed_total` sample), not an
                        // identity, and audited under a placeholder.
                        let mut registry = conns2.lock().unwrap_or_else(|e| e.into_inner());
                        if registry.len() >= max_connections {
                            drop(registry);
                            metrics.bump_admission_shed();
                            audit.record_named(
                                "(unauthenticated)",
                                "admission-shed",
                                None,
                                Verdict::Deny,
                                Some(Errno::EAGAIN),
                                None,
                            );
                            let _ = stream
                                .write_all(error_line(Errno::EAGAIN).as_bytes())
                                .and_then(|_| stream.write_all(b"\n"));
                            continue;
                        }
                        let id = next_id;
                        next_id += 1;
                        if let Ok(dup) = stream.try_clone() {
                            registry.insert(id, dup);
                        }
                        drop(registry);
                        // Small request/response lines: without nodelay
                        // every reply stalls on Nagle + delayed ACK.
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            conns2
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&id);
                            continue;
                        }
                        let mut verifier = (*verifier).clone();
                        verifier.peer_hostname = host_db.get(&peer.ip()).cloned();
                        workers[id as usize % workers.len()].submit(Registration {
                            id,
                            stream,
                            verifier,
                        });
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ChirpServerHandle {
            addr,
            stop,
            join: Some(join),
            kernel: Arc::clone(&self.kernel),
            conns,
            audit: Arc::clone(&self.audit),
            metrics: Arc::clone(&self.metrics),
            slow_ops: Arc::clone(&self.slow_ops),
            loop_stats,
            draining,
            inflight,
            drain_deadline,
            wakers,
        })
    }
}

/// A running server; shuts down when dropped.
pub struct ChirpServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    kernel: SharedKernel,
    conns: ConnRegistry,
    audit: Arc<AuditRing>,
    metrics: Arc<IdentityMetrics>,
    slow_ops: Arc<SlowOpLog>,
    loop_stats: Arc<idbox_obs::LoopStats>,
    draining: Arc<AtomicBool>,
    inflight: Arc<AtomicU64>,
    drain_deadline: Duration,
    wakers: Vec<WorkerHandle>,
}

impl ChirpServerHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's kernel.
    pub fn kernel(&self) -> &SharedKernel {
        &self.kernel
    }

    /// The server-wide policy-decision audit ring.
    pub fn audit_ring(&self) -> &Arc<AuditRing> {
        &self.audit
    }

    /// The server-wide per-identity metrics registry.
    pub fn metrics(&self) -> &Arc<IdentityMetrics> {
        &self.metrics
    }

    /// The server-wide slow-operation span ring.
    pub fn slow_ops(&self) -> &Arc<SlowOpLog> {
        &self.slow_ops
    }

    /// Per-worker event-loop health counters.
    pub fn loop_stats(&self) -> &Arc<idbox_obs::LoopStats> {
        &self.loop_stats
    }

    /// Number of connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.conns.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// RPCs currently in dispatch, server-wide.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Put the server into drain mode without shutting it down: every
    /// subsequent request on every session is shed with `error EAGAIN`
    /// while in-flight RPCs run to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Leave drain mode: requests are served normally again. Pairs with
    /// [`ChirpServerHandle::begin_drain`] for maintenance windows that
    /// end without a shutdown.
    pub fn end_drain(&self) {
        self.draining.store(false, Ordering::Relaxed);
    }

    /// Graceful shutdown: enter drain mode, stop accepting, let
    /// in-flight RPCs finish (bounded by the configured
    /// `drain_deadline`), then signal every lingering connection —
    /// their sockets are shut down, so blocked reads return immediately
    /// and the session threads exit instead of waiting for their peers
    /// to hang up.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.join.is_none() {
            return; // already shut down (explicit shutdown, then drop)
        }
        // Drain first: sessions shed new work while in-flight RPCs run
        // to completion (or the deadline passes — a stuck guest program
        // must not be able to hang the embedding process).
        self.draining.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        // Kick every worker out of `poll` so they observe the stop flag
        // promptly (workers are detached; only the accept thread joins).
        for w in &self.wakers {
            w.notify();
        }
        // One self-connect wakes the accept thread out of `accept` to
        // observe the stop flag. A thread the connect cannot reach is
        // left detached rather than joined, so shutdown cannot hang.
        let woke = TcpStream::connect(self.addr).is_ok();
        if let Some(j) = self.join.take() {
            if woke {
                let _ = j.join();
            }
        }
        let deadline = std::time::Instant::now() + self.drain_deadline;
        let mut clean = true;
        while self.inflight.load(Ordering::Relaxed) > 0 {
            if std::time::Instant::now() >= deadline {
                clean = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // The drain outcome lands in the same audit ring as every other
        // policy decision: Allow when all in-flight work finished, Deny
        // + EBUSY when the deadline force-closed stragglers.
        if clean {
            self.audit
                .record_named("server", "drain", None, Verdict::Allow, None, None);
        } else {
            self.audit.record_named(
                "server",
                "drain",
                None,
                Verdict::Deny,
                Some(Errno::EBUSY),
                None,
            );
        }
        let registry = std::mem::take(
            &mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for stream in registry.values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // The shutdown sockets report readable in the workers' poll
        // sets; one more wake covers workers sleeping on an empty set.
        for w in &self.wakers {
            w.notify();
        }
    }
}

impl Drop for ChirpServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Server-wide observability state a session can reach from `dispatch`:
/// the shared kernel (latency histograms live inside it), the admin
/// list, and the audit ring.
pub(crate) struct SessionCtl {
    pub(crate) kernel: SharedKernel,
    pub(crate) admins: Arc<Vec<String>>,
    pub(crate) audit: Arc<AuditRing>,
    pub(crate) metrics: Arc<IdentityMetrics>,
    pub(crate) slow_ops: Arc<SlowOpLog>,
    pub(crate) loop_stats: Arc<idbox_obs::LoopStats>,
    /// Set when the server is draining: every request is shed so
    /// in-flight work can finish and sessions wind down.
    pub(crate) draining: Arc<AtomicBool>,
    /// Server-wide count of RPCs currently in dispatch, shared with the
    /// handle (shutdown polls it) and checked against `busy_watermark`.
    pub(crate) inflight: Arc<AtomicU64>,
    pub(crate) busy_watermark: Option<usize>,
    pub(crate) max_inflight_per_identity: Option<usize>,
    /// When set, `get`/`pread` use the copying read path instead of
    /// streamed extents (the data-plane ablation switch).
    pub(crate) copy_data_plane: bool,
}

impl SessionCtl {
    /// `Ok` when `principal` may call the observability RPCs.
    fn require_admin(&self, principal: &idbox_types::Principal) -> SysResult<()> {
        let who = principal.to_string();
        if self.admins.iter().any(|a| a == &who) {
            Ok(())
        } else {
            Err(Errno::EACCES)
        }
    }
}

/// Per-session observability state threaded into `dispatch`: the cell
/// holding the current request's trace id and the identity string spans
/// are labeled with.
pub(crate) struct SessionObs {
    pub(crate) trace: Arc<TraceCell>,
    pub(crate) identity: String,
}

/// Decrements an identity's active-session gauge when the session ends,
/// on every exit path.
pub(crate) struct SessionGauge(pub(crate) Arc<IdentityCounters>);

impl Drop for SessionGauge {
    fn drop(&mut self) {
        self.0.session_ended();
    }
}

/// Marks one RPC in dispatch, in both the server-wide counter (the
/// load-shedding watermark and the drain poll read it) and the
/// identity's gauge. Dropped on every exit path, so a panicking dispatch
/// cannot leak an in-flight slot and wedge shutdown.
pub(crate) struct InflightGuard {
    global: Arc<AtomicU64>,
    counters: Arc<IdentityCounters>,
}

impl InflightGuard {
    pub(crate) fn new(global: &Arc<AtomicU64>, counters: &Arc<IdentityCounters>) -> Self {
        global.fetch_add(1, Ordering::Relaxed);
        counters.rpc_started();
        InflightGuard {
            global: Arc::clone(global),
            counters: Arc::clone(counters),
        }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let _ = self
            .global
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
        self.counters.rpc_finished();
    }
}

/// Payload length announced by a request line, for the verbs that carry
/// a payload after it: `Ok(None)` for payload-less verbs, `Ok(Some(n))`
/// for a valid announce, and the errno to answer with for a malformed
/// or oversized one (which the framer answers *without* waiting for any
/// payload bytes — no announce can make the server reserve more than
/// [`codec::PAYLOAD_MAX`]).
pub(crate) fn announced_payload(words: &[String]) -> Result<Option<u64>, Errno> {
    let (idx, oversize) = match words[0].as_str() {
        "pwrite" => (3, Errno::EPROTO),
        // `put` historically refuses an oversized announce with EINVAL;
        // the others surface the payload reader's EPROTO.
        "put" => (2, Errno::EINVAL),
        "setacl" => (2, Errno::EPROTO),
        "batch" => (1, Errno::EPROTO),
        _ => return Ok(None),
    };
    let len: u64 = words
        .get(idx)
        .and_then(|w| w.parse().ok())
        .ok_or(Errno::EPROTO)?;
    if len > codec::PAYLOAD_MAX {
        return Err(oversize);
    }
    Ok(Some(len))
}

pub(crate) enum Reply {
    Line(String),
    Payload(String, Vec<u8>),
    /// Head line plus extents borrowed from the Vfs via `Arc` — the
    /// zero-copy reply path. The event loop queues the extents as
    /// scatter-gather segments and streams them with vectored writes;
    /// the file bytes are never copied into a connection buffer.
    Stream(String, ExtentList),
}

fn parse_num<T: std::str::FromStr>(w: Option<&String>) -> SysResult<T> {
    w.and_then(|s| s.parse().ok()).ok_or(Errno::EPROTO)
}

/// Time a data-plane read (the Vfs extent fetch) and record it on the
/// flight recorder's `data` plane, joined to the request's trace id.
/// The matching `stream` span closes in the event loop when the reply's
/// last byte is flushed.
fn data_read_span<T>(obs: &SessionObs, f: impl FnOnce() -> SysResult<T>) -> SysResult<T> {
    let t0 = std::time::Instant::now();
    let result = f();
    if let Some(trace) = obs.trace.get() {
        let dur_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        idbox_obs::flight::record_span(
            "data",
            "read",
            Some(trace),
            now_unix_ns().saturating_sub(dur_ns),
            dur_ns,
        );
    }
    result
}

/// Dispatch one framed request. `payload` is the request's announced
/// payload, already sliced off the wire by the framer (empty for
/// payload-less verbs), so dispatch never touches the socket. It is
/// passed as an owned buffer so verbs that keep the bytes (`setacl`)
/// can take them without another copy; the framer recycles whatever is
/// left behind.
pub(crate) fn dispatch(
    words: &[String],
    payload: &mut Vec<u8>,
    ctx: &mut GuestCtx<'_>,
    principal: &idbox_types::Principal,
    programs: &BTreeMap<String, GuestFn>,
    ctl: &SessionCtl,
    obs: &SessionObs,
) -> SysResult<Reply> {
    let cmd = words[0].as_str();
    let arg = |i: usize| -> SysResult<&String> { words.get(i).ok_or(Errno::EPROTO) };
    match cmd {
        "whoami" => Ok(Reply::Line(format!(
            "ok {}",
            codec::encode_word(&principal.to_string())
        ))),
        "stat" => {
            let st = ctx.stat(&export_path(arg(1)?))?;
            let ws = abi::encode_stat(&st);
            let mut line = "ok".to_string();
            for w in ws {
                line.push(' ');
                line.push_str(&w.to_string());
            }
            Ok(Reply::Line(line))
        }
        "open" => {
            let flags = OpenFlags::from_bits(parse_num(words.get(2))?);
            let mode: u16 = parse_num(words.get(3))?;
            let fd = ctx.open(&export_path(arg(1)?), flags, mode)?;
            Ok(Reply::Line(ok_num(fd)))
        }
        "close" => {
            ctx.close(parse_num(words.get(1))?)?;
            Ok(Reply::Line("ok".to_string()))
        }
        "pread" => {
            let fd: i64 = parse_num(words.get(1))?;
            let len: usize = parse_num(words.get(2))?;
            let off: u64 = parse_num(words.get(3))?;
            if len as u64 > codec::PAYLOAD_MAX {
                return Err(Errno::EINVAL);
            }
            if ctl.copy_data_plane {
                let mut buf = vec![0u8; len];
                let n = ctx.pread(fd, &mut buf, off)?;
                buf.truncate(n);
                return Ok(Reply::Payload(ok_num(n as i64), buf));
            }
            let extents = data_read_span(obs, || ctx.pread_extents(fd, len, off))?;
            Ok(Reply::Stream(ok_num(extents.total as i64), extents))
        }
        "pwrite" => {
            let fd: i64 = parse_num(words.get(1))?;
            let off: u64 = parse_num(words.get(2))?;
            let n = ctx.pwrite(fd, payload, off)?;
            Ok(Reply::Line(ok_num(n as i64)))
        }
        "fstat" => {
            let st = ctx.fstat(parse_num(words.get(1))?)?;
            let ws = abi::encode_stat(&st);
            let mut line = "ok".to_string();
            for w in ws {
                line.push(' ');
                line.push_str(&w.to_string());
            }
            Ok(Reply::Line(line))
        }
        "mkdir" => {
            ctx.mkdir(&export_path(arg(1)?), parse_num(words.get(2))?)?;
            Ok(Reply::Line("ok".to_string()))
        }
        "rmdir" => {
            ctx.rmdir(&export_path(arg(1)?))?;
            Ok(Reply::Line("ok".to_string()))
        }
        "unlink" => {
            ctx.unlink(&export_path(arg(1)?))?;
            Ok(Reply::Line("ok".to_string()))
        }
        "rename" => {
            ctx.rename(&export_path(arg(1)?), &export_path(arg(2)?))?;
            Ok(Reply::Line("ok".to_string()))
        }
        "truncate" => {
            ctx.truncate(&export_path(arg(1)?), parse_num(words.get(2))?)?;
            Ok(Reply::Line("ok".to_string()))
        }
        "readdir" => {
            let entries = ctx.readdir(&export_path(arg(1)?))?;
            let text = abi::encode_entries(&entries);
            Ok(Reply::Payload(
                ok_num(text.len() as i64),
                text.into_bytes(),
            ))
        }
        "getacl" => {
            let dir = export_path(arg(1)?);
            let acl_path = format!("{dir}/{}", idbox_types::ACL_FILE_NAME);
            let data = ctx.read_file(&acl_path)?;
            Ok(Reply::Payload(ok_num(data.len() as i64), data))
        }
        "setacl" => {
            let dir = export_path(arg(1)?);
            // Validate before installing: a bad ACL must not brick the
            // directory. The payload buffer is taken by value — no
            // intermediate copy on the way to the UTF-8 check.
            let text =
                String::from_utf8(std::mem::take(payload)).map_err(|_| Errno::EINVAL)?;
            Acl::parse(&text).map_err(|_| Errno::EINVAL)?;
            let acl_path = format!("{dir}/{}", idbox_types::ACL_FILE_NAME);
            ctx.write_file(&acl_path, text.as_bytes())?;
            Ok(Reply::Line("ok".to_string()))
        }
        "put" => {
            let path = export_path(arg(1)?);
            let mode: u16 = match words.get(3) {
                Some(w) => w.parse().map_err(|_| Errno::EPROTO)?,
                None => 0o644,
            };
            ctx.write_file_mode(&path, payload, mode)?;
            Ok(Reply::Line("ok".to_string()))
        }
        "get" => {
            let path = export_path(arg(1)?);
            if ctl.copy_data_plane {
                let data = ctx.read_file(&path)?;
                return Ok(Reply::Payload(ok_num(data.len() as i64), data));
            }
            let extents = data_read_span(obs, || ctx.read_file_extents(&path))?;
            Ok(Reply::Stream(ok_num(extents.total as i64), extents))
        }
        // Wire protocol v2: many small metadata ops in one frame. The
        // payload is one command line per sub-op (same word encoding as
        // top-level requests, no trailing tokens); the reply payload is
        // one reply line per sub-op, in order — `ok ...` with any bulk
        // result percent-encoded as a single word, or `error <code>`.
        // Sub-ops fail independently; the batch itself only errors on a
        // malformed envelope. One shed check and one in-flight slot
        // cover the whole frame — that is the point: cross the
        // expensive boundary once per batch, not once per call.
        "batch" => {
            let text = std::str::from_utf8(payload).map_err(|_| Errno::EINVAL)?;
            let lines: Vec<&str> = text
                .split('\n')
                .filter(|l| !l.trim().is_empty())
                .collect();
            if lines.len() > BATCH_MAX_OPS {
                return Err(Errno::EINVAL);
            }
            let mut out = String::new();
            for line in lines {
                out.push_str(&batch_sub_op(line, ctx, principal, programs, ctl, obs));
                out.push('\n');
            }
            Ok(Reply::Payload(ok_num(out.len() as i64), out.into_bytes()))
        }
        "exec" => {
            let path = export_path(arg(1)?);
            let args: Vec<String> = words[2..].to_vec();
            // The boxed child inherits the session's environment across
            // fork, so the request's trace id follows the visitor into
            // the program it runs — the third plane of the join.
            if let Some(id) = obs.trace.get() {
                ctl.kernel
                    .set_env(ctx.pid(), abi::TRACE_ENV, id.to_string())?;
            }
            let t0 = std::time::Instant::now();
            let result = run_exec(ctx, &path, &args, programs);
            idbox_obs::observe_span(
                &ctl.slow_ops,
                obs.trace.get(),
                Phase::Exec,
                path.clone(),
                &obs.identity,
                t0.elapsed().as_nanos() as u64,
            );
            Ok(Reply::Line(ok_num(result? as i64)))
        }
        // Observability RPCs: restricted to configured admin
        // principals; everyone else is refused before any state is
        // touched.
        "stats" => {
            ctl.require_admin(principal)?;
            let snap = ctl.kernel.latency().snapshot();
            let mut text = String::new();
            for (name, count, p50, p99) in snap.rows() {
                // An empty histogram has no percentiles; emit `-` rather
                // than a fake 0 ns that reads as "instant".
                let p50 = p50.map_or_else(|| "-".to_string(), |v| v.to_string());
                let p99 = p99.map_or_else(|| "-".to_string(), |v| v.to_string());
                text.push_str(&format!("{name} {count} {p50} {p99}\n"));
            }
            Ok(Reply::Payload(ok_num(text.len() as i64), text.into_bytes()))
        }
        "audit" => {
            ctl.require_admin(principal)?;
            // Optional cursor: only events with seq >= since. The reply
            // head carries the next cursor (the ring's write head) as a
            // second word, which pre-cursor clients never read.
            let since: u64 = match words.get(1) {
                Some(w) => w.parse().map_err(|_| Errno::EPROTO)?,
                None => 0,
            };
            let next = ctl.audit.total_recorded();
            let mut text = String::new();
            for e in ctl.audit.snapshot_since(since) {
                let path = match &e.path {
                    Some(p) => codec::encode_word(p),
                    None => "-".to_string(),
                };
                let errno = match e.errno {
                    Some(err) => err.code().to_string(),
                    None => "-".to_string(),
                };
                let trace = match e.trace {
                    Some(t) => t.to_string(),
                    None => "-".to_string(),
                };
                text.push_str(&format!(
                    "{} {} {} {} {} {} {}\n",
                    e.seq,
                    codec::encode_word(e.identity.as_str()),
                    e.syscall,
                    path,
                    e.verdict.as_str(),
                    errno,
                    trace
                ));
            }
            Ok(Reply::Payload(
                format!("ok {} {}", text.len(), next),
                text.into_bytes(),
            ))
        }
        "metrics" => {
            ctl.require_admin(principal)?;
            let mut text = ctl.metrics.render_prometheus();
            text.push_str(&idbox_obs::render_lock_prometheus(
                &parking_lot::lock_snapshot(),
            ));
            text.push_str(&ctl.loop_stats.render_prometheus());
            // Durable servers expose the WAL families too. The stats
            // come from the vfs layer; obs only sees a snapshot struct.
            let wal = ctl.kernel.vfs().wal().cloned();
            if let Some(wal) = wal {
                let s = wal.stats();
                text.push_str(&idbox_obs::render_wal_prometheus(&idbox_obs::WalCounters {
                    appends: s.appends,
                    bytes: s.append_bytes,
                    fsyncs: s.fsyncs,
                    snapshots: s.snapshots,
                    errors: s.errors,
                    log_bytes: s.log_bytes,
                    since_snapshot: s.since_snapshot,
                    replayed: s.replayed,
                    torn_tails: u64::from(s.torn_tail),
                    corrupt_frames: u64::from(s.corrupt_frame),
                }));
            }
            Ok(Reply::Payload(ok_num(text.len() as i64), text.into_bytes()))
        }
        // Force a durability snapshot now (admin-only): cuts the log at
        // a consistent point and truncates replayed history. `ENOSYS`
        // on a volatile (no-WAL) server, `EIO` when the disk fails.
        "walsnap" => {
            ctl.require_admin(principal)?;
            match ctl.kernel.wal_snapshot() {
                Ok(Some(watermark)) => Ok(Reply::Line(format!("ok {watermark}"))),
                Ok(None) => Err(Errno::ENOSYS),
                Err(_) => Err(Errno::EIO),
            }
        }
        // Flight-recorder dump: every buffered structured event (spans,
        // shard waits, sheds, retries) rendered as Chrome trace-viewer
        // JSON, loadable in Perfetto / chrome://tracing. An optional
        // seconds argument restricts the dump to the trailing window.
        "tracedump" => {
            ctl.require_admin(principal)?;
            let since_ns = match words.get(1) {
                Some(w) => {
                    let secs: u64 = w.parse().map_err(|_| Errno::EPROTO)?;
                    now_unix_ns().saturating_sub(secs.saturating_mul(1_000_000_000))
                }
                None => 0,
            };
            let events = idbox_obs::flight::snapshot_since(since_ns);
            let text = idbox_obs::flight::render_chrome_trace(&events);
            Ok(Reply::Payload(ok_num(text.len() as i64), text.into_bytes()))
        }
        // One-line health rollup: the numbers an operator reaches for
        // first during an incident, without scraping full Prometheus
        // text. Percentiles are `-` while the histograms are empty.
        "health" => {
            ctl.require_admin(principal)?;
            let loop_p99 = ctl
                .loop_stats
                .lag_percentile_us(99.0)
                .map_or_else(|| "-".to_string(), |v| v.to_string());
            let locks = parking_lot::lock_snapshot();
            let shard_p99 = parking_lot::lock_wait_percentile_us(&locks, 99.0)
                .map_or_else(|| "-".to_string(), |v| v.to_string());
            let mut inflight = 0u64;
            let mut shed = ctl.metrics.admission_shed();
            for (_, c) in ctl.metrics.snapshot() {
                inflight += c.inflight();
                shed += c.rpcs_shed();
            }
            Ok(Reply::Line(format!(
                "ok loop_p99_us={} shard_wait_p99_us={} inflight={} shed={} conns={} workers={} stalls={}",
                loop_p99,
                shard_p99,
                inflight,
                shed,
                ctl.loop_stats.conns_total(),
                ctl.loop_stats.workers().len(),
                ctl.loop_stats.stalls_total(),
            )))
        }
        "slowops" => {
            ctl.require_admin(principal)?;
            let mut text = String::new();
            for s in ctl.slow_ops.snapshot() {
                let trace = match s.trace {
                    Some(t) => t.to_string(),
                    None => "-".to_string(),
                };
                text.push_str(&format!(
                    "{} {} {} {} {} {}\n",
                    trace,
                    s.phase.as_str(),
                    codec::encode_word(&s.name),
                    codec::encode_word(&s.identity),
                    s.start_ns,
                    s.dur_ns
                ));
            }
            Ok(Reply::Payload(ok_num(text.len() as i64), text.into_bytes()))
        }
        _ => Err(Errno::ENOSYS),
    }
}

/// Verbs a `batch` frame may carry: the small metadata ops whose
/// round-trip tax batching exists to amortize. Payload-bearing verbs,
/// `exec`, the admin RPCs, and `batch` itself are excluded — they keep
/// their own frames.
const BATCH_VERBS: &[&str] = &[
    "whoami", "stat", "fstat", "open", "close", "readdir", "getacl", "mkdir", "rmdir", "unlink",
    "rename", "truncate",
];

/// Run one batch sub-op and render its reply line. Bulk replies
/// (readdir listings, ACL text) are percent-encoded into a single word
/// so every sub-reply stays a one-liner.
fn batch_sub_op(
    line: &str,
    ctx: &mut GuestCtx<'_>,
    principal: &idbox_types::Principal,
    programs: &BTreeMap<String, GuestFn>,
    ctl: &SessionCtl,
    obs: &SessionObs,
) -> String {
    let words = match codec::split_words(line) {
        Ok(w) if !w.is_empty() => w,
        _ => return error_line(Errno::EPROTO),
    };
    if !BATCH_VERBS.contains(&words[0].as_str()) {
        return error_line(Errno::ENOSYS);
    }
    match dispatch(&words, &mut Vec::new(), ctx, principal, programs, ctl, obs) {
        Ok(Reply::Line(l)) => l,
        Ok(Reply::Payload(_, data)) => match String::from_utf8(data) {
            Ok(text) => format!("ok {}", codec::encode_word(&text)),
            Err(_) => error_line(Errno::EIO),
        },
        // No batch verb streams today, but collapse extents the same
        // way a rendered payload collapses if one ever does.
        Ok(Reply::Stream(_, extents)) => match String::from_utf8(extents.to_vec()) {
            Ok(text) => format!("ok {}", codec::encode_word(&text)),
            Err(_) => error_line(Errno::EIO),
        },
        Err(e) => error_line(e),
    }
}

/// Reap the specific child `pid`. The kernel's `wait` returns *any*
/// zombie, so a leftover from an earlier `exec` on this connection could
/// otherwise be mistaken for the child just spawned; statuses of
/// strangers are discarded until ours arrives.
fn reap_exactly(ctx: &mut GuestCtx<'_>, pid: Pid) -> SysResult<i32> {
    loop {
        let (reaped, code) = ctx.wait()?;
        if reaped == pid {
            return Ok(code);
        }
    }
}

/// The paper's `exec` call: the staged program runs in a child process
/// of this connection's identity box, in the staged file's directory.
///
/// Supervisor-side failures inside the child (cannot enter the work
/// directory, cannot write the captured output) propagate as real
/// errnos through a side channel — the child's exit code is reserved
/// for the guest program itself.
fn run_exec(
    ctx: &mut GuestCtx<'_>,
    path: &str,
    args: &[String],
    programs: &BTreeMap<String, GuestFn>,
) -> SysResult<i32> {
    use std::cell::Cell;
    use std::rc::Rc;

    // The x (and r) rights are enforced by the box policy here.
    ctx.exec(path)?;
    let image = ctx.read_file(path)?;
    let workdir = idbox_vfs::path::split_parent(path)
        .map(|(d, _)| d.to_string())
        .ok_or(Errno::EINVAL)?;
    let fault: Rc<Cell<Option<Errno>>> = Rc::new(Cell::new(None));

    // A staged GuestScript program: the code itself travelled over the
    // wire; interpret it in a child of the box, capturing `echo` output
    // into `script.out` next to the program.
    let child = if idbox_workloads::is_script(&image) {
        let fault = Rc::clone(&fault);
        ctx.run_child(move |c| {
            if let Err(e) = c.chdir(&workdir) {
                fault.set(Some(e));
                return 0;
            }
            let result = idbox_workloads::run_script(c, &image);
            if let Err(e) = c.write_file("script.out", result.output.as_bytes()) {
                fault.set(Some(e));
                return 0;
            }
            result.code
        })?
    } else {
        // Otherwise: a registered compiled program named by the shebang.
        let text = String::from_utf8_lossy(&image);
        let first = text.lines().next().unwrap_or("");
        let prog_name = first
            .strip_prefix("#!guest ")
            .map(str::trim)
            .ok_or(Errno::ENOSYS)?;
        let prog = programs.get(prog_name).cloned().ok_or(Errno::ENOSYS)?;
        let args = args.to_vec();
        let fault = Rc::clone(&fault);
        ctx.run_child(move |c| {
            if let Err(e) = c.chdir(&workdir) {
                fault.set(Some(e));
                return 0;
            }
            prog(c, &args)
        })?
    };
    let code = reap_exactly(ctx, child)?;
    if let Some(e) = fault.take() {
        return Err(e);
    }
    Ok(code)
}
