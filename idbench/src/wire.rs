//! The Chirp stack under load: an in-process server with its default
//! `ServerConfig` (plus the authentication, root ACL, admin list and —
//! for `churn` — WAL directory the workload needs), two authenticated
//! client connections, staging, and the closed-loop runner that drives
//! the seeded op streams and checks every reply.

use crate::counters::Expo;
use crate::model::{identity, Action, Gen, Kind, Oracle, ADMIN, USERS, WILDCARD};
use crate::rng::content;
use crate::spans::SpanLog;
use crate::stats::LatHist;
use idbox_acl::{Acl, Rights};
use idbox_auth::{CertificateAuthority, ClientCredential, ServerVerifier};
use idbox_chirp::{ChirpClient, ChirpServer, ChirpServerHandle, HealthRow, ServerConfig};
use idbox_interpose::SharedKernel;
use idbox_kernel::OpenFlags;
use idbox_types::{AuthMethod, Errno, Identity, SysResult};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub fn authority() -> CertificateAuthority {
    CertificateAuthority::new("/O=UnivNowhere CA", 0x1DB0_BE7C)
}

pub fn server_config(wal_dir: Option<PathBuf>) -> ServerConfig {
    let mut verifier = ServerVerifier::new();
    verifier.accept = vec![AuthMethod::Globus];
    verifier.cas.trust(authority());
    let mut root_acl = Acl::empty();
    root_acl.set_reserve(WILDCARD, Rights::LIST, Rights::RWLAX);
    ServerConfig {
        name: "idbench".into(),
        verifier,
        root_acl,
        admins: vec![format!("globus:{ADMIN}")],
        wal_dir,
        ..Default::default()
    }
}

pub fn connect(addr: SocketAddr, subject: &str) -> SysResult<ChirpClient> {
    ChirpClient::connect(
        addr,
        &[ClientCredential::Globus(authority().issue(subject))],
    )
}

/// A booted, staged server and its two load connections.
pub struct Stack {
    pub handle: ChirpServerHandle,
    pub clients: Vec<ChirpClient>,
    pub wal_dir: Option<PathBuf>,
}

impl Stack {
    pub fn kernel(&self) -> SharedKernel {
        self.handle.kernel().clone()
    }
}

/// Set up once: boot (opening the WAL for a durable workload), connect
/// and authenticate both identities, and stage each one's tree over its
/// own connection in parallel.
pub fn setup(oracle: &Oracle, wal_dir: Option<PathBuf>) -> Result<Stack, String> {
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("WAL dir {}: {e}", dir.display()))?;
    }
    let server = ChirpServer::new(server_config(wal_dir.clone()))
        .map_err(|e| format!("server boot: {e:?}"))?;
    let handle = server.spawn().map_err(|e| format!("server spawn: {e}"))?;
    let addr = handle.addr();
    let clients = std::thread::scope(|s| {
        let staging: Vec<_> = (0..USERS.len())
            .map(|i| {
                s.spawn(move || -> Result<ChirpClient, String> {
                    let mut c =
                        connect(addr, USERS[i]).map_err(|e| format!("connect user {i}: {e:?}"))?;
                    stage(&mut c, oracle, i).map_err(|e| format!("staging user {i}: {e:?}"))?;
                    Ok(c)
                })
            })
            .collect();
        staging
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("staging thread panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Stack {
        handle,
        clients,
        wal_dir,
    })
}

fn stage(c: &mut ChirpClient, oracle: &Oracle, i: usize) -> SysResult<()> {
    // The home comes from the root's reserve right: a fresh directory
    // whose ACL names this identity alone.
    c.mkdir(&format!("/u{i}"), 0o755)?;
    for d in oracle.dirs(i) {
        c.mkdir(&d, 0o755)?;
    }
    for (p, data) in &oracle.files[i] {
        c.put(p, data)?;
    }
    if i == 0 && !oracle.shared.is_empty() {
        c.mkdir("/shared", 0o755)?;
        c.setacl(
            "/shared",
            &Acl::parse(&Oracle::shared_acl()).map_err(|_| Errno::EINVAL)?,
        )?;
        for (p, data) in &oracle.shared {
            c.put(p, data)?;
        }
    }
    Ok(())
}

/// Counts and verdicts of one connection's work.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub fail_open: bool,
    pub probes: u64,
    pub get_bytes: u64,
    pub put_bytes: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.fail_open |= o.fail_open;
        self.probes += o.probes;
        self.get_bytes += o.get_bytes;
        self.put_bytes += o.put_bytes;
        for e in o.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// One finished job: when it ended (ns into the phase), how long it
/// took, and the payload bytes it verified.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub end_ns: u64,
    pub secs: f64,
    pub bytes: u64,
}

/// One connection's state across phases: its client, stream position,
/// spans, and the current phase's per-window RPC latencies and jobs.
pub struct Conn {
    pub user: usize,
    identity: Identity,
    pub client: ChirpClient,
    pub gen: Gen,
    pub log: SpanLog,
    /// RPC latencies by the window (of `window_ns`) the RPC started in.
    pub lat: Vec<LatHist>,
    pub window_ns: u64,
    phase_start_ns: u64,
    pub jobs: Vec<Job>,
    pub tally: Tally,
}

impl Conn {
    pub fn new(user: usize, client: ChirpClient, kind: Kind, seed: u64) -> Conn {
        Conn {
            user,
            identity: Identity::new(identity(user)),
            client,
            gen: Gen::new(kind, seed, user),
            log: SpanLog::new(false, user as u32 + 1),
            lat: Vec::new(),
            window_ns: u64::MAX,
            phase_start_ns: 0,
            jobs: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Forget the previous phase's samples; windows of `window`.
    pub fn begin_phase(&mut self, window: Duration) {
        self.lat.clear();
        self.jobs.clear();
        self.log.spans.clear();
        self.window_ns = (window.as_nanos() as u64).max(1);
    }

    /// RPCs timed in the current phase.
    pub fn rpcs(&self) -> u64 {
        self.lat.iter().map(LatHist::count).sum()
    }

    fn record_latency(&mut self, start_ns: u64, ns: u64) {
        let w = (start_ns.saturating_sub(self.phase_start_ns) / self.window_ns) as usize;
        if self.lat.len() <= w {
            self.lat.resize_with(w + 1, LatHist::default);
        }
        self.lat[w].record(ns);
    }

    /// Time one RPC as the client sees it and count it attempted.
    fn rpc<T>(
        &mut self,
        parent: u64,
        f: impl FnOnce(&mut ChirpClient) -> SysResult<T>,
    ) -> SysResult<T> {
        let open = self.log.open();
        let r = f(&mut self.client);
        let req = self.client.last_trace().map_or(0, |t| t.raw());
        let ns = self.log.close("chirp.rpc", open, parent, req);
        self.record_latency(open.1, ns);
        self.tally.attempted += 1;
        r
    }

    /// Run one action and check every reply against the oracle.
    pub fn exec(&mut self, a: &Action, oracle: &Oracle, parent: u64) {
        let fail = |t: &mut Tally, what: &str, e: String| t.fail(format!("{what}: {e}"));
        match a {
            Action::Stat { path, size } => match self.rpc(parent, |c| c.stat(path)) {
                Ok(st) if st.size == *size => {}
                Ok(st) => fail(
                    &mut self.tally,
                    path,
                    format!("stat size {} != {size}", st.size),
                ),
                Err(e) => fail(&mut self.tally, path, format!("stat {e:?}")),
            },
            Action::Read { path } => {
                let want = oracle.bytes(path).cloned().unwrap_or_default();
                let fd = match self.rpc(parent, |c| c.open(path, OpenFlags::rdonly(), 0)) {
                    Ok(fd) => fd,
                    Err(e) => return fail(&mut self.tally, path, format!("open {e:?}")),
                };
                match self.rpc(parent, |c| c.pread(fd, want.len(), 0)) {
                    Ok(got) if *got == *want => self.tally.get_bytes += got.len() as u64,
                    Ok(_) => fail(&mut self.tally, path, "pread returned wrong bytes".into()),
                    Err(e) => fail(&mut self.tally, path, format!("pread {e:?}")),
                }
                if let Err(e) = self.rpc(parent, |c| c.close(fd)) {
                    fail(&mut self.tally, path, format!("close {e:?}"));
                }
            }
            Action::Readdir { path, must, exact } => match self.rpc(parent, |c| c.readdir(path)) {
                Ok(entries) => {
                    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
                    let missing = must.iter().any(|m| !names.contains(&m.as_str()));
                    let extra = *exact
                        && names.iter().any(|n| {
                            !matches!(*n, "." | ".." | idbox_types::ACL_FILE_NAME)
                                && !must.iter().any(|m| m == n)
                        });
                    if missing || extra {
                        fail(&mut self.tally, path, format!("readdir listed {names:?}"));
                    }
                }
                Err(e) => fail(&mut self.tally, path, format!("readdir {e:?}")),
            },
            Action::Getacl { path, rights } => match self.rpc(parent, |c| c.getacl(path)) {
                Ok(acl) if acl.rights_for(&self.identity).contains(*rights) => {}
                Ok(acl) => fail(
                    &mut self.tally,
                    path,
                    format!("getacl lacks rights: {}", acl.to_text()),
                ),
                Err(e) => fail(&mut self.tally, path, format!("getacl {e:?}")),
            },
            Action::Get { path } => {
                let got = self.rpc(parent, |c| c.get(path));
                self.check_bytes(path, got, oracle.bytes(path).map(|b| &b[..]));
            }
            Action::GetKey { path, key, len } => {
                let got = self.rpc(parent, |c| c.get(path));
                self.check_bytes(path, got, Some(&content(*key, *len)));
            }
            Action::Probe { path } => {
                self.tally.probes += 1;
                match self.rpc(parent, |c| c.get(path)) {
                    Err(Errno::EACCES) => {}
                    Ok(_) => {
                        self.tally.fail_open = true;
                        fail(
                            &mut self.tally,
                            path,
                            "FAIL-OPEN: forbidden get succeeded".into(),
                        );
                    }
                    Err(e) => fail(&mut self.tally, path, format!("probe {e:?}, want EACCES")),
                }
            }
            Action::Put { path, key, len } => {
                let data = content(*key, *len);
                self.put(parent, path, &data);
            }
            Action::PutBuf { path, data } => self.put(parent, path, data),
            Action::Rename { from, to } => self.unit(parent, from, |c| c.rename(from, to)),
            Action::Unlink { path } => self.unit(parent, path, |c| c.unlink(path)),
            Action::Mkdir { path } => self.unit(parent, path, |c| c.mkdir(path, 0o755)),
            Action::Rmdir { path } => self.unit(parent, path, |c| c.rmdir(path)),
            Action::Truncate { path, len } => self.unit(parent, path, |c| c.truncate(path, *len)),
            Action::Setacl { path, acl } => match Acl::parse(acl) {
                Ok(acl) => self.unit(parent, path, |c| c.setacl(path, &acl)),
                Err(e) => fail(&mut self.tally, path, format!("bad ACL text: {e}")),
            },
            Action::GetBurst { paths } => self.get_burst(parent, paths, oracle),
            Action::PwriteSeries { path, chunks } => {
                let flags = OpenFlags {
                    write: true,
                    ..OpenFlags::default()
                };
                let fd = match self.rpc(parent, |c| c.open(path, flags, 0o644)) {
                    Ok(fd) => fd,
                    Err(e) => return fail(&mut self.tally, path, format!("open {e:?}")),
                };
                for (off, data) in chunks {
                    match self.rpc(parent, |c| c.pwrite(fd, data, *off)) {
                        Ok(n) if n == data.len() => self.tally.put_bytes += n as u64,
                        Ok(n) => fail(&mut self.tally, path, format!("short pwrite {n}")),
                        Err(e) => fail(&mut self.tally, path, format!("pwrite {e:?}")),
                    }
                }
                if let Err(e) = self.rpc(parent, |c| c.close(fd)) {
                    fail(&mut self.tally, path, format!("close {e:?}"));
                }
            }
        }
    }

    fn check_bytes(&mut self, path: &str, got: SysResult<Vec<u8>>, want: Option<&[u8]>) {
        match (got, want) {
            (Ok(got), Some(want)) if got == want => self.tally.get_bytes += got.len() as u64,
            (Ok(_), _) => self.tally.fail(format!("{path}: get returned wrong bytes")),
            (Err(e), _) => self.tally.fail(format!("{path}: get {e:?}")),
        }
    }

    fn put(&mut self, parent: u64, path: &str, data: &[u8]) {
        match self.rpc(parent, |c| c.put(path, data)) {
            Ok(()) => self.tally.put_bytes += data.len() as u64,
            Err(e) => self.tally.fail(format!("{path}: put {e:?}")),
        }
    }

    fn unit(&mut self, parent: u64, path: &str, f: impl FnOnce(&mut ChirpClient) -> SysResult<()>) {
        if let Err(e) = self.rpc(parent, f) {
            self.tally.fail(format!("{path}: {e:?}"));
        }
    }

    /// All gets in flight at once on one connection; each reply's
    /// latency is the burst's (the client has every reply only then).
    fn get_burst(&mut self, parent: u64, paths: &[String], oracle: &Oracle) {
        let open = self.log.open();
        let mut p = self.client.pipeline();
        for path in paths {
            p.get(path);
        }
        let replies = p.run();
        let ns = self.log.close("chirp.burst", open, parent, 0);
        self.tally.attempted += paths.len() as u64;
        let replies = match replies {
            Ok(r) => r,
            Err(e) => {
                for path in paths {
                    self.tally.fail(format!("{path}: pipelined get {e:?}"));
                }
                return;
            }
        };
        for (path, r) in paths.iter().zip(replies) {
            self.record_latency(open.1, ns);
            if self.log.on {
                self.log.spans.push(crate::spans::Span {
                    name: "chirp.rpc",
                    start_ns: open.1,
                    end_ns: open.1 + ns,
                    id: 0,
                    parent: open.0,
                    req: r.trace.raw(),
                    tid: self.user as u32 + 1,
                });
            }
            let got = match (r.result, r.payload) {
                (Ok(_), Some(data)) => Ok(data),
                (Ok(_), None) => Err(Errno::EPROTO),
                (Err(e), _) => Err(e),
            };
            self.check_bytes(path, got, oracle.bytes(path).map(|b| &b[..]));
        }
    }

    /// Run whole jobs until `stop`; abort everyone on a fail-open.
    fn run_until(&mut self, oracle: &Oracle, stop: &AtomicBool) {
        self.phase_start_ns = crate::spans::now_ns();
        while !stop.load(Ordering::Relaxed) {
            let bytes0 = self.tally.get_bytes + self.tally.put_bytes;
            let job = self.log.open();
            for a in self.gen.next_cycle(oracle) {
                let act = self.log.open();
                self.exec(&a, oracle, job.0);
                self.log.close("chirp.action", act, job.0, 0);
            }
            let ns = self.log.close("chirp.job", job, 0, 0);
            self.jobs.push(Job {
                end_ns: (job.1 + ns).saturating_sub(self.phase_start_ns),
                secs: ns as f64 / 1e9,
                bytes: self.tally.get_bytes + self.tally.put_bytes - bytes0,
            });
            if self.tally.fail_open {
                stop.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Drive every connection closed-loop for `window`, one thread each,
/// connection `i` pinned to CPU `i`: the load generator sits in the same
/// place in every run, which keeps the latency distribution's shape
/// from depending on where the scheduler happened to put the clients.
/// Returns the wall time from the common start until the last
/// connection finished its job in flight.
pub fn run_phase(conns: &mut [Conn], oracle: &Oracle, window: Duration) -> Duration {
    let stop = AtomicBool::new(false);
    let start = Barrier::new(conns.len() + 1);
    let mut t0 = Instant::now();
    std::thread::scope(|s| {
        for c in conns.iter_mut() {
            let (stop, start) = (&stop, &start);
            s.spawn(move || {
                crate::sys::pin_to_cpu(c.user);
                start.wait();
                c.run_until(oracle, stop);
            });
        }
        start.wait();
        t0 = Instant::now();
        let deadline = t0 + window;
        while !stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5).min(deadline - now));
        }
        stop.store(true, Ordering::Relaxed);
    });
    t0.elapsed()
}

/// The admin's view of the server: Prometheus exposition and health.
pub fn admin_snapshot(addr: SocketAddr) -> SysResult<(Expo, HealthRow)> {
    let mut a = connect(addr, ADMIN)?;
    let expo = Expo::parse(&a.metrics()?);
    let health = a.health()?;
    let _ = a.quit();
    Ok((expo, health))
}

/// After the load: what the writers' files must hold, and that churn
/// left its work directories empty.
pub fn final_check(conns: &mut [Conn], oracle: &Oracle) {
    for c in conns.iter_mut() {
        for (path, want) in c.gen.written(oracle) {
            let got = c.client.get(&path);
            c.tally.attempted += 1;
            c.check_bytes(&path, got, Some(&want));
        }
        if oracle.kind == Kind::Churn {
            let dir = format!("/u{}/w", c.user);
            c.tally.attempted += 1;
            match c.client.readdir(&dir) {
                Ok(entries)
                    if entries.iter().all(|e| {
                        matches!(e.name.as_str(), "." | ".." | idbox_types::ACL_FILE_NAME)
                    }) => {}
                Ok(entries) => {
                    let names: Vec<_> = entries.into_iter().map(|e| e.name).collect();
                    c.tally.fail(format!("{dir}: left behind {names:?}"));
                }
                Err(e) => c.tally.fail(format!("{dir}: readdir {e:?}")),
            }
        }
    }
}
