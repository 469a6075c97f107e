//! The Chirp client library.
//!
//! Besides speaking the protocol, the client owns the robustness story
//! for the WAN deployments the paper targets: every RPC runs under a
//! [`RetryPolicy`] (an immediate first retry, then capped
//! decorrelated-jitter backoff under a seeded stream and a
//! wall-clock budget), any transport fault **poisons** the connection
//! so a half-read reply can never be mistaken for the next call's
//! answer, and the next attempt transparently reconnects — re-running
//! auth negotiation and re-stamping the *same* trace id, so a retried
//! request remains one logical operation in the server's audit ring.
//!
//! What retries is decided per verb, not per policy alone:
//!
//! * read-only verbs (`stat`, `get`, `whoami`, …) retry on anything
//!   transient — connection loss, server `EAGAIN` (shed), server `EIO`;
//! * idempotent writes (`put`, `setacl`, `truncate`, non-`O_EXCL`
//!   `open`) retry on connection loss and shed, where re-execution is
//!   harmless;
//! * fd-based verbs (`pread`, `pwrite`, `fstat`, `close`) never retry
//!   across a reconnect — the server-side descriptor died with the
//!   session — but still retry a shed reply, which arrives on a live
//!   connection;
//! * non-idempotent verbs (`mkdir`, `rename`, `exec`, …) surface
//!   connection loss immediately unless the caller opts into
//!   at-least-once semantics with [`RetryPolicy::retry_mutating`].
//!   A shed (`EAGAIN`) reply is still retried: the server refuses
//!   *before* executing, so no double-apply is possible.

use crate::codec::{self, encode_word};
use idbox_acl::Acl;
use idbox_auth::{authenticate_client, AuthTransport, ClientCredential};
use idbox_interpose::abi;
use idbox_kernel::OpenFlags;
use idbox_obs::{next_trace_id, TraceId};
use idbox_types::{Errno, Principal, SysResult};
use idbox_vfs::{DirEntry, StatBuf};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How a client reacts to transient failures: bounded attempts with
/// capped exponential backoff and seeded jitter, all under one
/// wall-clock budget. The policy sets *how much* to retry; *what* is
/// safe to retry is decided per verb (see the module docs).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per RPC, first try included (1 = never retry).
    pub max_attempts: u32,
    /// Floor of the backoff sleep. The first retry is always
    /// immediate; from the second retry on, each sleep is drawn
    /// uniformly from `[base_delay, 3·previous]` (capped at
    /// [`RetryPolicy::max_delay`]).
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
    /// Wall-clock budget per RPC across all attempts; once spent, the
    /// last error surfaces even if attempts remain.
    pub budget: Duration,
    /// Seed for the jitter stream, so a test run's sleep schedule is
    /// reproducible.
    pub jitter_seed: u64,
    /// Opt-in at-least-once: also retry non-idempotent verbs (`mkdir`,
    /// `exec`, …) after connection loss. Off by default — a lost reply
    /// does not reveal whether the server executed the request.
    pub retry_mutating: bool,
    /// Socket read/write timeout, so a stalled server becomes a
    /// retryable transport fault instead of a hang. `None` = block
    /// forever (the pre-retry behavior).
    pub io_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    /// A sane WAN-client default: 5 attempts, 2 ms base backoff capped
    /// at 100 ms, a 5 s budget, idempotent-only.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            budget: Duration::from_secs(5),
            jitter_seed: 0x1DB0_751D_B075,
            retry_mutating: false,
            io_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// Never retry anything — the policy [`ChirpClient::connect`] uses,
    /// preserving strict fail-fast semantics for callers that manage
    /// failures themselves.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Retry classification of a verb (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    /// Harmless to re-run any number of times.
    ReadOnly,
    /// A write whose re-execution converges to the same state.
    IdemWrite,
    /// Reads a server-side fd: dies with the session.
    FdRead,
    /// Writes through a server-side fd: dies with the session.
    FdWrite,
    /// Re-execution may double-apply (`mkdir`, `rename`, `exec`, …).
    Mutating,
}

impl Verb {
    /// How reluctantly this class retries, for composing a batch's
    /// class from its members: fd-based verbs never survive a
    /// reconnect, so they dominate everything; mutating dominates the
    /// idempotent classes.
    fn rank(self) -> u8 {
        match self {
            Verb::ReadOnly => 0,
            Verb::IdemWrite => 1,
            Verb::Mutating => 2,
            Verb::FdRead => 3,
            Verb::FdWrite => 4,
        }
    }

    /// The more conservative of two classes.
    fn compose(self, other: Verb) -> Verb {
        if other.rank() > self.rank() {
            other
        } else {
            self
        }
    }
}

/// Why one attempt failed — the split [`codec::parse_response`]
/// conflates: a transport fault poisons the connection, an application
/// error (`error <errno>` reply) arrives on a healthy one.
#[derive(Debug)]
enum Fail {
    /// Could not establish a connection; nothing was ever sent.
    Dial(Errno),
    /// The connection failed mid-RPC (I/O error, EOF, framing
    /// violation): the session state is undefined and the server may or
    /// may not have executed the request.
    Transport(Errno),
    /// The server replied `error <errno>`: the connection is healthy.
    App(Errno),
}

impl Fail {
    fn errno(&self) -> Errno {
        match self {
            Fail::Dial(e) | Fail::Transport(e) | Fail::App(e) => *e,
        }
    }
}

/// Parse a reply line, keeping transport and application errors apart.
fn parse_reply(line: &str) -> Result<Vec<String>, Fail> {
    let words: Vec<&str> = line.split(' ').filter(|w| !w.is_empty()).collect();
    match words.first() {
        Some(&"ok") => words[1..]
            .iter()
            .map(|w| codec::decode_word(w))
            .collect::<SysResult<Vec<String>>>()
            .map_err(Fail::Transport),
        Some(&"error") => {
            let code: i32 = words
                .get(1)
                .and_then(|w| w.parse().ok())
                .ok_or(Fail::Transport(Errno::EPROTO))?;
            Err(Fail::App(Errno::from_code(code).unwrap_or(Errno::EIO)))
        }
        _ => Err(Fail::Transport(Errno::EPROTO)),
    }
}

/// One live connection: a buffered read half and the write half of the
/// same socket.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

struct ClientTransport<'a> {
    reader: &'a mut BufReader<TcpStream>,
    writer: &'a mut TcpStream,
}

impl AuthTransport for ClientTransport<'_> {
    fn send_line(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| e.to_string())
    }

    fn recv_line(&mut self) -> Result<String, String> {
        codec::read_line(self.reader).map_err(|e| e.to_string())
    }
}

/// Open one connection and run auth negotiation over it.
fn dial(
    addr: SocketAddr,
    creds: &[ClientCredential],
    policy: &RetryPolicy,
) -> SysResult<(Conn, Principal)> {
    let stream = TcpStream::connect(addr).map_err(|_| Errno::ECONNREFUSED)?;
    // The protocol is strict request/response on small lines; Nagle
    // plus delayed ACKs would stall every round trip by ~40ms.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(policy.io_timeout);
    let _ = stream.set_write_timeout(policy.io_timeout);
    let mut reader = BufReader::new(stream.try_clone().map_err(|_| Errno::EIO)?);
    let mut writer = stream;
    let principal = {
        let mut t = ClientTransport {
            reader: &mut reader,
            writer: &mut writer,
        };
        authenticate_client(&mut t, creds).map_err(|_| Errno::EACCES)?
    };
    Ok((Conn { reader, writer }, principal))
}

/// Advance a splitmix64 jitter stream.
fn next_jitter(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sleep before the retry after `failed_attempts` failures.
///
/// The **first** retry goes out immediately: the faults this layer
/// masks (a shed reply, one dropped connection) usually clear at once,
/// and sleeping `base_delay` on every blip produced a visible latency
/// cliff at low fault rates. From the second retry on, the sleep is
/// *decorrelated jitter*: uniform in `[base, 3·prev]` capped at
/// `max_delay`, where `prev` is the previous sleep. The schedule still
/// grows geometrically in expectation, but two clients that failed in
/// lockstep drift apart after one round instead of re-colliding at
/// every power of two.
fn backoff_delay(
    policy: &RetryPolicy,
    failed_attempts: u32,
    prev: &mut Duration,
    jitter: &mut u64,
) -> Duration {
    if failed_attempts <= 1 {
        return Duration::ZERO;
    }
    let lo = policy.base_delay.as_nanos() as u64;
    let cap = policy.max_delay.as_nanos() as u64;
    // `prev` starts at base (set by the caller), so the first sleeping
    // retry picks from [base, 3·base].
    let hi = (prev.as_nanos() as u64).saturating_mul(3).max(lo).min(cap.max(lo));
    let span = hi - lo.min(hi);
    let pick = if span == 0 {
        hi
    } else {
        lo + next_jitter(jitter) % (span + 1)
    };
    let d = Duration::from_nanos(pick.min(cap));
    *prev = d.max(policy.base_delay);
    d
}

/// An authenticated connection to a Chirp server, with transparent
/// retry and reconnect under a [`RetryPolicy`].
#[derive(Debug)]
pub struct ChirpClient {
    addr: SocketAddr,
    creds: Vec<ClientCredential>,
    policy: RetryPolicy,
    /// The live connection; `None` after a transport fault poisons it,
    /// until the next RPC redials. Poisoning is what guarantees a
    /// half-read reply can never satisfy the next call.
    conn: Option<Conn>,
    principal: Principal,
    /// The trace id stamped on the most recently sent request — what a
    /// caller quotes to join server-side audit rows and slow-op spans
    /// to its own operation. Stable across retries of one RPC.
    last_trace: Option<TraceId>,
    /// Bumped on every (re)connect; remote fds minted on an older
    /// generation are dead (see [`crate::driver::ChirpDriver`]).
    generation: u64,
    retries: u64,
    reconnects: u64,
    jitter: u64,
}

impl ChirpClient {
    /// Connect and authenticate, offering `creds` in preference order.
    /// Uses [`RetryPolicy::none`]: failures surface immediately, but a
    /// later RPC on a poisoned connection still redials once.
    pub fn connect(addr: SocketAddr, creds: &[ClientCredential]) -> SysResult<Self> {
        Self::connect_with(addr, creds, RetryPolicy::none())
    }

    /// Connect and authenticate under `policy`; the initial dial itself
    /// retries with the policy's backoff.
    pub fn connect_with(
        addr: SocketAddr,
        creds: &[ClientCredential],
        policy: RetryPolicy,
    ) -> SysResult<Self> {
        let mut jitter = policy.jitter_seed;
        let start = Instant::now();
        let mut attempt = 1u32;
        let mut prev = policy.base_delay;
        let (conn, principal) = loop {
            match dial(addr, creds, &policy) {
                Ok(ok) => break ok,
                Err(e) => {
                    if attempt >= policy.max_attempts || start.elapsed() >= policy.budget {
                        return Err(e);
                    }
                    let d = backoff_delay(&policy, attempt, &mut prev, &mut jitter);
                    if !d.is_zero() {
                        std::thread::sleep(d);
                    }
                    attempt += 1;
                }
            }
        };
        Ok(ChirpClient {
            addr,
            creds: creds.to_vec(),
            policy,
            conn: Some(conn),
            principal,
            last_trace: None,
            generation: 1,
            retries: 0,
            reconnects: 0,
            jitter,
        })
    }

    /// The principal the server knows us by.
    pub fn principal(&self) -> &Principal {
        &self.principal
    }

    /// The trace id carried by the most recently sent request, if any
    /// request has been sent yet. All attempts of one retried RPC carry
    /// the same id.
    pub fn last_trace(&self) -> Option<TraceId> {
        self.last_trace
    }

    /// The connection generation: 1 after connect, +1 per reconnect.
    /// Remote fds are only valid within the generation that opened them.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Retry attempts performed so far (beyond each RPC's first try).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Transparent reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Mint a fresh trace id for one request and remember it.
    fn stamp(&mut self) -> TraceId {
        let id = next_trace_id();
        self.last_trace = Some(id);
        id
    }

    /// The retry engine every RPC runs through: stamp one trace id,
    /// then attempt until success, a non-retryable failure, or the
    /// policy (attempts or budget) is exhausted.
    fn rpc<T>(
        &mut self,
        class: Verb,
        line: &str,
        payload: Option<&[u8]>,
        mut parse: impl FnMut(&mut BufReader<TcpStream>, &[String]) -> SysResult<T>,
    ) -> SysResult<T> {
        let trace = self.stamp();
        let start = Instant::now();
        let start_ns = idbox_obs::now_unix_ns();
        let mut attempt = 1u32;
        let mut prev = self.policy.base_delay;
        loop {
            match self.try_once(line, payload, trace, attempt, &mut parse) {
                Ok(v) => {
                    // The caller-side plane of the flight recorder:
                    // whole-RPC spans including retries and backoff,
                    // joined to the server planes by the trace id.
                    idbox_obs::flight::record_span(
                        "client",
                        codec::verb_event_name(line.split(' ').next().unwrap_or("rpc")),
                        Some(trace),
                        start_ns,
                        start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                    );
                    return Ok(v);
                }
                Err(fail) => {
                    if !self.should_retry(class, &fail, attempt, start) {
                        return Err(fail.errno());
                    }
                    self.retries += 1;
                    let d = backoff_delay(&self.policy, attempt, &mut prev, &mut self.jitter);
                    if !d.is_zero() {
                        std::thread::sleep(d);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// One attempt: reconnect if poisoned, send (re-stamping the same
    /// trace id, plus a `retry=<n>` token past the first attempt so the
    /// server can count retried requests), read and parse the reply.
    /// Any transport fault drops the connection on the floor — poisoned.
    fn try_once<T>(
        &mut self,
        line: &str,
        payload: Option<&[u8]>,
        trace: TraceId,
        attempt: u32,
        parse: &mut impl FnMut(&mut BufReader<TcpStream>, &[String]) -> SysResult<T>,
    ) -> Result<T, Fail> {
        if self.conn.is_none() {
            let (conn, principal) =
                dial(self.addr, &self.creds, &self.policy).map_err(Fail::Dial)?;
            self.conn = Some(conn);
            self.principal = principal;
            self.generation += 1;
            self.reconnects += 1;
        }
        let mut conn = self.conn.take().expect("just ensured a connection");
        let stamped = if attempt > 1 {
            codec::with_trace(&codec::with_retry(line, attempt - 1), trace)
        } else {
            codec::with_trace(line, trace)
        };
        let res = run_attempt(&mut conn, &stamped, payload, parse);
        // An application error leaves the wire in a known state — keep
        // the connection. A transport fault leaves it undefined — drop.
        if !matches!(res, Err(Fail::Transport(_))) {
            self.conn = Some(conn);
        }
        res
    }

    /// Retry ruling for one failed attempt.
    fn should_retry(&self, class: Verb, fail: &Fail, attempt: u32, start: Instant) -> bool {
        if attempt >= self.policy.max_attempts || start.elapsed() >= self.policy.budget {
            return false;
        }
        match fail {
            // Nothing was ever sent: safe for every class.
            Fail::Dial(_) => true,
            // The connection died mid-RPC: the server may or may not
            // have executed the request, and any server-side fd died
            // with the session.
            Fail::Transport(_) => match class {
                Verb::ReadOnly | Verb::IdemWrite => true,
                Verb::Mutating => self.policy.retry_mutating,
                Verb::FdRead | Verb::FdWrite => false,
            },
            // A shed/busy reply: the server refused *before* executing,
            // on a healthy connection. Safe for every class.
            Fail::App(Errno::EAGAIN) => true,
            // Server-side I/O error: only re-reads are harmless.
            Fail::App(Errno::EIO) => class == Verb::ReadOnly,
            // Real answers (ENOENT, EACCES, …) are not failures to mask.
            Fail::App(_) => false,
        }
    }

    fn one_num(words: &[String]) -> SysResult<i64> {
        words
            .first()
            .and_then(|w| w.parse().ok())
            .ok_or(Errno::EPROTO)
    }

    fn stat_words(words: &[String]) -> SysResult<StatBuf> {
        if words.len() != abi::STAT_WORDS {
            return Err(Errno::EPROTO);
        }
        let mut ws = [0u64; abi::STAT_WORDS];
        for (i, w) in words.iter().enumerate() {
            ws[i] = w.parse().map_err(|_| Errno::EPROTO)?;
        }
        abi::decode_stat(&ws)
    }

    // ------------------------------------------------------------------
    // Protocol operations
    // ------------------------------------------------------------------

    /// Who does the server think we are?
    pub fn whoami(&mut self) -> SysResult<Principal> {
        self.rpc(Verb::ReadOnly, "whoami", None, |_, words| {
            let s = words.first().ok_or(Errno::EPROTO)?;
            Principal::parse(s).map_err(|_| Errno::EPROTO)
        })
    }

    /// Remote `stat`.
    pub fn stat(&mut self, path: &str) -> SysResult<StatBuf> {
        let line = format!("stat {}", encode_word(path));
        self.rpc(Verb::ReadOnly, &line, None, |_, words| {
            Self::stat_words(words)
        })
    }

    /// Remote `open`; returns a server-side descriptor valid for the
    /// current [`ChirpClient::generation`] only.
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u16) -> SysResult<i64> {
        // O_EXCL makes re-execution observable (the retry finds the
        // file the first attempt created and fails EEXIST); everything
        // else converges.
        let class = if flags.excl {
            Verb::Mutating
        } else if flags.write || flags.create || flags.trunc {
            Verb::IdemWrite
        } else {
            Verb::ReadOnly
        };
        let line = format!("open {} {} {}", encode_word(path), flags.to_bits(), mode);
        self.rpc(class, &line, None, |_, words| Self::one_num(words))
    }

    /// Remote `close`.
    pub fn close(&mut self, fd: i64) -> SysResult<()> {
        let line = format!("close {fd}");
        self.rpc(Verb::FdWrite, &line, None, |_, _| Ok(()))
    }

    /// Remote positioned read.
    pub fn pread(&mut self, fd: i64, len: usize, off: u64) -> SysResult<Vec<u8>> {
        let line = format!("pread {fd} {len} {off}");
        self.rpc(Verb::FdRead, &line, None, read_reply_payload)
    }

    /// Remote positioned write.
    pub fn pwrite(&mut self, fd: i64, data: &[u8], off: u64) -> SysResult<usize> {
        let line = format!("pwrite {fd} {off} {}", data.len());
        self.rpc(Verb::FdWrite, &line, Some(data), |_, words| {
            Ok(Self::one_num(words)? as usize)
        })
    }

    /// Remote `fstat`.
    pub fn fstat(&mut self, fd: i64) -> SysResult<StatBuf> {
        let line = format!("fstat {fd}");
        self.rpc(Verb::FdRead, &line, None, |_, words| {
            Self::stat_words(words)
        })
    }

    /// Remote `mkdir` — subject to the reserve right exactly as local
    /// mkdir inside a box.
    pub fn mkdir(&mut self, path: &str, mode: u16) -> SysResult<()> {
        let line = format!("mkdir {} {}", encode_word(path), mode);
        self.rpc(Verb::Mutating, &line, None, |_, _| Ok(()))
    }

    /// Remote `rmdir`.
    pub fn rmdir(&mut self, path: &str) -> SysResult<()> {
        let line = format!("rmdir {}", encode_word(path));
        self.rpc(Verb::Mutating, &line, None, |_, _| Ok(()))
    }

    /// Remote `unlink`.
    pub fn unlink(&mut self, path: &str) -> SysResult<()> {
        let line = format!("unlink {}", encode_word(path));
        self.rpc(Verb::Mutating, &line, None, |_, _| Ok(()))
    }

    /// Remote `rename`.
    pub fn rename(&mut self, old: &str, new: &str) -> SysResult<()> {
        let line = format!("rename {} {}", encode_word(old), encode_word(new));
        self.rpc(Verb::Mutating, &line, None, |_, _| Ok(()))
    }

    /// Remote `truncate`.
    pub fn truncate(&mut self, path: &str, len: u64) -> SysResult<()> {
        let line = format!("truncate {} {len}", encode_word(path));
        self.rpc(Verb::IdemWrite, &line, None, |_, _| Ok(()))
    }

    /// Remote directory listing.
    pub fn readdir(&mut self, path: &str) -> SysResult<Vec<DirEntry>> {
        let line = format!("readdir {}", encode_word(path));
        let data = self.rpc(Verb::ReadOnly, &line, None, read_reply_payload)?;
        let text = String::from_utf8(data).map_err(|_| Errno::EPROTO)?;
        abi::decode_entries(&text)
    }

    /// Fetch a directory's ACL.
    pub fn getacl(&mut self, path: &str) -> SysResult<Acl> {
        let line = format!("getacl {}", encode_word(path));
        let data = self.rpc(Verb::ReadOnly, &line, None, read_reply_payload)?;
        let text = String::from_utf8(data).map_err(|_| Errno::EPROTO)?;
        Acl::parse(&text).map_err(|_| Errno::EPROTO)
    }

    /// Install a directory's ACL (requires the A right).
    pub fn setacl(&mut self, path: &str, acl: &Acl) -> SysResult<()> {
        let text = acl.to_text();
        let line = format!("setacl {} {}", encode_word(path), text.len());
        self.rpc(Verb::IdemWrite, &line, Some(text.as_bytes()), |_, _| Ok(()))
    }

    /// Stage a whole file onto the server (mode 0644).
    pub fn put(&mut self, path: &str, data: &[u8]) -> SysResult<()> {
        self.put_mode(path, data, 0o644)
    }

    /// Stage a whole file with an explicit creation mode (0755 for
    /// executables, as `chirp_put -m` would).
    pub fn put_mode(&mut self, path: &str, data: &[u8], mode: u16) -> SysResult<()> {
        let line = format!("put {} {} {}", encode_word(path), data.len(), mode);
        self.rpc(Verb::IdemWrite, &line, Some(data), |_, _| Ok(()))
    }

    /// Retrieve a whole file from the server.
    pub fn get(&mut self, path: &str) -> SysResult<Vec<u8>> {
        let line = format!("get {}", encode_word(path));
        self.rpc(Verb::ReadOnly, &line, None, read_reply_payload)
    }

    /// The paper's new call: run a staged program remotely, inside an
    /// identity box carrying our principal. Returns the exit code.
    pub fn exec(&mut self, path: &str, args: &[&str]) -> SysResult<i32> {
        let mut line = format!("exec {}", encode_word(path));
        for a in args {
            line.push(' ');
            line.push_str(&encode_word(a));
        }
        let words = self.rpc(Verb::Mutating, &line, None, |_, words| {
            Ok(words.to_vec())
        })?;
        Ok(Self::one_num(&words)? as i32)
    }

    /// Per-syscall latency statistics from the server's histograms.
    /// Admin principals only — everyone else gets `EACCES`.
    pub fn stats(&mut self) -> SysResult<Vec<StatRow>> {
        let data = self.rpc(Verb::ReadOnly, "stats", None, read_reply_payload)?;
        let text = String::from_utf8(data).map_err(|_| Errno::EPROTO)?;
        parse_stat_rows(&text)
    }

    /// The server's recent policy decisions, oldest first. Admin
    /// principals only — everyone else gets `EACCES`.
    pub fn audit(&mut self) -> SysResult<Vec<AuditRow>> {
        let data = self.rpc(Verb::ReadOnly, "audit", None, read_reply_payload)?;
        let text = String::from_utf8(data).map_err(|_| Errno::EPROTO)?;
        parse_audit_rows(&text)
    }

    /// Incremental tail of the server's policy decisions: events with
    /// `seq >= since`, plus the cursor to pass next time (the server's
    /// write head). A gap between `since` and the first returned seq
    /// means the ring dropped that much history. Admin principals only.
    pub fn audit_since(&mut self, since: u64) -> SysResult<(Vec<AuditRow>, u64)> {
        let line = format!("audit {since}");
        self.rpc(Verb::ReadOnly, &line, None, |r, words| {
            let len: u64 = words
                .first()
                .and_then(|w| w.parse().ok())
                .ok_or(Errno::EPROTO)?;
            let cursor: u64 = words
                .get(1)
                .and_then(|w| w.parse().ok())
                .ok_or(Errno::EPROTO)?;
            let data = codec::read_payload(r, len)?;
            let text = String::from_utf8(data).map_err(|_| Errno::EPROTO)?;
            Ok((parse_audit_rows(&text)?, cursor))
        })
    }

    /// The server's per-identity counters in Prometheus text exposition
    /// format. Admin principals only — everyone else gets `EACCES`.
    pub fn metrics(&mut self) -> SysResult<String> {
        let data = self.rpc(Verb::ReadOnly, "metrics", None, read_reply_payload)?;
        String::from_utf8(data).map_err(|_| Errno::EPROTO)
    }

    /// Force a durability snapshot on the server: the namespace and
    /// account database are written to disk and replayed log history is
    /// truncated. Returns the snapshot's LSN watermark. `ENOSYS` on a
    /// volatile (no-WAL) server; admin principals only.
    pub fn walsnap(&mut self) -> SysResult<u64> {
        self.rpc(Verb::ReadOnly, "walsnap", None, |_, words| {
            words.first().and_then(|w| w.parse().ok()).ok_or(Errno::EPROTO)
        })
    }

    /// Dump the server's flight recorder as Chrome trace-viewer JSON
    /// (loadable in Perfetto / `chrome://tracing`). `window` restricts
    /// the dump to events from the trailing `Some(seconds)`; `None`
    /// returns everything still buffered. Admin principals only.
    pub fn tracedump(&mut self, window: Option<u64>) -> SysResult<String> {
        let line = match window {
            Some(secs) => format!("tracedump {secs}"),
            None => "tracedump".to_string(),
        };
        let data = self.rpc(Verb::ReadOnly, &line, None, read_reply_payload)?;
        String::from_utf8(data).map_err(|_| Errno::EPROTO)
    }

    /// One-line health rollup: event-loop lag p99, shard-lock wait p99,
    /// in-flight requests, shed count, connections, workers, and stall
    /// count. Percentiles are `None` while the underlying histograms
    /// are empty. Admin principals only.
    pub fn health(&mut self) -> SysResult<HealthRow> {
        self.rpc(Verb::ReadOnly, "health", None, |_, words| {
            parse_health_row(words)
        })
    }

    /// The server's recent slow operations, oldest first. Admin
    /// principals only — everyone else gets `EACCES`.
    pub fn slowops(&mut self) -> SysResult<Vec<SlowOpRow>> {
        let data = self.rpc(Verb::ReadOnly, "slowops", None, read_reply_payload)?;
        let text = String::from_utf8(data).map_err(|_| Errno::EPROTO)?;
        parse_slowop_rows(&text)
    }

    /// Start a pipelined run: queue any number of requests, then
    /// [`Pipeline::run`] writes them all in one burst and collects the
    /// replies in order. Wire protocol v2 — each request carries an
    /// `id=<n>` token the server echoes on its reply, so the client can
    /// verify correlation even though replies may have been computed
    /// out of order server-side.
    ///
    /// Pipelined requests do **not** retry: a transport fault mid-run
    /// leaves it ambiguous which queued operations executed, so the
    /// whole run fails and the connection is poisoned. Callers that
    /// need retry semantics should pipeline only idempotent operations
    /// and re-run the batch themselves.
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline {
            client: self,
            ops: Vec::new(),
        }
    }

    /// Run many small metadata operations in **one** round trip via the
    /// v2 `batch` RPC: the sub-operations travel as a single payload,
    /// the replies come back as a single payload, and the server runs
    /// the whole batch under one shed check and one in-flight slot.
    ///
    /// Unlike [`ChirpClient::pipeline`], a batch is one wire-level
    /// request, so it runs under the normal retry engine — classified
    /// as conservatively as its most dangerous member (a batch with one
    /// `mkdir` in it retries like a `mkdir`).
    ///
    /// Per-operation failures do not fail the batch: each
    /// [`BatchReply`] carries its own result.
    pub fn batch(&mut self, ops: &[BatchOp]) -> SysResult<Vec<BatchReply>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let mut body = String::new();
        for op in ops {
            body.push_str(&op.line());
            body.push('\n');
        }
        let class = ops
            .iter()
            .map(BatchOp::class)
            .fold(Verb::ReadOnly, Verb::compose);
        let line = format!("batch {}", body.len());
        let expected = ops.len();
        self.rpc(class, &line, Some(body.as_bytes()), move |r, words| {
            let len: u64 = words
                .first()
                .and_then(|w| w.parse().ok())
                .ok_or(Errno::EPROTO)?;
            let data = codec::read_payload(r, len)?;
            let text = String::from_utf8(data).map_err(|_| Errno::EPROTO)?;
            let replies: Vec<BatchReply> = text
                .lines()
                .map(parse_batch_line)
                .collect::<SysResult<_>>()?;
            if replies.len() != expected {
                return Err(Errno::EPROTO);
            }
            Ok(replies)
        })
    }

    /// Polite disconnect. A no-op on an already-poisoned connection —
    /// there is nothing left to be polite to.
    pub fn quit(mut self) -> SysResult<()> {
        if self.conn.is_none() {
            return Ok(());
        }
        self.rpc(Verb::FdWrite, "quit", None, |_, _| Ok(()))
    }
}

/// Send one stamped request and read its reply on one connection.
fn run_attempt<T>(
    conn: &mut Conn,
    line: &str,
    payload: Option<&[u8]>,
    parse: &mut impl FnMut(&mut BufReader<TcpStream>, &[String]) -> SysResult<T>,
) -> Result<T, Fail> {
    codec::write_line(&mut conn.writer, line).map_err(Fail::Transport)?;
    if let Some(data) = payload {
        conn.writer
            .write_all(data)
            .map_err(|_| Fail::Transport(Errno::EPIPE))?;
        conn.writer.flush().map_err(|_| Fail::Transport(Errno::EPIPE))?;
    }
    let reply = codec::read_line(&mut conn.reader).map_err(Fail::Transport)?;
    let words = parse_reply(&reply)?;
    // Reply-body errors (short payload, malformed words) leave the
    // stream position undefined: transport faults, poisoning the
    // connection.
    parse(&mut conn.reader, &words).map_err(Fail::Transport)
}

/// Reply parser for `ok <len>` + payload responses.
fn read_reply_payload(r: &mut BufReader<TcpStream>, words: &[String]) -> SysResult<Vec<u8>> {
    let len: u64 = words
        .first()
        .and_then(|w| w.parse().ok())
        .ok_or(Errno::EPROTO)?;
    codec::read_payload(r, len)
}

/// One request queued on a [`Pipeline`].
#[derive(Debug)]
struct QueuedOp {
    line: String,
    payload: Option<Vec<u8>>,
    trace: TraceId,
    /// Whether an `ok` reply announces a payload (`ok <len>` + bytes)
    /// that must be drained to keep the stream framed.
    wants_payload: bool,
}

/// The reply to one pipelined request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeReply {
    /// The trace id this request carried (joins server audit rows).
    pub trace: TraceId,
    /// Decoded `ok` reply words, or the application errno from an
    /// `error` reply. Transport-level faults fail the whole run
    /// instead of appearing here.
    pub result: SysResult<Vec<String>>,
    /// The reply payload, for operations that return one (`get`,
    /// `readdir`, `pread`, …).
    pub payload: Option<Vec<u8>>,
}

impl PipeReply {
    /// The first reply word parsed as a number (fd, byte count, …).
    pub fn num(&self) -> SysResult<i64> {
        self.result
            .as_ref()
            .map_err(|e| *e)?
            .first()
            .and_then(|w| w.parse().ok())
            .ok_or(Errno::EPROTO)
    }
}

/// A queue of requests sent to the server in one burst (wire protocol
/// v2 pipelining). Build with [`ChirpClient::pipeline`], enqueue
/// operations, then call [`Pipeline::run`].
#[derive(Debug)]
pub struct Pipeline<'a> {
    client: &'a mut ChirpClient,
    ops: Vec<QueuedOp>,
}

impl Pipeline<'_> {
    fn push(&mut self, line: String, payload: Option<Vec<u8>>, wants_payload: bool) -> usize {
        let trace = self.client.stamp();
        self.ops.push(QueuedOp {
            line,
            payload,
            trace,
            wants_payload,
        });
        self.ops.len() - 1
    }

    /// Operations queued so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Queue a `whoami`.
    pub fn whoami(&mut self) -> usize {
        self.push("whoami".to_string(), None, false)
    }

    /// Queue a `stat`.
    pub fn stat(&mut self, path: &str) -> usize {
        self.push(format!("stat {}", encode_word(path)), None, false)
    }

    /// Queue an `open`.
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u16) -> usize {
        self.push(
            format!("open {} {} {}", encode_word(path), flags.to_bits(), mode),
            None,
            false,
        )
    }

    /// Queue a `close`.
    pub fn close(&mut self, fd: i64) -> usize {
        self.push(format!("close {fd}"), None, false)
    }

    /// Queue an `fstat`.
    pub fn fstat(&mut self, fd: i64) -> usize {
        self.push(format!("fstat {fd}"), None, false)
    }

    /// Queue a `pread`; the reply payload carries the bytes.
    pub fn pread(&mut self, fd: i64, len: usize, off: u64) -> usize {
        self.push(format!("pread {fd} {len} {off}"), None, true)
    }

    /// Queue a `pwrite`.
    pub fn pwrite(&mut self, fd: i64, data: &[u8], off: u64) -> usize {
        self.push(
            format!("pwrite {fd} {off} {}", data.len()),
            Some(data.to_vec()),
            false,
        )
    }

    /// Queue a `mkdir`.
    pub fn mkdir(&mut self, path: &str, mode: u16) -> usize {
        self.push(format!("mkdir {} {}", encode_word(path), mode), None, false)
    }

    /// Queue an `rmdir`.
    pub fn rmdir(&mut self, path: &str) -> usize {
        self.push(format!("rmdir {}", encode_word(path)), None, false)
    }

    /// Queue an `unlink`.
    pub fn unlink(&mut self, path: &str) -> usize {
        self.push(format!("unlink {}", encode_word(path)), None, false)
    }

    /// Queue a `rename`.
    pub fn rename(&mut self, old: &str, new: &str) -> usize {
        self.push(
            format!("rename {} {}", encode_word(old), encode_word(new)),
            None,
            false,
        )
    }

    /// Queue a `truncate`.
    pub fn truncate(&mut self, path: &str, len: u64) -> usize {
        self.push(format!("truncate {} {len}", encode_word(path)), None, false)
    }

    /// Queue a `readdir`; the reply payload carries the listing.
    pub fn readdir(&mut self, path: &str) -> usize {
        self.push(format!("readdir {}", encode_word(path)), None, true)
    }

    /// Queue a `getacl`; the reply payload carries the ACL text.
    pub fn getacl(&mut self, path: &str) -> usize {
        self.push(format!("getacl {}", encode_word(path)), None, true)
    }

    /// Queue a whole-file `get`; the reply payload carries the bytes.
    pub fn get(&mut self, path: &str) -> usize {
        self.push(format!("get {}", encode_word(path)), None, true)
    }

    /// Queue a whole-file `put` (mode 0644).
    pub fn put(&mut self, path: &str, data: &[u8]) -> usize {
        self.push(
            format!("put {} {} {}", encode_word(path), data.len(), 0o644),
            Some(data.to_vec()),
            false,
        )
    }

    /// Send every queued request in one write, then read the replies
    /// in queue order, verifying each echoed `id=` token. Returns one
    /// [`PipeReply`] per queued operation.
    ///
    /// Any transport fault (including an id mismatch) poisons the
    /// connection and fails the whole run — no retries.
    pub fn run(self) -> SysResult<Vec<PipeReply>> {
        let Pipeline { client, ops } = self;
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        if client.conn.is_none() {
            let (conn, principal) = dial(client.addr, &client.creds, &client.policy)?;
            client.conn = Some(conn);
            client.principal = principal;
            client.generation += 1;
            client.reconnects += 1;
        }
        let mut conn = client.conn.take().expect("just ensured a connection");
        let start = Instant::now();
        let start_ns = idbox_obs::now_unix_ns();
        let res = run_pipeline(&mut conn, &ops);
        // Same poisoning rule as the one-shot path: only a clean run
        // proves the stream is still framed.
        if res.is_ok() {
            client.conn = Some(conn);
            // One caller-side flight span per queued op, all sharing
            // the burst's wall-clock window: the per-op server spans
            // (rpc/dispatch/policy/shard) carve up the interior.
            let dur_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            for op in &ops {
                idbox_obs::flight::record_span(
                    "client",
                    codec::verb_event_name(op.line.split(' ').next().unwrap_or("rpc")),
                    Some(op.trace),
                    start_ns,
                    dur_ns,
                );
            }
        }
        res
    }
}

/// The wire work of [`Pipeline::run`] on one connection: one buffered
/// write for all requests, then an in-order, id-verified read pass.
fn run_pipeline(conn: &mut Conn, ops: &[QueuedOp]) -> SysResult<Vec<PipeReply>> {
    let mut buf = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        // v2 stacking order: `<line> id=<n> trace=<t>` — the trace
        // token stays last on the wire, as v1 servers expect.
        let stamped = codec::with_trace(&codec::with_id(&op.line, (i + 1) as u64), op.trace);
        if stamped.len() + 1 > codec::LINE_MAX {
            return Err(Errno::EINVAL);
        }
        buf.extend_from_slice(stamped.as_bytes());
        buf.push(b'\n');
        if let Some(p) = &op.payload {
            buf.extend_from_slice(p);
        }
    }
    conn.writer.write_all(&buf).map_err(|_| Errno::EPIPE)?;
    conn.writer.flush().map_err(|_| Errno::EPIPE)?;
    let mut replies = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let raw = codec::read_line(&mut conn.reader)?;
        let (head, id) = codec::strip_id(&raw);
        if id != Some((i + 1) as u64) {
            return Err(Errno::EPROTO);
        }
        let result = match parse_reply(head) {
            Ok(words) => Ok(words),
            Err(Fail::App(e)) => Err(e),
            Err(fail) => return Err(fail.errno()),
        };
        let payload = match (&result, op.wants_payload) {
            (Ok(words), true) => {
                let len: u64 = words
                    .first()
                    .and_then(|w| w.parse().ok())
                    .ok_or(Errno::EPROTO)?;
                Some(codec::read_payload(&mut conn.reader, len)?)
            }
            _ => None,
        };
        replies.push(PipeReply {
            trace: op.trace,
            result,
            payload,
        });
    }
    Ok(replies)
}

/// One operation in a [`ChirpClient::batch`] — the metadata subset of
/// the protocol the server accepts inside a `batch` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Ask the server who we are.
    Whoami,
    /// Stat a path.
    Stat(String),
    /// Stat an open server-side fd.
    Fstat(i64),
    /// Open a path; the sub-reply number is the fd.
    Open {
        /// Client-visible path.
        path: String,
        /// Open flags.
        flags: OpenFlags,
        /// Creation mode.
        mode: u16,
    },
    /// Close a server-side fd.
    Close(i64),
    /// List a directory (sub-reply text is the encoded listing).
    Readdir(String),
    /// Fetch a directory's ACL (sub-reply text is the ACL).
    Getacl(String),
    /// Create a directory.
    Mkdir {
        /// Client-visible path.
        path: String,
        /// Creation mode.
        mode: u16,
    },
    /// Remove a directory.
    Rmdir(String),
    /// Unlink a file.
    Unlink(String),
    /// Rename a path.
    Rename {
        /// Old client-visible path.
        old: String,
        /// New client-visible path.
        new: String,
    },
    /// Truncate a file.
    Truncate {
        /// Client-visible path.
        path: String,
        /// New length.
        len: u64,
    },
}

impl BatchOp {
    /// Render the sub-operation's protocol line.
    fn line(&self) -> String {
        match self {
            BatchOp::Whoami => "whoami".to_string(),
            BatchOp::Stat(p) => format!("stat {}", encode_word(p)),
            BatchOp::Fstat(fd) => format!("fstat {fd}"),
            BatchOp::Open { path, flags, mode } => {
                format!("open {} {} {}", encode_word(path), flags.to_bits(), mode)
            }
            BatchOp::Close(fd) => format!("close {fd}"),
            BatchOp::Readdir(p) => format!("readdir {}", encode_word(p)),
            BatchOp::Getacl(p) => format!("getacl {}", encode_word(p)),
            BatchOp::Mkdir { path, mode } => format!("mkdir {} {}", encode_word(path), mode),
            BatchOp::Rmdir(p) => format!("rmdir {}", encode_word(p)),
            BatchOp::Unlink(p) => format!("unlink {}", encode_word(p)),
            BatchOp::Rename { old, new } => {
                format!("rename {} {}", encode_word(old), encode_word(new))
            }
            BatchOp::Truncate { path, len } => format!("truncate {} {len}", encode_word(path)),
        }
    }

    /// Retry classification (see [`Verb`]).
    fn class(&self) -> Verb {
        match self {
            BatchOp::Whoami | BatchOp::Stat(_) | BatchOp::Readdir(_) | BatchOp::Getacl(_) => {
                Verb::ReadOnly
            }
            BatchOp::Open { flags, .. } => {
                if flags.excl {
                    Verb::Mutating
                } else if flags.write || flags.create || flags.trunc {
                    Verb::IdemWrite
                } else {
                    Verb::ReadOnly
                }
            }
            BatchOp::Fstat(_) => Verb::FdRead,
            BatchOp::Close(_) => Verb::FdWrite,
            BatchOp::Truncate { .. } => Verb::IdemWrite,
            BatchOp::Mkdir { .. }
            | BatchOp::Rmdir(_)
            | BatchOp::Unlink(_)
            | BatchOp::Rename { .. } => Verb::Mutating,
        }
    }
}

/// The result of one [`BatchOp`] inside a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply {
    /// Decoded sub-reply words, or the operation's errno. Operations
    /// that return bulk text (`readdir`, `getacl`) collapse it into a
    /// single word — see [`BatchReply::text`].
    pub result: SysResult<Vec<String>>,
}

impl BatchReply {
    /// The first reply word parsed as a number (fd, size, exit code).
    pub fn num(&self) -> SysResult<i64> {
        self.result
            .as_ref()
            .map_err(|e| *e)?
            .first()
            .and_then(|w| w.parse().ok())
            .ok_or(Errno::EPROTO)
    }

    /// The sub-reply's bulk text (empty when the reply carried none).
    pub fn text(&self) -> SysResult<String> {
        Ok(self
            .result
            .as_ref()
            .map_err(|e| *e)?
            .first()
            .cloned()
            .unwrap_or_default())
    }

    /// Decode a `stat`/`fstat` sub-reply.
    pub fn stat(&self) -> SysResult<StatBuf> {
        ChirpClient::stat_words(self.result.as_ref().map_err(|e| *e)?)
    }
}

/// Parse one line of a batch reply payload. Transport-shaped garbage
/// (neither `ok` nor `error <code>`) fails the whole batch.
fn parse_batch_line(line: &str) -> SysResult<BatchReply> {
    match parse_reply(line) {
        Ok(words) => Ok(BatchReply { result: Ok(words) }),
        Err(Fail::App(e)) => Ok(BatchReply { result: Err(e) }),
        Err(_) => Err(Errno::EPROTO),
    }
}

/// One line of the `stats` RPC: a syscall's dispatch count and latency
/// percentiles (bucket ceilings, nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatRow {
    /// Syscall name.
    pub name: String,
    /// Dispatches recorded.
    pub count: u64,
    /// Median latency (ns); `None` when the histogram is empty (the
    /// server sends `-`).
    pub p50_ns: Option<u64>,
    /// 99th-percentile latency (ns); `None` when the histogram is
    /// empty.
    pub p99_ns: Option<u64>,
}

/// The `health` RPC rollup: the numbers an operator reaches for first
/// during an incident, in one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthRow {
    /// 99th-percentile event-loop cycle lag in microseconds, merged
    /// across workers; `None` while no readiness cycle has been timed.
    pub loop_p99_us: Option<u64>,
    /// 99th-percentile shard-lock wait in microseconds, merged across
    /// every profiled lock domain; `None` while uncontended.
    pub shard_wait_p99_us: Option<u64>,
    /// Requests currently being served.
    pub inflight: u64,
    /// Requests refused by load shedding (admission + per-identity).
    pub shed: u64,
    /// Connections currently registered with the event loops.
    pub conns: u64,
    /// Event-loop worker threads.
    pub workers: u64,
    /// Loop-stall watchdog trips since the server started.
    pub stalls: u64,
}

/// One line of the `audit` RPC: a policy decision the server recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRow {
    /// Monotonic sequence number (gaps = dropped history).
    pub seq: u64,
    /// The boxed identity the ruling was made for.
    pub identity: String,
    /// Syscall name.
    pub syscall: String,
    /// The path(s) the call named, if any.
    pub path: Option<String>,
    /// `allow`, `deny`, or `reserve-amplified`.
    pub verdict: String,
    /// The errno a denial carried.
    pub errno: Option<Errno>,
    /// The trace id of the request that triggered the ruling, when the
    /// client sent one (and the server is new enough to report it).
    pub trace: Option<TraceId>,
}

/// One line of the `slowops` RPC: a span that crossed the server's
/// slow-op threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOpRow {
    /// The trace id of the request, when the client sent one.
    pub trace: Option<TraceId>,
    /// Which phase was timed: `rpc`, `policy`, `dispatch`, or `exec`.
    pub phase: String,
    /// What ran: the RPC verb, syscall name, or program path.
    pub name: String,
    /// The principal the work was done for.
    pub identity: String,
    /// Wall-clock start, nanoseconds since the Unix epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Parse `stats` payload lines. Trailing columns beyond the known four
/// are ignored, so a newer server can append more without breaking old
/// clients.
fn parse_stat_rows(text: &str) -> SysResult<Vec<StatRow>> {
    text.lines()
        .map(|line| {
            let mut f = line.split_whitespace();
            let row = (|| {
                let name = f.next()?.to_string();
                let count = f.next()?.parse().ok()?;
                let mut pct = || -> Option<Option<u64>> {
                    match f.next()? {
                        "-" => Some(None),
                        w => Some(Some(w.parse().ok()?)),
                    }
                };
                Some(StatRow {
                    name,
                    count,
                    p50_ns: pct()?,
                    p99_ns: pct()?,
                })
            })();
            row.ok_or(Errno::EPROTO)
        })
        .collect()
}

/// Parse the `health` reply words (`key=value` pairs past the `ok`,
/// already stripped). Unknown keys are ignored so a newer server can
/// append more; `-` means "no data yet" for percentile fields.
fn parse_health_row(words: &[String]) -> SysResult<HealthRow> {
    let mut row = HealthRow {
        loop_p99_us: None,
        shard_wait_p99_us: None,
        inflight: 0,
        shed: 0,
        conns: 0,
        workers: 0,
        stalls: 0,
    };
    for w in words {
        let Some((key, val)) = w.split_once('=') else {
            return Err(Errno::EPROTO);
        };
        let opt = || -> SysResult<Option<u64>> {
            match val {
                "-" => Ok(None),
                v => v.parse().map(Some).map_err(|_| Errno::EPROTO),
            }
        };
        let num = || -> SysResult<u64> { val.parse().map_err(|_| Errno::EPROTO) };
        match key {
            "loop_p99_us" => row.loop_p99_us = opt()?,
            "shard_wait_p99_us" => row.shard_wait_p99_us = opt()?,
            "inflight" => row.inflight = num()?,
            "shed" => row.shed = num()?,
            "conns" => row.conns = num()?,
            "workers" => row.workers = num()?,
            "stalls" => row.stalls = num()?,
            _ => {}
        }
    }
    Ok(row)
}

/// Parse `audit` payload lines. The trace column was appended after
/// the first release, so it is optional; columns beyond it are
/// ignored, preserving the same forward compatibility for the future.
fn parse_audit_rows(text: &str) -> SysResult<Vec<AuditRow>> {
    text.lines()
        .map(|line| {
            let mut f = line.split_whitespace();
            let row = (|| {
                Some(AuditRow {
                    seq: f.next()?.parse().ok()?,
                    identity: codec::decode_word(f.next()?).ok()?,
                    syscall: f.next()?.to_string(),
                    path: match f.next()? {
                        "-" => None,
                        w => Some(codec::decode_word(w).ok()?),
                    },
                    verdict: f.next()?.to_string(),
                    errno: match f.next()? {
                        "-" => None,
                        w => Some(Errno::from_code(w.parse().ok()?)?),
                    },
                    trace: match f.next() {
                        None | Some("-") => None,
                        Some(w) => Some(w.parse().ok()?),
                    },
                })
            })();
            row.ok_or(Errno::EPROTO)
        })
        .collect()
}

/// Parse `slowops` payload lines; trailing unknown columns are ignored.
fn parse_slowop_rows(text: &str) -> SysResult<Vec<SlowOpRow>> {
    text.lines()
        .map(|line| {
            let mut f = line.split_whitespace();
            let row = (|| {
                Some(SlowOpRow {
                    trace: match f.next()? {
                        "-" => None,
                        w => Some(w.parse().ok()?),
                    },
                    phase: f.next()?.to_string(),
                    name: codec::decode_word(f.next()?).ok()?,
                    identity: codec::decode_word(f.next()?).ok()?,
                    start_ns: f.next()?.parse().ok()?,
                    dur_ns: f.next()?.parse().ok()?,
                })
            })();
            row.ok_or(Errno::EPROTO)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_rows_ignore_unknown_trailing_columns() {
        let known = parse_stat_rows("stat 10 100 900\n").unwrap();
        // A newer server appending a p999 column must parse identically.
        let newer = parse_stat_rows("stat 10 100 900 9999 extra\n").unwrap();
        assert_eq!(known, newer);
        assert_eq!(known[0].name, "stat");
        assert_eq!(
            (known[0].count, known[0].p50_ns, known[0].p99_ns),
            (10, Some(100), Some(900))
        );
        assert!(parse_stat_rows("stat 10 100\n").is_err(), "short row is EPROTO");
        // An empty histogram has no percentiles: the server sends `-`.
        let empty = parse_stat_rows("stat 0 - -\n").unwrap();
        assert_eq!((empty[0].p50_ns, empty[0].p99_ns), (None, None));
    }

    #[test]
    fn health_row_parses_dashes_and_ignores_unknown_keys() {
        let words: Vec<String> = "loop_p99_us=120 shard_wait_p99_us=- inflight=3 shed=1 \
             conns=2 workers=4 stalls=0 future_key=9"
            .split_whitespace()
            .map(String::from)
            .collect();
        let row = parse_health_row(&words).unwrap();
        assert_eq!(row.loop_p99_us, Some(120));
        assert_eq!(row.shard_wait_p99_us, None);
        assert_eq!((row.inflight, row.shed, row.conns), (3, 1, 2));
        assert_eq!((row.workers, row.stalls), (4, 0));
        assert_eq!(
            parse_health_row(&["nokey".to_string()]),
            Err(Errno::EPROTO)
        );
    }

    #[test]
    fn audit_rows_parse_with_and_without_trace_column() {
        // A pre-trace server emits six columns...
        let old = parse_audit_rows("5 fred open /a deny 13\n").unwrap();
        assert_eq!(old[0].trace, None);
        assert_eq!(old[0].errno, Some(Errno::EACCES));
        // ...the current one seven ("-" = request carried no id)...
        let now = parse_audit_rows("5 fred open /a deny 13 00000000000000ab\n").unwrap();
        assert_eq!(now[0].trace.unwrap().raw(), 0xab);
        let none = parse_audit_rows("5 fred open - allow - -\n").unwrap();
        assert_eq!(none[0].trace, None);
        assert_eq!(none[0].path, None);
        // ...and a future one may append more columns still.
        let future =
            parse_audit_rows("5 fred open /a deny 13 00000000000000ab whatever 9\n").unwrap();
        assert_eq!(now, future);
        assert!(parse_audit_rows("5 fred open /a deny 13 nothex\n").is_err());
    }

    #[test]
    fn parse_reply_splits_transport_from_app() {
        assert_eq!(parse_reply("ok 42").unwrap(), ["42"]);
        assert!(matches!(
            parse_reply("error 13"),
            Err(Fail::App(Errno::EACCES))
        ));
        assert!(matches!(
            parse_reply("gibberish"),
            Err(Fail::Transport(Errno::EPROTO))
        ));
        assert!(matches!(
            parse_reply("error notanumber"),
            Err(Fail::Transport(Errno::EPROTO))
        ));
    }

    #[test]
    fn first_retry_is_immediate_then_backoff_stays_within_bounds() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut jitter = 7u64;
        for trial in 0..32 {
            let mut prev = policy.base_delay;
            // The first retry never sleeps — that was the fault-sweep
            // latency cliff.
            assert_eq!(
                backoff_delay(&policy, 1, &mut prev, &mut jitter),
                Duration::ZERO
            );
            for failures in 2..12u32 {
                let hi = (prev * 3).min(policy.max_delay);
                let d = backoff_delay(&policy, failures, &mut prev, &mut jitter);
                assert!(
                    d >= policy.base_delay.min(hi) && d <= policy.max_delay,
                    "trial={trial} failures={failures}: {d:?} outside [base, cap]"
                );
                assert!(d <= hi, "trial={trial} failures={failures}: {d:?} > 3·prev {hi:?}");
            }
        }
        // A zero base never sleeps.
        let zero = RetryPolicy {
            base_delay: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let mut prev = Duration::ZERO;
        assert_eq!(backoff_delay(&zero, 3, &mut prev, &mut jitter), Duration::ZERO);
    }

    #[test]
    fn same_seed_same_backoff_schedule() {
        let policy = RetryPolicy::default();
        let (mut a, mut b) = (99u64, 99u64);
        let (mut pa, mut pb) = (policy.base_delay, policy.base_delay);
        for failures in 1..8 {
            assert_eq!(
                backoff_delay(&policy, failures, &mut pa, &mut a),
                backoff_delay(&policy, failures, &mut pb, &mut b)
            );
        }
        assert_eq!(pa, pb);
    }

    #[test]
    fn batch_ops_render_lines_and_compose_classes() {
        let ops = [
            BatchOp::Whoami,
            BatchOp::Stat("/a dir/f".to_string()),
            BatchOp::Rename {
                old: "/x".to_string(),
                new: "/y".to_string(),
            },
        ];
        assert_eq!(ops[0].line(), "whoami");
        assert_eq!(ops[1].line(), "stat /a%20dir/f");
        assert_eq!(ops[2].line(), "rename /x /y");
        // One mutating member makes the whole batch mutating…
        let class = ops.iter().map(BatchOp::class).fold(Verb::ReadOnly, Verb::compose);
        assert_eq!(class, Verb::Mutating);
        // …and an fd-based member dominates even that.
        assert_eq!(Verb::Mutating.compose(Verb::FdRead), Verb::FdRead);
        assert_eq!(Verb::ReadOnly.compose(Verb::ReadOnly), Verb::ReadOnly);
    }

    #[test]
    fn batch_reply_lines_split_ok_from_error() {
        let ok = parse_batch_line("ok 42").unwrap();
        assert_eq!(ok.num().unwrap(), 42);
        let denied = parse_batch_line("error 13").unwrap();
        assert_eq!(denied.result, Err(Errno::EACCES));
        // Bulk text collapses to one decoded word.
        let listing = parse_batch_line("ok a%0Ab%0A").unwrap();
        assert_eq!(listing.text().unwrap(), "a\nb\n");
        // Garbage is a transport fault for the whole batch.
        assert_eq!(parse_batch_line("gibberish"), Err(Errno::EPROTO));
    }

    #[test]
    fn slowop_rows_parse_and_tolerate_extras() {
        let text = "00000000000000ab exec /export/job%20dir fred 1000 2000\n\
                    - dispatch stat fred 1500 10 future-column\n";
        let rows = parse_slowop_rows(text).unwrap();
        assert_eq!(rows[0].trace.unwrap().raw(), 0xab);
        assert_eq!(rows[0].name, "/export/job dir");
        assert_eq!(rows[1].trace, None);
        assert_eq!(rows[1].phase, "dispatch");
        assert_eq!((rows[1].start_ns, rows[1].dur_ns), (1500, 10));
    }
}
