//! Tracing and per-identity accounting for the boxed Chirp stack.
//!
//! The paper's thesis is that one *global identity string* follows a
//! visitor through every process and resource. This crate makes that
//! identity the first-class dimension of the telemetry as well:
//!
//! - [`TraceId`] — a 64-bit id generated at the Chirp client and
//!   carried as an optional final `trace=<16 hex>` token on every RPC
//!   line, so one request can be joined across the RPC span, the
//!   policy rulings it triggered (the audit ring), and the boxed child
//!   it exec'd (via its box environment).
//! - [`Span`] — one timed phase of a request (`rpc`, `policy`,
//!   `dispatch`, `exec`), recorded into a bounded [`SlowOpLog`] when
//!   its duration crosses a configurable threshold.
//! - [`IdentityMetrics`] — a registry of per-principal counters
//!   (syscalls by name, bytes read/written, denials, reserve
//!   amplifications, active sessions). All counters are atomics bumped
//!   through `&self`, so the hot dispatch path never takes a lock; the
//!   registry map itself is locked only on first sight of an identity
//!   and when rendering. Cardinality is bounded: when the registry is
//!   full, the oldest-idle identity is evicted.
//!
//! This crate depends only on the lock shim — deliberately below
//! `kernel`/`core`/`chirp` in the dependency order, so all of them can
//! feed it. The per-syscall counter table is sized by a caller-passed
//! name slice (the kernel's `Syscall::NAMES`), which keeps the kernel
//! dependency out.

mod durability;
pub mod flight;
mod runtime;

pub use durability::{render_wal_prometheus, WalCounters};
pub use runtime::{
    lag_percentile_from, render_lock_prometheus, Log2HistoUs, LoopStats, WorkerStats,
    LOOP_LAG_BUCKETS,
};

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// A 64-bit request trace id. Zero is reserved for "no trace", so a
/// valid id is always nonzero; the wire spelling is exactly 16
/// lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Construct from a raw value; zero means "no trace" and is
    /// refused.
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        if raw == 0 {
            None
        } else {
            Some(TraceId(raw))
        }
    }

    /// The raw nonzero value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Parse the exact wire spelling: 16 lowercase hex digits, nonzero.
impl FromStr for TraceId {
    type Err = ();

    fn from_str(s: &str) -> Result<TraceId, ()> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
            return Err(());
        }
        let raw = u64::from_str_radix(s, 16).map_err(|_| ())?;
        TraceId::from_raw(raw).ok_or(())
    }
}

/// Process-wide counter folded into the generator so two ids minted in
/// the same nanosecond still differ.
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mint a fresh trace id. No external randomness: wall clock, process
/// id, and a process-wide counter are mixed through splitmix64, which
/// is plenty for correlation ids (uniqueness, not secrecy).
pub fn next_trace_id() -> TraceId {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(GOLDEN);
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = u64::from(std::process::id());
    let mut raw = splitmix64(nanos ^ n.wrapping_mul(GOLDEN) ^ (pid << 32));
    if raw == 0 {
        raw = 1;
    }
    TraceId(raw)
}

/// Wall-clock nanoseconds since the Unix epoch, for span start stamps.
pub fn now_unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// A shared slot holding "the trace id of the request currently being
/// served". The Chirp session loop stores each request's id here; the
/// policy and supervisor read it when they stamp audit events and
/// spans. Zero encodes "none".
#[derive(Debug, Default)]
pub struct TraceCell(AtomicU64);

impl TraceCell {
    /// An empty cell (no current trace).
    pub const fn new() -> TraceCell {
        TraceCell(AtomicU64::new(0))
    }

    /// Set (or clear, with `None`) the current trace id.
    pub fn set(&self, trace: Option<TraceId>) {
        self.0.store(trace.map_or(0, |t| t.0), Ordering::Relaxed);
    }

    /// The current trace id, if any.
    pub fn get(&self) -> Option<TraceId> {
        TraceId::from_raw(self.0.load(Ordering::Relaxed))
    }
}

/// Which phase of a request a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One whole RPC, read-line to reply, at the server.
    Rpc,
    /// One policy ruling (ACL check) inside the supervisor.
    Policy,
    /// One syscall dispatch through the supervisor funnel.
    Dispatch,
    /// One staged program run by the `exec` RPC.
    Exec,
}

impl Phase {
    /// Stable report spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Rpc => "rpc",
            Phase::Policy => "policy",
            Phase::Dispatch => "dispatch",
            Phase::Exec => "exec",
        }
    }
}

/// One timed phase of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The request's trace id, when the client sent one.
    pub trace: Option<TraceId>,
    /// Which phase was timed.
    pub phase: Phase,
    /// What ran: the RPC verb, syscall name, or program path.
    pub name: String,
    /// The principal the work was done for.
    pub identity: String,
    /// Wall-clock start, nanoseconds since the Unix epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Record one timed phase of a request: into the flight recorder when
/// the request is traced and the recorder is on (every span, so a
/// tracedump shows the whole request), and into `slow_ops` when it
/// crosses the ring's threshold. A span bound for neither sink reads no
/// clock; one bound only for the flight recorder with a static `name`
/// allocates nothing. Otherwise the clock is read once for both sinks.
pub fn observe_span(
    slow_ops: &SlowOpLog,
    trace: Option<TraceId>,
    phase: Phase,
    name: impl Into<flight::EventName>,
    identity: &str,
    dur_ns: u64,
) {
    let slow = dur_ns >= slow_ops.threshold_ns();
    let flown = trace.is_some() && flight::recording();
    if !flown && !slow {
        return;
    }
    let start_ns = now_unix_ns().saturating_sub(dur_ns);
    let name = name.into();
    if slow {
        slow_ops.record(Span {
            trace,
            phase,
            name: name.text().into_owned(),
            identity: identity.to_string(),
            start_ns,
            dur_ns,
        });
    }
    if flown {
        flight::record_span(phase.as_str(), name, trace, start_ns, dur_ns);
    }
}

/// Default slow-op ring capacity.
pub const SLOW_OP_DEFAULT_CAP: usize = 512;

/// A bounded, oldest-out ring of [`Span`]s whose duration crossed a
/// threshold. Like the audit ring, recording goes through `&self`.
#[derive(Debug)]
pub struct SlowOpLog {
    cap: usize,
    threshold_ns: AtomicU64,
    total: AtomicU64,
    spans: Mutex<VecDeque<Span>>,
}

impl SlowOpLog {
    /// A ring holding at most `cap` spans (`cap` ≥ 1), recording spans
    /// of at least `threshold_ns` nanoseconds.
    pub fn new(cap: usize, threshold_ns: u64) -> SlowOpLog {
        SlowOpLog {
            cap: cap.max(1),
            threshold_ns: AtomicU64::new(threshold_ns),
            total: AtomicU64::new(0),
            spans: Mutex::new(VecDeque::with_capacity(cap.clamp(1, SLOW_OP_DEFAULT_CAP))),
        }
    }

    /// The current threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Record `span` if it is slow enough; returns whether it was kept.
    pub fn record(&self, span: Span) -> bool {
        if span.dur_ns < self.threshold_ns() {
            return false;
        }
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.spans.lock();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(span);
        true
    }

    /// Oldest-first copy of the retained spans.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().iter().cloned().collect()
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.spans.lock().is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total slow spans ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Per-principal atomic counters. One instance per identity, shared
/// between every session and box serving that identity; every bump is
/// a relaxed atomic add, so the dispatch hot path never locks.
#[derive(Debug)]
pub struct IdentityCounters {
    /// Dispatched syscalls, indexed by syscall slot (the table is
    /// sized by the name slice the registry was built with).
    syscalls: Box<[AtomicU64]>,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    /// Wire bytes received from this identity's connections (frames +
    /// payloads), counted at the event loop's socket reads.
    bytes_in: AtomicU64,
    /// Wire bytes flushed to this identity's connections, counted at
    /// the event loop's (vectored) socket writes.
    bytes_out: AtomicU64,
    denials: AtomicU64,
    reserve_amplifications: AtomicU64,
    verdict_cache_hits: AtomicU64,
    verdict_cache_misses: AtomicU64,
    active_sessions: AtomicU64,
    rpcs_shed: AtomicU64,
    rpcs_retried: AtomicU64,
    inflight: AtomicU64,
    /// Logical tick of the last registry touch — the eviction key.
    last_active: AtomicU64,
}

impl IdentityCounters {
    fn new(slots: usize) -> IdentityCounters {
        IdentityCounters {
            syscalls: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            denials: AtomicU64::new(0),
            reserve_amplifications: AtomicU64::new(0),
            verdict_cache_hits: AtomicU64::new(0),
            verdict_cache_misses: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
            rpcs_shed: AtomicU64::new(0),
            rpcs_retried: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            last_active: AtomicU64::new(0),
        }
    }

    /// Count one dispatched syscall by slot. Out-of-range slots (a
    /// newer kernel than the registry's name table) are ignored.
    pub fn bump_syscall(&self, slot: usize) {
        if let Some(c) = self.syscalls.get(slot) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count payload bytes returned by read-family calls.
    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Count payload bytes accepted by write-family calls.
    pub fn add_bytes_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Count wire bytes received on this identity's connections.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Count wire bytes sent on this identity's connections.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one policy denial.
    pub fn bump_denial(&self) {
        self.denials.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one reserve-right amplification (Section 4's mkdir).
    pub fn bump_reserve_amplification(&self) {
        self.reserve_amplifications.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one ACL verdict served from the generation-keyed cache.
    pub fn bump_verdict_hit(&self) {
        self.verdict_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one ACL verdict that had to re-read the directory's ACL.
    pub fn bump_verdict_miss(&self) {
        self.verdict_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one RPC refused by a load-shedding gate (drain mode or an
    /// inflight watermark) with a fast `EAGAIN` busy reply.
    pub fn bump_rpc_shed(&self) {
        self.rpcs_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one RPC the client marked as a retry of an earlier attempt
    /// (the `retry=<n>` request token).
    pub fn bump_rpc_retried(&self) {
        self.rpcs_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// An RPC for this identity entered dispatch.
    pub fn rpc_started(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// An RPC for this identity left dispatch.
    pub fn rpc_finished(&self) {
        // Saturating: a stray extra call must not wrap to u64::MAX.
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// A session for this identity opened.
    pub fn session_started(&self) {
        self.active_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// A session for this identity closed.
    pub fn session_ended(&self) {
        // Saturating: a stray extra call must not wrap to u64::MAX.
        let _ = self
            .active_sessions
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Dispatches recorded for one syscall slot.
    pub fn syscall_count(&self, slot: usize) -> u64 {
        self.syscalls.get(slot).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Dispatches recorded across all syscalls.
    pub fn total_syscalls(&self) -> u64 {
        self.syscalls.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Payload bytes returned by read-family calls.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Payload bytes accepted by write-family calls.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Wire bytes received on this identity's connections.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Wire bytes sent on this identity's connections.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Policy denials recorded.
    pub fn denials(&self) -> u64 {
        self.denials.load(Ordering::Relaxed)
    }

    /// Reserve amplifications recorded.
    pub fn reserve_amplifications(&self) -> u64 {
        self.reserve_amplifications.load(Ordering::Relaxed)
    }

    /// ACL verdicts served from the generation-keyed cache.
    pub fn verdict_cache_hits(&self) -> u64 {
        self.verdict_cache_hits.load(Ordering::Relaxed)
    }

    /// ACL verdicts that re-read the directory's ACL.
    pub fn verdict_cache_misses(&self) -> u64 {
        self.verdict_cache_misses.load(Ordering::Relaxed)
    }

    /// Sessions currently open for this identity.
    pub fn active_sessions(&self) -> u64 {
        self.active_sessions.load(Ordering::Relaxed)
    }

    /// RPCs refused by a load-shedding gate.
    pub fn rpcs_shed(&self) -> u64 {
        self.rpcs_shed.load(Ordering::Relaxed)
    }

    /// RPCs that arrived marked as retries.
    pub fn rpcs_retried(&self) -> u64 {
        self.rpcs_retried.load(Ordering::Relaxed)
    }

    /// RPCs currently in dispatch for this identity.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// Default bound on how many identities the registry tracks at once.
pub const IDENTITY_METRICS_DEFAULT_CAP: usize = 1024;

/// A bounded registry of [`IdentityCounters`], keyed by principal.
///
/// `handle()` hands out `Arc`s, so sessions bump their counters without
/// touching the map again. When a new identity would exceed the bound,
/// the oldest-idle entry (smallest last-touch tick among identities
/// with no active session; any oldest entry if all are active) is
/// evicted — its history is lost, which is the documented trade for
/// bounded memory under "millions of users".
#[derive(Debug)]
pub struct IdentityMetrics {
    /// Syscall names, by slot — sizes the per-identity tables and
    /// labels the exposition. Passed in (the kernel's `Syscall::NAMES`)
    /// so this crate needn't depend on the kernel.
    names: &'static [&'static str],
    cap: usize,
    tick: AtomicU64,
    map: Mutex<HashMap<String, Arc<IdentityCounters>>>,
    /// Connections refused at the accept loop, before any identity is
    /// known — a registry-level (label-less) counter, since there is no
    /// principal to charge it to.
    admission_shed: AtomicU64,
}

impl IdentityMetrics {
    /// A registry labeling syscalls with `names`, tracking at most
    /// `cap` identities (`cap` ≥ 1).
    pub fn new(names: &'static [&'static str], cap: usize) -> IdentityMetrics {
        IdentityMetrics {
            names,
            cap: cap.max(1),
            tick: AtomicU64::new(0),
            map: Mutex::new(HashMap::new()),
            admission_shed: AtomicU64::new(0),
        }
    }

    /// Count one connection refused at the accept loop (over the
    /// `max_connections` cap), before authentication names an identity.
    pub fn bump_admission_shed(&self) {
        self.admission_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections refused at the accept loop so far.
    pub fn admission_shed(&self) -> u64 {
        self.admission_shed.load(Ordering::Relaxed)
    }

    /// The syscall name table this registry labels with.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// The cardinality bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Identities currently tracked.
    pub fn identities(&self) -> usize {
        self.map.lock().len()
    }

    /// The counters for `identity`, creating (and, at the bound,
    /// evicting the oldest-idle entry) as needed. Also refreshes the
    /// identity's last-touch tick.
    pub fn handle(&self, identity: &str) -> Arc<IdentityCounters> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock();
        if let Some(c) = map.get(identity) {
            c.last_active.store(tick, Ordering::Relaxed);
            return Arc::clone(c);
        }
        if map.len() >= self.cap {
            Self::evict_oldest_idle(&mut map);
        }
        let c = Arc::new(IdentityCounters::new(self.names.len()));
        c.last_active.store(tick, Ordering::Relaxed);
        map.insert(identity.to_string(), Arc::clone(&c));
        c
    }

    /// Evict the entry with the smallest last-touch tick, preferring
    /// identities with no active session.
    fn evict_oldest_idle(map: &mut HashMap<String, Arc<IdentityCounters>>) {
        let victim = map
            .iter()
            .min_by_key(|(_, c)| {
                let idle = c.active_sessions() == 0;
                // Idle entries sort before active ones, oldest first.
                (!idle, c.last_active.load(Ordering::Relaxed))
            })
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            map.remove(&k);
        }
    }

    /// Identity-sorted copy of the registry.
    pub fn snapshot(&self) -> Vec<(String, Arc<IdentityCounters>)> {
        let mut v: Vec<_> = self
            .map
            .lock()
            .iter()
            .map(|(k, c)| (k.clone(), Arc::clone(c)))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Render the registry in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, then one
    /// `name{labels} value` sample per line, counters suffixed
    /// `_total`. Per-syscall samples are emitted only for nonzero
    /// counts, keeping the exposition proportional to actual use.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();

        out.push_str("# HELP idbox_syscalls_total Syscalls dispatched, by identity and syscall.\n");
        out.push_str("# TYPE idbox_syscalls_total counter\n");
        for (id, c) in &snap {
            for (slot, name) in self.names.iter().enumerate() {
                let n = c.syscall_count(slot);
                if n > 0 {
                    out.push_str(&format!(
                        "idbox_syscalls_total{{identity=\"{}\",syscall=\"{}\"}} {n}\n",
                        escape_label(id),
                        escape_label(name)
                    ));
                }
            }
        }

        type SimpleFamily = (&'static str, &'static str, &'static str, fn(&IdentityCounters) -> u64);
        let simple: [SimpleFamily; 12] = [
            (
                "idbox_bytes_read_total",
                "Payload bytes returned by read-family syscalls, by identity.",
                "counter",
                IdentityCounters::bytes_read,
            ),
            (
                "idbox_bytes_written_total",
                "Payload bytes accepted by write-family syscalls, by identity.",
                "counter",
                IdentityCounters::bytes_written,
            ),
            (
                "idbox_bytes_in_total",
                "Wire bytes received on this identity's connections.",
                "counter",
                IdentityCounters::bytes_in,
            ),
            (
                "idbox_bytes_out_total",
                "Wire bytes sent on this identity's connections.",
                "counter",
                IdentityCounters::bytes_out,
            ),
            (
                "idbox_denials_total",
                "Policy denials, by identity.",
                "counter",
                IdentityCounters::denials,
            ),
            (
                "idbox_reserve_amplifications_total",
                "Mkdirs allowed only via the reserve right, by identity.",
                "counter",
                IdentityCounters::reserve_amplifications,
            ),
            (
                "idbox_verdict_cache_hits_total",
                "ACL verdicts served from the generation-keyed cache, by identity.",
                "counter",
                IdentityCounters::verdict_cache_hits,
            ),
            (
                "idbox_verdict_cache_misses_total",
                "ACL verdicts that re-read the directory's ACL, by identity.",
                "counter",
                IdentityCounters::verdict_cache_misses,
            ),
            (
                "idbox_rpcs_shed_total",
                "RPCs refused by a load-shedding gate with a busy reply, by identity.",
                "counter",
                IdentityCounters::rpcs_shed,
            ),
            (
                "idbox_rpcs_retried_total",
                "RPCs that arrived marked as client retries, by identity.",
                "counter",
                IdentityCounters::rpcs_retried,
            ),
            (
                "idbox_active_sessions",
                "Sessions currently open, by identity.",
                "gauge",
                IdentityCounters::active_sessions,
            ),
            (
                "idbox_inflight_requests",
                "RPCs currently in dispatch, by identity.",
                "gauge",
                IdentityCounters::inflight,
            ),
        ];
        for (name, help, kind, get) in simple {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (id, c) in &snap {
                out.push_str(&format!(
                    "{name}{{identity=\"{}\"}} {}\n",
                    escape_label(id),
                    get(c)
                ));
            }
        }

        // The admission gate fires before authentication, so its count
        // has no identity label: one global sample.
        out.push_str(
            "# HELP idbox_admission_shed_total Connections refused at the accept loop \
             (over max_connections).\n# TYPE idbox_admission_shed_total counter\n",
        );
        out.push_str(&format!(
            "idbox_admission_shed_total {}\n",
            self.admission_shed()
        ));
        out
    }
}

/// Escape a Prometheus label value: backslash, double quote, and
/// newline must be backslash-escaped.
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["getpid", "stat", "read", "write"];

    #[test]
    fn trace_id_round_trips_and_rejects_junk() {
        let id = next_trace_id();
        let s = id.to_string();
        assert_eq!(s.len(), 16);
        assert_eq!(s.parse::<TraceId>().unwrap(), id);
        assert!("".parse::<TraceId>().is_err());
        assert!("0000000000000000".parse::<TraceId>().is_err()); // zero = none
        assert!("00000000000000001".parse::<TraceId>().is_err()); // too long
        assert!("000000000000000g".parse::<TraceId>().is_err()); // not hex
        assert!("000000000000000F".parse::<TraceId>().is_err()); // uppercase
        assert_eq!("000000000000000f".parse::<TraceId>(), Ok(TraceId(0xf)));
    }

    #[test]
    fn trace_ids_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(next_trace_id()), "duplicate trace id");
        }
    }

    #[test]
    fn trace_cell_round_trips() {
        let cell = TraceCell::new();
        assert_eq!(cell.get(), None);
        let id = next_trace_id();
        cell.set(Some(id));
        assert_eq!(cell.get(), Some(id));
        cell.set(None);
        assert_eq!(cell.get(), None);
    }

    fn span(dur_ns: u64) -> Span {
        Span {
            trace: Some(TraceId(7)),
            phase: Phase::Dispatch,
            name: "stat".into(),
            identity: "globus:/O=UnivNowhere/CN=Fred".into(),
            start_ns: now_unix_ns(),
            dur_ns,
        }
    }

    #[test]
    fn slow_op_log_applies_threshold_and_bound() {
        let log = SlowOpLog::new(4, 100);
        assert!(!log.record(span(99)));
        assert!(log.is_empty());
        for i in 0..10 {
            assert!(log.record(span(100 + i)));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.capacity(), 4);
        assert_eq!(log.total_recorded(), 10);
        let snap = log.snapshot();
        assert_eq!(snap.last().unwrap().dur_ns, 109);
        assert_eq!(snap.first().unwrap().dur_ns, 106);
    }

    #[test]
    fn zero_threshold_records_everything() {
        let log = SlowOpLog::new(8, 0);
        assert!(log.record(span(0)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn counters_accumulate_per_identity() {
        let reg = IdentityMetrics::new(NAMES, 8);
        let fred = reg.handle("fred");
        let barney = reg.handle("barney");
        fred.bump_syscall(1);
        fred.bump_syscall(1);
        fred.add_bytes_read(4096);
        fred.bump_denial();
        barney.bump_syscall(0);
        barney.bump_reserve_amplification();
        // Re-requesting the handle returns the same counters.
        assert_eq!(reg.handle("fred").syscall_count(1), 2);
        assert_eq!(reg.handle("fred").bytes_read(), 4096);
        assert_eq!(reg.handle("fred").denials(), 1);
        assert_eq!(reg.handle("barney").reserve_amplifications(), 1);
        assert_eq!(reg.handle("barney").total_syscalls(), 1);
        // Out-of-range slots are ignored, not a panic.
        fred.bump_syscall(NAMES.len() + 5);
        assert_eq!(fred.total_syscalls(), 2);
    }

    #[test]
    fn session_gauge_saturates_at_zero() {
        let reg = IdentityMetrics::new(NAMES, 8);
        let c = reg.handle("fred");
        c.session_started();
        c.session_started();
        assert_eq!(c.active_sessions(), 2);
        c.session_ended();
        c.session_ended();
        c.session_ended(); // stray extra close
        assert_eq!(c.active_sessions(), 0);
    }

    #[test]
    fn registry_bounds_cardinality_and_evicts_oldest_idle() {
        let reg = IdentityMetrics::new(NAMES, 3);
        let a = reg.handle("a");
        a.session_started(); // active: protected from eviction
        reg.handle("b");
        reg.handle("c");
        assert_eq!(reg.identities(), 3);
        // "b" is the oldest idle entry; inserting "d" evicts it.
        reg.handle("c");
        reg.handle("d");
        assert_eq!(reg.identities(), 3);
        let names: Vec<String> = reg.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "c", "d"]);
        // With every remaining entry active, the oldest still goes.
        for (_, c) in reg.snapshot() {
            c.session_started();
        }
        reg.handle("e");
        assert_eq!(reg.identities(), 3);
        assert!(reg.snapshot().iter().any(|(k, _)| k == "e"));
    }

    #[test]
    fn eviction_forgets_history() {
        let reg = IdentityMetrics::new(NAMES, 1);
        reg.handle("a").bump_syscall(0);
        reg.handle("b"); // evicts "a"
        assert_eq!(reg.handle("a").syscall_count(0), 0); // fresh counters, "b" evicted
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = IdentityMetrics::new(NAMES, 8);
        let c = reg.handle("globus:/O=UnivNowhere/CN=Fred");
        c.bump_syscall(1);
        c.add_bytes_written(512);
        c.session_started();
        let text = reg.render_prometheus();
        assert!(text.contains(
            "idbox_syscalls_total{identity=\"globus:/O=UnivNowhere/CN=Fred\",syscall=\"stat\"} 1\n"
        ));
        assert!(text.contains(
            "idbox_bytes_written_total{identity=\"globus:/O=UnivNowhere/CN=Fred\"} 512\n"
        ));
        assert!(text.contains("# TYPE idbox_active_sessions gauge\n"));
        assert!(text.contains("# TYPE idbox_syscalls_total counter\n"));
        assert!(text.contains("# TYPE idbox_verdict_cache_hits_total counter\n"));
        assert!(text.contains("# TYPE idbox_verdict_cache_misses_total counter\n"));
        assert!(text.contains("# TYPE idbox_rpcs_shed_total counter\n"));
        assert!(text.contains("# TYPE idbox_rpcs_retried_total counter\n"));
        assert!(text.contains("# TYPE idbox_inflight_requests gauge\n"));
        // The admission counter is global (fires pre-auth): label-less.
        assert!(text.contains("idbox_admission_shed_total 0\n"));
        // Zero-count syscalls are not emitted.
        assert!(!text.contains("syscall=\"getpid\""));
        // Every sample line is `name{labels} value` — except the global
        // admission sample, which carries no labels.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (head, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            assert!(head.starts_with("idbox_"), "bad family in {line:?}");
            if head != "idbox_admission_shed_total" {
                assert!(head.ends_with('}') && head.contains("{identity=\""));
            }
        }
    }

    #[test]
    fn degradation_counters_round_trip() {
        let reg = IdentityMetrics::new(NAMES, 8);
        let c = reg.handle("fred");
        c.bump_rpc_shed();
        c.bump_rpc_shed();
        c.bump_rpc_retried();
        c.rpc_started();
        c.rpc_started();
        c.rpc_finished();
        reg.bump_admission_shed();
        assert_eq!(c.rpcs_shed(), 2);
        assert_eq!(c.rpcs_retried(), 1);
        assert_eq!(c.inflight(), 1);
        assert_eq!(reg.admission_shed(), 1);
        // rpc_finished saturates instead of wrapping.
        c.rpc_finished();
        c.rpc_finished();
        assert_eq!(c.inflight(), 0);
        let text = reg.render_prometheus();
        assert!(text.contains("idbox_rpcs_shed_total{identity=\"fred\"} 2\n"));
        assert!(text.contains("idbox_rpcs_retried_total{identity=\"fred\"} 1\n"));
        assert!(text.contains("idbox_inflight_requests{identity=\"fred\"} 0\n"));
        assert!(text.contains("idbox_admission_shed_total 1\n"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        let reg = IdentityMetrics::new(NAMES, 8);
        reg.handle("odd\"name\\with\nstuff").bump_syscall(0);
        let text = reg.render_prometheus();
        assert!(text.contains("identity=\"odd\\\"name\\\\with\\nstuff\""));
    }
}
