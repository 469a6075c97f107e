//! The flight recorder: a bounded per-thread ring of structured
//! runtime events, drained on demand into Chrome trace-viewer JSON.
//!
//! Every thread that records gets its own ring (a `VecDeque` behind a
//! mutex that is only ever `try_lock`ed on the record path, so a
//! concurrent drain can never block a worker — the event is dropped
//! and counted instead). Rings are bounded by a byte budget
//! ([`ring_budget_bytes`], 256 KiB per thread): when a push would
//! exceed the budget the oldest events fall off. The
//! recorder therefore never grows without bound and never stalls the
//! hot path; its failure mode under pressure is forgetting the oldest
//! history, which is exactly what a flight recorder should do.
//!
//! Events carry the request [`TraceId`] when one is known, so a single
//! pipelined request can be followed across the client, the event
//! loop, the supervisor funnel (dispatch/policy), and the Vfs shard
//! locks in one Perfetto timeline. The current trace is parked in a
//! thread-local by the event loop for the duration of one frame
//! ([`set_current_trace`]), which is what lets layers with no obs
//! handle of their own (the lock shim's contention hook) tag their
//! events.

use crate::{now_unix_ns, TraceId};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The name of a [`FlightEvent`]. Names known at compile time (syscall
/// names, phases, wire verbs) and shard coordinates are stored without
/// touching the heap; only genuinely dynamic names — an exec'd program
/// path, an unknown verb echoed from the wire — own their bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventName {
    /// A name with static storage.
    Static(&'static str),
    /// A shard lock `(domain, shard)`, rendered as `domain/shard`.
    Shard(&'static str, u32),
    /// A name built at run time.
    Owned(Box<str>),
}

impl EventName {
    /// The rendered name. Borrowed except for shard names, which are
    /// formatted here — at snapshot/render time, not when recorded.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            EventName::Static(s) => Cow::Borrowed(s),
            EventName::Owned(s) => Cow::Borrowed(s),
            EventName::Shard(domain, shard) => Cow::Owned(format!("{domain}/{shard}")),
        }
    }

    /// Heap bytes this name owns.
    fn owned_bytes(&self) -> usize {
        match self {
            EventName::Owned(s) => s.len(),
            _ => 0,
        }
    }
}

impl From<&'static str> for EventName {
    fn from(s: &'static str) -> Self {
        EventName::Static(s)
    }
}

impl From<String> for EventName {
    fn from(s: String) -> Self {
        EventName::Owned(s.into_boxed_str())
    }
}

impl PartialEq<&str> for EventName {
    fn eq(&self, other: &&str) -> bool {
        self.text() == *other
    }
}

/// One recorded event: a span (`dur_ns > 0`) or an instant.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Wall-clock start, nanoseconds since the Unix epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; 0 renders as an instant marker.
    pub dur_ns: u64,
    /// The request trace this event belongs to, when known.
    pub trace: Option<TraceId>,
    /// Recorder-assigned id of the recording thread.
    pub tid: u32,
    /// Plane the event belongs to: `client`, `rpc`, `dispatch`,
    /// `policy`, `exec`, `data`, `shard`, `loop`, `shed`, `retry`.
    pub plane: &'static str,
    /// Event name within the plane (verb, syscall, `domain/shard`...).
    pub name: EventName,
}

impl FlightEvent {
    /// Ring bytes charged for this event: its fixed size plus whatever
    /// name bytes it owns on the heap.
    fn cost(&self) -> usize {
        std::mem::size_of::<FlightEvent>() + self.name.owned_bytes()
    }
}

#[derive(Default)]
struct RingBuf {
    events: VecDeque<FlightEvent>,
    bytes: usize,
}

struct ThreadRing {
    tid: u32,
    buf: Mutex<RingBuf>,
}

static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Per-thread ring byte budget: 256 KiB.
pub const fn ring_budget_bytes() -> usize {
    256 * 1024
}

/// The recorder's only kill switch (the bench overhead gate flips
/// this).
pub fn set_flight_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

pub(crate) fn recording() -> bool {
    ENABLED.load(Relaxed)
}

/// Events discarded because a drain held the ring lock.
pub fn dropped() -> u64 {
    DROPPED.load(Relaxed)
}

fn new_ring() -> Arc<ThreadRing> {
    let ring = Arc::new(ThreadRing {
        tid: NEXT_TID.fetch_add(1, Relaxed),
        buf: Mutex::new(RingBuf::default()),
    });
    let mut reg = RINGS.lock();
    // Bound the registry across thread churn: once it grows past a
    // generous cap, drop rings whose owning thread has exited (ours
    // is the only other strong reference).
    if reg.len() >= 512 {
        reg.retain(|r| Arc::strong_count(r) > 1);
    }
    reg.push(Arc::clone(&ring));
    ring
}

thread_local! {
    static RING: Arc<ThreadRing> = new_ring();
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Park (or clear) the trace id of the request this thread is
/// currently serving; recorded events without an explicit trace and
/// the shard-lock hook pick it up.
pub fn set_current_trace(trace: Option<TraceId>) {
    CURRENT.with(|c| c.set(trace.map_or(0, |t| t.raw())));
}

/// The trace id parked by [`set_current_trace`], if any.
pub fn current_trace() -> Option<TraceId> {
    CURRENT.with(|c| TraceId::from_raw(c.get()))
}

fn push(ev: FlightEvent) {
    let budget = ring_budget_bytes();
    RING.with(|r| match r.buf.try_lock() {
        Some(mut g) => {
            g.bytes += ev.cost();
            g.events.push_back(ev);
            while g.bytes > budget {
                match g.events.pop_front() {
                    Some(old) => g.bytes -= old.cost(),
                    None => break,
                }
            }
        }
        None => {
            DROPPED.fetch_add(1, Relaxed);
        }
    });
}

/// Record a completed span on this thread. A static or shard `name`
/// costs no allocation; once the ring has filled to its budget, pushing
/// such an event reuses the slot the evicted one freed.
pub fn record_span(
    plane: &'static str,
    name: impl Into<EventName>,
    trace: Option<TraceId>,
    ts_ns: u64,
    dur_ns: u64,
) {
    if !recording() {
        return;
    }
    push(FlightEvent {
        ts_ns,
        dur_ns,
        trace: trace.or_else(current_trace),
        tid: RING.with(|r| r.tid),
        plane,
        name: name.into(),
    });
}

/// Record an instant (zero-duration) event stamped "now".
pub fn record_instant(plane: &'static str, name: impl Into<EventName>, trace: Option<TraceId>) {
    record_span(plane, name, trace, now_unix_ns(), 0);
}

/// Install the shard-lock contention hook: every *contended* profiled
/// lock acquisition (the `try_lock` missed and the thread blocked) made
/// while a trace is parked on the acquiring thread becomes one `shard`
/// plane event, named `domain/shard` at render time, whose duration is
/// the wait. Uncontended acquisitions record nothing and read no clock.
/// Idempotent.
pub fn install_lock_hook() {
    parking_lot::set_contention_hook(Box::new(|domain, shard, wait_us| {
        if !recording() || current_trace().is_none() {
            return;
        }
        let wait_ns = wait_us.saturating_mul(1000);
        record_span(
            "shard",
            EventName::Shard(domain, u32::try_from(shard).unwrap_or(u32::MAX)),
            None,
            now_unix_ns().saturating_sub(wait_ns),
            wait_ns,
        );
    }));
}

/// Clone out every event recorded at or after `since_ns`, across all
/// threads, in timestamp order.
pub fn snapshot_since(since_ns: u64) -> Vec<FlightEvent> {
    let rings: Vec<Arc<ThreadRing>> = RINGS.lock().clone();
    let mut out = Vec::new();
    for r in rings {
        let g = r.buf.lock();
        out.extend(g.events.iter().filter(|e| e.ts_ns >= since_ns).cloned());
    }
    out.sort_by_key(|e| (e.ts_ns, e.dur_ns));
    out
}

/// Per-ring `(tid, events, bytes)` occupancy, for bound assertions
/// and the health line.
pub fn ring_usage() -> Vec<(u32, usize, usize)> {
    RINGS
        .lock()
        .iter()
        .map(|r| {
            let g = r.buf.lock();
            (r.tid, g.events.len(), g.bytes)
        })
        .collect()
}

fn json_escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_us(out: &mut String, ns: u64) {
    // Chrome trace timestamps are microseconds; keep nanosecond
    // precision as a fractional part.
    out.push_str(&format!("{}.{:03}", ns / 1000, ns % 1000));
}

/// Render events as Chrome trace-viewer JSON (the "JSON Array
/// Format" with a `traceEvents` wrapper), loadable by Perfetto and
/// `chrome://tracing`. Spans render as complete (`X`) events, instants
/// as thread-scoped `i` events; the trace id rides in `args.trace`.
pub fn render_chrome_trace(events: &[FlightEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let pid = std::process::id();
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        json_escape_into(&mut out, &e.name.text());
        out.push_str("\",\"cat\":\"");
        json_escape_into(&mut out, e.plane);
        out.push_str("\",\"ph\":\"");
        out.push_str(if e.dur_ns > 0 { "X" } else { "i" });
        out.push_str("\",\"ts\":");
        push_us(&mut out, e.ts_ns);
        if e.dur_ns > 0 {
            out.push_str(",\"dur\":");
            push_us(&mut out, e.dur_ns);
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(&format!(",\"pid\":{pid},\"tid\":{}", e.tid));
        if let Some(t) = e.trace {
            out.push_str(",\"args\":{\"trace\":\"");
            out.push_str(&t.to_string());
            out.push_str("\"}");
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled flag and this thread's ring are shared across test
    // threads / assertions; serialize the tests that record.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_are_recorded_and_snapshotted() {
        let _g = TEST_LOCK.lock();
        let t = crate::next_trace_id();
        let t0 = now_unix_ns();
        record_span("rpc", "stat", Some(t), t0, 1500);
        record_instant("shed", "busy", None);
        let events = snapshot_since(t0.saturating_sub(1));
        assert!(events.iter().any(|e| e.plane == "rpc"
            && e.name == "stat"
            && e.trace == Some(t)
            && e.dur_ns == 1500));
        assert!(events
            .iter()
            .any(|e| e.plane == "shed" && e.dur_ns == 0));
    }

    #[test]
    fn current_trace_tags_untraced_events() {
        let _g = TEST_LOCK.lock();
        let t = crate::next_trace_id();
        set_current_trace(Some(t));
        let t0 = now_unix_ns();
        record_span("dispatch", "open", None, t0, 10);
        set_current_trace(None);
        record_span("dispatch", "close", None, now_unix_ns(), 10);
        let events = snapshot_since(t0.saturating_sub(1));
        let open = events
            .iter()
            .find(|e| e.plane == "dispatch" && e.name == "open")
            .unwrap();
        assert_eq!(open.trace, Some(t));
        let close = events
            .iter()
            .find(|e| e.plane == "dispatch" && e.name == "close")
            .unwrap();
        assert_eq!(close.trace, None);
    }

    #[test]
    fn ring_bytes_stay_under_budget() {
        let _g = TEST_LOCK.lock();
        let budget = ring_budget_bytes();
        assert!(budget > 0);
        let t0 = now_unix_ns();
        for i in 0..20_000 {
            record_span("rpc", format!("flood-{i}"), None, t0 + i, 1);
        }
        for (_, _, bytes) in ring_usage() {
            assert!(bytes <= budget, "ring over budget: {bytes} > {budget}");
        }
        // The ring kept the newest events, not the oldest.
        let events = snapshot_since(t0);
        assert!(events.iter().any(|e| e.name == "flood-19999"));
        assert!(!events.iter().any(|e| e.name == "flood-0"));
    }

    #[test]
    fn chrome_trace_renders_spans_instants_and_escapes() {
        let t = TraceId::from_raw(0xabcd).unwrap();
        let events = vec![
            FlightEvent {
                ts_ns: 1_500,
                dur_ns: 2_000,
                trace: Some(t),
                tid: 7,
                plane: "rpc",
                name: EventName::Owned("sta\"t\\x".into()),
            },
            FlightEvent {
                ts_ns: 4_000,
                dur_ns: 0,
                trace: None,
                tid: 7,
                plane: "shed",
                name: EventName::Static("busy\nline"),
            },
        ];
        let json = render_chrome_trace(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("sta\\\"t\\\\x"));
        assert!(json.contains("busy\\nline"));
        assert!(json.contains("\"trace\":\"000000000000abcd\""));
        // No raw control characters survive into the JSON text.
        assert!(!json.chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = TEST_LOCK.lock();
        set_flight_enabled(false);
        let t0 = now_unix_ns();
        record_span("rpc", "ghost", None, t0, 99);
        set_flight_enabled(true);
        assert!(!snapshot_since(t0.saturating_sub(1))
            .iter()
            .any(|e| e.name == "ghost"));
    }
}
