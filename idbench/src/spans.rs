//! The benchmark's own spans: one per call into a layer, recorded from
//! the benchmark's side of the boundary (name, start, end, parent, and
//! one request id shared by every span of a request). Spans stay in
//! memory and are written out as Chrome trace-viewer JSON when the run
//! ends. Recording is off in the untraced run.

use crate::json::escape;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// Nanoseconds since the benchmark's time base.
pub fn now_ns() -> u64 {
    base().elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// The enclosing span's id, 0 at the top.
    pub parent: u64,
    /// The request this span belongs to (the Chirp trace id on the wire
    /// path, the replayed op index when peeling layers).
    pub req: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Ids are unique across logs (`tid` in the
/// high bits).
pub struct SpanLog {
    pub on: bool,
    tid: u32,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(on: bool, tid: u32) -> SpanLog {
        SpanLog {
            on,
            tid,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Begin a span: its id (for children to name as parent) and start.
    pub fn open(&mut self) -> (u64, u64) {
        self.next += 1;
        ((u64::from(self.tid) << 40) | self.next, now_ns())
    }

    /// Finish a span begun with [`SpanLog::open`]; returns its duration.
    pub fn close(&mut self, name: &'static str, open: (u64, u64), parent: u64, req: u64) -> u64 {
        let end_ns = now_ns();
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: open.1,
                end_ns,
                id: open.0,
                parent,
                req,
                tid: self.tid,
            });
        }
        end_ns.saturating_sub(open.1)
    }
}

/// Render spans as Chrome trace-viewer JSON.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":\"{:016x}\"}}}}",
            escape(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let mut log = SpanLog::new(true, 3);
        let outer = log.open();
        let inner = log.open();
        log.close("inner", inner, outer.0, 9);
        log.close("outer", outer, 0, 9);
        assert_eq!(log.spans.len(), 2);
        assert!(log.spans[0].dur_ns() <= log.spans[1].dur_ns());
        assert_eq!(log.spans[0].parent, log.spans[1].id);
        let json = crate::json::parse(&render(&log.spans)).unwrap();
        assert_eq!(json.get("traceEvents").unwrap().as_arr().len(), 2);
        let mut off = SpanLog::new(false, 1);
        let o = off.open();
        off.close("x", o, 0, 0);
        assert!(off.spans.is_empty());
    }
}
