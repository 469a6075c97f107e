//! Bounded audit ring for policy decisions.
//!
//! The paper's security argument — and McNab's grid ACL work — rest on
//! every access decision being made in terms of the *global* identity.
//! This module makes those decisions observable: the policy appends one
//! [`AuditEvent`] per ruling (identity, syscall, path, verdict, errno)
//! into a fixed-capacity ring that drops its oldest entry on overflow,
//! so a long-lived server can always answer "who was denied what,
//! recently" without unbounded memory.
//!
//! Recording goes through `&self` (the ring keeps its own small mutex),
//! because rulings happen concurrently on every supervisor thread.

use idbox_kernel::Syscall;
use idbox_obs::TraceId;
use idbox_types::{Errno, Identity};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ring capacity: enough for a burst of recent history, small
/// enough to be harmless on a long-lived server.
pub const AUDIT_RING_DEFAULT_CAP: usize = 1024;

/// How a policy ruled on one system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The call was allowed (including allowed-after-rewrite, e.g. the
    /// passwd redirection).
    Allow,
    /// The call was refused with an errno.
    Deny,
    /// A `mkdir` allowed *only* because the identity holds the reserve
    /// right in the parent — Section 4's amplification.
    ReserveAmplified,
}

impl Verdict {
    /// Stable wire/report spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Allow => "allow",
            Verdict::Deny => "deny",
            Verdict::ReserveAmplified => "reserve-amplified",
        }
    }
}

/// One recorded policy decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Monotonic sequence number (survives ring overflow, so gaps in a
    /// snapshot reveal how much history was dropped).
    pub seq: u64,
    /// The boxed identity the decision was made for — the ruling
    /// policy's own [`Identity`], shared rather than copied.
    pub identity: Identity,
    /// Syscall name, as in [`Syscall::name`].
    pub syscall: &'static str,
    /// The path(s) the call named, when it named any.
    pub path: Option<String>,
    /// The ruling.
    pub verdict: Verdict,
    /// The errno a denial carried.
    pub errno: Option<Errno>,
    /// The trace id of the RPC being served when the ruling was made,
    /// when the client sent one — what joins audit rows to request
    /// spans and to exec'd children.
    pub trace: Option<TraceId>,
}

/// A fixed-capacity, oldest-out ring of [`AuditEvent`]s.
#[derive(Debug)]
pub struct AuditRing {
    cap: usize,
    seq: AtomicU64,
    events: Mutex<VecDeque<AuditEvent>>,
}

impl Default for AuditRing {
    fn default() -> Self {
        AuditRing::new(AUDIT_RING_DEFAULT_CAP)
    }
}

impl AuditRing {
    /// An empty ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        AuditRing {
            cap: cap.max(1),
            seq: AtomicU64::new(0),
            events: Mutex::new(VecDeque::with_capacity(cap.clamp(1, 1024))),
        }
    }

    /// Append one decision, evicting the oldest event when full.
    /// `trace` is the id of the RPC being served, when known. Passing
    /// the policy's [`Identity`] shares it (a refcount bump); a `&str`
    /// is copied.
    pub fn record(
        &self,
        identity: impl Into<Identity>,
        call: &Syscall,
        verdict: Verdict,
        errno: Option<Errno>,
        trace: Option<TraceId>,
    ) {
        self.push(identity.into(), call.name(), call_path(call), verdict, errno, trace);
    }

    /// Append one decision that is not a syscall ruling — degradation
    /// events from the server (`"rpc-shed"`, `"admission-shed"`,
    /// `"drain"`) use this so every shed/drain decision lands in the
    /// same ring, with the same cursor, as the policy verdicts it sits
    /// between. `op` becomes the event's `syscall` column.
    pub fn record_named(
        &self,
        identity: &str,
        op: &'static str,
        path: Option<String>,
        verdict: Verdict,
        errno: Option<Errno>,
        trace: Option<TraceId>,
    ) {
        self.push(Identity::new(identity), op, path, verdict, errno, trace);
    }

    fn push(
        &self,
        identity: Identity,
        op: &'static str,
        path: Option<String>,
        verdict: Verdict,
        errno: Option<Errno>,
        trace: Option<TraceId>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = AuditEvent {
            seq,
            identity,
            syscall: op,
            path,
            verdict,
            errno,
            trace,
        };
        let mut ring = self.events.lock();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Oldest-first copy of the retained events.
    pub fn snapshot(&self) -> Vec<AuditEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Oldest-first copy of the retained events with `seq >= since`.
    /// The incremental-tailing primitive behind the `audit <since>`
    /// RPC cursor: a client that remembers the last cursor it was
    /// handed fetches only what it has not seen, and a gap between its
    /// cursor and the first returned seq tells it exactly how much
    /// history the ring dropped.
    pub fn snapshot_since(&self, since: u64) -> Vec<AuditEvent> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.seq >= since)
            .cloned()
            .collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total decisions ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

/// The path(s) a call names, for the audit record. Two-path calls keep
/// both names, arrow-joined, since either side can be what a reviewer
/// is looking for.
fn call_path(call: &Syscall) -> Option<String> {
    use Syscall::*;
    match call {
        Stat(p) | Lstat(p) | Open(p, ..) | Mkdir(p, _) | Rmdir(p) | Unlink(p)
        | Readlink(p) | Truncate(p, _) | AccessCheck(p, _) | Readdir(p) | Chmod(p, _)
        | Chown(p, ..) | Chdir(p) | Exec(p) => Some(p.clone()),
        Link(old, new) | Symlink(old, new) | Rename(old, new) => {
            Some(format!("{old} -> {new}"))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_stays_bounded_and_seq_is_monotonic() {
        let ring = AuditRing::new(8);
        for i in 0..100u64 {
            ring.record(
                "globus:/O=UnivNowhere/CN=Fred",
                &Syscall::Stat(format!("/f{i}")),
                Verdict::Allow,
                None,
                None,
            );
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.capacity(), 8);
        assert_eq!(ring.total_recorded(), 100);
        let snap = ring.snapshot();
        // The newest 8 events survive, in order.
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (92..100).collect::<Vec<_>>());
        assert_eq!(snap.last().unwrap().path.as_deref(), Some("/f99"));
    }

    #[test]
    fn events_carry_identity_verdict_and_errno() {
        let ring = AuditRing::default();
        let trace = idbox_obs::next_trace_id();
        ring.record(
            "kerberos:fred@nd.edu",
            &Syscall::Open("/box/secret".into(), idbox_kernel::OpenFlags::rdonly(), 0),
            Verdict::Deny,
            Some(Errno::EACCES),
            Some(trace),
        );
        ring.record(
            "kerberos:fred@nd.edu",
            &Syscall::Mkdir("/box/fred".into(), 0o755),
            Verdict::ReserveAmplified,
            None,
            None,
        );
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].identity, "kerberos:fred@nd.edu");
        assert_eq!(snap[0].syscall, "open");
        assert_eq!(snap[0].path.as_deref(), Some("/box/secret"));
        assert_eq!(snap[0].verdict, Verdict::Deny);
        assert_eq!(snap[0].errno, Some(Errno::EACCES));
        assert_eq!(snap[0].trace, Some(trace));
        assert_eq!(snap[1].verdict.as_str(), "reserve-amplified");
        assert_eq!(snap[1].errno, None);
        assert_eq!(snap[1].trace, None);
    }

    #[test]
    fn snapshot_since_tails_incrementally() {
        let ring = AuditRing::new(8);
        for i in 0..12u64 {
            ring.record(
                "fred",
                &Syscall::Stat(format!("/f{i}")),
                Verdict::Allow,
                None,
                None,
            );
        }
        // The ring holds seqs 4..12. A cursor inside the window tails
        // only the unseen suffix...
        let tail = ring.snapshot_since(9);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![9, 10, 11]);
        // ...a cursor older than the window reveals the gap (first seq
        // returned > cursor) instead of silently resuming...
        let all = ring.snapshot_since(0);
        assert_eq!(all.first().unwrap().seq, 4);
        // ...and a cursor at the write head returns nothing.
        assert!(ring.snapshot_since(ring.total_recorded()).is_empty());
    }

    #[test]
    fn two_path_calls_keep_both_names() {
        assert_eq!(
            call_path(&Syscall::Rename("/a".into(), "/b".into())).as_deref(),
            Some("/a -> /b")
        );
        assert_eq!(call_path(&Syscall::Getpid), None);
    }
}
