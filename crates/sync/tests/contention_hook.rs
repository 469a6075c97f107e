//! The contention hook fires only for acquisitions that actually
//! blocked. It is a process-wide `OnceLock`, so these tests live in a
//! binary of their own; each test uses its own domain names and reads
//! only the hook calls for those names.

use idbox_sync::{
    lock_snapshot, set_contention_hook, set_lock_profiling, DomainLockSnapshot, ProfiledMutex,
    ProfiledRwLock, ShardSet,
};
use std::sync::mpsc;
use std::sync::{Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// One hook call: `(domain, shard, wait_us)`.
type HookCall = (&'static str, usize, u64);

/// Every hook call seen so far.
fn calls() -> &'static Mutex<Vec<HookCall>> {
    static CALLS: OnceLock<Mutex<Vec<HookCall>>> = OnceLock::new();
    CALLS.get_or_init(|| {
        set_lock_profiling(true);
        set_contention_hook(Box::new(|domain, shard, wait_us| {
            calls().lock().unwrap().push((domain, shard, wait_us));
        }));
        Mutex::new(Vec::new())
    })
}

fn calls_for(domain: &str) -> Vec<(usize, u64)> {
    calls()
        .lock()
        .unwrap()
        .iter()
        .filter(|c| c.0 == domain)
        .map(|c| (c.1, c.2))
        .collect()
}

fn snapshot(domain: &str) -> DomainLockSnapshot {
    lock_snapshot()
        .into_iter()
        .find(|d| d.domain == domain)
        .expect("domain registered")
}

/// Run `hold` on a helper thread, let it keep its guard for a while
/// after this thread is about to block on `take`, then release it.
fn block_behind<G>(hold: &(impl Fn() -> G + Sync), take: &impl Fn()) {
    let (held_tx, held_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    thread::scope(|s| {
        s.spawn(move || {
            let guard = hold();
            held_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            thread::sleep(Duration::from_millis(100));
            drop(guard);
        });
        held_rx.recv().unwrap();
        go_tx.send(()).unwrap();
        take();
    });
}

/// Make `take` block behind `hold` on `domain` and return the one
/// hook call it caused as `(shard, wait_us)`. Whatever the
/// interleaving, every attempt must count both acquisitions and call
/// the hook exactly once per contended one. An attempt whose `try_lock`
/// ran after the helper let go was not contended; it is retried.
fn one_contended_call<G>(
    domain: &str,
    hold: impl Fn() -> G + Sync,
    take: impl Fn(),
) -> (usize, u64) {
    for _ in 0..5 {
        let seen = calls_for(domain).len();
        let before = snapshot(domain);
        block_behind(&hold, &take);
        let delta = snapshot(domain).diff(&before);
        let new_calls = calls_for(domain).split_off(seen);
        assert_eq!(delta.acquisitions(), 2, "{domain}");
        assert_eq!(
            new_calls.len() as u64,
            delta.waits(),
            "{domain}: {new_calls:?}"
        );
        if let [call] = new_calls[..] {
            return call;
        }
    }
    panic!("{domain}: no attempt blocked");
}

#[test]
fn uncontended_acquisitions_never_call_the_hook() {
    calls();
    let rw = ProfiledRwLock::new("hook-test-idle-rw", 0u32);
    let m = ProfiledMutex::new("hook-test-idle-m", 0u32);
    let set = ShardSet::from_fn_named("hook-test-idle-set", 4, |_| 0u32);
    for _ in 0..100 {
        drop(rw.read());
        *rw.write() += 1;
        *m.lock() += 1;
        drop(set.read(1));
        *set.write(3) += 1;
    }
    for domain in [
        "hook-test-idle-rw",
        "hook-test-idle-m",
        "hook-test-idle-set",
    ] {
        assert!(
            calls_for(domain).is_empty(),
            "{domain}: {:?}",
            calls_for(domain)
        );
        assert_eq!(snapshot(domain).waits(), 0, "{domain}");
    }
    assert_eq!(snapshot("hook-test-idle-rw").acquisitions(), 200);
    assert_eq!(snapshot("hook-test-idle-m").acquisitions(), 100);
    let set_snap = snapshot("hook-test-idle-set");
    assert_eq!(set_snap.shards[1].acquisitions, 100);
    assert_eq!(set_snap.shards[3].acquisitions, 100);
}

#[test]
fn a_blocked_acquisition_calls_the_hook_once() {
    calls();
    let m = ProfiledMutex::new("hook-test-busy-m", 0u32);
    let (shard, wait_us) = one_contended_call("hook-test-busy-m", || m.lock(), || *m.lock() += 1);
    assert_eq!(shard, 0);
    assert!(wait_us > 0, "a blocked acquisition waited");

    let rw = ProfiledRwLock::new("hook-test-busy-rw", 0u32);
    one_contended_call("hook-test-busy-rw", || rw.write(), || drop(rw.read()));

    let set = ShardSet::from_fn_named("hook-test-busy-set", 4, |_| 0u32);
    let (shard, _) =
        one_contended_call("hook-test-busy-set", || set.read(2), || *set.write(2) += 1);
    assert_eq!(shard, 2, "the hook names the contended shard");
    let snap = snapshot("hook-test-busy-set");
    assert_eq!(snap.acquisitions(), snap.shards[2].acquisitions);
}
