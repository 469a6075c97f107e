//! Golden exposition: the `idbox_loop_*` and `idbox_shard_lock_*`
//! Prometheus families rendered byte for byte from a fixed fixture.
//!
//! External scrapers (the `idbench` harness among them) parse the
//! `_bucket`/`_sum`/`_count` series of these families, so the full
//! text is pinned, not a few `contains` probes. The fixture is two
//! loop workers and one lock domain with two shards; each family holds
//! one sample in its top bucket, whose only edge is `+Inf`. The
//! expected text lives in `tests/golden/`.

use idbox_obs::{render_lock_prometheus, LoopStats};
use parking_lot::{DomainLockSnapshot, Log2Buckets, ShardLockSnapshot};

fn loop_fixture() -> LoopStats {
    let ls = LoopStats::new(2);
    let w0 = ls.worker(0);
    w0.lag.record(0);
    w0.lag.record(50);
    w0.bump_wakeup();
    w0.bump_wakeup();
    w0.bump_flush();
    w0.set_conns(1);
    w0.note_outbuf(512);
    let w1 = ls.worker(1);
    w1.lag.record(5_000);
    w1.lag.record(3_000_000); // past 2^21 µs: the top bucket
    w1.bump_wakeup();
    w1.bump_stall();
    w1.set_conns(3);
    w1.note_outbuf(9_000);
    ls
}

fn lock_fixture() -> Vec<DomainLockSnapshot> {
    let mut buckets = [0u64; 22];
    buckets[1] = 2; // waits of 2 and 3 µs
    buckets[21] = 1; // a 3 s stall: the top bucket
    let shard = ShardLockSnapshot {
        acquisitions: 10,
        wait: Log2Buckets::from_parts(buckets, 3_000_005),
    };
    vec![DomainLockSnapshot {
        domain: "vfs",
        shards: vec![ShardLockSnapshot::default(), shard],
    }]
}

#[test]
fn loop_exposition_is_pinned() {
    assert_eq!(
        loop_fixture().render_prometheus(),
        include_str!("golden/loop.prom")
    );
}

#[test]
fn lock_exposition_is_pinned() {
    assert_eq!(
        render_lock_prometheus(&lock_fixture()),
        include_str!("golden/lock.prom")
    );
}
