//! Lock/shard contention profiling.
//!
//! Every named lock domain (the Vfs inode shards, the process-table
//! shards, the pipe/mount/accounts leaf locks) registers a
//! [`DomainProfile`] here: per-shard acquisition counters plus a log2
//! microsecond wait histogram. The fast path is deliberately cheap —
//! an uncontended acquisition is one `try_lock` plus two relaxed
//! atomic increments, and no clock is read at all. Only when the try
//! fails (real contention) do we take an `Instant` pair around the
//! blocking acquisition and bucket the wait.
//!
//! Profiling starts on; [`set_lock_profiling`] toggles it at runtime
//! (used by the bench overhead gate). Disabled means a single relaxed
//! atomic load per acquisition and nothing else.
//!
//! This crate sits below `idbox-obs` in the dependency order, so
//! rendering (Prometheus, flight-recorder joining) lives upstream:
//! obs installs a [`ContentionHook`] to tag shard waits with the
//! current trace, and pulls plain-data [`lock_snapshot`]s to render.

use crate::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Number of log2 wait-time buckets. Bucket `i` holds waits whose
/// microsecond value has floor(log2) == i; the top bucket (~2.1s and
/// beyond) catches pathological stalls.
pub const LOCK_WAIT_BUCKETS: usize = 22;

/// Upper edge (inclusive, µs) of wait bucket `i`, for rendering.
pub fn lock_bucket_ceiling_us(i: usize) -> u64 {
    if i + 1 >= LOCK_WAIT_BUCKETS {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

fn bucket_of(us: u64) -> usize {
    let b = 63 - (us | 1).leading_zeros() as usize;
    b.min(LOCK_WAIT_BUCKETS - 1)
}

static PROFILING: AtomicBool = AtomicBool::new(true);

/// Whether lock profiling is currently recording.
pub fn lock_profiling_enabled() -> bool {
    PROFILING.load(Relaxed)
}

/// Turn lock profiling on or off (it starts on).
pub fn set_lock_profiling(on: bool) {
    PROFILING.store(on, Relaxed);
}

/// Callback invoked once per *contended* profiled acquisition — one
/// whose `try_lock` missed, so the caller blocked — with `(domain,
/// shard, wait_us)`. Uncontended acquisitions never call it (they are
/// counted in the per-shard `acquisitions` counter only). Installed
/// once (by `idbox-obs`) to join shard waits to the current trace.
pub type ContentionHook = dyn Fn(&'static str, usize, u64) + Send + Sync;

static HOOK: OnceLock<Box<ContentionHook>> = OnceLock::new();

/// Install the process-wide contention hook, called for every
/// contended acquisition while profiling is enabled. First caller
/// wins; later installs are ignored.
pub fn set_contention_hook(hook: Box<ContentionHook>) {
    let _ = HOOK.set(hook);
}

struct ShardProfile {
    acquisitions: AtomicU64,
    waits: AtomicU64,
    wait_total_us: AtomicU64,
    buckets: [AtomicU64; LOCK_WAIT_BUCKETS],
}

impl ShardProfile {
    fn new() -> Self {
        ShardProfile {
            acquisitions: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            wait_total_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Per-shard acquisition and wait accounting for one named lock domain.
pub struct DomainProfile {
    name: &'static str,
    shards: Box<[ShardProfile]>,
}

static REGISTRY: Mutex<Vec<Arc<DomainProfile>>> = Mutex::new(Vec::new());

impl DomainProfile {
    /// Register (or re-join) the domain `name` with `shards` shards.
    /// Re-registering the same name and shard count returns the same
    /// profile, so short-lived kernels (tests, benches, clones)
    /// aggregate into one set of counters and the registry stays
    /// bounded by the number of distinct domain shapes.
    pub fn register(name: &'static str, shards: usize) -> Arc<DomainProfile> {
        let shards = shards.max(1);
        let mut reg = REGISTRY.lock();
        if let Some(d) = reg
            .iter()
            .find(|d| d.name == name && d.shards.len() == shards)
        {
            return Arc::clone(d);
        }
        let d = Arc::new(DomainProfile {
            name,
            shards: (0..shards).map(|_| ShardProfile::new()).collect(),
        });
        reg.push(Arc::clone(&d));
        d
    }

    /// Domain name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn note_wait(&self, shard: usize, wait_us: u64) {
        let s = &self.shards[shard];
        s.acquisitions.fetch_add(1, Relaxed);
        s.waits.fetch_add(1, Relaxed);
        s.wait_total_us.fetch_add(wait_us, Relaxed);
        s.buckets[bucket_of(wait_us)].fetch_add(1, Relaxed);
        if let Some(h) = HOOK.get() {
            h(self.name, shard, wait_us);
        }
    }

    /// Profile one acquisition of shard `shard`: `try_get` is the
    /// non-blocking attempt, `get` the blocking fallback. The clock is
    /// read, and the [`ContentionHook`] called, only when the try
    /// fails.
    #[inline]
    pub fn acquire<G>(
        &self,
        shard: usize,
        try_get: impl FnOnce() -> Option<G>,
        get: impl FnOnce() -> G,
    ) -> G {
        if !lock_profiling_enabled() {
            return get();
        }
        if let Some(g) = try_get() {
            self.shards[shard].acquisitions.fetch_add(1, Relaxed);
            return g;
        }
        let t0 = Instant::now();
        let g = get();
        self.note_wait(shard, t0.elapsed().as_micros() as u64);
        g
    }

    fn snapshot(&self) -> DomainLockSnapshot {
        DomainLockSnapshot {
            domain: self.name,
            shards: self
                .shards
                .iter()
                .map(|s| ShardLockSnapshot {
                    acquisitions: s.acquisitions.load(Relaxed),
                    waits: s.waits.load(Relaxed),
                    wait_total_us: s.wait_total_us.load(Relaxed),
                    buckets: std::array::from_fn(|i| s.buckets[i].load(Relaxed)),
                })
                .collect(),
        }
    }
}

/// Point-in-time counters for one shard of a domain.
#[derive(Clone, Debug, Default)]
pub struct ShardLockSnapshot {
    /// Total profiled acquisitions (contended or not).
    pub acquisitions: u64,
    /// Acquisitions that blocked (the `try` failed).
    pub waits: u64,
    /// Sum of contended wait time, microseconds.
    pub wait_total_us: u64,
    /// log2 µs histogram of contended waits.
    pub buckets: [u64; LOCK_WAIT_BUCKETS],
}

/// Point-in-time counters for a whole named domain.
#[derive(Clone, Debug)]
pub struct DomainLockSnapshot {
    /// Domain name as registered (`"vfs"`, `"proc"`, ...).
    pub domain: &'static str,
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardLockSnapshot>,
}

impl DomainLockSnapshot {
    /// Total acquisitions across shards.
    pub fn acquisitions(&self) -> u64 {
        self.shards.iter().map(|s| s.acquisitions).sum()
    }

    /// Total contended acquisitions across shards.
    pub fn waits(&self) -> u64 {
        self.shards.iter().map(|s| s.waits).sum()
    }

    /// Total contended wait time across shards, microseconds.
    pub fn wait_total_us(&self) -> u64 {
        self.shards.iter().map(|s| s.wait_total_us).sum()
    }

    /// Wait histogram merged across shards.
    pub fn merged_buckets(&self) -> [u64; LOCK_WAIT_BUCKETS] {
        let mut out = [0u64; LOCK_WAIT_BUCKETS];
        for s in &self.shards {
            for (o, b) in out.iter_mut().zip(s.buckets.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Approximate percentile of contended wait time (µs), `None` when
    /// no waits were recorded. Reports the ceiling of the bucket the
    /// percentile falls in, like the syscall latency histograms.
    pub fn wait_percentile_us(&self, p: f64) -> Option<u64> {
        percentile_of(&self.merged_buckets(), p)
    }

    /// Counter delta `self - earlier`, saturating per field so a
    /// mismatched or restarted baseline yields zeros, not wraps.
    pub fn diff(&self, earlier: &DomainLockSnapshot) -> DomainLockSnapshot {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let e = earlier.shards.get(i).cloned().unwrap_or_default();
                ShardLockSnapshot {
                    acquisitions: s.acquisitions.saturating_sub(e.acquisitions),
                    waits: s.waits.saturating_sub(e.waits),
                    wait_total_us: s.wait_total_us.saturating_sub(e.wait_total_us),
                    buckets: std::array::from_fn(|b| s.buckets[b].saturating_sub(e.buckets[b])),
                }
            })
            .collect();
        DomainLockSnapshot {
            domain: self.domain,
            shards,
        }
    }
}

fn percentile_of(buckets: &[u64; LOCK_WAIT_BUCKETS], p: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return Some(lock_bucket_ceiling_us(i));
        }
    }
    Some(lock_bucket_ceiling_us(LOCK_WAIT_BUCKETS - 1))
}

/// Snapshot every registered domain.
pub fn lock_snapshot() -> Vec<DomainLockSnapshot> {
    REGISTRY.lock().iter().map(|d| d.snapshot()).collect()
}

/// Merged wait percentile (µs) across a set of domain snapshots;
/// `None` when nothing waited.
pub fn lock_wait_percentile_us(snaps: &[DomainLockSnapshot], p: f64) -> Option<u64> {
    let mut merged = [0u64; LOCK_WAIT_BUCKETS];
    for s in snaps {
        for (m, b) in merged.iter_mut().zip(s.merged_buckets().iter()) {
            *m += b;
        }
    }
    percentile_of(&merged, p)
}

/// A [`Mutex`] that reports acquisitions to a one-shard profile
/// domain. Used for the kernel's leaf locks (pipes, pid allocator).
pub struct ProfiledMutex<T> {
    inner: Mutex<T>,
    profile: Arc<DomainProfile>,
}

impl<T> ProfiledMutex<T> {
    /// Create a profiled mutex under domain `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        ProfiledMutex {
            inner: Mutex::new(value),
            profile: DomainProfile::register(name, 1),
        }
    }

    /// Acquire the lock, recording contention.
    pub fn lock(&self) -> crate::MutexGuard<'_, T> {
        self.profile
            .acquire(0, || self.inner.try_lock(), || self.inner.lock())
    }

    /// Try to acquire without blocking (not profiled as a wait).
    pub fn try_lock(&self) -> Option<crate::MutexGuard<'_, T>> {
        self.inner.try_lock()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ProfiledMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ProfiledMutex").field(&self.inner).finish()
    }
}

/// An [`crate::RwLock`] that reports acquisitions to a one-shard
/// profile domain. Used for the kernel's mount and accounts locks.
pub struct ProfiledRwLock<T> {
    inner: crate::RwLock<T>,
    profile: Arc<DomainProfile>,
}

impl<T> ProfiledRwLock<T> {
    /// Create a profiled rwlock under domain `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        ProfiledRwLock {
            inner: crate::RwLock::new(value),
            profile: DomainProfile::register(name, 1),
        }
    }

    /// Shared guard, recording contention.
    pub fn read(&self) -> crate::RwLockReadGuard<'_, T> {
        self.profile
            .acquire(0, || self.inner.try_read(), || self.inner.read())
    }

    /// Exclusive guard, recording contention.
    pub fn write(&self) -> crate::RwLockWriteGuard<'_, T> {
        self.profile
            .acquire(0, || self.inner.try_write(), || self.inner.write())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ProfiledRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ProfiledRwLock").field(&self.inner).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled flag and the counters are process-global; serialize
    // the tests that toggle or assert on them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), LOCK_WAIT_BUCKETS - 1);
        assert_eq!(lock_bucket_ceiling_us(0), 1);
        assert_eq!(lock_bucket_ceiling_us(1), 3);
        assert_eq!(lock_bucket_ceiling_us(LOCK_WAIT_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn register_dedups_by_name_and_shape() {
        let a = DomainProfile::register("prof-test-dedup", 4);
        let b = DomainProfile::register("prof-test-dedup", 4);
        assert!(Arc::ptr_eq(&a, &b));
        let c = DomainProfile::register("prof-test-dedup", 8);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn contended_acquisition_is_bucketed() {
        let _g = TEST_LOCK.lock();
        let d = DomainProfile::register("prof-test-contended", 2);
        let before = d.snapshot();
        // Uncontended: try succeeds.
        d.acquire(1, || Some(()), || ());
        // Contended: try fails, blocking path "waits".
        d.acquire(
            1,
            || None,
            || std::thread::sleep(std::time::Duration::from_millis(3)),
        );
        let got = d.snapshot().diff(&before);
        assert_eq!(got.acquisitions(), 2);
        assert_eq!(got.waits(), 1);
        assert!(got.wait_total_us() >= 2_000, "{}", got.wait_total_us());
        assert!(got.wait_percentile_us(99.0).unwrap() >= 2_000);
        assert_eq!(got.shards[0].acquisitions, 0);
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        let _g = TEST_LOCK.lock();
        let d = DomainProfile::register("prof-test-disabled", 1);
        let before = d.snapshot();
        set_lock_profiling(false);
        d.acquire(0, || Some(()), || ());
        set_lock_profiling(true);
        let got = d.snapshot().diff(&before);
        assert_eq!(got.acquisitions(), 0);
    }

    #[test]
    fn empty_percentile_is_none_and_diff_saturates() {
        let empty = DomainLockSnapshot {
            domain: "x",
            shards: vec![ShardLockSnapshot::default()],
        };
        assert_eq!(empty.wait_percentile_us(50.0), None);
        assert_eq!(
            lock_wait_percentile_us(std::slice::from_ref(&empty), 99.0),
            None
        );
        // A later snapshot with smaller counters (restart) diffs to 0.
        let mut big = empty.clone();
        big.shards[0].acquisitions = 10;
        let d = empty.diff(&big);
        assert_eq!(d.acquisitions(), 0);
    }

    #[test]
    fn profiled_leaf_locks_count() {
        let _g = TEST_LOCK.lock();
        let m = ProfiledMutex::new("prof-test-leaf-m", 0u32);
        let before = lock_snapshot()
            .into_iter()
            .find(|d| d.domain == "prof-test-leaf-m")
            .unwrap();
        *m.lock() += 1;
        *m.lock() += 1;
        let after = lock_snapshot()
            .into_iter()
            .find(|d| d.domain == "prof-test-leaf-m")
            .unwrap();
        assert_eq!(after.diff(&before).acquisitions(), 2);

        let l = ProfiledRwLock::new("prof-test-leaf-rw", 0u32);
        let _r = l.read();
        drop(_r);
        *l.write() = 5;
        let snap = lock_snapshot()
            .into_iter()
            .find(|d| d.domain == "prof-test-leaf-rw")
            .unwrap();
        assert_eq!(snap.acquisitions(), 2);
        assert_eq!(*l.read(), 5);
    }
}
