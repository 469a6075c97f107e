//! In-tree lock primitives with the `parking_lot` API shape.
//!
//! The build environment is fully offline, so the external `parking_lot`
//! crate cannot be fetched; the workspace instead aliases `parking_lot`
//! to this crate (see the root `Cargo.toml`). The surface mirrors the
//! subset the codebase uses: guards come back directly from
//! `lock()`/`read()`/`write()` with no `Result`, and poisoning is
//! transparent — a panic while holding a lock does not wedge every
//! later caller, matching `parking_lot` semantics closely enough for
//! our supervisors, servers, and benches.

use std::sync::TryLockError;

mod profile;

pub use profile::{
    lock_bucket_ceiling_us, lock_profiling_enabled, lock_snapshot, lock_wait_percentile_us,
    set_contention_hook, set_lock_profiling, ContentionHook, DomainLockSnapshot, DomainProfile,
    ProfiledMutex, ProfiledRwLock, ShardLockSnapshot, LOCK_WAIT_BUCKETS,
};

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Poison-transparent.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A reader-writer lock whose guards come back without a `Result`.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard. Poison-transparent.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard. Poison-transparent.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to acquire a read guard without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Try to acquire a write guard without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

/// A fixed array of independently locked shards: the building block for
/// the kernel's sharded domains (inode space, process table).
///
/// Keys are mapped to shards by `key % len`, so two keys in different
/// shards never contend. The danger in any sharded design is lock
/// ordering, and `ShardSet` centralizes the discipline:
///
/// 1. **One shard → one lock.** Operations touching a single shard use
///    [`ShardSet::read`] / [`ShardSet::write`] and hold nothing else.
/// 2. **Multiple shards → ascending index order.** Operations that must
///    hold several shards at once ([`ShardSet::write_pair`],
///    [`ShardSet::write_many`], [`ShardSet::write_all`],
///    [`ShardSet::read_all`]) always acquire in ascending shard index,
///    which makes a deadlock cycle between them impossible.
/// 3. **Never hold shard guards from two different `ShardSet`s** (or
///    other domain locks) at once; cross-domain work is sequenced as
///    acquire → release → acquire.
///
/// Violating rule 2 by hand (e.g. taking `write(5)` and then `write(2)`)
/// can deadlock against any multi-shard writer; that is why the batch
/// acquisition helpers exist.
pub struct ShardSet<T> {
    shards: Box<[RwLock<T>]>,
    profile: Option<std::sync::Arc<DomainProfile>>,
}

impl<T> ShardSet<T> {
    /// Build `n` shards (at least 1), each initialized by `init(i)`.
    pub fn from_fn(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        let n = n.max(1);
        let shards: Vec<RwLock<T>> = (0..n).map(|i| RwLock::new(init(i))).collect();
        ShardSet {
            shards: shards.into_boxed_slice(),
            profile: None,
        }
    }

    /// Like [`ShardSet::from_fn`], but registered under `name` in the
    /// process-wide lock profile (see [`lock_snapshot`]): every
    /// acquisition is counted per shard and contended waits are
    /// histogrammed, unless [`set_lock_profiling`] turned profiling off.
    pub fn from_fn_named(name: &'static str, n: usize, init: impl FnMut(usize) -> T) -> Self {
        let mut s = Self::from_fn(n, init);
        s.profile = Some(DomainProfile::register(name, s.shards.len()));
        s
    }

    fn lock_read(&self, idx: usize) -> RwLockReadGuard<'_, T> {
        match &self.profile {
            Some(p) => p.acquire(
                idx,
                || self.shards[idx].try_read(),
                || self.shards[idx].read(),
            ),
            None => self.shards[idx].read(),
        }
    }

    fn lock_write(&self, idx: usize) -> RwLockWriteGuard<'_, T> {
        match &self.profile {
            Some(p) => p.acquire(
                idx,
                || self.shards[idx].try_write(),
                || self.shards[idx].write(),
            ),
            None => self.shards[idx].write(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false: a `ShardSet` has at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shard index a key hashes to.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Shared guard for one shard (rule 1: hold nothing else).
    pub fn read(&self, idx: usize) -> RwLockReadGuard<'_, T> {
        self.lock_read(idx)
    }

    /// Exclusive guard for one shard (rule 1: hold nothing else).
    pub fn write(&self, idx: usize) -> RwLockWriteGuard<'_, T> {
        self.lock_write(idx)
    }

    /// Exclusive guards for two shards, acquired in ascending index
    /// order regardless of argument order. Returns `(guard_for_a,
    /// guard_for_b)`; `b`'s slot is `None` when both indices name the
    /// same shard (use `a`'s guard for both roles).
    pub fn write_pair(
        &self,
        a: usize,
        b: usize,
    ) -> (RwLockWriteGuard<'_, T>, Option<RwLockWriteGuard<'_, T>>) {
        if a == b {
            (self.lock_write(a), None)
        } else if a < b {
            let ga = self.lock_write(a);
            let gb = self.lock_write(b);
            (ga, Some(gb))
        } else {
            let gb = self.lock_write(b);
            let ga = self.lock_write(a);
            (ga, Some(gb))
        }
    }

    /// Exclusive guards for an arbitrary shard set, acquired in
    /// ascending index order. Duplicates are collapsed; the result is
    /// addressed by shard index via [`ShardMultiGuard::get_mut`].
    pub fn write_many(&self, idxs: &[usize]) -> ShardMultiGuard<'_, T> {
        let mut order: Vec<usize> = idxs.to_vec();
        order.sort_unstable();
        order.dedup();
        let guards = order
            .into_iter()
            .map(|i| (i, self.lock_write(i)))
            .collect();
        ShardMultiGuard { guards }
    }

    /// Exclusive guards for every shard, ascending.
    pub fn write_all(&self) -> Vec<RwLockWriteGuard<'_, T>> {
        (0..self.shards.len()).map(|i| self.lock_write(i)).collect()
    }

    /// Shared guards for every shard, ascending. Used for consistent
    /// whole-structure snapshots (e.g. `Clone`).
    pub fn read_all(&self) -> Vec<RwLockReadGuard<'_, T>> {
        (0..self.shards.len()).map(|i| self.lock_read(i)).collect()
    }

    /// Lock-free access to every shard (requires exclusive ownership).
    pub fn get_mut_all(&mut self) -> Vec<&mut T> {
        self.shards.iter_mut().map(|s| s.get_mut()).collect()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ShardSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardSet({} shards)", self.shards.len())
    }
}

/// Guards held by [`ShardSet::write_many`], addressable by shard index.
pub struct ShardMultiGuard<'a, T> {
    guards: Vec<(usize, RwLockWriteGuard<'a, T>)>,
}

impl<T> ShardMultiGuard<'_, T> {
    /// Exclusive access to the shard locked under `idx`.
    ///
    /// # Panics
    /// Panics if `idx` was not part of the `write_many` request.
    pub fn get_mut(&mut self, idx: usize) -> &mut T {
        let pos = self
            .guards
            .iter()
            .position(|(i, _)| *i == idx)
            .expect("shard index not covered by write_many");
        &mut self.guards[pos].1
    }

    /// Shared access to the shard locked under `idx`.
    ///
    /// # Panics
    /// Panics if `idx` was not part of the `write_many` request.
    pub fn get(&self, idx: usize) -> &T {
        let pos = self
            .guards
            .iter()
            .position(|(i, _)| *i == idx)
            .expect("shard index not covered by write_many");
        &self.guards[pos].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = Arc::new(RwLock::new(0u64));
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 0);
            assert!(l.try_write().is_none());
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn poison_is_transparent() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn shard_set_routes_keys() {
        let s: ShardSet<u64> = ShardSet::from_fn(4, |i| i as u64);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.shard_of(0), 0);
        assert_eq!(s.shard_of(7), 3);
        assert_eq!(*s.read(s.shard_of(6)), 2);
        *s.write(1) += 10;
        assert_eq!(*s.read(1), 11);
    }

    #[test]
    fn shard_set_clamps_to_one() {
        let s: ShardSet<u32> = ShardSet::from_fn(0, |_| 9);
        assert_eq!(s.len(), 1);
        assert_eq!(s.shard_of(12345), 0);
    }

    #[test]
    fn write_pair_handles_order_and_aliasing() {
        let s: ShardSet<u32> = ShardSet::from_fn(4, |_| 0);
        // Descending request still returns (guard_for_a, guard_for_b).
        {
            let (mut ga, gb) = s.write_pair(3, 1);
            *ga = 3;
            *gb.expect("distinct shards") = 1;
        }
        assert_eq!(*s.read(3), 3);
        assert_eq!(*s.read(1), 1);
        // Same shard twice: a single guard.
        let (mut ga, gb) = s.write_pair(2, 2);
        assert!(gb.is_none());
        *ga = 2;
    }

    #[test]
    fn write_many_dedups_and_addresses_by_index() {
        let s: ShardSet<u32> = ShardSet::from_fn(8, |_| 0);
        let mut g = s.write_many(&[5, 2, 5, 7]);
        *g.get_mut(5) += 1;
        *g.get_mut(2) += 2;
        *g.get_mut(7) += 3;
        assert_eq!(*g.get(5), 1);
        drop(g);
        assert_eq!(*s.read(2), 2);
    }

    #[test]
    fn concurrent_pair_writers_do_not_deadlock() {
        // Opposite-order pair requests from many threads: ascending
        // acquisition must prevent the classic AB/BA deadlock.
        let s: Arc<ShardSet<u64>> = Arc::new(ShardSet::from_fn(2, |_| 0));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let (a, b) = if t % 2 == 0 { (0, 1) } else { (1, 0) };
                        let (mut ga, gb) = s.write_pair(a, b);
                        *ga += 1;
                        *gb.unwrap() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*s.read(0) + *s.read(1), 2 * 8 * 200);
    }
}
