//! Log2 histograms: the one bucket layout and percentile rule behind
//! every latency-shaped instrument in the workspace — the kernel's
//! per-syscall dispatch latency (ns), the shard-lock wait profile (µs)
//! and the event-loop lag (µs).
//!
//! Bucket `i` of an `N`-bucket histogram holds the values with
//! `floor(log2(max(v, 1))) == i`; anything past the last edge clamps
//! into bucket `N - 1`, so `N` may be at most 64. A percentile reports
//! the ceiling of the bucket it falls in, `2^(i+1) - 1`. The top
//! bucket is unbounded, so its ceiling is `u64::MAX`: a percentile is
//! an upper bound, never an underestimate. The types carry no unit;
//! each instrument picks its unit and bucket count where it declares
//! its histogram.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

fn bucket_of<const N: usize>(v: u64) -> usize {
    ((63 - (v | 1).leading_zeros()) as usize).min(N - 1)
}

fn ceiling<const N: usize>(i: usize) -> u64 {
    if i + 1 >= N {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// `N` relaxed-atomic log2 buckets plus a running sum, recorded through
/// a shared borrow from any thread without a lock.
#[derive(Debug)]
pub struct Log2Histogram<const N: usize> {
    buckets: [AtomicU64; N],
    sum: AtomicU64,
}

impl<const N: usize> Default for Log2Histogram<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Log2Histogram<N> {
    /// All buckets at zero.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of::<N>(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// A point-in-time plain copy. Cells are loaded one by one, so a
    /// copy taken under concurrent recording may be a few samples off
    /// between cells, never torn within one.
    pub fn snapshot(&self) -> Log2Buckets<N> {
        Log2Buckets {
            counts: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            sum: self.sum.load(Relaxed),
        }
    }
}

/// A plain-data copy of a [`Log2Histogram`]: bucket counts and the sum
/// of the recorded samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Buckets<const N: usize> {
    counts: [u64; N],
    sum: u64,
}

impl<const N: usize> Default for Log2Buckets<N> {
    fn default() -> Self {
        Log2Buckets::from_parts([0; N], 0)
    }
}

impl<const N: usize> std::iter::Sum for Log2Buckets<N> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Log2Buckets::default(), |mut acc, b| {
            acc.merge(&b);
            acc
        })
    }
}

impl<const N: usize> Log2Buckets<N> {
    /// Bucket counts and a sample sum given directly.
    pub fn from_parts(counts: [u64; N], sum: u64) -> Self {
        Log2Buckets { counts, sum }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of the recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Add `other`'s samples to these.
    pub fn merge(&mut self, other: &Self) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The samples recorded between `earlier` and `self`.
    ///
    /// Every cell (each bucket and the sum) is subtracted with
    /// `saturating_sub`: a cell that reads *lower* in `self` — copies
    /// taken out of order, of unrelated histograms, or across a `u64`
    /// wrap — clamps to 0 instead of underflowing to ~2^64. Such a
    /// window undercounts; it never explodes.
    pub fn diff(&self, earlier: &Self) -> Self {
        Log2Buckets {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// The value at percentile `p` (0-100]: the ceiling of the bucket
    /// where the cumulative count first reaches `ceil(p% of count)`.
    /// `None` when no sample was recorded — an empty histogram has no
    /// percentile, and callers choose their own stand-in.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let bucket = self
            .cumulative()
            .position(|(_, seen)| seen >= rank)
            .unwrap_or(N - 1);
        Some(ceiling::<N>(bucket))
    }

    /// `(ceiling, cumulative count)` for every bucket in order; the
    /// last ceiling is `u64::MAX`.
    pub fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().scan(0u64, |seen, (i, n)| {
            *seen += n;
            Some((ceiling::<N>(i), *seen))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        // The kernel's 32-bucket ns layout.
        assert_eq!(bucket_of::<32>(0), 0);
        assert_eq!(bucket_of::<32>(1), 0);
        assert_eq!(bucket_of::<32>(2), 1);
        assert_eq!(bucket_of::<32>(3), 1);
        assert_eq!(bucket_of::<32>(1024), 10);
        // Everything past the top edge clamps into the top bucket.
        assert_eq!(bucket_of::<32>(u64::MAX), 31);
        assert_eq!(ceiling::<32>(0), 1);
        assert_eq!(ceiling::<32>(10), 2047);
        assert_eq!(ceiling::<32>(30), (1 << 31) - 1);
        assert_eq!(ceiling::<32>(31), u64::MAX);
    }

    #[test]
    fn bucket_edges() {
        // The 22-bucket µs layout of lock waits and loop lag.
        assert_eq!(bucket_of::<22>(0), 0);
        assert_eq!(bucket_of::<22>(1), 0);
        assert_eq!(bucket_of::<22>(2), 1);
        assert_eq!(bucket_of::<22>(3), 1);
        assert_eq!(bucket_of::<22>(1024), 10);
        assert_eq!(bucket_of::<22>(u64::MAX), 21);
        assert_eq!(ceiling::<22>(0), 1);
        assert_eq!(ceiling::<22>(1), 3);
        assert_eq!(ceiling::<22>(21), u64::MAX);
    }

    #[test]
    fn histo_percentiles() {
        let h = Log2Histogram::<22>::new();
        assert_eq!(h.snapshot().percentile(99.0), None);
        for _ in 0..99 {
            h.record(100); // bucket 6, ceiling 127
        }
        h.record(100_000); // bucket 16
        let b = h.snapshot();
        assert_eq!(b.count(), 100);
        assert_eq!(b.percentile(50.0), Some(127));
        assert_eq!(b.percentile(99.0), Some(127));
        assert_eq!(b.percentile(100.0), Some((1 << 17) - 1));
        assert_eq!(b.sum(), 100 * 99 + 100_000);
    }

    #[test]
    fn top_bucket_is_unbounded() {
        let h = Log2Histogram::<32>::new();
        h.record(10_000_000_000); // past 2^32: clamps into bucket 31
        assert_eq!(h.snapshot().percentile(99.0), Some(u64::MAX));
        let last = h.snapshot().cumulative().last();
        assert_eq!(last, Some((u64::MAX, 1)));
    }

    #[test]
    fn merge_diff_and_cumulative() {
        let a = Log2Histogram::<4>::new();
        a.record(1);
        a.record(5);
        let b = Log2Histogram::<4>::new();
        b.record(2);
        b.record(1 << 20);
        let merged: Log2Buckets<4> = [a.snapshot(), b.snapshot()].into_iter().sum();
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum(), 1 + 5 + 2 + (1 << 20));
        let cum: Vec<_> = merged.cumulative().collect();
        assert_eq!(cum, vec![(1, 1), (3, 2), (7, 3), (u64::MAX, 4)]);
        // diff isolates the window and saturates a backwards cell.
        assert_eq!(merged.diff(&a.snapshot()), b.snapshot());
        let back = a.snapshot().diff(&merged);
        assert_eq!(back, Log2Buckets::default());
        assert_eq!(back.percentile(50.0), None);
    }
}
