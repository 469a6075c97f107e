//! Order statistics over measured samples.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; `None`
/// when empty.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// A latency histogram with 128 log-spaced buckets per octave (0.55%
/// wide), so a run's latency memory is fixed however many ops it times.
/// Percentiles interpolate within their bucket.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
}

const SUB_BITS: u32 = 7;
const BIAS: usize = 1023 << SUB_BITS;

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; 64 << SUB_BITS],
            n: 0,
        }
    }
}

impl LatHist {
    fn index(ns: u64) -> usize {
        // Exponent and the top mantissa bits of the value as a double.
        ((ns.max(1) as f64).to_bits() >> (52 - SUB_BITS)) as usize - BIAS
    }

    fn lower(idx: usize) -> f64 {
        f64::from_bits(((idx + BIAS) as u64) << (52 - SUB_BITS))
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, o: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }

    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.n = 0;
    }

    /// The `p`th percentile in nanoseconds (0 when empty).
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0);
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if seen + c >= rank {
                let (lo, hi) = (Self::lower(i), Self::lower(i + 1));
                return lo + (hi - lo) * (rank - seen) / c;
            }
            seen += c;
        }
        0.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_median() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut [], 99.0), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = LatHist::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 100_000);
        for (p, want) in [(50.0, 50_000.0), (99.0, 99_000.0)] {
            let got = h.percentile_ns(p);
            assert!((got - want).abs() / want < 0.006, "p{p}: {got}");
        }
        let mut g = LatHist::default();
        g.record(7);
        h.merge(&g);
        assert_eq!(h.count(), 100_001);
        h.clear();
        assert_eq!(h.percentile_ns(50.0), 0.0);
    }
}
