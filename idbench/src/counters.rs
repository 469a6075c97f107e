//! Counter read-back: the server's Prometheus exposition (`metrics`
//! RPC) parsed into samples, and deltas across the timed window.

/// One parsed exposition: `(family, labels, value)` per sample line.
#[derive(Debug, Clone, Default)]
pub struct Expo {
    samples: Vec<(String, String, f64)>,
}

impl Expo {
    pub fn parse(text: &str) -> Expo {
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((head, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = match head.split_once('{') {
                Some((n, rest)) => (n, rest.trim_end_matches('}')),
                None => (head, ""),
            };
            samples.push((name.to_string(), labels.to_string(), value));
        }
        Expo { samples }
    }

    /// Sum of every sample of `family` (all label sets).
    pub fn sum(&self, family: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(n, _, _)| n == family)
            .map(|(_, _, v)| v)
            .sum()
    }

    /// Largest sample of `family` (gauges such as high watermarks).
    pub fn max(&self, family: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(n, _, _)| n == family)
            .map(|(_, _, v)| *v)
            .fold(0.0, f64::max)
    }

    /// Cumulative histogram buckets of `family` (the `_bucket` series),
    /// merged across every other label: `(le, count)` sorted by `le`,
    /// `+Inf` last.
    pub fn buckets(&self, family: &str) -> Vec<(f64, f64)> {
        let name = format!("{family}_bucket");
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for (n, labels, v) in &self.samples {
            if *n != name {
                continue;
            }
            let Some(le) = labels
                .split(',')
                .find_map(|kv| kv.trim().strip_prefix("le=\""))
                .map(|s| s.trim_end_matches('"'))
            else {
                continue;
            };
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            match merged.iter_mut().find(|(l, _)| *l == le) {
                Some((_, c)) => *c += v,
                None => merged.push((le, *v)),
            }
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
        merged
    }
}

/// `after - before` of a summed family.
pub fn delta(before: &Expo, after: &Expo, family: &str) -> f64 {
    after.sum(family) - before.sum(family)
}

/// The `p`th percentile of the observations a histogram family gained
/// between two expositions, interpolated linearly within its bucket (as
/// Prometheus' `histogram_quantile` does); `None` when it gained none.
/// An observation above the last finite bucket reads as that bucket's
/// ceiling.
pub fn delta_percentile(before: &Expo, after: &Expo, family: &str, p: f64) -> Option<f64> {
    let b = before.buckets(family);
    let a = after.buckets(family);
    let gained: Vec<(f64, f64)> = a
        .iter()
        .map(|(le, c)| {
            let old = b.iter().find(|(l, _)| l == le).map_or(0.0, |(_, c)| *c);
            (*le, c - old)
        })
        .collect();
    let total = gained.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = (p / 100.0 * total).ceil().max(1.0);
    let (mut lo, mut below) = (0.0, 0.0);
    for (le, cum) in &gained {
        if !le.is_finite() {
            break;
        }
        if *cum >= target {
            return Some(lo + (le - lo) * (target - below) / (cum - below));
        }
        (lo, below) = (*le, *cum);
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE x counter\nx{id=\"a\"} 3\nx{id=\"b\"} 4\n\
        h_bucket{worker=\"0\",le=\"1\"} 1\nh_bucket{worker=\"0\",le=\"2\"} 2\n\
        h_bucket{worker=\"0\",le=\"+Inf\"} 2\nh_bucket{worker=\"1\",le=\"1\"} 0\n\
        h_bucket{worker=\"1\",le=\"2\"} 0\nh_bucket{worker=\"1\",le=\"+Inf\"} 0\ng 5\n";
    const AFTER: &str = "x{id=\"a\"} 10\nx{id=\"b\"} 4\n\
        h_bucket{worker=\"0\",le=\"1\"} 1\nh_bucket{worker=\"0\",le=\"2\"} 2\n\
        h_bucket{worker=\"0\",le=\"+Inf\"} 2\nh_bucket{worker=\"1\",le=\"1\"} 90\n\
        h_bucket{worker=\"1\",le=\"2\"} 99\nh_bucket{worker=\"1\",le=\"+Inf\"} 100\ng 9\n";

    #[test]
    fn deltas_and_percentiles() {
        let (b, a) = (Expo::parse(BEFORE), Expo::parse(AFTER));
        assert_eq!(delta(&b, &a, "x"), 7.0);
        assert_eq!(a.max("g"), 9.0);
        // 90 new observations at or under 1, 9 in (1, 2], 1 above 2.
        assert_eq!(delta_percentile(&b, &a, "h", 45.0), Some(0.5));
        assert_eq!(delta_percentile(&b, &a, "h", 99.0), Some(2.0));
        assert!((delta_percentile(&b, &a, "h", 95.0).unwrap() - (1.0 + 5.0 / 9.0)).abs() < 1e-9);
        // The one observation past the last finite bucket.
        assert_eq!(delta_percentile(&b, &a, "h", 100.0), Some(2.0));
        assert_eq!(delta_percentile(&b, &b, "h", 99.0), None);
    }
}
