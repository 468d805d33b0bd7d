//! Order statistics for small samples of host timings.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric with no samples must not be printed.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check of `BENCHMARK.json` uses for spreads. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    assert!(s.len() >= 2, "quartiles need at least two samples");
    let m = s.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`permille` in 1..=1000) of integer samples, by
/// the query plane's own rule (`LatencyHistogram`), which the server plane
/// shares: index `ceil(n * q / 1000) - 1`. 0 for an empty sample.
pub fn percentile_permille(values: &[u64], permille: u64) -> u64 {
    let mut histogram = teraheap_query::LatencyHistogram::new();
    values.iter().for_each(|&v| histogram.record(v));
    histogram.quantile_permille(permille)
}

/// Min, first quartile, median, third quartile, max and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; with a single value the quartiles collapse onto
    /// it.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let med = median(&s);
        let (q1, q3) = if s.len() >= 2 {
            quartiles(&s)
        } else {
            (med, med)
        };
        Summary {
            n: s.len(),
            min: s[0],
            q1,
            median: med,
            q3,
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn summary_and_spread() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!(s.spread(), 1.0);
        let one = Summary::of(&[2.5]);
        assert_eq!((one.q1, one.q3, one.spread()), (2.5, 2.5, 0.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_permille(&v, 500), 50);
        assert_eq!(percentile_permille(&v, 990), 99);
        assert_eq!(percentile_permille(&v, 1000), 100);
        assert_eq!(percentile_permille(&[9], 990), 9);
        assert_eq!(percentile_permille(&[], 500), 0);
    }
}
