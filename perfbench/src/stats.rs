//! Order statistics the benchmark reports and the steadiness check it
//! applies to repeated runs.

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as Python's `statistics.median` gives it: the mean of the two
/// middle samples when the count is even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A reported tail: the percentile chosen, its value, and how many
/// samples lie strictly beyond that value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly above its value, or `None` when even the median
/// has fewer.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let value = percentile(sorted, p);
        let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            beyond,
        })
    })
}

/// A latency distribution summary: count, median and tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: Option<Tail>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail: tail(&sorted),
        })
    }

    /// `p50 … · pNN … (n samples, m beyond)` for the report lines.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some(t) => format!(
                "p{} {:.3} {unit} ({} beyond)",
                t.percentile, t.value, t.beyond
            ),
            None => format!("no tail: fewer than {} samples", 2 * TAIL_MIN_BEYOND),
        };
        format!(
            "p50 {:.3} {unit} · {tail} · {} samples",
            self.p50, self.count
        )
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (its default, exclusive method).
///
/// # Panics
///
/// Panics with fewer than two values, as Python raises.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let (n, m) = (4i64, ld as i64 + 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved j up: Python extrapolates too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is checked against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Verdict of one metric's steadiness check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steadiness {
    /// Spread below a third of the bound: the margin the benchmark aims
    /// for.
    Steady,
    /// Spread within the bound but above a third of it.
    Marginal,
    /// Spread beyond the bound.
    Unsteady,
}

/// Classifies a spread against a metric's bound.
pub fn steadiness(spread: f64, bound: f64) -> Steadiness {
    if spread < bound / 3.0 {
        Steadiness::Steady
    } else if spread <= bound {
        Steadiness::Marginal
    } else {
        Steadiness::Unsteady
    }
}

/// Whether `new` is worse than `base` by more than `bound` (a share of
/// `base`), for a metric where `higher` values are better or not.
pub fn regressed(base: f64, new: f64, bound: f64, higher_is_better: bool) -> bool {
    let worse = if higher_is_better {
        base - new
    } else {
        new - base
    };
    worse > bound * base.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 = 990 leaves exactly 10 above it, p99.5 only 5.
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 leaves 9, so the tail steps down to p95.
        let t = tail(&ramp(999)).expect("tail");
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.beyond, 999 - 950);
        // 100 samples: p90 leaves exactly 10.
        let t = tail(&ramp(100)).expect("tail");
        assert_eq!((t.percentile, t.beyond), (90.0, 10));
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        // 30 identical samples have nothing strictly above any percentile.
        assert_eq!(tail(&[5.0; 30]), None);
        let mut v = vec![1.0; 20];
        v.extend([2.0; 10]);
        let t = tail(&v).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 1.0, 10));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(20)).map(|t| t.percentile), Some(50.0));
        let s = Summary::of(&ramp(15)).expect("summary");
        assert_eq!(s.count, 15);
        assert!(s.describe("ms").contains("no tail"));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 8.0));
        // statistics.quantiles([10.0, 10.5, 11.0, 12.0, 10.2, 10.1,
        //   10.4, 10.3, 10.6, 10.9], n=4) == [10.175, 10.45, 10.925]
        let (q1, q3) = quartiles(&[10.0, 10.5, 11.0, 12.0, 10.2, 10.1, 10.4, 10.3, 10.6, 10.9]);
        assert!((q1 - 10.175).abs() < 1e-12 && (q3 - 10.925).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = spread(&ramp(10));
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 10]), 0.0);
    }

    #[test]
    fn bound_check() {
        assert_eq!(steadiness(0.02, 0.1), Steadiness::Steady);
        assert_eq!(steadiness(0.05, 0.1), Steadiness::Marginal);
        assert_eq!(steadiness(0.1, 0.1), Steadiness::Marginal);
        assert_eq!(steadiness(0.11, 0.1), Steadiness::Unsteady);
        // Throughput: higher is better.
        assert!(!regressed(100.0, 91.0, 0.1, true));
        assert!(regressed(100.0, 89.0, 0.1, true));
        assert!(!regressed(100.0, 150.0, 0.1, true));
        // Latency: lower is better.
        assert!(!regressed(10.0, 10.9, 0.1, false));
        assert!(regressed(10.0, 11.2, 0.1, false));
        assert!(!regressed(10.0, 2.0, 0.1, false));
    }
}
