//! Order statistics and metric-name rules shared by every report.

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value at the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its nearest-rank percentile, `100 * rank / n`.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The tail of `values` by the ≥ [`TAIL_BEYOND`]-beyond rule: the sample at
/// rank `n - TAIL_BEYOND` (1-based) of the sorted values. For `n = 1000`
/// that is the nearest-rank p99. With too few samples for the rule the
/// maximum is reported with `beyond < TAIL_BEYOND`, so the shortfall shows.
/// `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
    })
}

/// Median of `values` (mean of the middle two for even counts); `0.0` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and is at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, TAIL_BEYOND);
        assert_eq!(t.samples, 1000);
        assert!((t.percentile - 99.0).abs() < 1e-9);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

        let small: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&small).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_with_too_few_samples_reports_the_shortfall() {
        let t = tail(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((t.value, t.beyond), (3.0, 0));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_keep_to_the_charset() {
        for good in [
            "jobs_per_s",
            "serve.cache.hit_rate",
            "core.chunk.host_us_per_batch",
            "p-99",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            ".leading",
            "has space",
            "slash/name",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
