//! Exact nearest-rank quantiles over raw samples. The drivers' bucketed
//! histograms report bucket edges; the benchmark never does.

/// A p99 needs ten samples beyond it to be more than the maximum's
/// neighbour, so it is refused below this many samples.
pub const P99_FLOOR: usize = 1000;

/// The `percent`-th percentile of `sorted` by nearest rank: the smallest
/// sample with at least `percent` % of the samples at or below it.
/// `None` when there are no samples.
pub fn nearest_rank(sorted: &[u64], percent: usize) -> Option<u64> {
    assert!((1..=100).contains(&percent), "percentile out of range");
    debug_assert!(sorted.is_sorted(), "samples must be sorted");
    let rank = (sorted.len() * percent).div_ceil(100);
    sorted.get(rank.checked_sub(1)?).copied()
}

/// Median by nearest rank.
pub fn p50(sorted: &[u64]) -> Option<u64> {
    nearest_rank(sorted, 50)
}

/// 99th percentile by nearest rank; `None` below [`P99_FLOOR`] samples.
pub fn p99(sorted: &[u64]) -> Option<u64> {
    (sorted.len() >= P99_FLOOR)
        .then(|| nearest_rank(sorted, 99))
        .flatten()
}

/// Median of a small set of host-time measurements (mean of the two
/// middle values when the count is even).
pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(nearest_rank(&[42], 1), Some(42));
        assert_eq!(p50(&[42]), Some(42));
        assert_eq!(nearest_rank(&[42], 100), Some(42));
    }

    #[test]
    fn empty_has_no_quantile() {
        assert_eq!(p50(&[]), None);
        assert_eq!(p99(&[]), None);
    }

    #[test]
    fn ties_report_the_tied_value() {
        let v = [5, 5, 5, 5, 9];
        assert_eq!(p50(&v), Some(5));
        assert_eq!(nearest_rank(&v, 80), Some(5));
        assert_eq!(nearest_rank(&v, 81), Some(9));
    }

    #[test]
    fn thousand_samples_land_on_exact_ranks() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(p50(&v), Some(500));
        assert_eq!(p99(&v), Some(990));
        assert_eq!(nearest_rank(&v, 100), Some(1000));
    }

    #[test]
    fn p99_is_refused_below_the_floor() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(p99(&v), None);
        assert_eq!(p50(&v), Some(500));
    }

    #[test]
    fn median_of_host_times() {
        assert_eq!(median_f64(&[]), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
