//! The benchmark's own arithmetic: nearest-rank percentiles with the
//! tail-sample rule, medians, geometric means, the paper-gap error,
//! regret, and last-rank-return host attribution. Every function here is
//! pure so that the unit tests below pin the numbers the metrics rest on.

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-th percentile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    // The epsilon keeps e.g. 0.99 × 1000 from rounding up to rank 991.
    let r = (q / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q`-th percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

#[cfg(test)]
/// Smallest sample count whose `q`-th percentile has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_BEYOND).expect("q below 100")
}

/// Nearest-rank `q`-th percentile of ascending `sorted` (an observed
/// value, as `diomp_sim::Meter` reports). Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// The `q`-th percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile(sorted, q))
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "median of no samples");
    let m = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[m - 1] + s[m]) / 2.0
    } else {
        s[m]
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no values");
    assert!(xs.iter().all(|&x| x > 0.0), "geometric mean needs positive values: {xs:?}");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Mean absolute log error of `(measured, reference)` pairs:
/// `mean |ln(measured / reference)|`. 0 means a perfect match; 0.69 is
/// "off by 2× on average" in either direction.
pub fn paper_gap(pairs: &[(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty(), "paper gap of no pairs");
    pairs.iter().map(|&(m, p)| (m / p).ln().abs()).sum::<f64>() / pairs.len() as f64
}

/// Regret of an automatic choice: its time over the best pinned time.
pub fn regret(auto: f64, pinned: &[f64]) -> f64 {
    let best = pinned.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(best > 0.0 && best.is_finite(), "regret needs a positive pinned time");
    auto / best
}

/// Host time per phase from per-rank return marks.
///
/// `marks[r][k]` is the host time (seconds since `start`) at which rank
/// `r` returned from phase `k`. Ranks run one at a time and a parked
/// rank hands the baton to others, so a phase ends when its *last* rank
/// returns: phase `k` costs `max_r marks[r][k] - max_r marks[r][k-1]`,
/// and phase 0 is measured from `start`. Summing per-rank spans instead
/// would count every other rank's work during a park.
pub fn last_return_phases(marks: &[Vec<f64>], start: f64) -> Vec<f64> {
    let phases = marks.first().map_or(0, Vec::len);
    assert!(marks.iter().all(|m| m.len() == phases), "ragged phase marks");
    let mut prev = start;
    (0..phases)
        .map(|k| {
            let end = marks.iter().map(|m| m[k]).fold(f64::NEG_INFINITY, f64::max);
            let d = end - prev;
            prev = end;
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(min_samples(95.0), 200);
        assert_eq!(beyond(250, 95.0), 12);
    }

    #[test]
    fn nearest_rank_percentile_is_an_observed_value() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn tail_rule_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), None);
        assert_eq!(tail_percentile(&xs, 95.0), Some(950.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        // With few samples the nearest-rank p95 is the maximum.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 9.0], 95.0), 9.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn paper_gap_is_symmetric_in_log_space() {
        assert_eq!(paper_gap(&[(5.0, 5.0)]), 0.0);
        let half = paper_gap(&[(10.0, 20.0)]);
        let double = paper_gap(&[(40.0, 20.0)]);
        assert!((half - 2f64.ln()).abs() < 1e-12);
        assert!((half - double).abs() < 1e-12);
        assert!((paper_gap(&[(10.0, 20.0), (20.0, 20.0)]) - 2f64.ln() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn regret_is_against_the_best_pinned_engine() {
        assert_eq!(regret(100.0, &[50.0, 200.0]), 2.0);
        assert_eq!(regret(50.0, &[50.0, 200.0]), 1.0);
        assert!(regret(40.0, &[50.0]) < 1.0);
    }

    #[test]
    fn host_phases_end_at_the_last_rank_return() {
        // Rank 1 finishes init last (0.5 s); rank 0 finishes the
        // collective last (0.9 s). A park-heavy rank's own span would
        // overstate the phase; the last return does not.
        let marks = vec![vec![0.2, 0.9], vec![0.5, 0.7]];
        let p = last_return_phases(&marks, 0.0);
        assert_eq!(p.len(), 2);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.4).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 0.9).abs() < 1e-12);
        assert!(last_return_phases(&[], 0.0).is_empty());
    }
}
