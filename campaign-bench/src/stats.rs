//! The benchmark's own arithmetic: order statistics over timing samples,
//! span self time, and per-row normalisation of exact counters. Kept
//! apart from the measuring code so the unit tests below pin it.

/// Median of `values` (mean of the two middle values for an even
/// count), as Python's `statistics.median`. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method). `None` for fewer than two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, with its nearest-rank value: `(percentile, value)`.
///
/// With `n` samples the nearest-rank `p`-th percentile is the sample of
/// rank `ceil(p·n/100)`, which leaves `n − rank` samples above it, so
/// the answer is `p = floor(100·(n − 10)/n)`. Below 20 samples that
/// percentile would fall under the median, and `None` is returned.
pub fn high_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 20 {
        return None;
    }
    let p = 100 * (n - 10) / n;
    let rank = (p * n).div_ceil(100);
    Some((p as u32, s[rank - 1]))
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of that interval its children cover. Children may overlap each other
/// (they are merged first) or reach outside the parent (they are
/// clipped to it).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// A counter's growth over a campaign, per result row, in `unit`s (e.g.
/// `1e9` for GFLOP). `None` when no rows were produced.
pub fn per_row(count: u64, rows: u64, unit: f64) -> Option<f64> {
    (rows > 0).then(|| count as f64 / rows as f64 / unit)
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // index is clamped and the weights extrapolate.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn high_percentile_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(high_percentile(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=64).map(f64::from).collect();
        // p = floor(100·54/64) = 84, rank = ceil(84·64/100) = 54.
        assert_eq!(high_percentile(&v), Some((84, 54.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(high_percentile(&v), Some((50, 10.0)));
        assert_eq!(high_percentile(&v[..19]), None);
        for n in 20..500usize {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (_, value) = high_percentile(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond");
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_cover() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // Children outside the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }

    #[test]
    fn counters_normalise_per_row() {
        assert_eq!(per_row(2_000_000_000, 4, 1e9), Some(0.5));
        assert_eq!(per_row(3 << 20, 3, (1u64 << 20) as f64), Some(1.0));
        assert_eq!(per_row(241, 160, 1.0), Some(1.50625));
        assert_eq!(per_row(4, 0, 1.0), None);
    }
}
