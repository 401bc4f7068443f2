//! Order statistics over the benchmark's samples.

/// Sorts `values` ascending (samples are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: count-based definition evaluated by brute force.
    fn reference(sorted: &[f64], p: f64) -> f64 {
        for &x in sorted {
            let at_or_below = sorted.iter().filter(|&&y| y <= x).count();
            if at_or_below as f64 >= p / 100.0 * sorted.len() as f64 {
                return x;
            }
        }
        *sorted.last().expect("non-empty")
    }

    #[test]
    fn percentile_matches_sorted_reference() {
        // A deterministic scramble of distinct and repeated values.
        let mut v: Vec<f64> = (0..997u64)
            .map(|i| ((i * 7919) % 503) as f64 / 3.0)
            .collect();
        sort(&mut v);
        for p in [0.1, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(percentile(&v, p), reference(&v, p), "p{p}");
        }
        assert_eq!(percentile(&v, 100.0), *v.last().expect("non-empty"));
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
