//! Order statistics for the printed metrics.

/// First and third quartile by the exclusive method — the default of
/// Python's `statistics.quantiles(values, n=4)`, which is how run-to-run
/// spread is judged. A single sample is its own quartiles; no samples
/// read as zero.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The `q`-quantile of weighted samples: the smallest value whose
/// cumulative weight reaches `q` of the total (nearest rank).
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|s| s.1).sum();
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (value, weight) in &sorted {
        seen += weight;
        if seen >= rank {
            return *value;
        }
    }
    sorted.last().expect("quantile of no samples").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
    }

    #[test]
    fn weighted_quantile_counts_weights() {
        let s = [(1.0, 1), (2.0, 8), (3.0, 1)];
        assert_eq!(weighted_quantile(&s, 0.5), 2.0);
        assert_eq!(weighted_quantile(&s, 0.95), 3.0);
        assert_eq!(weighted_quantile(&s, 0.05), 1.0);
    }
}
