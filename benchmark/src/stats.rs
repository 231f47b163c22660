//! Order statistics over a run's repetitions.

/// Median, quartiles and count of one metric's per-repetition values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarises `values` the way Python's `statistics.quantiles(values, n=4)`
/// does (exclusive method), so the spreads printed here are the spreads the
/// acceptance runs compute. Fewer than two values have no spread.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "a metric needs at least one repetition");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n,
        };
    }
    let at = |k: usize| {
        // Rank k*(n+1)/4, between the neighbours j and j+1 (1-based); at the
        // ends of a small sample the weight leaves 0..1 and extrapolates.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let weight = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * weight
    };
    Summary {
        median: at(2),
        q1: at(1),
        q3: at(3),
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile in 0..100, value)`; `None` below eleven samples, where no
/// tail percentile is supported.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let n = values.len();
    if n <= BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - BEYOND; // 1-based: exactly BEYOND samples lie above it
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!(x, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-9);
        // 1000 samples: p99 has exactly ten beyond it, p99.1 would have nine.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert_eq!((p, x), (99.0, 990.0));
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }
}
