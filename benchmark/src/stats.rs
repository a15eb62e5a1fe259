//! The harness's own arithmetic: order statistics over round samples
//! and warm-up trimming.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Number of leading samples that are warm-up: the first tenth,
/// rounded up, but never all of them.
pub fn warmup_len(n: usize) -> usize {
    n.div_ceil(10).min(n.saturating_sub(1))
}

/// `samples` without its warm-up prefix.
pub fn trim_warmup<T>(samples: &[T]) -> &[T] {
    &samples[warmup_len(samples.len())..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p90_on_known_samples() {
        let odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&odd), 3.0);
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&even), 2.5);
        // 1..=11: rank 0.9 * 10 = 9 → the 10th value.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 10.0);
        // 1..=10: rank 8.1 → 9 + 0.1.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn warmup_is_the_first_tenth_rounded_up() {
        assert_eq!(warmup_len(0), 0);
        assert_eq!(warmup_len(1), 0);
        assert_eq!(warmup_len(3), 1);
        assert_eq!(warmup_len(10), 1);
        assert_eq!(warmup_len(11), 2);
        assert_eq!(warmup_len(600), 60);
        let v: Vec<u32> = (0..20).collect();
        assert_eq!(trim_warmup(&v), &v[2..]);
    }
}
