//! Order statistics, geometric means and the fingerprint hash.

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail statistic of choosing-metrics §1: the value at the highest
/// percentile that still has at least ten samples beyond it, i.e. the 11th
/// largest sample. Returns `(value, percentile)`. When that percentile would
/// not lie above the median (20 samples or fewer), the maximum (p100) is
/// returned instead.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 20 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// Geometric mean of positive samples; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter()
        .map(|x| x.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / xs.len() as f64)
        .exp()
}

/// Folds `x` into the running 64-bit hash `h` (SplitMix64 finalizer over
/// the xor), so a fingerprint depends on every value and on their order.
pub fn mix(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`mix`] over the bytes of a string, for fingerprinting names.
pub fn mix_str(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(mix(h, s.len() as u64), |h, b| mix(h, b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), (20.0, 100.0));
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 11.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
