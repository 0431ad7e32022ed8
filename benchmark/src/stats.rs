//! Medians, percentiles and spreads, with the sample-count rules the
//! benchmark reports under.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every reported median has samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The lower quartile of `values` (linear interpolation between order
/// statistics).
///
/// # Panics
/// Panics on an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "lower quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = 0.25 * (v.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    v[lo] + (v[(lo + 1).min(v.len() - 1)] - v[lo]) * frac
}

/// Whether `n` samples support percentile `p` (0..1): a percentile is
/// reported only with at least ten samples beyond it, so p99 needs 1 000
/// samples and p99.9 needs 10 000.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0 - 1e-9
}

/// Nearest-rank percentile `p` (0..1) of `values`, or `None` when the
/// sample count does not support it (see [`supports`]).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !supports(values.len(), p) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: interquartile distance as a share of the median —
/// the quantity a metric's bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}
