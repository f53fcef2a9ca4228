//! Output checks made apart from the program under test.

use stod_tensor::Tensor;

/// Earth mover's distance between two histograms on the same unit-spaced
/// bucket grid, in f64: the sum of absolute differences of the two
/// normalised CDFs. Two empty histograms are 0 apart, one empty histogram
/// is at the grid diameter — the conventions Eq. 15 leaves open, chosen as
/// the evaluation code chooses them.
pub fn emd(m: &[f32], m_hat: &[f32]) -> f64 {
    assert_eq!(m.len(), m_hat.len(), "histogram length mismatch");
    let total = |h: &[f32]| h.iter().map(|&x| f64::from(x)).sum::<f64>();
    let (sm, sh) = (total(m), total(m_hat));
    match (sm > 0.0, sh > 0.0) {
        (false, false) => return 0.0,
        (true, false) | (false, true) => return (m.len() - 1) as f64,
        (true, true) => {}
    }
    let mut cdf_gap = 0.0f64;
    let mut dist = 0.0f64;
    for k in 0..m.len() - 1 {
        cdf_gap += f64::from(m[k]) / sm - f64::from(m_hat[k]) / sh;
        dist += cdf_gap.abs();
    }
    dist
}

/// Checks that every `(o, d)` cell of a `[B, N, N', K]` forecast is a
/// distribution: non-negative, finite, summing to 1 within 1e-5.
pub fn simplex(pred: &Tensor) -> Result<(), String> {
    let k = pred.dim(pred.ndim() - 1);
    for (cell, hist) in pred.data().chunks(k).enumerate() {
        let sum: f64 = hist.iter().map(|&x| f64::from(x)).sum();
        if hist.iter().any(|&x| !x.is_finite() || x < 0.0) || (sum - 1.0).abs() > 1e-5 {
            return Err(format!(
                "forecast cell {cell} is not a distribution: {hist:?} (sum {sum})"
            ));
        }
    }
    Ok(())
}

/// The `[o, d]` histogram of row `b` of a `[B, N, N', K]` tensor.
pub fn cell(t: &Tensor, b: usize, o: usize, d: usize) -> &[f32] {
    let (n, nd, k) = (t.dim(1), t.dim(2), t.dim(3));
    let at = ((b * n + o) * nd + d) * k;
    &t.data()[at..at + k]
}

/// Relative agreement of two EMD means (both finite, within 1e-9).
pub fn same_mean(a: f64, b: f64) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}
