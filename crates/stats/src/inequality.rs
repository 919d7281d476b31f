//! Inequality and fairness indices.
//!
//! These are the workhorse metrics behind experiment **F1** (concentration of
//! research attention across stakeholder classes) and **F5** (fairness of
//! congestion-management policies in community networks).

use crate::{Result, StatsError};

/// Gini coefficient of a nonnegative sample, in `[0, 1)`.
///
/// 0 means perfect equality; values near 1 mean one observation holds
/// everything. Computed with the sorted-rank formula
/// `G = (2 Σ i·x_(i) / (n Σ x)) − (n + 1)/n`.
/// Errors on empty input, on any negative value, and when the total is zero.
pub fn gini(data: &[f64]) -> Result<f64> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if data.iter().any(|&x| x < 0.0 || !x.is_finite()) {
        return Err(StatsError::InvalidParameter(
            "gini requires finite nonnegative values",
        ));
    }
    let total: f64 = data.iter().sum();
    if total <= 0.0 {
        return Err(StatsError::Degenerate("gini undefined for zero total"));
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len() as f64;
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    Ok((2.0 * weighted) / (n * total) - (n + 1.0) / n)
}

/// Lorenz curve: returns `(population_share, value_share)` pairs starting at
/// `(0, 0)` and ending at `(1, 1)`, with one intermediate point per
/// observation (ascending order).
pub fn lorenz_curve(data: &[f64]) -> Result<Vec<(f64, f64)>> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if data.iter().any(|&x| x < 0.0 || !x.is_finite()) {
        return Err(StatsError::InvalidParameter(
            "lorenz requires finite nonnegative values",
        ));
    }
    let total: f64 = data.iter().sum();
    if total <= 0.0 {
        return Err(StatsError::Degenerate("lorenz undefined for zero total"));
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len() as f64;
    let mut curve = Vec::with_capacity(sorted.len() + 1);
    curve.push((0.0, 0.0));
    let mut acc = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        acc += x;
        curve.push(((i as f64 + 1.0) / n, acc / total));
    }
    Ok(curve)
}

/// Jain's fairness index of a nonnegative allocation vector, in `(0, 1]`.
///
/// `J = (Σ x)² / (n Σ x²)`; 1 means perfectly equal allocations, `1/n`
/// means a single user receives everything.
pub fn jain_fairness(data: &[f64]) -> Result<f64> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if data.iter().any(|&x| x < 0.0 || !x.is_finite()) {
        return Err(StatsError::InvalidParameter(
            "jain requires finite nonnegative values",
        ));
    }
    let sum: f64 = data.iter().sum();
    let sumsq: f64 = data.iter().map(|x| x * x).sum();
    if sumsq <= 0.0 {
        return Err(StatsError::Degenerate(
            "jain undefined for all-zero allocations",
        ));
    }
    Ok(sum * sum / (data.len() as f64 * sumsq))
}

/// Share of the total held by the top `k` observations (`k ≥ 1`).
/// If `k` exceeds the sample size the share is 1.
pub fn top_share(data: &[f64], k: usize) -> Result<f64> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if k == 0 {
        return Err(StatsError::InvalidParameter("top_share requires k >= 1"));
    }
    if data.iter().any(|&x| x < 0.0 || !x.is_finite()) {
        return Err(StatsError::InvalidParameter(
            "top_share requires finite nonnegative values",
        ));
    }
    let total: f64 = data.iter().sum();
    if total <= 0.0 {
        return Err(StatsError::Degenerate("top_share undefined for zero total"));
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    Ok(sorted.iter().take(k).sum::<f64>() / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_equal_is_zero() {
        let g = gini(&[5.0, 5.0, 5.0, 5.0]).unwrap();
        assert!(g.abs() < 1e-12);
    }

    #[test]
    fn gini_concentrated_approaches_one() {
        let mut data = vec![0.0; 99];
        data.push(100.0);
        let g = gini(&data).unwrap();
        assert!(g > 0.98, "g = {g}");
    }

    #[test]
    fn gini_known_value() {
        // For [1, 2, 3, 4]: G = 2*(1+4+9+16)/(4*10) - 5/4 = 60/40 - 1.25 = 0.25.
        let g = gini(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((g - 0.25).abs() < 1e-12, "g = {g}");
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = gini(&[1.0, 2.0, 7.0]).unwrap();
        let b = gini(&[10.0, 20.0, 70.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn gini_rejects_negative() {
        assert!(gini(&[1.0, -1.0]).is_err());
    }

    #[test]
    fn lorenz_endpoints_and_monotonicity() {
        let c = lorenz_curve(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert_eq!(c.first().unwrap(), &(0.0, 0.0));
        let (px, py) = *c.last().unwrap();
        assert!((px - 1.0).abs() < 1e-12 && (py - 1.0).abs() < 1e-12);
        for w in c.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
            // Lorenz curve lies on or below the diagonal.
            assert!(w[1].1 <= w[1].0 + 1e-12);
        }
    }

    #[test]
    fn jain_equal_is_one() {
        assert!((jain_fairness(&[2.0, 2.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let j = jain_fairness(&[10.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn top_share_basics() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert!((top_share(&data, 1).unwrap() - 0.4).abs() < 1e-12);
        assert!((top_share(&data, 2).unwrap() - 0.7).abs() < 1e-12);
        assert!((top_share(&data, 10).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gini_matches_lorenz_area() {
        // G should equal 1 - 2 * area under the Lorenz curve (trapezoid rule
        // is exact for the piecewise-linear curve).
        let data = [1.0, 1.0, 2.0, 5.0, 11.0];
        let g = gini(&data).unwrap();
        let curve = lorenz_curve(&data).unwrap();
        let area: f64 = curve
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0)
            .sum();
        assert!((g - (1.0 - 2.0 * area)).abs() < 1e-9, "g={g} area={area}");
    }
}
