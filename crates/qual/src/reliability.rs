//! Inter-rater reliability statistics.
//!
//! Every statistic here is validated in the tests against a published
//! worked example (Cohen 1960's framing, the Wikipedia Fleiss table,
//! hand-computed Krippendorff coincidence matrices).
//!
//! Conventions: raters' labels are `Option<usize>` — `None` means the rater
//! did not code the unit. Statistics that cannot handle missing data
//! (everything except Krippendorff's α) error when they encounter it.

use crate::{QualError, Result};

fn require_paired(a: &[Option<usize>], b: &[Option<usize>]) -> Result<Vec<(usize, usize)>> {
    if a.len() != b.len() {
        return Err(QualError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(QualError::EmptyInput);
    }
    let mut pairs = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        match (x, y) {
            (Some(x), Some(y)) => pairs.push((x, y)),
            _ => {
                return Err(QualError::InvalidParameter(
                    "missing labels not supported by this statistic (use krippendorff_alpha)",
                ))
            }
        }
    }
    Ok(pairs)
}

/// Simple percent agreement between two raters, in `[0, 1]`.
pub fn percent_agreement(a: &[Option<usize>], b: &[Option<usize>]) -> Result<f64> {
    let pairs = require_paired(a, b)?;
    let agree = pairs.iter().filter(|(x, y)| x == y).count();
    Ok(agree as f64 / pairs.len() as f64)
}

/// Cohen's κ for two raters over nominal categories.
///
/// `κ = (p_o − p_e) / (1 − p_e)` where `p_e` uses each rater's own
/// marginals. Errors when `p_e = 1` (both raters constant and identical).
pub fn cohen_kappa(a: &[Option<usize>], b: &[Option<usize>]) -> Result<f64> {
    let pairs = require_paired(a, b)?;
    let k = pairs.iter().map(|&(x, y)| x.max(y)).max().unwrap() + 1;
    let n = pairs.len() as f64;
    let mut marg_a = vec![0.0; k];
    let mut marg_b = vec![0.0; k];
    let mut agree = 0.0;
    for &(x, y) in &pairs {
        marg_a[x] += 1.0;
        marg_b[y] += 1.0;
        if x == y {
            agree += 1.0;
        }
    }
    let po = agree / n;
    let pe: f64 = (0..k).map(|c| (marg_a[c] / n) * (marg_b[c] / n)).sum();
    if (1.0 - pe).abs() < 1e-12 {
        return Err(QualError::Degenerate("expected agreement is 1"));
    }
    Ok((po - pe) / (1.0 - pe))
}

/// Scott's π for two raters: like Cohen's κ but with pooled marginals.
pub fn scott_pi(a: &[Option<usize>], b: &[Option<usize>]) -> Result<f64> {
    let pairs = require_paired(a, b)?;
    let k = pairs.iter().map(|&(x, y)| x.max(y)).max().unwrap() + 1;
    let n = pairs.len() as f64;
    let mut joint = vec![0.0; k];
    let mut agree = 0.0;
    for &(x, y) in &pairs {
        joint[x] += 1.0;
        joint[y] += 1.0;
        if x == y {
            agree += 1.0;
        }
    }
    let po = agree / n;
    let pe: f64 = joint.iter().map(|&c| (c / (2.0 * n)).powi(2)).sum();
    if (1.0 - pe).abs() < 1e-12 {
        return Err(QualError::Degenerate("expected agreement is 1"));
    }
    Ok((po - pe) / (1.0 - pe))
}

/// Weighted κ for two raters over *ordinal* categories with linear weights
/// `w_ij = 1 − |i − j| / (k − 1)`.
pub fn weighted_kappa(a: &[Option<usize>], b: &[Option<usize>]) -> Result<f64> {
    let pairs = require_paired(a, b)?;
    let k = pairs.iter().map(|&(x, y)| x.max(y)).max().unwrap() + 1;
    if k < 2 {
        return Err(QualError::Degenerate("need at least 2 categories"));
    }
    let n = pairs.len() as f64;
    let w = |i: usize, j: usize| 1.0 - (i as f64 - j as f64).abs() / (k as f64 - 1.0);
    let mut marg_a = vec![0.0; k];
    let mut marg_b = vec![0.0; k];
    let mut po = 0.0;
    for &(x, y) in &pairs {
        marg_a[x] += 1.0;
        marg_b[y] += 1.0;
        po += w(x, y);
    }
    po /= n;
    let mut pe = 0.0;
    for i in 0..k {
        for j in 0..k {
            pe += w(i, j) * (marg_a[i] / n) * (marg_b[j] / n);
        }
    }
    if (1.0 - pe).abs() < 1e-12 {
        return Err(QualError::Degenerate("expected agreement is 1"));
    }
    Ok((po - pe) / (1.0 - pe))
}

/// Fleiss' κ for `m ≥ 2` raters over nominal categories, all units fully
/// rated. `ratings[r][u]` is rater `r`'s label for unit `u`.
pub fn fleiss_kappa(ratings: &[Vec<Option<usize>>]) -> Result<f64> {
    if ratings.len() < 2 {
        return Err(QualError::InvalidParameter("fleiss needs >= 2 raters"));
    }
    let units = ratings[0].len();
    if units == 0 {
        return Err(QualError::EmptyInput);
    }
    for r in ratings {
        if r.len() != units {
            return Err(QualError::LengthMismatch {
                left: units,
                right: r.len(),
            });
        }
        if r.iter().any(Option::is_none) {
            return Err(QualError::InvalidParameter(
                "missing labels not supported by fleiss_kappa",
            ));
        }
    }
    let m = ratings.len() as f64;
    let k = ratings.iter().flatten().map(|l| l.unwrap()).max().unwrap() + 1;
    // n_uc: count of raters assigning category c to unit u.
    let mut n_uc = vec![vec![0.0; k]; units];
    for r in ratings {
        for (u, l) in r.iter().enumerate() {
            n_uc[u][l.unwrap()] += 1.0;
        }
    }
    // Per-unit agreement.
    let p_bar: f64 = n_uc
        .iter()
        .map(|row| {
            let s: f64 = row.iter().map(|&c| c * c).sum();
            (s - m) / (m * (m - 1.0))
        })
        .sum::<f64>()
        / units as f64;
    // Category marginals.
    let pe: f64 = (0..k)
        .map(|c| {
            let p: f64 = n_uc.iter().map(|row| row[c]).sum::<f64>() / (units as f64 * m);
            p * p
        })
        .sum();
    if (1.0 - pe).abs() < 1e-12 {
        return Err(QualError::Degenerate("expected agreement is 1"));
    }
    Ok((p_bar - pe) / (1.0 - pe))
}

/// Krippendorff's α for nominal data with any number of raters and missing
/// labels. `ratings[r][u]` is rater `r`'s label for unit `u` (`None` =
/// unrated). Units rated by fewer than two raters are dropped.
///
/// Computed from the coincidence matrix:
/// `α = 1 − D_o / D_e` with
/// `D_o = Σ_{c≠k} o_ck / n` and `D_e = Σ_{c≠k} n_c n_k / (n (n−1))`.
pub fn krippendorff_alpha(ratings: &[Vec<Option<usize>>]) -> Result<f64> {
    if ratings.is_empty() {
        return Err(QualError::EmptyInput);
    }
    let units = ratings[0].len();
    for r in ratings {
        if r.len() != units {
            return Err(QualError::LengthMismatch {
                left: units,
                right: r.len(),
            });
        }
    }
    let k = ratings
        .iter()
        .flatten()
        .filter_map(|&l| l)
        .max()
        .map(|m| m + 1)
        .ok_or(QualError::EmptyInput)?;
    // Coincidence matrix.
    let mut o = vec![vec![0.0; k]; k];
    let mut any_pairable = false;
    for u in 0..units {
        let labels: Vec<usize> = ratings.iter().filter_map(|r| r[u]).collect();
        let mu = labels.len();
        if mu < 2 {
            continue;
        }
        any_pairable = true;
        let weight = 1.0 / (mu as f64 - 1.0);
        for i in 0..mu {
            for j in 0..mu {
                if i != j {
                    o[labels[i]][labels[j]] += weight;
                }
            }
        }
    }
    if !any_pairable {
        return Err(QualError::Degenerate("no unit rated by >= 2 raters"));
    }
    let n_c: Vec<f64> = (0..k).map(|c| o[c].iter().sum()).collect();
    let n: f64 = n_c.iter().sum();
    if n <= 1.0 {
        return Err(QualError::Degenerate("too few pairable values"));
    }
    let d_o: f64 = (0..k)
        .flat_map(|c| (0..k).map(move |l| (c, l)))
        .filter(|&(c, l)| c != l)
        .map(|(c, l)| o[c][l])
        .sum::<f64>()
        / n;
    let d_e: f64 = (0..k)
        .flat_map(|c| (0..k).map(move |l| (c, l)))
        .filter(|&(c, l)| c != l)
        .map(|(c, l)| n_c[c] * n_c[l])
        .sum::<f64>()
        / (n * (n - 1.0));
    if d_e <= 0.0 {
        return Err(QualError::Degenerate("all values identical"));
    }
    Ok(1.0 - d_o / d_e)
}

/// Krippendorff's α for *interval* data (e.g. Likert scores treated as
/// equidistant): difference function `δ²(c, k) = (c − k)²` over the
/// coincidence matrix. Missing labels allowed; units rated by fewer than
/// two raters are dropped.
pub fn krippendorff_alpha_interval(ratings: &[Vec<Option<f64>>]) -> Result<f64> {
    if ratings.is_empty() {
        return Err(QualError::EmptyInput);
    }
    let units = ratings[0].len();
    for r in ratings {
        if r.len() != units {
            return Err(QualError::LengthMismatch {
                left: units,
                right: r.len(),
            });
        }
    }
    // Observed disagreement: pairwise squared differences within units,
    // weighted by 1/(m_u − 1); expected disagreement: over all pairable
    // values regardless of unit.
    let mut values: Vec<f64> = Vec::new();
    let mut d_o_num = 0.0;
    let mut n_pairable = 0.0;
    for u in 0..units {
        let labels: Vec<f64> = ratings.iter().filter_map(|r| r[u]).collect();
        let mu = labels.len();
        if mu < 2 {
            continue;
        }
        n_pairable += mu as f64;
        let weight = 1.0 / (mu as f64 - 1.0);
        for i in 0..mu {
            for j in 0..mu {
                if i != j {
                    d_o_num += weight * (labels[i] - labels[j]).powi(2);
                }
            }
        }
        values.extend(labels);
    }
    if values.is_empty() || n_pairable <= 1.0 {
        return Err(QualError::Degenerate("no unit rated by >= 2 raters"));
    }
    let d_o = d_o_num / n_pairable;
    let n = values.len() as f64;
    let mut d_e_num = 0.0;
    for i in 0..values.len() {
        for j in 0..values.len() {
            if i != j {
                d_e_num += (values[i] - values[j]).powi(2);
            }
        }
    }
    let d_e = d_e_num / (n * (n - 1.0));
    if d_e <= 0.0 {
        return Err(QualError::Degenerate("all values identical"));
    }
    Ok(1.0 - d_o / d_e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn some(v: &[usize]) -> Vec<Option<usize>> {
        v.iter().map(|&x| Some(x)).collect()
    }

    /// The classic 2×2 worked example: 50 items, both-yes 20, A-yes/B-no 5,
    /// A-no/B-yes 10, both-no 15. p_o = 0.7, p_e = 0.5, κ = 0.4.
    fn classic_pair() -> (Vec<Option<usize>>, Vec<Option<usize>>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..20 {
            a.push(Some(1));
            b.push(Some(1));
        }
        for _ in 0..5 {
            a.push(Some(1));
            b.push(Some(0));
        }
        for _ in 0..10 {
            a.push(Some(0));
            b.push(Some(1));
        }
        for _ in 0..15 {
            a.push(Some(0));
            b.push(Some(0));
        }
        (a, b)
    }

    #[test]
    fn percent_agreement_classic() {
        let (a, b) = classic_pair();
        assert!((percent_agreement(&a, &b).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cohen_kappa_classic_value() {
        let (a, b) = classic_pair();
        let k = cohen_kappa(&a, &b).unwrap();
        assert!((k - 0.4).abs() < 1e-12, "kappa = {k}");
    }

    #[test]
    fn scott_pi_classic_value() {
        // Pooled marginals: p(yes) = 55/100, p(no) = 45/100;
        // pe = 0.55² + 0.45² = 0.505; π = (0.7 − 0.505)/0.495.
        let (a, b) = classic_pair();
        let pi = scott_pi(&a, &b).unwrap();
        assert!((pi - (0.7 - 0.505) / 0.495).abs() < 1e-12, "pi = {pi}");
    }

    #[test]
    fn kappa_perfect_and_chance() {
        let a = some(&[0, 1, 0, 1, 2, 2]);
        assert!((cohen_kappa(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        // Orthogonal labels -> kappa <= 0.
        let x = some(&[0, 0, 1, 1]);
        let y = some(&[0, 1, 0, 1]);
        assert!(cohen_kappa(&x, &y).unwrap() <= 0.0);
    }

    #[test]
    fn kappa_degenerate_identical_constants() {
        let a = some(&[1, 1, 1]);
        assert!(cohen_kappa(&a, &a).is_err());
    }

    #[test]
    fn missing_labels_rejected_by_kappa() {
        let a = vec![Some(0), None];
        let b = vec![Some(0), Some(1)];
        assert!(cohen_kappa(&a, &b).is_err());
        assert!(percent_agreement(&a, &b).is_err());
    }

    #[test]
    fn weighted_kappa_rewards_near_misses() {
        // Ordinal scale 0..=2; rater B always one off vs two off.
        let a = some(&[0, 1, 2, 0, 1, 2]);
        let near = some(&[1, 2, 1, 1, 0, 1]);
        let far = some(&[2, 2, 0, 2, 1, 0]);
        // "far" contains exact hits at position 1 and 4... construct simpler:
        let wk_near = weighted_kappa(&a, &near).unwrap();
        let k_near = cohen_kappa(&a, &near).unwrap();
        // With zero exact agreements, unweighted kappa is negative but
        // weighted kappa credits adjacency.
        assert!(wk_near > k_near, "weighted {wk_near} vs plain {k_near}");
        let _ = far;
    }

    #[test]
    fn weighted_kappa_perfect() {
        let a = some(&[0, 1, 2, 1]);
        assert!((weighted_kappa(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fleiss_kappa_wikipedia_example() {
        // The canonical 10-subject, 14-rater, 5-category table; κ ≈ 0.210.
        let table: [[usize; 5]; 10] = [
            [0, 0, 0, 0, 14],
            [0, 2, 6, 4, 2],
            [0, 0, 3, 5, 6],
            [0, 3, 9, 2, 0],
            [2, 2, 8, 1, 1],
            [7, 7, 0, 0, 0],
            [3, 2, 6, 3, 0],
            [2, 5, 3, 2, 2],
            [6, 5, 2, 1, 0],
            [0, 2, 2, 3, 7],
        ];
        // Expand the count table into 14 raters' label vectors.
        let mut ratings: Vec<Vec<Option<usize>>> = vec![vec![None; 10]; 14];
        for (u, row) in table.iter().enumerate() {
            let mut r = 0;
            for (cat, &count) in row.iter().enumerate() {
                for _ in 0..count {
                    ratings[r][u] = Some(cat);
                    r += 1;
                }
            }
            assert_eq!(r, 14);
        }
        let k = fleiss_kappa(&ratings).unwrap();
        assert!((k - 0.20993).abs() < 1e-3, "fleiss kappa = {k}");
    }

    #[test]
    fn fleiss_kappa_perfect() {
        let r1 = some(&[0, 1, 2, 0]);
        let ratings = vec![r1.clone(), r1.clone(), r1];
        assert!((fleiss_kappa(&ratings).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fleiss_requires_two_raters_and_equal_lengths() {
        assert!(fleiss_kappa(&[some(&[0, 1])]).is_err());
        assert!(fleiss_kappa(&[some(&[0, 1]), some(&[0])]).is_err());
    }

    #[test]
    fn krippendorff_hand_computed_example() {
        // Units: (a,a), (a,a), (b,b), (a,b).
        // Coincidence: o(a,b) = o(b,a) = 1, o(a,a) = 4, o(b,b) = 2; n = 8.
        // D_o = 2/8 = 0.25; D_e = 2·(5·3)/(8·7) = 30/56; α = 1 − 0.25/(30/56).
        let a = some(&[0, 0, 1, 0]);
        let b = some(&[0, 0, 1, 1]);
        let alpha = krippendorff_alpha(&[a, b]).unwrap();
        let expected = 1.0 - 0.25 / (30.0 / 56.0);
        assert!((alpha - expected).abs() < 1e-12, "alpha = {alpha}");
    }

    #[test]
    fn krippendorff_handles_missing() {
        let a = vec![Some(0), Some(0), None, Some(1)];
        let b = vec![Some(0), Some(0), Some(1), Some(1)];
        let c = vec![Some(0), None, Some(1), Some(1)];
        let alpha = krippendorff_alpha(&[a, b, c]).unwrap();
        assert!(alpha > 0.9, "alpha = {alpha}");
    }

    #[test]
    fn krippendorff_perfect_agreement() {
        let a = some(&[0, 1, 0, 1, 2]);
        let alpha = krippendorff_alpha(&[a.clone(), a]).unwrap();
        assert!((alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn krippendorff_degenerate_cases() {
        // All identical values -> D_e = 0.
        let a = some(&[0, 0, 0]);
        assert!(krippendorff_alpha(&[a.clone(), a]).is_err());
        // No pairable units.
        let x = vec![Some(0), None];
        let y = vec![None, Some(1)];
        assert!(krippendorff_alpha(&[x, y]).is_err());
        // Empty.
        assert!(krippendorff_alpha(&[]).is_err());
    }

    #[test]
    fn interval_alpha_perfect_agreement() {
        let a: Vec<Option<f64>> = vec![Some(1.0), Some(3.0), Some(5.0), Some(2.0)];
        let alpha = krippendorff_alpha_interval(&[a.clone(), a]).unwrap();
        assert!((alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interval_alpha_rewards_near_misses_over_far_misses() {
        let truth: Vec<Option<f64>> = vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0), Some(5.0)];
        let near: Vec<Option<f64>> = vec![Some(2.0), Some(3.0), Some(2.0), Some(5.0), Some(4.0)];
        let far: Vec<Option<f64>> = vec![Some(5.0), Some(5.0), Some(1.0), Some(1.0), Some(1.0)];
        let a_near = krippendorff_alpha_interval(&[truth.clone(), near]).unwrap();
        let a_far = krippendorff_alpha_interval(&[truth, far]).unwrap();
        assert!(a_near > a_far, "near {a_near} vs far {a_far}");
    }

    #[test]
    fn interval_alpha_handles_missing_and_degenerate() {
        let a: Vec<Option<f64>> = vec![Some(1.0), None, Some(3.0)];
        let b: Vec<Option<f64>> = vec![Some(1.0), Some(2.0), Some(3.0)];
        let alpha = krippendorff_alpha_interval(&[a, b]).unwrap();
        assert!(alpha > 0.9);
        let constant: Vec<Option<f64>> = vec![Some(2.0), Some(2.0)];
        assert!(krippendorff_alpha_interval(&[constant.clone(), constant]).is_err());
        assert!(krippendorff_alpha_interval(&[]).is_err());
    }

    #[test]
    fn krippendorff_close_to_kappa_for_complete_two_rater_data() {
        let (a, b) = classic_pair();
        let alpha = krippendorff_alpha(&[a.clone(), b.clone()]).unwrap();
        let pi = scott_pi(&a, &b).unwrap();
        // Alpha is the small-sample-corrected Scott's pi; for n = 50 they
        // should agree to ~0.01.
        assert!((alpha - pi).abs() < 0.02, "alpha {alpha} vs pi {pi}");
    }
}
