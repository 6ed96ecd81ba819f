//! Exhaustive-search oracles for verifying optimality claims.
//!
//! These brute-force every subset of non-zero coefficients of size at most
//! `B` and report a true optimum. They exist to validate Theorem 3.1 (the
//! optimality of `MinMaxErr`) and the approximation guarantees of §3.2 on
//! small instances; they are exponential and refuse domains with more than
//! [`MAX_ORACLE_COEFFS`] non-zero coefficients.

use wsyn_core::is_zero;
use wsyn_haar::{ErrorTree1d, ErrorTreeNd};

use crate::metric::ErrorMetric;
use crate::synopsis::{Synopsis1d, SynopsisNd};

/// Maximum number of non-zero coefficients the oracles will enumerate
/// subsets of (2^24 evaluations is already seconds of work).
pub const MAX_ORACLE_COEFFS: usize = 24;

/// Result of an exhaustive search: the optimal objective and one synopsis
/// attaining it.
#[derive(Debug, Clone)]
pub struct OracleResult<S> {
    /// The optimal (minimum) maximum error.
    pub objective: f64,
    /// A synopsis attaining the optimum.
    pub synopsis: S,
}

/// Exhaustive optimal thresholding for one-dimensional data.
///
/// # Panics
/// Panics when the tree has more than [`MAX_ORACLE_COEFFS`] non-zero
/// coefficients.
pub fn exhaustive_1d(
    tree: &ErrorTree1d,
    data: &[f64],
    b: usize,
    metric: ErrorMetric,
) -> OracleResult<Synopsis1d> {
    let nonzero: Vec<usize> = (0..tree.n()).filter(|&j| !is_zero(tree.coeff(j))).collect();
    let (best_mask, objective) = search(&nonzero, b, |subset| {
        let s = Synopsis1d::from_indices(tree, subset);
        metric.max_error(data, &s.reconstruct())
    });
    let subset: Vec<usize> = mask_to_subset(&nonzero, best_mask);
    OracleResult {
        objective,
        synopsis: Synopsis1d::from_indices(tree, &subset),
    }
}

/// Exhaustive optimal thresholding for multi-dimensional data (flat,
/// row-major `data`).
///
/// # Panics
/// Panics when the tree has more than [`MAX_ORACLE_COEFFS`] non-zero
/// coefficients.
pub fn exhaustive_nd(
    tree: &ErrorTreeNd,
    data: &[f64],
    b: usize,
    metric: ErrorMetric,
) -> OracleResult<SynopsisNd> {
    let n = tree.n();
    let coeffs = tree.coeffs().data();
    let nonzero: Vec<usize> = (0..n).filter(|&p| !is_zero(coeffs[p])).collect();
    let (best_mask, objective) = search(&nonzero, b, |subset| {
        let s = SynopsisNd::from_positions(tree, subset);
        metric.max_error(data, s.reconstruct().data())
    });
    let subset = mask_to_subset(&nonzero, best_mask);
    OracleResult {
        objective,
        synopsis: SynopsisNd::from_positions(tree, &subset),
    }
}

fn mask_to_subset(nonzero: &[usize], mask: u32) -> Vec<usize> {
    nonzero
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .map(|(_, &p)| p)
        .collect()
}

/// Enumerates all subsets of `nonzero` of size `<= b`, returning the mask
/// and objective of the best one under `eval`. Deterministic: among equal
/// objectives the smallest mask wins.
fn search<F: FnMut(&[usize]) -> f64>(nonzero: &[usize], b: usize, mut eval: F) -> (u32, f64) {
    assert!(
        nonzero.len() <= MAX_ORACLE_COEFFS,
        "oracle limited to {MAX_ORACLE_COEFFS} non-zero coefficients, got {}",
        nonzero.len()
    );
    let mut best_mask = 0u32;
    let mut best = f64::INFINITY;
    // MAX_ORACLE_COEFFS < 32, so every mask fits in u32.
    let total = 1u32 << nonzero.len();
    let mut subset = Vec::with_capacity(b);
    for mask in 0..total {
        if mask.count_ones() as usize > b {
            continue;
        }
        subset.clear();
        subset.extend(
            nonzero
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &p)| p),
        );
        let obj = eval(&subset);
        if obj < best {
            best = obj;
            best_mask = mask;
        }
    }
    (best_mask, best)
}

/// Exhaustive optimal L2 (RMSE) thresholding — validates the classical fact
/// that greedy normalized-magnitude retention is L2-optimal (§2.3).
///
/// # Panics
/// Panics when the tree has more than [`MAX_ORACLE_COEFFS`] non-zero
/// coefficients.
pub fn exhaustive_l2_1d(tree: &ErrorTree1d, data: &[f64], b: usize) -> OracleResult<Synopsis1d> {
    let nonzero: Vec<usize> = (0..tree.n()).filter(|&j| !is_zero(tree.coeff(j))).collect();
    let (best_mask, objective) = search(&nonzero, b, |subset| {
        let s = Synopsis1d::from_indices(tree, subset);
        crate::metric::rmse(data, &s.reconstruct())
    });
    let subset = mask_to_subset(&nonzero, best_mask);
    OracleResult {
        objective,
        synopsis: Synopsis1d::from_indices(tree, &subset),
    }
}

/// Exhaustive optimal L2 thresholding for multi-dimensional data —
/// validates that normalized greedy retention stays L2-optimal in the
/// nonstandard multi-dimensional basis.
///
/// # Panics
/// Panics when the tree has more than [`MAX_ORACLE_COEFFS`] non-zero
/// coefficients.
pub fn exhaustive_l2_nd(tree: &ErrorTreeNd, data: &[f64], b: usize) -> OracleResult<SynopsisNd> {
    let n = tree.n();
    let coeffs = tree.coeffs().data();
    let nonzero: Vec<usize> = (0..n).filter(|&p| !is_zero(coeffs[p])).collect();
    let (best_mask, objective) = search(&nonzero, b, |subset| {
        let s = SynopsisNd::from_positions(tree, subset);
        crate::metric::rmse(data, s.reconstruct().data())
    });
    let subset = mask_to_subset(&nonzero, best_mask);
    OracleResult {
        objective,
        synopsis: SynopsisNd::from_positions(tree, &subset),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn nd_greedy_matches_l2_oracle() {
        use wsyn_haar::nd::{NdArray, NdShape};
        let shape = NdShape::hypercube(4, 2).unwrap();
        let data: Vec<f64> = (0..16).map(|i| f64::from((i * 7 + 3) % 11) - 4.0).collect();
        let tree = ErrorTreeNd::from_data(&NdArray::new(shape, data.clone()).unwrap()).unwrap();
        for b in 0..=6usize {
            let greedy = crate::greedy::greedy_l2_nd(&tree, b);
            let g = crate::metric::rmse(&data, greedy.reconstruct().data());
            let oracle = exhaustive_l2_nd(&tree, &data, b);
            assert!(
                g <= oracle.objective + 1e-9,
                "b={b}: greedy {g} vs oracle {}",
                oracle.objective
            );
        }
    }

    #[test]
    fn full_budget_reaches_zero_error() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let r = exhaustive_1d(&tree, &EXAMPLE, 8, ErrorMetric::absolute());
        assert_eq!(r.objective, 0.0);
    }

    #[test]
    fn zero_budget_error_is_max_value() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let r = exhaustive_1d(&tree, &EXAMPLE, 0, ErrorMetric::absolute());
        assert_eq!(r.objective, 5.0);
        assert!(r.synopsis.is_empty());
    }

    #[test]
    fn objective_monotone_in_budget() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let metric = ErrorMetric::relative(1.0);
        let mut prev = f64::INFINITY;
        for b in 0..=6 {
            let r = exhaustive_1d(&tree, &EXAMPLE, b, metric);
            assert!(r.objective <= prev + 1e-12, "b={b}");
            prev = r.objective;
        }
    }

    #[test]
    fn greedy_matches_l2_oracle() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        for b in 0..=5 {
            let greedy = crate::greedy::greedy_l2_1d(&tree, b);
            let greedy_rmse = crate::metric::rmse(&EXAMPLE, &greedy.reconstruct());
            let oracle = exhaustive_l2_1d(&tree, &EXAMPLE, b);
            assert!(
                (greedy_rmse - oracle.objective).abs() < 1e-9,
                "b={b}: {greedy_rmse} vs {}",
                oracle.objective
            );
        }
    }

    #[test]
    fn nd_oracle_small() {
        use wsyn_haar::nd::{NdArray, NdShape};
        let shape = NdShape::hypercube(2, 2).unwrap();
        let data = vec![4.0, 0.0, 0.0, 0.0];
        let tree = ErrorTreeNd::from_data(&NdArray::new(shape, data.clone()).unwrap()).unwrap();
        let r = exhaustive_nd(&tree, &data, 4, ErrorMetric::absolute());
        assert_eq!(r.objective, 0.0);
        let r0 = exhaustive_nd(&tree, &data, 0, ErrorMetric::absolute());
        assert_eq!(r0.objective, 4.0);
    }
}
