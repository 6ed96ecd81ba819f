//! Property-based cross-crate invariants (proptest): the structural facts
//! the paper's analysis rests on, checked on random data.

// Test code is exempt from the narrowing-cast lints.
#![allow(clippy::cast_possible_truncation)]

use proptest::prelude::*;
use wavelet_synopses::haar::ErrorTree1d;
use wavelet_synopses::synopsis::greedy::greedy_l2_1d;
use wavelet_synopses::synopsis::one_dim::MinMaxErr;
use wavelet_synopses::synopsis::prop33;
use wavelet_synopses::synopsis::{rmse, ErrorMetric, Synopsis1d};

fn pow2_data(max_exp: u32) -> impl Strategy<Value = Vec<f64>> {
    (1u32..=max_exp).prop_flat_map(|m| {
        proptest::collection::vec((-500i32..500).prop_map(f64::from), 1usize << m)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MinMaxErr's objective lower-bounds every explicitly enumerated
    /// alternative of the same size (spot-checks optimality beyond the
    /// exhaustive-oracle unit tests).
    #[test]
    fn minmaxerr_beats_random_subsets(data in pow2_data(4), b in 0usize..6, seed in 0u64..1000) {
        let solver = MinMaxErr::new(&data).unwrap();
        let metric = ErrorMetric::absolute();
        let opt = solver.run(b, metric).objective;
        // A deterministic pseudo-random subset of size <= b.
        let tree = solver.tree();
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut idx = Vec::new();
        for _ in 0..b {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            idx.push((x as usize) % data.len());
        }
        let s = Synopsis1d::from_indices(tree, &idx);
        let err = s.max_error(&data, metric);
        prop_assert!(opt <= err + 1e-9, "opt {opt} vs random subset {err}");
    }

    /// Proposition 3.3 as a universal invariant: any synopsis's max
    /// absolute error is at least its largest dropped |coefficient|.
    #[test]
    fn prop33_lower_bound(data in pow2_data(4), mask in any::<u32>()) {
        let tree = ErrorTree1d::from_data(&data).unwrap();
        let idx: Vec<usize> = (0..data.len()).filter(|&j| mask >> (j % 32) & 1 == 1).collect();
        let s = Synopsis1d::from_indices(&tree, &idx);
        let bound = prop33::max_dropped_abs_1d(&tree, &s);
        let err = s.max_error(&data, ErrorMetric::absolute());
        prop_assert!(err >= bound - 1e-9, "{err} < {bound}");
    }

    /// Greedy keeps its classical L2 crown: MinMaxErr (optimized for max
    /// error) never achieves strictly better RMSE than greedy L2.
    #[test]
    fn greedy_wins_on_rmse(data in pow2_data(4), b in 1usize..8) {
        let tree = ErrorTree1d::from_data(&data).unwrap();
        let g = greedy_l2_1d(&tree, b);
        let g_rmse = rmse(&data, &g.reconstruct());
        let det = MinMaxErr::new(&data).unwrap().run(b, ErrorMetric::absolute());
        let det_rmse = rmse(&data, &det.synopsis.reconstruct());
        prop_assert!(g_rmse <= det_rmse + 1e-9, "greedy {g_rmse} vs minmax {det_rmse}");
    }

    /// …and symmetrically MinMaxErr never loses on its own metric.
    #[test]
    fn minmaxerr_wins_on_max_error(data in pow2_data(4), b in 1usize..8) {
        let tree = ErrorTree1d::from_data(&data).unwrap();
        let metric = ErrorMetric::absolute();
        let g_err = greedy_l2_1d(&tree, b).max_error(&data, metric);
        let det = MinMaxErr::new(&data).unwrap().run(b, metric);
        prop_assert!(det.objective <= g_err + 1e-9);
    }

    /// Sanity-bound semantics: growing `s` can only decrease the optimal
    /// relative-error objective (denominators grow pointwise).
    #[test]
    fn sanity_bound_monotonicity(data in pow2_data(3), b in 0usize..5) {
        let solver = MinMaxErr::new(&data).unwrap();
        let lo = solver.run(b, ErrorMetric::relative(0.5)).objective;
        let hi = solver.run(b, ErrorMetric::relative(50.0)).objective;
        prop_assert!(hi <= lo + 1e-9, "s=50 gave {hi} > s=0.5 gave {lo}");
    }

    /// Scale equivariance of absolute error: scaling the data by k scales
    /// the optimal absolute objective by |k| (same retained indices are
    /// optimal).
    #[test]
    fn absolute_error_scale_equivariance(data in pow2_data(3), b in 0usize..5, k in 1i32..20) {
        let k = f64::from(k);
        let scaled: Vec<f64> = data.iter().map(|&v| v * k).collect();
        let o1 = MinMaxErr::new(&data).unwrap().run(b, ErrorMetric::absolute()).objective;
        let o2 = MinMaxErr::new(&scaled).unwrap().run(b, ErrorMetric::absolute()).objective;
        prop_assert!((o2 - k * o1).abs() <= 1e-6 * (1.0 + o2.abs()), "{o2} vs {k}*{o1}");
    }
}
