//! Quickstart: build a deterministic maximum-error wavelet synopsis.
//!
//! Reproduces the paper's running example (§2.1) end to end: transform,
//! error tree, optimal `MinMaxErr` thresholding, and a comparison against
//! conventional greedy L2 thresholding.
//!
//! Run with: `cargo run --example quickstart`

// Examples are self-checking scripts: like tests, they abort loudly
// on a broken invariant.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use wavelet_synopses::haar::{transform, ErrorTree1d};
use wavelet_synopses::synopsis::greedy::greedy_l2_1d;
use wavelet_synopses::synopsis::one_dim::MinMaxErr;
use wavelet_synopses::synopsis::ErrorMetric;

fn main() {
    // The paper's example data vector (§2.1).
    let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
    println!("data            : {data:?}");

    let coeffs = transform::forward(&data).expect("power-of-two input");
    println!("wavelet transform: {coeffs:?}"); // [2.75, -1.25, 0.5, 0, 0, -1, -1, 0]

    // Equation (1): d_4 = c_0 - c_1 + c_6.
    let tree = ErrorTree1d::from_data(&data).unwrap();
    println!(
        "d_4 via error tree = c_0 - c_1 + c_6 = {} (expected 3)",
        tree.reconstruct(4)
    );

    // Deterministic optimal thresholding for B = 3 coefficients.
    let budget = 3;
    let metric = ErrorMetric::relative(1.0); // sanity bound s = 1
    let solver = MinMaxErr::new(&data).unwrap();
    let result = solver.run(budget, metric);
    println!("\nMinMaxErr, B = {budget}, max relative error (s = 1):");
    println!("  retained coefficients: {:?}", result.synopsis.entries());
    println!("  guaranteed max rel err: {:.4}", result.objective);
    println!(
        "  reconstruction        : {:?}",
        result.synopsis.reconstruct()
    );

    // The conventional L2-optimal baseline retains the largest normalized
    // coefficients instead — optimal for RMSE, not for max error.
    let greedy = greedy_l2_1d(&tree, budget);
    println!("\nGreedy L2, B = {budget}:");
    println!("  retained coefficients: {:?}", greedy.entries());
    println!(
        "  max rel err           : {:.4}",
        greedy.max_error(&data, metric)
    );
    println!(
        "  (MinMaxErr is optimal: {:.4} <= {:.4})",
        result.objective,
        greedy.max_error(&data, metric)
    );
}
