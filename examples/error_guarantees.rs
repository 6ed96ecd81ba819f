//! Per-answer error guarantees — deterministic vs. probabilistic.
//!
//! The paper's core motivation: an L2-optimal synopsis gives *no*
//! per-answer guarantee, a probabilistic synopsis gives a guarantee that
//! holds only with high probability over coin flips, and the deterministic
//! `MinMaxErr` synopsis gives a hard guarantee for every single value.
//! This example drives all three and prints concrete intervals.
//!
//! Run with: `cargo run --release --example error_guarantees`

// Examples are self-checking scripts: like tests, they abort loudly
// on a broken invariant.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavelet_synopses::aqp::bounds;
use wavelet_synopses::datagen::piecewise_constant;
use wavelet_synopses::haar::ErrorTree1d;
use wavelet_synopses::prob::MinRelVar;
use wavelet_synopses::synopsis::greedy::greedy_l2_1d;
use wavelet_synopses::synopsis::one_dim::MinMaxErr;
use wavelet_synopses::synopsis::ErrorMetric;

fn main() {
    let n = 128usize;
    let budget = 10usize;
    let sanity = 1.0;
    let metric = ErrorMetric::relative(sanity);

    // Piecewise-constant data with small flat regions: the case where L2
    // thresholding produces terrible relative errors on the small values.
    let data = piecewise_constant(n, 8, (1.0, 400.0), 0.0, 9);
    let tree = ErrorTree1d::from_data(&data).unwrap();

    let det = MinMaxErr::new(&data).unwrap().run(budget, metric);
    let l2 = greedy_l2_1d(&tree, budget);
    let assignment = MinRelVar::new(&data).unwrap().assign(budget, 8, sanity);

    println!("N = {n}, budget = {budget}, metric = max relative error (s = {sanity})\n");
    println!("deterministic guarantee (MinMaxErr): {:.4}", det.objective);
    println!(
        "greedy-L2 actual max rel err       : {:.4}",
        l2.max_error(&data, metric)
    );

    // Probabilistic: the guarantee varies per coin-flip sequence.
    let mut worst = 0.0f64;
    let mut best = f64::INFINITY;
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = assignment.draw(&mut rng);
        let err = draw.max_error(&data, metric);
        worst = worst.max(err);
        best = best.min(err);
    }
    println!("MinRelVar over 100 draws           : best {best:.4}, worst {worst:.4}");
    println!(
        "\n(\"bad coin flips\": the probabilistic synopsis is sometimes {:.1}x worse\n\
         than the deterministic guarantee)",
        worst / det.objective.max(1e-12)
    );

    // Concrete per-answer intervals from the deterministic synopsis.
    let recon = det.synopsis.reconstruct();
    println!("\nper-answer intervals (first 8 cells, deterministic synopsis):");
    println!(
        "{:<6} {:>10} {:>10} {:>24}",
        "cell", "true", "estimate", "guaranteed interval"
    );
    for i in 0..8 {
        let iv = bounds::point_relative(recon[i], det.objective, sanity);
        println!(
            "{i:<6} {:>10.2} {:>10.2} [{:>9.2}, {:>9.2}]  {}",
            data[i],
            recon[i],
            iv.lo,
            iv.hi,
            if iv.contains(data[i]) {
                "ok"
            } else {
                "VIOLATED"
            }
        );
    }
}
