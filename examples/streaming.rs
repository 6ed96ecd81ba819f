//! Dynamic maintenance: keeping a maximum-error synopsis fresh under a
//! stream of point updates (the setting of Matias, Vitter & Wang's dynamic
//! wavelet histograms, with the deterministic guarantees of this paper).
//!
//! A frequency vector receives 5000 random increments; the adaptive policy
//! tracks a conservative guarantee and re-runs the MinMaxErr DP only when
//! it degrades past 1.5× — every answer in between still carries a valid
//! bound.
//!
//! Run with: `cargo run --release --example streaming`

// Examples are self-checking scripts: like tests, they abort loudly
// on a broken invariant.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavelet_synopses::datagen::{zipf, ZipfPlacement};
use wavelet_synopses::stream::AdaptiveMaxErrSynopsis;
use wavelet_synopses::synopsis::ErrorMetric;

fn main() {
    let n = 128usize;
    let b = 12usize;
    let data = zipf(n, 0.9, 50_000.0, ZipfPlacement::Shuffled, 8);
    let mut adaptive = AdaptiveMaxErrSynopsis::new(&data, b, ErrorMetric::absolute(), 1.5).unwrap();
    println!(
        "initial optimal guarantee (B = {b}): {:.2}\n",
        adaptive.built_objective()
    );

    let mut rng = StdRng::seed_from_u64(77);
    let updates = 5000usize;
    let mut rebuild_points = Vec::new();
    for step in 0..updates {
        let i = rng.gen_range(0..n);
        let delta = f64::from(rng.gen_range(-40i32..=40));
        if adaptive.update(i, delta).unwrap() {
            rebuild_points.push((step, adaptive.built_objective()));
        }
        // Every 1000 steps: verify the conservative guarantee holds.
        if step % 1000 == 999 {
            let true_err = adaptive
                .synopsis()
                .max_error(adaptive.tree().data(), ErrorMetric::absolute());
            println!(
                "step {:>5}: true max abs err {:>9.2} <= guarantee {:>9.2}  (rebuilds so far: {})",
                step + 1,
                true_err,
                adaptive.guarantee(),
                adaptive.rebuilds()
            );
            assert!(true_err <= adaptive.guarantee() + 1e-9);
        }
    }
    println!(
        "\n{} rebuilds over {updates} updates:",
        rebuild_points.len()
    );
    for (step, obj) in rebuild_points.iter().take(12) {
        println!("  rebuilt at update {step:>5}, fresh optimal objective {obj:.2}");
    }
    if rebuild_points.len() > 12 {
        println!("  … and {} more", rebuild_points.len() - 12);
    }
    println!(
        "\nThe DP runs only {} times instead of {updates}; all interim answers keep a valid bound.",
        adaptive.rebuilds() + 1
    );
}
