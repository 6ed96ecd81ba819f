//! Selectivity estimation over a skewed column — the classic wavelet
//! synopsis application (Matias, Vitter & Wang), upgraded with
//! deterministic maximum-error guarantees.
//!
//! A query optimizer needs `COUNT(*) WHERE lo <= x < hi` estimates from a
//! tiny synopsis. We build the column's frequency vector, threshold it
//! three ways (conventional greedy L2, probabilistic MinRelVar, and the
//! paper's deterministic MinMaxErr), and compare per-query errors.
//!
//! Run with: `cargo run --release --example selectivity`

// Examples are self-checking scripts: like tests, they abort loudly
// on a broken invariant.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavelet_synopses::aqp::QueryEngine1d;
use wavelet_synopses::datagen::{zipf, ZipfPlacement};
use wavelet_synopses::haar::ErrorTree1d;
use wavelet_synopses::prob::MinRelVar;
use wavelet_synopses::synopsis::greedy::greedy_l2_1d;
use wavelet_synopses::synopsis::one_dim::MinMaxErr;
use wavelet_synopses::synopsis::{ErrorMetric, Synopsis1d};

fn main() {
    let domain = 256usize;
    let budget = 16usize;
    let sanity = 1.0;
    let metric = ErrorMetric::relative(sanity);

    // A Zipf(1.0) frequency vector with shuffled placement — skewed and
    // spiky, the regime where L2 synopses break down on relative error.
    let freq = zipf(domain, 1.0, 100_000.0, ZipfPlacement::Shuffled, 42);
    let tree = ErrorTree1d::from_data(&freq).unwrap();

    // Three synopses of identical size.
    let det = MinMaxErr::new(&freq).unwrap().run(budget, metric);
    let l2 = greedy_l2_1d(&tree, budget);
    let prob = {
        let assignment = MinRelVar::new(&freq).unwrap().assign(budget, 8, sanity);
        let mut rng = StdRng::seed_from_u64(7);
        assignment.draw(&mut rng)
    };

    println!("domain {domain}, budget {budget} coefficients, Zipf(1.0) shuffled\n");
    println!(
        "guaranteed max rel err (deterministic MinMaxErr): {:.4}",
        det.objective
    );
    println!(
        "actual     max rel err (greedy L2)             : {:.4}",
        l2.max_error(&freq, metric)
    );
    println!(
        "actual     max rel err (MinRelVar, one draw)   : {:.4}\n",
        prob.max_error(&freq, metric)
    );

    // Random range-count queries.
    let mut rng = StdRng::seed_from_u64(1);
    let queries: Vec<(usize, usize)> = (0..10)
        .map(|_| {
            let lo = rng.gen_range(0..domain - 1);
            let hi = rng.gen_range(lo + 1..=domain);
            (lo, hi)
        })
        .collect();

    let engines: [(&str, Synopsis1d); 3] = [
        ("MinMaxErr", det.synopsis.clone()),
        ("greedy-L2", l2),
        ("MinRelVar", prob),
    ];
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12}",
        "query", "exact", "MinMaxErr", "greedy-L2", "MinRelVar"
    );
    for &(lo, hi) in &queries {
        let exact: f64 = freq[lo..hi].iter().sum();
        let mut row = format!("[{lo:>3}, {hi:>3})  {exact:>12.0}");
        for (_, syn) in &engines {
            let est = QueryEngine1d::new(syn.clone()).range_sum(lo..hi);
            row.push_str(&format!(" {est:>12.0}"));
        }
        println!("{row}");
    }

    println!(
        "\nEvery MinMaxErr point estimate is within {:.2}% of the true\n\
         frequency (relative, sanity bound {sanity}) — by construction, not luck.",
        det.objective * 100.0
    );
}
