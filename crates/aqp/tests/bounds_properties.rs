//! Property tests for `wsyn_aqp::bounds`: on random instances, the
//! per-answer intervals derived from a synopsis's guaranteed maximum
//! error must always contain the exact answer — for point queries under
//! both metrics and for range sums of every span. This is the paper's
//! headline claim for deterministic maximum-error synopses, checked
//! against the reconstruction rather than trusted from the DP.
//!
//! The suite runs **generically over both guarantee-providing synopsis
//! families** — the wavelet `MinMaxErr` DP and the `hist` step-function
//! DP — because the interval derivations only consume `(estimate,
//! guaranteed max error)` pairs and must not care which family proved
//! the guarantee.

// Test code is exempt from the panic and narrowing-cast lints: a
// failed `unwrap` is a failed test.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use std::ops::Range;

use proptest::prelude::*;
use wsyn_aqp::bounds::{point_absolute, point_relative, range_sum_absolute};
use wsyn_aqp::{QueryEngine1d, StepEngine};
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::ErrorMetric;

/// Power-of-two-length integer-valued data (dyadic-exact arithmetic, so
/// interval containment failures are genuine logic bugs, not rounding).
fn pow2_data() -> impl Strategy<Value = Vec<f64>> {
    (2u32..=5)
        .prop_flat_map(|log_n| proptest::collection::vec(-50i32..=50, 1usize << log_n))
        .prop_map(|v| v.into_iter().map(f64::from).collect())
}

/// A family-agnostic solved instance: per-point estimates, the family's
/// guaranteed maximum error, and a range-sum oracle over the synopsis.
struct Solved {
    family: &'static str,
    recon: Vec<f64>,
    objective: f64,
    /// Float slack on the guarantee: 0 for the wavelet DP (its
    /// objective is computed with the measured-error expression, so the
    /// bound is bitwise); 1e-9 for the hist family under the relative
    /// metric, whose weighted bucket-value fit is documented to honour
    /// the pairwise-max objective up to rounding.
    relative_slack: f64,
    range_sum: Box<dyn Fn(Range<usize>) -> f64>,
}

/// Solves `data` under both guarantee-providing families at the same
/// budget and metric.
fn solve_both(data: &[f64], b: usize, metric: ErrorMetric) -> Vec<Solved> {
    let wavelet = {
        let r = MinMaxErr::new(data).unwrap().run(b, metric);
        let engine = QueryEngine1d::new(r.synopsis.clone());
        Solved {
            family: "minmax",
            recon: r.synopsis.reconstruct(),
            objective: r.objective,
            relative_slack: 0.0,
            range_sum: Box::new(move |range| engine.range_sum(range)),
        }
    };
    let hist = {
        let denoms: Option<Vec<f64>> = match metric {
            ErrorMetric::Absolute => None,
            ErrorMetric::Relative { .. } => Some(data.iter().map(|&d| metric.denom(d)).collect()),
        };
        let r =
            wsyn_hist::solve(data, denoms.as_deref(), b, wsyn_hist::SplitStrategy::Binary).unwrap();
        let engine = StepEngine::new(r.synopsis.clone());
        Solved {
            family: "hist",
            recon: r.synopsis.reconstruct(),
            objective: r.objective,
            relative_slack: 1e-9,
            range_sum: Box::new(move |range| engine.range_sum(range)),
        }
    };
    vec![wavelet, hist]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn absolute_point_bounds_contain_truth(
        data in pow2_data(),
        b_frac in 0.0f64..=1.0,
    ) {
        let n = data.len();
        let b = ((n as f64) * b_frac) as usize;
        for s in solve_both(&data, b, ErrorMetric::absolute()) {
            for (i, (&d, &est)) in data.iter().zip(&s.recon).enumerate() {
                let iv = point_absolute(est, s.objective);
                prop_assert!(iv.lo <= iv.hi);
                prop_assert!(
                    iv.contains(d),
                    "{} i={} b={}: {:?} excludes true value {} (est {}, e {})",
                    s.family, i, b, iv, d, est, s.objective
                );
            }
        }
    }

    #[test]
    fn relative_point_bounds_contain_truth(
        data in pow2_data(),
        b_frac in 0.0f64..=1.0,
        s in prop_oneof![Just(0.5), Just(1.0), Just(4.0)],
    ) {
        let n = data.len();
        let b = ((n as f64) * b_frac) as usize;
        for solved in solve_both(&data, b, ErrorMetric::relative(s)) {
            for (i, (&d, &est)) in data.iter().zip(&solved.recon).enumerate() {
                let iv = point_relative(est, solved.objective + solved.relative_slack, s);
                prop_assert!(
                    iv.contains(d),
                    "{} i={} b={} s={}: {:?} excludes true value {} (est {}, rho {})",
                    solved.family, i, b, s, iv, d, est, solved.objective
                );
            }
        }
    }

    #[test]
    fn range_sum_bounds_contain_truth(
        data in pow2_data(),
        b_frac in 0.0f64..=1.0,
        span in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let n = data.len();
        let b = ((n as f64) * b_frac) as usize;
        for s in solve_both(&data, b, ErrorMetric::absolute()) {
            // One arbitrary range plus every prefix — prefixes exercise
            // the aggregation walk's boundary cases at cost O(n).
            let lo = ((n as f64) * span.0) as usize % n;
            let hi = lo + (((n - lo) as f64) * span.1) as usize;
            let mut ranges: Vec<(usize, usize)> = (0..=n).map(|e| (0, e)).collect();
            ranges.push((lo, hi.min(n)));
            for (lo, hi) in ranges {
                let est = (s.range_sum)(lo..hi);
                let exact: f64 = data[lo..hi].iter().sum();
                let iv = range_sum_absolute(est, s.objective, hi - lo);
                prop_assert!(
                    iv.contains(exact),
                    "{} [{}, {}) b={}: {:?} excludes exact sum {} (est {})",
                    s.family, lo, hi, b, iv, exact, est
                );
            }
        }
    }

    #[test]
    fn range_sum_bounds_scale_with_span(
        est in -100.0f64..=100.0,
        e in 0.0f64..=10.0,
        len in 0usize..=64,
    ) {
        // Structural invariants of the interval arithmetic itself.
        let iv = range_sum_absolute(est, e, len);
        prop_assert!(iv.contains(est));
        prop_assert!((iv.width() - 2.0 * e * len as f64).abs() < 1e-9);
        let wider = range_sum_absolute(est, e, len + 1);
        prop_assert!(wider.width() >= iv.width());
    }

    #[test]
    fn relative_bounds_tighten_with_rho(
        est in -50.0f64..=50.0,
        s in prop_oneof![Just(0.5), Just(1.0), Just(2.0)],
        rho_lo in 0.0f64..0.5,
        extra in 0.01f64..0.4,
    ) {
        // A weaker guarantee can only widen the interval, and every
        // interval contains its own estimate projected to feasibility.
        let tight = point_relative(est, rho_lo, s);
        let loose = point_relative(est, rho_lo + extra, s);
        prop_assert!(loose.lo <= tight.lo + 1e-9);
        prop_assert!(loose.hi >= tight.hi - 1e-9);
    }
}
