//! Property tests for the one-pass streaming max-error builder: on
//! arbitrary power-of-two vectors, the finalized synopsis must respect
//! its budget, its guarantee must be sound against the actual data, the
//! objective must sit within the quantization bound of the offline
//! `MinMaxErr` optimum, and two passes over the same stream must agree
//! bit for bit.

// Test code is exempt from the panic lints: a failed `expect` or
// `unwrap` is a failed test.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use wsyn_stream::StreamingMaxErr;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::{ErrorMetric, RunParams};

fn instances() -> impl Strategy<Value = (Vec<f64>, usize, f64)> {
    (1u32..=6).prop_flat_map(|m| {
        let n = 1usize << m;
        (
            proptest::collection::vec((-900i32..=900).prop_map(|v| f64::from(v) / 9.0), n),
            0..=(n / 2 + 1),
            prop_oneof![Just(0.5f64), Just(0.25), Just(0.1)],
        )
    })
}

fn stream_build(
    data: &[f64],
    budget: usize,
    eps: f64,
    scale: f64,
) -> wsyn_stream::streaming::StreamRun {
    let params = RunParams::new(budget, ErrorMetric::absolute()).eps(eps);
    let mut builder = StreamingMaxErr::new(data.len(), scale, &params).unwrap();
    builder.push_slice(data).unwrap();
    builder.finalize().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stream_build_is_sound_near_optimal_and_deterministic(
        (data, budget, eps) in instances()
    ) {
        let scale = data.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        let run = stream_build(&data, budget, eps, scale);

        prop_assert!(run.synopsis.len() <= budget, "budget overrun");

        // Soundness: the certified objective dominates the realized
        // maximum absolute error.
        let measured = run.synopsis.max_error(&data, ErrorMetric::absolute());
        prop_assert!(
            measured <= run.objective + 1e-9,
            "unsound: measured {} > objective {}", measured, run.objective
        );

        // Paper-factor near-optimality: the streamed objective exceeds
        // the offline MinMaxErr optimum by at most eps * scale.
        let opt = MinMaxErr::new(&data)
            .unwrap()
            .run(budget, ErrorMetric::absolute())
            .objective;
        prop_assert!(
            run.objective <= opt + eps * scale + 1e-9,
            "approximation bound violated: {} > {} + {}", run.objective, opt, eps * scale
        );

        // Determinism: a second pass over the same stream produces the
        // same objective bits and the same synopsis entries.
        let again = stream_build(&data, budget, eps, scale);
        prop_assert_eq!(run.objective.to_bits(), again.objective.to_bits());
        prop_assert_eq!(run.synopsis.indices(), again.synopsis.indices());
        let a: Vec<(usize, u64)> = run
            .synopsis
            .entries()
            .iter()
            .map(|&(j, c)| (j, c.to_bits()))
            .collect();
        let b: Vec<(usize, u64)> = again
            .synopsis
            .entries()
            .iter()
            .map(|&(j, c)| (j, c.to_bits()))
            .collect();
        prop_assert_eq!(a, b, "retained entries must match bit for bit");
    }

    #[test]
    fn frame_boundaries_never_change_the_result(
        (data, budget, eps) in instances(),
        chunk in 1usize..=7,
    ) {
        // The builder must be oblivious to how the stream is framed:
        // one big push vs. many small pushes, bit-identical results.
        let scale = data.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        let whole = stream_build(&data, budget, eps, scale);

        let params = RunParams::new(budget, ErrorMetric::absolute()).eps(eps);
        let mut builder = StreamingMaxErr::new(data.len(), scale, &params).unwrap();
        for piece in data.chunks(chunk) {
            builder.push_slice(piece).unwrap();
        }
        let framed = builder.finalize().unwrap();

        prop_assert_eq!(whole.objective.to_bits(), framed.objective.to_bits());
        prop_assert_eq!(whole.synopsis.indices(), framed.synopsis.indices());
    }

    #[test]
    fn declared_scale_only_needs_to_dominate_the_data(
        (data, budget, eps) in instances(),
        slack in 1u32..=4,
    ) {
        // Overshooting the scale (a loose a-priori bound, the realistic
        // deployment case) must stay sound — only the guarantee's
        // eps * scale slack widens.
        let tight = data.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        let scale = (tight + 1.0) * f64::from(slack);
        let run = stream_build(&data, budget, eps, scale);
        let measured = run.synopsis.max_error(&data, ErrorMetric::absolute());
        prop_assert!(measured <= run.objective + 1e-9);
        let opt = MinMaxErr::new(&data)
            .unwrap()
            .run(budget, ErrorMetric::absolute())
            .objective;
        prop_assert!(run.objective <= opt + eps * scale + 1e-9);
    }
}
