//! End-to-end conformance: the golden corpus, the cross-oracle check,
//! and a seeded sweep round — the same gates CI runs via the CLI, held
//! here as `cargo test` assertions so `--workspace` runs catch drift
//! without invoking the binary.

use wsyn_conform::gen::{generate, Kind};
use wsyn_conform::{checks, corpus, oracle};
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::ErrorMetric;

/// Acceptance criterion: every golden instance passes the full
/// differential suite, and each one certifies Theorem 3.2's additive
/// deviation against the brute-force oracle (not merely against the
/// exact DP).
#[test]
fn golden_corpus_passes_and_certifies_thm32_against_oracle() {
    let docs = corpus::load_dir(&corpus::default_dir()).expect("corpus directory loads");
    assert!(
        docs.len() >= 8,
        "expected the full corpus, got {}",
        docs.len()
    );
    for (path, doc) in &docs {
        let sum = corpus::check_doc(doc)
            .unwrap_or_else(|f| panic!("{} fails conformance: {f}", path.display()));
        assert!(
            sum.thm32_vs_oracle > 0,
            "{}: no Theorem 3.2 bound was certified against the oracle",
            path.display()
        );
    }
}

/// The corpus on disk is exactly what `bless` would write today: any
/// solver change that moves an objective or retained set must re-bless.
#[test]
fn corpus_on_disk_matches_freshly_computed_expectations() {
    let docs = corpus::load_dir(&corpus::default_dir()).expect("corpus directory loads");
    for (path, doc) in &docs {
        let fresh = corpus::compute_expected(&doc.instance)
            .unwrap_or_else(|f| panic!("{}: {f}", path.display()));
        assert_eq!(
            doc.expected,
            fresh,
            "{}: stale golden output (run `wsyn-conform bless`)",
            path.display()
        );
    }
}

/// The conform crate's combination-enumeration oracle and the synopsis
/// crate's power-set oracle are independent implementations; they must
/// agree exactly on instances both can afford.
#[test]
fn conform_oracle_matches_synopsis_exhaustive_oracle() {
    let datasets: [&[f64]; 3] = [
        &[2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0],
        &[7.0, -7.0, 7.0, -7.0, 5.0, 5.0, -5.0, -5.0],
        &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -9.0],
    ];
    let budgets: Vec<usize> = (0..=8).collect();
    for data in datasets {
        let solver = MinMaxErr::new(data).expect("power-of-two length");
        for metric in [ErrorMetric::absolute(), ErrorMetric::relative(1.0)] {
            let ours = oracle::optimal_1d(
                solver.tree(),
                data,
                &budgets,
                metric,
                oracle::DEFAULT_MAX_EVALS,
            )
            .expect("8-cell instances are affordable");
            for (&b, &objective) in budgets.iter().zip(&ours) {
                let theirs = wsyn_synopsis::oracle::exhaustive_1d(solver.tree(), data, b, metric);
                assert!(
                    (objective - theirs.objective).abs() < 1e-12,
                    "{data:?} b={b} {metric:?}: conform {objective} vs synopsis {}",
                    theirs.objective
                );
            }
        }
    }
}

/// One round of the seeded differential sweep — the generator kinds all
/// produce valid instances and every one passes the full suite.
#[test]
fn seeded_sweep_round_is_green() {
    for kind in Kind::ALL {
        let inst = generate(kind, 2004);
        let sum = checks::check_instance(&inst)
            .unwrap_or_else(|f| panic!("kind {} seed 2004: {f}", kind.id()));
        assert!(sum.checks > 0);
    }
}

/// Generators are pure functions of `(kind, seed)`.
#[test]
fn generators_are_deterministic_and_seed_sensitive() {
    for kind in Kind::ALL {
        assert_eq!(generate(kind, 7), generate(kind, 7));
        assert_ne!(
            generate(kind, 7).data,
            generate(kind, 8).data,
            "kind {} ignores its seed",
            kind.id()
        );
    }
}

/// A corpus doc survives the JSON round trip bit for bit — objectives
/// included (the writer emits shortest-roundtrip floats).
#[test]
fn corpus_doc_json_roundtrips() {
    for inst in corpus::default_corpus() {
        let doc = corpus::CorpusDoc {
            expected: corpus::compute_expected(&inst).expect("corpus instances pass"),
            instance: inst,
        };
        let text = corpus::doc_to_json(&doc).pretty();
        let back = corpus::doc_from_json(&wsyn_core::json::Value::parse(&text).expect("valid"))
            .expect("roundtrip parses");
        assert_eq!(back.instance, doc.instance);
        assert_eq!(back.expected, doc.expected);
    }
}

/// An instance whose metric list holds an invalid sanity bound is
/// rejected when it is parsed, not later when a check runs it.
#[test]
fn invalid_sanity_bound_is_a_parse_error() {
    let mut inst = corpus::default_corpus().remove(0);
    inst.metrics = vec![ErrorMetric::absolute()];
    let text = inst.to_json().pretty();
    for bad in ["rel:0", "rel:-1", "rel:nan", "rel:inf"] {
        let edited = text.replace("\"abs\"", &format!("\"{bad}\""));
        let value = wsyn_core::json::Value::parse(&edited).expect("valid JSON");
        let err = wsyn_conform::gen::Instance::from_json(&value)
            .expect_err("an invalid sanity bound must not parse");
        assert!(err.contains("sanity"), "{bad}: {err}");
    }
}
