//! The benchmark's own tests: every workload runs clean at a tiny size
//! through the same code path, host speed is sampled through the
//! benchmark binary, the digest is a function of the seed, a corrupted
//! output is caught, and `BENCHMARK.json` names exactly the metrics the
//! program prints.

use wsyn_core::json::Value;
use wsyn_perfbench::{run_workload, Outcome, RunSpec, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(seed: u64, trace: bool, corrupt: bool) -> RunSpec {
    RunSpec {
        seed,
        seconds: 0.05,
        trace,
        tiny: true,
        corrupt,
        threads: 2,
        host_kernel: None,
    }
}

fn run(workload: &str, spec: &RunSpec) -> Outcome {
    run_workload(workload, spec).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run(workload, &tiny(7, trace, false));
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(out.failed, 0, "{workload} (trace {trace}): failed ops");
            assert!(
                out.op_ms.len() >= 11,
                "{workload}: too few samples for a tail"
            );
            for metric in out.end_to_end() {
                assert!(metric.value > 0.0, "{workload}: {} reads 0", metric.name);
            }
            assert_eq!(!out.spans.is_empty(), trace, "{workload}: spans iff traced");
            for layer in &out.layers {
                assert!(
                    PER_LAYER.iter().any(|&(name, _)| name == layer.name),
                    "{workload}: layer {} is not in the catalogue",
                    layer.name
                );
            }
        }
    }
}

#[test]
fn host_speed_is_sampled_through_the_binary() {
    let binary = std::path::PathBuf::from(env!("CARGO_BIN_EXE_wsyn-perfbench"));
    for workload in WORKLOADS {
        let spec = RunSpec {
            host_kernel: Some(binary.clone()),
            ..tiny(9, false, false)
        };
        let out = run(workload, &spec);
        assert_eq!(out.host.error(), None, "{workload}");
        assert!(out.host.samples() >= 1, "{workload}: no kernel sample");
        assert_eq!(out.op_factor.len(), out.op_ms.len(), "{workload}");
        assert!(out.host_factor() > 0.0, "{workload}");
        for metric in out.end_to_end() {
            assert!(metric.value > 0.0, "{workload}: {} reads 0", metric.name);
        }
    }
}

#[test]
fn digest_depends_on_the_seed_only() {
    for workload in WORKLOADS {
        let a = run(workload, &tiny(3, false, false));
        let b = run(workload, &tiny(3, true, false));
        let c = run(workload, &tiny(4, false, false));
        assert_eq!(
            a.digest, b.digest,
            "{workload}: tracing changed the answers"
        );
        assert_ne!(
            a.digest, c.digest,
            "{workload}: the seed did not change the inputs"
        );
    }
}

#[test]
fn a_corrupted_output_is_counted_and_changes_the_digest() {
    for workload in WORKLOADS {
        let clean = run(workload, &tiny(5, false, false));
        let corrupt = run(workload, &tiny(5, false, true));
        assert_eq!(clean.failed, 0, "{workload}");
        assert!(corrupt.failed >= 1, "{workload}: corruption not caught");
        assert!(corrupt.failed_ratio() > 0.0, "{workload}");
        assert_ne!(
            clean.digest, corrupt.digest,
            "{workload}: digest blind to corruption"
        );
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), expect(&END_TO_END));
    assert_eq!(names("per_layer"), expect(&PER_LAYER));
    for (workload, _) in names("workloads") {
        assert!(
            WORKLOADS.contains(&workload.as_str()),
            "BENCHMARK.json lists '{workload}', which the program cannot run"
        );
    }
}
