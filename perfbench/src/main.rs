//! Command line of the benchmark:
//!
//! ```text
//! wsyn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Pins itself to one CPU, then prints a report line (run facts, answers
//! digest, host speed, sample counts, the end-to-end metrics as timed
//! and the workload's own figures), then, as the last line, the result
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics (at the reference host's speed) with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use wsyn_core::json::{object, Value};
use wsyn_perfbench::hostspeed::{pin_to_current_cpu, time_kernel, Kernel, KERNEL_FLAG};
use wsyn_perfbench::{
    failed_ratio, nproc, run_meta, run_workload, span_cost_ms, stats, trace, Metric, Outcome,
    RunSpec, END_TO_END, PER_LAYER, SPAN_FILE_LIMIT,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if map.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |key: &str| {
        map.remove(key)
            .ok_or_else(|| format!("--{key} is required"))
    };
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    object(vec![
                        ("value", Value::Number(m.value)),
                        ("unit", Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Every per-layer metric in catalogue order; layers the workload did
/// not call read 0.
fn per_layer(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .map_or_else(|| Metric::new(name, 0.0, unit), Clone::clone)
        })
        .collect()
}

/// Where the run sits: CPUs before pinning, and the CPU pinned to.
#[derive(Clone, Copy)]
struct Placement {
    nproc: usize,
    pinned: Option<usize>,
}

fn report(
    workload: &str,
    spec: &RunSpec,
    placement: Placement,
    outcome: &Outcome,
    extra: Vec<(&str, Value)>,
) -> Value {
    let e2e = outcome.end_to_end();
    let mut samples = vec![("op_samples", Value::Number(outcome.op_ms.len() as f64))];
    if let Some((p, v)) = stats::extreme_tail(&outcome.op_ms) {
        samples.push(("op_extreme_tail_percentile", Value::Number(p)));
        samples.push(("op_extreme_tail_ms", Value::Number(v)));
    }
    samples.push((
        "op_tail_percentile",
        outcome.tail_percentile().map_or(Value::Null, Value::Number),
    ));
    let mut fields = vec![
        ("report", Value::String("wsyn-perfbench".to_string())),
        ("meta", run_meta(workload, spec, placement.nproc)),
        ("answers_digest", Value::String(outcome.digest.hex())),
        ("failed_ratio", Value::Number(outcome.failed_ratio())),
        (
            "peak_rss_mb",
            outcome
                .peak_rss_mb
                .map_or_else(|| Value::String("unavailable".into()), Value::Number),
        ),
        (
            "host",
            object(vec![
                (
                    "pinned_cpu",
                    placement
                        .pinned
                        .map_or(Value::Null, |c| Value::Number(c as f64)),
                ),
                ("factor", Value::Number(outcome.host_factor())),
                ("kernel_ms_p50", Value::Number(outcome.host.kernel_ms())),
                (
                    "kernel_samples",
                    Value::Number(outcome.host.samples() as f64),
                ),
                (
                    "kernel",
                    Value::String(outcome.host.kernel().name().to_string()),
                ),
                (
                    "reference_ms",
                    Value::Number(outcome.host.kernel().reference_ms()),
                ),
            ]),
        ),
        ("end_to_end", metrics_json(&e2e)),
        ("raw_end_to_end", metrics_json(&outcome.raw_end_to_end())),
        ("workload_metrics", metrics_json(&outcome.named)),
        ("samples", object(samples)),
        ("facts", Value::Object(outcome.notes.clone())),
    ];
    fields.extend(extra);
    object(fields)
}

fn run(args: &Args) -> Result<Value, String> {
    // One CPU, one thread at a time: on a few shared vCPUs, more threads
    // than that time the scheduler and the cross-CPU wake-ups, not the
    // program. Pinning first makes every later thread inherit it.
    let placement = Placement {
        nproc: nproc(),
        pinned: pin_to_current_cpu(),
    };
    let threads = 1;
    // Any worker pool the paths reach sizes itself from this variable;
    // set it so a stray setting cannot change the workload.
    std::env::set_var(wsyn_core::pool::THREADS_ENV, threads.to_string());
    let spec = RunSpec {
        host_kernel: Some(std::env::current_exe().map_err(|e| format!("own path: {e}"))?),
        ..RunSpec::new(args.seed, args.seconds, false, threads)
    };

    if !args.trace {
        let outcome = run_workload(&args.workload, &spec)?;
        if let Some(e) = outcome.host.error() {
            return Err(e.to_string());
        }
        let e2e = outcome.end_to_end();
        println!(
            "{}",
            report(&args.workload, &spec, placement, &outcome, Vec::new()).compact()
        );
        let missing: Vec<&str> = END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !e2e.iter().any(|m| m.name == *n))
            .collect();
        if !missing.is_empty() {
            eprintln!("unavailable metrics: {}", missing.join(", "));
        }
        return Ok(result(&outcome, outcome.failed, outcome.attempted, &e2e));
    }

    // Traced: half the time untraced, half traced, on the same inputs;
    // the difference of the two is the tracing overhead.
    let half = RunSpec {
        seconds: args.seconds / 2.0,
        ..spec.clone()
    };
    let plain = run_workload(&args.workload, &half)?;
    let traced_spec = RunSpec {
        trace: true,
        ..half
    };
    let traced = run_workload(&args.workload, &traced_spec)?;
    if let Some(e) = plain.host.error().or(traced.host.error()) {
        return Err(e.to_string());
    }
    let plain_p50 = stats::median(&plain.op_ms);
    let traced_p50 = stats::median(&traced.op_ms);
    let ops: std::collections::BTreeSet<u64> = traced.spans.iter().map(|s| s.op).collect();
    let spans_per_op = traced.spans.len() as f64 / ops.len().max(1) as f64;
    let mut measured = traced.layers.clone();
    measured.extend([
        Metric::new(
            "failed_ratio",
            failed_ratio(
                plain.failed + traced.failed,
                plain.attempted + traced.attempted,
            ),
            "ratio",
        ),
        Metric::new("trace.op_ms_p50", traced_p50, "ms"),
        Metric::new("trace.overhead_ms", traced_p50 - plain_p50, "ms"),
        Metric::new("trace.span_cost_ms", span_cost_ms() * spans_per_op, "ms"),
        Metric::new("trace.spans_per_op", spans_per_op, "count"),
    ]);
    let layers = per_layer(&measured);
    let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written = trace::write_spans(&file, &traced.spans, SPAN_FILE_LIMIT);
    let extra = vec![
        ("untraced_end_to_end", metrics_json(&plain.end_to_end())),
        ("untraced_answers_digest", Value::String(plain.digest.hex())),
        (
            "span_file",
            match written {
                Ok(()) => Value::String(file.display().to_string()),
                Err(e) => Value::String(format!("not written: {e}")),
            },
        ),
        ("per_layer", metrics_json(&layers)),
    ];
    println!(
        "{}",
        report(&args.workload, &traced_spec, placement, &traced, extra).compact()
    );
    Ok(result(
        &traced,
        plain.failed + traced.failed,
        plain.attempted + traced.attempted,
        &layers,
    ))
}

fn result(outcome: &Outcome, failed: u64, attempted: u64, metrics: &[Metric]) -> Value {
    let complete = outcome.peak_rss_mb.is_some();
    object(vec![
        (
            "correct",
            Value::Bool(failed == 0 && attempted > 0 && complete),
        ),
        ("attempted", Value::Number(attempted as f64)),
        ("failed", Value::Number(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// The child-process side of a host-speed sample: times kernel `name`
/// and prints its ms.
fn run_kernel(name: &str) -> ExitCode {
    let timed = Kernel::parse(name)
        .ok_or_else(|| format!("unknown kernel '{name}'"))
        .and_then(time_kernel);
    match timed {
        Ok(ms) => {
            println!("{ms}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, name] = argv.as_slice() {
        if flag == KERNEL_FLAG {
            return run_kernel(name);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
