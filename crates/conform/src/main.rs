//! `wsyn-conform` — the conformance harness CLI.
//!
//! ```text
//! wsyn-conform check  [--corpus DIR] [--report PATH]   golden corpus + differential suite
//! wsyn-conform bless  [--corpus DIR]                   rewrite the corpus expectations
//! wsyn-conform sweep  [--seed N] [--rounds N]          seeded differential sweep
//! wsyn-conform shrink --file PATH                      minimize a failing instance file
//! wsyn-conform server-identity [--corpus DIR] [--answers PATH]
//!                                                      corpus answer stream via wsyn-serve
//! wsyn-conform streaming-approx [--corpus DIR] [--seed N] [--rounds N] [--report PATH]
//!                                                      one-pass streaming builder family
//! wsyn-conform family-race [--corpus DIR] [--seed N] [--rounds N] [--report PATH]
//!                                                      wavelet vs histogram race + server auto picks
//! ```
//!
//! `server-identity` drives every 1-D corpus instance through an
//! in-process `wsyn-serve` server and prints (or writes, with
//! `--answers PATH`) the deterministic response transcript; CI captures
//! it under `WSYN_POOL_THREADS=1` and `=4` and requires a byte-identical
//! diff.
//!
//! `check` prints one span line per corpus doc (the per-family span tree
//! recorded by the observability layer) and, with `--report PATH`,
//! writes the full JSON run report for the whole pass.
//!
//! Exit status 0 means every check passed. Failures print the check id,
//! the offending instance (minimized by the shrinker where possible) and
//! the violated bound. Everything is deterministic: a sweep is described
//! entirely by `(seed, rounds)`, so CI failures replay locally verbatim.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use wsyn_conform::gen::{generate, Instance, Kind};
use wsyn_conform::{checks, corpus, shrink, Failure};
use wsyn_core::json::Value;
use wsyn_core::WsynError;
use wsyn_obs::{Collector, SpanNode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("wsyn-conform: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  wsyn-conform check  [--corpus DIR] [--report PATH]
  wsyn-conform bless  [--corpus DIR]
  wsyn-conform sweep  [--seed N] [--rounds N]
  wsyn-conform shrink --file PATH
  wsyn-conform server-identity [--corpus DIR] [--answers PATH]
  wsyn-conform streaming-approx [--corpus DIR] [--seed N] [--rounds N] [--report PATH]
  wsyn-conform family-race [--corpus DIR] [--seed N] [--rounds N] [--report PATH]";

fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, WsynError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.clone()))
            .ok_or_else(|| WsynError::invalid(format!("{flag} needs a value"))),
    }
}

fn corpus_dir(args: &[String]) -> Result<PathBuf, WsynError> {
    Ok(flag_value(args, "--corpus")?.map_or_else(corpus::default_dir, PathBuf::from))
}

fn run(args: &[String]) -> Result<bool, WsynError> {
    let Some(cmd) = args.first() else {
        return Err(WsynError::invalid("missing command"));
    };
    match cmd.as_str() {
        "check" => cmd_check(&args[1..]),
        "bless" => cmd_bless(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "shrink" => cmd_shrink(&args[1..]),
        "server-identity" => cmd_server_identity(&args[1..]),
        "streaming-approx" => cmd_streaming_approx(&args[1..]),
        "family-race" => cmd_family_race(&args[1..]),
        other => Err(WsynError::invalid(format!("unknown command `{other}`"))),
    }
}

/// Shrinks the failing instance (predicate: the differential suite still
/// fails) and prints the failure plus the minimized reproducer.
fn report_failure(failure: &Failure, inst: &Instance) {
    println!("FAIL {failure}");
    let minimized = shrink::shrink(inst, |c| checks::check_instance(c).is_err(), 2_000);
    if let Err(min_failure) = checks::check_instance(&minimized) {
        println!("minimized reproducer ({}):", min_failure.check);
        println!("{}", minimized.to_json().pretty());
    } else {
        // The shrinker only visits failing variants, so reaching a
        // passing minimum means the failure was outside check_instance
        // (e.g. a golden-output mismatch); report the original.
        println!("reproducer:");
        println!("{}", inst.to_json().pretty());
    }
}

/// One line per child span of a doc's tree:
/// `name{counter=v,...}` with nested children in parentheses.
fn span_line(node: &SpanNode) -> String {
    let mut parts: Vec<String> = node
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .chain(node.gauges.iter().map(|(k, v)| format!("{k}^={v}")))
        .collect();
    let kids: Vec<String> = node.children.iter().map(span_line).collect();
    if !kids.is_empty() {
        parts.push(format!("({})", kids.join(" ")));
    }
    if parts.is_empty() {
        node.name.clone()
    } else {
        format!("{}{{{}}}", node.name, parts.join(","))
    }
}

fn cmd_check(args: &[String]) -> Result<bool, WsynError> {
    let dir = corpus_dir(args)?;
    let report_path = flag_value(args, "--report")?;
    let docs = corpus::load_dir(&dir)?;
    if docs.is_empty() {
        return Err(WsynError::invalid(format!(
            "no corpus files in {} (run `bless` first)",
            dir.display()
        )));
    }
    let obs = Collector::recording();
    let mut total = 0usize;
    let mut thm32 = 0usize;
    for (path, doc) in &docs {
        let doc_obs = Collector::recording();
        match corpus::check_doc_observed(doc, &doc_obs) {
            Ok(sum) => {
                total += sum.checks;
                thm32 += sum.thm32_vs_oracle;
                println!(
                    "ok   {} ({} checks, {} Thm 3.2 oracle certifications)",
                    path.display(),
                    sum.checks,
                    sum.thm32_vs_oracle
                );
                if let Some(mut tree) = doc_obs.into_root() {
                    tree.name = doc.instance.name.clone();
                    println!(
                        "     spans: {}",
                        tree.children
                            .iter()
                            .map(span_line)
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                    obs.attach(tree);
                }
            }
            Err(failure) => {
                report_failure(&failure, &doc.instance);
                return Ok(false);
            }
        }
    }
    println!(
        "corpus clean: {} instances, {total} checks, {thm32} Theorem 3.2 bounds certified against the brute-force oracle",
        docs.len()
    );
    if let Some(path) = report_path {
        let meta = vec![
            (
                "tool".to_string(),
                Value::String("wsyn-conform check".to_string()),
            ),
            ("instances".to_string(), Value::Number(docs.len() as f64)),
        ];
        let report = obs
            .report(meta)
            .ok_or_else(|| WsynError::invalid("recording collector lost"))?;
        std::fs::write(&path, report.render()).map_err(|e| WsynError::io(&path, e.to_string()))?;
        println!("report written to {path}");
    }
    Ok(true)
}

fn cmd_bless(args: &[String]) -> Result<bool, WsynError> {
    let dir = corpus_dir(args)?;
    let written = corpus::bless_dir(&dir)?;
    println!("blessed {written} corpus files into {}", dir.display());
    Ok(true)
}

fn cmd_sweep(args: &[String]) -> Result<bool, WsynError> {
    let seed: u64 = flag_value(args, "--seed")?.map_or(Ok(2004), |v| {
        v.parse()
            .map_err(|e| WsynError::invalid(format!("bad --seed `{v}`: {e}")))
    })?;
    let rounds: u64 = flag_value(args, "--rounds")?.map_or(Ok(8), |v| {
        v.parse()
            .map_err(|e| WsynError::invalid(format!("bad --rounds `{v}`: {e}")))
    })?;
    let mut total = 0usize;
    let mut instances = 0usize;
    for round in 0..rounds {
        for kind in Kind::ALL {
            let inst = generate(kind, seed.wrapping_add(round));
            match checks::check_instance(&inst) {
                Ok(sum) => {
                    total += sum.checks;
                    instances += 1;
                }
                Err(failure) => {
                    println!("(round {round}, kind {}, seed {seed})", kind.id());
                    report_failure(&failure, &inst);
                    return Ok(false);
                }
            }
        }
        println!(
            "round {}/{rounds}: {instances} instances, {total} checks, all passing",
            round + 1
        );
    }
    println!("sweep clean: seed {seed}, {rounds} rounds, {instances} instances, {total} checks");
    Ok(true)
}

/// Emits the corpus's deterministic server answer stream (the
/// `server-identity` transcript CI diffs across thread settings).
fn cmd_server_identity(args: &[String]) -> Result<bool, WsynError> {
    let dir = corpus_dir(args)?;
    let answers_path = flag_value(args, "--answers")?;
    let docs = corpus::load_dir(&dir)?;
    if docs.is_empty() {
        return Err(WsynError::invalid(format!(
            "no corpus files in {} (run `bless` first)",
            dir.display()
        )));
    }
    let instances: Vec<&Instance> = docs.iter().map(|(_, doc)| &doc.instance).collect();
    let stream = wsyn_conform::server_identity::answer_stream(&instances)
        .map_err(|f| WsynError::invalid(f.to_string()))?;
    match answers_path {
        Some(path) => {
            std::fs::write(&path, &stream).map_err(|e| WsynError::io(&path, e.to_string()))?;
            println!(
                "server-identity answer stream: {} responses written to {path}",
                stream.lines().count()
            );
        }
        None => print!("{stream}"),
    }
    Ok(true)
}

/// Runs the `streaming-approx` family over every 1-D corpus doc plus a
/// seeded sweep, and prints (or writes, with `--report PATH`) the
/// deterministic transcript CI diffs across `WSYN_POOL_THREADS`
/// settings.
fn cmd_streaming_approx(args: &[String]) -> Result<bool, WsynError> {
    let dir = corpus_dir(args)?;
    let report_path = flag_value(args, "--report")?;
    let seed: u64 = flag_value(args, "--seed")?.map_or(Ok(2004), |v| {
        v.parse()
            .map_err(|e| WsynError::invalid(format!("bad --seed `{v}`: {e}")))
    })?;
    let rounds: u64 = flag_value(args, "--rounds")?.map_or(Ok(4), |v| {
        v.parse()
            .map_err(|e| WsynError::invalid(format!("bad --rounds `{v}`: {e}")))
    })?;
    let docs = corpus::load_dir(&dir)?;
    if docs.is_empty() {
        return Err(WsynError::invalid(format!(
            "no corpus files in {} (run `bless` first)",
            dir.display()
        )));
    }
    let mut owned: Vec<Instance> = docs.into_iter().map(|(_, doc)| doc.instance).collect();
    for round in 0..rounds {
        for kind in Kind::ALL {
            let inst = generate(kind, seed.wrapping_add(round));
            if inst.shape.len() == 1 {
                owned.push(inst);
            }
        }
    }
    let instances: Vec<&Instance> = owned.iter().collect();
    let one_dim = instances.iter().filter(|i| i.shape.len() == 1).count();
    let transcript = wsyn_conform::streaming_approx::report(&instances)
        .map_err(|f| WsynError::invalid(f.to_string()))?;
    match report_path {
        Some(path) => {
            std::fs::write(&path, &transcript).map_err(|e| WsynError::io(&path, e.to_string()))?;
            println!(
                "streaming-approx clean: {one_dim} instances, {} lines written to {path}",
                transcript.lines().count()
            );
        }
        None => print!("{transcript}"),
    }
    Ok(true)
}

/// Races the wavelet and histogram families over every 1-D corpus doc
/// plus seeded zipf/spike/plateau rounds, and prints (or writes, with
/// `--report PATH`) the deterministic transcript — objective bit
/// patterns, oracle certifications, server `auto` picks, per-shape
/// winners — that CI diffs across `WSYN_POOL_THREADS` settings.
fn cmd_family_race(args: &[String]) -> Result<bool, WsynError> {
    let dir = corpus_dir(args)?;
    let report_path = flag_value(args, "--report")?;
    let seed: u64 = flag_value(args, "--seed")?.map_or(Ok(2004), |v| {
        v.parse()
            .map_err(|e| WsynError::invalid(format!("bad --seed `{v}`: {e}")))
    })?;
    let rounds: u64 = flag_value(args, "--rounds")?.map_or(Ok(4), |v| {
        v.parse()
            .map_err(|e| WsynError::invalid(format!("bad --rounds `{v}`: {e}")))
    })?;
    let docs = corpus::load_dir(&dir)?;
    if docs.is_empty() {
        return Err(WsynError::invalid(format!(
            "no corpus files in {} (run `bless` first)",
            dir.display()
        )));
    }
    let mut owned: Vec<Instance> = docs.into_iter().map(|(_, doc)| doc.instance).collect();
    // The race's adversarial shapes: the paper's motivating zipf
    // workload plus the two where one family should dominate (spikes
    // favour wavelets, plateaus favour step functions).
    for round in 0..rounds {
        for kind in [Kind::Zipf, Kind::Spikes, Kind::Plateaus] {
            owned.push(generate(kind, seed.wrapping_add(round)));
        }
    }
    let instances: Vec<&Instance> = owned.iter().collect();
    let one_dim = instances.iter().filter(|i| i.shape.len() == 1).count();
    let transcript = wsyn_conform::family_race::report(&instances)
        .map_err(|f| WsynError::invalid(f.to_string()))?;
    match report_path {
        Some(path) => {
            std::fs::write(&path, &transcript).map_err(|e| WsynError::io(&path, e.to_string()))?;
            println!(
                "family-race clean: {one_dim} instances, {} lines written to {path}",
                transcript.lines().count()
            );
        }
        None => print!("{transcript}"),
    }
    Ok(true)
}

fn cmd_shrink(args: &[String]) -> Result<bool, WsynError> {
    let Some(file) = flag_value(args, "--file")? else {
        return Err(WsynError::invalid("shrink needs --file PATH"));
    };
    let text = std::fs::read_to_string(&file).map_err(|e| WsynError::io(&file, e.to_string()))?;
    let value = Value::parse(&text).map_err(|e| WsynError::io(&file, e))?;
    // Accept either a bare instance or a full corpus doc.
    let inst = match Instance::from_json(&value) {
        Ok(inst) => inst,
        Err(_) => corpus::doc_from_json(&value)
            .map(|d| d.instance)
            .map_err(|e| {
                WsynError::io(&file, format!("neither an instance nor a corpus doc: {e}"))
            })?,
    };
    match checks::check_instance(&inst) {
        Ok(sum) => {
            println!(
                "instance passes ({} checks) — nothing to shrink",
                sum.checks
            );
            Ok(true)
        }
        Err(failure) => {
            report_failure(&failure, &inst);
            Ok(false)
        }
    }
}
