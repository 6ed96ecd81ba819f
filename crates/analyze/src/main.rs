//! `wsyn-analyze` — the workspace determinism-and-robustness analyzer.
//!
//! ```text
//! wsyn-analyze check [--root DIR] [--json]   # scan; nonzero exit on
//!                                            # non-baselined findings
//! wsyn-analyze list-rules                    # print the rule table
//! ```
//!
//! `--json` prints the full canonical report (schema
//! `wsyn-analyze-report/1`, byte-identical run-to-run) instead of
//! human-readable lines. Either way the exit code reflects only
//! findings *not* covered by the committed baseline at
//! `crates/analyze/baseline.json` (absent file = empty baseline).
//!
//! CI runs `cargo run -p wsyn-analyze -- check --json` alongside rustfmt
//! and clippy; see `.github/workflows/ci.yml`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wsyn_analyze::engine::{fresh_findings, Baseline};
use wsyn_analyze::{check_tree, Rule, ALL_RULES};

const USAGE: &str = "usage: wsyn-analyze <check [--root DIR] [--json] | list-rules>";

/// Workspace-relative location of the committed baseline.
const BASELINE_PATH: &str = "crates/analyze/baseline.json";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("check") => check(&argv[1..]),
        Some("list-rules") => {
            for rule in ALL_RULES {
                println!("{}", rule.id());
                println!("    {}", rule.describe());
                println!("    scope: {}", rule.scope_note());
            }
            Ok(true)
        }
        _ => Err("expected a subcommand".to_string()),
    }
}

/// Locates the workspace root: `--root` if given, else the current
/// directory if it holds a `Cargo.toml`, else the workspace this binary
/// was compiled from (compile-time constant — no environment reads at
/// run time beyond the CLI).
fn find_root(argv: &[String]) -> Result<PathBuf, String> {
    match argv {
        [] => {}
        [flag, dir] if flag == "--root" => return Ok(PathBuf::from(dir)),
        _ => return Err(format!("unrecognized arguments: {argv:?}")),
    }
    if Path::new("Cargo.toml").exists() {
        return Ok(PathBuf::from("."));
    }
    let compiled_from = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled_from.join("Cargo.toml").exists() {
        return Ok(compiled_from);
    }
    Err("no Cargo.toml here; pass --root <workspace-dir>".to_string())
}

fn check(argv: &[String]) -> Result<bool, String> {
    let mut rest: Vec<String> = Vec::new();
    let mut json = false;
    for arg in argv {
        if arg == "--json" {
            json = true;
        } else {
            rest.push(arg.clone());
        }
    }
    let root = find_root(&rest)?;
    let report = check_tree(&root).map_err(|e| format!("scan failed: {e}"))?;
    let baseline_file = root.join(BASELINE_PATH);
    let baseline = if baseline_file.exists() {
        let text = std::fs::read_to_string(&baseline_file)
            .map_err(|e| format!("reading {BASELINE_PATH}: {e}"))?;
        Baseline::parse(&text).map_err(|e| format!("parsing {BASELINE_PATH}: {e}"))?
    } else {
        Baseline::empty()
    };
    let fresh = fresh_findings(&report, &baseline);

    if json {
        // Canonical full report; baselining affects the exit code only.
        print!("{}", report.to_json());
        return Ok(fresh.is_empty());
    }

    for d in &fresh {
        println!("{d}");
    }
    let baselined = report.diagnostics.len() - fresh.len();
    if fresh.is_empty() {
        println!(
            "wsyn-analyze: clean ({} files scanned, {} baselined finding(s))",
            report.files_scanned, baselined
        );
        Ok(true)
    } else {
        let mut by_rule: Vec<(Rule, usize)> = Vec::new();
        for d in &fresh {
            match by_rule.iter_mut().find(|(r, _)| *r == d.rule) {
                Some((_, n)) => *n += 1,
                None => by_rule.push((d.rule, 1)),
            }
        }
        let summary: Vec<String> = by_rule
            .iter()
            .map(|(r, n)| format!("{} {}", n, r.id()))
            .collect();
        println!(
            "wsyn-analyze: {} violation(s) [{}] in {} files scanned ({} baselined)",
            fresh.len(),
            summary.join(", "),
            report.files_scanned,
            baselined
        );
        Ok(false)
    }
}
