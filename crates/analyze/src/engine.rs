//! Workspace walking and the two-level analysis pipeline.
//!
//! The walk is deterministic — directory entries are sorted byte-wise —
//! so diagnostic output is byte-identical run-to-run (the tool practices
//! what it preaches). `target/` and dot-directories are skipped;
//! `vendor/` is walked but exempt: [`crate::rules::Scope::classify`]
//! disarms every per-file rule there, and vendor files are excluded from
//! the call graph so stand-in internals can neither taint nor be
//! flagged.
//!
//! Passes, in order:
//!
//! 1. **Per-file token rule** ([`crate::rules::check_source`]) —
//!    `float-eq`.
//! 2. **Per-file AST rules** ([`crate::rules::check_ast`]) —
//!    `pool-capture`, `atomic-ordering`, `mutex-poison`,
//!    `threshold-surface` over the [`crate::parse`] tree.
//! 3. **Workspace pass** — the [`crate::taint`] dataflow analysis over
//!    the [`crate::callgraph`]. Its diagnostics are filtered through the
//!    same per-file `// wsyn: allow(<rule>)` table as everything else.
//!
//! [`Report::to_json`] renders canonical bytes via `wsyn_core::json`
//! (schema `wsyn-analyze-report/1`); [`Baseline`] holds the committed
//! accepted findings (schema `wsyn-analyze-baseline/1`) that CI
//! subtracts before failing.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use wsyn_core::json::{object, Value};

use crate::callgraph::CallGraph;
use crate::lexer::lex;
use crate::parse::{self, File};
use crate::rules::{self, check_source, Diagnostic, Rule, Scope};
use crate::taint;

/// Outcome of a full-tree scan.
#[derive(Debug)]
pub struct Report {
    /// All violations, sorted by `(path, line, rule, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Canonical JSON bytes (schema `wsyn-analyze-report/1`), identical
    /// run-to-run: the walk is sorted, the diagnostics are sorted, and
    /// `wsyn_core::json` writes deterministically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let findings: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                object(vec![
                    ("path", Value::String(d.path.clone())),
                    ("line", Value::Number(f64::from(d.line))),
                    ("rule", Value::String(d.rule.id().to_string())),
                    ("message", Value::String(d.message.clone())),
                ])
            })
            .collect();
        let doc = object(vec![
            ("schema", Value::String("wsyn-analyze-report/1".to_string())),
            (
                "files_scanned",
                Value::Number(f64::from(
                    u32::try_from(self.files_scanned).unwrap_or(u32::MAX),
                )),
            ),
            ("findings", Value::Array(findings)),
        ]);
        let mut out = doc.pretty();
        out.push('\n');
        out
    }
}

/// The committed set of accepted findings (schema
/// `wsyn-analyze-baseline/1`): CI fails only on findings *not* listed
/// here. Matching is on `(path, rule)` — line numbers churn with every
/// edit and would make the baseline a merge-conflict magnet.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: Vec<(String, String)>,
}

impl Baseline {
    /// The empty baseline (no accepted findings).
    #[must_use]
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Parses baseline JSON.
    ///
    /// # Errors
    /// Returns a message on malformed JSON, a wrong `schema` field, or
    /// entries missing `path`/`rule`.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Value::parse(text)?;
        match doc.get("schema").and_then(Value::as_str) {
            Some("wsyn-analyze-baseline/1") => {}
            other => return Err(format!("unsupported baseline schema {other:?}")),
        }
        let findings = doc
            .get("findings")
            .and_then(Value::as_array)
            .ok_or("baseline has no findings array")?;
        let mut entries = Vec::new();
        for f in findings {
            let path = f
                .get("path")
                .and_then(Value::as_str)
                .ok_or("baseline finding missing path")?;
            let rule = f
                .get("rule")
                .and_then(Value::as_str)
                .ok_or("baseline finding missing rule")?;
            if Rule::from_id(rule).is_none() {
                return Err(format!("baseline names unknown rule {rule:?}"));
            }
            entries.push((path.to_string(), rule.to_string()));
        }
        Ok(Baseline { entries })
    }

    /// Whether a diagnostic is covered by the baseline.
    #[must_use]
    pub fn covers(&self, d: &Diagnostic) -> bool {
        self.entries
            .iter()
            .any(|(p, r)| p == &d.path && r == d.rule.id())
    }

    /// Number of accepted entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The diagnostics in `report` not covered by `baseline`.
#[must_use]
pub fn fresh_findings<'r>(report: &'r Report, baseline: &Baseline) -> Vec<&'r Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| !baseline.covers(d))
        .collect()
}

/// Directory names never descended into.
fn skip_dir(name: &str) -> bool {
    name == "target" || name.starts_with('.')
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if !skip_dir(&name) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace-relative `/`-separated form of `path` under `root`.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Runs only the workspace taint pass under an explicit allowlist.
///
/// This is the negative-test hook: the conformance test deletes each
/// [`taint::TAINT_ALLOWLIST`] entry in turn and asserts the scan then
/// produces a finding, proving every entry (and the analysis itself) is
/// live. Allow comments are *not* consulted — the sanctioned sites are
/// exactly the allowlist.
///
/// # Errors
/// Propagates I/O failures from the directory walk or file reads.
pub fn taint_findings(root: &Path, allow: &[taint::AllowEntry]) -> io::Result<Vec<Diagnostic>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    let mut parsed: Vec<(String, File)> = Vec::new();
    for path in &paths {
        let rel = rel_path(root, path);
        if Scope::classify(&rel).is_none() {
            continue;
        }
        let src = fs::read_to_string(path)?;
        parsed.push((rel, parse::parse_source(&src)));
    }
    let graph = CallGraph::build(&parsed);
    Ok(taint::check_with_allowlist(&parsed, &graph, allow))
}

/// Scans every `.rs` file under `root`: per-file token and AST rules,
/// then the workspace taint pass over the call graph.
///
/// # Errors
/// Propagates I/O failures from the directory walk or file reads.
pub fn check_tree(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let src = fs::read_to_string(path)?;
        sources.push((rel_path(root, path), src));
    }

    let mut diagnostics = Vec::new();
    // Per-file passes: the token rule, then AST rules. Each handles its
    // own allow comments.
    for (rel, src) in &sources {
        diagnostics.extend(check_source(rel, src));
        diagnostics.extend(rules::check_ast(rel, src));
    }

    // Workspace pass, over non-vendor files only: the stand-ins cannot
    // generate taint.
    let mut parsed: Vec<(String, File)> = Vec::new();
    let mut allows: BTreeMap<String, rules::Allows> = BTreeMap::new();
    for (rel, src) in &sources {
        if Scope::classify(rel).is_none() {
            continue;
        }
        let tokens = lex(src);
        allows.insert(rel.clone(), rules::Allows::collect(&tokens));
        parsed.push((rel.clone(), parse::parse_tokens(&tokens)));
    }
    let graph = CallGraph::build(&parsed);
    for d in taint::check(&parsed, &graph) {
        let covered = allows
            .get(&d.path)
            .is_some_and(|a| a.covers(d.line, d.rule));
        if !covered {
            diagnostics.push(d);
        }
    }

    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    diagnostics.dedup();
    Ok(Report {
        diagnostics,
        files_scanned: sources.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_canonical_and_parses() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                path: "crates/core/src/lib.rs".to_string(),
                line: 7,
                rule: Rule::TaintFlow,
                message: "demo".to_string(),
            }],
            files_scanned: 3,
        };
        let text = report.to_json();
        assert!(text.ends_with('\n'));
        let doc = Value::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("wsyn-analyze-report/1")
        );
        assert_eq!(doc.get("files_scanned").and_then(Value::as_usize), Some(3));
        let findings = doc.get("findings").and_then(Value::as_array).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(Value::as_str),
            Some("taint-flow")
        );
        // Byte-identical re-rendering.
        assert_eq!(text, report.to_json());
    }

    #[test]
    fn baseline_roundtrip_and_matching() {
        let b = Baseline::parse(
            "{\"schema\":\"wsyn-analyze-baseline/1\",\"findings\":[\
             {\"path\":\"crates/core/src/lib.rs\",\"rule\":\"taint-flow\"}]}",
        )
        .expect("baseline parses");
        assert_eq!(b.len(), 1);
        let hit = Diagnostic {
            path: "crates/core/src/lib.rs".to_string(),
            line: 99,
            rule: Rule::TaintFlow,
            message: "m".to_string(),
        };
        assert!(b.covers(&hit));
        let miss = Diagnostic {
            rule: Rule::FloatEq,
            ..hit.clone()
        };
        assert!(!b.covers(&miss));
        let report = Report {
            diagnostics: vec![hit, miss],
            files_scanned: 1,
        };
        assert_eq!(fresh_findings(&report, &b).len(), 1);
        assert!(Baseline::empty().is_empty());
    }

    #[test]
    fn baseline_rejects_bad_schema_and_unknown_rules() {
        assert!(Baseline::parse("{\"schema\":\"nope\",\"findings\":[]}").is_err());
        assert!(Baseline::parse(
            "{\"schema\":\"wsyn-analyze-baseline/1\",\"findings\":[\
             {\"path\":\"x.rs\",\"rule\":\"bogus\"}]}"
        )
        .is_err());
    }
}
