//! Workspace-level conformance for the analyzer itself:
//!
//! * the committed workspace is clean (zero non-baselined findings);
//! * `check --json` output is **byte-identical** across repeated runs
//!   and across `WSYN_POOL_THREADS` settings — the report obeys the
//!   same determinism discipline it enforces;
//! * every [`wsyn_analyze::taint::TAINT_ALLOWLIST`] entry is
//!   load-bearing: deleting any one produces at least one finding, so
//!   the taint analysis is provably live (a silent analysis and a clean
//!   workspace are indistinguishable without this);
//! * `list-rules` documents every rule with a description and scope.

// Test code is exempt from the panic lints: a failed `expect` or
// `unwrap` is a failed test.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

use wsyn_analyze::engine::taint_findings;
use wsyn_analyze::taint::{AllowEntry, TAINT_ALLOWLIST};
use wsyn_analyze::ALL_RULES;

/// The workspace root, from the compile-time manifest location.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run_check_json(threads: Option<&str>) -> (String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wsyn-analyze"));
    cmd.arg("check")
        .arg("--root")
        .arg(workspace_root())
        .arg("--json");
    if let Some(n) = threads {
        cmd.env("WSYN_POOL_THREADS", n);
    }
    let out = cmd.output().expect("wsyn-analyze runs");
    (
        String::from_utf8(out.stdout).expect("report is UTF-8"),
        out.status.success(),
    )
}

#[test]
fn workspace_is_clean_and_json_is_byte_stable() {
    let (first, ok) = run_check_json(None);
    assert!(
        ok,
        "workspace must have zero non-baselined findings:\n{first}"
    );

    // Schema sanity without a JSON dependency: the canonical header.
    assert!(
        first.contains("\"schema\": \"wsyn-analyze-report/1\""),
        "{first}"
    );
    assert!(first.ends_with('\n'));

    // Byte-identical across a second run and across thread settings —
    // the analyzer itself must not read nondeterministic state.
    let (second, _) = run_check_json(None);
    assert_eq!(first, second, "repeated runs must be byte-identical");
    let (one_thread, _) = run_check_json(Some("1"));
    let (four_threads, _) = run_check_json(Some("4"));
    assert_eq!(first, one_thread, "WSYN_POOL_THREADS=1 changed the report");
    assert_eq!(
        first, four_threads,
        "WSYN_POOL_THREADS=4 changed the report"
    );
}

#[test]
fn deleting_any_allowlist_entry_produces_findings() {
    let root = workspace_root();
    // With the full allowlist the workspace taint pass is silent.
    let full = taint_findings(&root, TAINT_ALLOWLIST).expect("scan");
    assert!(
        full.is_empty(),
        "sanctioned sites leaked through the allowlist: {full:?}"
    );

    for (i, entry) in TAINT_ALLOWLIST.iter().enumerate() {
        let truncated: Vec<AllowEntry> = TAINT_ALLOWLIST
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, e)| *e)
            .collect();
        let findings = taint_findings(&root, &truncated).expect("scan");
        assert!(
            !findings.is_empty(),
            "allowlist entry {}::{} ({:?}) is dead weight — deleting it \
             surfaced nothing, so either the site is gone or the analysis \
             is blind to it",
            entry.file,
            entry.func,
            entry.kind
        );
        assert!(
            findings.iter().any(|d| d.path == entry.file),
            "deleting {}::{} produced findings, but none in {}: {findings:?}",
            entry.file,
            entry.func,
            entry.file
        );
    }
}

#[test]
fn list_rules_documents_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_wsyn-analyze"))
        .arg("list-rules")
        .output()
        .expect("wsyn-analyze runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("UTF-8");
    // Exactly the rules clippy cannot express; the rest live in
    // clippy.toml and [workspace.lints].
    let ids: Vec<&str> = text.lines().filter(|l| !l.starts_with(' ')).collect();
    assert_eq!(
        ids,
        [
            "float-eq",
            "taint-flow",
            "pool-capture",
            "atomic-ordering",
            "mutex-poison",
            "threshold-surface"
        ]
    );
    for rule in ALL_RULES {
        assert!(text.contains(rule.id()), "list-rules omits {}", rule.id());
        assert!(
            text.contains(rule.describe()),
            "list-rules omits the description of {}",
            rule.id()
        );
        assert!(
            text.contains(rule.scope_note()),
            "list-rules omits the scope of {}",
            rule.id()
        );
    }
}
