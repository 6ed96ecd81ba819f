//! Workspace-wide function table and call graph over [`crate::parse`]
//! trees.
//!
//! Resolution is *name-based* — the analyzer has no type information —
//! so the graph is deliberately conservative: the taint pass
//! ([`crate::taint`]) unions the summaries of **every** candidate with a
//! matching name (over-approximate), so real flows are never dropped by
//! a resolution miss. The choice and its caveats are documented in
//! DESIGN.md §13.

use std::collections::BTreeMap;

use crate::parse::{self, Block, Expr, ExprKind, File};

/// One function definition in the workspace.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// Workspace-relative path of the defining file.
    pub file: &'a str,
    /// Function name (`threshold_with`).
    pub name: &'a str,
    /// Qualified name when defined in an impl/trait body
    /// (`MinMaxErr::threshold_with`), else the bare name.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Has `pub` visibility.
    pub is_pub: bool,
    /// Inside a `#[test]` / `#[cfg(test)]` item, or a tests/ path.
    pub in_test: bool,
    /// Has a `-> Ret` return type.
    pub returns_value: bool,
    /// Parameter binding names.
    pub params: &'a [String],
    /// The body (None for trait signatures).
    pub body: Option<&'a Block>,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Index of the calling function in [`CallGraph::fns`].
    pub caller: usize,
    /// Callee path segments (`["std", "env", "var"]`) for plain calls,
    /// or the single method name for method calls.
    pub callee: Vec<String>,
    /// Whether this is a `recv.name(…)` method call.
    pub is_method: bool,
    /// 1-based line of the call.
    pub line: u32,
}

/// The workspace function table plus every recorded call site.
#[derive(Debug)]
pub struct CallGraph<'a> {
    /// All function definitions, in deterministic (file, source) order.
    pub fns: Vec<FnNode<'a>>,
    /// All call sites, in deterministic order.
    pub calls: Vec<CallSite>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
}

/// Whether a workspace-relative path is test/bench/example code.
fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|p| matches!(p, "tests" | "benches" | "examples"))
}

impl<'a> CallGraph<'a> {
    /// Builds the graph from parsed files (`(rel_path, file)` pairs,
    /// already in deterministic order).
    #[must_use]
    pub fn build(files: &'a [(String, File)]) -> CallGraph<'a> {
        let mut fns: Vec<FnNode<'a>> = Vec::new();
        for (rel_path, file) in files {
            let path_test = is_test_path(rel_path);
            parse::for_each_fn(file, |f, self_ty, in_test| {
                let qual = if self_ty.is_empty() {
                    f.name.clone()
                } else {
                    format!("{self_ty}::{}", f.name)
                };
                fns.push(FnNode {
                    file: rel_path,
                    name: &f.name,
                    qual,
                    line: f.line,
                    is_pub: f.is_pub,
                    in_test: in_test || path_test,
                    returns_value: f.returns_value,
                    params: &f.params,
                    body: f.body.as_ref(),
                });
            });
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name).or_default().push(i);
        }
        let mut calls = Vec::new();
        for (i, f) in fns.iter().enumerate() {
            if let Some(body) = f.body {
                parse::for_each_expr(body, &mut |e: &Expr| match &e.kind {
                    ExprKind::Call { callee, .. } => {
                        if let ExprKind::Path(segs) = &callee.kind {
                            calls.push(CallSite {
                                caller: i,
                                callee: segs.clone(),
                                is_method: false,
                                line: e.line,
                            });
                        }
                    }
                    ExprKind::MethodCall { name, .. } => {
                        calls.push(CallSite {
                            caller: i,
                            callee: vec![name.clone()],
                            is_method: true,
                            line: e.line,
                        });
                    }
                    _ => {}
                });
            }
        }
        CallGraph {
            fns,
            calls,
            by_name,
        }
    }

    /// Indices of every definition with this bare name.
    #[must_use]
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Candidate definitions for a call: path calls prefer a
    /// `Type::name` qualified match on the last two segments, falling
    /// back to every definition with the last segment's name; method
    /// calls match by name alone.
    #[must_use]
    pub fn resolve(&self, callee: &[String], is_method: bool) -> Vec<usize> {
        let Some(last) = callee.last() else {
            return Vec::new();
        };
        let candidates = self.defs_named(last);
        if !is_method && callee.len() >= 2 {
            let qual = format!("{}::{last}", callee[callee.len() - 2]);
            let qualified: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| self.fns[i].qual == qual)
                .collect();
            if !qualified.is_empty() {
                return qualified;
            }
        }
        candidates.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<(String, File)>, ()) {
        let files: Vec<(String, File)> = sources
            .iter()
            .map(|(p, s)| ((*p).to_string(), parse_source(s)))
            .collect();
        (files, ())
    }

    #[test]
    fn functions_and_calls_are_recorded() {
        let (files, ()) = graph_of(&[(
            "crates/x/src/lib.rs",
            "pub fn a() { b(); c.d(); } fn b() {}",
        )]);
        let g = CallGraph::build(&files);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.fns[0].name, "a");
        assert!(g.fns[0].is_pub && !g.fns[1].is_pub);
        let names: Vec<&str> = g
            .calls
            .iter()
            .map(|c| c.callee.last().map_or("", String::as_str))
            .collect();
        assert_eq!(names, vec!["b", "d"]);
        assert!(g.calls[1].is_method);
    }

    #[test]
    fn qualified_resolution_prefers_impl_match() {
        let (files, ()) = graph_of(&[(
            "crates/x/src/lib.rs",
            "impl Pool { pub fn new() -> Pool { x } }
             impl Table { pub fn new() -> Table { y } }",
        )]);
        let g = CallGraph::build(&files);
        let pool_new = g.resolve(&["Pool".to_string(), "new".to_string()], false);
        assert_eq!(pool_new.len(), 1);
        assert_eq!(g.fns[pool_new[0]].qual, "Pool::new");
        // Bare `new` matches both.
        assert_eq!(g.resolve(&["new".to_string()], false).len(), 2);
    }

    #[test]
    fn test_paths_mark_functions() {
        let (files, ()) = graph_of(&[
            ("crates/x/tests/t.rs", "fn helper() {}"),
            ("crates/x/src/lib.rs", "fn live() {}"),
        ]);
        let g = CallGraph::build(&files);
        assert!(g.fns[0].in_test);
        assert!(!g.fns[1].in_test);
    }
}
