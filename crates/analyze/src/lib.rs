//! # wsyn-analyze — determinism-and-robustness static analysis
//!
//! The paper's contribution over the probabilistic baselines is
//! *deterministic* maximum-error guarantees; this reproduction only
//! keeps that promise if no nondeterminism leaks into the solver paths.
//! `wsyn-analyze` mechanically guards those invariants on every change.
//! A dependency-free token-level Rust lexer ([`lexer`]) feeds both a
//! token rule ([`rules`]) and a lenient recursive-descent parser
//! ([`parse`]) whose item/expression trees power a workspace call graph
//! ([`callgraph`]), a nondeterminism taint analysis ([`taint`]), and
//! AST-level concurrency rules. The engine ([`engine`]) runs all of it
//! over the workspace and can render a canonical JSON report diffed
//! against a committed baseline. The six rules are the checks clippy
//! cannot express:
//!
//! * float `==`/`!=` tie-breaks, zero included (clippy's `float_cmp`
//!   exempts `x == 0.0`),
//! * taint flows from nondeterministic sources into solver returns or
//!   obs report fields,
//! * non-`Sync` captures in pool closures,
//! * unjustified atomic memory orderings,
//! * `Mutex` locks without poison recovery,
//! * ad-hoc `threshold_*` entry points outside the `Thresholder` trait.
//!
//! Hash-ordered collections, wall-clock reads, panicking escape
//! hatches, narrowing casts, thread-count policy and `unsafe` are
//! clippy's job: see the root `clippy.toml` and `[workspace.lints]`.
//!
//! Run it with `cargo run -p wsyn-analyze -- check` (add `--json` for
//! the machine-readable report; nonzero exit on non-baselined
//! findings); silence an intended site with `// wsyn: allow(<rule>)`
//! plus a justification. See the rule table in [`rules`] and the
//! "Static analysis" section of README.md; DESIGN.md §13 documents the
//! grammar subset, the taint lattice, and the soundness caveats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod taint;

pub use engine::{check_tree, Baseline, Report};
pub use rules::{check_ast, check_source, Diagnostic, Rule, Scope, ALL_RULES};
