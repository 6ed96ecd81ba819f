//! Low-working-memory `MinMaxErr` engine (the paper's `O(NB)` working-set
//! argument).
//!
//! The table for a node is computed from its children's *complete* tables
//! in a post-order traversal; child tables are freed as soon as the parent
//! is done, so at any moment only one table per tree level is live —
//! `O(Σ_l 2^l B) = O(NB)` working space, versus the `O(N²B)` of keeping
//! the full memo. Because decisions are not stored, the optimal synopsis is
//! re-traced by *recomputing* subtree tables along the optimal path, a
//! geometric series costing less than ~1.33× the original DP work.
//!
//! A node's table maps each possible incoming error `e` (a subset sum of
//! the signed dropped-ancestor contributions, built in root-first order so
//! bit patterns match the top-down engines) to the vector of optimal
//! values for budgets `0..=B`.

use wsyn_core::{is_zero, StateTable};
use wsyn_haar::ErrorTree1d;

use super::{best_split, DpStats, SplitSearch, ThresholdResult};
use crate::synopsis::Synopsis1d;

/// Per-node DP table: incoming-error bits → optimal value per budget.
type Table = StateTable<Vec<f64>>;

/// Looks up the budget-row for incoming error `e` (always materialized by
/// construction: every queried error is a subset sum of the child's
/// ancestor chain).
#[inline]
#[allow(clippy::expect_used)]
fn row(t: &Table, e: f64) -> &[f64] {
    t.get(u128::from(norm(e).to_bits()))
        // Every queried error was materialized when the table was built.
        .expect("incoming error is a subset sum of the ancestor chain")
}

struct Ctx<'a> {
    tree: &'a ErrorTree1d,
    denom: &'a [f64],
    n: usize,
    b_total: usize,
    split: SplitSearch,
    states: usize,
    leaf_evals: usize,
    probes: usize,
    /// Table entries currently resident (this engine's whole point is a
    /// small working set; `peak_live` makes the claim measurable).
    live: usize,
    peak_live: usize,
}

/// Canonicalizes `-0.0` to `+0.0` so exact cancellations hash identically.
#[inline]
fn norm(e: f64) -> f64 {
    if is_zero(e) {
        0.0
    } else {
        e
    }
}

pub(super) fn run(
    tree: &ErrorTree1d,
    denom: &[f64],
    b: usize,
    split: SplitSearch,
) -> ThresholdResult {
    let mut ctx = Ctx {
        tree,
        denom,
        n: tree.n(),
        b_total: b,
        split,
        states: 0,
        leaf_evals: 0,
        probes: 0,
        live: 0,
        peak_live: 0,
    };
    let root_table = ctx.table(0, &[]);
    let objective = row(&root_table, 0.0)[b];
    ctx.retire(root_table);
    let mut retained = Vec::new();
    let mut anc: Vec<f64> = Vec::new();
    ctx.trace(0, b, 0.0, &mut anc, &mut retained);
    let stats = DpStats {
        states: ctx.states,
        leaf_evals: ctx.leaf_evals,
        probes: ctx.probes,
        peak_live: ctx.peak_live,
    };
    ThresholdResult {
        synopsis: Synopsis1d::from_indices(tree, &retained),
        objective,
        stats,
    }
}

/// All subset sums of `anc` (signed dropped-ancestor contributions),
/// accumulated root-first so float bit patterns match the top-down
/// engines'. Deduplicated by bit pattern.
fn subset_sums(anc: &[f64]) -> Vec<f64> {
    let mut sums = vec![0.0f64];
    for &a in anc {
        let len = sums.len();
        for i in 0..len {
            sums.push(norm(sums[i] + a));
        }
        // Dedup keeps table sizes at the number of *distinct* incoming
        // errors (cannot exceed 2^depth). BTreeSet for deterministic
        // behavior end to end (hash-collections rule).
        let mut seen = std::collections::BTreeSet::new();
        sums.retain(|v| seen.insert(v.to_bits()));
    }
    sums
}

impl Ctx<'_> {
    /// Records a freshly built table as live.
    fn register(&mut self, t: &Table) {
        self.live += t.len();
        self.peak_live = self.peak_live.max(self.live);
    }

    /// Accounts for a table about to be dropped (probe counts fold into
    /// the run totals; the entries leave the live set).
    fn retire(&mut self, t: Table) {
        self.live -= t.len();
        self.probes += t.probes();
    }

    /// Computes the complete table for the subtree rooted at `id`, where
    /// `anc` holds the signed contribution of each ancestor *if dropped*
    /// (sign already resolved for this subtree), root-first.
    fn table(&mut self, id: usize, anc: &[f64]) -> Table {
        let sums = subset_sums(anc);
        if id >= self.n {
            let d = self.denom[id - self.n];
            self.leaf_evals += sums.len();
            let mut out = Table::with_capacity(sums.len());
            for e in sums {
                out.insert(u128::from(e.to_bits()), vec![e.abs() / d; self.b_total + 1]);
            }
            self.register(&out);
            return out;
        }
        let c = self.tree.coeff(id);
        if id == 0 {
            // Root: single child with contribution sign +1.
            let child = if self.n == 1 { self.n } else { 1 };
            let mut child_anc = anc.to_vec();
            child_anc.push(c);
            let ct = self.table(child, &child_anc);
            let mut out = Table::with_capacity(sums.len());
            for e in sums {
                let mut vals = Vec::with_capacity(self.b_total + 1);
                for b in 0..=self.b_total {
                    let drop_val = row(&ct, e + c)[b];
                    let keep_val = if b >= 1 && !is_zero(c) {
                        row(&ct, e)[b - 1]
                    } else {
                        f64::INFINITY
                    };
                    vals.push(drop_val.min(keep_val));
                }
                self.states += vals.len();
                out.insert(u128::from(e.to_bits()), vals);
            }
            self.register(&out);
            self.retire(ct);
            return out;
        }
        let (lc, rc) = (2 * id, 2 * id + 1);
        let mut child_anc = anc.to_vec();
        child_anc.push(c);
        let tl = self.table(lc, &child_anc);
        child_anc.pop();
        child_anc.push(-c);
        let tr = self.table(rc, &child_anc);
        let mut out = Table::with_capacity(sums.len());
        let split = self.split;
        for e in sums {
            let mut vals = Vec::with_capacity(self.b_total + 1);
            for b in 0..=self.b_total {
                let (drop_val, _) = {
                    let fl = row(&tl, e + c);
                    let fr = row(&tr, e - c);
                    best_split(&mut (), b, split, |_, bp| fl[bp], |_, bp| fr[b - bp])
                };
                let keep_val = if b >= 1 && !is_zero(c) {
                    let fl = row(&tl, e);
                    let fr = row(&tr, e);
                    best_split(
                        &mut (),
                        b - 1,
                        split,
                        |_, bp| fl[bp],
                        |_, bp| fr[b - 1 - bp],
                    )
                    .0
                } else {
                    f64::INFINITY
                };
                vals.push(drop_val.min(keep_val));
            }
            self.states += vals.len();
            out.insert(u128::from(e.to_bits()), vals);
        }
        // tl/tr retired here: one live table per level on the recursion
        // spine.
        self.register(&out);
        self.retire(tl);
        self.retire(tr);
        out
    }

    /// Re-traces the optimal solution by recomputing child tables at each
    /// node along the optimal path.
    fn trace(&mut self, id: usize, b: usize, e: f64, anc: &mut Vec<f64>, out: &mut Vec<usize>) {
        if id >= self.n {
            return;
        }
        let c = self.tree.coeff(id);
        if id == 0 {
            let child = if self.n == 1 { self.n } else { 1 };
            anc.push(c);
            let ct = self.table(child, anc);
            let drop_val = row(&ct, e + c)[b];
            let keep_val = if b >= 1 && !is_zero(c) {
                row(&ct, e)[b - 1]
            } else {
                f64::INFINITY
            };
            self.retire(ct);
            if keep_val <= drop_val {
                out.push(0);
                self.trace(child, b - 1, e, anc, out);
            } else {
                self.trace(child, b, norm(e + c), anc, out);
            }
            anc.pop();
            return;
        }
        let (lc, rc) = (2 * id, 2 * id + 1);
        let split = self.split;
        anc.push(c);
        let tl = self.table(lc, anc);
        anc.pop();
        anc.push(-c);
        let tr = self.table(rc, anc);
        let (drop_val, drop_b) = {
            let fl = row(&tl, e + c);
            let fr = row(&tr, e - c);
            best_split(&mut (), b, split, |_, bp| fl[bp], |_, bp| fr[b - bp])
        };
        let (keep_val, keep_b) = if b >= 1 && !is_zero(c) {
            let fl = row(&tl, e);
            let fr = row(&tr, e);
            best_split(
                &mut (),
                b - 1,
                split,
                |_, bp| fl[bp],
                |_, bp| fr[b - 1 - bp],
            )
        } else {
            (f64::INFINITY, 0)
        };
        self.retire(tl);
        self.retire(tr);
        if keep_val <= drop_val {
            out.push(id);
            // Kept: no dropped contribution. The child chain entry for c
            // contributes nothing when dropped-summing; a 0.0 entry models
            // that (subset sums unchanged).
            anc.pop();
            anc.push(0.0);
            self.trace(lc, keep_b, e, anc, out);
            self.trace(rc, b - 1 - keep_b, e, anc, out);
        } else {
            anc.pop();
            anc.push(c);
            self.trace(lc, drop_b, norm(e + c), anc, out);
            anc.pop();
            anc.push(-c);
            self.trace(rc, b - drop_b, norm(e - c), anc, out);
        }
        anc.pop();
    }
}
