//! Paper-faithful `MinMaxErr` engine: ancestor-subset tabulation.
//!
//! Implements the dynamic program exactly as written in Figure 3 of the
//! paper: the table is indexed `M[j, b, S]` where `S ⊆ path(c_j)` is the
//! set of proper ancestors retained in the synopsis, represented here as a
//! bitmask over the root-first ancestor chain (depth ≤ log N + 1, so a
//! `u32` suffices for any practical domain). Zero coefficients never enter
//! `S` (they are never retained), matching the paper's definition of
//! `path(u)` as the non-zero ancestors.
//!
//! This engine exists to validate the default incoming-error engine and to
//! quantify (in benches) how much state deduplication saves; it enumerates
//! `O(2^depth)` subsets per node, i.e. the full `O(N² B)` table.

use wsyn_core::{is_zero, narrow_u32, pack_state_1d, StateTable};
use wsyn_haar::ErrorTree1d;

use super::{best_split, DpStats, SplitSearch, ThresholdResult};
use crate::synopsis::Synopsis1d;

#[derive(Clone, Copy)]
struct Entry {
    value: f64,
    keep: bool,
    left_allot: u32,
}

struct Solver<'a> {
    tree: &'a ErrorTree1d,
    data: &'a [f64],
    denom: &'a [f64],
    n: usize,
    split: SplitSearch,
    memo: StateTable<Entry>,
    /// Root-first chain of ancestors of the node currently being solved.
    anc: Vec<usize>,
    leaf_evals: usize,
}

pub(super) fn run(
    tree: &ErrorTree1d,
    data: &[f64],
    denom: &[f64],
    b: usize,
    split: SplitSearch,
) -> ThresholdResult {
    assert!(
        tree.levels() + 2 <= 32,
        "subset-mask engine supports at most 2^30-value domains"
    );
    let mut solver = Solver {
        tree,
        data,
        denom,
        n: tree.n(),
        split,
        memo: StateTable::new(),
        anc: Vec::new(),
        leaf_evals: 0,
    };
    let objective = solver.solve(0, b, 0);
    let mut retained = Vec::new();
    solver.trace(0, b, 0, &mut retained);
    let stats = DpStats {
        states: solver.memo.len(),
        leaf_evals: solver.leaf_evals,
        probes: solver.memo.probes(),
        // This engine allocates a fresh memo per run and never clears
        // it, so its final size really is its peak. (The dedup kernel's
        // reusable workspace tracks the peak across clears instead.)
        peak_live: solver.memo.len(),
    };
    ThresholdResult {
        synopsis: Synopsis1d::from_indices(tree, &retained),
        objective,
        stats,
    }
}

impl Solver<'_> {
    /// `M[id, b, mask]`: bit `k` of `mask` set means ancestor `anc[k]`
    /// (root-first) is retained in the synopsis.
    fn solve(&mut self, id: usize, b: usize, mask: u32) -> f64 {
        if id >= self.n {
            return self.leaf_value(id - self.n, mask);
        }
        let key = pack_state_1d(narrow_u32(id), narrow_u32(b), u64::from(mask));
        if let Some(entry) = self.memo.get(key) {
            return entry.value;
        }
        let c = self.tree.coeff(id);
        let bit = 1u32 << self.anc.len();
        self.anc.push(id);
        let entry = if id == 0 {
            let child = if self.n == 1 { self.n } else { 1 };
            let drop_val = self.solve(child, b, mask);
            let keep_val = if b >= 1 && !is_zero(c) {
                self.solve(child, b - 1, mask | bit)
            } else {
                f64::INFINITY
            };
            if keep_val <= drop_val {
                Entry {
                    value: keep_val,
                    keep: true,
                    left_allot: narrow_u32(b - 1),
                }
            } else {
                Entry {
                    value: drop_val,
                    keep: false,
                    left_allot: narrow_u32(b),
                }
            }
        } else {
            let (lc, rc) = (2 * id, 2 * id + 1);
            let split = self.split;
            // Equation (2): drop c_j.
            let (drop_val, drop_b) = best_split(
                self,
                b,
                split,
                |s, bp| s.solve(lc, bp, mask),
                |s, bp| s.solve(rc, b - bp, mask),
            );
            // Equation (3): keep c_j (non-zero coefficients only).
            let (keep_val, keep_b) = if b >= 1 && !is_zero(c) {
                best_split(
                    self,
                    b - 1,
                    split,
                    |s, bp| s.solve(lc, bp, mask | bit),
                    |s, bp| s.solve(rc, b - 1 - bp, mask | bit),
                )
            } else {
                (f64::INFINITY, 0)
            };
            if keep_val <= drop_val {
                Entry {
                    value: keep_val,
                    keep: true,
                    left_allot: narrow_u32(keep_b),
                }
            } else {
                Entry {
                    value: drop_val,
                    keep: false,
                    left_allot: narrow_u32(drop_b),
                }
            }
        };
        self.anc.pop();
        self.memo.insert(key, entry);
        entry.value
    }

    /// Base case: the reconstruction error of leaf `i` when exactly the
    /// masked ancestors are retained,
    /// `|d_i − Σ_{c_k ∈ S} sign_{ik}·c_k| / r` (paper's base case).
    fn leaf_value(&mut self, i: usize, mask: u32) -> f64 {
        self.leaf_evals += 1;
        let mut recon = 0.0;
        for (k, &a) in self.anc.iter().enumerate() {
            if mask >> k & 1 == 1 {
                recon += self.tree.sign(a, i) * self.tree.coeff(a);
            }
        }
        (self.data[i] - recon).abs() / self.denom[i]
    }

    fn trace(&mut self, id: usize, b: usize, mask: u32, out: &mut Vec<usize>) {
        if id >= self.n {
            return;
        }
        let key = pack_state_1d(narrow_u32(id), narrow_u32(b), u64::from(mask));
        #[allow(clippy::expect_used)]
        let entry = *self
            .memo
            .get(key)
            // Trace replays decisions along states solve() materialized.
            .expect("trace visits only states materialized by solve");
        let bit = 1u32 << self.anc.len();
        self.anc.push(id);
        if id == 0 {
            let child = if self.n == 1 { self.n } else { 1 };
            if entry.keep {
                out.push(0);
                self.trace(child, entry.left_allot as usize, mask | bit, out);
            } else {
                self.trace(child, entry.left_allot as usize, mask, out);
            }
        } else {
            let (lc, rc) = (2 * id, 2 * id + 1);
            let la = entry.left_allot as usize;
            if entry.keep {
                out.push(id);
                self.trace(lc, la, mask | bit, out);
                self.trace(rc, b - 1 - la, mask | bit, out);
            } else {
                self.trace(lc, la, mask, out);
                self.trace(rc, b - la, mask, out);
            }
        }
        self.anc.pop();
    }
}
