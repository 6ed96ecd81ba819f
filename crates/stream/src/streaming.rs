//! One-pass streaming B-term maximum-error construction.
//!
//! [`StreamingMaxErr`] consumes the data vector `d_0 … d_{N-1}` strictly
//! in time order and finalizes into a [`Synopsis1d`] with an explicit
//! absolute-error guarantee, holding only poly(`B`, `log N`, `1/ε`)
//! sketch state — never the data and never the full coefficient array.
//! The construction follows Guha & Harb's quantized-error streaming DP
//! (*Approximation Algorithms for Wavelet Transform Coding of Data
//! Streams*), specialized to the unnormalized Haar basis and the
//! maximum-absolute-error objective of the source paper:
//!
//! * **Partial coefficients on the frontier.** Arriving items are merged
//!   pairwise exactly like [`wsyn_haar::transform::forward`]'s cascade
//!   (`avg = (l + r) / 2`, `detail = (l - r) / 2`), so at any moment the
//!   sketch holds one *pending* subtree per level — the classic binary
//!   counter over completed dyadic blocks. The coefficients produced are
//!   bit-identical to the offline transform's.
//! * **Quantized incoming-error DP per completed subtree.** For every
//!   completed subtree the sketch keeps a table indexed by a budget
//!   `b ∈ 0..=min(B, 2^h - 1)` and a *quantized incoming error*
//!   `e = q·δ`, `q ∈ -Q..=Q`, holding the optimal max-absolute error of
//!   the subtree's leaves when `b` coefficients may be kept inside it and
//!   the ancestors above contribute reconstruction error `e`. Tables
//!   merge bottom-up: a *keep* of the merged node's coefficient forwards
//!   `e` unchanged to both children; a *drop* forwards `e ± c`, rounded
//!   to the child's grid. Height-1 subtrees (a single detail coefficient
//!   over two leaves) are never materialized — their optimal value has a
//!   closed form evaluated with the **exact** incoming error, which
//!   removes two rounding levels from the drift bound.
//! * **Grid radius and step.** With a caller-supplied scale `S ≥` (the
//!   offline optimum; any upper bound such as `max |d_i|` works), step
//!   `δ = ε·S / max(m - 1, 1)` and radius `Q = ⌈(1 + ε)·max(m - 1, 1) /
//!   ε⌉` (`m = log2 N`), the grid covers `|e| ≤ S(1 + ε)`. An optimal
//!   solution's incoming error never exceeds the optimum itself at any
//!   node (each dropped descendant coefficient averages to zero over the
//!   node's support, so some leaf under the node sees at least `|e|`),
//!   hence the optimal trajectory stays on-grid even after accumulating
//!   the worst-case rounding drift, and the DP value is within
//!   `(m - 1)·δ/2 ≤ ε·S/2` of the true optimum.
//!
//! **Guarantee.** `finalize` reports `objective = dp + (m - 1)·δ/2`: the
//! true maximum absolute error of the returned synopsis is at most
//! `objective`, and `objective ≤ OPT(B) + ε·S`. Both sides are certified
//! against the offline [`MinMaxErr`](wsyn_synopsis::one_dim::MinMaxErr)
//! optimum by the `streaming-approx` conformance family.
//!
//! **Space.** Live tables exist only along the right spine of the
//! frontier — at most one per height — so peak state is bounded by
//! `(m + 1) · (B + 1) · (2Q + 1)` cells plus the per-cell retained sets
//! (each at most `B` entries): `O(B² · log²(N) / ε)` in the worst case
//! and independent of `N` beyond the `log` factors. The builder counts
//! its own peak working set ([`StreamingMaxErr::peak_cells`],
//! [`StreamingMaxErr::peak_bytes`]) so tests can assert sublinearity
//! instead of trusting the analysis.

use wsyn_core::{is_zero, narrow_u32, DpStats, RowArena, RowId, WsynError};
use wsyn_haar::{is_pow2, log2_exact};
use wsyn_obs::Collector;
use wsyn_synopsis::{AnySynopsis, ErrorMetric, RunParams, Synopsis1d, ThresholdRun, Thresholder};

/// Optimal value of a height-1 subtree (one detail coefficient `c` over
/// two leaves) with `b` budget and exact incoming error `e`: keeping `c`
/// leaves both leaf errors at `|e|`; dropping costs `max(|e+c|, |e-c|) =
/// |e| + |c|`. Keeping never loses, so the node keeps whenever it can.
fn vnode_value(c: f64, b: usize, e: f64) -> f64 {
    if vnode_keeps(c, b) {
        e.abs()
    } else {
        e.abs() + c.abs()
    }
}

/// Whether the height-1 closed form retains its coefficient.
fn vnode_keeps(c: f64, b: usize) -> bool {
    b >= 1 && !is_zero(c)
}

/// A completed subtree's DP table over `(budget, quantized error)`.
///
/// Rows live in a [`RowArena`]: row `b`'s values are the optimal
/// objectives across the error grid and the parallel choices are handles
/// into the table-local retained-set store (`spans` → `set_idx` /
/// `set_val`). Handle `0` is the shared empty set. Tables are pooled and
/// reset between subtrees so the arena's allocations are reused.
#[derive(Default)]
struct Table {
    /// Largest useful budget: `min(B, 2^h - 1)`. Values are monotone
    /// non-increasing in the budget, so lookups clamp to this cap.
    b_cap: usize,
    grid: usize,
    rows: Vec<RowId>,
    arena: RowArena<f64>,
    spans: Vec<(u32, u32)>,
    set_idx: Vec<u32>,
    set_val: Vec<f64>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("b_cap", &self.b_cap)
            .field("grid", &self.grid)
            .field("cells", &self.cells())
            .field("set_entries", &self.set_idx.len())
            .finish()
    }
}

impl Table {
    fn reset(&mut self, b_cap: usize, grid: usize) {
        self.b_cap = b_cap;
        self.grid = grid;
        self.rows.clear();
        self.arena.clear();
        self.spans.clear();
        self.spans.push((0, 0));
        self.set_idx.clear();
        self.set_val.clear();
    }

    fn value(&self, b: usize, qi: usize) -> f64 {
        self.arena.values(self.rows[b.min(self.b_cap)])[qi]
    }

    fn span_of(&self, b: usize, qi: usize) -> u32 {
        self.arena.choices(self.rows[b.min(self.b_cap)])[qi]
    }

    fn set_entries(&self, span: u32) -> (&[u32], &[f64]) {
        let (off, len) = self.spans[span as usize];
        let (off, len) = (off as usize, len as usize);
        (&self.set_idx[off..off + len], &self.set_val[off..off + len])
    }

    /// Starts a retained set; entries are appended with
    /// [`Table::push_entry`] / [`Table::copy_set`] and sealed with
    /// [`Table::seal_set`].
    fn begin_set(&self) -> usize {
        self.set_idx.len()
    }

    fn push_entry(&mut self, j: u32, c: f64) {
        self.set_idx.push(j);
        self.set_val.push(c);
    }

    fn copy_set(&mut self, from: &Table, span: u32) {
        let (idx, val) = from.set_entries(span);
        self.set_idx.extend_from_slice(idx);
        self.set_val.extend_from_slice(val);
    }

    /// Seals the entries appended since `begin` into a handle; an empty
    /// set collapses to the shared handle `0`.
    fn seal_set(&mut self, begin: usize) -> u32 {
        let len = self.set_idx.len() - begin;
        if len == 0 {
            return 0;
        }
        let handle = narrow_u32(self.spans.len());
        self.spans.push((narrow_u32(begin), narrow_u32(len)));
        handle
    }

    fn cells(&self) -> usize {
        (self.b_cap + 1) * self.grid
    }

    /// Approximate resident bytes: 12 per cell (f64 value + u32 choice)
    /// plus the retained-set store.
    fn bytes(&self) -> usize {
        self.cells() * 12
            + self.set_idx.len() * 4
            + self.set_val.len() * 8
            + self.spans.len() * 8
            + self.rows.len() * 8
    }
}

/// One pending subtree on the merge frontier.
#[derive(Debug)]
enum Repr {
    /// A single raw item (height 0); its value is the entry's `avg`.
    Leaf,
    /// A completed height-1 subtree: coefficient `c` at index `j`,
    /// evaluated by closed form — never materialized as a table.
    VNode { j: u32, c: f64 },
    /// A completed subtree of height ≥ 2 with a materialized DP table.
    Table(Box<Table>),
}

#[derive(Debug)]
struct Pending {
    height: u32,
    /// Average of the covered block — the partial coefficient this
    /// subtree contributes upward (bit-identical to the offline
    /// transform's cascade).
    avg: f64,
    repr: Repr,
}

/// Result of [`StreamingMaxErr::finalize`].
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// The selected synopsis (at most `B` coefficients).
    pub synopsis: Synopsis1d,
    /// Certified guarantee: the true maximum absolute error of
    /// `synopsis` is at most `objective`, and `objective ≤ OPT(B) +
    /// ε·scale` whenever `scale` upper-bounds the offline optimum.
    pub objective: f64,
    /// The raw quantized-DP value (`objective` minus the drift
    /// allowance).
    pub dp_objective: f64,
    /// Rounding-drift allowance `(m - 1)·δ/2` added on top of the DP
    /// value to make `objective` a sound upper bound.
    pub drift: f64,
    /// Unified DP instrumentation (`states` = table cells materialized,
    /// `leaf_evals` = closed-form height-1 evaluations, `peak_live` =
    /// peak live cells).
    pub stats: DpStats,
    /// Peak number of simultaneously live DP cells across the pass.
    pub peak_cells: usize,
    /// Peak resident sketch bytes (tables, retained sets, frontier).
    pub peak_bytes: usize,
}

/// One-pass streaming B-term max-absolute-error builder (module docs
/// give the algorithm, guarantee, and space accounting).
///
/// ```
/// use wsyn_stream::StreamingMaxErr;
/// use wsyn_synopsis::{ErrorMetric, RunParams};
///
/// let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
/// let scale = 5.0; // any upper bound on the offline optimum
/// let params = RunParams::new(2, ErrorMetric::absolute()).eps(0.25);
/// let mut b = StreamingMaxErr::new(data.len(), scale, &params).unwrap();
/// for &v in &data {
///     b.push(v).unwrap();
/// }
/// let run = b.finalize().unwrap();
/// assert!(run.synopsis.len() <= 2);
/// assert!(run.synopsis.max_error(&data, ErrorMetric::absolute()) <= run.objective + 1e-9);
/// ```
#[derive(Debug)]
pub struct StreamingMaxErr {
    n: usize,
    levels: u32,
    budget: usize,
    eps: f64,
    scale: f64,
    delta: f64,
    q_radius: usize,
    pushed: usize,
    stack: Vec<Pending>,
    // Boxed so tables move between the frontier (`Summary::Table`) and
    // this pool without copying their cell storage.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Table>>,
    stats: DpStats,
    peak_cells: usize,
    peak_bytes: usize,
    obs: Collector,
}

impl StreamingMaxErr {
    /// Creates a builder for a stream of exactly `n` items.
    ///
    /// `scale` must upper-bound the offline optimum for the approximation
    /// guarantee to hold (`max |d_i|` always works: the empty synopsis
    /// achieves it). A scale that is *too small* never yields a wrong
    /// answer — the DP goes infeasible and `finalize` reports an error.
    /// `params` supplies the budget `B`, the quantization `eps`
    /// (`params.eps`), and the observability collector.
    ///
    /// # Errors
    /// [`WsynError::Unsupported`] for a relative metric (the streaming
    /// DP quantizes *absolute* incoming error; relative denominators
    /// need the data, which a one-pass sketch cannot revisit), and
    /// [`WsynError::Invalid`] for a non-power-of-two `n`, a
    /// non-positive or non-finite `eps`, or a negative or non-finite
    /// `scale`.
    pub fn new(n: usize, scale: f64, params: &RunParams) -> Result<StreamingMaxErr, WsynError> {
        match params.metric {
            ErrorMetric::Absolute => {}
            ErrorMetric::Relative { .. } => {
                return Err(WsynError::unsupported(
                    "stream",
                    "streaming construction supports the absolute metric only \
                     (relative denominators need a second pass over the data)",
                ));
            }
        }
        if n == 0 || !is_pow2(n) {
            return Err(WsynError::invalid(format!(
                "stream length must be a positive power of two, got {n}"
            )));
        }
        if !(params.eps.is_finite() && params.eps > 0.0) {
            return Err(WsynError::invalid(format!(
                "stream eps must be positive and finite, got {}",
                params.eps
            )));
        }
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(WsynError::invalid(format!(
                "stream scale must be non-negative and finite, got {scale}"
            )));
        }
        let levels = log2_exact(n);
        // Rounding happens once per materialized-table level entered by
        // a drop: heights m..3 plus the root's c_0 drop — `m - 1` levels
        // for m ≥ 2, none below (everything is exact).
        let round_levels = (levels as usize).saturating_sub(1).max(1);
        // `scale == 0` promises a zero optimum: the grid degenerates to
        // the single point `e = 0`, any nonzero forwarded error is
        // infeasible, and no rounding can ever occur — so the mode is
        // exact (a violated promise surfaces as an infeasible DP, never
        // a wrong answer).
        let (delta, q_radius) = if scale > 0.0 {
            (
                params.eps * scale / round_levels as f64,
                ((1.0 + params.eps) * round_levels as f64 / params.eps).ceil() as usize,
            )
        } else {
            (1.0, 0)
        };
        Ok(StreamingMaxErr {
            n,
            levels,
            budget: params.budget,
            eps: params.eps,
            scale,
            delta,
            q_radius,
            pushed: 0,
            stack: Vec::with_capacity(levels as usize + 1),
            free: Vec::new(),
            stats: DpStats::default(),
            peak_cells: 0,
            peak_bytes: 0,
            obs: params.obs.clone(),
        })
    }

    /// Declared stream length `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Items consumed so far.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Whether all `N` items have arrived.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.pushed == self.n
    }

    /// The budget `B`.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The approximation knob `ε` the run was configured with.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The quantization step `δ`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The grid radius `Q` (grid indices span `-Q..=Q`).
    #[must_use]
    pub fn q_radius(&self) -> usize {
        self.q_radius
    }

    /// Peak number of simultaneously live DP cells so far.
    #[must_use]
    pub fn peak_cells(&self) -> usize {
        self.peak_cells
    }

    /// Peak resident sketch bytes so far (DP tables, retained sets, and
    /// the frontier stack).
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The documented worst-case bound on [`StreamingMaxErr::peak_cells`]:
    /// at most one live table per level plus one in flight, each at most
    /// `(B + 1) × (2Q + 1)` cells. Independent of `N` beyond the
    /// `log2 N` factor — the sublinearity witness tests assert against.
    #[must_use]
    pub fn state_bound_cells(&self) -> usize {
        (self.levels as usize + 1) * (self.budget + 1) * (2 * self.q_radius + 1)
    }

    /// Consumes the next item.
    ///
    /// # Errors
    /// [`WsynError::Invalid`] when the stream is already complete or the
    /// value is not finite.
    pub fn push(&mut self, value: f64) -> Result<(), WsynError> {
        if self.pushed >= self.n {
            return Err(WsynError::invalid(format!(
                "stream already complete ({} items)",
                self.n
            )));
        }
        if !value.is_finite() {
            return Err(WsynError::invalid(format!(
                "stream values must be finite, got {value} at position {}",
                self.pushed
            )));
        }
        let obs = self.obs.clone();
        let _guard = obs.span("stream_push");
        obs.add("stream_items", 1);
        self.pushed += 1;
        self.stack.push(Pending {
            height: 0,
            avg: value,
            repr: Repr::Leaf,
        });
        while self.stack.len() >= 2
            && self.stack[self.stack.len() - 1].height == self.stack[self.stack.len() - 2].height
        {
            self.merge_top();
        }
        Ok(())
    }

    /// Consumes a batch of items in order.
    ///
    /// # Errors
    /// Same conditions as [`StreamingMaxErr::push`].
    pub fn push_slice(&mut self, values: &[f64]) -> Result<(), WsynError> {
        for &v in values {
            self.push(v)?;
        }
        Ok(())
    }

    /// Merges the two equal-height subtrees on top of the frontier.
    fn merge_top(&mut self) {
        self.obs.add("stream_merges", 1);
        // `push` guarantees two equal-height entries are on top.
        #[allow(clippy::expect_used)]
        let right = self.stack.pop().expect("merge needs two entries");
        #[allow(clippy::expect_used)]
        let left = self.stack.pop().expect("merge needs two entries");
        let height = left.height + 1;
        // Bit-identical to `transform::forward`'s pairwise cascade.
        let c = (left.avg - right.avg) / 2.0;
        let avg = (left.avg + right.avg) / 2.0;
        let block = (self.pushed - 1) >> height;
        let level = self.levels - height;
        let j = (1usize << level) + block;
        let repr = match (left.repr, right.repr) {
            (Repr::Leaf, Repr::Leaf) => Repr::VNode {
                j: narrow_u32(j),
                c,
            },
            (Repr::VNode { j: jl, c: cl }, Repr::VNode { j: jr, c: cr }) => {
                let table = self.build_base_table(j, c, (jl, cl), (jr, cr));
                self.note_peak(table.cells(), table.bytes());
                Repr::Table(table)
            }
            (Repr::Table(l), Repr::Table(r)) => {
                let table = self.merge_tables(height, j, c, &l, &r);
                // Children are still resident here — the honest peak.
                self.note_peak(
                    table.cells() + l.cells() + r.cells(),
                    table.bytes() + l.bytes() + r.bytes(),
                );
                self.free.push(l);
                self.free.push(r);
                Repr::Table(table)
            }
            // Siblings cover equal-size blocks, so equal height implies
            // equal representation by construction.
            _ => unreachable!("equal-height siblings share a representation"),
        };
        self.stack.push(Pending { height, avg, repr });
    }

    /// Records a peak candidate: `extra` cells/bytes beyond what the
    /// frontier stack currently holds.
    fn note_peak(&mut self, extra_cells: usize, extra_bytes: usize) {
        let mut cells = extra_cells;
        let mut bytes = extra_bytes + self.stack.capacity() * std::mem::size_of::<Pending>();
        for p in &self.stack {
            if let Repr::Table(t) = &p.repr {
                cells += t.cells();
                bytes += t.bytes();
            }
        }
        self.peak_cells = self.peak_cells.max(cells);
        self.peak_bytes = self.peak_bytes.max(bytes);
        self.obs.gauge_max("stream_peak_cells", self.peak_cells);
    }

    fn take_table(&mut self, b_cap: usize) -> Box<Table> {
        let mut t = self.free.pop().unwrap_or_default();
        t.reset(b_cap, 2 * self.q_radius + 1);
        t
    }

    /// Rounds an incoming error onto the child grid; `None` when it
    /// falls outside the representable range (the corresponding drop is
    /// infeasible — any solution routed there already exceeds
    /// `scale·(1+ε)` and cannot be optimal).
    fn quantize(&self, e: f64) -> Option<usize> {
        if self.q_radius == 0 {
            // Degenerate zero-scale grid: only an exactly-zero error is
            // representable, so quantization never rounds.
            return if is_zero(e) { Some(0) } else { None };
        }
        let t = (e / self.delta).round();
        if t.abs() > self.q_radius as f64 {
            None
        } else {
            Some((t + self.q_radius as f64) as usize)
        }
    }

    /// Materializes the DP table of a height-2 subtree from its two
    /// height-1 children's closed forms. Children are evaluated with the
    /// **exact** grid error (and `e ± c` for drops) — no rounding is
    /// introduced at this level.
    fn build_base_table(
        &mut self,
        j: usize,
        c: f64,
        left: (u32, f64),
        right: (u32, f64),
    ) -> Box<Table> {
        self.obs.add("stream_tables", 1);
        let (jl, cl) = left;
        let (jr, cr) = right;
        let b_cap = self.budget.min(3);
        let grid = 2 * self.q_radius + 1;
        let mut table = self.take_table(b_cap);
        for b in 0..=b_cap {
            let mut values = Vec::with_capacity(grid);
            let mut choices = Vec::with_capacity(grid);
            for qi in 0..grid {
                let e = (qi as f64 - self.q_radius as f64) * self.delta;
                self.stats.leaf_evals += 2 * (b + 1) + 2 * b.max(1);
                // Keep: both children see `e`; one budget unit is spent
                // on `c`, the rest splits leftmost-first.
                let can_keep = b >= 1 && !is_zero(c);
                let mut keep_val = f64::INFINITY;
                let mut keep_la = 0usize;
                if can_keep {
                    for la in 0..b {
                        let v = vnode_value(cl, la, e).max(vnode_value(cr, b - 1 - la, e));
                        if v < keep_val {
                            keep_val = v;
                            keep_la = la;
                        }
                    }
                }
                // Drop: left child sees `e + c`, right sees `e - c`,
                // both exact.
                let mut drop_val = f64::INFINITY;
                let mut drop_la = 0usize;
                for la in 0..=b {
                    let v = vnode_value(cl, la, e + c).max(vnode_value(cr, b - la, e - c));
                    if v < drop_val {
                        drop_val = v;
                        drop_la = la;
                    }
                }
                let keep = can_keep && keep_val <= drop_val;
                let begin = table.begin_set();
                let value = if keep {
                    table.push_entry(narrow_u32(j), c);
                    if vnode_keeps(cl, keep_la) {
                        table.push_entry(jl, cl);
                    }
                    if vnode_keeps(cr, b - 1 - keep_la) {
                        table.push_entry(jr, cr);
                    }
                    keep_val
                } else {
                    if vnode_keeps(cl, drop_la) {
                        table.push_entry(jl, cl);
                    }
                    if vnode_keeps(cr, b - drop_la) {
                        table.push_entry(jr, cr);
                    }
                    drop_val
                };
                choices.push(table.seal_set(begin));
                values.push(value);
            }
            let row = table.arena.alloc(values, choices);
            table.rows.push(row);
        }
        self.stats.states += table.cells();
        table
    }

    /// Merges two materialized child tables (height ≥ 2 each) into the
    /// parent subtree's table. Drops round the forwarded error onto the
    /// children's grid — the only place rounding enters the pass.
    fn merge_tables(&mut self, height: u32, j: usize, c: f64, l: &Table, r: &Table) -> Box<Table> {
        self.obs.add("stream_tables", 1);
        let sub_coeffs = if height >= 32 {
            usize::MAX
        } else {
            (1usize << height) - 1
        };
        let b_cap = self.budget.min(sub_coeffs);
        let grid = 2 * self.q_radius + 1;
        let mut table = self.take_table(b_cap);
        for b in 0..=b_cap {
            let mut values = Vec::with_capacity(grid);
            let mut choices = Vec::with_capacity(grid);
            for qi in 0..grid {
                let e = (qi as f64 - self.q_radius as f64) * self.delta;
                // Keep: `e` (hence the grid index) forwards unchanged.
                let can_keep = b >= 1 && !is_zero(c);
                let mut keep_val = f64::INFINITY;
                let mut keep_la = 0usize;
                if can_keep {
                    for la in 0..b {
                        let v = l.value(la, qi).max(r.value(b - 1 - la, qi));
                        if v < keep_val {
                            keep_val = v;
                            keep_la = la;
                        }
                    }
                }
                // Drop: children see `e ± c`, rounded to their grid.
                let mut drop_val = f64::INFINITY;
                let mut drop_la = 0usize;
                let drop_target = match (self.quantize(e + c), self.quantize(e - c)) {
                    (Some(ql), Some(qr)) => Some((ql, qr)),
                    _ => None,
                };
                if let Some((ql, qr)) = drop_target {
                    for la in 0..=b {
                        let v = l.value(la, ql).max(r.value(b - la, qr));
                        if v < drop_val {
                            drop_val = v;
                            drop_la = la;
                        }
                    }
                }
                let keep = can_keep && keep_val <= drop_val;
                let chosen = if keep { keep_val } else { drop_val };
                let handle = if chosen.is_infinite() {
                    0
                } else {
                    let begin = table.begin_set();
                    if keep {
                        table.push_entry(narrow_u32(j), c);
                        table.copy_set(l, l.span_of(keep_la, qi));
                        table.copy_set(r, r.span_of(b - 1 - keep_la, qi));
                    } else {
                        // `drop_val` finite implies the targets exist.
                        #[allow(clippy::expect_used)]
                        let (ql, qr) = drop_target.expect("finite drop has targets");
                        table.copy_set(l, l.span_of(drop_la, ql));
                        table.copy_set(r, r.span_of(b - drop_la, qr));
                    }
                    table.seal_set(begin)
                };
                values.push(chosen);
                choices.push(handle);
            }
            let row = table.arena.alloc(values, choices);
            table.rows.push(row);
        }
        self.stats.states += table.cells();
        table
    }

    /// Finalizes the pass: resolves the overall-average coefficient
    /// `c_0` against the top table and traces out the synopsis.
    ///
    /// # Errors
    /// [`WsynError::Invalid`] when the stream is incomplete or the DP is
    /// infeasible (the declared `scale` was smaller than the optimum).
    pub fn finalize(mut self) -> Result<StreamRun, WsynError> {
        if self.pushed != self.n {
            return Err(WsynError::invalid(format!(
                "stream incomplete: got {} of {} items",
                self.pushed, self.n
            )));
        }
        let obs = self.obs.clone();
        let guard = obs.span("stream_finalize");
        // A complete stream leaves exactly the height-m root pending.
        #[allow(clippy::expect_used)]
        let top = self.stack.pop().expect("complete stream has a root");
        let c0 = top.avg;
        let b = self.budget;
        let can_keep = b >= 1 && !is_zero(c0);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        let mut drift = 0.0;
        let dp_value = match top.repr {
            Repr::Leaf => {
                // N = 1: the lone coefficient is the value itself.
                if can_keep {
                    entries.push((0, c0));
                    0.0
                } else {
                    c0.abs()
                }
            }
            Repr::VNode { j, c } => {
                // N = 2: both options evaluate exactly.
                let keep_val = if can_keep {
                    vnode_value(c, b - 1, 0.0)
                } else {
                    f64::INFINITY
                };
                let drop_val = vnode_value(c, b, c0);
                self.stats.leaf_evals += 2;
                if can_keep && keep_val <= drop_val {
                    entries.push((0, c0));
                    if vnode_keeps(c, b - 1) {
                        entries.push((j as usize, c));
                    }
                    keep_val
                } else {
                    if vnode_keeps(c, b) {
                        entries.push((j as usize, c));
                    }
                    drop_val
                }
            }
            Repr::Table(t) => {
                // The degenerate zero-scale grid never rounds, so it
                // carries no drift allowance.
                if self.q_radius > 0 {
                    drift = (self.levels as usize - 1) as f64 * self.delta / 2.0;
                }
                let q_zero = self.q_radius;
                let keep_val = if can_keep {
                    t.value(b - 1, q_zero)
                } else {
                    f64::INFINITY
                };
                let drop_q = self.quantize(c0);
                let drop_val = drop_q.map_or(f64::INFINITY, |q| t.value(b, q));
                let keep = can_keep && keep_val <= drop_val;
                let chosen = if keep { keep_val } else { drop_val };
                if chosen.is_infinite() {
                    return Err(WsynError::invalid(format!(
                        "streaming DP infeasible: scale {} is below the \
                         offline optimum for this stream; rebuild with a \
                         larger scale (max |d_i| always suffices)",
                        self.scale
                    )));
                }
                #[allow(clippy::expect_used)]
                let span = if keep {
                    entries.push((0, c0));
                    t.span_of(b - 1, q_zero)
                } else {
                    // A finite drop value implies the target exists.
                    t.span_of(b, drop_q.expect("finite drop has a target"))
                };
                let (idx, val) = t.set_entries(span);
                for (&ji, &ci) in idx.iter().zip(val) {
                    entries.push((ji as usize, ci));
                }
                chosen
            }
        };
        let objective = dp_value + drift;
        debug_assert!(entries.len() <= self.budget);
        let synopsis = Synopsis1d::from_entries(self.n, entries)
            .map_err(|e| WsynError::invalid(format!("stream finalize: {e}")))?;
        self.stats.peak_live = self.peak_cells;
        obs.record_dp_stats(&self.stats);
        obs.gauge_max("stream_peak_cells", self.peak_cells);
        obs.add("stream_retained", synopsis.len());
        drop(guard);
        Ok(StreamRun {
            synopsis,
            objective,
            dp_objective: dp_value,
            drift,
            stats: self.stats,
            peak_cells: self.peak_cells,
            peak_bytes: self.peak_bytes,
        })
    }
}

/// Offline [`Thresholder`] adapter over [`StreamingMaxErr`]: holds the
/// data once (like every other algorithm behind `wsyn build`), derives
/// the scale as `max |d_i|`, and replays the vector through the one-pass
/// builder. The reported objective is the streaming *guarantee*, so
/// [`Thresholder::has_guarantee`] holds.
#[derive(Debug)]
pub struct StreamMaxErr {
    data: Vec<f64>,
    scale: f64,
}

impl StreamMaxErr {
    /// Wraps a data vector (length must be a positive power of two).
    ///
    /// # Errors
    /// [`WsynError::Invalid`] for an empty or non-power-of-two vector.
    pub fn new(data: &[f64]) -> Result<StreamMaxErr, WsynError> {
        if data.is_empty() || !is_pow2(data.len()) {
            return Err(WsynError::invalid(format!(
                "stream data length must be a positive power of two, got {}",
                data.len()
            )));
        }
        let scale = data.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        Ok(StreamMaxErr {
            data: data.to_vec(),
            scale,
        })
    }

    /// The derived scale (`max |d_i|` — an upper bound on the offline
    /// optimum, since the empty synopsis achieves it).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Thresholder for StreamMaxErr {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn has_guarantee(&self) -> bool {
        true
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let mut builder = StreamingMaxErr::new(self.data.len(), self.scale, params)?;
        builder.push_slice(&self.data)?;
        let run = builder.finalize()?;
        Ok(ThresholdRun {
            synopsis: AnySynopsis::One(run.synopsis),
            objective: run.objective,
            stats: run.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsyn_synopsis::one_dim::MinMaxErr;

    fn stream_build(data: &[f64], b: usize, eps: f64) -> StreamRun {
        let scale = data.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let params = RunParams::new(b, ErrorMetric::absolute()).eps(eps);
        let mut builder = StreamingMaxErr::new(data.len(), scale, &params).unwrap();
        builder.push_slice(data).unwrap();
        builder.finalize().unwrap()
    }

    #[test]
    fn paper_example_certifies_against_offline_optimum() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let scale = 5.0;
        let offline = MinMaxErr::new(&data).unwrap();
        for b in 0..=data.len() {
            for &eps in &[0.5, 0.1] {
                let run = stream_build(&data, b, eps);
                let opt = offline
                    .threshold(b, ErrorMetric::absolute())
                    .unwrap()
                    .objective;
                let measured = run.synopsis.max_error(&data, ErrorMetric::absolute());
                assert!(run.synopsis.len() <= b, "budget violated at b={b}");
                assert!(
                    measured <= run.objective + 1e-9,
                    "guarantee unsound at b={b} eps={eps}: measured {measured} > {}",
                    run.objective
                );
                assert!(
                    run.objective <= opt + eps * scale + 1e-9,
                    "approx factor violated at b={b} eps={eps}: {} > {opt} + {}",
                    run.objective,
                    eps * scale
                );
            }
        }
    }

    #[test]
    fn tiny_domains_are_exact() {
        // N = 1.
        let run = stream_build(&[3.5], 1, 0.5);
        assert!(is_zero(run.objective));
        assert_eq!(run.synopsis.entries(), &[(0, 3.5)]);
        let run = stream_build(&[3.5], 0, 0.5);
        assert!((run.objective - 3.5).abs() < 1e-12);
        // N = 2.
        let data = [4.0, -2.0];
        for b in 0..=2 {
            let run = stream_build(&data, b, 0.5);
            let opt = MinMaxErr::new(&data)
                .unwrap()
                .threshold(b, ErrorMetric::absolute())
                .unwrap()
                .objective;
            assert!(
                (run.objective - opt).abs() < 1e-12,
                "N=2 must be exact at b={b}: {} vs {opt}",
                run.objective
            );
        }
    }

    #[test]
    fn two_passes_are_byte_identical() {
        let data: Vec<f64> = (0..64)
            .map(|i| f64::from((i * 37 + 11) % 23) - 7.0)
            .collect();
        let a = stream_build(&data, 6, 0.25);
        let b = stream_build(&data, 6, 0.25);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.synopsis.entries().len(), b.synopsis.entries().len());
        for (x, y) in a.synopsis.entries().iter().zip(b.synopsis.entries()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        assert_eq!(a.peak_cells, b.peak_cells);
    }

    #[test]
    fn zero_data_with_zero_scale_is_trivial() {
        let run = stream_build(&[0.0; 16], 3, 0.5);
        assert!(is_zero(run.objective));
        assert!(run.synopsis.is_empty());
    }

    #[test]
    fn undersized_scale_reports_infeasible_not_wrong() {
        let data = [10.0, -10.0, 30.0, 2.0, 5.0, -8.0, 0.0, 1.0];
        let params = RunParams::new(1, ErrorMetric::absolute()).eps(0.25);
        let mut b = StreamingMaxErr::new(data.len(), 0.01, &params).unwrap();
        b.push_slice(&data).unwrap();
        assert!(b.finalize().is_err());
    }

    #[test]
    fn relative_metric_is_unsupported() {
        let params = RunParams::new(2, ErrorMetric::relative(1.0));
        assert!(StreamingMaxErr::new(8, 1.0, &params).is_err());
    }

    #[test]
    fn stream_guards_length_and_values() {
        let params = RunParams::new(2, ErrorMetric::absolute());
        assert!(StreamingMaxErr::new(0, 1.0, &params).is_err());
        assert!(StreamingMaxErr::new(12, 1.0, &params).is_err());
        let mut b = StreamingMaxErr::new(2, 1.0, &params).unwrap();
        assert!(b.push(f64::NAN).is_err());
        b.push_slice(&[1.0, 2.0]).unwrap();
        assert!(b.push(3.0).is_err());
        let mut b = StreamingMaxErr::new(4, 1.0, &params).unwrap();
        b.push(1.0).unwrap();
        assert!(b.finalize().is_err());
    }

    #[test]
    fn peak_state_respects_documented_bound() {
        let n = 1 << 14;
        let data: Vec<f64> = (0..n).map(|i| ((i * 131 + 7) % 97) as f64).collect();
        let params = RunParams::new(4, ErrorMetric::absolute()).eps(0.5);
        let scale = 96.0;
        let mut builder = StreamingMaxErr::new(n, scale, &params).unwrap();
        let bound = builder.state_bound_cells();
        builder.push_slice(&data).unwrap();
        let run = builder.finalize().unwrap();
        assert!(
            run.peak_cells <= bound,
            "peak {} exceeds documented bound {bound}",
            run.peak_cells
        );
        // Sublinearity witness: the bound (and the measurement) are far
        // below N — the sketch never holds the data.
        assert!(run.peak_cells < n / 2, "peak {} not o(N)", run.peak_cells);
    }

    #[test]
    fn thresholder_adapter_reports_guarantee() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let t = StreamMaxErr::new(&data).unwrap();
        assert!(t.has_guarantee());
        assert_eq!(t.name(), "stream");
        let run = t
            .threshold_with(&RunParams::new(3, ErrorMetric::absolute()))
            .unwrap();
        let syn = run.synopsis.into_one("stream test").unwrap();
        assert!(syn.len() <= 3);
        assert!(syn.max_error(&data, ErrorMetric::absolute()) <= run.objective + 1e-9);
    }
}
