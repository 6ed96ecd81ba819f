//! # wsyn-stream — dynamic maintenance of wavelet synopses
//!
//! The paper's related work (§4) leans on two dynamic settings: Matias,
//! Vitter & Wang's *dynamic maintenance of wavelet-based histograms*
//! (point updates to the underlying frequency vector) and Gilbert et al.'s
//! one-pass stream summaries. This crate provides the update substrate and
//! the policies that keep a **deterministic maximum-error synopsis** fresh
//! as data drifts:
//!
//! * [`DynamicErrorTree`] — exact maintenance of the full unnormalized
//!   Haar coefficient array under point updates `d_i += δ`, at
//!   `O(log N)` coefficient touches per update (every update affects only
//!   the `log N + 1` ancestors of the cell).
//! * [`AdaptiveMaxErrSynopsis`] — a rebuild policy for the optimal
//!   `MinMaxErr` synopsis: the current synopsis's guarantee is tracked
//!   under updates via a conservative drift bound, and the expensive DP is
//!   re-run only when the bound degrades past a tolerance factor; between
//!   rebuilds every answer still carries a valid (if looser) guarantee.
//!
//! * [`StreamingMaxErr`] — one-pass streaming B-term construction with
//!   poly(`B`, `log N`, `1/ε`) working space and a certified absolute
//!   max-error guarantee (Guha & Harb's quantized-error DP; see
//!   [`streaming`] for the algorithm, drift accounting, and proof
//!   sketch), plus [`StreamMaxErr`], its offline [`Thresholder`]
//!   adapter behind `wsyn build --algo stream`.
//!
//! The O(N)-space coefficient maintenance is exact; MVW's
//! probabilistic-counting trick for sublinear space is out of scope
//! (DESIGN.md documents the substitution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Narrowing casts are linted in the solver crates only (DESIGN.md §8).
#![allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use wsyn_core::WsynError;
use wsyn_haar::{is_pow2, log2_exact, transform, ErrorTree1d, HaarError};
use wsyn_obs::Collector;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::{ErrorMetric, RunParams, SolverScratch, Synopsis1d, Thresholder};

pub mod streaming;

pub use streaming::{StreamMaxErr, StreamRun, StreamingMaxErr};

/// Registry descriptor for the streaming family, for assembly into the
/// canonical synopsis-family registry (`wsyn_serve::registry`).
#[must_use]
pub fn families() -> Vec<wsyn_synopsis::SynopsisFamily> {
    use wsyn_synopsis::family::{GuaranteeKind, MetricSupport, STREAM};
    vec![wsyn_synopsis::SynopsisFamily {
        id: STREAM,
        summary: "one-pass streaming B-term construction (certified absolute guarantee)",
        guarantee: GuaranteeKind::Deterministic,
        metrics: MetricSupport::AbsoluteOnly,
        build: |data| Ok(Box::new(StreamMaxErr::new(data)?)),
    }]
}

/// Builds the thresholding algorithm [`AdaptiveMaxErrSynopsis`] re-runs on
/// rebuild, from the *current* maintained data. A plain function pointer so
/// the policy stays `Debug` and trivially copyable; the produced algorithm
/// should provide a max-error guarantee for the drift bound to be
/// meaningful.
pub type ThresholderFactory = fn(&[f64]) -> Result<Box<dyn Thresholder>, WsynError>;

/// The default rebuild factory: the optimal 1-D `MinMaxErr` DP.
fn minmax_factory(data: &[f64]) -> Result<Box<dyn Thresholder>, WsynError> {
    Ok(Box::new(MinMaxErr::new(data)?))
}

/// Exact dynamic maintenance of a 1-D Haar coefficient array under point
/// updates.
///
/// An update `d_i += δ` changes the overall average by `δ/N` and each
/// ancestor detail coefficient at level `l` by `±δ/support_len` — exactly
/// the coefficients on `path(d_i)`.
#[derive(Debug, Clone)]
pub struct DynamicErrorTree {
    coeffs: Vec<f64>,
    data: Vec<f64>,
    levels: u32,
    updates: u64,
}

impl DynamicErrorTree {
    /// Builds the tree from initial data.
    ///
    /// # Errors
    /// Propagates [`HaarError`] for empty / non-power-of-two input.
    pub fn new(data: &[f64]) -> Result<Self, HaarError> {
        let coeffs = transform::forward(data)?;
        Ok(Self {
            coeffs,
            data: data.to_vec(),
            levels: log2_exact(data.len()),
            updates: 0,
        })
    }

    /// An all-zero tree over a power-of-two domain.
    ///
    /// # Errors
    /// [`HaarError`] on a bad domain size.
    pub fn zeros(n: usize) -> Result<Self, HaarError> {
        if n == 0 {
            return Err(HaarError::Empty);
        }
        if !is_pow2(n) {
            return Err(HaarError::NotPowerOfTwo { len: n });
        }
        Ok(Self {
            coeffs: vec![0.0; n],
            data: vec![0.0; n],
            levels: log2_exact(n),
            updates: 0,
        })
    }

    /// Domain size `N`.
    pub fn n(&self) -> usize {
        self.data.len()
    }

    /// Number of point updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current data vector (maintained alongside the coefficients).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Current coefficient array.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Applies `d_i += delta`, updating the `log N + 1` affected
    /// coefficients in place.
    ///
    /// # Panics
    /// Panics when `i >= N`.
    pub fn update(&mut self, i: usize, delta: f64) {
        let n = self.n();
        assert!(i < n, "update index {i} out of range (N = {n})");
        self.data[i] += delta;
        self.updates += 1;
        // Overall average.
        self.coeffs[0] += delta / n as f64;
        if n == 1 {
            return;
        }
        // Detail ancestors: at level l, coefficient 2^l + (i >> (m - l))
        // with sign +1 in the left half of its support; the update spreads
        // delta over support_len cells, i.e. contributes ±delta/support.
        let m = self.levels;
        for l in 0..m {
            let j = (1usize << l) + (i >> (m - l));
            let support = n >> l;
            let sign = if (i >> (m - l - 1)) & 1 == 0 {
                1.0
            } else {
                -1.0
            };
            self.coeffs[j] += sign * delta / support as f64;
        }
    }

    /// Snapshots the current coefficients into an [`ErrorTree1d`].
    ///
    /// # Panics
    /// Never (domain validated at construction).
    #[allow(clippy::expect_used)]
    pub fn snapshot(&self) -> ErrorTree1d {
        // The domain (power-of-two, non-empty) was validated when the
        // dynamic tree was built; the same coefficients always re-wrap.
        ErrorTree1d::from_coeffs(self.coeffs.clone()).expect("validated domain")
    }

    /// Recomputes the coefficients from the maintained data (used by tests
    /// and to shed accumulated floating-point drift after very long update
    /// streams). Returns the maximum absolute drift that was corrected.
    pub fn rebuild(&mut self) -> f64 {
        // Same validated domain as `snapshot`.
        #[allow(clippy::expect_used)]
        let fresh = transform::forward(&self.data).expect("validated domain");
        let drift = self
            .coeffs
            .iter()
            .zip(&fresh)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        self.coeffs = fresh;
        drift
    }
}

/// Checks a rebuild tolerance: it must be at least `1` (a synopsis is
/// rebuilt once its guarantee may have grown by that factor).
///
/// # Errors
/// [`WsynError::Invalid`] when `tolerance < 1` or is NaN.
pub fn check_tolerance(tolerance: f64) -> Result<f64, WsynError> {
    if tolerance >= 1.0 {
        Ok(tolerance)
    } else {
        Err(WsynError::invalid(format!(
            "tolerance must be >= 1, got {tolerance}"
        )))
    }
}

/// The streaming rebuild rule: whether a synopsis built with objective
/// `built_objective` under `metric` has degraded past `tolerance` after
/// `drift_abs = Σ|δ|` of updates (see [`AdaptiveMaxErrSynopsis`]).
/// [`AdaptiveMaxErrSynopsis::update`] and the server's batched drain
/// both apply it after every update, so their rebuilds agree by
/// construction.
#[inline]
#[must_use]
pub fn rebuild_due(
    metric: ErrorMetric,
    tolerance: f64,
    built_objective: f64,
    drift_abs: f64,
) -> bool {
    match metric {
        ErrorMetric::Absolute => {
            built_objective + drift_abs > tolerance * built_objective.max(f64::MIN_POSITIVE)
        }
        // A drifted relative guarantee is not cheaply boundable (the
        // denominator may have shrunk too), so any drift beyond
        // (tolerance − 1) sanity-or-objective equivalents triggers.
        ErrorMetric::Relative { sanity } => {
            drift_abs > (tolerance - 1.0) * sanity.max(built_objective)
        }
    }
}

/// Rebuild policy for the deterministic maximum-error synopsis under
/// updates.
///
/// Between rebuilds, the synopsis's guarantee is tracked conservatively:
/// an update `d_i += δ` can worsen any single value's absolute
/// reconstruction error by at most `|δ|` (the data moved while the
/// synopsis did not), so after a stream of updates the **absolute** error
/// guarantee is `built_objective + Σ|δ|` (per-cell sums would be tighter;
/// we track the global sum for O(1) bookkeeping and expose both knobs).
/// When the conservative bound exceeds `tolerance × built_objective` (or
/// the objective was 0 and any update arrives), the `MinMaxErr` DP is
/// re-run on the maintained data.
#[derive(Debug)]
pub struct AdaptiveMaxErrSynopsis {
    tree: DynamicErrorTree,
    b: usize,
    metric: ErrorMetric,
    tolerance: f64,
    built_objective: f64,
    drift_abs: f64,
    rebuilds: u64,
    current: Synopsis1d,
    factory: ThresholderFactory,
    /// Reusable solver storage threaded through every (re)build via
    /// [`Thresholder::threshold_with_reusing`]. The factory builds a
    /// fresh thresholder per rebuild (the data changed), so the 1-D DP
    /// workspace inside never carries warm states across rebuilds — it
    /// carries its *allocations*, skipping the memo growth ramp each
    /// time.
    scratch: SolverScratch,
    /// Observability collector every (re)build records into; the no-op
    /// collector (zero cost) unless [`Self::set_obs`] installs one.
    obs: Collector,
}

impl AdaptiveMaxErrSynopsis {
    /// Builds the synopsis and its rebuild policy.
    ///
    /// `tolerance >= 1`: rebuild once the conservative guarantee exceeds
    /// `tolerance × built_objective` (e.g. `2.0` = rebuild when the
    /// guarantee may have doubled).
    ///
    /// # Errors
    /// Describes the failure: an invalid domain
    /// ([`WsynError::Transform`]), a tolerance below `1`
    /// ([`WsynError::Invalid`]), or the default thresholder's refusal.
    pub fn new(
        data: &[f64],
        b: usize,
        metric: ErrorMetric,
        tolerance: f64,
    ) -> Result<Self, WsynError> {
        let tree = DynamicErrorTree::new(data)?;
        Self::with_factory(tree, b, metric, tolerance, minmax_factory)
    }

    /// Like [`Self::new`], but rebuilding with an arbitrary
    /// [`Thresholder`] produced by `factory` (e.g. a cheaper approximate
    /// scheme when rebuild latency matters more than tightness).
    ///
    /// # Errors
    /// A tolerance below `1` ([`WsynError::Invalid`]), or the factory's
    /// or the thresholder's refusal.
    pub fn with_factory(
        tree: DynamicErrorTree,
        b: usize,
        metric: ErrorMetric,
        tolerance: f64,
        factory: ThresholderFactory,
    ) -> Result<Self, WsynError> {
        let tolerance = check_tolerance(tolerance)?;
        let mut scratch = SolverScratch::new();
        let run = factory(tree.data())?.threshold_reusing(b, metric, &mut scratch)?;
        let current = run.synopsis.into_one("the rebuild policy")?;
        Ok(Self {
            tree,
            b,
            metric,
            tolerance,
            built_objective: run.objective,
            drift_abs: 0.0,
            rebuilds: 0,
            current,
            factory,
            scratch,
            obs: Collector::noop(),
        })
    }

    /// Installs an observability collector: every subsequent rebuild
    /// records a `rebuild` span (with the triggering drift and the
    /// rebuilt objective's DP counters) into it.
    pub fn set_obs(&mut self, obs: Collector) {
        self.obs = obs;
    }

    /// Applies an update, rebuilding if the guarantee degraded past the
    /// tolerance. Returns `true` when a rebuild happened.
    ///
    /// # Errors
    /// Propagates the factory's or the thresholder's refusal from a
    /// triggered rebuild.
    pub fn update(&mut self, i: usize, delta: f64) -> Result<bool, WsynError> {
        self.tree.update(i, delta);
        self.drift_abs += delta.abs();
        if rebuild_due(
            self.metric,
            self.tolerance,
            self.built_objective,
            self.drift_abs,
        ) {
            self.rebuild()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// The current conservative **absolute-error** guarantee:
    /// `built_objective + accumulated |δ|`. For relative metrics this is
    /// the guarantee in absolute terms at build time plus drift (see
    /// struct docs).
    pub fn guarantee(&self) -> f64 {
        self.built_objective + self.drift_abs
    }

    /// Forces a rebuild of the synopsis from the current data, via the
    /// configured [`ThresholderFactory`].
    ///
    /// # Errors
    /// Propagates the factory's or the thresholder's refusal (the factory
    /// accepted the same `(budget, metric)` at construction, so a refusal
    /// here indicates a non-deterministic factory).
    pub fn rebuild(&mut self) -> Result<(), WsynError> {
        let _span = self.obs.span("rebuild");
        self.obs.add("rebuilds", 1);
        let params = RunParams::new(self.b, self.metric).obs(self.obs.clone());
        let run =
            (self.factory)(self.tree.data())?.threshold_with_reusing(&params, &mut self.scratch)?;
        self.built_objective = run.objective;
        self.current = run.synopsis.into_one("the rebuild policy")?;
        self.drift_abs = 0.0;
        self.rebuilds += 1;
        Ok(())
    }

    /// The current synopsis.
    pub fn synopsis(&self) -> &Synopsis1d {
        &self.current
    }

    /// Objective as of the last (re)build.
    pub fn built_objective(&self) -> f64 {
        self.built_objective
    }

    /// Number of rebuilds triggered so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The underlying dynamic tree.
    pub fn tree(&self) -> &DynamicErrorTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn custom_factory_drives_rebuilds() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let metric = ErrorMetric::absolute();
        // A factory is any fn producing a Thresholder; this one is the
        // default algorithm, so the policy must behave identically to
        // `new` while exercising the factory path end to end.
        let factory: ThresholderFactory =
            |d| Ok(Box::new(MinMaxErr::new(d).map_err(|e| e.to_string())?));
        let tree = DynamicErrorTree::new(&data).unwrap();
        let mut via_factory =
            AdaptiveMaxErrSynopsis::with_factory(tree, 3, metric, 2.0, factory).unwrap();
        let mut via_default = AdaptiveMaxErrSynopsis::new(&data, 3, metric, 2.0).unwrap();
        assert_eq!(via_factory.built_objective(), via_default.built_objective());
        for (i, delta) in [(3usize, 4.0), (0, -6.0), (5, 9.0), (6, -3.0)] {
            assert_eq!(
                via_factory.update(i, delta).unwrap(),
                via_default.update(i, delta).unwrap()
            );
            assert_eq!(via_factory.synopsis(), via_default.synopsis());
        }
        assert_eq!(via_factory.rebuilds(), via_default.rebuilds());
    }

    #[test]
    fn update_matches_recompute() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let mut dyn_tree = DynamicErrorTree::new(&data).unwrap();
        dyn_tree.update(3, 5.0);
        dyn_tree.update(0, -2.0);
        dyn_tree.update(7, 0.5);
        let mut expect = data.to_vec();
        expect[3] += 5.0;
        expect[0] -= 2.0;
        expect[7] += 0.5;
        let fresh = transform::forward(&expect).unwrap();
        for (a, b) in dyn_tree.coeffs().iter().zip(&fresh) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(dyn_tree.updates(), 3);
    }

    #[test]
    fn random_update_stream_stays_exact() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 64usize;
        let mut dyn_tree = DynamicErrorTree::zeros(n).unwrap();
        let mut reference = vec![0.0f64; n];
        for _ in 0..2000 {
            let i = rng.gen_range(0..n);
            let delta = f64::from(rng.gen_range(-10i32..=10));
            dyn_tree.update(i, delta);
            reference[i] += delta;
        }
        let fresh = transform::forward(&reference).unwrap();
        for (a, b) in dyn_tree.coeffs().iter().zip(&fresh) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Rebuild corrects only negligible drift.
        let drift = dyn_tree.rebuild();
        assert!(drift < 1e-9, "drift {drift}");
    }

    #[test]
    fn single_cell_domain_updates() {
        let mut t = DynamicErrorTree::new(&[5.0]).unwrap();
        t.update(0, 3.0);
        assert_eq!(t.coeffs(), &[8.0]);
        assert_eq!(t.data(), &[8.0]);
    }

    #[test]
    fn adaptive_guarantee_is_conservative() {
        let data: Vec<f64> = (0..64).map(|i| f64::from((i * 11 + 5) % 23)).collect();
        let mut a = AdaptiveMaxErrSynopsis::new(&data, 8, ErrorMetric::absolute(), 1e18).unwrap();
        // With an enormous tolerance no rebuild happens; the conservative
        // guarantee must still upper-bound the true error after updates.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let i = rng.gen_range(0..64);
            let delta = f64::from(rng.gen_range(-3i32..=3));
            let rebuilt = a.update(i, delta).unwrap();
            assert!(!rebuilt);
            let true_err = a
                .synopsis()
                .max_error(a.tree().data(), ErrorMetric::absolute());
            assert!(
                true_err <= a.guarantee() + 1e-9,
                "true {true_err} vs guarantee {}",
                a.guarantee()
            );
        }
    }

    #[test]
    fn adaptive_rebuilds_restore_optimality() {
        let data: Vec<f64> = (0..32).map(|i| f64::from(i % 7) + 1.0).collect();
        let mut a = AdaptiveMaxErrSynopsis::new(&data, 6, ErrorMetric::absolute(), 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut rebuild_seen = false;
        for _ in 0..300 {
            let i = rng.gen_range(0..32);
            let delta = f64::from(rng.gen_range(-4i32..=4));
            if a.update(i, delta).unwrap() {
                rebuild_seen = true;
                // Immediately after a rebuild, the objective is optimal for
                // the current data.
                let fresh = MinMaxErr::new(a.tree().data())
                    .unwrap()
                    .run(6, ErrorMetric::absolute());
                assert!((a.built_objective() - fresh.objective).abs() < 1e-9);
                assert_eq!(a.guarantee(), a.built_objective());
            }
        }
        assert!(rebuild_seen, "tolerance 1.5 should trigger rebuilds");
        assert!(a.rebuilds() > 0);
    }

    #[test]
    fn tolerance_below_one_or_nan_is_an_error() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        for tolerance in [0.5, f64::NAN] {
            let err = AdaptiveMaxErrSynopsis::new(&data, 3, ErrorMetric::absolute(), tolerance)
                .expect_err("tolerance < 1 must be refused");
            assert!(matches!(err, WsynError::Invalid(_)), "{err:?}");
            assert_eq!(
                err.to_string(),
                format!("tolerance must be >= 1, got {tolerance}")
            );
        }
        assert!(AdaptiveMaxErrSynopsis::new(&data, 3, ErrorMetric::absolute(), 1.0).is_ok());
    }

    #[test]
    fn zeros_rejects_bad_sizes() {
        assert!(DynamicErrorTree::zeros(0).is_err());
        assert!(DynamicErrorTree::zeros(3).is_err());
        assert!(DynamicErrorTree::zeros(4).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn updates_commute_with_transform(
            m in 1u32..=6,
            updates in proptest::collection::vec((0usize..64, -100i32..100), 1..50)
        ) {
            let n = 1usize << m;
            let mut dyn_tree = DynamicErrorTree::zeros(n).unwrap();
            let mut reference = vec![0.0f64; n];
            for (i, delta) in updates {
                let i = i % n;
                let delta = f64::from(delta);
                dyn_tree.update(i, delta);
                reference[i] += delta;
            }
            let fresh = transform::forward(&reference).unwrap();
            for (a, b) in dyn_tree.coeffs().iter().zip(&fresh) {
                prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
            }
        }
    }
}
