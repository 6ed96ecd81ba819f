//! Uniform dispatch over every thresholding algorithm in the workspace.
//!
//! All solvers — the optimal 1-D DP, the greedy L2 baseline, the three
//! multi-dimensional schemes, and the probabilistic baselines in
//! `wsyn-prob` — answer the same question: *given a budget `B` and an
//! error metric, which coefficients go into the synopsis and what error
//! does that achieve?* [`Thresholder`] captures exactly that contract so
//! the CLI, the AQP layer, the streaming rebuild policy, and the
//! experiment binaries can hold a `Box<dyn Thresholder>` instead of
//! dispatching with bespoke match arms per algorithm.
//!
//! The required method is [`Thresholder::threshold_with`], which takes a
//! [`RunParams`]: budget and metric plus the tuning knobs solvers used
//! to hard-code (approximation `ε`, quantization `q`, the budget-split
//! search strategy) and an observability [`Collector`] slot. The
//! parameterless [`Thresholder::threshold`] /
//! [`Thresholder::threshold_reusing`] remain as thin wrappers over
//! default parameters, so existing callers migrate incrementally.
//! A combination a solver cannot serve (e.g. `OnePlusEps` under a
//! relative metric) returns [`WsynError::Unsupported`] rather than
//! silently substituting a different computation.

use wsyn_core::{DpStats, WsynError};
use wsyn_haar::{ErrorTree1d, HaarError};
use wsyn_obs::Collector;

use crate::greedy::greedy_l2_1d;
use crate::histogram::HistParams;
use crate::metric::ErrorMetric;
use crate::multi_dim::additive::AdditiveScheme;
use crate::multi_dim::integer::IntegerExact;
use crate::multi_dim::oneplus::OnePlusEps;
use crate::one_dim::{Config, DedupWorkspace, Engine, MinMaxErr, SplitSearch};
use crate::synopsis::{Synopsis1d, SynopsisNd};

/// Default approximation parameter used when an ε-parameterized scheme is
/// driven through the parameterless [`Thresholder`] interface.
pub const DEFAULT_EPS: f64 = 0.1;

/// Default fractional-storage quantization for the probabilistic
/// baselines when driven through the parameterless interface (E6's
/// setting; `wsyn-prob` re-exports this).
pub const DEFAULT_Q: usize = 6;

/// Parameters for one thresholding run: the `(budget, metric)` pair every
/// solver needs, the tuning knobs that used to be hard-coded per impl,
/// and an observability [`Collector`] slot (no-op by default, so
/// uninstrumented runs pay nothing).
///
/// Built with chainable setters:
///
/// ```
/// use wsyn_synopsis::thresholder::RunParams;
/// use wsyn_synopsis::ErrorMetric;
/// let params = RunParams::new(8, ErrorMetric::absolute()).eps(0.05);
/// assert_eq!(params.budget, 8);
/// ```
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Space budget `B` (maximum retained coefficients).
    pub budget: usize,
    /// Target maximum-error metric.
    pub metric: ErrorMetric,
    /// Approximation parameter for the ε-schemes ([`AdditiveScheme`],
    /// [`OnePlusEps`]); ignored by exact solvers.
    pub eps: f64,
    /// Fractional-storage quantization for the probabilistic baselines;
    /// ignored by the deterministic solvers.
    pub q: usize,
    /// Budget-split search strategy for the 1-D DP; ignored by solvers
    /// without a split search.
    pub split_search: SplitSearch,
    /// Observability collector; [`Collector::noop`] unless the caller
    /// wants a run report.
    pub obs: Collector,
    /// Family-specific knobs (see [`FamilyParams`]); solvers ignore
    /// another family's variant, so one `RunParams` can drive a mixed
    /// solver set.
    pub family: FamilyParams,
}

/// Typed family-specific parameter extension for [`RunParams`].
///
/// New synopsis families want knobs the shared parameter set has no
/// business growing field-by-field (the histogram's DP split strategy,
/// say). Rather than new trait methods per family — which would fork
/// [`Thresholder::threshold_with`] into per-family entry points — the
/// knobs ride here as one typed enum: solvers match their own variant
/// and treat everything else as [`FamilyParams::Default`].
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub enum FamilyParams {
    /// No family-specific knobs: every family uses its defaults.
    #[default]
    Default,
    /// Histogram-family knobs.
    Hist(HistParams),
}

impl RunParams {
    /// Parameters with the documented defaults: `eps` =
    /// [`DEFAULT_EPS`], `q` = [`DEFAULT_Q`], binary split search, no-op
    /// collector.
    #[must_use]
    pub fn new(budget: usize, metric: ErrorMetric) -> RunParams {
        RunParams {
            budget,
            metric,
            eps: DEFAULT_EPS,
            q: DEFAULT_Q,
            split_search: SplitSearch::default(),
            obs: Collector::noop(),
            family: FamilyParams::default(),
        }
    }

    /// Sets the approximation parameter ε.
    #[must_use]
    pub fn eps(mut self, eps: f64) -> RunParams {
        self.eps = eps;
        self
    }

    /// Sets the probabilistic-baseline quantization `q`.
    #[must_use]
    pub fn q(mut self, q: usize) -> RunParams {
        self.q = q;
        self
    }

    /// Switches the metric to relative error with sanity bound `s`
    /// (footnote 2 of the paper).
    ///
    /// # Panics
    /// Panics when `sanity` is not strictly positive and finite (see
    /// [`ErrorMetric::relative`]).
    #[must_use]
    pub fn sanity_bound(mut self, sanity: f64) -> RunParams {
        self.metric = ErrorMetric::relative(sanity);
        self
    }

    /// Sets the budget-split search strategy for the 1-D DP.
    #[must_use]
    pub fn split_search(mut self, split: SplitSearch) -> RunParams {
        self.split_search = split;
        self
    }

    /// Installs an observability collector; pass
    /// [`Collector::recording`] to capture a span tree for a run report.
    #[must_use]
    pub fn obs(mut self, obs: Collector) -> RunParams {
        self.obs = obs;
        self
    }

    /// Sets family-specific knobs (see [`FamilyParams`]).
    #[must_use]
    pub fn family_params(mut self, family: FamilyParams) -> RunParams {
        self.family = family;
        self
    }
}

/// A synopsis of either dimensionality, as produced by a [`Thresholder`].
///
/// Marked `#[non_exhaustive]`: future dimensionality-specialized
/// representations may be added without a breaking release, so matches
/// outside this crate need a wildcard arm (or go through
/// [`AnySynopsis::into_one`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum AnySynopsis {
    /// A one-dimensional synopsis.
    One(Synopsis1d),
    /// A multi-dimensional synopsis.
    Nd(SynopsisNd),
    /// A step-function (histogram) synopsis.
    Histogram(wsyn_hist::StepSynopsis),
}

impl AnySynopsis {
    /// Space used: retained coefficients, or buckets for the histogram
    /// family.
    pub fn len(&self) -> usize {
        match self {
            AnySynopsis::One(s) => s.len(),
            AnySynopsis::Nd(s) => s.len(),
            AnySynopsis::Histogram(s) => s.len(),
        }
    }

    /// Whether no coefficient is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The one-dimensional synopsis, or a
    /// [`WsynError::DimensionMismatch`] naming `what` when the run
    /// produced a multi-dimensional one.
    ///
    /// # Errors
    /// [`WsynError::DimensionMismatch`] for a non-1-D synopsis.
    pub fn into_one(self, what: &str) -> Result<Synopsis1d, WsynError> {
        match self {
            AnySynopsis::One(s) => Ok(s),
            _ => Err(WsynError::dimension_mismatch(what)),
        }
    }

    /// The histogram synopsis, or a [`WsynError::DimensionMismatch`]
    /// naming `what` when the run produced a wavelet one.
    ///
    /// # Errors
    /// [`WsynError::DimensionMismatch`] for a non-histogram synopsis.
    pub fn into_histogram(self, what: &str) -> Result<wsyn_hist::StepSynopsis, WsynError> {
        match self {
            AnySynopsis::Histogram(s) => Ok(s),
            _ => Err(WsynError::dimension_mismatch(what)),
        }
    }
}

/// Result of driving any [`Thresholder`]: the synopsis, the maximum error
/// it achieves under the requested metric, and the unified DP counters
/// (zeroed for algorithms that run no DP, like greedy L2).
#[derive(Debug, Clone)]
pub struct ThresholdRun {
    /// The selected synopsis.
    pub synopsis: AnySynopsis,
    /// Maximum error of `synopsis` under the requested metric. For
    /// guarantee-providing algorithms this is the guaranteed bound; for
    /// baselines it is the measured error of the returned synopsis.
    pub objective: f64,
    /// Unified DP instrumentation (see [`DpStats`]).
    pub stats: DpStats,
}

/// A thresholding algorithm: built once over a dataset, then run for any
/// [`RunParams`].
pub trait Thresholder {
    /// Stable algorithm identifier (used in CLI output and JSON docs).
    fn name(&self) -> &'static str;

    /// Whether the reported objective is a *guarantee* (a bound the
    /// algorithm proves) rather than a measured value.
    fn has_guarantee(&self) -> bool {
        false
    }

    /// Selects at most `params.budget` coefficients for `params.metric`,
    /// honouring the tuning knobs in `params` and recording spans and
    /// counters into `params.obs`.
    ///
    /// # Errors
    /// [`WsynError::Unsupported`] when this algorithm cannot serve the
    /// requested parameter combination.
    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError>;

    /// [`Thresholder::threshold_with`] with caller-provided reusable
    /// solver storage. Callers that run many budgets or rebuilds
    /// (B-sweeps, streaming) thread one [`SolverScratch`] through every
    /// call; solvers with reusable state override this to exploit it
    /// (the optimal 1-D DP reuses its warm memo / allocations), and the
    /// default simply ignores the scratch. Results are identical to
    /// [`Thresholder::threshold_with`] by contract.
    ///
    /// # Errors
    /// Same conditions as [`Thresholder::threshold_with`].
    fn threshold_with_reusing(
        &self,
        params: &RunParams,
        scratch: &mut SolverScratch,
    ) -> Result<ThresholdRun, WsynError> {
        let _ = scratch;
        self.threshold_with(params)
    }

    /// Selects at most `b` coefficients for the given metric with
    /// default parameters — a thin wrapper over
    /// [`Thresholder::threshold_with`].
    ///
    /// # Errors
    /// Same conditions as [`Thresholder::threshold_with`].
    fn threshold(&self, b: usize, metric: ErrorMetric) -> Result<ThresholdRun, WsynError> {
        self.threshold_with(&RunParams::new(b, metric))
    }

    /// [`Thresholder::threshold`] with caller-provided reusable solver
    /// storage — a thin wrapper over
    /// [`Thresholder::threshold_with_reusing`].
    ///
    /// # Errors
    /// Same conditions as [`Thresholder::threshold_with`].
    fn threshold_reusing(
        &self,
        b: usize,
        metric: ErrorMetric,
        scratch: &mut SolverScratch,
    ) -> Result<ThresholdRun, WsynError> {
        self.threshold_with_reusing(&RunParams::new(b, metric), scratch)
    }
}

/// Reusable solver storage for [`Thresholder::threshold_with_reusing`]:
/// opaque scratch space a caller threads through repeated runs so
/// solvers can keep warm memos / allocations between them. One scratch
/// serves any mix of solvers — each solver validates the parts it uses
/// (the 1-D DP workspace self-clears when the instance changes).
#[derive(Default)]
pub struct SolverScratch {
    pub(crate) one_dim: DedupWorkspace,
}

impl SolverScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for SolverScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverScratch")
            .field("one_dim", &self.one_dim)
            .finish()
    }
}

impl Thresholder for MinMaxErr {
    fn name(&self) -> &'static str {
        "minmax"
    }

    fn has_guarantee(&self) -> bool {
        true
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("minmax");
        let r = {
            let _dp = params.obs.span("dp");
            // A fresh cold run by contract: stats describe exactly this
            // run (warm reuse is opt-in via `threshold_with_reusing`).
            let r = self.run_with(
                params.budget,
                params.metric,
                Config {
                    engine: Engine::Dedup,
                    split: params.split_search,
                },
            );
            params.obs.record_dp_stats(&r.stats);
            r
        };
        Ok(ThresholdRun {
            synopsis: AnySynopsis::One(r.synopsis),
            objective: r.objective,
            stats: r.stats,
        })
    }

    fn threshold_with_reusing(
        &self,
        params: &RunParams,
        scratch: &mut SolverScratch,
    ) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("minmax");
        let r = {
            let _dp = params.obs.span("dp");
            let r = self.run_warm(
                params.budget,
                params.metric,
                params.split_search,
                &mut scratch.one_dim,
            );
            params.obs.record_dp_stats(&r.stats);
            r
        };
        Ok(ThresholdRun {
            synopsis: AnySynopsis::One(r.synopsis),
            objective: r.objective,
            stats: r.stats,
        })
    }
}

/// The conventional greedy L2 baseline behind the uniform interface
/// (retains the `B` largest normalized coefficients; no max-error
/// guarantee, so the reported objective is the measured maximum error).
#[derive(Debug, Clone)]
pub struct GreedyL2 {
    tree: ErrorTree1d,
    data: Vec<f64>,
}

impl GreedyL2 {
    /// Builds the baseline from raw data.
    ///
    /// # Errors
    /// Propagates [`HaarError`] from the transform.
    pub fn new(data: &[f64]) -> Result<Self, HaarError> {
        Ok(Self {
            tree: ErrorTree1d::from_data(data)?,
            data: data.to_vec(),
        })
    }

    /// The underlying error tree.
    pub fn tree(&self) -> &ErrorTree1d {
        &self.tree
    }
}

impl Thresholder for GreedyL2 {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("greedy");
        let synopsis = {
            let _select = params.obs.span("select");
            greedy_l2_1d(&self.tree, params.budget)
        };
        let objective = {
            let _measure = params.obs.span("measure_error");
            synopsis.max_error(&self.data, params.metric)
        };
        params.obs.add("retained", synopsis.len());
        Ok(ThresholdRun {
            synopsis: AnySynopsis::One(synopsis),
            objective,
            stats: DpStats::default(),
        })
    }
}

impl Thresholder for AdditiveScheme {
    fn name(&self) -> &'static str {
        "additive"
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("additive");
        let r = {
            let _dp = params.obs.span("rounded_dp");
            let r = self.run(params.budget, params.metric, params.eps);
            params.obs.record_dp_stats(&r.stats);
            r
        };
        Ok(ThresholdRun {
            synopsis: AnySynopsis::Nd(r.synopsis),
            objective: r.true_objective,
            stats: r.stats,
        })
    }
}

impl Thresholder for IntegerExact {
    fn name(&self) -> &'static str {
        "integer-exact"
    }

    fn has_guarantee(&self) -> bool {
        true
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("integer_exact");
        let r = {
            let _dp = params.obs.span("int_dp");
            let r = match params.metric {
                ErrorMetric::Absolute => self.run(params.budget),
                ErrorMetric::Relative { sanity } => self.run_relative(params.budget, sanity),
            };
            params.obs.record_dp_stats(&r.stats);
            r
        };
        Ok(ThresholdRun {
            synopsis: AnySynopsis::Nd(r.synopsis),
            objective: r.true_objective,
            stats: r.stats,
        })
    }
}

impl Thresholder for OnePlusEps {
    fn name(&self) -> &'static str {
        "oneplus"
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        if !matches!(params.metric, ErrorMetric::Absolute) {
            return Err(WsynError::unsupported(
                self.name(),
                "the (1+ε) scheme is defined for the absolute-error metric only (§3.2.2)",
            ));
        }
        let _run = params.obs.span("oneplus");
        let r = self.run_observed(params.budget, params.eps, &params.obs);
        params.obs.record_dp_stats(&r.stats);
        Ok(ThresholdRun {
            synopsis: AnySynopsis::Nd(r.synopsis),
            objective: r.true_objective,
            stats: r.stats,
        })
    }
}

#[cfg(test)]
// Tests are exempt from the narrowing-cast lints: their casts narrow
// small literal loop indices.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn uniform_dispatch_1d() {
        let solvers: Vec<Box<dyn Thresholder>> = vec![
            Box::new(MinMaxErr::new(&EXAMPLE).unwrap()),
            Box::new(GreedyL2::new(&EXAMPLE).unwrap()),
        ];
        for metric in [ErrorMetric::absolute(), ErrorMetric::relative(1.0)] {
            let mut optimal = None;
            for s in &solvers {
                let r = s.threshold(3, metric).unwrap();
                let syn = r.synopsis.into_one("test").unwrap();
                assert!(syn.len() <= 3, "{} overspent the budget", s.name());
                let measured = syn.max_error(&EXAMPLE, metric);
                assert!(
                    (measured - r.objective).abs() < 1e-9,
                    "{}: objective {} vs measured {measured}",
                    s.name(),
                    r.objective
                );
                match s.name() {
                    "minmax" => optimal = Some(r.objective),
                    _ => assert!(
                        optimal.expect("minmax first") <= r.objective + 1e-9,
                        "optimal beaten by {}",
                        s.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn uniform_dispatch_nd() {
        use wsyn_haar::nd::{NdArray, NdShape};
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from(i % 5)).collect();
        let ints: Vec<i64> = vals.iter().map(|&v| v as i64).collect();
        let arr = NdArray::new(shape.clone(), vals.clone()).unwrap();
        let solvers: Vec<Box<dyn Thresholder>> = vec![
            Box::new(AdditiveScheme::new(&arr).unwrap()),
            Box::new(IntegerExact::new(&shape, &ints).unwrap()),
            Box::new(OnePlusEps::new(&shape, &ints).unwrap()),
        ];
        for s in &solvers {
            let r = s.threshold(4, ErrorMetric::absolute()).unwrap();
            assert!(r.synopsis.len() <= 4, "{} overspent", s.name());
            assert!(r.objective.is_finite());
            assert!(r.synopsis.into_one("x").is_err(), "{} is N-D", s.name());
        }
    }

    /// `threshold_reusing` must be result-identical to `threshold` for
    /// every solver — bit-identical for the warm-memo MinMaxErr path,
    /// across budgets, metrics, and a shared scratch.
    #[test]
    fn threshold_reusing_matches_threshold() {
        let solvers: Vec<Box<dyn Thresholder>> = vec![
            Box::new(MinMaxErr::new(&EXAMPLE).unwrap()),
            Box::new(GreedyL2::new(&EXAMPLE).unwrap()),
        ];
        let mut scratch = SolverScratch::new();
        for metric in [ErrorMetric::absolute(), ErrorMetric::relative(1.0)] {
            for s in &solvers {
                for b in (0..=8).rev() {
                    let cold = s.threshold(b, metric).unwrap();
                    let warm = s.threshold_reusing(b, metric, &mut scratch).unwrap();
                    assert_eq!(
                        warm.objective.to_bits(),
                        cold.objective.to_bits(),
                        "{} b={b} {metric:?}",
                        s.name()
                    );
                    let (warm1, cold1) = (
                        warm.synopsis.into_one("t").unwrap(),
                        cold.synopsis.into_one("t").unwrap(),
                    );
                    assert_eq!(warm1.indices(), cold1.indices());
                }
            }
        }
    }

    #[test]
    fn oneplus_rejects_relative_metric() {
        use wsyn_haar::nd::NdShape;
        let shape = NdShape::hypercube(4, 2).unwrap();
        let ints: Vec<i64> = (0..16).collect();
        let s = OnePlusEps::new(&shape, &ints).unwrap();
        let err = s.threshold(4, ErrorMetric::relative(1.0)).unwrap_err();
        assert!(
            matches!(&err, WsynError::Unsupported { solver, .. } if solver == "oneplus"),
            "{err:?}"
        );
    }

    #[test]
    fn run_params_builder() {
        let p = RunParams::new(8, ErrorMetric::absolute())
            .eps(0.25)
            .q(4)
            .split_search(crate::one_dim::SplitSearch::Linear)
            .sanity_bound(2.0);
        assert_eq!(p.budget, 8);
        assert_eq!(p.eps, 0.25);
        assert_eq!(p.q, 4);
        assert_eq!(p.split_search, crate::one_dim::SplitSearch::Linear);
        assert_eq!(p.metric, ErrorMetric::Relative { sanity: 2.0 });
        assert!(!p.obs.is_enabled());
    }

    /// Acceptance criterion: every solver run through `threshold_with`
    /// with a recording collector yields a report with a **non-empty**
    /// span tree, and two identical runs serialize byte-identically.
    #[test]
    fn every_solver_emits_a_nonempty_span_tree() {
        use wsyn_haar::nd::{NdArray, NdShape};
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from((i * 3 + 1) % 7)).collect();
        let ints: Vec<i64> = vals.iter().map(|&v| v as i64).collect();
        let arr = NdArray::new(shape.clone(), vals.clone()).unwrap();
        let solvers: Vec<Box<dyn Thresholder>> = vec![
            Box::new(MinMaxErr::new(&EXAMPLE).unwrap()),
            Box::new(GreedyL2::new(&EXAMPLE).unwrap()),
            Box::new(AdditiveScheme::new(&arr).unwrap()),
            Box::new(IntegerExact::new(&shape, &ints).unwrap()),
            Box::new(OnePlusEps::new(&shape, &ints).unwrap()),
        ];
        for s in &solvers {
            let render = || {
                let obs = wsyn_obs::Collector::recording();
                let params = RunParams::new(4, ErrorMetric::absolute()).obs(obs.clone());
                s.threshold_with(&params).unwrap();
                let report = obs
                    .report(wsyn_obs::run_meta(s.name(), 4, "abs"))
                    .expect("recording collector yields a report");
                assert!(
                    !report.root.children.is_empty(),
                    "{}: empty span tree",
                    s.name()
                );
                report.strip_timing().render()
            };
            assert_eq!(render(), render(), "{}: report not deterministic", s.name());
        }
    }

    /// The scratch-reusing path records into the collector too.
    #[test]
    fn reusing_path_records_spans() {
        let s = MinMaxErr::new(&EXAMPLE).unwrap();
        let mut scratch = SolverScratch::new();
        let obs = wsyn_obs::Collector::recording();
        let params = RunParams::new(3, ErrorMetric::absolute()).obs(obs.clone());
        s.threshold_with_reusing(&params, &mut scratch).unwrap();
        drop(params); // release the clone RunParams holds
        let root = obs.into_root().unwrap();
        assert_eq!(root.children[0].name, "minmax");
        assert_eq!(root.children[0].children[0].name, "dp");
        assert!(root.children[0].children[0].counters.contains_key("states"));
    }
}
