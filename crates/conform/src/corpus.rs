//! The golden corpus: hand-rolled instances with blessed JSON outputs.
//!
//! Each corpus file under `tests/corpus/` holds one [`CorpusDoc`]: an
//! [`Instance`] plus the expected solver outputs (objective and retained
//! set per solver × metric × budget). `check` recomputes every output
//! and compares **bit-exactly** — the JSON number encoding round-trips
//! `f64` through the shortest representation, so a blessed objective
//! carries the exact bit pattern, and any change to tie-breaking or
//! arithmetic order shows up as a corpus diff rather than a silent
//! drift. `bless` rewrites the expectations from the current solvers.

use std::path::{Path, PathBuf};

use wsyn_core::json::{self, Value};
use wsyn_haar::nd::NdShape;
use wsyn_synopsis::multi_dim::integer::IntegerExact;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::ErrorMetric;

use crate::checks::{self, CheckSummary};
use crate::gen::Instance;
use crate::Failure;

/// One blessed solver output.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Solver identifier (`"minmax"` for 1-D, `"integer-exact"` for N-D).
    pub solver: String,
    /// Metric the solver ran under.
    pub metric: ErrorMetric,
    /// Budget.
    pub budget: usize,
    /// The exact objective (bit-exact through JSON).
    pub objective: f64,
    /// Retained coefficient positions, ascending.
    pub retained: Vec<usize>,
}

/// A corpus file: instance plus blessed outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusDoc {
    /// The instance.
    pub instance: Instance,
    /// Blessed outputs, in [`compute_expected`] order.
    pub expected: Vec<Expected>,
}

/// Computes the canonical expected outputs for an instance: the optimal
/// solver for its dimensionality, every metric × budget, in declaration
/// order.
///
/// # Errors
/// Propagates solver construction failures as a [`Failure`].
pub fn compute_expected(inst: &Instance) -> Result<Vec<Expected>, Failure> {
    let name = &inst.name;
    let data: Vec<f64> = inst.data.iter().map(|&v| v as f64).collect();
    let mut out = Vec::new();
    if inst.shape.len() == 1 {
        let solver = MinMaxErr::new(&data)
            .map_err(|e| Failure::new("expected-build", name, e.to_string()))?;
        for &metric in &inst.metrics {
            for &b in &inst.budgets {
                let r = solver.run(b, metric);
                out.push(Expected {
                    solver: "minmax".to_string(),
                    metric,
                    budget: b,
                    objective: r.objective,
                    retained: r.synopsis.indices(),
                });
            }
        }
    } else {
        let shape = NdShape::new(inst.shape.clone())
            .map_err(|e| Failure::new("expected-build", name, e.to_string()))?;
        let solver = IntegerExact::new(&shape, &inst.data)
            .map_err(|e| Failure::new("expected-build", name, e.to_string()))?;
        for &metric in &inst.metrics {
            for &b in &inst.budgets {
                let r = match metric {
                    ErrorMetric::Absolute => solver.run(b),
                    ErrorMetric::Relative { sanity: s } => solver.run_relative(b, s),
                };
                let mut retained = r.synopsis.positions();
                retained.sort_unstable();
                out.push(Expected {
                    solver: "integer-exact".to_string(),
                    metric,
                    budget: b,
                    objective: r.true_objective,
                    retained,
                });
            }
        }
    }
    Ok(out)
}

/// Serializes a corpus doc (stable field order).
#[must_use]
pub fn doc_to_json(doc: &CorpusDoc) -> Value {
    let expected = doc
        .expected
        .iter()
        .map(|e| {
            json::object(vec![
                ("solver", Value::String(e.solver.clone())),
                ("metric", Value::String(e.metric.to_string())),
                ("budget", Value::Number(e.budget as f64)),
                ("objective", Value::Number(e.objective)),
                (
                    "retained",
                    Value::Array(
                        e.retained
                            .iter()
                            .map(|&p| Value::Number(p as f64))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    json::object(vec![
        ("instance", doc.instance.to_json()),
        ("expected", Value::Array(expected)),
    ])
}

/// Parses [`doc_to_json`] output.
///
/// # Errors
/// Names the first missing or malformed field.
pub fn doc_from_json(v: &Value) -> Result<CorpusDoc, String> {
    let instance = Instance::from_json(v.get("instance").ok_or("doc: missing `instance`")?)?;
    let expected = v
        .get("expected")
        .and_then(Value::as_array)
        .ok_or("doc: missing `expected` array")?
        .iter()
        .map(|e| {
            let solver = e
                .get("solver")
                .and_then(Value::as_str)
                .ok_or("expected: missing `solver`")?
                .to_string();
            let metric = e
                .get("metric")
                .and_then(Value::as_str)
                .ok_or("expected: missing `metric`")?
                .parse::<ErrorMetric>()?;
            let budget = e
                .get("budget")
                .and_then(Value::as_usize)
                .ok_or("expected: missing `budget`")?;
            let objective = e
                .get("objective")
                .and_then(Value::as_f64)
                .ok_or("expected: missing `objective`")?;
            let retained = e
                .get("retained")
                .and_then(Value::as_array)
                .ok_or("expected: missing `retained`")?
                .iter()
                .map(|p| {
                    p.as_usize()
                        .ok_or("expected: bad retained entry".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<Expected, String>(Expected {
                solver,
                metric,
                budget,
                objective,
                retained,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CorpusDoc { instance, expected })
}

/// Checks one corpus doc: recomputes the expected outputs (bit-exact
/// objective, identical retained set) and then runs the full
/// differential suite on the instance.
///
/// # Errors
/// The first violated expectation or differential check.
pub fn check_doc(doc: &CorpusDoc) -> Result<CheckSummary, Failure> {
    check_doc_observed(doc, &wsyn_obs::Collector::noop())
}

/// [`check_doc`], recording one span per check family on `obs` (see
/// [`checks::check_instance_observed`]). Golden-output comparisons are
/// recorded under a `golden` span.
///
/// # Errors
/// The first violated expectation or differential check.
pub fn check_doc_observed(
    doc: &CorpusDoc,
    obs: &wsyn_obs::Collector,
) -> Result<CheckSummary, Failure> {
    let name = &doc.instance.name;
    let golden_span = obs.span("golden");
    let recomputed = compute_expected(&doc.instance)?;
    if recomputed.len() != doc.expected.len() {
        return Err(Failure::new(
            "golden-layout",
            name,
            format!(
                "corpus lists {} outputs, solvers produce {}",
                doc.expected.len(),
                recomputed.len()
            ),
        ));
    }
    for (got, want) in recomputed.iter().zip(&doc.expected) {
        if got.solver != want.solver || got.metric != want.metric || got.budget != want.budget {
            return Err(Failure::new(
                "golden-layout",
                name,
                format!(
                    "output order mismatch: got {}/{}/b={}, corpus has {}/{}/b={}",
                    got.solver, got.metric, got.budget, want.solver, want.metric, want.budget
                ),
            ));
        }
        if got.objective.to_bits() != want.objective.to_bits() {
            return Err(Failure::new(
                "golden-objective-bits",
                name,
                format!(
                    "{} {} b={}: objective {} (bits {:#018x}) vs blessed {} (bits {:#018x})",
                    got.solver,
                    got.metric,
                    got.budget,
                    got.objective,
                    got.objective.to_bits(),
                    want.objective,
                    want.objective.to_bits()
                ),
            ));
        }
        if got.retained != want.retained {
            return Err(Failure::new(
                "golden-retained-set",
                name,
                format!(
                    "{} {} b={}: retained {:?} vs blessed {:?}",
                    got.solver, got.metric, got.budget, got.retained, want.retained
                ),
            ));
        }
    }
    obs.add("outputs", doc.expected.len());
    obs.add("checks", 3 * doc.expected.len());
    drop(golden_span);
    let mut sum = checks::check_instance_observed(&doc.instance, obs)?;
    sum.checks += 3 * doc.expected.len(); // layout, objective bits, retained set
    Ok(sum)
}

/// The hand-rolled corpus. Every instance has `N ≤ 32` and an
/// oracle-enumerable small-budget prefix, so Theorem 3.1/3.2 deviations
/// are certified against brute force on all of them; the mix covers the
/// paper's running example, every adversarial 1-D family, and 2-D/3-D
/// cubes.
#[must_use]
pub fn default_corpus() -> Vec<Instance> {
    let one_dim = |name: &str, data: Vec<i64>, updates: Vec<(usize, i64)>| {
        let n = data.len();
        let mut budgets = vec![0, 1, 2, 3, 4, n / 2, n];
        budgets.sort_unstable();
        budgets.dedup();
        Instance {
            name: name.to_string(),
            shape: vec![n],
            data,
            budgets,
            metrics: vec![ErrorMetric::absolute(), ErrorMetric::relative(1.0)],
            updates,
            seed: 0,
        }
    };
    vec![
        // The paper's §2.1 running example.
        one_dim(
            "paper-example",
            vec![2, 2, 0, 2, 3, 5, 4, 4],
            vec![(3, 4), (6, -2)],
        ),
        // One dominant spike in a flat field plus a lesser twin.
        one_dim(
            "spike",
            vec![0, 0, 1, 0, 120, 0, 0, -1, 0, 2, 0, 0, -45, 0, 1, 0],
            vec![(4, -60), (0, 5)],
        ),
        // Plateaus: coefficients vanish except at segment boundaries.
        one_dim(
            "plateau",
            vec![
                12, 12, 12, 12, -7, -7, -7, -7, -7, -7, 30, 30, 30, 30, 30, 30,
            ],
            vec![(9, 37)],
        ),
        // Near ties: equal-magnitude coefficients everywhere.
        one_dim("near-tie", vec![7, -7, 7, -7, 5, 5, -5, -5], vec![(2, 1)]),
        // Sign-alternating at N = 32: every finest coefficient is ±9.
        one_dim(
            "sign-alternating",
            (0..32)
                .map(|i| if i % 2 == 0 { 9 } else { -9 })
                .collect::<Vec<i64>>(),
            vec![(0, 3), (31, -3)],
        ),
        // Decreasing Zipf frequencies (the paper's workload).
        one_dim(
            "zipf",
            vec![97, 48, 31, 23, 18, 15, 12, 11, 9, 8, 7, 6, 6, 5, 5, 4],
            vec![(1, 10), (15, 2)],
        ),
        // 2-D 4×4 cube.
        Instance {
            name: "cube-4x4".to_string(),
            shape: vec![4, 4],
            data: vec![3, 3, 8, 9, 3, 4, 9, 11, 20, 21, 5, 4, 19, 22, 4, 3],
            budgets: vec![0, 1, 2, 3, 4, 8, 16],
            metrics: vec![ErrorMetric::absolute(), ErrorMetric::relative(1.0)],
            updates: Vec::new(),
            seed: 0,
        },
        // 3-D 2×2×2 cube.
        Instance {
            name: "cube-2x2x2".to_string(),
            shape: vec![2, 2, 2],
            data: vec![5, 1, 1, 0, 9, 2, 0, 14],
            budgets: vec![0, 1, 2, 3, 4, 8],
            metrics: vec![ErrorMetric::absolute(), ErrorMetric::relative(2.0)],
            updates: Vec::new(),
            seed: 0,
        },
    ]
}

/// Loads every `.json` corpus doc in `dir`, sorted by file name for
/// deterministic reporting order.
///
/// # Errors
/// IO or parse problems, with the offending path.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusDoc)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        let value = Value::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = doc_from_json(&value).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push((p, doc));
    }
    Ok(out)
}

/// Rewrites `dir` with the default corpus and freshly blessed outputs.
/// Returns the number of files written.
///
/// # Errors
/// Solver or IO problems, with the offending instance or path.
pub fn bless_dir(dir: &Path) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let instances = default_corpus();
    for inst in &instances {
        let expected = compute_expected(inst).map_err(|e| e.to_string())?;
        let doc = CorpusDoc {
            instance: inst.clone(),
            expected,
        };
        let path = dir.join(format!("{}.json", inst.name));
        let text = doc_to_json(&doc).pretty();
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(instances.len())
}

/// The default corpus directory: `tests/corpus/` next to this crate.
#[must_use]
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}
