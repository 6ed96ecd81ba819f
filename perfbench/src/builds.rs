//! `build_wavelet` and `build_hist`: cold one-shot builds, each doing
//! what `wsyn build --algo <family>` does after reading its input —
//! resolve the family through the registry, threshold at `(B, abs)`,
//! encode the synopsis document as JSON.

use std::time::Instant;

use wsyn_core::json::{object, Value};
use wsyn_core::DpStats;
use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_synopsis::thresholder::RunParams;
use wsyn_synopsis::{AnySynopsis, ErrorMetric};

use crate::hostspeed::{HostSpeed, Kernel};
use crate::probe::{peak_growth_mb, PhasePeak};
use crate::stats::{median, ms, Digest, SplitMix};
use crate::trace::{per_op_self_ns, self_times, Tracer};
use crate::{setup_median, timed, Metric, Outcome, RunSpec};

/// Which family a build workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's optimal max-error DP (`minmax`).
    Wavelet,
    /// The optimal L∞ histogram (`hist`), the control.
    Hist,
}

impl Family {
    fn id(self) -> &'static str {
        match self {
            Family::Wavelet => "minmax",
            Family::Hist => "hist",
        }
    }

    /// The layer `threshold_with` is counted under.
    fn dp_layer(self) -> &'static str {
        match self {
            Family::Wavelet => "synopsis.dp",
            Family::Hist => "hist.dp",
        }
    }
}

/// Input shape of a build workload.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    n: usize,
    budget: usize,
    /// Distinct input vectors, used in turn.
    pool: usize,
    /// Leading builds whose outputs go into the digest.
    digest_ops: usize,
    /// Builds every run makes, however long they take.
    min_ops: usize,
}

const FULL: Sizes = Sizes {
    n: 1024,
    budget: 32,
    pool: 64,
    digest_ops: 8,
    min_ops: 20,
};

const TINY: Sizes = Sizes {
    n: 64,
    budget: 8,
    pool: 4,
    digest_ops: 4,
    min_ops: 12,
};

const SKEW: f64 = 1.0;
const TOTAL: f64 = 100_000.0;
const METRIC: &str = "abs";

/// The pool of input vectors for `seed`: zipf(1.0), shuffled.
fn inputs(seed: u64, sizes: Sizes) -> Vec<Vec<f64>> {
    let mut rng = SplitMix::new(seed);
    (0..sizes.pool)
        .map(|_| {
            zipf(
                sizes.n,
                SKEW,
                TOTAL,
                ZipfPlacement::Shuffled,
                rng.next_u64(),
            )
        })
        .collect()
}

/// What one build produced.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// The reported objective (the guaranteed maximum error).
    pub objective: f64,
    /// The synopsis.
    pub synopsis: AnySynopsis,
    /// The encoded synopsis document.
    pub document: String,
    /// DP counters the solver returned.
    pub stats: DpStats,
    /// Peak-RSS growth across `threshold_with` (traced runs).
    pub dp_peak_rss_mb: Option<f64>,
}

/// Retained terms: `(coefficient index, value)` for a wavelet,
/// `(bucket start, value)` for a histogram.
fn terms(synopsis: &AnySynopsis) -> Vec<(usize, f64)> {
    match synopsis {
        AnySynopsis::One(s) => s.entries().to_vec(),
        AnySynopsis::Histogram(s) => s.buckets().iter().map(|b| (b.start, b.value)).collect(),
        _ => Vec::new(),
    }
}

fn reconstruct(synopsis: &AnySynopsis) -> Vec<f64> {
    match synopsis {
        AnySynopsis::One(s) => s.reconstruct(),
        AnySynopsis::Histogram(s) => s.reconstruct(),
        _ => Vec::new(),
    }
}

/// One cold build of `data`: registry → `threshold_with` → JSON.
///
/// # Errors
/// Any layer's error.
pub fn build_once(
    family: Family,
    data: &[f64],
    budget: usize,
    tracer: &mut Tracer,
) -> Result<BuildOutput, String> {
    tracer.span("build.op", |t| {
        let thresholder = t
            .span("family.construct", |_| {
                wsyn_serve::registry().build(family.id(), data)
            })
            .map_err(|e| e.to_string())?;
        let params = RunParams::new(budget, ErrorMetric::absolute());
        let (run, dp_peak_rss_mb) = if t.enabled() {
            // The probe's own /proc reads are tracing cost, kept out of
            // the DP layer and out of the op's unattributed time.
            t.span("trace.probe", |t| {
                peak_growth_mb(|| {
                    t.span(family.dp_layer(), |_| thresholder.threshold_with(&params))
                })
            })
        } else {
            (thresholder.threshold_with(&params), None)
        };
        let run = run.map_err(|e| e.to_string())?;
        let document = t.span("core.json.encode", |_| {
            document(thresholder.name(), data.len(), run.objective, &run.synopsis).pretty()
        });
        Ok(BuildOutput {
            objective: run.objective,
            synopsis: run.synopsis,
            document,
            stats: run.stats,
            dp_peak_rss_mb,
        })
    })
}

/// The synopsis document `wsyn build` writes: provenance, objective and
/// the retained terms (`entries` for wavelets, `buckets` for histograms).
fn document(algorithm: &str, n: usize, objective: f64, synopsis: &AnySynopsis) -> Value {
    let key = match synopsis {
        AnySynopsis::Histogram(_) => "buckets",
        _ => "entries",
    };
    let pairs = terms(synopsis)
        .iter()
        .map(|&(j, v)| Value::Array(vec![Value::Number(j as f64), Value::Number(v)]))
        .collect();
    object(vec![
        ("algorithm", Value::String(algorithm.to_string())),
        ("metric", Value::String(METRIC.to_string())),
        ("objective", Value::Number(objective)),
        (
            "synopsis",
            object(vec![
                ("n", Value::Number(n as f64)),
                (key, Value::Array(pairs)),
            ]),
        ),
    ])
}

/// The output checks of one build: the realized maximum error of the
/// reconstruction equals the objective to 1e-9 relative, at most
/// `budget` terms are kept, and the JSON document round-trips to the
/// same bytes and the same bits.
#[must_use]
pub fn check(data: &[f64], budget: usize, out: &BuildOutput) -> bool {
    let terms = terms(&out.synopsis);
    let reconstruction = reconstruct(&out.synopsis);
    if terms.len() > budget || reconstruction.len() != data.len() {
        return false;
    }
    let realized = ErrorMetric::absolute().max_error(data, &reconstruction);
    let scale = out.objective.abs().max(f64::MIN_POSITIVE);
    let matches = (realized - out.objective).abs() <= 1e-9 * scale;
    if !matches {
        return false;
    }
    let Ok(parsed) = Value::parse(&out.document) else {
        return false;
    };
    if parsed.pretty() != out.document {
        return false;
    }
    let objective = parsed.get("objective").and_then(Value::as_f64);
    if objective.map(f64::to_bits) != Some(out.objective.to_bits()) {
        return false;
    }
    let synopsis = parsed.get("synopsis");
    let pairs = synopsis
        .and_then(|s| s.get("entries").or_else(|| s.get("buckets")))
        .and_then(Value::as_array);
    let Some(pairs) = pairs else {
        return false;
    };
    pairs.len() == terms.len()
        && pairs.iter().zip(&terms).all(|(pair, &(j, v))| {
            let pair = pair.as_array().unwrap_or(&[]);
            pair.len() == 2
                && pair[0].as_usize() == Some(j)
                && pair[1].as_f64().map(f64::to_bits) == Some(v.to_bits())
        })
}

fn fold(digest: &mut Digest, out: &BuildOutput) {
    digest.f64(out.objective);
    for (j, v) in terms(&out.synopsis) {
        digest.word(j as u64);
        digest.f64(v);
    }
    digest.bytes(out.document.as_bytes());
}

/// Runs a build workload.
///
/// # Errors
/// None in practice: builds that fail are counted, not returned.
pub fn run(family: Family, spec: &RunSpec) -> Result<Outcome, String> {
    let sizes = if spec.tiny { TINY } else { FULL };
    let mut gen_ms = Vec::new();
    // Set-up ends with the first result: the input pool, then a build of
    // its first input. The pool alone takes about 2 ms, and small
    // cache-resident work like it slows less than the host-speed kernel
    // in the host's slow stretches, so its normalised time moved 29 %
    // between two sets of runs; the build follows the kernel.
    let mut setup = || {
        let t0 = Instant::now();
        let pool = inputs(spec.seed, sizes);
        gen_ms.push(ms(t0.elapsed()));
        build_once(family, &pool[0], sizes.budget, &mut Tracer::new(false, t0))?;
        Ok(pool)
    };
    let (first_setup_s, pool) = timed(&mut setup)?;

    let mut out = Outcome {
        host: HostSpeed::new(Kernel::Table, spec.host_kernel.clone()),
        ..Outcome::default()
    };
    let epoch = Instant::now();
    let mut tracer = Tracer::new(spec.trace, epoch);
    // Traced wavelet runs also build each input through `hist`, outside
    // the timed op: the hist layers and the gap between the families.
    let mut control = Control::new(family == Family::Wavelet && spec.trace, epoch);
    let mut stats: Vec<DpStats> = Vec::new();
    // Kernel samples taken before each measured build.
    let mut taken = Vec::new();
    let mut rss_per_build = Vec::new();
    let peak = PhasePeak::start();
    let phase = Instant::now();
    let mut busy_s = 0.0;
    let mut k = 0usize;
    while k < sizes.min_ops || k < sizes.digest_ops || phase.elapsed() < spec.duration() {
        out.host.due();
        let data = &pool[k % pool.len()];
        tracer.set_op(k as u64);
        let t0 = Instant::now();
        let result = build_once(family, data, sizes.budget, &mut tracer);
        let elapsed = t0.elapsed();
        out.attempted += 1;
        match result {
            Ok(mut built) => {
                busy_s += elapsed.as_secs_f64();
                out.op_ms.push(ms(elapsed));
                taken.push(out.host.samples());
                if spec.corrupt && k == 0 {
                    built.objective = f64::from_bits(built.objective.to_bits() ^ (1 << 51));
                }
                if !check(data, sizes.budget, &built) {
                    out.failed += 1;
                }
                if k < sizes.digest_ops {
                    fold(&mut out.digest, &built);
                }
                stats.push(built.stats);
                if let Some(mb) = built.dp_peak_rss_mb {
                    rss_per_build.push((mb, built.stats.peak_live));
                }
            }
            Err(_) => out.failed += 1,
        }
        control.build(k, data, sizes.budget, &mut out);
        k += 1;
    }
    out.peak_rss_mb = peak.peak_mb();
    out.op_factor = taken.iter().map(|&t| out.host.factor_around(t)).collect();
    out.setup_s = setup_median(first_setup_s, setup)?;
    let builds = out.op_ms.len() as f64;
    out.throughput_per_s = if busy_s > 0.0 { builds / busy_s } else { 0.0 };

    let p50 = median(&out.op_ms);
    out.named = vec![
        Metric::new("build_ms_p50", p50, "ms"),
        Metric::new("builds_per_s", out.throughput_per_s, "1/s"),
    ];
    out.notes = vec![
        ("family".into(), Value::String(family.id().into())),
        ("n".into(), Value::Number(sizes.n as f64)),
        ("budget".into(), Value::Number(sizes.budget as f64)),
        ("builds".into(), Value::Number(builds)),
        ("distinct_inputs".into(), Value::Number(sizes.pool as f64)),
        (
            "digest_builds".into(),
            Value::Number(sizes.digest_ops as f64),
        ),
    ];
    out.spans = tracer.into_spans();
    out.layers = layers(family, &out.spans, &stats, &rss_per_build, &gen_ms);
    if family == Family::Hist {
        out.layers
            .extend(hist_layers(&out.spans, &stats, &out.op_ms));
    } else if control.enabled {
        out.layers.extend(hist_layers(
            control.tracer.spans(),
            &control.stats,
            &control.op_ms,
        ));
        let mut all = Tracer::new(true, epoch);
        all.absorb(std::mem::take(&mut out.spans));
        all.absorb(control.tracer.into_spans());
        out.spans = all.into_spans();
    }
    Ok(out)
}

/// Op ids of control builds carry this bit, apart from the measured ops.
const CONTROL_OP: u64 = 1 << 63;

/// The hist builds a traced `build_wavelet` run makes of its inputs.
struct Control {
    enabled: bool,
    tracer: Tracer,
    stats: Vec<DpStats>,
    op_ms: Vec<f64>,
}

impl Control {
    fn new(enabled: bool, epoch: Instant) -> Control {
        Control {
            enabled,
            tracer: Tracer::new(enabled, epoch),
            stats: Vec::new(),
            op_ms: Vec::new(),
        }
    }

    /// Builds input `k` through `hist`; its outcome counts towards the
    /// run's attempted and failed ops.
    fn build(&mut self, k: usize, data: &[f64], budget: usize, out: &mut Outcome) {
        if !self.enabled {
            return;
        }
        self.tracer.set_op(CONTROL_OP | k as u64);
        let t0 = Instant::now();
        let result = build_once(Family::Hist, data, budget, &mut self.tracer);
        let elapsed = t0.elapsed();
        out.attempted += 1;
        match result {
            Ok(built) if check(data, budget, &built) => {
                self.op_ms.push(ms(elapsed));
                self.stats.push(built.stats);
            }
            _ => out.failed += 1,
        }
    }
}

/// The hist layers: DP self time, cost evaluations and whole builds.
fn hist_layers(spans: &[crate::trace::Span], stats: &[DpStats], build_ms: &[f64]) -> Vec<Metric> {
    let selfs = self_times(spans);
    let dp: Vec<f64> = per_op_self_ns(spans, &selfs, "hist.dp")
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let evals: Vec<f64> = stats.iter().map(|s| s.leaf_evals as f64).collect();
    vec![
        Metric::new("hist.dp_ms", median(&dp), "ms"),
        Metric::new("hist.cost_evals", median(&evals), "count"),
        Metric::new("hist.build_ms", median(build_ms), "ms"),
    ]
}

fn layers(
    family: Family,
    spans: &[crate::trace::Span],
    stats: &[DpStats],
    rss_per_build: &[(f64, usize)],
    gen_ms: &[f64],
) -> Vec<Metric> {
    let selfs = self_times(spans);
    let p50_ms = |name: &str| {
        let v: Vec<f64> = per_op_self_ns(spans, &selfs, name)
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect();
        median(&v)
    };
    let count_p50 = |f: fn(&DpStats) -> usize| {
        let v: Vec<f64> = stats.iter().map(|s| f(s) as f64).collect();
        median(&v)
    };
    let mut layers = vec![
        Metric::new("datagen.gen_ms", median(gen_ms), "ms"),
        Metric::new("family.construct_ms", p50_ms("family.construct"), "ms"),
        Metric::new("core.json.encode_ms", p50_ms("core.json.encode"), "ms"),
        Metric::new("trace.unattributed_ms", p50_ms("build.op"), "ms"),
        Metric::new("trace.probe_ms", p50_ms("trace.probe"), "ms"),
    ];
    if family == Family::Wavelet {
        let rss: Vec<f64> = rss_per_build.iter().map(|&(mb, _)| mb).collect();
        let per_state: Vec<f64> = rss_per_build
            .iter()
            .filter(|&&(_, live)| live > 0)
            .map(|&(mb, live)| mb * 1e6 / live as f64)
            .collect();
        layers.extend([
            Metric::new("synopsis.dp_ms", p50_ms("synopsis.dp"), "ms"),
            Metric::new("synopsis.dp_states", count_p50(|s| s.states), "count"),
            Metric::new(
                "synopsis.dp_leaf_evals",
                count_p50(|s| s.leaf_evals),
                "count",
            ),
            Metric::new("synopsis.dp_probes", count_p50(|s| s.probes), "count"),
            Metric::new("synopsis.dp_peak_live", count_p50(|s| s.peak_live), "count"),
            Metric::new("synopsis.dp_peak_rss_mb", median(&rss), "MB"),
            Metric::new("synopsis.bytes_per_state", median(&per_state), "B"),
        ]);
    }
    layers
}
