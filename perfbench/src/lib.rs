//! The repository's benchmark: four user paths of the wavelet-synopses
//! workspace, timed end to end and split by layer.
//!
//! * [`builds`] — cold one-shot builds through the family registry, as
//!   `wsyn build` does them (`build_wavelet`, `build_hist`);
//! * [`serving`] — a loopback `wsyn-serve` driven in a closed loop by
//!   persistent clients (`serve_mixed`);
//! * [`ingest`] — one-pass streaming ingest (`stream_ingest`).
//!
//! Every workload makes its inputs from the workload seed, checks every
//! output it produces, and folds every output bit into an answers
//! digest. Layers are measured from outside: the benchmark wraps spans
//! ([`trace`]) around its own calls into each crate's public functions.
//! End-to-end timings are divided, op by op, by the host-speed factor
//! of a fixed kernel timed between the ops ([`hostspeed`]).
//! See `README.md` next to this crate for the metric catalogue.

#![forbid(unsafe_code)]

pub mod builds;
pub mod hostspeed;
pub mod ingest;
pub mod probe;
pub mod serving;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

use wsyn_core::json::{object, Value};

/// Times each workload sets up before its measured phase; `setup_s` is
/// the median.
pub const SETUP_REPS: usize = 9;

/// Most spans a traced run writes out.
pub const SPAN_FILE_LIMIT: usize = 50_000;

/// The workloads, by their `--workload` names. `BENCHMARK.json` lists
/// all but `build_hist`, whose run medians follow the host's speed less
/// closely than the host-speed factor does (see `README.md`); traced
/// `build_wavelet` runs measure its layers.
pub const WORKLOADS: [&str; 4] = [
    "build_wavelet",
    "build_hist",
    "serve_mixed",
    "stream_ingest",
];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("failed_ratio", "ratio"),
    ("datagen.gen_ms", "ms"),
    ("family.construct_ms", "ms"),
    ("synopsis.dp_ms", "ms"),
    ("synopsis.dp_states", "count"),
    ("synopsis.dp_leaf_evals", "count"),
    ("synopsis.dp_probes", "count"),
    ("synopsis.dp_peak_live", "count"),
    ("synopsis.dp_peak_rss_mb", "MB"),
    ("synopsis.bytes_per_state", "B"),
    ("hist.dp_ms", "ms"),
    ("hist.cost_evals", "count"),
    ("hist.build_ms", "ms"),
    ("core.json.encode_ms", "ms"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.store.query_us", "us"),
    ("aqp.answer_us", "us"),
    ("serve.store.drain_ms", "ms"),
    ("serve.store.updates_applied", "count"),
    ("serve.store.rebuilds", "count"),
    ("serve.store.rebuilds_per_flush", "ratio"),
    ("serve.store.build_ms", "ms"),
    ("serve.shell_us_p50", "us"),
    ("serve.requests.query", "count"),
    ("serve.requests.update", "count"),
    ("serve.requests.flush", "count"),
    ("serve.requests.build", "count"),
    ("serve.failed.query", "count"),
    ("serve.failed.update", "count"),
    ("serve.failed.flush", "count"),
    ("serve.failed.build", "count"),
    ("update_ms_p50", "ms"),
    ("flush_ms_p50", "ms"),
    ("rebuild_ms_p50", "ms"),
    ("stream.push_ms_p50", "ms"),
    ("stream.push_ms_total", "ms"),
    ("stream.finalize_ms", "ms"),
    ("stream.peak_cells", "count"),
    ("stream.state_bound_cells", "count"),
    ("stream.peak_over_bound", "ratio"),
    ("stream.peak_bytes", "B"),
    ("trace.op_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.span_cost_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.probe_ms", "ms"),
    ("trace.spans_per_op", "count"),
];

/// How one workload run is driven.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the measured phase. A run also goes on until it has
    /// covered its digest prefix and its minimum op count.
    pub seconds: f64,
    /// Record spans.
    pub trace: bool,
    /// Tiny inputs (the smoke tests); the code path is the same.
    pub tiny: bool,
    /// Corrupt the first output before it is checked (the negative
    /// test of the output checks).
    pub corrupt: bool,
    /// Server shards, client connections and pool threads (one in the
    /// command-line runs, which pin the process to one CPU).
    pub threads: usize,
    /// The benchmark binary, which runs the host-speed kernel; `None`
    /// leaves timings as measured.
    pub host_kernel: Option<std::path::PathBuf>,
}

impl RunSpec {
    /// Full-size inputs on `threads` threads, timings as measured.
    #[must_use]
    pub fn new(seed: u64, seconds: f64, trace: bool, threads: usize) -> RunSpec {
        RunSpec {
            seed,
            seconds,
            trace,
            tiny: false,
            corrupt: false,
            threads,
            host_kernel: None,
        }
    }

    /// The measured phase as a duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// Digest over the outputs of the run's fixed prefix of operations.
    pub digest: stats::Digest,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Per-op latency samples of the workload's primary op, ms.
    pub op_ms: Vec<f64>,
    /// The host-speed factor around each `op_ms` sample
    /// ([`hostspeed::HostSpeed::factor_around`]); 1 in runs that take no
    /// kernel sample.
    pub op_factor: Vec<f64>,
    /// Work units completed per second (builds, queries or items).
    pub throughput_per_s: f64,
    /// Peak RSS of the measured phase; `None` when unavailable.
    pub peak_rss_mb: Option<f64>,
    /// The workload's own end-to-end figures, under their path names
    /// (`build_ms_p50`, `queries_per_s`, ...), for the report line.
    pub named: Vec<Metric>,
    /// Per-layer figures this workload measures.
    pub layers: Vec<Metric>,
    /// Sample counts and other facts for the report line.
    pub notes: Vec<(String, Value)>,
    /// Recorded spans (traced runs).
    pub spans: Vec<trace::Span>,
    /// Kernel samples taken between the ops.
    pub host: hostspeed::HostSpeed,
}

impl Outcome {
    /// Operations failed over operations attempted.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        failed_ratio(self.failed, self.attempted)
    }

    /// The end-to-end metrics, in [`END_TO_END`] order, at the reference
    /// host's speed: each op time divided by the host-speed factor
    /// around it; throughput and set-up time scaled by the factor those
    /// divisions amount to over the whole run. `peak_rss_mb` is left out
    /// when it could not be measured.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<Metric> {
        match self.normalised_ops() {
            Some(ops) => self.metrics(&ops, self.host_factor()),
            None => self.raw_end_to_end(),
        }
    }

    /// The end-to-end metrics as timed on this run's host.
    #[must_use]
    pub fn raw_end_to_end(&self) -> Vec<Metric> {
        self.metrics(&self.op_ms, 1.0)
    }

    /// The run's host-speed factor over all its ops: their raw time
    /// over their normalised time; 1 when no kernel was sampled.
    #[must_use]
    pub fn host_factor(&self) -> f64 {
        self.normalised_ops().map_or(1.0, |ops| {
            self.op_ms.iter().sum::<f64>() / ops.iter().sum::<f64>()
        })
    }

    /// Each op time over the host-speed factor around it.
    fn normalised_ops(&self) -> Option<Vec<f64>> {
        let complete = !self.op_ms.is_empty() && self.op_factor.len() == self.op_ms.len();
        complete.then(|| {
            self.op_ms
                .iter()
                .zip(&self.op_factor)
                .map(|(ms, f)| ms / f)
                .collect()
        })
    }

    fn metrics(&self, ops: &[f64], factor: f64) -> Vec<Metric> {
        let mut out = vec![
            Metric::new("setup_s", self.setup_s / factor, "s"),
            Metric::new("op_ms_p50", stats::median(ops), "ms"),
            Metric::new("op_ms_tail", stats::tail(ops).map_or(0.0, |(_, v)| v), "ms"),
            Metric::new("throughput_per_s", self.throughput_per_s * factor, "1/s"),
        ];
        if let Some(mb) = self.peak_rss_mb {
            out.push(Metric::new("peak_rss_mb", mb, "MB"));
        }
        out
    }

    /// Percentile that `op_ms_tail` reports.
    #[must_use]
    pub fn tail_percentile(&self) -> Option<f64> {
        stats::tail(&self.op_ms).map(|(p, _)| p)
    }
}

/// Operations failed over operations attempted; 1 when nothing was
/// attempted.
#[must_use]
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    failed as f64 / attempted as f64
}

/// Runs workload `name`.
///
/// # Errors
/// An unknown workload name, or a set-up failure (bind, first build)
/// that leaves nothing to measure.
pub fn run_workload(name: &str, spec: &RunSpec) -> Result<Outcome, String> {
    match name {
        "build_wavelet" => builds::run(builds::Family::Wavelet, spec),
        "build_hist" => builds::run(builds::Family::Hist, spec),
        "serve_mixed" => serving::run(spec),
        "stream_ingest" => ingest::run(spec),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Times one set-up, returning its seconds and its result.
///
/// # Errors
/// The set-up's failure.
pub fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t0 = Instant::now();
    let state = setup()?;
    Ok((t0.elapsed().as_secs_f64(), state))
}

/// `setup_s`: the median of the first set-up's time and of
/// `SETUP_REPS - 1` more set-ups, each dropped once timed. The extra
/// set-ups run after the measured phase, so their leftovers cannot
/// reach its peak RSS.
///
/// # Errors
/// The first failing set-up.
pub fn setup_median<T>(
    first_s: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut secs = vec![first_s];
    for _ in 1..SETUP_REPS {
        let (s, state) = timed(&mut setup)?;
        drop(state);
        secs.push(s);
    }
    Ok(stats::median(&secs))
}

/// Mean cost of one recorded span, in ms, measured in this process.
#[must_use]
pub fn span_cost_ms() -> f64 {
    const SPANS: usize = 20_000;
    let mut tracer = trace::Tracer::new(true, Instant::now());
    let t0 = Instant::now();
    for _ in 0..SPANS {
        tracer.span("calibrate", |_| ());
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(tracer.into_spans());
    stats::ms(elapsed) / SPANS as f64
}

/// CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Process facts every result carries; `nproc` is the count before the
/// run pinned itself.
#[must_use]
pub fn run_meta(workload: &str, spec: &RunSpec, nproc: usize) -> Value {
    object(vec![
        ("workload", Value::String(workload.to_string())),
        ("seed", Value::Number(spec.seed as f64)),
        ("nproc", Value::Number(nproc as f64)),
        ("threads", Value::Number(spec.threads as f64)),
        (
            "rustc",
            Value::String(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
        (
            "git_revision",
            Value::String(env!("PERFBENCH_GIT_REVISION").to_string()),
        ),
    ])
}
