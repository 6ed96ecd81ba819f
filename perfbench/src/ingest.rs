//! `stream_ingest`: one-pass [`StreamingMaxErr`] runs over zipf streams,
//! pushed in fixed-size frames and then finalized.

use std::time::Instant;

use wsyn_core::json::Value;
use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_stream::StreamingMaxErr;
use wsyn_synopsis::thresholder::RunParams;
use wsyn_synopsis::{ErrorMetric, Synopsis1d};

use crate::hostspeed::{HostSpeed, Kernel};
use crate::probe::PhasePeak;
use crate::stats::{median, ms, Digest, SplitMix};
use crate::trace::{per_op_self_ns, self_times, Tracer};
use crate::{setup_median, timed, Metric, Outcome, RunSpec};

/// Shape of the streams.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    n: usize,
    frame: usize,
    budget: usize,
    eps: f64,
    /// Distinct streams, used in turn.
    pool: usize,
    /// Leading passes whose outputs go into the digest.
    digest_passes: usize,
    /// Passes every run makes, however long they take.
    min_passes: usize,
}

const FULL: Sizes = Sizes {
    n: 1 << 16,
    frame: 4096,
    budget: 8,
    eps: 0.25,
    pool: 4,
    digest_passes: 2,
    min_passes: 2,
};

const TINY: Sizes = Sizes {
    n: 1 << 10,
    frame: 64,
    budget: 4,
    eps: 0.25,
    pool: 2,
    digest_passes: 2,
    min_passes: 2,
};

const SKEW: f64 = 1.1;
const TOTAL: f64 = 100_000.0;

/// One stream and its declared scale (an upper bound on `max |d_i|`).
struct Stream {
    data: Vec<f64>,
    scale: f64,
}

fn streams(seed: u64, sizes: Sizes) -> Vec<Stream> {
    let mut rng = SplitMix::new(seed ^ 0x57_4ea3);
    (0..sizes.pool)
        .map(|_| {
            let data = zipf(
                sizes.n,
                SKEW,
                TOTAL,
                ZipfPlacement::Shuffled,
                rng.next_u64(),
            );
            let scale = data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            Stream { data, scale }
        })
        .collect()
}

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// The certified guarantee.
    pub objective: f64,
    /// The finalized synopsis.
    pub synopsis: Synopsis1d,
    /// Peak live DP cells during the pass.
    pub peak_cells: usize,
    /// The builder's bound on live cells.
    pub state_bound_cells: usize,
    /// Peak sketch bytes during the pass.
    pub peak_bytes: usize,
}

/// The output checks of one pass: the realized maximum error is at most
/// the certified objective, at most `budget` coefficients are kept, and
/// the live cells never exceeded the builder's bound.
#[must_use]
pub fn check(data: &[f64], budget: usize, out: &PassOutput) -> bool {
    let reconstruction = out.synopsis.reconstruct();
    let realized = ErrorMetric::absolute().max_error(data, &reconstruction);
    out.synopsis.len() <= budget
        && reconstruction.len() == data.len()
        && realized <= out.objective
        && out.peak_cells <= out.state_bound_cells
}

/// Where a pass records each frame: its push time (ms) and the number
/// of host-speed samples, taken between frames, before it.
struct Frames<'a> {
    ms: &'a mut Vec<f64>,
    taken: &'a mut Vec<usize>,
    host: &'a mut HostSpeed,
}

/// Creates a builder for `stream` and pushes its first frame.
fn first_frame(stream: &Stream, sizes: Sizes) -> Result<(), String> {
    let params = RunParams::new(sizes.budget, ErrorMetric::absolute()).eps(sizes.eps);
    StreamingMaxErr::new(sizes.n, stream.scale, &params)
        .and_then(|mut builder| builder.push_slice(&stream.data[..sizes.frame]))
        .map_err(|e| e.to_string())
}

/// One pass: create the builder, push every frame, finalize.
fn pass(
    stream: &Stream,
    sizes: Sizes,
    tracer: &mut Tracer,
    frames: Frames<'_>,
) -> Result<PassOutput, String> {
    tracer.span("stream.pass", |t| {
        let params = RunParams::new(sizes.budget, ErrorMetric::absolute()).eps(sizes.eps);
        let mut builder = t
            .span("stream.new", |_| {
                StreamingMaxErr::new(sizes.n, stream.scale, &params)
            })
            .map_err(|e| e.to_string())?;
        for frame in stream.data.chunks(sizes.frame) {
            // Its own span, so that the pass's self time leaves it out.
            t.span("host.sample", |_| frames.host.due());
            let t0 = Instant::now();
            t.span("stream.push", |_| builder.push_slice(frame))
                .map_err(|e| e.to_string())?;
            frames.ms.push(ms(t0.elapsed()));
            frames.taken.push(frames.host.samples());
        }
        let state_bound_cells = builder.state_bound_cells();
        let peak_bytes = builder.peak_bytes();
        let run = t
            .span("stream.finalize", |_| builder.finalize())
            .map_err(|e| e.to_string())?;
        Ok(PassOutput {
            objective: run.objective,
            synopsis: run.synopsis,
            peak_cells: run.peak_cells,
            state_bound_cells,
            peak_bytes: peak_bytes.max(run.peak_bytes),
        })
    })
}

/// Runs `stream_ingest`.
///
/// # Errors
/// None in practice: passes that fail are counted, not returned.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let sizes = if spec.tiny { TINY } else { FULL };
    let mut gen_ms = Vec::new();
    // Set-up ends with the first result, as on the build workloads: the
    // stream pool, then a builder that takes the first frame.
    let mut setup = || {
        let t0 = Instant::now();
        let pool = streams(spec.seed, sizes);
        gen_ms.push(ms(t0.elapsed()));
        first_frame(&pool[0], sizes)?;
        Ok(pool)
    };
    let (first_setup_s, pool) = timed(&mut setup)?;

    let mut out = Outcome {
        host: HostSpeed::new(Kernel::MergeLoopback, spec.host_kernel.clone()),
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(spec.trace, Instant::now());
    let mut frame_ms = Vec::new();
    let mut taken = Vec::new();
    let mut outputs: Vec<PassOutput> = Vec::new();
    let mut busy_s = 0.0;
    let mut items = 0usize;
    let peak = PhasePeak::start();
    let phase = Instant::now();
    let mut p = 0usize;
    while p < sizes.min_passes.max(sizes.digest_passes) || phase.elapsed() < spec.duration() {
        let stream = &pool[p % pool.len()];
        tracer.set_op(p as u64);
        let sampling = out.host.spent();
        let t0 = Instant::now();
        let frames = Frames {
            ms: &mut frame_ms,
            taken: &mut taken,
            host: &mut out.host,
        };
        let result = pass(stream, sizes, &mut tracer, frames);
        let elapsed = t0.elapsed().saturating_sub(out.host.spent() - sampling);
        out.attempted += 1;
        match result {
            Ok(mut done) => {
                busy_s += elapsed.as_secs_f64();
                items += sizes.n;
                if spec.corrupt && p == 0 {
                    done.objective = -done.objective;
                }
                if !check(&stream.data, sizes.budget, &done) {
                    out.failed += 1;
                }
                if p < sizes.digest_passes {
                    fold(&mut out.digest, &done);
                }
                outputs.push(done);
            }
            Err(_) => out.failed += 1,
        }
        p += 1;
    }
    out.peak_rss_mb = peak.peak_mb();
    out.op_factor = taken.iter().map(|&t| out.host.factor_around(t)).collect();
    out.setup_s = setup_median(first_setup_s, setup)?;
    out.throughput_per_s = if busy_s > 0.0 {
        items as f64 / busy_s
    } else {
        0.0
    };
    out.op_ms = frame_ms;

    out.named = vec![Metric::new(
        "ingest_items_per_s",
        out.throughput_per_s,
        "1/s",
    )];
    out.notes = vec![
        ("n".into(), Value::Number(sizes.n as f64)),
        ("frame".into(), Value::Number(sizes.frame as f64)),
        ("budget".into(), Value::Number(sizes.budget as f64)),
        ("eps".into(), Value::Number(sizes.eps)),
        ("passes".into(), Value::Number(p as f64)),
        ("distinct_streams".into(), Value::Number(sizes.pool as f64)),
        (
            "digest_passes".into(),
            Value::Number(sizes.digest_passes as f64),
        ),
    ];

    let spans = tracer.into_spans();
    let selfs = self_times(&spans);
    let per_pass_ms = |name: &str| -> Vec<f64> {
        per_op_self_ns(&spans, &selfs, name)
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect()
    };
    let frames: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "stream.push")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    let med = |f: fn(&PassOutput) -> f64| median(&outputs.iter().map(f).collect::<Vec<_>>());
    out.layers = vec![
        Metric::new("datagen.gen_ms", median(&gen_ms), "ms"),
        Metric::new("stream.push_ms_p50", median(&frames), "ms"),
        Metric::new(
            "stream.push_ms_total",
            median(&per_pass_ms("stream.push")),
            "ms",
        ),
        Metric::new(
            "stream.finalize_ms",
            median(&per_pass_ms("stream.finalize")),
            "ms",
        ),
        Metric::new("stream.peak_cells", med(|o| o.peak_cells as f64), "count"),
        Metric::new(
            "stream.state_bound_cells",
            med(|o| o.state_bound_cells as f64),
            "count",
        ),
        Metric::new(
            "stream.peak_over_bound",
            med(|o| o.peak_cells as f64 / o.state_bound_cells.max(1) as f64),
            "ratio",
        ),
        Metric::new("stream.peak_bytes", med(|o| o.peak_bytes as f64), "B"),
        Metric::new(
            "trace.unattributed_ms",
            median(&per_pass_ms("stream.pass")),
            "ms",
        ),
    ];
    out.spans = spans;
    Ok(out)
}

fn fold(digest: &mut Digest, out: &PassOutput) {
    digest.f64(out.objective);
    for &(j, v) in out.synopsis.entries() {
        digest.word(j as u64);
        digest.f64(v);
    }
    digest.word(out.peak_cells as u64);
}
