//! `serve_mixed`: an in-process loopback `wsyn-serve` driven in a
//! closed loop.
//!
//! `clients` persistent connections (one in command-line runs, which pin
//! the process to one CPU) each own disjoint columns and run a fixed
//! script: queries, 64-update batches and flushes in the op mix of
//! the recorded serving load (`BENCH_serve.json`), plus a rare warm
//! re-build of the client's own columns. Each client sends its next
//! request only after the reply to the previous one arrived. Between
//! steps, with no request in flight, a client samples the host-speed
//! kernel.
//!
//! After the measured phase every client's script is replayed against
//! in-process [`Column`]s: each query estimate must equal the replay's
//! answer bit for bit (the `server-identity` rule), and the replay —
//! traced, in a traced run — gives the protocol, store and AQP layer
//! times.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

use wsyn_core::json::Value;
use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_obs::Collector;
use wsyn_serve::{Client, Column, QueryKind, Request, Response, ServeConfig, Server};

use crate::hostspeed::{HostSpeed, Kernel};
use crate::probe::PhasePeak;
use crate::stats::{median, ms, SplitMix};
use crate::trace::{self_times, Span, Tracer};
use crate::{setup_median, timed, Metric, Outcome, RunSpec};

/// Shape of the served data and of each client's script.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    columns: usize,
    n: usize,
    budget: usize,
    batch: usize,
    /// Steps every client makes, however long they take; their replies
    /// go into the digest.
    prefix_steps: usize,
}

const FULL: Sizes = Sizes {
    columns: 8,
    n: 256,
    budget: 16,
    batch: 64,
    prefix_steps: BUILD_EVERY,
};

const TINY: Sizes = Sizes {
    columns: 2,
    n: 32,
    budget: 4,
    batch: 8,
    prefix_steps: BUILD_EVERY,
};

const SKEW: f64 = 1.1;
const TOTAL: f64 = 100_000.0;
const METRIC: &str = "abs";
/// The server's rebuild tolerance (its default, set explicitly).
const TOLERANCE: f64 = 2.0;
/// `BENCH_serve.json` recorded 2400 queries, 120 update batches and 8
/// flushes: 300 : 15 : 1. A cycle of `CYCLE` steps holds exactly that
/// mix. Every `UPDATE_EVERY`-th step is an update batch, the last step
/// flushes the column of the cycle's last batch, and the other 300 steps
/// are queries.
const UPDATE_EVERY: usize = 21;
const CYCLE: usize = 15 * UPDATE_EVERY + 1;
/// Every `BUILD_EVERY`-th step (the last of each block) is a warm
/// re-build instead. `BENCH_serve.json` re-built once per 300 queries,
/// but a re-build costs about 300 query round trips, so at that rate
/// re-builds would take half of each client's time. At one per 4096
/// steps they take about 6 % of it, so the workload stays a query path
/// with a small DP share, and a 30 s run still makes about a hundred.
const BUILD_EVERY: usize = 4096;
/// Update deltas are `{-2, -1, 0, 1, 2} × DELTA`. `BENCH_serve.json`
/// used `× 25`, which tripped 141 drift rebuilds in 120 batches;
/// interleaved with the queries here, that would make the DP most of
/// the work. Deltas of this size trip one about every 100 batches, so
/// drift rebuilds still happen a few hundred times in a 30 s run.
const DELTA: f64 = 0.25;

/// One scripted request.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Query(usize, QueryKind),
    Update(usize, Vec<(usize, f64)>),
    Flush(usize),
    Build(usize),
}

/// Op kinds, in the order of the `serve.requests.<op>` metrics.
const OPS: [&str; 4] = ["query", "update", "flush", "build"];

impl Step {
    fn kind(&self) -> usize {
        match self {
            Step::Query(..) => 0,
            Step::Update(..) => 1,
            Step::Flush(_) => 2,
            Step::Build(_) => 3,
        }
    }

    fn column(&self) -> usize {
        match self {
            Step::Query(c, _) | Step::Update(c, _) | Step::Flush(c) | Step::Build(c) => *c,
        }
    }

    fn request(&self, budget: usize) -> Request {
        let column = column_name(self.column());
        match self {
            Step::Query(_, kind) => Request::Query {
                column,
                kind: *kind,
                trace: false,
            },
            Step::Update(_, updates) => Request::Update {
                column,
                updates: updates.clone(),
            },
            Step::Flush(_) => Request::Flush { column },
            Step::Build(_) => Request::Build {
                column,
                budget,
                metric: METRIC.to_string(),
                family: None,
                trace: false,
            },
        }
    }
}

fn column_name(c: usize) -> String {
    format!("bench/col{c}")
}

/// The deterministic script of one client: step `k` depends only on the
/// seed, the client and `k`.
struct Script {
    rng: SplitMix,
    own: Vec<usize>,
    sizes: Sizes,
    k: usize,
    /// Column of the latest update batch, which the cycle's flush drains.
    last_update: usize,
}

impl Script {
    fn new(seed: u64, client: usize, clients: usize, sizes: Sizes) -> Script {
        let own: Vec<usize> = (0..sizes.columns)
            .filter(|c| c % clients == client)
            .collect();
        let mut base = SplitMix::new(seed ^ 0x5e47_e000);
        for _ in 0..=client {
            base.next_u64();
        }
        Script {
            rng: SplitMix::new(base.next_u64()),
            last_update: own[0],
            own,
            sizes,
            k: 0,
        }
    }

    fn next_step(&mut self) -> Step {
        let k = self.k;
        self.k += 1;
        let n = self.sizes.n;
        let col = self.own[self.rng.below(self.own.len())];
        if k % BUILD_EVERY == BUILD_EVERY - 1 {
            return Step::Build(col);
        }
        let j = k % CYCLE;
        if j == CYCLE - 1 {
            return Step::Flush(self.last_update);
        }
        if j % UPDATE_EVERY == UPDATE_EVERY - 1 {
            self.last_update = col;
            let updates = (0..self.sizes.batch)
                .map(|_| {
                    let i = self.rng.below(n);
                    let delta = (self.rng.below(5) as f64 - 2.0) * DELTA;
                    (i, delta)
                })
                .collect();
            return Step::Update(col, updates);
        }
        let range = |rng: &mut SplitMix| {
            let lo = rng.below(n);
            let hi = lo + 1 + rng.below(n - lo);
            (lo, hi)
        };
        // Point, range-sum and range-avg in equal shares, as in
        // `BENCH_serve.json`'s load.
        let kind = match self.rng.below(3) {
            0 => QueryKind::Point(self.rng.below(n)),
            1 => {
                let (lo, hi) = range(&mut self.rng);
                QueryKind::RangeSum(lo, hi)
            }
            _ => {
                let (lo, hi) = range(&mut self.rng);
                QueryKind::RangeAvg(lo, hi)
            }
        };
        Step::Query(col, kind)
    }
}

/// The served columns' data for `seed`.
fn columns_data(seed: u64, sizes: Sizes) -> Vec<Vec<f64>> {
    let mut rng = SplitMix::new(seed ^ 0xc01_0000);
    (0..sizes.columns)
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

/// A running loopback server; dropping it stops the server and waits
/// for its accept loop to end.
struct Running {
    addr: String,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Running {
    /// Binds, spawns the accept loop, then puts and builds every column
    /// through the front door.
    fn start(data: &[Vec<f64>], sizes: Sizes, shards: usize) -> Result<Running, String> {
        let config = ServeConfig {
            shards,
            queue_depth: 64,
            tolerance: TOLERANCE,
        };
        let server = Server::bind("127.0.0.1:0", &config)?;
        let addr = server.local_addr().to_string();
        let thread = Some(std::thread::spawn(move || server.run()));
        let running = Running { addr, thread };
        let mut client = Client::connect(&running.addr)?;
        for (c, values) in data.iter().enumerate() {
            client.put(&column_name(c), values)?;
            client.build(&column_name(c), sizes.budget, METRIC, false)?;
        }
        Ok(running)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.shutdown();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What a client saw for one step.
#[derive(Debug, Clone, Copy)]
struct Seen {
    /// The checked reply field: a query's estimate, an update's pending
    /// count, a flush's rebuild count, a build's objective.
    value: u64,
    /// Round trip, ns (saturating).
    ns: u32,
    kind: u8,
    ok: bool,
}

impl Seen {
    /// The fill of an unused record; not zero, so that filling a buffer
    /// writes (and so faults in) every page of it.
    const UNUSED: Seen = Seen {
        value: u64::MAX,
        ns: u32::MAX,
        kind: u8::MAX,
        ok: false,
    };
}

/// A client's records fill a buffer that is faulted in before the
/// measured phase, so the phase's peak RSS holds a constant share of
/// benchmark memory, whatever the server's speed. Its size is this many
/// steps per second of the phase, about three times the rate of the
/// pinned client on the 2-vCPU reference host. A client whose buffer
/// fills stops early.
const MAX_STEPS_PER_S: f64 = 40_000.0;

/// Steps one client may record in a phase of `seconds`.
fn steps_cap(seconds: f64, sizes: Sizes) -> usize {
    ((seconds * MAX_STEPS_PER_S) as usize).max(sizes.prefix_steps)
}

/// The checked reply field of a response, as bits.
fn reply_value(step: &Step, response: &Response) -> Option<u64> {
    let key = match step {
        Step::Query(..) => "est",
        Step::Update(..) => "pending",
        Step::Flush(_) => "rebuilds",
        Step::Build(_) => "objective",
    };
    response.get(key).and_then(Value::as_f64).map(f64::to_bits)
}

fn op_id(client: usize, k: usize) -> u64 {
    ((client as u64) << 40) | k as u64
}

/// What one client's closed loop returns: the filled part of its
/// records, its spans, its host-speed samples and, for each sample, the
/// step from which its factor holds.
type Drive = (Vec<Seen>, Vec<Span>, HostSpeed, Vec<(usize, f64)>);

/// One client's closed loop; fills `seen` from the front.
fn drive(
    addr: &str,
    mut script: Script,
    client: usize,
    spec: &RunSpec,
    mut seen: Vec<Seen>,
    start: &Barrier,
    epoch: Instant,
) -> Result<Drive, String> {
    let mut tracer = Tracer::new(spec.trace, epoch);
    let mut host = HostSpeed::new(Kernel::MergeLoopback, spec.host_kernel.clone());
    let mut factors = Vec::new();
    let conn = Client::connect(addr);
    start.wait();
    let mut conn = conn?;
    let t_start = Instant::now();
    let mut k = 0;
    while k < seen.len() && (k < script.sizes.prefix_steps || t_start.elapsed() < spec.duration()) {
        let sampled = host.samples();
        host.due();
        if host.samples() > sampled {
            factors.push((k, host.samples()));
        }
        let step = script.next_step();
        let request = step.request(script.sizes.budget);
        tracer.set_op(op_id(client, k));
        let t0 = Instant::now();
        let reply = tracer.span("serve.op", |t| {
            let raw = conn.request_raw(&request)?;
            t.span("serve.protocol.decode", |_| Response::from_bytes(&raw))
        });
        let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let value = match &reply {
            Ok(r) if r.is_ok() => reply_value(&step, r),
            _ => None,
        };
        seen[k] = Seen {
            value: value.unwrap_or(0),
            ns,
            kind: step.kind() as u8,
            ok: value.is_some(),
        };
        k += 1;
        // The server encoded this reply inside the round trip; timing
        // the same encoding here, outside it, gives the codec's share.
        if let (true, Ok(reply)) = (tracer.enabled(), &reply) {
            std::hint::black_box(tracer.span("serve.protocol.encode", |_| reply.to_bytes()));
        }
    }
    seen.truncate(k);
    let factors = factors
        .into_iter()
        .map(|(from, taken)| (from, host.factor_around(taken)))
        .collect();
    Ok((seen, tracer.into_spans(), host, factors))
}

/// Store-layer figures of a replay.
#[derive(Debug, Default)]
struct StoreCounts {
    updates_applied: usize,
    flushes: usize,
    flush_rebuilds: u64,
    drain_ms: Vec<f64>,
}

/// Replays one client's script against in-process columns; returns the
/// bits each step must have answered with (`None` for a failed step).
fn replay(
    data: &[Vec<f64>],
    mut script: Script,
    client: usize,
    steps: usize,
    budget: usize,
    tracer: &mut Tracer,
    counts: &mut StoreCounts,
) -> Result<(Vec<Option<u64>>, Vec<Column>), String> {
    let noop = Collector::noop();
    let mut columns = Vec::with_capacity(data.len());
    for values in data {
        let mut column = Column::new(values, TOLERANCE)?;
        column.build(budget, METRIC, None, &noop)?;
        columns.push(column);
    }
    let mut expected = Vec::with_capacity(steps);
    for k in 0..steps {
        let step = script.next_step();
        tracer.set_op(op_id(client, k));
        let value = tracer.span("serve.replay", |t| {
            let request = step.request(budget);
            let bytes = t.span("serve.protocol.encode", |_| request.to_bytes());
            let decoded = t.span("serve.protocol.decode", |_| Request::from_bytes(&bytes));
            if decoded.as_ref() != Ok(&request) {
                return None;
            }
            let column = &mut columns[step.column()];
            let pending = column.pending();
            if pending > 0 && !matches!(step, Step::Update(..)) {
                let before = column.rebuilds();
                let t0 = Instant::now();
                t.span("serve.store.drain", |_| column.drain(&noop)).ok()?;
                counts.drain_ms.push(ms(t0.elapsed()));
                counts.updates_applied += pending;
                if matches!(step, Step::Flush(_)) {
                    counts.flush_rebuilds += column.rebuilds() - before;
                }
            }
            let value = match &step {
                Step::Query(_, kind) => {
                    let a = t
                        .span("serve.store.query", |_| column.query(*kind, &noop))
                        .ok()?;
                    let engine = &column.built()?.engine;
                    let direct = t.span("aqp.answer", |_| match *kind {
                        QueryKind::Point(i) => engine.point(i),
                        QueryKind::RangeSum(lo, hi) => engine.range_sum(lo..hi),
                        QueryKind::RangeAvg(lo, hi) => engine.range_avg(lo..hi),
                    }) + 0.0;
                    if direct.to_bits() != a.est.to_bits() {
                        return None;
                    }
                    a.est
                }
                Step::Update(_, updates) => t
                    .span("serve.store.update", |_| column.enqueue(updates))
                    .ok()? as f64,
                Step::Flush(_) => {
                    counts.flushes += 1;
                    column.rebuilds() as f64
                }
                Step::Build(_) => {
                    let built = t.span("serve.store.build", |_| {
                        column
                            .build(budget, METRIC, None, &noop)
                            .map(|b| b.objective)
                    });
                    built.ok()?
                }
            };
            Some(value.to_bits())
        });
        expected.push(value);
    }
    Ok((expected, columns))
}

/// Runs `serve_mixed`.
///
/// # Errors
/// A set-up failure (bind, put or initial build).
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let sizes = if spec.tiny { TINY } else { FULL };
    let shards = spec.threads.max(1);
    let clients = spec.threads.clamp(1, sizes.columns);
    let mut gen_ms = Vec::new();
    // Dropping a set-up's server stops it.
    let mut setup = || {
        let t0 = Instant::now();
        let data = columns_data(spec.seed, sizes);
        gen_ms.push(ms(t0.elapsed()));
        let server = Running::start(&data, sizes, shards)?;
        Ok((data, server))
    };
    let (first_setup_s, (data, server)) = timed(&mut setup)?;

    let epoch = Instant::now();
    let start = Barrier::new(clients + 1);
    let cap = steps_cap(spec.seconds, sizes);
    let buffers: Vec<Vec<Seen>> = (0..clients).map(|_| vec![Seen::UNUSED; cap]).collect();
    let peak = PhasePeak::start();
    let (runs, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = buffers
            .into_iter()
            .enumerate()
            .map(|(c, seen)| {
                let script = Script::new(spec.seed, c, clients, sizes);
                let (addr, start) = (&server.addr, &start);
                scope.spawn(move || drive(addr, script, c, spec, seen, start, epoch))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let runs: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect();
        (runs, t0.elapsed())
    });
    let peak_rss_mb = peak.peak_mb();
    drop(server);
    let runs = runs.into_iter().collect::<Result<Vec<_>, String>>()?;
    let setup_s = setup_median(first_setup_s, setup)?;

    let mut out = Outcome {
        setup_s,
        peak_rss_mb,
        host: HostSpeed::new(Kernel::MergeLoopback, None),
        ..Outcome::default()
    };
    let mut requests = [0u64; 4];
    let mut failed = [0u64; 4];
    let mut by_kind: [Vec<f64>; 4] = Default::default();
    let mut replay_tracer = Tracer::new(spec.trace, epoch);
    let mut counts = StoreCounts::default();
    let mut live_spans = Vec::new();
    let mut rebuilds = 0;
    let mut cap_reached = false;
    // Kernel time the slowest-sampling client spent, kept out of the
    // phase's busy time.
    let mut sampling = std::time::Duration::ZERO;
    for (c, (seen, spans, host, factors)) in runs.into_iter().enumerate() {
        sampling = sampling.max(host.spent());
        out.host.absorb(host);
        let mut factors = factors.into_iter().peekable();
        let mut factor = 1.0;
        cap_reached |= seen.len() == cap;
        let script = Script::new(spec.seed, c, clients, sizes);
        let (expected, columns) = replay(
            &data,
            script,
            c,
            seen.len(),
            sizes.budget,
            &mut replay_tracer,
            &mut counts,
        )?;
        rebuilds += columns.iter().map(Column::rebuilds).sum::<u64>();
        for (k, (s, want)) in seen.iter().zip(&expected).enumerate() {
            let kind = usize::from(s.kind);
            let mut value = s.value;
            if spec.corrupt && c == 0 && k == 0 {
                value ^= 1;
            }
            while let Some((_, f)) = factors.next_if(|&(from, _)| from <= k) {
                factor = f;
            }
            if kind == 0 {
                out.op_factor.push(factor);
            }
            requests[kind] += 1;
            if !s.ok || *want != Some(value) {
                failed[kind] += 1;
            }
            if k < sizes.prefix_steps {
                out.digest.word(value);
            }
            by_kind[kind].push(f64::from(s.ns) / 1e6);
        }
        live_spans.extend(spans);
    }
    let queries = by_kind[0].len() as f64;
    out.attempted = requests.iter().sum();
    out.failed = failed.iter().sum();
    let busy = wall.saturating_sub(sampling);
    out.throughput_per_s = queries / busy.as_secs_f64().max(f64::MIN_POSITIVE);
    out.op_ms = std::mem::take(&mut by_kind[0]);

    let p50 = median(&out.op_ms);
    let tail = crate::stats::tail(&out.op_ms).map_or(0.0, |(_, v)| v);
    out.named = vec![
        Metric::new("query_ms_p50", p50, "ms"),
        Metric::new("query_ms_tail", tail, "ms"),
        Metric::new("queries_per_s", out.throughput_per_s, "1/s"),
        Metric::new("update_ms_p50", median(&by_kind[1]), "ms"),
        Metric::new("flush_ms_p50", median(&by_kind[2]), "ms"),
        Metric::new("rebuild_ms_p50", median(&by_kind[3]), "ms"),
    ];
    let mut notes = vec![
        ("columns".to_string(), Value::Number(sizes.columns as f64)),
        ("n".to_string(), Value::Number(sizes.n as f64)),
        ("budget".to_string(), Value::Number(sizes.budget as f64)),
        ("clients".to_string(), Value::Number(clients as f64)),
        ("shards".to_string(), Value::Number(shards as f64)),
        ("loop".to_string(), Value::String("closed".to_string())),
        ("wall_s".to_string(), Value::Number(wall.as_secs_f64())),
        ("busy_s".to_string(), Value::Number(busy.as_secs_f64())),
        (
            "digest_steps_per_client".to_string(),
            Value::Number(sizes.prefix_steps as f64),
        ),
        (
            "steps_cap_per_client".to_string(),
            Value::Number(cap as f64),
        ),
        ("steps_cap_reached".to_string(), Value::Bool(cap_reached)),
        (
            "record_buffers_mb".to_string(),
            Value::Number((clients * cap * std::mem::size_of::<Seen>()) as f64 / 1e6),
        ),
    ];
    for (i, op) in OPS.iter().enumerate() {
        notes.push((format!("{op}_samples"), Value::Number(requests[i] as f64)));
    }
    out.notes = notes;

    let mut layers = vec![
        Metric::new("datagen.gen_ms", median(&gen_ms), "ms"),
        Metric::new("update_ms_p50", median(&by_kind[1]), "ms"),
        Metric::new("flush_ms_p50", median(&by_kind[2]), "ms"),
        Metric::new("rebuild_ms_p50", median(&by_kind[3]), "ms"),
        Metric::new("serve.store.drain_ms", median(&counts.drain_ms), "ms"),
        Metric::new(
            "serve.store.updates_applied",
            counts.updates_applied as f64,
            "count",
        ),
        Metric::new("serve.store.rebuilds", rebuilds as f64, "count"),
        Metric::new(
            "serve.store.rebuilds_per_flush",
            counts.flush_rebuilds as f64 / counts.flushes.max(1) as f64,
            "ratio",
        ),
    ];
    for (i, op) in OPS.iter().enumerate() {
        layers.push(Metric::new(
            &format!("serve.requests.{op}"),
            requests[i] as f64,
            "count",
        ));
        layers.push(Metric::new(
            &format!("serve.failed.{op}"),
            failed[i] as f64,
            "count",
        ));
    }
    let mut all = Tracer::new(spec.trace, epoch);
    all.absorb(live_spans);
    all.absorb(replay_tracer.into_spans());
    let spans = all.into_spans();
    layers.extend(span_layers(&spans));
    out.layers = layers;
    out.spans = spans;
    Ok(out)
}

/// Layer times from the live and the replay spans, matched by op id.
fn span_layers(spans: &[Span]) -> Vec<Metric> {
    if spans.is_empty() {
        return Vec::new();
    }
    let selfs = self_times(spans);
    let mut per_op: BTreeMap<u64, [u64; 7]> = BTreeMap::new();
    // Slots: 0 live op, 1 encode, 2 decode, 3 store query, 4 aqp,
    // 5 drain, 6 store (other ops).
    for (i, span) in spans.iter().enumerate() {
        let slot = match span.name {
            "serve.op" => 0,
            "serve.protocol.encode" => 1,
            "serve.protocol.decode" => 2,
            "serve.store.query" => 3,
            "aqp.answer" => 4,
            "serve.store.drain" => 5,
            "serve.store.update" | "serve.store.build" => 6,
            _ => continue,
        };
        let dur = if slot == 0 { span.dur_ns() } else { selfs[i] };
        per_op.entry(span.op).or_insert([0; 7])[slot] += dur;
    }
    let us = |ns: u64| ns as f64 / 1e3;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut query = Vec::new();
    let mut aqp = Vec::new();
    let mut shell = Vec::new();
    let mut build = Vec::new();
    for slots in per_op.values() {
        encode.push(us(slots[1]));
        decode.push(us(slots[2]));
        if slots[3] > 0 {
            query.push(us(slots[3]));
            aqp.push(us(slots[4]));
            let served = slots[1] + slots[2] + slots[3] + slots[5];
            shell.push(slots[0] as f64 / 1e3 - us(served));
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if span.name == "serve.store.build" {
            build.push(selfs[i] as f64 / 1e6);
        }
    }
    vec![
        Metric::new("serve.protocol.encode_us", median(&encode), "us"),
        Metric::new("serve.protocol.decode_us", median(&decode), "us"),
        Metric::new("serve.store.query_us", median(&query), "us"),
        Metric::new("aqp.answer_us", median(&aqp), "us"),
        Metric::new("serve.shell_us_p50", median(&shell), "us"),
        Metric::new("serve.store.build_ms", median(&build), "ms"),
    ]
}
