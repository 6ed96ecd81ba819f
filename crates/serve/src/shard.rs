//! Shard ownership: deterministic column routing and the per-shard
//! worker loop.
//!
//! Every column lives on exactly one shard, chosen by
//! `FNV-1a(name) mod shards` ([`shard_of`]) — a pure function of the
//! column name, so routing never depends on arrival order, connection
//! identity, or hasher seeding. Each shard is one worker thread owning a
//! `BTreeMap<String, AnyColumn>` (dynamic rebuild-policy columns and
//! one-pass streaming columns side by side) and draining a bounded job
//! queue; because
//! a column's every operation flows through its one shard queue, per-
//! column operations serialize without any lock on the hot path, while
//! distinct columns on distinct shards proceed in parallel.
//!
//! The worker is deliberately oblivious to the network: it receives
//! decoded [`Request`]s and sends back [`Response`]s through a per-job
//! reply channel, which keeps the whole request → answer path unit-
//! testable without a socket.

use std::collections::BTreeMap;
use std::sync::mpsc;

use wsyn_core::json::Value;
use wsyn_obs::{run_meta, Collector};

use crate::protocol::{Request, Response};
use crate::store::{AnyColumn, Built, Column, StreamBuilt, StreamColumn};

/// FNV-1a 64-bit: the workspace-standard deterministic string hash
/// (seedless, byte-order-independent, stable across processes — exactly
/// what shard routing needs, and nothing `std::hash::RandomState`
/// offers can be: its per-process seeds would re-route columns on every
/// restart).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The shard owning `name` among `shards` shards.
#[must_use]
// The remainder is below `shards`, a `usize`.
#[allow(clippy::cast_possible_truncation)]
pub fn shard_of(name: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (fnv1a64(name.as_bytes()) % shards as u64) as usize
}

/// One unit of shard work: a decoded request plus the channel its
/// response goes back on.
#[derive(Debug)]
pub struct Job {
    /// The request to execute (always column-addressed; `Ping` and
    /// `Shutdown` never reach a shard).
    pub request: Request,
    /// Where the response goes. A send failure means the connection
    /// handler gave up (client disconnected mid-request); the worker
    /// drops the response and moves on.
    pub reply: mpsc::Sender<Response>,
}

/// The shard worker loop: drains `jobs` until every sender is dropped
/// (server shutdown), executing each against the shard's own columns.
pub fn run_worker(jobs: &mpsc::Receiver<Job>, tolerance: f64) {
    let mut columns: BTreeMap<String, AnyColumn> = BTreeMap::new();
    while let Ok(job) = jobs.recv() {
        let response = handle(&mut columns, &job.request, tolerance);
        // A dead reply channel is the client's problem, not the shard's.
        let _ = job.reply.send(response);
    }
}

/// Executes one column-addressed request against the shard's columns.
/// Exposed so tests (and the in-process conformance harness) can drive
/// the exact server code path without sockets or threads.
pub fn handle(
    columns: &mut BTreeMap<String, AnyColumn>,
    request: &Request,
    tolerance: f64,
) -> Response {
    match request {
        Request::Ping | Request::Shutdown => {
            Response::error("connection-layer request routed to a shard")
        }
        Request::Put { column, data } => match Column::new(data, tolerance) {
            Ok(col) => {
                let n = col.n();
                columns.insert(column.clone(), AnyColumn::Dynamic(Box::new(col)));
                Response::ok(vec![("n", Value::Number(n as f64))])
            }
            Err(e) => Response::error(e),
        },
        Request::StreamCreate {
            column,
            n,
            budget,
            eps,
            scale,
        } => match StreamColumn::new(*n, *budget, *eps, *scale) {
            Ok(col) => {
                columns.insert(column.clone(), AnyColumn::Stream(Box::new(col)));
                Response::ok(vec![
                    ("n", Value::Number(*n as f64)),
                    ("budget", Value::Number(*budget as f64)),
                ])
            }
            Err(e) => Response::error(e),
        },
        Request::Append { column, values } => with_stream(columns, column, |col| {
            match col.append(values, &Collector::noop()) {
                Ok(received) => {
                    let mut fields = vec![
                        ("received", Value::Number(received as f64)),
                        ("remaining", Value::Number((col.n() - received) as f64)),
                        ("finalized", Value::Bool(col.built().is_some())),
                    ];
                    if let Some(built) = col.built() {
                        fields.extend(stream_built_fields(built));
                    }
                    Response::ok(fields)
                }
                Err(e) => Response::error(e),
            }
        }),
        Request::Build {
            column,
            budget,
            metric,
            family,
            trace,
        } => with_dynamic(columns, column, |col| {
            let obs = collector(*trace);
            match col.build(*budget, metric, family.as_deref(), &obs) {
                Ok(built) => {
                    let mut fields = built_fields(built);
                    fields.push((
                        "retained",
                        Value::Array(
                            built
                                .engine
                                .retained()
                                .iter()
                                .map(|&i| Value::Number(i as f64))
                                .collect(),
                        ),
                    ));
                    let solver = built.family;
                    ok_with_report(fields, &obs, solver, *budget, metric)
                }
                Err(e) => Response::error(e),
            }
        }),
        Request::Query {
            column,
            kind,
            trace,
        } => with_any(columns, column, |col| {
            let obs = collector(*trace);
            match col {
                AnyColumn::Dynamic(col) => match col.query(*kind, &obs) {
                    Ok(answer) => {
                        let fields = answer_fields(&answer);
                        let (budget, spec, solver) = match col.built() {
                            Some(b) => (b.budget, b.metric_spec.clone(), b.family),
                            None => (0, String::new(), wsyn_synopsis::family::MINMAX),
                        };
                        ok_with_report(fields, &obs, solver, budget, &spec)
                    }
                    Err(e) => Response::error(e),
                },
                AnyColumn::Stream(col) => match col.query(*kind, &obs) {
                    Ok(answer) => {
                        let fields = answer_fields(&answer);
                        ok_with_report(
                            fields,
                            &obs,
                            wsyn_synopsis::family::STREAM,
                            col.budget(),
                            "abs",
                        )
                    }
                    Err(e) => Response::error(e),
                },
            }
        }),
        Request::Update { column, updates } => {
            with_dynamic(columns, column, |col| match col.enqueue(updates) {
                Ok(pending) => Response::ok(vec![("pending", Value::Number(pending as f64))]),
                Err(e) => Response::error(e),
            })
        }
        Request::Flush { column } => {
            with_dynamic(columns, column, |col| match col.drain(&Collector::noop()) {
                Ok(()) => Response::ok(vec![
                    ("pending", Value::Number(0.0)),
                    ("rebuilds", Value::Number(col.rebuilds() as f64)),
                ]),
                Err(e) => Response::error(e),
            })
        }
        Request::Info { column } => with_any(columns, column, |col| match col {
            AnyColumn::Dynamic(col) => {
                let built = match col.built() {
                    None => Value::Null,
                    Some(b) => {
                        let mut fields = built_fields(b);
                        fields.insert(0, ("metric", Value::String(b.metric_spec.clone())));
                        fields.insert(0, ("budget", Value::Number(b.budget as f64)));
                        wsyn_core::json::object(fields)
                    }
                };
                Response::ok(vec![
                    ("n", Value::Number(col.n() as f64)),
                    ("pending", Value::Number(col.pending() as f64)),
                    ("rebuilds", Value::Number(col.rebuilds() as f64)),
                    ("built", built),
                ])
            }
            AnyColumn::Stream(col) => {
                let built = match col.built() {
                    None => Value::Null,
                    Some(b) => wsyn_core::json::object(stream_built_fields(b)),
                };
                Response::ok(vec![
                    ("mode", Value::String("stream".to_string())),
                    ("n", Value::Number(col.n() as f64)),
                    ("budget", Value::Number(col.budget() as f64)),
                    ("received", Value::Number(col.received() as f64)),
                    ("finalized", Value::Bool(col.built().is_some())),
                    ("built", built),
                ])
            }
        }),
    }
}

fn answer_fields(answer: &crate::store::Answer) -> Vec<(&'static str, Value)> {
    vec![
        ("est", Value::Number(answer.est)),
        ("guarantee", Value::Number(answer.guarantee)),
        (
            "interval",
            match answer.interval {
                None => Value::Null,
                Some(iv) => Value::Array(vec![Value::Number(iv.lo), Value::Number(iv.hi)]),
            },
        ),
    ]
}

fn stream_built_fields(built: &StreamBuilt) -> Vec<(&'static str, Value)> {
    vec![
        ("objective", Value::Number(built.objective)),
        ("dp_objective", Value::Number(built.dp_objective)),
        (
            "retained",
            Value::Number(built.engine.synopsis().len() as f64),
        ),
        ("peak_cells", Value::Number(built.peak_cells as f64)),
        ("peak_bytes", Value::Number(built.peak_bytes as f64)),
    ]
}

fn collector(trace: bool) -> Collector {
    if trace {
        Collector::recording()
    } else {
        Collector::noop()
    }
}

fn with_any(
    columns: &mut BTreeMap<String, AnyColumn>,
    name: &str,
    f: impl FnOnce(&mut AnyColumn) -> Response,
) -> Response {
    match columns.get_mut(name) {
        Some(col) => f(col),
        None => Response::error(format!("no such column '{name}'")),
    }
}

fn with_dynamic(
    columns: &mut BTreeMap<String, AnyColumn>,
    name: &str,
    f: impl FnOnce(&mut Column) -> Response,
) -> Response {
    with_any(columns, name, |col| match col {
        AnyColumn::Dynamic(col) => f(col),
        AnyColumn::Stream(_) => Response::error(format!(
            "column '{name}' is a streaming column (use append/query)"
        )),
    })
}

fn with_stream(
    columns: &mut BTreeMap<String, AnyColumn>,
    name: &str,
    f: impl FnOnce(&mut StreamColumn) -> Response,
) -> Response {
    with_any(columns, name, |col| match col {
        AnyColumn::Stream(col) => f(col),
        AnyColumn::Dynamic(_) => Response::error(format!(
            "column '{name}' is not a streaming column (use put/build)"
        )),
    })
}

/// The shared build-state fields of `build` and `info` responses. The
/// `family` field appears only when the build request named a family —
/// family-absent columns keep the exact pre-family response bytes.
fn built_fields(built: &Built) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("objective", Value::Number(built.objective)),
        ("guarantee", Value::Number(built.guarantee())),
    ];
    if built.family_spec.is_some() {
        fields.push(("family", Value::String(built.family.to_string())));
    }
    fields
}

/// Wraps `fields` in a success response, attaching the untimed trace
/// report (the workspace's standard per-request trace format) when the
/// collector recorded one.
fn ok_with_report(
    mut fields: Vec<(&'static str, Value)>,
    obs: &Collector,
    solver: &str,
    budget: usize,
    metric: &str,
) -> Response {
    if let Some(report) = obs.report(run_meta(solver, budget, metric)) {
        fields.push(("report", report.strip_timing().to_json()));
    }
    Response::ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::QueryKind;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 4, 8] {
            for name in ["sales", "clicks", "latency", "x"] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards), "routing must be pure");
            }
        }
        assert_eq!(shard_of("anything", 0), 0, "degenerate shard count");
    }

    #[test]
    fn handle_covers_the_full_lifecycle() {
        let mut columns = BTreeMap::new();
        let data: Vec<f64> = (0..16).map(|i| f64::from(i % 5)).collect();
        let put = handle(
            &mut columns,
            &Request::Put {
                column: "c".to_string(),
                data,
            },
            2.0,
        );
        assert!(put.is_ok(), "{put:?}");
        assert_eq!(put.get("n").and_then(Value::as_usize), Some(16));

        let build = handle(
            &mut columns,
            &Request::Build {
                column: "c".to_string(),
                budget: 4,
                metric: "abs".to_string(),
                family: None,
                trace: true,
            },
            2.0,
        );
        assert!(build.is_ok(), "{build:?}");
        assert!(build.get("objective").and_then(Value::as_f64).is_some());
        assert!(
            build.get("report").is_some(),
            "trace=true must attach a report"
        );

        let query = handle(
            &mut columns,
            &Request::Query {
                column: "c".to_string(),
                kind: QueryKind::Point(3),
                trace: false,
            },
            2.0,
        );
        assert!(query.is_ok(), "{query:?}");
        assert!(query.get("report").is_none(), "trace=false: no report");
        let interval = query.get("interval").and_then(Value::as_array);
        assert_eq!(interval.map(<[Value]>::len), Some(2));

        let update = handle(
            &mut columns,
            &Request::Update {
                column: "c".to_string(),
                updates: vec![(0, 2.0), (7, -1.0)],
            },
            2.0,
        );
        assert_eq!(update.get("pending").and_then(Value::as_usize), Some(2));

        let flush = handle(
            &mut columns,
            &Request::Flush {
                column: "c".to_string(),
            },
            2.0,
        );
        assert!(flush.is_ok(), "{flush:?}");

        let info = handle(
            &mut columns,
            &Request::Info {
                column: "c".to_string(),
            },
            2.0,
        );
        assert_eq!(info.get("pending").and_then(Value::as_usize), Some(0));
        assert!(info.get("built").is_some_and(|b| !b.is_null()));
    }

    #[test]
    fn handle_covers_the_streaming_lifecycle() {
        let mut columns = BTreeMap::new();
        let data: Vec<f64> = (0..16).map(|i| f64::from((i * 7 + 2) % 11)).collect();
        let create = handle(
            &mut columns,
            &Request::StreamCreate {
                column: "s".to_string(),
                n: 16,
                budget: 4,
                eps: 0.25,
                scale: 10.0,
            },
            2.0,
        );
        assert!(create.is_ok(), "{create:?}");

        // Mode mismatches answer with a pointed error, not a panic.
        let cross = handle(
            &mut columns,
            &Request::Build {
                column: "s".to_string(),
                budget: 4,
                metric: "abs".to_string(),
                family: None,
                trace: false,
            },
            2.0,
        );
        assert!(cross
            .error_message()
            .is_some_and(|m| m.contains("streaming column")));

        let first = handle(
            &mut columns,
            &Request::Append {
                column: "s".to_string(),
                values: data[..10].to_vec(),
            },
            2.0,
        );
        assert!(first.is_ok(), "{first:?}");
        assert_eq!(first.get("received").and_then(Value::as_usize), Some(10));
        assert_eq!(first.get("finalized"), Some(&Value::Bool(false)));

        let premature = handle(
            &mut columns,
            &Request::Query {
                column: "s".to_string(),
                kind: QueryKind::Point(0),
                trace: false,
            },
            2.0,
        );
        assert!(premature
            .error_message()
            .is_some_and(|m| m.contains("incomplete")));

        let last = handle(
            &mut columns,
            &Request::Append {
                column: "s".to_string(),
                values: data[10..].to_vec(),
            },
            2.0,
        );
        assert!(last.is_ok(), "{last:?}");
        assert_eq!(last.get("finalized"), Some(&Value::Bool(true)));
        assert!(last.get("objective").and_then(Value::as_f64).is_some());

        let query = handle(
            &mut columns,
            &Request::Query {
                column: "s".to_string(),
                kind: QueryKind::Point(3),
                trace: true,
            },
            2.0,
        );
        assert!(query.is_ok(), "{query:?}");
        let guarantee = query.get("guarantee").and_then(Value::as_f64).unwrap();
        let est = query.get("est").and_then(Value::as_f64).unwrap();
        assert!((est - data[3]).abs() <= guarantee + 1e-9);
        assert!(query.get("report").is_some(), "trace=true must report");

        let info = handle(
            &mut columns,
            &Request::Info {
                column: "s".to_string(),
            },
            2.0,
        );
        assert_eq!(info.get("mode"), Some(&Value::String("stream".to_string())));
        assert_eq!(info.get("finalized"), Some(&Value::Bool(true)));
        assert!(info.get("built").is_some_and(|b| !b.is_null()));

        // And the inverse mode mismatch.
        handle(
            &mut columns,
            &Request::Put {
                column: "d".to_string(),
                data: vec![0.0; 8],
            },
            2.0,
        );
        let cross = handle(
            &mut columns,
            &Request::Append {
                column: "d".to_string(),
                values: vec![1.0],
            },
            2.0,
        );
        assert!(cross
            .error_message()
            .is_some_and(|m| m.contains("not a streaming column")));
    }

    #[test]
    fn family_builds_flow_through_the_shard() {
        let mut columns = BTreeMap::new();
        let data: Vec<f64> = (0..16).map(|i| if i < 5 { 1.0 } else { 9.0 }).collect();
        handle(
            &mut columns,
            &Request::Put {
                column: "c".to_string(),
                data: data.clone(),
            },
            2.0,
        );

        // Family-absent and explicit minmax builds answer with the same
        // objective, but only the named build reports a family.
        let absent = handle(
            &mut columns,
            &Request::Build {
                column: "c".to_string(),
                budget: 4,
                metric: "abs".to_string(),
                family: None,
                trace: false,
            },
            2.0,
        );
        assert!(absent.is_ok(), "{absent:?}");
        assert!(
            absent.get("family").is_none(),
            "legacy responses carry no family"
        );
        let named = handle(
            &mut columns,
            &Request::Build {
                column: "c".to_string(),
                budget: 4,
                metric: "abs".to_string(),
                family: Some("minmax".to_string()),
                trace: false,
            },
            2.0,
        );
        assert_eq!(
            named.get("family"),
            Some(&Value::String("minmax".to_string()))
        );
        assert_eq!(
            absent.get("objective").map(Value::compact),
            named.get("objective").map(Value::compact)
        );

        // A histogram build reports its family and bucket-start offsets.
        let hist = handle(
            &mut columns,
            &Request::Build {
                column: "c".to_string(),
                budget: 2,
                metric: "abs".to_string(),
                family: Some("hist".to_string()),
                trace: true,
            },
            2.0,
        );
        assert!(hist.is_ok(), "{hist:?}");
        assert_eq!(hist.get("family"), Some(&Value::String("hist".to_string())));
        assert_eq!(hist.get("objective").and_then(Value::as_f64), Some(0.0));
        let retained = hist.get("retained").and_then(Value::as_array).unwrap();
        assert_eq!(retained.len(), 2, "two plateaus, two buckets");
        assert!(hist.get("report").is_some());

        // Auto picks the histogram here (strictly smaller objective at
        // b = 2) and says so.
        let auto = handle(
            &mut columns,
            &Request::Build {
                column: "c".to_string(),
                budget: 2,
                metric: "abs".to_string(),
                family: Some("auto".to_string()),
                trace: false,
            },
            2.0,
        );
        assert_eq!(auto.get("family"), Some(&Value::String("hist".to_string())));

        // Unknown families are refused with the registry's id list.
        let bad = handle(
            &mut columns,
            &Request::Build {
                column: "c".to_string(),
                budget: 2,
                metric: "abs".to_string(),
                family: Some("bogus".to_string()),
                trace: false,
            },
            2.0,
        );
        let msg = bad.error_message().unwrap();
        assert!(msg.contains("bogus") && msg.contains("minmax"), "{msg}");
    }

    #[test]
    fn handle_rejects_unknown_columns_and_bad_input() {
        let mut columns = BTreeMap::new();
        let miss = handle(
            &mut columns,
            &Request::Flush {
                column: "ghost".to_string(),
            },
            2.0,
        );
        assert!(!miss.is_ok());
        assert!(miss.error_message().is_some_and(|m| m.contains("ghost")));

        let bad = handle(
            &mut columns,
            &Request::Put {
                column: "c".to_string(),
                data: vec![1.0, 2.0, 3.0],
            },
            2.0,
        );
        assert!(!bad.is_ok(), "non-power-of-two data must be refused");
        assert!(columns.is_empty());
    }
}
