//! Server fault-injection tests: rogue connections speak damaged
//! protocol at a live server — malformed JSON, oversize length
//! prefixes, truncated frames, unknown version bytes — and the server
//! must answer an error or drop only that connection. The load-bearing
//! assertion: a benign client's answer stream, interleaved with every
//! fault, stays byte-identical to an undisturbed run.

// Test code is exempt from the panic lints: a failed `expect` or
// `unwrap` is a failed test.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};

use wsyn_serve::protocol::{read_frame, write_frame, MAX_FRAME_BYTES};
use wsyn_serve::{Client, QueryKind, Request, Response, ServeConfig, Server};

fn start(shards: usize) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", &config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn data(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(2862933555777941757)
                .wrapping_add(salt);
            f64::from(u32::try_from(x >> 40).unwrap() % 1000) / 10.0 - 40.0
        })
        .collect()
}

/// The benign request script: two dynamic columns and one streaming
/// column, exercising every column-addressed op so a disturbed shard
/// would have many chances to answer differently.
fn script() -> Vec<Request> {
    let alpha = data(32, 11);
    let beta = data(64, 23);
    let stream = data(16, 37);
    let mut steps = vec![
        Request::Put {
            column: "alpha".to_string(),
            data: alpha,
        },
        Request::Put {
            column: "beta".to_string(),
            data: beta,
        },
        Request::StreamCreate {
            column: "ticks".to_string(),
            n: 16,
            budget: 4,
            eps: 0.25,
            scale: 64.0,
        },
        Request::Build {
            column: "alpha".to_string(),
            budget: 6,
            metric: "abs".to_string(),
            family: None,
            trace: false,
        },
        Request::Append {
            column: "ticks".to_string(),
            values: stream[..9].to_vec(),
        },
        Request::Build {
            column: "beta".to_string(),
            budget: 9,
            metric: "rel:1.0".to_string(),
            family: None,
            trace: false,
        },
        Request::Update {
            column: "alpha".to_string(),
            updates: vec![(3, 5.0), (17, -2.5)],
        },
        Request::Append {
            column: "ticks".to_string(),
            values: stream[9..].to_vec(),
        },
        Request::Flush {
            column: "alpha".to_string(),
        },
    ];
    for i in [0usize, 7, 31] {
        steps.push(Request::Query {
            column: "alpha".to_string(),
            kind: QueryKind::Point(i),
            trace: false,
        });
    }
    steps.push(Request::Query {
        column: "beta".to_string(),
        kind: QueryKind::RangeSum(8, 40),
        trace: false,
    });
    steps.push(Request::Query {
        column: "ticks".to_string(),
        kind: QueryKind::Point(5),
        trace: false,
    });
    for name in ["alpha", "beta", "ticks"] {
        steps.push(Request::Info {
            column: name.to_string(),
        });
    }
    steps
}

/// Runs the benign script over one connection, firing `faults[i]` on a
/// fresh rogue connection just before step `i`. Returns the raw answer
/// bytes per step.
fn run_script(addr: &str, faults: &BTreeMap<usize, fn(&str)>) -> Vec<Vec<u8>> {
    let mut client = Client::connect(addr).expect("connect");
    let mut answers = Vec::new();
    for (i, request) in script().iter().enumerate() {
        if let Some(fault) = faults.get(&i) {
            fault(addr);
        }
        answers.push(client.request_raw(request).expect("benign answer"));
    }
    let mut shutdown = Client::connect(addr).expect("connect for shutdown");
    shutdown.shutdown().expect("shutdown");
    answers
}

fn read_error(stream: &mut TcpStream, context: &str) -> Response {
    let payload = read_frame(stream)
        .expect(context)
        .expect("server must answer before closing");
    let response = Response::from_bytes(&payload).expect("decodable response");
    assert!(!response.is_ok(), "{context}: must be an error answer");
    response
}

fn assert_closed(stream: &mut TcpStream, context: &str) {
    assert!(
        matches!(read_frame(stream), Ok(None)),
        "{context}: server must close the rogue connection"
    );
}

/// A well-framed payload that is not JSON: the server answers `ok:
/// false` and the connection survives for further requests.
fn fault_malformed_json(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("rogue connect");
    write_frame(&mut stream, b"][ this is not json").expect("write");
    let response = read_error(&mut stream, "malformed json");
    assert!(response.error_message().is_some());
    // The connection is still in frame sync: a real request works.
    write_frame(&mut stream, &Request::Ping.to_bytes()).expect("write ping");
    let payload = read_frame(&mut stream).expect("ping answer").expect("open");
    assert!(Response::from_bytes(&payload).expect("decode").is_ok());
}

/// A length prefix above `MAX_FRAME_BYTES`: unskippable, so the server
/// answers an error frame and closes.
fn fault_oversize_prefix(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("rogue connect");
    let declared = u32::try_from(MAX_FRAME_BYTES + 1).expect("fits u32");
    stream.write_all(&declared.to_be_bytes()).expect("header");
    let response = read_error(&mut stream, "oversize prefix");
    assert!(
        response.error_message().is_some_and(|m| m.contains("cap")),
        "{response:?}"
    );
    assert_closed(&mut stream, "oversize prefix");
}

/// A frame that promises 50 bytes and delivers 11, then half-closes:
/// the server sees EOF inside the body and drops the connection.
fn fault_truncated_mid_frame(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("rogue connect");
    stream.write_all(&50u32.to_be_bytes()).expect("header");
    stream.write_all(&[1u8]).expect("version");
    stream.write_all(b"0123456789").expect("partial body");
    stream.shutdown(Shutdown::Write).expect("half-close");
    read_error(&mut stream, "truncated frame");
    assert_closed(&mut stream, "truncated frame");
}

/// An unknown version byte: answered with an error naming the version,
/// then closed (the payload semantics are unknowable).
fn fault_unknown_version(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("rogue connect");
    let body = b"\x09{\"op\":\"ping\"}";
    let len = u32::try_from(body.len()).expect("fits u32");
    stream.write_all(&len.to_be_bytes()).expect("header");
    stream.write_all(body).expect("body");
    let response = read_error(&mut stream, "unknown version");
    assert!(
        response
            .error_message()
            .is_some_and(|m| m.contains("version")),
        "{response:?}"
    );
    assert_closed(&mut stream, "unknown version");
}

/// A zero-length frame declaration: also unskippable.
fn fault_zero_length(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("rogue connect");
    stream.write_all(&0u32.to_be_bytes()).expect("header");
    read_error(&mut stream, "zero length");
    assert_closed(&mut stream, "zero length");
}

#[test]
fn faults_answer_or_drop_without_disturbing_other_columns() {
    // Undisturbed reference run.
    let (addr, handle) = start(2);
    let clean = run_script(&addr, &BTreeMap::new());
    handle.join().expect("join").expect("run");

    // Same script, every fault interleaved at spread-out checkpoints.
    let mut faults: BTreeMap<usize, fn(&str)> = BTreeMap::new();
    faults.insert(1, fault_malformed_json as fn(&str));
    faults.insert(4, fault_oversize_prefix as fn(&str));
    faults.insert(6, fault_truncated_mid_frame as fn(&str));
    faults.insert(9, fault_unknown_version as fn(&str));
    faults.insert(12, fault_zero_length as fn(&str));
    let (addr, handle) = start(2);
    let disturbed = run_script(&addr, &faults);
    handle.join().expect("join").expect("run");

    assert_eq!(clean.len(), disturbed.len());
    for (i, (a, b)) in clean.iter().zip(&disturbed).enumerate() {
        assert_eq!(
            a, b,
            "step {i}: answers must be byte-identical to the undisturbed run"
        );
    }
}

#[test]
fn each_fault_is_contained_on_a_quiet_server() {
    // The rogue-side assertions also hold with no benign traffic racing
    // them (a fault must not depend on other load to be contained).
    let (addr, handle) = start(1);
    fault_malformed_json(&addr);
    fault_oversize_prefix(&addr);
    fault_truncated_mid_frame(&addr);
    fault_unknown_version(&addr);
    fault_zero_length(&addr);
    // The server is still fully alive afterwards.
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping after faults");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}
