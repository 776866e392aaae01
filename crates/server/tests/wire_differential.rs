//! Text-vs-binary differential: one seeded request script over every
//! verb, run all-text and all-binary against fresh servers, must decode
//! to the same responses — on a mutable run-list engine and a planned
//! engine, over every readiness backend this host has.
//!
//! The script keeps every outcome independent of timing: deadlines are
//! 0 (cleared) or at least 10 s, engines run one batch worker (so a
//! fail-fast batch cancels the same members every time), and the writes
//! never trigger background compaction. `ERR` responses compare by
//! kind; `STATS` compares the query/error/timeout counters and the plan
//! and version groups, since byte and reactor counters legitimately
//! differ between the encodings.
#![cfg(unix)]

mod common;

use std::net::SocketAddr;

use common::{backends, on, with_server};
use knmatch_core::{BatchQuery, PlannerMode};
use knmatch_data::rng::Rng64;
use knmatch_data::uniform;
use knmatch_server::protocol::{encode_batch_frame, encode_request_frame, encode_request_line};
use knmatch_server::{AnyEngine, Client, EngineConfig, ReactorChoice, Request, Response};
use knmatch_server::{StatsReport, StatsSnapshot, MAX_BATCH};

const ROWS: usize = 200;
const DIMS: usize = 4;

/// One step of the script and the responses it earns.
#[derive(Debug, Clone)]
enum Step {
    /// One request, one response.
    One(Request),
    /// A batch: one response per member, then `DONE`.
    Batch(Vec<BatchQuery>),
    /// A batch announcing more than [`MAX_BATCH`] members: one `ERR`.
    OverLimit,
}

fn coords(rng: &mut Rng64, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| rng.next_f64()).collect()
}

/// A query that is valid with probability ~2/3; the invalid ones cover
/// the wrong dimension count, `k = 0`, `n > d` and counts past
/// `u32::MAX`.
fn query(rng: &mut Rng64) -> BatchQuery {
    let huge = (u32::MAX as usize) + 2;
    let mut k = rng.range_usize(1..6);
    let mut n = rng.range_usize(1..DIMS + 1);
    let mut dims = DIMS;
    let mut eps = rng.range_f64(0.0, 0.05);
    match rng.range_usize(0..12) {
        0 => dims = DIMS + 1,
        1 => k = 0,
        2 => n = DIMS + 1,
        3 => k = huge,
        4 => n = huge,
        5 => eps = -0.5,
        _ => {}
    }
    let query = coords(rng, dims);
    match rng.range_usize(0..3) {
        0 => BatchQuery::KnMatch { query, k, n },
        1 => {
            let n0 = rng.range_usize(1..n.min(DIMS) + 1);
            BatchQuery::Frequent {
                query,
                k,
                n0,
                n1: n,
            }
        }
        _ => BatchQuery::EpsMatch { query, eps, n },
    }
}

/// The seeded script. Writes are capped so the versioned index never
/// needs maintenance (at most 40 tombstones over 200 sealed rows, at
/// most 5 runs), which keeps the version counters deterministic.
fn script(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = Rng64::new(seed);
    let (mut writes, mut seals) = (0, 0);
    let mut steps = Vec::with_capacity(len);
    while steps.len() < len {
        let step = match rng.range_usize(0..20) {
            0..=5 => Step::One(Request::Query(query(&mut rng))),
            6..=8 => {
                let members = rng.range_usize(0..9);
                Step::Batch((0..members).map(|_| query(&mut rng)).collect())
            }
            9 => Step::OverLimit,
            10 => Step::One(Request::Deadline(if rng.next_bool() {
                0
            } else {
                10_000 + rng.range_usize(0..50_000) as u64
            })),
            11 => Step::One(Request::FailFast(rng.next_bool())),
            12 => Step::One(Request::Planner(
                [
                    PlannerMode::Auto,
                    PlannerMode::Ad,
                    PlannerMode::VaFile,
                    PlannerMode::Scan,
                ][rng.range_usize(0..4)],
            )),
            13 => Step::One(if rng.next_bool() {
                Request::Ping
            } else {
                Request::Stats
            }),
            14 | 15 if writes < 40 => {
                writes += 1;
                let key = rng.range_usize(0..ROWS + 100) as u32;
                let mut point = coords(&mut rng, DIMS);
                match rng.range_usize(0..4) {
                    0 => point.push(0.5),
                    1 => point[0] = f64::NAN,
                    _ => {}
                }
                Step::One(Request::Insert { key, point })
            }
            16 if writes < 40 => {
                writes += 1;
                Step::One(Request::Delete(rng.range_usize(0..ROWS + 100) as u32))
            }
            17 => Step::One(Request::Epoch),
            18 if seals < 4 => {
                seals += 1;
                Step::One(Request::Seal)
            }
            _ => continue,
        };
        steps.push(step);
    }
    steps.push(Step::One(Request::Stats));
    steps
}

/// Sends one request in the chosen encoding.
fn send(client: &mut Client, req: &Request, binary: bool) {
    let mut bytes = Vec::new();
    if binary {
        encode_request_frame(req, &mut bytes).expect("a binary form");
    } else {
        encode_request_line(req, &mut bytes);
    }
    client.send_raw(&bytes).expect("send");
}

/// Runs the whole script over one connection, in lock step, and returns
/// every response in order.
fn run(addr: SocketAddr, steps: &[Step], binary: bool) -> Vec<Response> {
    let mut client = Client::connect(addr).expect("connect");
    client.set_binary(binary);
    let mut out = Vec::new();
    let mut recv = |client: &mut Client, n: usize| {
        for _ in 0..n {
            out.push(client.recv_response().expect("response"));
        }
    };
    for step in steps {
        match step {
            Step::One(req) => {
                send(&mut client, req, binary);
                recv(&mut client, 1);
            }
            Step::Batch(queries) => {
                client.send_batch(queries).expect("send batch");
                recv(&mut client, queries.len() + 1);
            }
            Step::OverLimit => {
                if binary {
                    // An empty batch frame whose count claims one too many.
                    let mut frame = Vec::new();
                    encode_batch_frame(&[], &mut frame);
                    frame[6..10].copy_from_slice(&(MAX_BATCH as u32 + 1).to_le_bytes());
                    client.send_raw(&frame).expect("send");
                } else {
                    send(&mut client, &Request::Batch(MAX_BATCH + 1), false);
                }
                recv(&mut client, 1);
            }
        }
    }
    out
}

/// The part of a response both encodings must agree on.
fn comparable(r: Response) -> Response {
    let counters = |s: StatsSnapshot| StatsSnapshot {
        queries: s.queries,
        errors: s.errors,
        timeouts: s.timeouts,
        ..StatsSnapshot::default()
    };
    match r {
        Response::Error { kind, .. } => Response::Error {
            kind,
            message: String::new(),
        },
        Response::Stats(r) => Response::Stats(StatsReport {
            conn: counters(r.conn),
            server: counters(r.server),
            extras: None,
            ..r
        }),
        other => other,
    }
}

fn engine(planned: bool) -> AnyEngine {
    let ds = uniform(ROWS, DIMS, 0xD1FF);
    let cfg = EngineConfig::builder().workers(1);
    let cfg = if planned {
        cfg.planner(PlannerMode::Auto)
    } else {
        cfg.mutable(true)
    };
    cfg.build().expect("valid config").build_in_memory(&ds)
}

fn served(planned: bool, reactor: ReactorChoice, steps: &[Step], binary: bool) -> Vec<Response> {
    let mut out = Vec::new();
    with_server(engine(planned), on(reactor), |addr| {
        out = run(addr, steps, binary);
    });
    out.into_iter().map(comparable).collect()
}

#[test]
fn text_and_binary_scripts_decode_to_identical_responses() {
    for seed in [1, 2, 3] {
        let steps = script(seed, 160);
        for planned in [false, true] {
            for reactor in backends() {
                let text = served(planned, reactor, &steps, false);
                let binary = served(planned, reactor, &steps, true);
                assert_eq!(text.len(), binary.len());
                let mut at = 0;
                for (s, step) in steps.iter().enumerate() {
                    let n = match step {
                        Step::Batch(q) => q.len() + 1,
                        _ => 1,
                    };
                    for i in at..at + n {
                        assert_eq!(
                            text[i],
                            binary[i],
                            "seed {seed}, planned {planned}, {reactor:?}: response {} of step {s}",
                            i - at
                        );
                    }
                    at += n;
                }
            }
        }
    }
}
