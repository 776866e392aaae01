//! Chaos harness: concurrent retrying clients against a fault-injected
//! event server must still get answers bit-identical to direct engine
//! runs, at every fault rate × readiness backend × worker count in the
//! matrix — and the server must drain with zero leaked pooled buffers
//! (asserted inside `EventServer::serve` itself) while its overload
//! protections (shedding, idle eviction, deadline cancellation) kick in
//! exactly when provoked.
#![cfg(unix)]

mod common;

use std::thread;
use std::time::Duration;

use common::{backends, with_server};
use knmatch_core::{BatchEngine, BatchOutcome, BatchQuery, KnMatchError};
use knmatch_data::uniform;
use knmatch_server::protocol::{format_query, retry_after_ms};
use knmatch_server::{
    Backend, Client, EngineConfig, ErrorKind, NetFaultConfig, Response, RetryPolicy,
    RetryingClient, ServerConfig,
};

fn temp_csv(tag: &str) -> (TempDir, String) {
    let dir = std::env::temp_dir().join(format!("knmatch-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ds = uniform(200, 4, 0x5EED);
    let csv = dir.join("data.csv");
    knmatch_data::save_dataset(&csv, &ds).expect("write csv");
    (TempDir(dir.clone()), csv.to_string_lossy().into_owned())
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The chaos workload: all three query kinds plus two invalid slots, so
/// error answers have to survive the faults bit-identically too.
fn workload(dims: usize) -> Vec<BatchQuery> {
    let mut queries = Vec::new();
    for i in 0..4 {
        let v = 0.15 + 0.2 * i as f64;
        queries.push(BatchQuery::KnMatch {
            query: vec![v; dims],
            k: 3,
            n: 2,
        });
        queries.push(BatchQuery::Frequent {
            query: vec![1.0 - v; dims],
            k: 2,
            n0: 1,
            n1: dims,
        });
        queries.push(BatchQuery::EpsMatch {
            query: vec![v; dims],
            eps: 0.05,
            n: 2,
        });
    }
    queries.push(BatchQuery::KnMatch {
        query: vec![0.5; dims + 1],
        k: 1,
        n: 1,
    });
    queries.push(BatchQuery::EpsMatch {
        query: vec![0.5; dims],
        eps: -1.0,
        n: 1,
    });
    queries
}

fn expected_wire<O: BatchOutcome>(
    direct: Vec<Result<O, KnMatchError>>,
) -> Vec<Result<knmatch_core::BatchAnswer, (ErrorKind, String)>> {
    direct
        .into_iter()
        .map(|r| match r {
            Ok(o) => Ok(o.into_answer()),
            Err(e) => Err((ErrorKind::of_error(&e), e.to_string())),
        })
        .collect()
}

/// The tentpole's core claim: at fault rates 1% / 10% / 30%, on every
/// readiness backend, at engine workers 1 / 2 / 4, three concurrent
/// retrying clients (mixed text and binary framing) get batch answers
/// bit-identical to a direct engine run — torn frames, short writes,
/// stalls and injected resets notwithstanding — and the server drains
/// leak-free afterwards.
#[test]
fn chaos_matrix_bit_identical_under_faults() {
    let (_dir, csv) = temp_csv("matrix");
    let queries = workload(4);
    for backend in backends() {
        for (ri, rate) in [0.01, 0.1, 0.3].into_iter().enumerate() {
            for workers in [1usize, 2, 4] {
                let cfg = EngineConfig {
                    workers,
                    backend: Backend::Memory,
                    planner: None,
                    ..EngineConfig::default()
                };
                let engine = cfg.open(&csv).expect("open engine");
                let expected = expected_wire(engine.run(&queries));
                let scfg = ServerConfig {
                    reactor: backend,
                    executors: 2,
                    fault: Some(NetFaultConfig::mixed(
                        0xC0FF_EE00 ^ (ri as u64) ^ ((workers as u64) << 8),
                        rate,
                    )),
                    ..ServerConfig::default()
                };
                let label = format!("{backend:?} rate={rate} workers={workers}");
                with_server(engine, scfg, |addr| {
                    thread::scope(|s| {
                        for c in 0..3u64 {
                            let expected = &expected;
                            let queries = &queries;
                            let label = &label;
                            s.spawn(move || {
                                let policy = RetryPolicy {
                                    retries: 24,
                                    timeout: Some(Duration::from_secs(10)),
                                    backoff_base: Duration::from_millis(1),
                                    backoff_cap: Duration::from_millis(20),
                                    seed: 0xBAD5EED + c,
                                };
                                let mut client =
                                    RetryingClient::connect(addr, policy).expect("resolve");
                                client.set_binary(c % 2 == 1);
                                for round in 0..2 {
                                    let reply = client.run_batch(queries).unwrap_or_else(|e| {
                                        panic!("{label} client {c} round {round}: {e}")
                                    });
                                    assert_eq!(
                                        reply.answers.len(),
                                        expected.len(),
                                        "{label} client {c} round {round}: answer count"
                                    );
                                    for (i, (got, want)) in
                                        reply.answers.iter().zip(expected).enumerate()
                                    {
                                        match (got, want) {
                                            (Ok(a), Ok(b)) => assert_eq!(
                                                a, b,
                                                "{label} client {c} round {round} slot {i}"
                                            ),
                                            (Err(e), Err((kind, msg))) => {
                                                assert_eq!(&e.kind, kind, "{label} slot {i}");
                                                assert_eq!(&e.message, msg, "{label} slot {i}");
                                            }
                                            other => panic!(
                                                "{label} client {c} slot {i}: \
                                                 Ok/Err mismatch {other:?}"
                                            ),
                                        }
                                    }
                                }
                                client.close();
                            });
                        }
                    });
                });
            }
        }
    }
}

/// Satellite 1: with no work and no deadlines pending, the reactor
/// parks in its wait call instead of ticking — an idle server with one
/// parked connection burns a bounded handful of loop iterations, not
/// one per timer tick.
#[test]
fn adaptive_wait_keeps_idle_reactor_quiet() {
    let (_dir, csv) = temp_csv("idlecpu");
    for backend in backends() {
        let engine = EngineConfig::default().open(&csv).expect("open engine");
        let scfg = ServerConfig {
            reactor: backend,
            executors: 1,
            ..ServerConfig::default()
        };
        let (_stats, extras) = with_server(engine, scfg, |addr| {
            let mut c = Client::connect(addr).expect("connect");
            c.ping().expect("ping");
            // Park: nothing in flight, no idle timeout armed, so the
            // reactor should sleep in poll/epoll_wait the whole time.
            thread::sleep(Duration::from_millis(400));
            c.ping().expect("ping after park");
            c.quit().expect("quit");
        });
        // Connect + two pings + quit + shutdown cost a few iterations
        // each; a 50ms ticker would burn ≥ 8 during the park alone.
        assert!(
            extras.poll_iterations <= 30,
            "{backend:?}: idle reactor ticked {} times",
            extras.poll_iterations
        );
    }
}

/// Satellite 1b + tentpole: a peer idle past `--idle-timeout-ms` is
/// evicted (slow-loris defence), counted, and the wait timeout wakes
/// the reactor for it without a busy tick.
#[test]
fn idle_peers_are_evicted() {
    let (_dir, csv) = temp_csv("evict");
    for backend in backends() {
        let engine = EngineConfig::default().open(&csv).expect("open engine");
        let scfg = ServerConfig {
            reactor: backend,
            executors: 1,
            idle_timeout: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        };
        let (_stats, extras) = with_server(engine, scfg, |addr| {
            let mut c = Client::connect(addr).expect("connect");
            c.ping().expect("ping");
            thread::sleep(Duration::from_millis(300));
            // The server should have closed us long ago.
            let gone = c.ping().is_err();
            assert!(gone, "{backend:?}: idle connection survived the timeout");
        });
        assert_eq!(extras.conns_evicted, 1, "{backend:?}: eviction not counted");
    }
}

/// Tentpole: past the in-flight budget the server sheds queries with
/// `ERR overloaded` *before* parsing them, keeps the connection usable,
/// hands the client a `retry-after-ms` hint, and counts every shed.
#[test]
fn overload_sheds_with_retry_after_hint() {
    let (_dir, csv) = temp_csv("shed");
    for backend in backends() {
        let engine = EngineConfig::default().open(&csv).expect("open engine");
        let scfg = ServerConfig {
            reactor: backend,
            executors: 1,
            max_inflight: 1,
            retry_after: Duration::from_millis(7),
            ..ServerConfig::default()
        };
        let q = BatchQuery::KnMatch {
            query: vec![0.4; 4],
            k: 2,
            n: 2,
        };
        let burst: String = (0..8).map(|_| format_query(&q) + "\n").collect();
        let (_stats, extras) = with_server(engine, scfg, |addr| {
            let mut c = Client::connect(addr).expect("connect");
            // One write carrying 8 pipelined queries: the reactor admits
            // work until the budget (1) is full, then sheds the rest of
            // the burst without touching the engine.
            c.send_raw(burst.as_bytes()).expect("send burst");
            let mut ok = 0u64;
            let mut shed = 0u64;
            for i in 0..8 {
                match c.recv_response().expect("response") {
                    Response::Answer(_) => ok += 1,
                    Response::Error { kind, message } => {
                        assert_eq!(kind, ErrorKind::Overloaded, "slot {i}: {message}");
                        assert_eq!(
                            retry_after_ms(&message),
                            Some(7),
                            "slot {i}: missing retry-after hint in {message:?}"
                        );
                        shed += 1;
                    }
                    other => panic!("slot {i}: unexpected {other:?}"),
                }
            }
            assert!(ok >= 1, "budget of 1 admitted nothing");
            assert!(shed >= 1, "nothing shed past the budget");
            // The connection is still usable after being shed on.
            c.ping().expect("ping after shed");
            c.quit().expect("quit");
        });
        assert!(extras.queries_shed >= 1, "{backend:?}: sheds not counted");
        assert!(
            extras.retries_observed >= extras.queries_shed,
            "{backend:?}: shed replies must count as retry prompts"
        );
    }
}

/// Tentpole: `ERR busy` (connection limit) carries the retry-after hint
/// and a [`RetryingClient`] rides it out — backing off until the seat
/// frees up, then getting the real answer.
#[test]
fn busy_reject_backs_off_and_wins_a_seat() {
    let (_dir, csv) = temp_csv("busy");
    for backend in backends() {
        let cfg = EngineConfig::default();
        let engine = cfg.open(&csv).expect("open engine");
        let q = BatchQuery::KnMatch {
            query: vec![0.3; 4],
            k: 2,
            n: 2,
        };
        let expected = expected_wire(engine.run(std::slice::from_ref(&q)));
        let scfg = ServerConfig {
            reactor: backend,
            executors: 1,
            max_connections: 1,
            retry_after: Duration::from_millis(5),
            ..ServerConfig::default()
        };
        with_server(engine, scfg, |addr| {
            let mut seat = Client::connect(addr).expect("connect seat-holder");
            seat.ping().expect("seat-holder ping");
            thread::scope(|s| {
                let contender = s.spawn(move || {
                    let policy = RetryPolicy {
                        retries: 60,
                        timeout: Some(Duration::from_secs(5)),
                        backoff_base: Duration::from_millis(2),
                        backoff_cap: Duration::from_millis(20),
                        seed: 11,
                    };
                    let mut c = RetryingClient::connect(addr, policy).expect("resolve");
                    let got = c.query(&q).expect("query through busy rejects");
                    let used = c.retries_used();
                    c.close();
                    (got, used)
                });
                // Hold the only seat long enough that the contender is
                // rejected busy at least once, then release it.
                thread::sleep(Duration::from_millis(100));
                seat.quit().expect("release seat");
                let (got, used) = contender.join().expect("contender");
                match (&got, &expected[0]) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{backend:?}: answer differs"),
                    other => panic!("{backend:?}: unexpected {other:?}"),
                }
                assert!(used > 0, "{backend:?}: contender never had to retry");
            });
        });
    }
}

/// Tentpole: the `DEADLINE` budget propagates into queued jobs as an
/// absolute instant, so work that expires while waiting behind a slow
/// queue is cancelled at pickup (counted, answered `ERR timeout`)
/// instead of burning an executor on a doomed query.
#[test]
fn deadline_cancels_skip_doomed_queries() {
    // Big enough that a single query costs real work in release mode:
    // 512 of these behind one executor take tens of milliseconds, so the
    // tail of the burst is guaranteed to outlive its 1ms budget no matter
    // how fast the host is.
    let ds = uniform(100_000, 8, 0x00DD_BA11);
    for backend in backends() {
        let engine = EngineConfig::default().build_in_memory(&ds);
        let scfg = ServerConfig {
            reactor: backend,
            executors: 1,
            ..ServerConfig::default()
        };
        let q = BatchQuery::KnMatch {
            query: vec![0.6; 8],
            k: 3,
            n: 2,
        };
        let burst: String = (0..512).map(|_| format_query(&q) + "\n").collect();
        let (_stats, extras) = with_server(engine, scfg, |addr| {
            let mut c = Client::connect(addr).expect("connect");
            c.set_deadline_ms(1).expect("deadline");
            c.send_raw(burst.as_bytes()).expect("send burst");
            let mut answered = 0u64;
            let mut timed_out = 0u64;
            for i in 0..512 {
                match c.recv_response().expect("response") {
                    Response::Answer(_) => answered += 1,
                    Response::Error { kind, message } => {
                        assert_eq!(kind, ErrorKind::Timeout, "slot {i}: {message}");
                        timed_out += 1;
                    }
                    other => panic!("slot {i}: unexpected {other:?}"),
                }
            }
            assert_eq!(answered + timed_out, 512);
            assert!(
                timed_out > 0,
                "512 one-ms queries behind one executor never timed out"
            );
            c.quit().expect("quit");
        });
        assert!(
            extras.deadline_cancels > 0,
            "{backend:?}: expired queued jobs were not cancelled at pickup"
        );
    }
}
