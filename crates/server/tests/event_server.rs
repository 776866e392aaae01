//! The reactor end to end: pipelined answers bit-identical to direct
//! engine runs, strict response ordering, mixed text/binary
//! connections, instant drain.
#![cfg(unix)]

mod common;

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use common::{backends, with_server};
use knmatch_core::{BatchEngine, BatchOutcome, BatchQuery, KnMatchError};
use knmatch_data::uniform;
use knmatch_server::protocol::{encode_batch_frame, encode_query_frame, format_query};
use knmatch_server::{
    Backend, Client, EngineConfig, ErrorKind, EventServer, ReactorChoice, ReactorKind, Response,
    ServerConfig,
};

/// The cross-check workload: all three query kinds plus two invalid
/// slots (dimension mismatch, negative epsilon).
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

fn temp_csv(tag: &str) -> (TempDir, String) {
    let dir = std::env::temp_dir().join(format!("knmatch-event-{tag}-{}", std::process::id()));
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

/// Satellite 3's core claim: pipelined answers (text and binary) are
/// bit-identical to direct `BatchEngine` runs at workers 1/2/4, and
/// arrive strictly in submission order.
#[test]
fn pipelined_answers_bit_identical_at_every_worker_count() {
    let (_dir, csv) = temp_csv("xcheck");
    let queries = workload(4);
    for workers in [1, 2, 4] {
        let cfg = EngineConfig {
            workers,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        };
        let engine = cfg.open(&csv).expect("open engine");
        let expected = expected_wire(engine.run(&queries));

        let (stats, _) = with_server(
            engine,
            ServerConfig {
                executors: 2,
                ..ServerConfig::default()
            },
            |addr| {
                thread::scope(|s| {
                    for binary in [false, true] {
                        let queries = &queries;
                        let expected = &expected;
                        s.spawn(move || {
                            let mut client = Client::connect(addr).expect("connect");
                            client.set_binary(binary);
                            client.ping().expect("ping");
                            // Individually pipelined requests, depth 8.
                            let answers = client.run_pipelined(queries, 8).expect("pipelined");
                            assert_eq!(answers.len(), expected.len());
                            for (got, want) in answers.iter().zip(expected) {
                                match (got, want) {
                                    (Ok(a), Ok(b)) => assert_eq!(a, b, "answer diverged"),
                                    (Err(e), Err((kind, msg))) => {
                                        assert_eq!(e.kind, *kind);
                                        assert_eq!(&e.message, msg);
                                    }
                                    other => panic!("slot shape diverged: {other:?}"),
                                }
                            }
                            // The same workload as one batch request.
                            let reply = client.run_batch(queries).expect("batch");
                            assert_eq!(reply.ok, 12, "workers={workers} binary={binary}");
                            assert_eq!(reply.failed, 2);
                            for (got, want) in reply.answers.iter().zip(expected) {
                                match (got, want) {
                                    (Ok(a), Ok(b)) => assert_eq!(a, b, "batch answer diverged"),
                                    (Err(e), Err((kind, msg))) => {
                                        assert_eq!(e.kind, *kind);
                                        assert_eq!(&e.message, msg);
                                    }
                                    other => panic!("slot shape diverged: {other:?}"),
                                }
                            }
                            client.quit().expect("quit");
                        });
                    }
                });
            },
        );
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.queries, 2 * 2 * queries.len() as u64);
        assert_eq!(stats.errors, 2 * 2 * 2, "two invalid slots per pass");
    }
}

/// One connection may switch encodings between requests; the server
/// answers each request in the encoding it arrived in.
#[test]
fn text_and_binary_interleave_on_one_connection() {
    let (_dir, csv) = temp_csv("mixed");
    let engine = EngineConfig {
        workers: 1,
        backend: Backend::Memory,
        planner: None,
        ..EngineConfig::default()
    }
    .open(&csv)
    .expect("open engine");
    let q = BatchQuery::KnMatch {
        query: vec![0.5; 4],
        k: 2,
        n: 2,
    };
    let direct = expected_wire(
        EngineConfig {
            workers: 1,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .open(&csv)
        .expect("open")
        .run(std::slice::from_ref(&q)),
    );

    with_server(engine, ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        for binary in [false, true, false, true] {
            client.set_binary(binary);
            client.ping().expect("ping");
            let got = client.query(&q).expect("query").expect("answer");
            match &direct[0] {
                Ok(want) => assert_eq!(&got, want, "binary={binary}"),
                Err(_) => panic!("healthy query failed"),
            }
            let reply = client.run_batch(std::slice::from_ref(&q)).expect("batch");
            assert_eq!(reply.ok, 1);
        }
        // Empty batches stay legal in both encodings.
        for binary in [false, true] {
            client.set_binary(binary);
            let reply = client.run_batch(&[]).expect("empty batch");
            assert_eq!((reply.ok, reply.failed), (0, 0));
        }
        client.quit().expect("quit");
    });
}

/// STATS grows the reactor extras (satellite 4): peak connections,
/// deepest pipeline, and binary frame count all travel the text wire.
#[test]
fn stats_extras_report_reactor_counters() {
    let (_dir, csv) = temp_csv("extras");
    let engine = EngineConfig {
        workers: 1,
        backend: Backend::Memory,
        planner: None,
        ..EngineConfig::default()
    }
    .open(&csv)
    .expect("open engine");
    let queries: Vec<BatchQuery> = (0..16)
        .map(|i| BatchQuery::KnMatch {
            query: vec![0.1 + 0.05 * i as f64; 4],
            k: 2,
            n: 2,
        })
        .collect();

    with_server(engine, ServerConfig::default(), |addr| {
        let mut other = Client::connect(addr).expect("connect other");
        other.ping().expect("ping");
        let mut client = Client::connect(addr).expect("connect");
        client.set_binary(true);
        let answers = client.run_pipelined(&queries, 8).expect("pipelined");
        assert_eq!(answers.len(), queries.len());
        let report = client.stats_report().expect("stats");
        assert_eq!(report.conn.queries, 16);
        assert!(report.server.queries >= 16);
        let extras = report.extras.expect("event server reports extras");
        assert!(extras.conns_peak >= 2, "two clients were connected");
        // The 16 queries went out in an 8-deep burst; the reactor parses
        // the whole burst before executors can drain it.
        assert!(
            extras.pipeline_depth_max >= 4,
            "burst should pipeline, got depth {}",
            extras.pipeline_depth_max
        );
        // 16 query frames + the STATS frame itself, at least.
        assert!(extras.frames_binary >= 17, "got {}", extras.frames_binary);
        // The reactor counters travel too: a resolved backend, at least
        // one wait round, events for our traffic, vectored flushes.
        assert_ne!(extras.reactor_backend, ReactorKind::None);
        assert!(extras.poll_iterations >= 1);
        assert!(extras.events_dispatched >= 1);
        assert!(extras.writev_calls >= 1);
        other.quit().expect("quit other");
        client.quit().expect("quit");
    });
}

/// Satellite 2: shutdown wakes every connection immediately — the drain
/// completes in under 10ms even with idle pipelined clients parked on
/// the server (no timeout round per connection).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock bound; runs in the release suites"
)]
fn graceful_drain_completes_under_ten_ms() {
    let (_dir, csv) = temp_csv("drain");
    for reactor in backends() {
        let engine = EngineConfig {
            workers: 1,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .open(&csv)
        .expect("open engine");
        let cfg = ServerConfig {
            reactor,
            ..ServerConfig::default()
        };
        let server = EventServer::bind(engine, "127.0.0.1:0", cfg).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        thread::scope(|s| {
            let serving = s.spawn(|| server.serve().expect("serve"));
            let mut idle: Vec<Client> = (0..8)
                .map(|_| {
                    let mut c = Client::connect(addr).expect("connect");
                    c.ping().expect("ping");
                    c
                })
                .collect();
            let t0 = Instant::now();
            handle.shutdown();
            serving.join().expect("server thread");
            let drained = t0.elapsed();
            assert!(
                drained < Duration::from_millis(10),
                "drain took {drained:?} under {reactor}"
            );
            // Every parked client got the ERR shutdown farewell.
            for c in idle.iter_mut() {
                match c.recv_response().expect("farewell") {
                    Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Shutdown),
                    other => panic!("expected ERR shutdown, got {other:?}"),
                }
            }
        });
    }
}

/// A SHUTDOWN verb drains the server from the wire, and in-flight work
/// still completes before the farewell.
#[test]
fn shutdown_verb_drains_from_the_wire() {
    let (_dir, csv) = temp_csv("wire-shutdown");
    let engine = EngineConfig {
        workers: 1,
        backend: Backend::Memory,
        planner: None,
        ..EngineConfig::default()
    }
    .open(&csv)
    .expect("open engine");
    let server = EventServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    thread::scope(|s| {
        let serving = s.spawn(|| server.serve().expect("serve"));
        let client = Client::connect(addr).expect("connect");
        client.shutdown_server().expect("shutdown handshake");
        serving.join().expect("server thread");
    });
}

/// One self-delimiting request per unit: every workload query as a text
/// line and as a binary frame, the whole workload as one batch in each
/// encoding, a PING, and the closing QUIT. Deterministic byte-for-byte
/// (STATS, whose counters vary, stays out).
fn request_units(queries: &[BatchQuery]) -> Vec<Vec<u8>> {
    let mut units = Vec::new();
    for q in queries {
        units.push(format!("{}\n", format_query(q)).into_bytes());
    }
    for q in queries {
        let mut frame = Vec::new();
        encode_query_frame(q, &mut frame);
        units.push(frame);
    }
    let mut batch = Vec::new();
    encode_batch_frame(queries, &mut batch);
    units.push(batch);
    let mut text_batch = format!("BATCH {}\n", queries.len()).into_bytes();
    for q in queries {
        text_batch.extend_from_slice(format!("{}\n", format_query(q)).as_bytes());
    }
    units.push(text_batch);
    units.push(b"PING\n".to_vec());
    units.push(b"QUIT\n".to_vec());
    units
}

/// Writes each chunk, opportunistically draining whatever response
/// bytes are already available (so deeper chunks exercise deeper
/// pipelines), then reads to EOF after the final QUIT. The returned
/// capture is the connection's entire response stream in order.
fn capture_stream(addr: SocketAddr, chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_millis(2)))
        .expect("read timeout");
    let mut captured = Vec::new();
    let mut buf = [0u8; 4096];
    for chunk in chunks {
        s.write_all(chunk).expect("send chunk");
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => captured.extend_from_slice(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("read: {e}"),
            }
        }
    }
    s.set_read_timeout(None).expect("read timeout off");
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => captured.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("read to EOF: {e}"),
        }
    }
    captured
}

/// The tentpole's bit-identity claim: the same pipelined request stream
/// through `--reactor poll` and `--reactor epoll` produces the same
/// response bytes — across worker counts 1/2/4 and pipeline depths
/// 1/8/64 (requests per write burst).
#[test]
fn poll_and_epoll_produce_byte_identical_streams() {
    if !cfg!(target_os = "linux") {
        return; // nothing to cross-check without an epoll backend
    }
    let (_dir, csv) = temp_csv("bitident");
    let queries = workload(4);
    let units = request_units(&queries);
    for workers in [1, 2, 4] {
        for depth in [1usize, 8, 64] {
            let chunks: Vec<Vec<u8>> = units.chunks(depth).map(|c| c.concat()).collect();
            let mut streams: Vec<Vec<u8>> = Vec::new();
            for reactor in [ReactorChoice::Poll, ReactorChoice::Epoll] {
                let engine = EngineConfig {
                    workers,
                    backend: Backend::Memory,
                    planner: None,
                    ..EngineConfig::default()
                }
                .open(&csv)
                .expect("open engine");
                let cfg = ServerConfig {
                    executors: 2,
                    reactor,
                    ..ServerConfig::default()
                };
                let mut captured = Vec::new();
                with_server(engine, cfg, |addr| {
                    captured = capture_stream(addr, &chunks);
                });
                streams.push(captured);
            }
            assert!(!streams[0].is_empty(), "poll produced no bytes");
            assert_eq!(
                streams[0], streams[1],
                "poll and epoll response streams diverged at workers={workers} depth={depth}"
            );
        }
    }
}

/// The O(ready) claim behind the epoll backend: with 512 idle
/// connections parked and 8 clients active, events dispatched per wait
/// round track the active set, not the connection count.
#[test]
fn epoll_dispatch_tracks_active_set_not_connection_count() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let (_dir, csv) = temp_csv("dispatch");
    let engine = EngineConfig {
        workers: 1,
        backend: Backend::Memory,
        planner: None,
        ..EngineConfig::default()
    }
    .open(&csv)
    .expect("open engine");
    let cfg = ServerConfig {
        max_connections: 600,
        executors: 2,
        reactor: ReactorChoice::Epoll,
        ..ServerConfig::default()
    };
    with_server(engine, cfg, |addr| {
        // Park 512 idle connections (the ping proves each is accepted
        // and registered before the measurement starts).
        let mut idle: Vec<Client> = (0..512)
            .map(|_| {
                let mut c = Client::connect(addr).expect("connect idle");
                c.ping().expect("ping idle");
                c
            })
            .collect();
        let mut probe = Client::connect(addr).expect("connect probe");
        let report = probe.stats_report().expect("stats before");
        let before = report.extras.expect("event server reports extras");
        assert_eq!(before.reactor_backend, ReactorKind::Epoll);

        let queries: Vec<BatchQuery> = (0..64)
            .map(|i| BatchQuery::KnMatch {
                query: vec![0.1 + 0.01 * i as f64; 4],
                k: 2,
                n: 2,
            })
            .collect();
        thread::scope(|s| {
            for _ in 0..8 {
                let queries = &queries;
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect active");
                    c.set_binary(true);
                    for _ in 0..4 {
                        let answers = c.run_pipelined(queries, 16).expect("pipelined");
                        assert_eq!(answers.len(), queries.len());
                    }
                    c.quit().expect("quit active");
                });
            }
        });

        let report = probe.stats_report().expect("stats after");
        let after = report.extras.expect("event server reports extras");
        let iters = after.poll_iterations - before.poll_iterations;
        let events = after.events_dispatched - before.events_dispatched;
        assert!(iters > 0, "the active phase must spin the reactor");
        assert!(
            after.writev_calls > before.writev_calls,
            "responses flush through writev"
        );
        let per_iter = events as f64 / iters as f64;
        assert!(
            per_iter <= 64.0,
            "events/iteration {per_iter:.1} should track the ~9 active \
             connections, not the 512 idle ones"
        );
        for c in idle.iter_mut() {
            c.ping().expect("idle conns still serviceable");
        }
    });
}
