//! Served answers are bit-identical to direct engine calls, for every
//! engine backend, on every readiness backend, at every worker count,
//! under concurrent clients.
//!
//! The text protocol renders floats with Rust's shortest round-trip
//! `Display`, so equality here is exact `BatchAnswer == BatchAnswer` —
//! no tolerance.

#![cfg(unix)]

mod common;

use std::thread;

use common::{backends, on, with_server};
use knmatch_core::{
    BatchEngine, BatchOutcome, BatchQuery, KnMatchError, VersionedIndex, DEFAULT_MERGE_THRESHOLD,
};
use knmatch_data::uniform;
use knmatch_server::{
    AnyEngine, Backend, Client, EngineConfig, ErrorKind, ServerConfig, StatsReport,
};
use knmatch_storage::DiskDatabase;

/// A mixed workload: all three query kinds plus two invalid slots (a
/// dimension mismatch and a negative epsilon).
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

/// What the wire must carry for each direct-run slot.
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

/// The engine `EngineConfig` opens over `path` for `backend` at `workers`.
fn configured(backend: Backend, path: &str) -> impl Fn(usize) -> AnyEngine + '_ {
    move |workers| {
        EngineConfig {
            workers,
            backend,
            planner: None,
            ..EngineConfig::default()
        }
        .open(path)
        .expect("open engine")
    }
}

/// Serves the engine `open` builds for each worker count over the
/// reactor × worker grid and returns what a direct run answers (the same
/// in every cell of the grid).
fn check_backend(
    label: &str,
    open: impl Fn(usize) -> AnyEngine,
) -> Vec<Result<knmatch_core::BatchAnswer, (ErrorKind, String)>> {
    let queries = workload(4);
    let mut direct = Vec::new();
    let grid = backends()
        .into_iter()
        .flat_map(|r| [1, 2, 4].map(|w| (r, w)));
    for (reactor, workers) in grid {
        let engine = open(workers);
        let expected = expected_wire(engine.run(&queries));

        let (stats, _) = with_server(engine, on(reactor), |addr| {
            // Three concurrent clients, each submitting the whole batch
            // twice; all must see the direct-run answers bit-for-bit.
            thread::scope(|s| {
                for _ in 0..3 {
                    let queries = &queries;
                    let expected = &expected;
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        client.ping().expect("ping");
                        for _ in 0..2 {
                            let reply = client.run_batch(queries).expect("batch");
                            assert_eq!(reply.answers.len(), expected.len());
                            assert_eq!(reply.ok, 12, "{label} x{workers} on {reactor}");
                            assert_eq!(reply.failed, 2);
                            for (got, want) in reply.answers.iter().zip(expected) {
                                match (got, want) {
                                    (Ok(a), Ok(b)) => assert_eq!(a, b, "answer diverged"),
                                    (Err(e), Err((kind, msg))) => {
                                        assert_eq!(e.kind, *kind);
                                        assert_eq!(&e.message, msg);
                                    }
                                    other => panic!("slot shape diverged: {other:?}"),
                                }
                            }
                        }
                        client.quit().expect("quit");
                    });
                }
            });
        });
        assert_eq!(stats.connections, 3);
        assert_eq!(stats.queries, 3 * 2 * queries.len() as u64);
        assert_eq!(stats.errors, 3 * 2 * 2, "two invalid slots per batch");
        direct = expected;
    }
    direct
}

#[test]
fn memory_backend_bit_identical_over_the_wire() {
    let (_dir, csv, db) = temp_files("mem");
    // The in-memory engine loads a CSV or the `.knm` built from the same
    // points (heap pages streamed into a dataset) to the same answers.
    assert_eq!(
        check_backend("memory", configured(Backend::Memory, &csv)),
        check_backend("memory", configured(Backend::Memory, &db))
    );
}

#[test]
fn sharded_backend_bit_identical_over_the_wire() {
    // The run-list engine over three runs: one AD walk over all of them.
    let (_dir, csv, _db) = temp_files("shard");
    let ds = knmatch_data::load_dataset(&csv).expect("load csv");
    check_backend("3 runs", |workers| AnyEngine::Runs {
        index: VersionedIndex::from_dataset(&ds, 3, workers, DEFAULT_MERGE_THRESHOLD)
            .expect("valid dataset"),
        mutable: false,
    });
}

#[test]
fn planned_backend_bit_identical_over_the_wire() {
    let (_dir, csv, _db) = temp_files("plan");
    let queries = workload(4);
    let grid = backends().into_iter().flat_map(|r| [1, 2].map(|w| (r, w)));
    for (reactor, workers) in grid {
        let cfg = EngineConfig {
            workers,
            backend: Backend::Memory,
            planner: Some(knmatch_core::PlannerMode::Auto),
            ..EngineConfig::default()
        };
        let engine = cfg.open(&csv).expect("open engine");
        let expected = expected_wire(engine.run(&queries));
        with_server(engine, on(reactor), |addr| {
            let mut client = Client::connect(addr).expect("connect");
            for mode in [
                knmatch_core::PlannerMode::Auto,
                knmatch_core::PlannerMode::Ad,
                knmatch_core::PlannerMode::VaFile,
                knmatch_core::PlannerMode::Scan,
            ] {
                client.set_planner(mode).expect("set planner");
                let reply = client.run_batch(&queries).expect("batch");
                for (got, want) in reply.answers.iter().zip(&expected) {
                    match (got, want) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "mode {mode} on {reactor}"),
                        (Err(e), Err((kind, _))) => assert_eq!(e.kind, *kind),
                        other => panic!("slot shape diverged: {other:?}"),
                    }
                }
            }
            // The tally travelled back through STATS: the direct baseline
            // run plus four served modes, 12 valid queries each (invalid
            // slots never reach a backend).
            let report = client.stats_report().expect("stats");
            let plans = report.plans.expect("planned engine reports plans");
            assert_eq!(plans.total(), 5 * 12, "workers={workers}");
            assert!(plans.scan >= 12, "forced scan pass must be tallied");
            assert!(plans.vafile >= 12, "forced vafile pass must be tallied");
            client.quit().expect("quit");
        });
    }
}

/// The plain in-memory engine over `csv`.
fn memory_engine(csv: &str, workers: usize) -> knmatch_server::AnyEngine {
    EngineConfig {
        workers,
        backend: Backend::Memory,
        planner: None,
        ..EngineConfig::default()
    }
    .open(csv)
    .expect("open engine")
}

#[test]
fn planless_engines_report_no_plans_over_the_wire() {
    let (_dir, csv, _db) = temp_files("noplan");
    for reactor in backends() {
        planless_on(on(reactor), &csv);
    }
}

fn planless_on(cfg: ServerConfig, csv: &str) {
    with_server(memory_engine(csv, 1), cfg, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        // The verb is accepted (connection-scoped option) even though the
        // engine ignores it, and STATS carries no plan counters.
        client
            .set_planner(knmatch_core::PlannerMode::Scan)
            .expect("set planner");
        let report = client.stats_report().expect("stats");
        assert_eq!(report.plans, None);
        client.quit().expect("quit");
    });
}

#[test]
fn disk_backend_bit_identical_over_the_wire() {
    let (_dir, _csv, db) = temp_files("disk");
    let disk = Backend::Disk {
        pool_pages: 64,
        verify: knmatch_storage::VerifyMode::FirstRead,
    };
    check_backend("disk", configured(disk, &db));
}

/// Writes the shared 200 x 4 uniform dataset as both a CSV and a `.knm`
/// database under a per-test temp dir; the guard removes it on drop.
fn temp_files(tag: &str) -> (TempDir, String, String) {
    let dir = std::env::temp_dir().join(format!(
        "knmatch-server-xcheck-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ds = uniform(200, 4, 0x5EED);
    let csv = dir.join("data.csv");
    knmatch_data::save_dataset(&csv, &ds).expect("write csv");
    let db = dir.join("data.knm");
    DiskDatabase::create_file(&db, &ds, 64).expect("write db");
    (
        TempDir(dir.clone()),
        csv.to_string_lossy().into_owned(),
        db.to_string_lossy().into_owned(),
    )
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn deadline_and_fail_fast_travel_the_wire() {
    let (_dir, csv, _db) = temp_files("opts");
    for reactor in backends() {
        deadline_and_fail_fast_on(on(reactor), &csv);
    }
}

fn deadline_and_fail_fast_on(cfg: ServerConfig, csv: &str) {
    let engine = memory_engine(csv, 2);
    let queries = workload(4);
    let healthy = expected_wire(engine.run(&queries));

    with_server(engine, cfg, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        // A generous deadline changes nothing: bit-identical answers.
        client.set_deadline_ms(60_000).expect("deadline");
        let reply = client.run_batch(&queries).expect("batch");
        for (got, want) in reply.answers.iter().zip(&healthy) {
            match (got, want) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(e), Err((kind, _))) => assert_eq!(e.kind, *kind),
                other => panic!("slot shape diverged: {other:?}"),
            }
        }
        // Clearing it (DEADLINE 0) keeps working.
        client.set_deadline_ms(0).expect("clear deadline");
        // Fail-fast toggles per connection; with every query valid the
        // flag is invisible (bit-identical again).
        client.set_fail_fast(true).expect("fail fast");
        let valid: Vec<_> = queries[..6].to_vec();
        let want = expected_wire(memory_engine(csv, 2).run(&valid));
        let reply = client.run_batch(&valid).expect("batch");
        assert_eq!(reply.failed, 0);
        for (got, want) in reply.answers.iter().zip(&want) {
            match (got, want) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                other => panic!("slot shape diverged: {other:?}"),
            }
        }
        client.quit().expect("quit");
    });
}

#[test]
fn stats_verb_reports_both_scopes() {
    let (_dir, csv, _db) = temp_files("stats");
    for reactor in backends() {
        stats_scopes_on(on(reactor), &csv);
    }
}

fn stats_scopes_on(cfg: ServerConfig, csv: &str) {
    with_server(memory_engine(csv, 1), cfg, |addr| {
        let mut a = Client::connect(addr).expect("connect a");
        let mut b = Client::connect(addr).expect("connect b");
        let q = BatchQuery::KnMatch {
            query: vec![0.5; 4],
            k: 2,
            n: 2,
        };
        a.query(&q).expect("query").expect("answer");
        b.query(&q).expect("query").expect("answer");
        b.query(&q).expect("query").expect("answer");
        let StatsReport { conn, server, .. } = b.stats_report().expect("stats");
        assert_eq!(conn.queries, 2);
        assert_eq!(conn.connections, 1);
        assert_eq!(server.queries, 3);
        assert_eq!(server.connections, 2);
        assert!(server.bytes_in > 0 && server.bytes_out > 0);
        a.quit().expect("quit");
        b.quit().expect("quit");
    });
}

#[test]
fn connection_limit_rejects_with_busy() {
    let (_dir, csv, _db) = temp_files("busy");
    for reactor in backends() {
        let cfg = ServerConfig {
            max_connections: 1,
            ..on(reactor)
        };
        let (stats, _) = with_server(memory_engine(&csv, 1), cfg, |addr| {
            let mut first = Client::connect(addr).expect("connect");
            first.ping().expect("ping");
            // The second connection is over the limit: it gets ERR busy
            // and an immediate close.
            let mut second = Client::connect(addr).expect("connect");
            match second.recv_response().expect("busy line") {
                knmatch_server::Response::Error { kind, .. } => {
                    assert_eq!(kind, ErrorKind::Busy, "under {reactor}")
                }
                other => panic!("expected ERR busy, got {other:?}"),
            }
            drop(second);
            // The first connection is unaffected.
            first.ping().expect("ping after reject");
            first.quit().expect("quit");
        });
        assert_eq!(stats.connections, 1, "the rejected socket is not counted");
    }
}
