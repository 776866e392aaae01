//! Live ingestion end to end: the `INSERT`/`DELETE`/`EPOCH`/`SEAL`
//! verbs on every readiness backend, over both encodings, with queries
//! interleaved — writes become visible to later queries, epochs grow
//! monotonically, background maintenance keeps the run list bounded,
//! and read-only servers reject every write verb.
#![cfg(unix)]

mod common;

use std::thread;
use std::time::Duration;

use common::{backends, on, with_server};
use knmatch_core::{BatchAnswer, BatchQuery};
use knmatch_data::uniform;
use knmatch_server::{Client, EngineConfig, ErrorKind, ServerConfig};

/// A mutable engine over a small uniform dataset, sealing every
/// `threshold` delta rows.
fn mutable_engine(rows: usize, threshold: usize) -> (knmatch_server::AnyEngine, usize) {
    let ds = uniform(rows, 4, 0x5EED);
    let cfg = EngineConfig::builder()
        .workers(2)
        .mutable(true)
        .merge_threshold(threshold)
        .build()
        .expect("valid config");
    (cfg.build_in_memory(&ds), ds.dims())
}

/// One k-1-match probe at `at` whose top answer must be `want`.
fn probe(client: &mut Client, dims: usize, at: f64, want: u32) {
    let q = BatchQuery::KnMatch {
        query: vec![at; dims],
        k: 1,
        n: dims,
    };
    let answer = client.query(&q).expect("query").expect("served");
    match answer {
        BatchAnswer::KnMatch(r) => assert_eq!(r.ids(), vec![want]),
        other => panic!("expected a KNM answer, got {other:?}"),
    }
}

/// The write verbs round-trip for every reactor backend and both
/// encodings, writes are visible to the very next query, and the
/// version counters track them.
#[test]
fn write_verbs_event_server() {
    for reactor in backends() {
        for binary in [false, true] {
            let (engine, dims) = mutable_engine(120, 1024);
            with_server(engine, on(reactor), |addr| {
                let mut c = Client::connect(addr).expect("connect");
                c.set_binary(binary);

                let info = c.epoch().expect("epoch").expect("served");
                assert_eq!(info.live, 120);
                let start_epoch = info.epoch;

                // An insert far outside the [0,1] cube is the unambiguous
                // nearest neighbour of a probe at its location.
                let e1 = c
                    .insert(900, &vec![5.0; dims])
                    .expect("insert")
                    .expect("served");
                assert!(e1 > start_epoch, "insert must bump the epoch");
                probe(&mut c, dims, 5.0, 900);

                // Upsert: same key, new location; old location must lose.
                let e2 = c
                    .insert(900, &vec![9.0; dims])
                    .expect("insert")
                    .expect("served");
                assert!(e2 > e1);
                probe(&mut c, dims, 9.0, 900);

                let sealed = c.seal().expect("seal").expect("served");
                assert!(sealed >= e2);
                let info = c.epoch().expect("epoch").expect("served");
                assert_eq!(info.live, 121);
                assert_eq!(info.delta, 0, "seal must empty the delta");
                assert!(info.runs >= 1);

                // Delete after the seal: a tombstone, not a delta edit.
                let e3 = c.delete(900).expect("delete").expect("served");
                assert!(e3 > sealed);
                let info = c.epoch().expect("epoch").expect("served");
                assert_eq!(info.live, 120);

                // Deleting a dead key is a served error, not a transport one.
                let err = c.delete(900).expect("delete").expect_err("dead key");
                assert_eq!(err.kind, ErrorKind::Query);
                assert!(err.message.contains("900"), "message: {}", err.message);

                // The STATS version group mirrors what EPOCH reported.
                let report = c.stats_report().expect("stats");
                let v = report.version.expect("mutable engine reports version");
                assert_eq!(v.live, 120);
                assert_eq!(v.writes, 3, "2 inserts/upserts + 1 delete");
                assert!(v.tombstones >= 1);
                c.quit().expect("quit");
            });
        }
    }
}

/// Read-only engines answer every write verb with `ERR query` and stay
/// fully functional afterwards.
#[test]
fn read_only_server_rejects_writes() {
    let ds = uniform(50, 4, 0x5EED);
    for reactor in backends() {
        let engine = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        }
        .build_in_memory(&ds);
        with_server(engine, on(reactor), |addr| {
            let mut c = Client::connect(addr).expect("connect");
            for verb in ["INSERT 7 1,2,3,4", "DELETE 7", "EPOCH", "SEAL"] {
                c.send_raw(format!("{verb}\n").as_bytes()).expect("send");
                match c.recv_response().expect("recv") {
                    knmatch_server::Response::Error { kind, message } => {
                        assert_eq!(kind, ErrorKind::Query, "verb {verb}");
                        assert!(message.contains("immutable"), "verb {verb}: {message}");
                    }
                    other => panic!("verb {verb}: expected ERR, got {other:?}"),
                }
            }
            // The connection still answers reads.
            c.ping().expect("ping");
            assert!(c.stats_report().expect("stats").version.is_none());
            c.quit().expect("quit");
        });
    }
}

/// A writer streaming inserts/deletes while readers query concurrently:
/// every reader answer is exact for *some* epoch (k=1 probes at write
/// targets never see torn state), pipelined readers are all served, and
/// enough churn passes through the small seal threshold to drive the
/// executor-side maintenance jobs until the run list ends bounded.
#[test]
fn concurrent_ingest_event_server() {
    for reactor in backends() {
        let (engine, dims) = mutable_engine(100, 8);
        let cfg = ServerConfig {
            executors: 2,
            ..on(reactor)
        };
        with_server(engine, cfg, |addr| concurrent_ingest(addr, dims));
    }
}

fn concurrent_ingest(addr: std::net::SocketAddr, dims: usize) {
    thread::scope(|s| {
        // Writer: 150 upserts over 10 hot keys moving outward, with
        // periodic deletes; the threshold of 8 forces ~18 seals and
        // with that, maintenance merges.
        s.spawn(move || {
            let mut w = Client::connect(addr).expect("connect writer");
            let mut last = 0;
            for i in 0..150u32 {
                let key = 500 + (i % 10);
                let at = 3.0 + f64::from(i % 10);
                let e = w
                    .insert(key, &vec![at; dims])
                    .expect("insert")
                    .expect("served");
                assert!(e > last, "epochs must grow");
                last = e;
                if i % 30 == 29 {
                    let key = 500 + ((i + 5) % 10);
                    let e = w.delete(key).expect("delete").expect("served");
                    assert!(e > last, "delete must bump the epoch");
                    last = w
                        .insert(key, &vec![3.0 + f64::from((i + 5) % 10); dims])
                        .expect("reinsert")
                        .expect("served");
                }
            }
            w.quit().expect("quit writer");
        });
        // Two readers hammer a probe at 3.0: key 500 is upserted there
        // first and never moves, so once visible it stays the top
        // answer at every later epoch.
        for _ in 0..2 {
            s.spawn(move || {
                let mut r = Client::connect(addr).expect("connect reader");
                let q = BatchQuery::KnMatch {
                    query: vec![3.0; dims],
                    k: 1,
                    n: dims,
                };
                let mut seen_inserted = false;
                for _ in 0..60 {
                    let reply = r.run_batch(std::slice::from_ref(&q)).expect("batch");
                    let answer = reply.answers[0].as_ref().expect("served");
                    if let BatchAnswer::KnMatch(res) = answer {
                        if seen_inserted {
                            assert_eq!(res.ids(), vec![500], "visible writes never revert");
                        } else if res.ids() == vec![500] {
                            seen_inserted = true;
                        }
                    }
                }
                r.quit().expect("quit reader");
            });
        }
        // And one pipelines queries four deep beside the writer.
        s.spawn(move || {
            let mut r = Client::connect(addr).expect("connect reader");
            let queries: Vec<BatchQuery> = (0..8)
                .map(|i| BatchQuery::KnMatch {
                    query: vec![0.1 * f64::from(i); dims],
                    k: 3,
                    n: dims,
                })
                .collect();
            for _ in 0..20 {
                for a in r.run_pipelined(&queries, 4).expect("pipelined") {
                    a.expect("served");
                }
            }
            r.quit().expect("quit reader");
        });
    });

    // Maintenance jobs ride the executor queue; poll briefly for the
    // last one to land before asserting the bounds.
    let mut c = Client::connect(addr).expect("connect");
    let mut v = None;
    for _ in 0..100 {
        let got = c
            .stats_report()
            .expect("stats")
            .version
            .expect("version group");
        if got.merges >= 1 && got.runs <= 10 {
            v = Some(got);
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    let v = v.expect("maintenance must compact the run list");
    assert_eq!(v.live, 110, "100 seeded + 10 hot keys");
    c.quit().expect("quit");
}
