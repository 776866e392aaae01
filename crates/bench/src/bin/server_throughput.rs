//! End-to-end TCP server throughput benchmark. Emits `BENCH_server.json`.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin server_throughput
//! cargo run -p knmatch-bench --release --bin server_throughput -- \
//!     --cardinality 50000 --dims 20 -k 10 -n 2 --queries 256 \
//!     --clients 4 --out BENCH_server.json
//! cargo run -p knmatch-bench --release --bin server_throughput -- --smoke
//! ```
//!
//! For each worker count (1, 2, 4) the same k-n-match workload is run
//! two ways over the identical in-memory engine:
//!
//! 1. **direct** — `BatchEngine::run` in-process, no sockets. This is
//!    the ceiling the wire path is measured against.
//! 2. **served** — a loopback [`EventServer`] with `--clients` concurrent
//!    [`Client`]s, each submitting the whole workload as `BATCH` frames.
//!    Every served answer is asserted bit-identical to the direct run
//!    (the text protocol round-trips `f64` exactly) before any number
//!    is reported.
//!
//! A third probe measures single-query round-trip latency (one `KNM`
//! line per request, synchronous) to expose per-request protocol
//! overhead separately from pipelined batch throughput.
//!
//! Wall-clock timing only (`std::time::Instant`), no external bench
//! framework, so the workspace builds offline.
#![cfg_attr(not(unix), allow(dead_code, unused_imports))]

use std::fmt::Write as _;
use std::thread;
use std::time::Instant;

use knmatch_core::{BatchAnswer, BatchEngine, BatchOutcome, BatchQuery};
use knmatch_data::rng::seeded;
#[cfg(unix)]
use knmatch_server::EventServer;
use knmatch_server::{Backend, Client, EngineConfig, ServerConfig};

struct Config {
    cardinality: usize,
    dims: usize,
    k: usize,
    n: usize,
    queries: usize,
    clients: usize,
    passes: usize,
    seed: u64,
    out: String,
}

impl Config {
    fn parse() -> Config {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .cloned()
        };
        let num = |flag: &str, default: usize| {
            get(flag).map_or(default, |v| {
                v.parse().unwrap_or_else(|_| panic!("bad {flag}"))
            })
        };
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!(
                "usage: server_throughput [--cardinality C] [--dims D] [-k K] [-n N] \
                 [--queries Q] [--clients N] [--passes P] [--seed S] [--smoke] [--out FILE]"
            );
            std::process::exit(0);
        }
        let smoke = args.iter().any(|a| a == "--smoke");
        Config {
            cardinality: num("--cardinality", if smoke { 2_000 } else { 50_000 }),
            dims: num("--dims", if smoke { 8 } else { 20 }),
            k: num("-k", 10),
            n: num("-n", 2),
            queries: num("--queries", if smoke { 32 } else { 256 }),
            clients: num("--clients", if smoke { 2 } else { 4 }),
            passes: num("--passes", if smoke { 1 } else { 3 }),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            out: get("--out").unwrap_or_else(|| "BENCH_server.json".into()),
        }
    }
}

/// Structural checksum over answers — a cheap cross-run equality witness
/// for the JSON report (the real assertion is full `==`).
fn digest(answers: &[BatchAnswer]) -> u64 {
    let mut sum = 0u64;
    for a in answers {
        let ids = match a {
            BatchAnswer::KnMatch(r) | BatchAnswer::EpsMatch(r) => r.ids(),
            BatchAnswer::Frequent(r) => r.ids(),
        };
        for (rank, pid) in ids.iter().enumerate() {
            sum = sum
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(*pid as u64 ^ ((rank as u64) << 32));
        }
    }
    sum
}

struct Row {
    workers: usize,
    direct_qps: f64,
    served_qps: f64,
    batch_ms_mean: f64,
    pingpong_us: f64,
    bytes_in: u64,
    bytes_out: u64,
}

#[cfg(unix)]
fn main() {
    let cfg = Config::parse();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "server_throughput: c={} d={} k={} n={} queries={} clients={} passes={} seed={} ({cpus} cpu(s))",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.clients, cfg.passes, cfg.seed
    );

    let ds = knmatch_data::uniform(cfg.cardinality, cfg.dims, cfg.seed);
    let mut rng = seeded(cfg.seed ^ 0x9E37_79B9);
    let batch: Vec<BatchQuery> = (0..cfg.queries)
        .map(|_| {
            let pid = rng.range_usize(0..ds.len()) as u32;
            let query = ds
                .point(pid)
                .iter()
                .map(|&v| (v + rng.range_f64(-0.01, 0.01)).clamp(0.0, 1.0))
                .collect();
            BatchQuery::KnMatch {
                query,
                k: cfg.k,
                n: cfg.n,
            }
        })
        .collect();

    let mut rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let engine = EngineConfig {
            workers,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .build_in_memory(&ds);

        // Direct baseline: same engine, no sockets. Warm up, then take
        // the fastest of `passes` runs.
        let _ = engine.run(&batch[..batch.len().min(8)]);
        let mut direct_wall = f64::INFINITY;
        let mut direct: Vec<BatchAnswer> = Vec::new();
        for _ in 0..cfg.passes {
            let t = Instant::now();
            let out: Vec<BatchAnswer> = engine
                .run(&batch)
                .into_iter()
                .map(|r| r.expect("valid workload").into_answer())
                .collect();
            direct_wall = direct_wall.min(t.elapsed().as_secs_f64());
            direct = out;
        }
        let direct_qps = batch.len() as f64 / direct_wall;

        // Served: one loopback server, `clients` concurrent connections,
        // each pushing the full workload `passes` times.
        let server =
            EventServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let mut served_wall = 0.0;
        let mut batch_ms = Vec::new();
        let mut pingpong_us = 0.0;
        thread::scope(|s| {
            let serving = s.spawn(|| server.serve().expect("serve"));

            // Warm-up connection: spins the engine's worker pool and the
            // accept path before anything is timed.
            let mut warm = Client::connect(addr).expect("connect");
            let reply = warm.run_batch(&batch[..batch.len().min(8)]).expect("warm");
            assert_eq!(reply.failed, 0);
            warm.quit().expect("quit");

            let wall = Instant::now();
            let client_batch_ms: Vec<Vec<f64>> = {
                let results: Vec<_> = (0..cfg.clients)
                    .map(|_| {
                        let batch = &batch;
                        let direct = &direct;
                        s.spawn(move || {
                            let mut client = Client::connect(addr).expect("connect");
                            let mut per_batch = Vec::with_capacity(cfg.passes);
                            for _ in 0..cfg.passes {
                                let t = Instant::now();
                                let reply = client.run_batch(batch).expect("batch");
                                per_batch.push(t.elapsed().as_secs_f64() * 1e3);
                                assert_eq!(reply.failed, 0, "no query may fail");
                                for (got, want) in reply.answers.iter().zip(direct) {
                                    assert_eq!(
                                        got.as_ref().expect("answer"),
                                        want,
                                        "served answer diverged from direct run"
                                    );
                                }
                            }
                            client.quit().expect("quit");
                            per_batch
                        })
                    })
                    .collect();
                results
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            };
            served_wall = wall.elapsed().as_secs_f64();
            batch_ms = client_batch_ms.into_iter().flatten().collect();

            // Single-query round trips: protocol overhead per request.
            let mut probe = Client::connect(addr).expect("connect");
            let probes = batch.len().min(64);
            let t = Instant::now();
            for (q, want) in batch.iter().zip(&direct).take(probes) {
                let got = probe.query(q).expect("transport").expect("answer");
                assert_eq!(&got, want, "single-query answer diverged");
            }
            pingpong_us = t.elapsed().as_secs_f64() * 1e6 / probes as f64;
            probe.quit().expect("quit");

            handle.shutdown();
            serving.join().expect("server thread");
        });
        let stats = server.stats();
        let total = (cfg.clients * cfg.passes * batch.len()) as f64;
        rows.push(Row {
            workers,
            direct_qps,
            served_qps: total / served_wall,
            batch_ms_mean: batch_ms.iter().sum::<f64>() / batch_ms.len() as f64,
            pingpong_us,
            bytes_in: stats.bytes_in,
            bytes_out: stats.bytes_out,
        });
        eprintln!(
            "  workers={workers}: direct {direct_qps:.0} q/s, served {:.0} q/s \
             ({} clients), round-trip {pingpong_us:.0} us",
            total / served_wall,
            cfg.clients
        );
    }

    let checksum = {
        let engine = EngineConfig {
            workers: 1,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .build_in_memory(&ds);
        let answers: Vec<BatchAnswer> = engine
            .run(&batch)
            .into_iter()
            .map(|r| r.expect("valid workload").into_answer())
            .collect();
        digest(&answers)
    };

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"dims\": {}, \"k\": {}, \"n\": {}, \
         \"queries\": {}, \"clients\": {}, \"passes\": {}, \"seed\": {}, \"cpus\": {cpus}}},",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.clients, cfg.passes, cfg.seed
    );
    let _ = writeln!(json, "  \"answer_checksum\": {checksum},");
    let _ = writeln!(json, "  \"workers\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"direct_qps\": {:.0}, \"served_qps\": {:.0}, \
             \"wire_efficiency\": {:.3}, \"batch_ms_mean\": {:.2}, \
             \"roundtrip_us\": {:.1}, \"bytes_in\": {}, \"bytes_out\": {}}}{comma}",
            r.workers,
            r.direct_qps,
            r.served_qps,
            r.served_qps / (r.direct_qps * cfg.clients.min(cpus) as f64).max(f64::MIN_POSITIVE),
            r.batch_ms_mean,
            r.pingpong_us,
            r.bytes_in,
            r.bytes_out
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
}

#[cfg(not(unix))]
fn main() {
    eprintln!("server_throughput needs a unix host (the server runs on poll(2)/epoll(7))");
}
