//! Live-ingestion benchmark: query latency with and without a
//! concurrent writer, plus write throughput, over the mutable
//! epoch-versioned engine. Emits `BENCH_ingest.json`.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin ingest_throughput
//! cargo run -p knmatch-bench --release --bin ingest_throughput -- \
//!     --cardinality 20000 --dims 8 -k 10 -n 2 --queries 64 \
//!     --writes 20000 --merge-threshold 2048 --out BENCH_ingest.json
//! cargo run -p knmatch-bench --release --bin ingest_throughput -- --smoke
//! ```
//!
//! Three measurements over the identical dataset:
//!
//! 1. **direct writes** — `VersionWriter::insert` in-process, no
//!    sockets: the ceiling for the wire write path.
//! 2. **static reads** — a loopback [`EventServer`] over the mutable engine
//!    with no writer running: the read-latency baseline.
//! 3. **concurrent** — the same read workload while a writer connection
//!    streams inserts (a delete every 16th write) through the same
//!    server. The interesting numbers are the reader's latency
//!    percentiles relative to (2) — epoch snapshots mean writers never
//!    block readers, so the gap should be CPU contention only — and the
//!    served write rate relative to (1).
//!
//! Every reader batch is asserted identical to the pre-write baseline
//! for the seeded keys (writes use a disjoint key range far outside the
//! data cube, so baseline answers stay valid throughout).
//!
//! Wall-clock timing only (`std::time::Instant`), no external bench
//! framework, so the workspace builds offline.
#![cfg_attr(not(unix), allow(dead_code, unused_imports))]

use std::fmt::Write as _;
use std::thread;
use std::time::Instant;

use knmatch_bench::{git_rev, percentile};
use knmatch_core::{BatchEngine, BatchQuery};
use knmatch_data::rng::seeded;
#[cfg(unix)]
use knmatch_server::EventServer;
use knmatch_server::{Client, EngineConfig, ServerConfig};

struct Config {
    cardinality: usize,
    dims: usize,
    k: usize,
    n: usize,
    queries: usize,
    writes: usize,
    merge_threshold: usize,
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
                "usage: ingest_throughput [--cardinality C] [--dims D] [-k K] [-n N] \
                 [--queries Q] [--writes W] [--merge-threshold R] [--seed S] [--smoke] \
                 [--out FILE]"
            );
            std::process::exit(0);
        }
        let smoke = args.iter().any(|a| a == "--smoke");
        Config {
            cardinality: num("--cardinality", if smoke { 2_000 } else { 20_000 }),
            dims: num("--dims", 8),
            k: num("-k", 10),
            n: num("-n", 2),
            queries: num("--queries", if smoke { 16 } else { 64 }),
            writes: num("--writes", if smoke { 1_000 } else { 20_000 }),
            merge_threshold: num("--merge-threshold", if smoke { 256 } else { 2_048 }),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            out: get("--out").unwrap_or_else(|| "BENCH_ingest.json".into()),
        }
    }
}

/// Runs the read workload `rounds` times through `client`, returning
/// (per-batch wall ms, total queries, total seconds).
fn read_rounds(
    client: &mut Client,
    batch: &[BatchQuery],
    rounds: usize,
    baseline: &knmatch_server::BatchReply,
) -> (Vec<f64>, usize, f64) {
    let mut per_batch = Vec::with_capacity(rounds);
    let wall = Instant::now();
    for _ in 0..rounds {
        let t = Instant::now();
        let reply = client.run_batch(batch).expect("read batch");
        per_batch.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(reply.failed, 0, "no query may fail");
        assert_eq!(
            reply.answers, baseline.answers,
            "reader answers drifted from the pre-write baseline"
        );
    }
    let secs = wall.elapsed().as_secs_f64();
    (per_batch, rounds * batch.len(), secs)
}

#[cfg(unix)]
fn main() {
    let cfg = Config::parse();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "ingest_throughput: c={} d={} k={} n={} queries={} writes={} threshold={} seed={} \
         ({cpus} cpu(s))",
        cfg.cardinality,
        cfg.dims,
        cfg.k,
        cfg.n,
        cfg.queries,
        cfg.writes,
        cfg.merge_threshold,
        cfg.seed
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
    // Written points live far outside the unit cube under disjoint keys,
    // so the seeded queries' answers are write-invariant — the reader
    // can assert exactness on every round.
    let write_base = cfg.cardinality as u32 + 1_000;
    let write_point = |i: usize| -> Vec<f64> { vec![100.0 + (i % 97) as f64; cfg.dims] };

    // (1) Direct write ceiling: no sockets, same engine construction.
    let direct_write_ops = {
        let engine = EngineConfig::builder()
            .workers(2)
            .mutable(true)
            .merge_threshold(cfg.merge_threshold)
            .build()
            .expect("valid config")
            .build_in_memory(&ds);
        let w = engine.writer().expect("mutable engine has a writer");
        let t = Instant::now();
        for i in 0..cfg.writes {
            w.insert(write_base + i as u32 % 512, &write_point(i))
                .expect("insert");
            if w.needs_maintenance() {
                w.maintain().expect("maintain");
            }
        }
        cfg.writes as f64 / t.elapsed().as_secs_f64()
    };
    eprintln!("  direct: {direct_write_ops:.0} writes/s");

    let engine = EngineConfig::builder()
        .workers(2)
        .mutable(true)
        .merge_threshold(cfg.merge_threshold)
        .build()
        .expect("valid config")
        .build_in_memory(&ds);
    let server = EventServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    let mut static_row = (Vec::new(), 0usize, 0.0f64);
    let mut concurrent_row = (Vec::new(), 0usize, 0.0f64);
    let mut writer_ops = 0.0f64;
    let mut version = None;
    thread::scope(|s| {
        let serving = s.spawn(|| server.serve().expect("serve"));

        let mut reader = Client::connect(addr).expect("connect reader");
        // Warm up, then freeze the answer baseline for exactness checks.
        let baseline = reader.run_batch(&batch).expect("warm-up batch");
        assert_eq!(baseline.failed, 0);

        // (2) Static read baseline — writer idle. Size the round count
        // so static and concurrent phases see comparable samples.
        let rounds = (cfg.writes / (cfg.queries * 4)).clamp(4, 64);
        static_row = read_rounds(&mut reader, &batch, rounds, &baseline);
        eprintln!(
            "  static reads: {:.0} q/s (p95 batch {:.2} ms)",
            static_row.1 as f64 / static_row.2,
            percentile(&static_row.0, 0.95)
        );

        // (3) The same reads while a writer connection streams churn.
        let writer_thread = s.spawn(move || {
            let mut w = Client::connect(addr).expect("connect writer");
            let t = Instant::now();
            for i in 0..cfg.writes {
                let key = write_base + i as u32 % 512;
                // Churn: every 16th write deletes before re-inserting —
                // but only once the key range has wrapped, so the key is
                // guaranteed live.
                if i % 16 == 15 && i >= 512 {
                    w.delete(key).expect("transport").expect("served delete");
                }
                w.insert(key, &write_point(i))
                    .expect("transport")
                    .expect("served insert");
            }
            let ops = cfg.writes as f64 / t.elapsed().as_secs_f64();
            w.quit().expect("quit writer");
            ops
        });
        let mut per_batch = Vec::new();
        let wall = Instant::now();
        let mut reads = 0usize;
        // `is_finished` (rather than a writer-set flag) also ends the
        // loop if the writer thread dies, so the bench cannot wedge.
        while !writer_thread.is_finished() {
            let (mut ms, n, _) = read_rounds(&mut reader, &batch, 1, &baseline);
            per_batch.append(&mut ms);
            reads += n;
        }
        let secs = wall.elapsed().as_secs_f64();
        concurrent_row = (per_batch, reads, secs);
        writer_ops = writer_thread.join().expect("writer thread");
        eprintln!(
            "  concurrent: reads {:.0} q/s (p95 batch {:.2} ms), writes {writer_ops:.0} ops/s",
            concurrent_row.1 as f64 / concurrent_row.2,
            percentile(&concurrent_row.0, 0.95)
        );

        version = reader.stats_report().expect("stats").version;
        reader.quit().expect("quit reader");
        handle.shutdown();
        serving.join().expect("server thread");
    });
    let v = version.expect("mutable engine reports version counters");

    let static_qps = static_row.1 as f64 / static_row.2;
    let concurrent_qps = concurrent_row.1 as f64 / concurrent_row.2;
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"dims\": {}, \"k\": {}, \"n\": {}, \
         \"queries\": {}, \"writes\": {}, \"merge_threshold\": {}, \"seed\": {}, \
         \"cpus\": {cpus}, \"rev\": \"{}\"}},",
        cfg.cardinality,
        cfg.dims,
        cfg.k,
        cfg.n,
        cfg.queries,
        cfg.writes,
        cfg.merge_threshold,
        cfg.seed,
        git_rev()
    );
    let _ = writeln!(json, "  \"direct_write_ops_s\": {direct_write_ops:.0},");
    let _ = writeln!(
        json,
        "  \"static_reads\": {{\"qps\": {static_qps:.0}, \"batch_min_ms\": {:.2}, \
         \"batch_p50_ms\": {:.2}, \"batch_p95_ms\": {:.2}, \"batch_max_ms\": {:.2}}},",
        percentile(&static_row.0, 0.0),
        percentile(&static_row.0, 0.5),
        percentile(&static_row.0, 0.95),
        percentile(&static_row.0, 1.0)
    );
    let _ = writeln!(
        json,
        "  \"concurrent\": {{\"reader_qps\": {concurrent_qps:.0}, \"batch_min_ms\": {:.2}, \
         \"batch_p50_ms\": {:.2}, \"batch_p95_ms\": {:.2}, \"batch_max_ms\": {:.2}, \
         \"writer_ops_s\": {writer_ops:.0}, \"reader_slowdown\": {:.3}}},",
        percentile(&concurrent_row.0, 0.0),
        percentile(&concurrent_row.0, 0.5),
        percentile(&concurrent_row.0, 0.95),
        percentile(&concurrent_row.0, 1.0),
        static_qps / concurrent_qps.max(f64::MIN_POSITIVE)
    );
    let _ = writeln!(
        json,
        "  \"version\": {{\"epoch\": {}, \"live\": {}, \"runs\": {}, \"tombstones\": {}, \
         \"writes\": {}, \"merges\": {}}}",
        v.epoch, v.live, v.runs, v.tombstones, v.writes, v.merges
    );
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
}

#[cfg(not(unix))]
fn main() {
    eprintln!("ingest_throughput needs a unix host (the server runs on poll(2)/epoll(7))");
}
