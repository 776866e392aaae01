//! Std-only disk batch-throughput benchmark: the sequential
//! `DiskDatabase` loop (one query at a time through the exclusive
//! `BufferPool`) vs. the parallel `DiskQueryEngine` over a shared sharded
//! pool, on one database *file* (real positioned-read I/O). Emits
//! `BENCH_disk_throughput.json` with a worker sweep and per-mode shared-
//! pool hit ratios.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin disk_throughput
//! cargo run -p knmatch-bench --release --bin disk_throughput -- --smoke
//! cargo run -p knmatch-bench --release --bin disk_throughput -- \
//!     --cardinality 200000 --dims 16 -k 10 -n 1 --queries 400 \
//!     --pool-pages 512 --out BENCH_disk_throughput.json
//! ```
//!
//! Every mode answers the identical workload and the run asserts answers
//! and `AdStats` agree bit-for-bit with the sequential path before
//! reporting numbers. Wall-clock timing only (`std::time::Instant`), no
//! external bench framework, so the workspace builds offline.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use knmatch_core::{AdStats, BatchAnswer, BatchEngine, BatchQuery, Scratch};
use knmatch_data::rng::seeded;
use knmatch_storage::{DiskDatabase, DiskQueryEngine, FileStore, IoStats, SharedDiskColumns};

struct Config {
    cardinality: usize,
    dims: usize,
    k: usize,
    n: usize,
    queries: usize,
    pool_pages: usize,
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
                "usage: disk_throughput [--smoke] [--cardinality C] [--dims D] [-k K] [-n N] \
                 [--queries Q] [--pool-pages P] [--seed S] [--out FILE]"
            );
            std::process::exit(0);
        }
        // Smoke mode: a seconds-long run for CI / verify.sh.
        let smoke = args.iter().any(|a| a == "--smoke");
        let (c0, q0) = if smoke { (4_000, 48) } else { (200_000, 400) };
        Config {
            cardinality: num("--cardinality", c0),
            dims: num("--dims", 16),
            k: num("-k", 10),
            n: num("-n", 1),
            queries: num("--queries", q0),
            pool_pages: num("--pool-pages", 512),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            out: get("--out").unwrap_or_else(|| "BENCH_disk_throughput.json".into()),
        }
    }
}

struct Mode {
    name: String,
    workers: usize,
    wall: Duration,
    latencies: Vec<Duration>,
    attributes: u64,
    /// Actual traffic of the pool serving the mode (exclusive pool for the
    /// sequential baseline, shared pool for the engine).
    pool: IoStats,
}

impl Mode {
    fn qps(&self, queries: usize) -> f64 {
        queries as f64 / self.wall.as_secs_f64()
    }

    fn pct(&self, p: f64) -> f64 {
        let us: Vec<f64> = self
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        knmatch_bench::percentile(&us, p)
    }

    fn hit_ratio(&self) -> f64 {
        let lookups = self.pool.hits + self.pool.page_accesses();
        if lookups == 0 {
            0.0
        } else {
            self.pool.hits as f64 / lookups as f64
        }
    }
}

fn digest(results: &[(BatchAnswer, AdStats)]) -> (u64, u64) {
    // (total attributes, structural checksum) — cheap equality witness.
    let mut attrs = 0u64;
    let mut sum = 0u64;
    for (a, s) in results {
        attrs += s.attributes_retrieved;
        let ids = match a {
            BatchAnswer::KnMatch(r) | BatchAnswer::EpsMatch(r) => r.ids(),
            BatchAnswer::Frequent(r) => r.ids(),
        };
        for (rank, pid) in ids.iter().enumerate() {
            sum = sum
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(*pid as u64 ^ ((rank as u64) << 32));
        }
        sum = sum.wrapping_add(s.heap_pops);
    }
    (attrs, sum)
}

/// A pre-engine product path: one query at a time through the exclusive
/// `BufferPool`, a fresh `Scratch` allocated inside every `k_n_match`
/// call. With `cold`, the pool is invalidated before every query — the
/// path `knmatch bench` runs to get clean per-query `IoStats`, and the
/// one the engine is contractually equivalent to (bit-identical answers,
/// `AdStats`, and per-query stats); it re-fetches shared pages per query.
/// Without, the pool stays warm across queries (stats bleed, no refetch).
fn run_sequential(
    path: &std::path::Path,
    cfg: &Config,
    queries: &[Vec<f64>],
    cold: bool,
) -> (Mode, (u64, u64)) {
    let mut db = DiskDatabase::open_file(path, cfg.pool_pages).expect("open database file");
    let mut latencies = Vec::with_capacity(queries.len());
    let mut out = Vec::with_capacity(queries.len());
    let mut pool = IoStats::default();
    let wall = Instant::now();
    for q in queries {
        if cold {
            db.pool_mut().invalidate_all();
        }
        let t = Instant::now();
        let r = db.k_n_match(q, cfg.k, cfg.n).expect("valid workload");
        latencies.push(t.elapsed());
        pool.merge(r.io);
        out.push((BatchAnswer::KnMatch(r.result), r.ad));
    }
    let wall = wall.elapsed();
    let dig = digest(&out);
    (
        Mode {
            name: if cold {
                "sequential_cold".into()
            } else {
                "sequential_warm".into()
            },
            workers: 1,
            wall,
            latencies,
            attributes: dig.0,
            pool,
        },
        dig,
    )
}

/// One engine mode: a cold shared pool, `workers` workers, answers checked
/// against the sequential digest.
fn run_engine(
    path: &std::path::Path,
    cfg: &Config,
    batch: &[BatchQuery],
    workers: usize,
    reference: (u64, u64),
) -> Mode {
    let store = FileStore::open(path).expect("open database file");
    let db = DiskDatabase::open_file(path, cfg.pool_pages).expect("open database file");
    let engine: DiskQueryEngine<FileStore> = {
        // Reuse the parsed layout but run on an independent FileStore so
        // the sequential handle above stays untouched.
        let (_, columns) = db.into_engine(1).into_parts();
        DiskQueryEngine::with_workers(store, columns, cfg.pool_pages, workers)
            .expect("pool_pages >= 1")
    };

    // Product-path wall time: one engine.run() call on a cold pool.
    let wall = Instant::now();
    let results = engine.run(batch);
    let wall = wall.elapsed();
    let pool = engine.pool_stats();
    let ok: Vec<(BatchAnswer, AdStats)> = results
        .into_iter()
        .map(|r| {
            let o = r.expect("valid workload");
            (o.answer, o.ad)
        })
        .collect();
    let dig = digest(&ok);
    assert_eq!(
        dig, reference,
        "workers {workers}: parallel answers diverged from sequential"
    );

    // Per-query latencies: the same claim loop the engine runs, timed
    // (pool now warm — latencies reflect steady state, wall does not).
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let engine = &engine;
            s.spawn(move || {
                let mut src =
                    SharedDiskColumns::new(engine.columns(), engine.pool(), engine.pool_pages());
                let mut scratch = Scratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.len() {
                        break;
                    }
                    let t = Instant::now();
                    let _ = engine
                        .execute(&batch[i], &mut src, &mut scratch)
                        .expect("valid workload");
                    if tx.send(t.elapsed()).is_err() {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);
    let latencies: Vec<Duration> = rx.into_iter().collect();
    Mode {
        name: format!("engine_w{workers}"),
        workers,
        wall,
        latencies,
        attributes: dig.0,
        pool,
    }
}

fn main() {
    let cfg = Config::parse();
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "disk_throughput: c={} d={} k={} n={} queries={} pool={} seed={} ({cpus} cpu(s))",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.pool_pages, cfg.seed
    );

    let dir = std::env::temp_dir().join(format!("knmatch-disk-throughput-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.knm");

    let ds = knmatch_data::uniform(cfg.cardinality, cfg.dims, cfg.seed);
    DiskDatabase::create_file(&path, &ds, cfg.pool_pages).expect("build database file");

    let mut rng = seeded(cfg.seed ^ 0x9E37_79B9);
    let queries: Vec<Vec<f64>> = (0..cfg.queries)
        .map(|_| {
            let pid = rng.range_usize(0..ds.len()) as u32;
            ds.point(pid)
                .iter()
                .map(|&v| (v + rng.range_f64(-0.01, 0.01)).clamp(0.0, 1.0))
                .collect()
        })
        .collect();
    let batch: Vec<BatchQuery> = queries
        .iter()
        .map(|q| BatchQuery::KnMatch {
            query: q.clone(),
            k: cfg.k,
            n: cfg.n,
        })
        .collect();

    // Warm-up: page the file into the OS cache so the timed modes compare
    // pool behaviour, not first-touch filesystem effects.
    {
        let mut db = DiskDatabase::open_file(&path, cfg.pool_pages).expect("open database file");
        for q in queries.iter().take(8) {
            let _ = db.k_n_match(q, cfg.k, cfg.n).expect("valid workload");
        }
    }

    // The reference baseline is the cold-pool sequential path: it is the
    // one whose answers AND per-query IoStats the engine reproduces
    // bit-for-bit (the warm path's stats depend on query order). The warm
    // path is reported too, as the best case for an exclusive pool.
    let (baseline, reference) = run_sequential(&path, &cfg, &queries, true);
    let (warm, warm_dig) = run_sequential(&path, &cfg, &queries, false);
    assert_eq!(warm_dig, reference, "warm answers diverged from cold");
    let mut modes = vec![baseline, warm];
    let mut sweep: Vec<usize> = vec![1, 2, 4];
    if !sweep.contains(&cpus) {
        sweep.push(cpus);
    }
    for workers in sweep {
        modes.push(run_engine(&path, &cfg, &batch, workers, reference));
    }

    let base_qps = modes[0].qps(cfg.queries);
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"dims\": {}, \"k\": {}, \"n\": {}, \
         \"queries\": {}, \"pool_pages\": {}, \"seed\": {}, \"cpus\": {cpus}}},",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.pool_pages, cfg.seed
    );
    let _ = writeln!(json, "  \"modes\": [");
    for (i, m) in modes.iter().enumerate() {
        let comma = if i + 1 < modes.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"workers\": {}, \"qps\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"wall_ms\": {:.2}, \
             \"attributes_retrieved\": {}, \"pool_store_reads\": {}, \"pool_hits\": {}, \
             \"pool_hit_ratio\": {:.4}, \"speedup_vs_sequential\": {:.2}}}{comma}",
            m.name,
            m.workers,
            m.qps(cfg.queries),
            m.pct(0.50),
            m.pct(0.99),
            m.wall.as_secs_f64() * 1e3,
            m.attributes,
            m.pool.page_accesses(),
            m.pool.hits,
            m.hit_ratio(),
            m.qps(cfg.queries) / base_qps,
        );
    }
    let _ = writeln!(json, "  ],");
    let w4 = modes
        .iter()
        .find(|m| m.name == "engine_w4")
        .expect("engine_w4 mode exists");
    let _ = writeln!(
        json,
        "  \"speedup_engine_w4_vs_sequential_cold\": {:.2}",
        w4.qps(cfg.queries) / base_qps
    );
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
    std::fs::remove_dir_all(&dir).ok();
}
