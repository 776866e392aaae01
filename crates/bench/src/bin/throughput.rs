//! Std-only batch-throughput benchmark: the allocating sequential loop
//! vs. scratch reuse vs. the parallel [`QueryEngine`], on one uniform
//! dataset. Emits `BENCH_throughput.json`.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin throughput
//! cargo run -p knmatch-bench --release --bin throughput -- \
//!     --cardinality 100000 --dims 30 -k 10 -n 2 --queries 200 --out BENCH_throughput.json
//! ```
//!
//! All modes answer the identical workload and the run asserts their
//! answers and `AdStats` agree bit-for-bit before reporting numbers.
//! Wall-clock timing (`std::time::Instant`), no external bench framework,
//! so the workspace builds offline.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use knmatch_core::{
    k_n_match_ad, AdStats, BatchAnswer, BatchEngine, BatchQuery, QueryEngine, Scratch,
    SortedColumns,
};
use knmatch_data::rng::seeded;

struct Config {
    cardinality: usize,
    dims: usize,
    k: usize,
    n: usize,
    queries: usize,
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
                "usage: throughput [--cardinality C] [--dims D] [-k K] [-n N] \
                 [--queries Q] [--seed S] [--out FILE]"
            );
            std::process::exit(0);
        }
        Config {
            cardinality: num("--cardinality", 100_000),
            dims: num("--dims", 30),
            k: num("-k", 10),
            n: num("-n", 1),
            queries: num("--queries", 2000),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            out: get("--out").unwrap_or_else(|| "BENCH_throughput.json".into()),
        }
    }
}

struct Mode {
    name: &'static str,
    workers: usize,
    wall: Duration,
    latencies: Vec<Duration>,
    attributes: u64,
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

/// The pre-engine code path: one fresh allocation set per query.
fn run_alloc_loop(cols: &SortedColumns, queries: &[Vec<f64>], k: usize, n: usize) -> Mode {
    let mut cols = cols.clone();
    let mut latencies = Vec::with_capacity(queries.len());
    let mut out = Vec::with_capacity(queries.len());
    let wall = Instant::now();
    for q in queries {
        let t = Instant::now();
        let (r, s) = k_n_match_ad(&mut cols, q, k, n).expect("valid workload");
        latencies.push(t.elapsed());
        out.push((BatchAnswer::KnMatch(r), s));
    }
    let wall = wall.elapsed();
    let (attributes, _) = digest(&out);
    Mode {
        name: "sequential_alloc",
        workers: 1,
        wall,
        latencies,
        attributes,
    }
}

/// One engine worker's life, measured: claim queries off a shared counter,
/// reuse one `Scratch`, record per-query latency.
fn run_engine(
    engine: &QueryEngine,
    batch: &[BatchQuery],
    workers: usize,
    name: &'static str,
    reference: Option<(u64, u64)>,
) -> Mode {
    // Product-path wall time: one engine.run() call.
    let wall = Instant::now();
    let results = engine.run(batch);
    let wall = wall.elapsed();
    let ok: Vec<(BatchAnswer, AdStats)> = results
        .into_iter()
        .map(|r| r.expect("valid workload"))
        .collect();
    let dig = digest(&ok);
    if let Some(want) = reference {
        assert_eq!(
            dig, want,
            "{name}: parallel answers diverged from sequential"
        );
    }

    // Per-query latencies: same claim loop the engine runs, timed.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || {
                let mut scratch = Scratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.len() {
                        break;
                    }
                    let t = Instant::now();
                    let _ = engine
                        .execute(&batch[i], &mut scratch)
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
        name,
        workers,
        wall,
        latencies,
        attributes: dig.0,
    }
}

fn main() {
    let cfg = Config::parse();
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "throughput: c={} d={} k={} n={} queries={} seed={} ({cpus} cpu(s))",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.seed
    );

    let ds = knmatch_data::uniform(cfg.cardinality, cfg.dims, cfg.seed);
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
    let cols = SortedColumns::build(&ds);
    let batch: Vec<BatchQuery> = queries
        .iter()
        .map(|q| BatchQuery::KnMatch {
            query: q.clone(),
            k: cfg.k,
            n: cfg.n,
        })
        .collect();

    // Warm-up pass (page in columns, stabilise the allocator).
    let engine = QueryEngine::with_workers(Arc::new(cols.clone()), 1);
    let _ = engine.run(&batch[..batch.len().min(8)]);

    let baseline = run_alloc_loop(&cols, &queries, cfg.k, cfg.n);
    let reference = {
        let mut c = cols.clone();
        let out: Vec<(BatchAnswer, AdStats)> = queries
            .iter()
            .map(|q| {
                let (r, s) = k_n_match_ad(&mut c, q, cfg.k, cfg.n).expect("valid workload");
                (BatchAnswer::KnMatch(r), s)
            })
            .collect();
        digest(&out)
    };

    let shared = Arc::new(cols);
    let mut modes = vec![baseline];
    for (workers, name) in [
        (1usize, "engine_w1"),
        (2, "engine_w2"),
        (4, "engine_w4"),
        (cpus, "engine_wcpus"),
    ] {
        let engine = QueryEngine::with_workers(shared.clone(), workers);
        modes.push(run_engine(&engine, &batch, workers, name, Some(reference)));
    }

    let base_qps = modes[0].qps(cfg.queries);
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"dims\": {}, \"k\": {}, \"n\": {}, \
         \"queries\": {}, \"seed\": {}, \"cpus\": {cpus}}},",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.seed
    );
    let _ = writeln!(json, "  \"modes\": [");
    for (i, m) in modes.iter().enumerate() {
        let comma = if i + 1 < modes.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"workers\": {}, \"qps\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"wall_ms\": {:.2}, \
             \"attributes_retrieved\": {}, \"speedup_vs_alloc\": {:.2}}}{comma}",
            m.name,
            m.workers,
            m.qps(cfg.queries),
            m.pct(0.50),
            m.pct(0.99),
            m.wall.as_secs_f64() * 1e3,
            m.attributes,
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
        "  \"speedup_engine_w4_vs_sequential_alloc\": {:.2}",
        w4.qps(cfg.queries) / base_qps
    );
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
}
