//! Std-only intra-query scaling benchmark for the run-list engine
//! (`--shards`) and the structure-of-arrays column layout. Emits
//! `BENCH_shard_scaling.json`.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin shard_scaling
//! cargo run -p knmatch-bench --release --bin shard_scaling -- \
//!     --cardinality 100000 --dims 30 -k 10 -n 2 --queries 64 \
//!     --out BENCH_shard_scaling.json
//! ```
//!
//! Two experiments over the identical query workload:
//!
//! 1. **SoA vs AoS at one shard** — the shipped [`SortedColumns`]
//!    (separate value/pid arrays) against a bench-local array-of-structs
//!    source holding `Vec<SortedEntry>` per dimension. Answers and
//!    `AdStats` are asserted bit-identical before any number is reported;
//!    the SoA layout must not regress single-shard latency.
//! 2. **Shard scaling** — single-query latency through the engine
//!    [`EngineConfig`] builds for [`Backend::Sharded`] at 1, 2, and 4
//!    shards (a `VersionedIndex` with that many initial runs), answers
//!    asserted bit-identical to the unsharded engine.
//!
//! Wall-clock timing only (`std::time::Instant`), no external bench
//! framework, so the workspace builds offline.

use std::fmt::Write as _;
use std::time::Instant;

use knmatch_bench::percentile;
use knmatch_core::{
    execute_batch_query, AdStats, BatchAnswer, BatchEngine, BatchOutcome, BatchQuery, Scratch,
    SortedAccessSource, SortedColumns, SortedEntry,
};
use knmatch_data::rng::seeded;
use knmatch_server::{Backend, EngineConfig};

struct Config {
    cardinality: usize,
    dims: usize,
    k: usize,
    n: usize,
    queries: usize,
    seed: u64,
    workers: usize,
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
                "usage: shard_scaling [--cardinality C] [--dims D] [-k K] [-n N] \
                 [--queries Q] [--seed S] [--workers W] [--out FILE]"
            );
            std::process::exit(0);
        }
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Config {
            cardinality: num("--cardinality", 100_000),
            dims: num("--dims", 30),
            k: num("-k", 10),
            n: num("-n", 2),
            queries: num("--queries", 64),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            workers: num("--workers", cpus),
            out: get("--out").unwrap_or_else(|| "BENCH_shard_scaling.json".into()),
        }
    }
}

/// The layout the SoA refactor replaced: one `Vec<SortedEntry>` per
/// dimension, values and pids interleaved in memory. Built from the
/// shipped columns so both layouts hold byte-identical orders.
struct AosColumns {
    cardinality: usize,
    cols: Vec<Vec<SortedEntry>>,
}

impl AosColumns {
    fn from_soa(cols: &SortedColumns) -> AosColumns {
        AosColumns {
            cardinality: cols.cardinality(),
            cols: (0..cols.dims()).map(|d| cols.column(d).to_vec()).collect(),
        }
    }
}

impl SortedAccessSource for AosColumns {
    fn dims(&self) -> usize {
        self.cols.len()
    }
    fn cardinality(&self) -> usize {
        self.cardinality
    }
    fn locate(&mut self, dim: usize, q: f64) -> usize {
        self.cols[dim].partition_point(|e| e.value < q)
    }
    fn entry(&mut self, dim: usize, rank: usize) -> SortedEntry {
        self.cols[dim][rank]
    }
}

fn mean(latencies: &[f64]) -> f64 {
    latencies.iter().sum::<f64>() / latencies.len() as f64
}

/// Runs every query once through `src`, returning per-query latencies in
/// microseconds plus the answers for the bit-identity assertions.
fn run_source<S: SortedAccessSource>(
    src: &mut S,
    batch: &[BatchQuery],
) -> (Vec<f64>, Vec<(BatchAnswer, AdStats)>) {
    let mut scratch = Scratch::new();
    let mut latencies = Vec::with_capacity(batch.len());
    let mut out = Vec::with_capacity(batch.len());
    for q in batch {
        let t = Instant::now();
        let r = execute_batch_query(src, q, &mut scratch).expect("valid workload");
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        out.push(r);
    }
    (latencies, out)
}

fn main() {
    let cfg = Config::parse();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "shard_scaling: c={} d={} k={} n={} queries={} seed={} workers={} ({cpus} cpu(s))",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.seed, cfg.workers
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

    // --- Experiment 1: SoA vs AoS, one shard, sequential. ---------------
    // Alternating passes with a per-query minimum: the min filters
    // scheduler noise and the interleave removes run-order bias (frequency
    // ramp-up, allocator warmth) that a single A-then-B run bakes in.
    let mut soa = SortedColumns::build(&ds);
    let mut aos = AosColumns::from_soa(&soa);
    let _ = run_source(&mut soa, &batch[..batch.len().min(8)]);
    let _ = run_source(&mut aos, &batch[..batch.len().min(8)]);
    let mut soa_lat = vec![f64::INFINITY; batch.len()];
    let mut aos_lat = vec![f64::INFINITY; batch.len()];
    let mut soa_out = Vec::new();
    for pass in 0..3 {
        let (lat, out) = run_source(&mut soa, &batch);
        for (best, l) in soa_lat.iter_mut().zip(&lat) {
            *best = best.min(*l);
        }
        let (lat, aos_out) = run_source(&mut aos, &batch);
        for (best, l) in aos_lat.iter_mut().zip(&lat) {
            *best = best.min(*l);
        }
        assert_eq!(
            out, aos_out,
            "SoA and AoS layouts must answer identically (answers and stats)"
        );
        if pass == 0 {
            soa_out = out;
        }
    }
    let soa_mean = mean(&soa_lat);
    let aos_mean = mean(&aos_lat);

    // --- Experiment 2: shard scaling through the run-list engine. -------
    let mut shard_rows = Vec::new();
    let mut one_shard_mean = 0.0;
    for shards in [1usize, 2, 4] {
        let engine = EngineConfig::builder()
            .workers(cfg.workers)
            .backend(Backend::Sharded(shards))
            .build()
            .expect("shards alone never conflict")
            .build_in_memory(&ds);
        assert_eq!(engine.run_count(), Some(shards));
        // Warm-up: spin the pool once.
        let _ = engine.run(&batch[..batch.len().min(8)]);
        let mut latencies = Vec::with_capacity(batch.len());
        for (q, want) in batch.iter().zip(&soa_out) {
            let t = Instant::now();
            let outcome = engine
                .run(std::slice::from_ref(q))
                .pop()
                .expect("one result per query")
                .expect("valid workload");
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                outcome.answer(),
                &want.0,
                "sharded answer diverged at shards={shards}"
            );
        }
        let m = mean(&latencies);
        if shards == 1 {
            one_shard_mean = m;
        }
        shard_rows.push((shards, m, percentile(&latencies, 0.50), one_shard_mean / m));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"dims\": {}, \"k\": {}, \"n\": {}, \
         \"queries\": {}, \"seed\": {}, \"workers\": {}, \"cpus\": {cpus}}},",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.seed, cfg.workers
    );
    let _ = writeln!(
        json,
        "  \"layout_shards1\": {{\"soa_mean_us\": {soa_mean:.1}, \
         \"soa_p50_us\": {:.1}, \"aos_mean_us\": {aos_mean:.1}, \
         \"aos_p50_us\": {:.1}, \"soa_speedup_vs_aos\": {:.3}}},",
        percentile(&soa_lat, 0.50),
        percentile(&aos_lat, 0.50),
        aos_mean / soa_mean
    );
    let _ = writeln!(json, "  \"shards\": [");
    for (i, (shards, m, p50, speedup)) in shard_rows.iter().enumerate() {
        let comma = if i + 1 < shard_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"shards\": {shards}, \"mean_us\": {m:.1}, \"p50_us\": {p50:.1}, \
             \"speedup_vs_1shard\": {speedup:.3}}}{comma}"
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
}
