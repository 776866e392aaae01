//! Std-only run-count scaling benchmark for the run-list engine
//! ([`VersionedIndex`]) and the structure-of-arrays column layout. Emits
//! `BENCH_shard_scaling.json`.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin shard_scaling
//! cargo run -p knmatch-bench --release --bin shard_scaling -- \
//!     --cardinality 100000 --dims 30 -k 10 -n 2 --queries 64 \
//!     --out BENCH_shard_scaling.json
//! cargo run -p knmatch-bench --release --bin shard_scaling -- --smoke
//! ```
//!
//! Two experiments over the identical query workload:
//!
//! 1. **SoA vs AoS at one shard** — the shipped [`SortedColumns`]
//!    (separate value/pid arrays) against a bench-local array-of-structs
//!    source holding `Vec<SortedEntry>` per dimension. Answers and
//!    `AdStats` are asserted bit-identical before any number is reported;
//!    the SoA layout must not regress single-shard latency.
//! 2. **Run-count scaling** — single-query latency through the run-list
//!    engine built by [`VersionedIndex::from_dataset`] with 1, 2, and 4
//!    initial runs over
//!    `PASSES` alternating passes: per row the min / median / max of the
//!    per-pass mean beside the pruning work (`attributes_retrieved`,
//!    `heap_pops` per query). Answers are asserted bit-identical to the
//!    one-run engine and `heap_pops` equal across run counts — the gate
//!    `--smoke` (c = 20 000, one pass) runs in release mode.
//!
//! Wall-clock timing only (`std::time::Instant`), no external bench
//! framework, so the workspace builds offline.

use std::fmt::Write as _;
use std::time::Instant;

use knmatch_bench::{git_rev, percentile};
use knmatch_core::{
    execute_batch_query, AdStats, BatchAnswer, BatchEngine, BatchOutcome, BatchQuery, Scratch,
    SortedAccessSource, SortedColumns, SortedEntry, VersionedIndex, DEFAULT_MERGE_THRESHOLD,
};
use knmatch_data::rng::seeded;

struct Config {
    cardinality: usize,
    dims: usize,
    k: usize,
    n: usize,
    queries: usize,
    seed: u64,
    workers: usize,
    passes: usize,
    out: String,
}

/// Alternating passes over the run counts in a full run.
const PASSES: usize = 5;

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
                 [--queries Q] [--seed S] [--workers W] [--smoke] [--out FILE]"
            );
            std::process::exit(0);
        }
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let smoke = args.iter().any(|a| a == "--smoke");
        Config {
            cardinality: num("--cardinality", if smoke { 20_000 } else { 100_000 }),
            dims: num("--dims", 30),
            k: num("-k", 10),
            n: num("-n", 2),
            queries: num("--queries", if smoke { 16 } else { 64 }),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            workers: num("--workers", cpus),
            passes: if smoke { 1 } else { PASSES },
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

    // --- Experiment 2: run-count scaling through the run-list engine. ---
    const SHARDS: [usize; 3] = [1, 2, 4];
    let engines = SHARDS.map(|shards| {
        let engine =
            VersionedIndex::from_dataset(&ds, shards, cfg.workers, DEFAULT_MERGE_THRESHOLD)
                .expect("the workload has at least one dimension");
        assert_eq!(engine.snapshot().run_count(), shards);
        engine
    });
    // Per run count: the mean latency of each pass, and the per-query
    // AdStats (a function of the data: taken on the first pass).
    let mut pass_means: [Vec<f64>; 3] = Default::default();
    let mut work: [Vec<AdStats>; 3] = Default::default();
    for pass in 0..cfg.passes {
        for (si, engine) in engines.iter().enumerate() {
            let mut total_us = 0.0;
            for (q, want) in batch.iter().zip(&soa_out) {
                let t = Instant::now();
                let outcome = engine
                    .run(std::slice::from_ref(q))
                    .pop()
                    .expect("one result per query")
                    .expect("valid workload");
                total_us += t.elapsed().as_secs_f64() * 1e6;
                assert_eq!(
                    outcome.answer(),
                    &want.0,
                    "answer diverged at shards={}",
                    SHARDS[si]
                );
                if pass == 0 {
                    work[si].push(outcome.ad_stats());
                }
            }
            pass_means[si].push(total_us / batch.len() as f64);
        }
    }
    assert_eq!(work[0], soa_out.iter().map(|o| o.1).collect::<Vec<_>>());
    for (stats, shards) in work.iter().zip(SHARDS) {
        let same = |(a, b): (&AdStats, &AdStats)| a.heap_pops == b.heap_pops;
        assert!(
            stats.iter().zip(&work[0]).all(same),
            "the global stop must pop the same attributes at shards={shards}"
        );
    }
    let one_shard_mean = percentile(&pass_means[0], 0.50);

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"dims\": {}, \"k\": {}, \"n\": {}, \
         \"queries\": {}, \"seed\": {}, \"workers\": {}, \"passes\": {}, \"cpus\": {cpus}, \
         \"rev\": \"{}\"}},",
        cfg.cardinality,
        cfg.dims,
        cfg.k,
        cfg.n,
        cfg.queries,
        cfg.seed,
        cfg.workers,
        cfg.passes,
        git_rev()
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
    for (si, shards) in SHARDS.iter().enumerate() {
        let comma = if si + 1 < SHARDS.len() { "," } else { "" };
        let median = percentile(&pass_means[si], 0.50);
        let per_query = |f: fn(&AdStats) -> u64| {
            work[si].iter().map(f).sum::<u64>() as f64 / work[si].len() as f64
        };
        let _ = writeln!(
            json,
            "    {{\"shards\": {shards}, \"mean_us\": {{\"min\": {:.1}, \"median\": {median:.1}, \
             \"max\": {:.1}}}, \"speedup_vs_1shard\": {:.3}, \"attrs_per_query\": {:.1}, \
             \"pops_per_query\": {:.1}}}{comma}",
            percentile(&pass_means[si], 0.0),
            percentile(&pass_means[si], 1.0),
            one_shard_mean / median,
            per_query(|s| s.attributes_retrieved),
            per_query(|s| s.heap_pops),
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
}
