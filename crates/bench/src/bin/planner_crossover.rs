//! Figure 12 crossover benchmark for the per-query planner and the
//! unrolled filter kernel. Emits `BENCH_planner.json`.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin planner_crossover
//! cargo run -p knmatch-bench --release --bin planner_crossover -- \
//!     --cardinality 20000 --queries 48 --out BENCH_planner.json
//! ```
//!
//! Two sections:
//!
//! 1. **Kernels** — throughput of [`knmatch_core::kernels::accumulate_band_hits`]
//!    against its `_scalar` twin (the loop it replaced). The acceptance
//!    bar is the band filter kernel at ≥ 1.3× scalar.
//! 2. **Crossover** — qps of the [`PlannedEngine`] under forced
//!    `ad` / `vafile` / `scan` and under `auto`, swept over
//!    dimensionality × n-level (n = 1, d/2, d — the extremes where the
//!    paper's Figure 12 crossover flips backends). `auto` must never be
//!    slower than the worst forced backend and must land within 10% of
//!    the best; the emitted JSON records both checks per cell.
//!
//! Every mode answers the identical workload and the run asserts the
//! answers agree bit-for-bit with the forced scan before reporting
//! numbers. Std-only wall-clock timing, same as the other benches.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use knmatch_core::kernels::{accumulate_band_hits, accumulate_band_hits_scalar};
use knmatch_core::{BatchAnswer, BatchEngine, BatchOptions, BatchQuery, PlanTally, PlannerMode};
use knmatch_data::rng::seeded;
use knmatch_server::PlannedEngine;

struct Config {
    cardinality: usize,
    queries: usize,
    k: usize,
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
                "usage: planner_crossover [--cardinality C] [--queries Q] [-k K] \
                 [--seed S] [--out FILE]"
            );
            std::process::exit(0);
        }
        Config {
            cardinality: num("--cardinality", 20_000),
            queries: num("--queries", 48),
            k: num("-k", 10),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            out: get("--out").unwrap_or_else(|| "BENCH_planner.json".into()),
        }
    }
}

/// Best-of-`reps` wall time of `body` (the usual defence against a noisy
/// shared host), as elements-per-second over `work` elements.
fn throughput(reps: usize, work: u64, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        body();
        best = best.min(t.elapsed().as_secs_f64());
    }
    work as f64 / best
}

struct KernelRow {
    name: &'static str,
    kernel_meps: f64,
    scalar_meps: f64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.kernel_meps / self.scalar_meps
    }
}

/// Section 1: the unrolled kernel against the scalar loop it replaced.
fn bench_kernels(seed: u64) -> Vec<KernelRow> {
    let mut rng = seeded(seed ^ 0x6b65_726e);

    // Band filter: one dim-major column of quantised cells, the exact shape
    // the VA-file filter streams. Random cells keep the scalar loop's
    // branches honest.
    let cells: Vec<u8> = (0..65_536).map(|_| rng.range_usize(0..256) as u8).collect();
    let bands: Vec<(u8, u8)> = (0..64)
        .map(|_| {
            let lo = rng.range_usize(0..200) as u8;
            (lo, lo + rng.range_usize(5..56) as u8)
        })
        .collect();
    let iters = 40u64;
    let work = iters * bands.len() as u64 * cells.len() as u64;
    let mut counts = vec![0u16; cells.len()];
    let kernel_meps = throughput(3, work, || {
        for _ in 0..iters {
            counts.iter_mut().for_each(|c| *c = 0);
            for &(lo, hi) in &bands {
                accumulate_band_hits(&mut counts, &cells, lo, hi);
            }
            black_box(&counts);
        }
    }) / 1e6;
    let scalar_meps = throughput(3, work, || {
        for _ in 0..iters {
            counts.iter_mut().for_each(|c| *c = 0);
            for &(lo, hi) in &bands {
                accumulate_band_hits_scalar(&mut counts, &cells, lo, hi);
            }
            black_box(&counts);
        }
    }) / 1e6;
    vec![KernelRow {
        name: "band_filter",
        kernel_meps,
        scalar_meps,
    }]
}

struct Cell {
    dims: usize,
    n: usize,
    /// (mode name, qps) for ad / vafile / scan / auto, in that order.
    modes: Vec<(&'static str, f64)>,
    auto_routes: PlanTally,
}

impl Cell {
    fn qps(&self, name: &str) -> f64 {
        self.modes
            .iter()
            .find(|(m, _)| *m == name)
            .map(|(_, q)| *q)
            .expect("mode present")
    }

    fn best_forced(&self) -> f64 {
        self.modes
            .iter()
            .filter(|(m, _)| *m != "auto")
            .map(|(_, q)| *q)
            .fold(0.0, f64::max)
    }

    fn worst_forced(&self) -> f64 {
        self.modes
            .iter()
            .filter(|(m, _)| *m != "auto")
            .map(|(_, q)| *q)
            .fold(f64::INFINITY, f64::min)
    }
}

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
                .wrapping_add(u64::from(*pid) ^ ((rank as u64) << 32));
        }
    }
    sum
}

/// Runs `batch` under `mode`, asserting the answers match `want` (when
/// given) and returning the best-of-2 qps.
fn run_mode(
    engine: &PlannedEngine,
    batch: &[BatchQuery],
    mode: PlannerMode,
    want: Option<u64>,
) -> (f64, u64) {
    let opts = BatchOptions {
        planner: Some(mode),
        ..BatchOptions::default()
    };
    let mut best = f64::INFINITY;
    let mut dig = 0;
    for _ in 0..2 {
        let t = Instant::now();
        let results = engine.run_with(batch, &opts);
        best = best.min(t.elapsed().as_secs_f64());
        let answers: Vec<BatchAnswer> = results
            .into_iter()
            .map(|r| r.expect("valid workload").0)
            .collect();
        dig = digest(&answers);
        if let Some(want) = want {
            assert_eq!(dig, want, "{mode}: answers diverged from forced scan");
        }
    }
    (batch.len() as f64 / best, dig)
}

/// Section 2: the planner crossover sweep.
fn bench_crossover(cfg: &Config) -> Vec<Cell> {
    let mut cells = Vec::new();
    for dims in [4usize, 8, 16] {
        let ds = knmatch_data::uniform(cfg.cardinality, dims, cfg.seed);
        let engine = PlannedEngine::with_workers(&ds, 1, PlannerMode::Auto);
        let mut rng = seeded(cfg.seed ^ (dims as u64) << 8);
        for n in [1usize, dims / 2, dims] {
            let batch: Vec<BatchQuery> = (0..cfg.queries)
                .map(|_| {
                    let pid = rng.range_usize(0..ds.len()) as u32;
                    let query = ds
                        .point(pid)
                        .iter()
                        .map(|&v| (v + rng.range_f64(-0.01, 0.01)).clamp(0.0, 1.0))
                        .collect();
                    BatchQuery::KnMatch { query, k: cfg.k, n }
                })
                .collect();

            // Warm-up, and the reference digest every mode must reproduce.
            let (_, want) = run_mode(&engine, &batch, PlannerMode::Scan, None);

            let mut modes = Vec::new();
            for (name, mode) in [
                ("ad", PlannerMode::Ad),
                ("vafile", PlannerMode::VaFile),
                ("scan", PlannerMode::Scan),
            ] {
                let (qps, _) = run_mode(&engine, &batch, mode, Some(want));
                modes.push((name, qps));
            }
            let before = engine.plan_counts().expect("planned engine tallies");
            let (auto_qps, _) = run_mode(&engine, &batch, PlannerMode::Auto, Some(want));
            let after = engine.plan_counts().expect("planned engine tallies");
            modes.push(("auto", auto_qps));
            let auto_routes = PlanTally {
                ad: after.ad - before.ad,
                vafile: after.vafile - before.vafile,
                scan: after.scan - before.scan,
                igrid: after.igrid - before.igrid,
            };
            let probe = engine.plan_for(&batch[0]).expect("valid workload");
            eprintln!(
                "    model costs q0: ad {:.0} vafile {:.0} scan {:.0} -> {:?}",
                probe.ad_cost, probe.vafile_cost, probe.scan_cost, probe.backend
            );
            eprintln!(
                "d={dims} n={n}: ad {:.0} qps, vafile {:.0}, scan {:.0}, auto {:.0} \
                 (routes {} ad / {} vafile / {} scan)",
                modes[0].1,
                modes[1].1,
                modes[2].1,
                auto_qps,
                auto_routes.ad / 2,
                auto_routes.vafile / 2,
                auto_routes.scan / 2,
            );
            cells.push(Cell {
                dims,
                n,
                modes,
                auto_routes,
            });
        }
    }
    cells
}

fn main() {
    let cfg = Config::parse();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "planner_crossover: c={} queries={} k={} seed={} ({cpus} cpu(s))",
        cfg.cardinality, cfg.queries, cfg.k, cfg.seed
    );

    let kernels = bench_kernels(cfg.seed);
    for k in &kernels {
        eprintln!(
            "kernel {}: {:.1} Melem/s vs scalar {:.1} Melem/s ({:.2}x)",
            k.name,
            k.kernel_meps,
            k.scalar_meps,
            k.speedup()
        );
    }

    let cells = bench_crossover(&cfg);

    let filter_speedup = kernels
        .iter()
        .find(|k| k.name == "band_filter")
        .expect("band filter row")
        .speedup();
    let auto_never_below_worst = cells.iter().all(|c| c.qps("auto") >= c.worst_forced());

    // Sweep-level totals: the planner's claim is about the whole n × d
    // grid — no single backend is good everywhere, `auto` must be. (Per
    // cell the ratios above tell the fine-grained story; at n = 1 the
    // µs-scale AD queries make the planning probe itself the dominant
    // cost, which the sweep totals price honestly.)
    let sweep_time =
        |name: &str| -> f64 { cells.iter().map(|c| cfg.queries as f64 / c.qps(name)).sum() };
    let (ad_s, vafile_s, scan_s, auto_s) = (
        sweep_time("ad"),
        sweep_time("vafile"),
        sweep_time("scan"),
        sweep_time("auto"),
    );
    let best_single_s = ad_s.min(vafile_s).min(scan_s);
    let worst_single_s = ad_s.max(vafile_s).max(scan_s);
    let auto_sweep_within_10pct_of_best = auto_s <= 1.1 * best_single_s;
    let auto_sweep_never_below_worst = auto_s <= worst_single_s;
    eprintln!(
        "sweep totals: ad {ad_s:.3}s, vafile {vafile_s:.3}s, scan {scan_s:.3}s, \
         auto {auto_s:.3}s ({:.2}x best single backend)",
        best_single_s / auto_s
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"queries\": {}, \"k\": {}, \"seed\": {}, \
         \"cpus\": {cpus}}},",
        cfg.cardinality, cfg.queries, cfg.k, cfg.seed
    );
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"kernel_melems_per_s\": {:.1}, \
             \"scalar_melems_per_s\": {:.1}, \"speedup\": {:.2}}}{comma}",
            k.name,
            k.kernel_meps,
            k.scalar_meps,
            k.speedup()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"crossover\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"dims\": {}, \"n\": {}, \"ad_qps\": {:.1}, \"vafile_qps\": {:.1}, \
             \"scan_qps\": {:.1}, \"auto_qps\": {:.1}, \
             \"auto_routes\": {{\"ad\": {}, \"vafile\": {}, \"scan\": {}}}, \
             \"auto_vs_best\": {:.3}, \"auto_vs_worst\": {:.3}}}{comma}",
            c.dims,
            c.n,
            c.qps("ad"),
            c.qps("vafile"),
            c.qps("scan"),
            c.qps("auto"),
            c.auto_routes.ad / 2,
            c.auto_routes.vafile / 2,
            c.auto_routes.scan / 2,
            c.qps("auto") / c.best_forced(),
            c.qps("auto") / c.worst_forced(),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"sweep_totals_s\": {{\"ad\": {ad_s:.4}, \"vafile\": {vafile_s:.4}, \
         \"scan\": {scan_s:.4}, \"auto\": {auto_s:.4}}},"
    );
    let _ = writeln!(json, "  \"filter_kernel_speedup\": {filter_speedup:.2},");
    let _ = writeln!(
        json,
        "  \"auto_sweep_speedup_vs_best_single\": {:.2},",
        best_single_s / auto_s
    );
    let _ = writeln!(
        json,
        "  \"auto_sweep_within_10pct_of_best\": {auto_sweep_within_10pct_of_best},"
    );
    let _ = writeln!(
        json,
        "  \"auto_sweep_never_below_worst\": {auto_sweep_never_below_worst},"
    );
    let _ = writeln!(
        json,
        "  \"auto_never_below_worst_per_cell\": {auto_never_below_worst}"
    );
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
}
