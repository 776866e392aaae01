//! Figure 12 crossover benchmark for the per-query planner, the filter and
//! refine kernels, and the source of the planner's cost constants. Emits
//! `BENCH_planner.json`.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin planner_crossover
//! cargo run -p knmatch-bench --release --bin planner_crossover -- \
//!     --cardinality 20000 --queries 48 --out BENCH_planner.json
//! cargo run -p knmatch-bench --release --bin planner_crossover -- --smoke
//! ```
//!
//! Three sections:
//!
//! 1. **Kernels** — per-element cost of
//!    [`knmatch_core::kernels::accumulate_band_hits`] against its `_scalar`
//!    twin (the loop it replaced), and of the refine loop at d = 16:
//!    count-then-select ([`count_within`] before [`nth_smallest`], what
//!    every scan and filter refine runs) against selecting on every point.
//! 2. **Crossover** — per-query µs of the [`PlannedEngine`] under forced
//!    `ad` / `vafile` / `scan` and under `auto`, over dimensionality ×
//!    n-level (n = 1, d/2, d) × query kind: k-n-match at n, frequent
//!    k-n-match over `[⌈n/2⌉, n]`, and ε-n-match at n with ε the query's
//!    own k-th n-match difference (an answer of about k points). Each pass
//!    runs every query once under every mode, the mode order rotating per
//!    pass; a cell reports the min / median / max of its per-pass means.
//!    Every answer is asserted equal to the naive oracle first.
//! 3. **Fitted model** — the [`MemCostModel`] constants, each a relative
//!    least-squares fit of the per-query best-of-passes time against the
//!    work that backend reported for the query (AD: attributes retrieved;
//!    VA-file: `c·d` cells plus the attributes refined; scan: the
//!    attributes the VA-file refined for that query at the refine
//!    constant, the rest of `c·d` at the scan's), so a constant is the
//!    price of a unit of work, not of an estimate.
//!    `MemCostModel::default()` carries these numbers (`auto` above runs
//!    with the default); how well the planner *estimates* the work is
//!    reported beside each cell as `ad_attrs_est_over_actual`, the median
//!    of the AD attributes [`PlannedEngine::plan_for`] priced over the
//!    real ones, and the VA backend's points refined per query as
//!    `va_refined_per_query` (a count, the same on every run).
//!
//! Gates: `auto` is never below the worst forced backend in any cell, and
//! is ≥ 0.85× the best one in every n > 1 cell whose best takes at least
//! 0.1 ms per query (the n = 1 cells are µs-scale AD queries where planning
//! itself is the cost; they are reported, not gated). A full run exits 1
//! when either fails, after writing the JSON. `--smoke` (c = 2 000,
//! 4 queries, one pass, too small for timing gates) checks every answer
//! against the oracle, which it asserts in every run.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use knmatch_bench::{git_rev, percentile};
use knmatch_core::kernels::{
    abs_diffs, accumulate_band_hits, accumulate_band_hits_scalar, count_within, nth_smallest,
};
use knmatch_core::naive::{frequent_k_n_match_scan, k_n_match_scan};
use knmatch_core::topk::TopK;
use knmatch_core::{
    BatchAnswer, BatchEngine, BatchOptions, BatchQuery, Dataset, KnMatchResult, PlannerMode,
};
use knmatch_data::rng::seeded;
use knmatch_server::PlannedEngine;
use knmatch_storage::{BackendChoice, MemCostModel};

/// Passes over the grid in a full run (`--smoke` runs one).
const PASSES: usize = 5;

struct Config {
    cardinality: usize,
    queries: usize,
    k: usize,
    seed: u64,
    passes: usize,
    smoke: bool,
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
                 [--seed S] [--smoke] [--out FILE]"
            );
            std::process::exit(0);
        }
        let smoke = args.iter().any(|a| a == "--smoke");
        Config {
            cardinality: num("--cardinality", if smoke { 2_000 } else { 20_000 }),
            queries: num("--queries", if smoke { 4 } else { 48 }),
            k: num("-k", 10),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            passes: if smoke { 1 } else { PASSES },
            smoke,
            out: get("--out").unwrap_or_else(|| "BENCH_planner.json".into()),
        }
    }
}

/// Best-of-`reps` wall time of `body`, in ns per element over `work`
/// elements (the usual defence against a noisy shared host).
fn ns_per_elem(reps: usize, work: u64, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        body();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e9 / work as f64
}

struct KernelRow {
    name: &'static str,
    unit: &'static str,
    kernel_ns: f64,
    baseline_ns: f64,
}

/// Section 1: each kernel against the loop it replaced.
fn bench_kernels(seed: u64, smoke: bool) -> Vec<KernelRow> {
    let mut rng = seeded(seed ^ 0x6b65_726e);
    let reps = if smoke { 1 } else { 3 };

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
    let iters = if smoke { 2u64 } else { 40 };
    let work = iters * bands.len() as u64 * cells.len() as u64;
    let mut counts = vec![0u16; cells.len()];
    let mut band_pass = |kernel: fn(&mut [u16], &[u8], u8, u8)| {
        ns_per_elem(reps, work, || {
            for _ in 0..iters {
                counts.iter_mut().for_each(|c| *c = 0);
                for &(lo, hi) in &bands {
                    kernel(&mut counts, &cells, lo, hi);
                }
                black_box(&counts);
            }
        })
    };
    let band_kernel = band_pass(accumulate_band_hits);
    let band_scalar = band_pass(accumulate_band_hits_scalar);

    // Refine: the k-n-match loop every scan and filter refine runs, over
    // rows shaped like a served dataset's (d = 16, k = 10, n = d/2), with
    // and without the counting test in front of the selection.
    const D: usize = 16;
    let rows = if smoke { 4_096 } else { 65_536 };
    let data: Vec<f64> = (0..rows * D).map(|_| rng.next_f64()).collect();
    let query: Vec<f64> = (0..D).map(|_| rng.next_f64()).collect();
    let (k, n) = (10, D / 2);
    let mut diffs = vec![0.0f64; D];
    let mut refine_pass = |count_first: bool| {
        ns_per_elem(reps, rows as u64, || {
            let mut top = TopK::new(k);
            let mut bound = f64::INFINITY;
            for (pid, row) in data.chunks_exact(D).enumerate() {
                abs_diffs(&mut diffs, row, &query);
                if !count_first || count_within(&diffs, bound) >= n {
                    top.offer(pid as u32, nth_smallest(&mut diffs, n));
                    bound = top.threshold().unwrap_or(f64::INFINITY);
                }
            }
            black_box(top.into_sorted());
        })
    };
    let refine_count = refine_pass(true);
    let refine_every = refine_pass(false);

    vec![
        KernelRow {
            name: "band_filter",
            unit: "ns/cell",
            kernel_ns: band_kernel,
            baseline_ns: band_scalar,
        },
        KernelRow {
            name: "refine_d16",
            unit: "ns/point",
            kernel_ns: refine_count,
            baseline_ns: refine_every,
        },
    ]
}

/// The forced backends, in `BackendChoice` order, then `auto`.
const MODES: [(&str, PlannerMode); 4] = [
    ("ad", PlannerMode::Ad),
    ("vafile", PlannerMode::VaFile),
    ("scan", PlannerMode::Scan),
    ("auto", PlannerMode::Auto),
];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Knm,
    Freq,
    Eps,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Knm => "knm",
            Kind::Freq => "freq",
            Kind::Eps => "eps",
        }
    }
}

struct Cell {
    dims: usize,
    kind: Kind,
    n0: usize,
    n1: usize,
    /// Per mode (`MODES` order), the mean µs per query of every pass.
    pass_us: [Vec<f64>; 4],
    auto_routes: [usize; 3],
    /// Median over the cell's queries of the planner's AD attribute
    /// estimate (at `ε_q`) over the attributes AD then retrieved.
    ad_est_over_actual: f64,
    /// Mean points the VA backend refined per query (deterministic: its
    /// filter and refine depend only on the data and the query).
    va_refined: f64,
}

impl Cell {
    fn median_us(&self, mode: usize) -> f64 {
        percentile(&self.pass_us[mode], 0.5)
    }

    fn best_forced_us(&self) -> f64 {
        (0..3)
            .map(|m| self.median_us(m))
            .fold(f64::INFINITY, f64::min)
    }

    fn worst_forced_us(&self) -> f64 {
        (0..3).map(|m| self.median_us(m)).fold(0.0, f64::max)
    }

    /// Whether the 0.85×-of-best gate applies: n > 1 and a best backend
    /// slow enough (≥ 0.1 ms) that planning is not the query's cost.
    fn gated(&self) -> bool {
        self.n1 > 1 && self.best_forced_us() >= 100.0
    }

    /// `auto`'s speed relative to `us` (higher is better for `auto`).
    fn auto_vs(&self, us: f64) -> f64 {
        us / self.median_us(3)
    }
}

/// One query's fitting record: the work each forced backend reported and
/// its best-of-passes µs under each.
struct Sample {
    /// Points × dimensions of the dataset the query ran over.
    attrs: f64,
    /// `AdStats::attributes_retrieved` under `ad`, `vafile`, `scan`.
    work: [u64; 3],
    best_us: [f64; 3],
}

fn oracle(ds: &Dataset, q: &BatchQuery) -> BatchAnswer {
    match q {
        BatchQuery::KnMatch { query, k, n } => {
            BatchAnswer::KnMatch(k_n_match_scan(ds, query, *k, *n).expect("valid workload"))
        }
        BatchQuery::Frequent { query, k, n0, n1 } => BatchAnswer::Frequent(
            frequent_k_n_match_scan(ds, query, *k, *n0, *n1).expect("valid workload"),
        ),
        BatchQuery::EpsMatch { query, eps, n } => {
            let all = k_n_match_scan(ds, query, ds.len(), *n).expect("valid workload");
            BatchAnswer::EpsMatch(KnMatchResult {
                n: *n,
                entries: all.entries.into_iter().filter(|e| e.diff <= *eps).collect(),
            })
        }
    }
}

/// Section 2: the crossover grid, timed query by query.
fn bench_crossover(cfg: &Config, samples: &mut Vec<Sample>) -> Vec<Cell> {
    let mut cells = Vec::new();
    for dims in [4usize, 8, 16] {
        let ds = knmatch_data::uniform(cfg.cardinality, dims, cfg.seed);
        let engine = PlannedEngine::with_workers(&ds, 1, PlannerMode::Auto);
        let mut rng = seeded(cfg.seed ^ (dims as u64) << 8);
        for n in [1usize, dims / 2, dims] {
            let points: Vec<Vec<f64>> = (0..cfg.queries)
                .map(|_| {
                    let pid = rng.range_usize(0..ds.len()) as u32;
                    ds.point(pid)
                        .iter()
                        .map(|&v| (v + rng.range_f64(-0.01, 0.01)).clamp(0.0, 1.0))
                        .collect()
                })
                .collect();
            for kind in [Kind::Knm, Kind::Freq, Kind::Eps] {
                let k = cfg.k;
                let batch: Vec<BatchQuery> = points
                    .iter()
                    .map(|p| {
                        let query = p.clone();
                        match kind {
                            Kind::Knm => BatchQuery::KnMatch { query, k, n },
                            Kind::Freq => BatchQuery::Frequent {
                                query,
                                k,
                                n0: n.div_ceil(2),
                                n1: n,
                            },
                            Kind::Eps => {
                                let eps = k_n_match_scan(&ds, p, k, n)
                                    .expect("valid workload")
                                    .epsilon();
                                BatchQuery::EpsMatch { query, eps, n }
                            }
                        }
                    })
                    .collect();
                let cell = time_cell(cfg, &ds, &engine, &batch, dims, kind, n, samples);
                eprintln!(
                    "d={dims:2} {:4} n={:2}..{:2}: ad {:9.1} vafile {:8.1} scan {:8.1} \
                     auto {:8.1} us/query (routes {} ad / {} vafile / {} scan) auto/best {:.2} \
                     ad est/actual {:.2} va refined {:.0}",
                    kind.name(),
                    cell.n0,
                    cell.n1,
                    cell.median_us(0),
                    cell.median_us(1),
                    cell.median_us(2),
                    cell.median_us(3),
                    cell.auto_routes[0],
                    cell.auto_routes[1],
                    cell.auto_routes[2],
                    cell.auto_vs(cell.best_forced_us()),
                    cell.ad_est_over_actual,
                    cell.va_refined,
                );
                cells.push(cell);
            }
        }
    }
    cells
}

/// Times `batch` under every mode, query by query (a served request is
/// one query), asserting each answer against the oracle.
#[allow(clippy::too_many_arguments)]
fn time_cell(
    cfg: &Config,
    ds: &Dataset,
    engine: &PlannedEngine,
    batch: &[BatchQuery],
    dims: usize,
    kind: Kind,
    n: usize,
    samples: &mut Vec<Sample>,
) -> Cell {
    let want: Vec<BatchAnswer> = batch.iter().map(|q| oracle(ds, q)).collect();
    let opts = MODES.map(|(_, mode)| BatchOptions {
        planner: Some(mode),
        ..BatchOptions::default()
    });
    let mut best_us = vec![[f64::INFINITY; 3]; batch.len()];
    let mut work = vec![[0u64; 3]; batch.len()];
    let mut pass_us: [Vec<f64>; 4] = Default::default();
    for pass in 0..cfg.passes {
        let mut total_us = [0.0f64; 4];
        for (qi, q) in batch.iter().enumerate() {
            for step in 0..MODES.len() {
                let m = (step + pass) % MODES.len();
                let t = Instant::now();
                let out = engine
                    .run_with(std::slice::from_ref(q), &opts[m])
                    .pop()
                    .expect("one outcome per query");
                let us = t.elapsed().as_secs_f64() * 1e6;
                let (answer, stats) = out.expect("valid workload");
                assert_eq!(
                    answer,
                    want[qi],
                    "{} diverged from the oracle: d={dims} {} n={n} query #{qi}",
                    MODES[m].0,
                    kind.name()
                );
                total_us[m] += us;
                if m < 3 {
                    work[qi][m] = stats.attributes_retrieved;
                    best_us[qi][m] = best_us[qi][m].min(us);
                }
            }
        }
        for (m, total) in total_us.iter().enumerate() {
            pass_us[m].push(total / batch.len() as f64);
        }
    }
    let mut auto_routes = [0usize; 3];
    let mut est_ratios = Vec::with_capacity(batch.len());
    let ad_ns_per_attr = engine.cost_model().ad_ns_per_attr;
    let va_attrs: u64 = work.iter().map(|w| w[1]).sum();
    let va_refined = va_attrs as f64 / (dims * batch.len()) as f64;
    for ((q, &best_us), work) in batch.iter().zip(&best_us).zip(work) {
        let plan = engine.plan_for(q).expect("valid workload");
        auto_routes[plan.backend as usize] += 1;
        // The planner prices AD as its attribute estimate times one
        // constant, so the estimate is the cost over that constant.
        est_ratios.push(plan.ad_cost / ad_ns_per_attr / work[0].max(1) as f64);
        samples.push(Sample {
            attrs: (ds.len() * dims) as f64,
            work,
            best_us,
        });
    }
    let (n0, n1) = match kind {
        Kind::Freq => (n.div_ceil(2), n),
        _ => (n, n),
    };
    Cell {
        dims,
        kind,
        n0,
        n1,
        pass_us,
        auto_routes,
        ad_est_over_actual: percentile(&est_ratios, 0.5),
        va_refined,
    }
}

/// The `a ≥ 0` minimising `Σ ((a·x + b − t) / t)²` over rows `(x, b, t)`
/// with a known part `b` of each time — relative error, so a 5 µs query
/// weighs as much as a 5 ms one.
fn fit1(rows: impl Iterator<Item = (f64, f64, f64)>) -> f64 {
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, b, t) in rows {
        let x = x / t;
        sxy += x * (1.0 - b / t);
        sxx += x * x;
    }
    (sxy / sxx).max(0.0)
}

/// The `(a, b) ≥ 0` minimising `Σ ((a·x1 + b·x2 − t) / t)²`.
fn fit2(rows: &[(f64, f64, f64)]) -> (f64, f64) {
    let (mut s11, mut s12, mut s22, mut s1, mut s2) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x1, x2, t) in rows {
        let (u, v) = (x1 / t, x2 / t);
        s11 += u * u;
        s12 += u * v;
        s22 += v * v;
        s1 += u;
        s2 += v;
    }
    let det = s11 * s22 - s12 * s12;
    let (a, b) = ((s1 * s22 - s2 * s12) / det, (s2 * s11 - s1 * s12) / det);
    if a >= 0.0 && b >= 0.0 && det.is_finite() && det > 0.0 {
        (a, b)
    } else if a < 0.0 {
        (0.0, fit1(rows.iter().map(|&(_, x2, t)| (x2, 0.0, t))))
    } else {
        (fit1(rows.iter().map(|&(x1, _, t)| (x1, 0.0, t))), 0.0)
    }
}

/// Section 3: the four ns constants, each fitted against the work the
/// backend itself reported for every timed query. The scan's time is
/// split as the model prices it: the attributes the VA backend refined
/// for the same query at the refine constant, the rest at the scan's.
fn fit_model(samples: &[Sample]) -> MemCostModel {
    let ns = |us: f64| us * 1e3;
    let ad_ns_per_attr = fit1(
        samples
            .iter()
            .map(|s| (s.work[0] as f64, 0.0, ns(s.best_us[0]))),
    );
    let va_rows: Vec<(f64, f64, f64)> = samples
        .iter()
        .map(|s| (s.attrs, s.work[1] as f64, ns(s.best_us[1])))
        .collect();
    let (filter_ns_per_cell, refine_ns_per_attr) = fit2(&va_rows);
    let scan_ns_per_attr = fit1(samples.iter().map(|s| {
        let kept = s.work[1] as f64;
        (s.attrs - kept, kept * refine_ns_per_attr, ns(s.best_us[2]))
    }));
    MemCostModel {
        ad_ns_per_attr,
        scan_ns_per_attr,
        filter_ns_per_cell,
        refine_ns_per_attr,
    }
}

fn model_json(m: &MemCostModel) -> String {
    format!(
        "{{\"ad_ns_per_attr\": {:.3}, \"scan_ns_per_attr\": {:.3}, \
         \"filter_ns_per_cell\": {:.3}, \"refine_ns_per_attr\": {:.3}}}",
        m.ad_ns_per_attr, m.scan_ns_per_attr, m.filter_ns_per_cell, m.refine_ns_per_attr
    )
}

fn main() {
    let cfg = Config::parse();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "planner_crossover: c={} queries={} k={} seed={} passes={} ({cpus} cpu(s))",
        cfg.cardinality, cfg.queries, cfg.k, cfg.seed, cfg.passes
    );

    let kernels = bench_kernels(cfg.seed, cfg.smoke);
    for k in &kernels {
        eprintln!(
            "kernel {}: {:.3} {} vs {:.3} before ({:.2}x)",
            k.name,
            k.kernel_ns,
            k.unit,
            k.baseline_ns,
            k.baseline_ns / k.kernel_ns
        );
    }

    let mut samples = Vec::new();
    let cells = bench_crossover(&cfg, &mut samples);
    let fitted = fit_model(&samples);
    let default = MemCostModel::default();
    eprintln!("fitted model:  {}", model_json(&fitted));
    eprintln!("default model: {}", model_json(&default));

    let auto_never_below_worst = cells.iter().all(|c| c.median_us(3) <= c.worst_forced_us());
    let auto_near_best_where_gated = cells
        .iter()
        .filter(|c| c.gated())
        .all(|c| c.auto_vs(c.best_forced_us()) >= 0.85);
    // Sweep-level totals: no single backend is good everywhere, `auto`
    // must be.
    let sweep_s = |m: usize| -> f64 {
        cells
            .iter()
            .map(|c| c.median_us(m) * cfg.queries as f64 / 1e6)
            .sum()
    };
    let totals = [0, 1, 2, 3].map(sweep_s);
    let best_single_s = totals[..3].iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "sweep totals: ad {:.3}s, vafile {:.3}s, scan {:.3}s, auto {:.3}s \
         ({:.2}x best single backend); gates: never below worst {auto_never_below_worst}, \
         >= 0.85x best where gated {auto_near_best_where_gated}",
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        best_single_s / totals[3]
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"queries\": {}, \"k\": {}, \"seed\": {}, \
         \"passes\": {}, \"cpus\": {cpus}, \"rev\": \"{}\"}},",
        cfg.cardinality,
        cfg.queries,
        cfg.k,
        cfg.seed,
        cfg.passes,
        git_rev()
    );
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"kernel\": {:.3}, \
             \"replaced\": {:.3}, \"speedup\": {:.2}}}{comma}",
            k.name,
            k.unit,
            k.kernel_ns,
            k.baseline_ns,
            k.baseline_ns / k.kernel_ns
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"fitted_model\": {},", model_json(&fitted));
    let _ = writeln!(json, "  \"default_model\": {},", model_json(&default));
    let _ = writeln!(json, "  \"crossover\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let mut us = String::new();
        for (m, (name, _)) in MODES.iter().enumerate() {
            let sep = if m + 1 < MODES.len() { ", " } else { "" };
            let _ = write!(
                us,
                "\"{name}\": {{\"min\": {:.1}, \"median\": {:.1}, \"max\": {:.1}}}{sep}",
                percentile(&c.pass_us[m], 0.0),
                c.median_us(m),
                percentile(&c.pass_us[m], 1.0)
            );
        }
        let _ = writeln!(
            json,
            "    {{\"dims\": {}, \"kind\": \"{}\", \"n0\": {}, \"n1\": {}, \
             \"us_per_query\": {{{us}}}, \
             \"auto_routes\": {{\"ad\": {}, \"vafile\": {}, \"scan\": {}}}, \
             \"ad_attrs_est_over_actual\": {:.2}, \"va_refined_per_query\": {:.1}, \
             \"auto_vs_best\": {:.3}, \
             \"auto_vs_worst\": {:.3}, \"gated\": {}}}{comma}",
            c.dims,
            c.kind.name(),
            c.n0,
            c.n1,
            c.auto_routes[BackendChoice::Ad as usize],
            c.auto_routes[BackendChoice::VaFile as usize],
            c.auto_routes[BackendChoice::Scan as usize],
            c.ad_est_over_actual,
            c.va_refined,
            c.auto_vs(c.best_forced_us()),
            c.auto_vs(c.worst_forced_us()),
            c.gated(),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"sweep_totals_s\": {{\"ad\": {:.4}, \"vafile\": {:.4}, \"scan\": {:.4}, \
         \"auto\": {:.4}}},",
        totals[0], totals[1], totals[2], totals[3]
    );
    let _ = writeln!(
        json,
        "  \"auto_sweep_speedup_vs_best_single\": {:.2},",
        best_single_s / totals[3]
    );
    let _ = writeln!(
        json,
        "  \"auto_never_below_worst_per_cell\": {auto_never_below_worst},"
    );
    let _ = writeln!(
        json,
        "  \"auto_within_085_of_best_where_gated\": {auto_near_best_where_gated}"
    );
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
    let gates_hold = auto_never_below_worst && auto_near_best_where_gated;
    if !cfg.smoke && !gates_hold {
        eprintln!("planner_crossover: a crossover gate failed (see the JSON above)");
        std::process::exit(1);
    }
}
