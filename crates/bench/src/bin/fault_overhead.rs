//! Std-only checksum-overhead benchmark: the disk batch engine over one
//! database *file*, priced under each [`VerifyMode`] read-verification
//! policy. Emits `BENCH_fault_overhead.json`; the run asserts every
//! policy answers bit-for-bit identically and (outside `--smoke`) that
//! the default policy's steady-state overhead stays under 10%.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin fault_overhead
//! cargo run -p knmatch-bench --release --bin fault_overhead -- --smoke
//! cargo run -p knmatch-bench --release --bin fault_overhead -- \
//!     --cardinality 200000 --dims 16 -k 10 -n 1 --queries 400 \
//!     --pool-pages 64 --reps 5 --out BENCH_fault_overhead.json
//! ```
//!
//! The pool is deliberately small relative to the file, so queries miss
//! and re-read pages from the store — checksum verification only runs on
//! store reads; a pool holding the whole working set would price an idle
//! code path. Each policy runs the batch twice on one engine: the *cold*
//! pass includes first-read verification of every touched page (the
//! `first_read` policy pays its one-time cost here), the *steady* pass
//! shows the recurring cost — under `first_read` the same misses recur
//! but re-reads of verified pages skip the CRC. Wall-clock timing only
//! (`std::time::Instant`), best-of-`reps` per pass, no external bench
//! framework.
//!
//! A second section (unix only) prices the *network* fault hooks on the
//! served path: the same workload pipelined over a loopback
//! [`EventServer`](knmatch_server::EventServer) twice — once with no
//! injector configured, once with a zero-rate injector installed, so
//! the per-I/O hook rolls but never fires. Outside `--smoke` the
//! disabled-hook cost must stay under 1% of baseline qps.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use knmatch_core::{BatchAnswer, BatchEngine, BatchQuery};
use knmatch_storage::{DiskDatabase, VerifyMode};

struct Config {
    cardinality: usize,
    dims: usize,
    k: usize,
    n: usize,
    queries: usize,
    pool_pages: usize,
    reps: usize,
    seed: u64,
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
                "usage: fault_overhead [--smoke] [--cardinality C] [--dims D] [-k K] [-n N] \
                 [--queries Q] [--pool-pages P] [--reps R] [--seed S] [--out FILE]"
            );
            std::process::exit(0);
        }
        // Smoke mode: a seconds-long run for CI / verify.sh.
        let smoke = args.iter().any(|a| a == "--smoke");
        let (c0, q0, r0) = if smoke {
            (4_000, 48, 2)
        } else {
            (200_000, 400, 5)
        };
        Config {
            cardinality: num("--cardinality", c0),
            dims: num("--dims", 16),
            k: num("-k", 10),
            n: num("-n", 1),
            queries: num("--queries", q0),
            pool_pages: num("--pool-pages", 64),
            reps: num("--reps", r0),
            seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
            smoke,
            out: get("--out").unwrap_or_else(|| "BENCH_fault_overhead.json".into()),
        }
    }
}

struct Mode {
    name: &'static str,
    /// Best wall time of the first (cold pool, unverified pages) pass.
    cold: Duration,
    /// Best wall time of the second pass on the same engine.
    steady: Duration,
    store_reads: u64,
    /// Structural checksum of answers + stats — cheap equality witness.
    digest: u64,
}

fn qps(queries: usize, wall: Duration) -> f64 {
    queries as f64 / wall.as_secs_f64()
}

/// Structural checksum over served answers — the equality witness
/// between the with-hooks and without-hooks servers.
#[cfg(unix)]
fn digest_answers(answers: &[Result<BatchAnswer, knmatch_server::ServedError>]) -> u64 {
    let mut sum = 0u64;
    for a in answers {
        let ids = match a.as_ref().expect("answer") {
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

/// Prices the disabled network fault hooks on the served path: two
/// loopback event servers over identical in-memory engines — one with
/// no injector, one with a zero-rate injector (the hooks roll per I/O
/// but never fire) — measured with *interleaved* reps so machine drift
/// hits both sides equally, best-of-`reps` each. Returns
/// `(baseline_qps, hooks_qps)`.
#[cfg(unix)]
fn served_hook_qps(
    ds: &knmatch_core::Dataset,
    batch: &[BatchQuery],
    reps: usize,
    seed: u64,
) -> (f64, f64) {
    use knmatch_server::{
        Backend, Client, EngineConfig, EventServer, NetFaultConfig, ServerConfig,
    };
    let build = |fault: Option<NetFaultConfig>| {
        let engine = EngineConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .build_in_memory(ds);
        let scfg = ServerConfig {
            executors: 1,
            fault,
            ..ServerConfig::default()
        };
        EventServer::bind(engine, "127.0.0.1:0", scfg).expect("bind")
    };
    let base = build(None);
    let hooks = build(Some(NetFaultConfig {
        seed,
        ..NetFaultConfig::default()
    }));
    let handles = [base.handle(), hooks.handle()];
    let mut best = [Duration::MAX; 2];
    let mut digests = [0u64; 2];
    std::thread::scope(|s| {
        let serve_base = s.spawn(|| base.serve().expect("serve"));
        let serve_hooks = s.spawn(|| hooks.serve().expect("serve"));
        let mut clients = [
            Client::connect(base.local_addr()).expect("connect"),
            Client::connect(hooks.local_addr()).expect("connect"),
        ];
        for c in &mut clients {
            c.set_binary(true);
            let warm = c.run_batch(batch).expect("warm-up batch");
            assert_eq!(warm.failed, 0);
        }
        // Three batches per timed window: a single ~3ms batch is inside
        // scheduler jitter; ~10ms windows make the 1% budget meaningful.
        for _ in 0..reps {
            for (i, c) in clients.iter_mut().enumerate() {
                let t = Instant::now();
                for _ in 0..3 {
                    let reply = c.run_batch(batch).expect("served batch");
                    assert_eq!(reply.failed, 0, "no query may fail");
                    digests[i] = digest_answers(&reply.answers);
                }
                best[i] = best[i].min(t.elapsed() / 3);
            }
        }
        for c in clients {
            c.quit().expect("quit");
        }
        for h in handles {
            h.shutdown();
        }
        serve_base.join().expect("server thread");
        serve_hooks.join().expect("server thread");
    });
    assert_eq!(
        digests[0], digests[1],
        "disabled fault hooks must not change answers"
    );
    (qps(batch.len(), best[0]), qps(batch.len(), best[1]))
}

fn digest_results(results: Vec<knmatch_core::Result<knmatch_storage::DiskBatchOutcome>>) -> u64 {
    let mut digest = 0u64;
    for r in results {
        let o = r.expect("valid workload");
        let ids = match &o.answer {
            BatchAnswer::KnMatch(r) | BatchAnswer::EpsMatch(r) => r.ids(),
            BatchAnswer::Frequent(r) => r.ids(),
        };
        for (rank, pid) in ids.iter().enumerate() {
            digest = digest
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(*pid as u64 ^ ((rank as u64) << 32));
        }
        digest = digest
            .wrapping_add(o.ad.heap_pops)
            .wrapping_add(o.io.page_accesses());
    }
    digest
}

/// One engine lifetime under `mode`: a cold batch pass, then a steady
/// pass on the same (warm verified-map) engine.
fn run_once(
    path: &std::path::Path,
    cfg: &Config,
    batch: &[BatchQuery],
    mode: VerifyMode,
) -> (Duration, Duration, u64, u64) {
    let engine = DiskDatabase::open_file_with(path, cfg.pool_pages, mode)
        .expect("open database file")
        .into_engine(1);

    let t = Instant::now();
    let first = engine.run(batch);
    let cold = t.elapsed();
    let t = Instant::now();
    let second = engine.run(batch);
    let steady = t.elapsed();

    let d1 = digest_results(first);
    let d2 = digest_results(second);
    assert_eq!(d1, d2, "the two passes must agree");
    (cold, steady, engine.pool_stats().page_accesses(), d1)
}

fn run_mode(
    path: &std::path::Path,
    cfg: &Config,
    batch: &[BatchQuery],
    name: &'static str,
    mode: VerifyMode,
) -> Mode {
    let mut best: Option<Mode> = None;
    for _ in 0..cfg.reps {
        let (cold, steady, store_reads, digest) = run_once(path, cfg, batch, mode);
        match &mut best {
            Some(m) => {
                assert_eq!(digest, m.digest, "repetitions must agree");
                m.cold = m.cold.min(cold);
                m.steady = m.steady.min(steady);
            }
            None => {
                best = Some(Mode {
                    name,
                    cold,
                    steady,
                    store_reads,
                    digest,
                });
            }
        }
    }
    best.expect("reps >= 1")
}

fn main() {
    let cfg = Config::parse();
    eprintln!(
        "fault_overhead: c={} d={} k={} n={} queries={} pool={} reps={} seed={}",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.pool_pages, cfg.reps, cfg.seed
    );

    let dir = std::env::temp_dir().join(format!("knmatch-fault-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.knm");

    let ds = knmatch_data::uniform(cfg.cardinality, cfg.dims, cfg.seed);
    DiskDatabase::create_file(&path, &ds, cfg.pool_pages).expect("build database file");

    let mut rng = knmatch_data::rng::seeded(cfg.seed ^ 0x9E37_79B9);
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

    // Warm-up: page the file into the OS cache so the timed modes price
    // the checksum code, not first-touch filesystem effects.
    let _ = run_once(&path, &cfg, &batch[..batch.len().min(8)], VerifyMode::Never);

    let modes = [
        run_mode(&path, &cfg, &batch, "first_read", VerifyMode::FirstRead),
        run_mode(&path, &cfg, &batch, "always", VerifyMode::Always),
        run_mode(&path, &cfg, &batch, "never", VerifyMode::Never),
    ];
    let [fr, always, never] = &modes;
    assert_eq!(
        fr.digest, never.digest,
        "verification must not change answers"
    );
    assert_eq!(
        always.digest, never.digest,
        "verification must not change answers"
    );
    assert!(
        never.store_reads > 0,
        "the pool must miss for verification to be priced at all"
    );

    let pct = |with: Duration, without: Duration| {
        (qps(cfg.queries, without) - qps(cfg.queries, with)) / qps(cfg.queries, without) * 100.0
    };
    // The recurring cost of the default policy — re-reads of verified
    // pages — against the no-checksum baseline, both in steady state.
    let overhead_pct = pct(fr.steady, never.steady);
    // The one-time cost of verifying the working set (cold pass).
    let first_touch_pct = pct(fr.cold, never.cold);
    // The recurring cost of the paranoid per-read policy.
    let always_pct = pct(always.steady, never.steady);

    // Served path: the network fault hooks priced while disabled. A
    // zero-rate injector still rolls the PRNG once per read and per
    // flush, which is the entire always-on cost of the chaos plumbing.
    #[cfg(unix)]
    let served = {
        let (base_qps, hooks_qps) = served_hook_qps(&ds, &batch, cfg.reps.max(9), cfg.seed);
        let overhead_pct = (base_qps - hooks_qps) / base_qps * 100.0;
        Some((base_qps, hooks_qps, overhead_pct))
    };
    #[cfg(not(unix))]
    let served: Option<(f64, f64, f64)> = None;

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cardinality\": {}, \"dims\": {}, \"k\": {}, \"n\": {}, \
         \"queries\": {}, \"pool_pages\": {}, \"reps\": {}, \"seed\": {}}},",
        cfg.cardinality, cfg.dims, cfg.k, cfg.n, cfg.queries, cfg.pool_pages, cfg.reps, cfg.seed
    );
    let _ = writeln!(json, "  \"modes\": [");
    for (i, m) in modes.iter().enumerate() {
        let comma = if i + 1 < modes.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"cold_qps\": {:.1}, \"steady_qps\": {:.1}, \
             \"cold_wall_ms\": {:.2}, \"steady_wall_ms\": {:.2}, \"store_reads\": {}}}{comma}",
            m.name,
            qps(cfg.queries, m.cold),
            qps(cfg.queries, m.steady),
            m.cold.as_secs_f64() * 1e3,
            m.steady.as_secs_f64() * 1e3,
            m.store_reads,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"first_touch_overhead_pct\": {first_touch_pct:.2},"
    );
    let _ = writeln!(json, "  \"verify_always_overhead_pct\": {always_pct:.2},");
    let _ = writeln!(json, "  \"checksum_overhead_pct\": {overhead_pct:.2},");
    match served {
        Some((base, hooks, pct)) => {
            let _ = writeln!(
                json,
                "  \"served_fault_hooks\": {{\"baseline_qps\": {base:.1}, \
                 \"hooks_disabled_qps\": {hooks:.1}, \"hook_overhead_pct\": {pct:.2}}}"
            );
        }
        None => {
            let _ = writeln!(json, "  \"served_fault_hooks\": null");
        }
    }
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write output file");
    print!("{json}");
    eprintln!("wrote {}", cfg.out);
    std::fs::remove_dir_all(&dir).ok();

    // Smoke runs are too short to time reliably; the committed full run
    // is the one held to the budget.
    if !cfg.smoke {
        assert!(
            overhead_pct < 10.0,
            "steady-state checksum overhead is {overhead_pct:.2}% (budget: 10%)"
        );
        if let Some((_, _, hook_pct)) = served {
            assert!(
                hook_pct < 1.0,
                "disabled fault hooks cost {hook_pct:.2}% served qps (budget: 1%)"
            );
        }
    }
}
