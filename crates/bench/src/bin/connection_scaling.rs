//! Event-loop server connection-scaling benchmark. Emits
//! `BENCH_connections.json`.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin connection_scaling
//! cargo run -p knmatch-bench --release --bin connection_scaling -- \
//!     --cardinality 100000 --dims 32 -k 10 -n 2 --queries 256 \
//!     --depth 8 --threads 8 --out BENCH_connections.json
//! cargo run -p knmatch-bench --release --bin connection_scaling -- --smoke
//! ```
//!
//! Two measurements against the [`knmatch_server::EventServer`] (DESIGN.md §13–14),
//! repeated for every readiness backend the host offers (`poll`
//! everywhere, plus edge-triggered `epoll` on Linux), both using the
//! compact binary frame protocol:
//!
//! 1. **pipelined efficiency** — one loopback connection keeps
//!    `--depth` binary `BATCH` frames of `--batch` queries in flight
//!    (send 8 ahead, then one send per response), against a direct
//!    in-process `BatchEngine::run` baseline on the same engine. A
//!    second probe pipelines *single-query* frames
//!    (`Client::run_pipelined`) to expose the per-request overhead
//!    floor. Every served answer is asserted bit-identical to the
//!    direct run before any number is reported.
//! 2. **connection sweep** — for each point (64 → 4096 connections by
//!    default, `--smoke` runs 256 only) a fresh server accepts all
//!    connections up front; `--threads` driver threads then write one
//!    binary `BATCH` frame per connection before reading any response,
//!    so the reactor holds every connection's work in flight at once.
//!    All answers are again asserted bit-identical to the direct run.
//!
//! A counting `#[global_allocator]` reports process-wide allocation
//! counts per point — client and server share the process, so the
//! absolute number includes driver-side parsing, but the poll-vs-epoll
//! *difference* isolates the serving path, and the reactor counters
//! (`poll_iterations`, `events_dispatched`, `writev_calls`) come from
//! STATS. Wall-clock timing only (`std::time::Instant`), no external
//! bench framework, so the workspace builds offline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` plus two counters, so each measured section can report how
/// many allocations the whole process performed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// (allocations, bytes) since process start.
fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(unix)]
mod real {
    use std::fmt::Write as _;
    use std::sync::Barrier;
    use std::thread;
    use std::time::{Duration, Instant};

    use knmatch_core::{BatchAnswer, BatchEngine, BatchOutcome, BatchQuery, Dataset};
    use knmatch_data::rng::seeded;
    use knmatch_server::{Backend, Client, EngineConfig, EventServer, ReactorChoice, ServerConfig};

    use super::alloc_counts;

    pub struct Config {
        cardinality: usize,
        dims: usize,
        k: usize,
        n: usize,
        queries: usize,
        depth: usize,
        batch: usize,
        threads: usize,
        passes: usize,
        max_conns: usize,
        seed: u64,
        out: String,
        smoke: bool,
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
                    "usage: connection_scaling [--cardinality C] [--dims D] [-k K] [-n N] \
                     [--queries Q] [--depth P] [--batch B] [--threads T] [--passes P] \
                     [--max-conns M] [--seed S] [--smoke] [--out FILE]"
                );
                std::process::exit(0);
            }
            let smoke = args.iter().any(|a| a == "--smoke");
            Config {
                cardinality: num("--cardinality", if smoke { 2_000 } else { 400_000 }),
                dims: num("--dims", if smoke { 8 } else { 32 }),
                k: num("-k", 10),
                n: num("-n", 2),
                queries: num("--queries", if smoke { 64 } else { 256 }),
                depth: num("--depth", 8),
                batch: num("--batch", if smoke { 8 } else { 32 }),
                threads: num("--threads", 8),
                passes: num("--passes", if smoke { 1 } else { 3 }),
                max_conns: num("--max-conns", if smoke { 256 } else { 4096 }),
                seed: get("--seed").map_or(42, |v| v.parse().expect("bad --seed")),
                out: get("--out").unwrap_or_else(|| "BENCH_connections.json".into()),
                smoke,
            }
        }
    }

    /// Structural checksum over answers — a cheap cross-run equality
    /// witness for the JSON report (the real assertion is full `==`).
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

    /// Connects with retry: a large sweep point can momentarily overrun
    /// the listen backlog while the reactor drains its accept queue.
    fn connect_binary(addr: std::net::SocketAddr) -> Client {
        for attempt in 0..50 {
            match Client::connect(addr) {
                Ok(mut c) => {
                    c.set_binary(true);
                    return c;
                }
                Err(e) if attempt + 1 == 50 => panic!("connect: {e}"),
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        }
        unreachable!()
    }

    struct Pipelined {
        served_qps: f64,
        efficiency: f64,
        perquery_qps: f64,
        perquery_efficiency: f64,
        depth_max: u64,
        allocs_per_query: f64,
    }

    struct SweepRow {
        connections: usize,
        queries_per_conn: usize,
        wall_ms: f64,
        qps: f64,
        conns_peak: u64,
        pipeline_depth_max: u64,
        frames_binary: u64,
        poll_iterations: u64,
        events_dispatched: u64,
        writev_calls: u64,
        allocs: u64,
        alloc_bytes: u64,
    }

    struct BackendReport {
        name: &'static str,
        pipelined: Pipelined,
        rows: Vec<SweepRow>,
    }

    /// The readiness backends this host can run.
    fn backends() -> Vec<(&'static str, ReactorChoice)> {
        if cfg!(target_os = "linux") {
            vec![
                ("poll", ReactorChoice::Poll),
                ("epoll", ReactorChoice::Epoll),
            ]
        } else {
            vec![("poll", ReactorChoice::Poll)]
        }
    }

    /// Phase 1 — pipelined efficiency over one connection.
    #[allow(clippy::too_many_arguments)]
    fn phase_pipelined(
        cfg: &Config,
        ds: &Dataset,
        pool: &[BatchQuery],
        direct: &[BatchAnswer],
        direct_qps: f64,
        cpus: usize,
        reactor: ReactorChoice,
        name: &str,
    ) -> Pipelined {
        let frames: Vec<&[BatchQuery]> = pool.chunks(cfg.batch).collect();
        let wants: Vec<&[BatchAnswer]> = direct.chunks(cfg.batch).collect();
        let engine = EngineConfig {
            workers: cpus,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .build_in_memory(ds);
        let server = EventServer::bind(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                max_connections: 16,
                reactor,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let mut served_wall = f64::INFINITY;
        let mut perquery_wall = f64::INFINITY;
        let mut best_allocs = u64::MAX;
        let mut depth_max = 0;
        thread::scope(|s| {
            let serving = s.spawn(|| server.serve().expect("serve"));
            let mut client = connect_binary(addr);
            let warm = client
                .run_batch(&pool[..pool.len().min(8)])
                .expect("warm-up");
            assert_eq!(warm.failed, 0);
            for _ in 0..cfg.passes {
                let (allocs0, _) = alloc_counts();
                let t = Instant::now();
                let mut sent = 0;
                while sent < frames.len().min(cfg.depth) {
                    client.send_batch(frames[sent]).expect("send batch");
                    sent += 1;
                }
                for (i, want) in wants.iter().enumerate() {
                    let reply = client.recv_batch(frames[i].len()).expect("recv batch");
                    assert_eq!(reply.failed, 0, "no query may fail");
                    for (got, want) in reply.answers.iter().zip(*want) {
                        assert_eq!(
                            got.as_ref().expect("answer"),
                            want,
                            "pipelined answer diverged from direct run"
                        );
                    }
                    if sent < frames.len() {
                        client.send_batch(frames[sent]).expect("send batch");
                        sent += 1;
                    }
                }
                let wall = t.elapsed().as_secs_f64();
                let (allocs1, _) = alloc_counts();
                if wall < served_wall {
                    served_wall = wall;
                }
                // The pool is warm after pass 1; steady state is the
                // smallest per-pass count.
                best_allocs = best_allocs.min(allocs1 - allocs0);
            }
            // Per-query framing: every request is one query frame,
            // `depth` in flight (`Client::run_pipelined`).
            for _ in 0..cfg.passes {
                let t = Instant::now();
                let answers = client.run_pipelined(pool, cfg.depth).expect("pipelined");
                perquery_wall = perquery_wall.min(t.elapsed().as_secs_f64());
                for (got, want) in answers.iter().zip(direct) {
                    assert_eq!(
                        got.as_ref().expect("answer"),
                        want,
                        "per-query answer diverged from direct run"
                    );
                }
            }
            depth_max = client
                .stats_report()
                .expect("stats")
                .extras
                .expect("event server reports extras")
                .pipeline_depth_max;
            client.quit().expect("quit");
            handle.shutdown();
            serving.join().expect("server thread");
        });
        let served_qps = pool.len() as f64 / served_wall;
        let perquery_qps = pool.len() as f64 / perquery_wall;
        let efficiency = served_qps / direct_qps.max(f64::MIN_POSITIVE);
        let perquery_efficiency = perquery_qps / direct_qps.max(f64::MIN_POSITIVE);
        let allocs_per_query = best_allocs as f64 / pool.len() as f64;
        eprintln!(
            "  [{name}] pipelined depth={} batch={}: served {served_qps:.0} q/s ({:.1}%), \
             per-query frames {perquery_qps:.0} q/s ({:.1}%), depth max {depth_max}, \
             {allocs_per_query:.1} allocs/q",
            cfg.depth,
            cfg.batch,
            efficiency * 100.0,
            perquery_efficiency * 100.0
        );
        Pipelined {
            served_qps,
            efficiency,
            perquery_qps,
            perquery_efficiency,
            depth_max,
            allocs_per_query,
        }
    }

    /// Phase 2 — one sweep point: `conns` connections each holding one
    /// batch in flight; best wall of `passes` fresh-server runs.
    #[allow(clippy::too_many_arguments)]
    fn sweep_point(
        cfg: &Config,
        ds: &Dataset,
        pool: &[BatchQuery],
        direct: &[BatchAnswer],
        cpus: usize,
        reactor: ReactorChoice,
        name: &str,
        conns: usize,
    ) -> SweepRow {
        // Keep total sweep work roughly constant across points.
        let per_conn = (8 * pool.len() / conns).clamp(2, pool.len());
        let chunk = &pool[..per_conn];
        let want = &direct[..per_conn];
        let mut best: Option<SweepRow> = None;
        for _ in 0..cfg.passes {
            let engine = EngineConfig {
                workers: cpus,
                backend: Backend::Memory,
                planner: None,
                ..EngineConfig::default()
            }
            .build_in_memory(ds);
            let server = EventServer::bind(
                engine,
                "127.0.0.1:0",
                ServerConfig {
                    max_connections: conns + 16,
                    reactor,
                    ..ServerConfig::default()
                },
            )
            .expect("bind");
            let addr = server.local_addr();
            let handle = server.handle();
            let threads = cfg.threads.min(conns).max(1);
            let ready = Barrier::new(threads + 1);
            let mut wall = 0.0;
            let mut allocs = 0;
            let mut alloc_bytes = 0;
            let mut extras = None;
            thread::scope(|s| {
                let serving = s.spawn(|| server.serve().expect("serve"));
                let drivers: Vec<_> = (0..threads)
                    .map(|t| {
                        let ready = &ready;
                        let share = conns / threads + usize::from(t < conns % threads);
                        s.spawn(move || {
                            let mut clients: Vec<Client> =
                                (0..share).map(|_| connect_binary(addr)).collect();
                            ready.wait();
                            for c in &mut clients {
                                c.send_batch(chunk).expect("send batch");
                            }
                            for c in &mut clients {
                                let reply = c.recv_batch(chunk.len()).expect("recv batch");
                                assert_eq!(reply.failed, 0, "no query may fail");
                                for (got, want) in reply.answers.iter().zip(want) {
                                    assert_eq!(
                                        got.as_ref().expect("answer"),
                                        want,
                                        "swept answer diverged from direct run"
                                    );
                                }
                            }
                            for c in clients {
                                c.quit().expect("quit");
                            }
                        })
                    })
                    .collect();
                ready.wait();
                let (a0, b0) = alloc_counts();
                let t = Instant::now();
                for d in drivers {
                    d.join().expect("driver thread");
                }
                wall = t.elapsed().as_secs_f64();
                let (a1, b1) = alloc_counts();
                allocs = a1 - a0;
                alloc_bytes = b1 - b0;
                // Reactor-side counters (conns_peak, pipeline depth,
                // frame tally, event/writev counts) travel only over
                // the STATS verb.
                let mut probe = connect_binary(addr);
                let report = probe.stats_report().expect("stats");
                extras = Some(report.extras.expect("event server reports extras"));
                probe.quit().expect("quit");
                handle.shutdown();
                serving.join().expect("server thread");
            });
            let stats = server.stats();
            assert_eq!(stats.connections, conns as u64 + 1, "accepts (+probe)");
            let total = conns * per_conn;
            let extras = extras.expect("probe ran");
            let row = SweepRow {
                connections: conns,
                queries_per_conn: per_conn,
                wall_ms: wall * 1e3,
                qps: total as f64 / wall,
                conns_peak: extras.conns_peak,
                pipeline_depth_max: extras.pipeline_depth_max,
                frames_binary: extras.frames_binary,
                poll_iterations: extras.poll_iterations,
                events_dispatched: extras.events_dispatched,
                writev_calls: extras.writev_calls,
                allocs,
                alloc_bytes,
            };
            if best.as_ref().is_none_or(|b| row.wall_ms < b.wall_ms) {
                best = Some(row);
            }
        }
        let row = best.expect("at least one pass");
        eprintln!(
            "  [{name}] conns={conns}: {per_conn} q/conn, {:.0} q/s, peak {} conns, \
             {:.1} events/iter, {} writev calls",
            row.qps,
            row.conns_peak,
            row.events_dispatched as f64 / row.poll_iterations.max(1) as f64,
            row.writev_calls
        );
        row
    }

    pub fn main() {
        let cfg = Config::parse();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        eprintln!(
            "connection_scaling: c={} d={} k={} n={} queries={} depth={} threads={} \
             passes={} max-conns={} seed={} ({cpus} cpu(s))",
            cfg.cardinality,
            cfg.dims,
            cfg.k,
            cfg.n,
            cfg.queries,
            cfg.depth,
            cfg.threads,
            cfg.passes,
            cfg.max_conns,
            cfg.seed
        );

        let ds = knmatch_data::uniform(cfg.cardinality, cfg.dims, cfg.seed);
        let mut rng = seeded(cfg.seed ^ 0x9E37_79B9);
        let pool: Vec<BatchQuery> = (0..cfg.queries)
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

        let engine = EngineConfig {
            workers: cpus,
            backend: Backend::Memory,
            planner: None,
            ..EngineConfig::default()
        }
        .build_in_memory(&ds);

        // Direct baseline: same engine, no sockets. Warm up, then take
        // the fastest of `passes` runs.
        let _ = engine.run(&pool[..pool.len().min(8)]);
        let mut direct_wall = f64::INFINITY;
        let mut direct: Vec<BatchAnswer> = Vec::new();
        for _ in 0..cfg.passes {
            let t = Instant::now();
            let out: Vec<BatchAnswer> = engine
                .run(&pool)
                .into_iter()
                .map(|r| r.expect("valid workload").into_answer())
                .collect();
            direct_wall = direct_wall.min(t.elapsed().as_secs_f64());
            direct = out;
        }
        drop(engine);
        let direct_qps = pool.len() as f64 / direct_wall;
        let checksum = digest(&direct);
        eprintln!("  direct: {direct_qps:.0} q/s");

        let points: Vec<usize> = if cfg.smoke {
            vec![256]
        } else {
            vec![64, 256, 1024, 4096]
        }
        .into_iter()
        .filter(|&c| c <= cfg.max_conns)
        .collect();

        let mut reports = Vec::new();
        for (name, reactor) in backends() {
            let pipelined =
                phase_pipelined(&cfg, &ds, &pool, &direct, direct_qps, cpus, reactor, name);
            let rows: Vec<SweepRow> = points
                .iter()
                .map(|&conns| sweep_point(&cfg, &ds, &pool, &direct, cpus, reactor, name, conns))
                .collect();
            reports.push(BackendReport {
                name,
                pipelined,
                rows,
            });
        }

        let mut json = String::from("{\n");
        let _ = writeln!(
            json,
            "  \"config\": {{\"cardinality\": {}, \"dims\": {}, \"k\": {}, \"n\": {}, \
             \"queries\": {}, \"depth\": {}, \"batch\": {}, \"threads\": {}, \"passes\": {}, \
             \"seed\": {}, \"cpus\": {cpus}}},",
            cfg.cardinality,
            cfg.dims,
            cfg.k,
            cfg.n,
            cfg.queries,
            cfg.depth,
            cfg.batch,
            cfg.threads,
            cfg.passes,
            cfg.seed
        );
        let _ = writeln!(json, "  \"answer_checksum\": {checksum},");
        let _ = writeln!(json, "  \"direct_qps\": {direct_qps:.0},");
        let _ = writeln!(json, "  \"backends\": [");
        for (b, report) in reports.iter().enumerate() {
            let p = &report.pipelined;
            let _ = writeln!(json, "    {{\"backend\": \"{}\",", report.name);
            let _ = writeln!(
                json,
                "     \"pipelined\": {{\"depth\": {}, \"batch\": {}, \
                 \"served_qps\": {:.0}, \"efficiency\": {:.3}, \
                 \"perquery_qps\": {:.0}, \"perquery_efficiency\": {:.3}, \
                 \"server_pipeline_depth_max\": {}, \"allocs_per_query\": {:.1}}},",
                cfg.depth,
                cfg.batch,
                p.served_qps,
                p.efficiency,
                p.perquery_qps,
                p.perquery_efficiency,
                p.depth_max,
                p.allocs_per_query
            );
            let _ = writeln!(json, "     \"sweep\": [");
            for (i, r) in report.rows.iter().enumerate() {
                let comma = if i + 1 < report.rows.len() { "," } else { "" };
                let _ = writeln!(
                    json,
                    "       {{\"connections\": {}, \"queries_per_conn\": {}, \
                     \"wall_ms\": {:.1}, \"qps\": {:.0}, \"conns_peak\": {}, \
                     \"pipeline_depth_max\": {}, \"frames_binary\": {}, \
                     \"poll_iterations\": {}, \"events_dispatched\": {}, \
                     \"writev_calls\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}{comma}",
                    r.connections,
                    r.queries_per_conn,
                    r.wall_ms,
                    r.qps,
                    r.conns_peak,
                    r.pipeline_depth_max,
                    r.frames_binary,
                    r.poll_iterations,
                    r.events_dispatched,
                    r.writev_calls,
                    r.allocs,
                    r.alloc_bytes
                );
            }
            let _ = writeln!(json, "     ]");
            let comma = if b + 1 < reports.len() { "," } else { "" };
            let _ = writeln!(json, "    }}{comma}");
        }
        let _ = writeln!(json, "  ]");
        json.push_str("}\n");

        std::fs::write(&cfg.out, &json).expect("write output file");
        print!("{json}");
        eprintln!("wrote {}", cfg.out);
    }
}

#[cfg(unix)]
fn main() {
    real::main();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("connection_scaling needs the event-loop server (unix only)");
}
