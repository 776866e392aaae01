//! `knmatch` — command-line access to the matching-based similarity search
//! engine.
//!
//! ```text
//! knmatch generate --kind uniform --cardinality 10000 --dims 16 --out data.csv
//! knmatch build data.csv db.knm
//! knmatch info db.knm
//! knmatch query db.knm --point 0.1,0.5,… -k 10 -n 4
//! knmatch query db.knm --point 0.1,0.5,… -k 10 --frequent 4 8
//! knmatch query db.knm --point 0.1,0.5,… -k 10 -n 4 --shards 4
//! knmatch batch data.csv --queries queries.csv -k 10 --frequent 4 8 --workers 4
//! knmatch batch data.csv --queries queries.csv -k 10 -n 4 --shards 4 --workers 4
//! knmatch batch db.knm --queries queries.csv -k 10 -n 4 --disk --workers 4
//! knmatch serve db.knm --addr 127.0.0.1:7878 --disk --workers 4
//! knmatch serve data.csv --addr 127.0.0.1:7878 --mutable --merge-threshold 4096
//! knmatch client 127.0.0.1:7878 --queries queries.csv -k 10 -n 4
//! knmatch ingest 127.0.0.1:7878 --points new.csv --start-key 100000 --seal
//! ```

use std::fmt::Write as _;
#[cfg(unix)]
use std::io::Write as _;
use std::process::ExitCode;

use knmatch_core::{BatchAnswer, BatchEngine, BatchOptions, BatchOutcome, BatchQuery};
#[cfg(unix)]
use knmatch_server::EventServer;
use knmatch_server::{AnyEngine, Backend, Client, EngineConfig};
use knmatch_storage::{CostModel, DiskDatabase};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((out, true)) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        // The command ran but some queries in the batch failed: the report
        // already names them, so skip the usage text but exit non-zero.
        Ok((out, false)) => {
            print!("{out}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     knmatch generate --kind <uniform|skewed|clusters|coil> --out <file.csv> \
     [--cardinality N] [--dims D] [--classes C] [--seed S]\n  \
     knmatch build <data.csv> <db.knm>\n  \
     knmatch info <db.knm>\n  \
     knmatch verify <db.knm>\n  \
     knmatch query <db.knm> --point <v1,v2,…> -k <K> (-n <N> | --frequent <N0> <N1> [--auto]) \
     [--shards S [--workers W]]\n  \
     knmatch bench <db.knm> -k <K> --frequent <N0> <N1> [--queries Q] [--seed S]\n  \
     knmatch batch <data.csv|db.knm> --queries <queries.csv> \
     (-k <K> -n <N> | -k <K> --frequent <N0> <N1> | --eps <E> -n <N>) [--workers W] \
     [--planner auto|ad|vafile|scan|igrid | --shards <S|auto> | \
     --disk [--pool-pages P] [--verify never|first-read|always]] \
     [--deadline-ms MS] [--fail-fast]\n  \
     knmatch serve <data.csv|db.knm> [--addr IP:PORT] [--workers W] \
     [--planner MODE | --disk [--pool-pages P] [--verify MODE] | \
     [--shards <S|auto>] [--mutable [--merge-threshold R]]] \
     [--max-conns N] [--executors E] [--reactor poll|epoll|auto] \
     [--idle-timeout-ms MS] [--max-inflight N]\n  \
     knmatch client <host:port> (--queries <queries.csv> \
     (-k <K> -n <N> | -k <K> --frequent <N0> <N1> | --eps <E> -n <N>) \
     [--planner MODE] [--deadline-ms MS] [--fail-fast] [--binary] \
     [--pipeline DEPTH] [--retries R [--backoff-ms MS]] [--timeout-ms MS] \
     [--stats] | --ping | --shutdown)\n  \
     knmatch ingest <host:port> --points <file.csv> [--start-key N] [--seal] \
     [--binary] [--stats]\n\
     \n\
     the in-memory engine (no --disk, no --planner) is one engine, a snapshot \
     of sorted runs that every query walks with one AD frontier: one run \
     by default, --shards S lays the data out as S initial runs (a layout, \
     not a speed-up: queries run one per worker either way), --mutable makes \
     it accept INSERT/DELETE/SEAL (compaction treats the initial runs like \
     any others).\n\
     \n\
     exit codes: 0 success; 1 usage or I/O error; 2 command ran but some \
     queries failed"
}

/// Executes one CLI invocation, returning the text to print and whether
/// every unit of work succeeded (`batch` reports per-query failures in
/// the text instead of aborting, so the flag carries them to the exit
/// code).
fn run(args: &[String]) -> Result<(String, bool), String> {
    let ok = |text: String| (text, true);
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]).map(ok),
        Some("build") => build(&args[1..]).map(ok),
        Some("info") => info(&args[1..]).map(ok),
        Some("verify") => verify(&args[1..]).map(ok),
        Some("query") => query(&args[1..]).map(ok),
        Some("bench") => bench(&args[1..]).map(ok),
        Some("batch") => batch(&args[1..]),
        Some("serve") => serve(&args[1..]).map(ok),
        Some("client") => client(&args[1..]),
        Some("ingest") => ingest(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".into()),
    }
}

fn verify(args: &[String]) -> Result<String, String> {
    let [path] = args else {
        return Err("verify needs <db.knm>".into());
    };
    let db = DiskDatabase::open_file(path, 256).map_err(|e| e.to_string())?;
    let problems = db.verify().map_err(|e| e.to_string())?;
    if problems.is_empty() {
        Ok(format!(
            "{path}: OK — {} points x {} dims, all columns sorted and consistent\n",
            db.len(),
            db.dims()
        ))
    } else {
        let mut out = format!("{path}: {} problem(s) found:\n", problems.len());
        for p in problems {
            out.push_str(&format!("  - {p}\n"));
        }
        Err(out)
    }
}

/// Runs a seeded query workload against a database file, comparing the AD
/// algorithm and the sequential scan, and reports latency percentiles of
/// the modelled response time.
fn bench(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("bench needs <db.knm>")?;
    let k: usize = parse_num(flag_value(args, "-k").unwrap_or("20"), "-k")?;
    let queries: usize = parse_num(flag_value(args, "--queries").unwrap_or("20"), "--queries")?;
    let seed: u64 = parse_num(flag_value(args, "--seed").unwrap_or("42"), "--seed")?;
    let db = DiskDatabase::open_file(path, 256).map_err(|e| e.to_string())?;
    let (n0, n1) = if let Some(i) = args.iter().position(|a| a == "--frequent") {
        (
            parse_num(args.get(i + 1).ok_or("--frequent needs N0 N1")?, "N0")?,
            parse_num(args.get(i + 2).ok_or("--frequent needs N0 N1")?, "N1")?,
        )
    } else {
        (4.min(db.dims()), (db.dims() / 2).max(1))
    };

    // Sample query points from the database itself.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ad_ms: Vec<f64> = Vec::with_capacity(queries);
    let mut scan_ms: Vec<f64> = Vec::with_capacity(queries);
    let mut attrs = 0u64;
    let model = CostModel::default();
    for _ in 0..queries {
        let pid = (next() % db.len() as u64) as u32;
        let q = db.fetch_point(pid).map_err(|e| e.to_string())?;
        let ad = db
            .frequent_k_n_match(&q, k, n0, n1)
            .map_err(|e| e.to_string())?;
        ad_ms.push(ad.io.response_time_ms(model));
        attrs += ad.ad.attributes_retrieved;
        let scan = db
            .scan_frequent_k_n_match(&q, k, n0, n1)
            .map_err(|e| e.to_string())?;
        scan_ms.push(scan.io.response_time_ms(model));
    }
    let pct = |v: &mut Vec<f64>, p: f64| {
        v.sort_by(f64::total_cmp);
        v[((v.len() - 1) as f64 * p) as usize]
    };
    let mut out = format!(
        "{queries} frequent {k}-n-match queries, n in [{n0}, {n1}], modelled ms \
         (seq {} ms / rand {} ms per page):\n",
        model.sequential_ms, model.random_ms
    );
    out.push_str(&format!(
        "  AD   : p50 {:>8.1}  p95 {:>8.1}  max {:>8.1}   ({} attrs/query avg)\n",
        pct(&mut ad_ms, 0.5),
        pct(&mut ad_ms, 0.95),
        pct(&mut ad_ms, 1.0),
        attrs / queries as u64
    ));
    out.push_str(&format!(
        "  scan : p50 {:>8.1}  p95 {:>8.1}  max {:>8.1}\n",
        pct(&mut scan_ms, 0.5),
        pct(&mut scan_ms, 0.95),
        pct(&mut scan_ms, 1.0)
    ));
    Ok(out)
}

/// Builds the query list shared by `batch` and `client` from the spec
/// flags: `-k K -n N` (k-n-match), `-k K --frequent N0 N1` (frequent), or
/// `--eps E -n N` (ε-n-match). Returns the queries plus a human header.
fn build_queries(
    args: &[String],
    points: Vec<Vec<f64>>,
) -> Result<(Vec<BatchQuery>, String), String> {
    if let Some(i) = args.iter().position(|a| a == "--frequent") {
        let k: usize = parse_num(flag_value(args, "-k").ok_or("queries need -k")?, "-k")?;
        let n0: usize = parse_num(args.get(i + 1).ok_or("--frequent needs N0 N1")?, "N0")?;
        let n1: usize = parse_num(args.get(i + 2).ok_or("--frequent needs N0 N1")?, "N1")?;
        let qs: Vec<BatchQuery> = points
            .into_iter()
            .map(|query| BatchQuery::Frequent { query, k, n0, n1 })
            .collect();
        Ok((qs, format!("frequent {k}-n-match, n in [{n0}, {n1}]")))
    } else if let Some(eps) = flag_value(args, "--eps") {
        let eps: f64 = parse_num(eps, "--eps")?;
        let n: usize = parse_num(flag_value(args, "-n").ok_or("queries need -n")?, "-n")?;
        let qs: Vec<BatchQuery> = points
            .into_iter()
            .map(|query| BatchQuery::EpsMatch { query, eps, n })
            .collect();
        Ok((qs, format!("eps-{n}-match, eps = {eps}")))
    } else {
        let k: usize = parse_num(flag_value(args, "-k").ok_or("queries need -k")?, "-k")?;
        let n: usize = parse_num(flag_value(args, "-n").ok_or("queries need -n")?, "-n")?;
        let qs: Vec<BatchQuery> = points
            .into_iter()
            .map(|query| BatchQuery::KnMatch { query, k, n })
            .collect();
        Ok((qs, format!("{k}-{n}-match")))
    }
}

/// Executes a file of query points as one parallel batch against any of
/// the three backends ([`EngineConfig`] owns the `--workers` /
/// `--shards` / `--disk` grammar); all backends share this one printing
/// path, with the disk backend adding its per-query I/O detail.
fn batch(args: &[String]) -> Result<(String, bool), String> {
    let data = args
        .first()
        .ok_or("batch needs <data.csv> (or <db.knm> with --disk)")?;
    let queries_path = flag_value(args, "--queries").ok_or("batch needs --queries <file.csv>")?;
    let qs = knmatch_data::load_dataset(queries_path).map_err(|e| e.to_string())?;
    let points: Vec<Vec<f64>> = qs.iter().map(|(_, p)| p.to_vec()).collect();
    let (queries, header) = build_queries(args, points)?;
    let opts = batch_options(args)?;
    let cfg = EngineConfig::from_args(args)?;
    let engine = cfg.open(data)?;

    let started = std::time::Instant::now();
    let results = engine.run_with(&queries, &opts);
    let elapsed = started.elapsed();
    let model = CostModel::default();

    let mut out = match &engine {
        AnyEngine::Planned(e) => format!(
            "{} queries ({header}) over {} points x {} dims, {} worker(s), \
             planner {}\n",
            queries.len(),
            engine.cardinality(),
            engine.dims(),
            engine.workers(),
            opts.planner.unwrap_or_else(|| e.default_mode()),
        ),
        AnyEngine::Runs { mutable, .. } => format!(
            "{} queries ({header}) over {} points x {} dims{}{}, {} worker(s)\n",
            queries.len(),
            engine.cardinality(),
            engine.dims(),
            if *mutable { " (mutable versioned)" } else { "" },
            // The default engine is one run; the count is shown when a
            // flag made the run list visible.
            if *mutable || cfg.backend != Backend::Memory {
                format!(", {} shard(s)", engine.run_count().unwrap_or(1))
            } else {
                String::new()
            },
            engine.workers()
        ),
        AnyEngine::Disk(_) => format!(
            "{} queries ({header}) against {data}: {} points x {} dims, {} worker(s), \
             {} pool pages\n",
            queries.len(),
            engine.cardinality(),
            engine.dims(),
            engine.workers(),
            engine.pool_pages().unwrap_or(0),
        ),
    };
    let mut attrs = 0u64;
    let mut failures = 0usize;
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(o) => {
                attrs += o.ad_stats().attributes_retrieved;
                match o.io() {
                    Some(io) => writeln!(
                        out,
                        "  #{i}: [{}] — {} pages ({} seq + {} rand, {} hits), {:.1} ms modelled",
                        shown_ids(o.answer()),
                        io.page_accesses(),
                        io.sequential_reads,
                        io.random_reads,
                        io.hits,
                        io.response_time_ms(model),
                    ),
                    None => writeln!(out, "  #{i}: [{}]", shown_ids(o.answer())),
                }
                .expect("write to String");
            }
            Err(e) => {
                failures += 1;
                writeln!(out, "  #{i}: error: {e}").expect("write to String");
            }
        }
    }
    let secs = elapsed.as_secs_f64();
    writeln!(
        out,
        "{} ok / {failures} failed in {:.1} ms ({:.0} queries/s), {attrs} attributes retrieved",
        results.len() - failures,
        secs * 1e3,
        if secs > 0.0 {
            results.len() as f64 / secs
        } else {
            f64::INFINITY
        },
    )
    .expect("write to String");
    if let Some(pool) = engine.pool_stats() {
        let lookups = pool.hits + pool.page_accesses();
        writeln!(
            out,
            "shared pool: {} store reads, {} hits ({:.0}% hit ratio)",
            pool.page_accesses(),
            pool.hits,
            if lookups > 0 {
                pool.hits as f64 / lookups as f64 * 100.0
            } else {
                0.0
            },
        )
        .expect("write to String");
    }
    if let Some(plans) = engine.plan_counts() {
        writeln!(
            out,
            "plans: {} ad, {} vafile, {} scan, {} igrid",
            plans.ad, plans.vafile, plans.scan, plans.igrid,
        )
        .expect("write to String");
    }
    Ok((out, failures == 0))
}

/// Renders a batch answer's ids, truncated to the first ten.
fn shown_ids(answer: &BatchAnswer) -> String {
    let ids = match answer {
        BatchAnswer::KnMatch(r) | BatchAnswer::EpsMatch(r) => r.ids(),
        BatchAnswer::Frequent(r) => r.ids(),
    };
    let shown: Vec<String> = ids.iter().take(10).map(|pid| pid.to_string()).collect();
    let ellipsis = if ids.len() > 10 { ", …" } else { "" };
    format!("{}{}", shown.join(", "), ellipsis)
}

/// Serves the configured engine over TCP until a client sends `SHUTDOWN`
/// (or the process is killed). Prints the bound address eagerly — tests
/// and scripts bind `--addr 127.0.0.1:0` and read the resolved port from
/// that line — and returns the final counter summary.
#[cfg(unix)]
fn serve(args: &[String]) -> Result<String, String> {
    let data = args.first().ok_or("serve needs <data.csv|db.knm>")?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:0");
    let cfg = EngineConfig::from_args(args)?;
    let server_cfg = knmatch_server::server_config_from_args(args)?;
    let engine = cfg.open(data)?;
    let reactor = server_cfg.reactor;
    let server =
        EventServer::bind(engine, addr, server_cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "listening on {} (reactor {}, {}, {} points x {} dims)",
        server.local_addr(),
        reactor,
        cfg.describe(),
        server.engine().cardinality(),
        server.engine().dims(),
    );
    std::io::stdout().flush().ok();
    server.serve().map_err(|e| e.to_string())?;
    Ok(serve_summary(server.stats(), server.engine().plan_counts()))
}

/// The server's readiness loop is `poll(2)`/`epoll(7)`; hosts without
/// them keep every other subcommand.
#[cfg(not(unix))]
fn serve(_args: &[String]) -> Result<String, String> {
    Err("serve needs a unix host (poll(2) or epoll(7))".into())
}

/// The post-drain one-liner `serve` prints.
#[cfg(unix)]
fn serve_summary(
    t: knmatch_server::StatsSnapshot,
    plans: Option<knmatch_core::PlanTally>,
) -> String {
    let plans = match plans {
        Some(p) => format!(
            ", plans: {} ad / {} vafile / {} scan / {} igrid",
            p.ad, p.vafile, p.scan, p.igrid
        ),
        None => String::new(),
    };
    format!(
        "shutdown complete: {} queries ({} errors, {} timeouts) over {} connection(s), \
         {} bytes in / {} bytes out{plans}\n",
        t.queries, t.errors, t.timeouts, t.connections, t.bytes_in, t.bytes_out
    )
}

/// Talks to a running `knmatch serve`: `--ping` probes it, `--shutdown`
/// drains it, and `--queries` submits a batch (same query-spec flags as
/// `batch`), printing the same per-query report. `--binary` speaks
/// compact frames instead of text lines; `--pipeline DEPTH` sends the
/// queries individually with up to DEPTH in flight.
fn client(args: &[String]) -> Result<(String, bool), String> {
    let addr = args.first().ok_or("client needs <host:port>")?;
    let connect = || Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    if args.iter().any(|a| a == "--shutdown") {
        connect()?.shutdown_server().map_err(|e| e.to_string())?;
        return Ok((format!("{addr}: shutting down\n"), true));
    }
    if args.iter().any(|a| a == "--ping") {
        connect()?.ping().map_err(|e| e.to_string())?;
        return Ok((format!("{addr}: pong\n"), true));
    }
    let queries_path = flag_value(args, "--queries")
        .ok_or("client needs --queries <file.csv> (or --ping / --shutdown)")?;
    let qs = knmatch_data::load_dataset(queries_path).map_err(|e| e.to_string())?;
    let points: Vec<Vec<f64>> = qs.iter().map(|(_, p)| p.to_vec()).collect();
    let (queries, header) = build_queries(args, points)?;

    let binary = args.iter().any(|a| a == "--binary");
    let fail_fast = args.iter().any(|a| a == "--fail-fast");
    let want_stats = args.iter().any(|a| a == "--stats");
    let deadline_ms = match flag_value(args, "--deadline-ms") {
        Some(ms) => {
            let ms: u64 = parse_num(ms, "--deadline-ms")?;
            if ms == 0 {
                // On the wire DEADLINE 0 *clears* the deadline, the opposite
                // of what `batch --deadline-ms 0` (fail everything) means.
                return Err("client --deadline-ms must be > 0".into());
            }
            Some(ms)
        }
        None => None,
    };
    let planner = flag_value(args, "--planner")
        .map(|m| m.parse::<knmatch_core::PlannerMode>())
        .transpose()?;
    let pipeline = flag_value(args, "--pipeline")
        .map(|d| parse_num(d, "--pipeline"))
        .transpose()?;
    if pipeline == Some(0) {
        return Err("--pipeline depth must be > 0".into());
    }
    let retries: u64 = parse_num(flag_value(args, "--retries").unwrap_or("0"), "--retries")?;
    let timeout_ms: u64 = parse_num(
        flag_value(args, "--timeout-ms").unwrap_or("0"),
        "--timeout-ms",
    )?;
    let backoff_ms: u64 = parse_num(
        flag_value(args, "--backoff-ms").unwrap_or("0"),
        "--backoff-ms",
    )?;
    if retries == 0 && backoff_ms > 0 {
        return Err("--backoff-ms only applies with --retries".into());
    }

    let started = std::time::Instant::now();
    let (reply, stats, retries_used) = if retries > 0 {
        if pipeline.is_some() {
            return Err("--pipeline cannot be combined with --retries \
                        (reconnect-and-replay resends whole batches)"
                .into());
        }
        let mut policy = knmatch_server::RetryPolicy {
            retries: retries as u32,
            ..knmatch_server::RetryPolicy::default()
        };
        if timeout_ms > 0 {
            policy.timeout = Some(std::time::Duration::from_millis(timeout_ms));
        }
        if backoff_ms > 0 {
            policy.backoff_base = std::time::Duration::from_millis(backoff_ms);
        }
        let mut c = knmatch_server::RetryingClient::connect(addr, policy)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        c.set_binary(binary);
        if let Some(ms) = deadline_ms {
            c.set_deadline_ms(ms);
        }
        if fail_fast {
            c.set_fail_fast(true);
        }
        if let Some(mode) = planner {
            c.set_planner(mode);
        }
        let reply = c.run_batch(&queries).map_err(|e| e.to_string())?;
        let stats = if want_stats {
            Some(c.stats_report().map_err(|e| e.to_string())?)
        } else {
            None
        };
        let used = c.retries_used();
        c.close();
        (reply, stats, used)
    } else {
        let mut c = connect()?;
        c.set_binary(binary);
        if timeout_ms > 0 {
            c.set_timeout(Some(std::time::Duration::from_millis(timeout_ms)))
                .map_err(|e| e.to_string())?;
        }
        if let Some(ms) = deadline_ms {
            c.set_deadline_ms(ms).map_err(|e| e.to_string())?;
        }
        if fail_fast {
            c.set_fail_fast(true).map_err(|e| e.to_string())?;
        }
        if let Some(mode) = planner {
            c.set_planner(mode).map_err(|e| e.to_string())?;
        }
        let reply = match pipeline {
            Some(depth) => {
                let answers = c
                    .run_pipelined(&queries, depth)
                    .map_err(|e| e.to_string())?;
                let ok = answers.iter().filter(|a| a.is_ok()).count() as u64;
                let failed = answers.len() as u64 - ok;
                knmatch_server::BatchReply {
                    answers,
                    ok,
                    failed,
                }
            }
            None => c.run_batch(&queries).map_err(|e| e.to_string())?,
        };
        let stats = if want_stats {
            Some(c.stats_report().map_err(|e| e.to_string())?)
        } else {
            None
        };
        c.quit().map_err(|e| e.to_string())?;
        (reply, stats, 0)
    };
    let elapsed = started.elapsed();

    let mut out = format!(
        "{} queries ({header}) against {addr}\n",
        reply.answers.len()
    );
    for (i, r) in reply.answers.iter().enumerate() {
        match r {
            Ok(answer) => writeln!(out, "  #{i}: [{}]", shown_ids(answer)),
            Err(e) => writeln!(out, "  #{i}: error: {e}"),
        }
        .expect("write to String");
    }
    let secs = elapsed.as_secs_f64();
    writeln!(
        out,
        "{} ok / {} failed in {:.1} ms ({:.0} queries/s)",
        reply.ok,
        reply.failed,
        secs * 1e3,
        if secs > 0.0 {
            reply.answers.len() as f64 / secs
        } else {
            f64::INFINITY
        },
    )
    .expect("write to String");
    if retries_used > 0 {
        writeln!(out, "retried {retries_used} time(s)").expect("write to String");
    }
    if let Some(report) = stats {
        let (conn, server) = (&report.conn, &report.server);
        writeln!(
            out,
            "connection: {} queries, {} errors, {} bytes in / {} bytes out",
            conn.queries, conn.errors, conn.bytes_in, conn.bytes_out
        )
        .expect("write to String");
        writeln!(
            out,
            "server: {} queries, {} errors, {} timeouts, {} connection(s)",
            server.queries, server.errors, server.timeouts, server.connections
        )
        .expect("write to String");
        if let Some(v) = report.version {
            writeln!(
                out,
                "version: epoch {}, {} live, {} delta rows, {} run(s), {} tombstones, \
                 {} writes, {} merges",
                v.epoch, v.live, v.delta, v.runs, v.tombstones, v.writes, v.merges
            )
            .expect("write to String");
        }
        if let Some(p) = report.plans {
            writeln!(
                out,
                "plans: {} ad, {} vafile, {} scan, {} igrid",
                p.ad, p.vafile, p.scan, p.igrid
            )
            .expect("write to String");
        }
        if let Some(x) = report.extras {
            writeln!(
                out,
                "event loop: {} conns peak, depth {} max, {} binary frames, \
                 reactor {} ({} iterations, {} events, {} writev calls, {} jobs inline)",
                x.conns_peak,
                x.pipeline_depth_max,
                x.frames_binary,
                x.reactor_backend,
                x.poll_iterations,
                x.events_dispatched,
                x.writev_calls,
                x.jobs_inline
            )
            .expect("write to String");
            writeln!(
                out,
                "robustness: {} evicted, {} shed, {} retries asked, {} deadline cancels",
                x.conns_evicted, x.queries_shed, x.retries_observed, x.deadline_cancels
            )
            .expect("write to String");
        }
    }
    Ok((out, reply.failed == 0))
}

/// Streams a CSV of points into a running `serve --mutable` instance:
/// row `i` is inserted under key `--start-key + i` (an existing key is
/// an upsert), `--seal` freezes the delta into a sorted run afterwards,
/// `--binary` speaks compact frames, and `--stats` prints the server's
/// version counters once the load drains. Per-key failures are reported
/// inline and carried to the exit code, like `batch`.
fn ingest(args: &[String]) -> Result<(String, bool), String> {
    let addr = args.first().ok_or("ingest needs <host:port>")?;
    let points_path = flag_value(args, "--points").ok_or("ingest needs --points <file.csv>")?;
    let start_key: u32 = parse_num(
        flag_value(args, "--start-key").unwrap_or("0"),
        "--start-key",
    )?;
    let ds = knmatch_data::load_dataset(points_path).map_err(|e| e.to_string())?;

    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_binary(args.iter().any(|a| a == "--binary"));
    let started = std::time::Instant::now();
    let mut out = String::new();
    let mut failures = 0usize;
    let mut last_epoch = 0u64;
    for (pid, point) in ds.iter() {
        let key = start_key
            .checked_add(pid)
            .ok_or_else(|| format!("--start-key {start_key} overflows at row {pid}"))?;
        match c.insert(key, point).map_err(|e| e.to_string())? {
            Ok(epoch) => last_epoch = epoch,
            Err(e) => {
                failures += 1;
                writeln!(out, "  key {key}: error: {e}").expect("write to String");
            }
        }
    }
    if args.iter().any(|a| a == "--seal") {
        match c.seal().map_err(|e| e.to_string())? {
            Ok(epoch) => {
                last_epoch = epoch;
                writeln!(out, "sealed delta at epoch {epoch}").expect("write to String");
            }
            Err(e) => {
                failures += 1;
                writeln!(out, "seal: error: {e}").expect("write to String");
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    writeln!(
        out,
        "{} inserted / {failures} failed into {addr} in {:.1} ms ({:.0} writes/s), epoch {last_epoch}",
        ds.len() - failures.min(ds.len()),
        secs * 1e3,
        if secs > 0.0 {
            ds.len() as f64 / secs
        } else {
            f64::INFINITY
        },
    )
    .expect("write to String");
    if args.iter().any(|a| a == "--stats") {
        let report = c.stats_report().map_err(|e| e.to_string())?;
        match report.version {
            Some(v) => writeln!(
                out,
                "version: epoch {}, {} live, {} delta rows, {} run(s), {} tombstones, \
                 {} writes, {} merges",
                v.epoch, v.live, v.delta, v.runs, v.tombstones, v.writes, v.merges
            ),
            None => writeln!(out, "version: server is read-only"),
        }
        .expect("write to String");
    }
    c.quit().map_err(|e| e.to_string())?;
    Ok((out, failures == 0))
}

/// Parses the batch-wide fault-handling flags: `--deadline-ms <MS>` gives
/// every query of the batch a time budget, `--fail-fast` cancels the rest
/// of the batch after the first failure.
fn batch_options(args: &[String]) -> Result<BatchOptions, String> {
    let deadline = match flag_value(args, "--deadline-ms") {
        Some(ms) => Some(std::time::Duration::from_millis(parse_num(
            ms,
            "--deadline-ms",
        )?)),
        None => None,
    };
    let planner = match flag_value(args, "--planner") {
        Some(mode) => Some(mode.parse::<knmatch_core::PlannerMode>()?),
        None => None,
    };
    Ok(BatchOptions {
        deadline,
        fail_fast: args.iter().any(|a| a == "--fail-fast"),
        planner,
        ..BatchOptions::default()
    })
}

/// Pulls the value following `flag` out of `args`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("cannot parse {what} from '{s}'"))
}

fn generate(args: &[String]) -> Result<String, String> {
    let kind = flag_value(args, "--kind").ok_or("generate needs --kind")?;
    let out = flag_value(args, "--out").ok_or("generate needs --out")?;
    let cardinality: usize = parse_num(
        flag_value(args, "--cardinality").unwrap_or("1000"),
        "--cardinality",
    )?;
    let dims: usize = parse_num(flag_value(args, "--dims").unwrap_or("16"), "--dims")?;
    let seed: u64 = parse_num(flag_value(args, "--seed").unwrap_or("42"), "--seed")?;

    let written = match kind {
        "uniform" => {
            let ds = knmatch_data::uniform(cardinality, dims, seed);
            knmatch_data::save_dataset(out, &ds).map_err(|e| e.to_string())?;
            ds.len()
        }
        "skewed" => {
            let ds = knmatch_data::skewed(cardinality, dims, seed);
            knmatch_data::save_dataset(out, &ds).map_err(|e| e.to_string())?;
            ds.len()
        }
        "clusters" => {
            let classes: usize =
                parse_num(flag_value(args, "--classes").unwrap_or("4"), "--classes")?;
            let lds = knmatch_data::labelled_clusters(&knmatch_data::ClusterSpec::new(
                cardinality,
                dims,
                classes,
                seed,
            ));
            std::fs::write(out, knmatch_data::labelled_to_csv(&lds)).map_err(|e| e.to_string())?;
            lds.data.len()
        }
        "coil" => {
            let ds = knmatch_data::coil_like(seed);
            knmatch_data::save_dataset(out, &ds).map_err(|e| e.to_string())?;
            ds.len()
        }
        other => return Err(format!("unknown --kind '{other}'")),
    };
    Ok(format!("wrote {written} points to {out}\n"))
}

fn build(args: &[String]) -> Result<String, String> {
    let [input, output] = args else {
        return Err("build needs <data.csv> <db.knm>".into());
    };
    let ds = knmatch_data::load_dataset(input).map_err(|e| e.to_string())?;
    DiskDatabase::create_file(output, &ds, 256).map_err(|e| e.to_string())?;
    Ok(format!(
        "built {output}: {} points x {} dims ({} data pages + {} column pages)\n",
        ds.len(),
        ds.dims(),
        ds.len()
            .div_ceil(knmatch_storage::page::rows_per_page(ds.dims())),
        ds.dims() * ds.len().div_ceil(knmatch_storage::COLUMN_ENTRIES_PER_PAGE),
    ))
}

fn info(args: &[String]) -> Result<String, String> {
    let [path] = args else {
        return Err("info needs <db.knm>".into());
    };
    let db = DiskDatabase::open_file(path, 16).map_err(|e| e.to_string())?;
    Ok(format!(
        "{path}: {} points x {} dims; heap {} pages, columns {} pages\n",
        db.len(),
        db.dims(),
        db.heap().total_pages(),
        db.columns().total_pages(),
    ))
}

fn query(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("query needs <db.knm>")?;
    let point_s = flag_value(args, "--point").ok_or("query needs --point v1,v2,…")?;
    let k: usize = parse_num(flag_value(args, "-k").ok_or("query needs -k")?, "-k")?;
    let point: Vec<f64> = point_s
        .split(',')
        .map(|v| parse_num::<f64>(v.trim(), "--point coordinate"))
        .collect::<Result<_, _>>()?;

    if args.iter().any(|a| a == "--shards") {
        return query_sharded(args, path, &point, k);
    }

    let db = DiskDatabase::open_file(path, 256).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let model = CostModel::default();
    if let Some(i) = args.iter().position(|a| a == "--frequent") {
        let n0: usize = parse_num(args.get(i + 1).ok_or("--frequent needs N0 N1")?, "N0")?;
        let n1: usize = parse_num(args.get(i + 2).ok_or("--frequent needs N0 N1")?, "N1")?;
        let r = if args.iter().any(|a| a == "--auto") {
            let (r, choice) = db
                .frequent_k_n_match_auto(&point, k, n0, n1, model)
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "planner chose {:?} (estimated AD {:.1} ms vs scan {:.1} ms)",
                choice.plan, choice.ad_estimate_ms, choice.scan_estimate_ms
            )
            .expect("write to String");
            r
        } else {
            db.frequent_k_n_match(&point, k, n0, n1)
                .map_err(|e| e.to_string())?
        };
        writeln!(out, "frequent {k}-n-match, n in [{n0}, {n1}]:").expect("write to String");
        for e in &r.result.entries {
            writeln!(out, "  point {:>8}  appears {} times", e.pid, e.count)
                .expect("write to String");
        }
        writeln!(
            out,
            "cost: {} attributes, {} pages ({} seq + {} rand, {} hits), {:.1} ms modelled",
            r.ad.attributes_retrieved,
            r.io.page_accesses(),
            r.io.sequential_reads,
            r.io.random_reads,
            r.io.hits,
            r.io.response_time_ms(model)
        )
        .expect("write to String");
    } else {
        let n: usize = parse_num(
            flag_value(args, "-n").ok_or("query needs -n or --frequent")?,
            "-n",
        )?;
        let r = db.k_n_match(&point, k, n).map_err(|e| e.to_string())?;
        writeln!(out, "{k}-{n}-match (epsilon = {:.6}):", r.result.epsilon())
            .expect("write to String");
        for e in &r.result.entries {
            writeln!(out, "  point {:>8}  n-match diff {:.6}", e.pid, e.diff)
                .expect("write to String");
        }
        writeln!(
            out,
            "cost: {} attributes, {} pages ({} seq + {} rand, {} hits), {:.1} ms modelled",
            r.ad.attributes_retrieved,
            r.io.page_accesses(),
            r.io.sequential_reads,
            r.io.random_reads,
            r.io.hits,
            r.io.response_time_ms(model)
        )
        .expect("write to String");
    }
    Ok(out)
}

/// The `--shards` arm of `query`: [`EngineConfig`] loads the database's
/// points into memory as that many contiguous point-id runs, and the
/// single query is one AD walk over all of them — reporting its AD cost
/// (attributes retrieved, frontier pops) instead of the disk I/O model
/// (the run-list engine is an in-memory path).
fn query_sharded(args: &[String], path: &str, point: &[f64], k: usize) -> Result<String, String> {
    if args.iter().any(|a| a == "--auto") {
        return Err("--auto plans disk I/O; it cannot be combined with --shards".into());
    }
    let cfg = EngineConfig::from_args(args)?;
    let engine = cfg.open(path)?;

    let (query, header) = if let Some(i) = args.iter().position(|a| a == "--frequent") {
        let n0: usize = parse_num(args.get(i + 1).ok_or("--frequent needs N0 N1")?, "N0")?;
        let n1: usize = parse_num(args.get(i + 2).ok_or("--frequent needs N0 N1")?, "N1")?;
        (
            BatchQuery::Frequent {
                query: point.to_vec(),
                k,
                n0,
                n1,
            },
            format!("frequent {k}-n-match, n in [{n0}, {n1}]"),
        )
    } else {
        let n: usize = parse_num(
            flag_value(args, "-n").ok_or("query needs -n or --frequent")?,
            "-n",
        )?;
        (
            BatchQuery::KnMatch {
                query: point.to_vec(),
                k,
                n,
            },
            format!("{k}-{n}-match"),
        )
    };

    let outcome = engine
        .run(std::slice::from_ref(&query))
        .pop()
        .expect("one result per query")
        .map_err(|e| e.to_string())?;

    let mut out = format!(
        "{header} over {} shard(s), {} worker(s), in-memory:\n",
        engine.run_count().unwrap_or(1),
        engine.workers()
    );
    match outcome.answer() {
        BatchAnswer::KnMatch(r) | BatchAnswer::EpsMatch(r) => {
            for e in &r.entries {
                writeln!(out, "  point {:>8}  n-match diff {:.6}", e.pid, e.diff)
                    .expect("write to String");
            }
        }
        BatchAnswer::Frequent(r) => {
            for e in &r.entries {
                writeln!(out, "  point {:>8}  appears {} times", e.pid, e.count)
                    .expect("write to String");
            }
        }
    }
    let stats = outcome.ad_stats();
    writeln!(
        out,
        "cost: {} attributes, {} pops over {} run(s)",
        stats.attributes_retrieved,
        stats.heap_pops,
        engine.run_count().unwrap_or(1)
    )
    .expect("write to String");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("knmatch-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn end_to_end_generate_build_query() {
        let dir = tmpdir();
        let csv = dir.join("data.csv");
        let db = dir.join("data.knm");
        let out = run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "500",
            "--dims",
            "4",
            "--out",
            csv.to_str().unwrap(),
        ]))
        .unwrap()
        .0;
        assert!(out.contains("wrote 500 points"));

        let out = run(&s(&["build", csv.to_str().unwrap(), db.to_str().unwrap()]))
            .unwrap()
            .0;
        assert!(out.contains("500 points x 4 dims"));

        let out = run(&s(&["info", db.to_str().unwrap()])).unwrap().0;
        assert!(out.contains("500 points"));

        let out = run(&s(&[
            "query",
            db.to_str().unwrap(),
            "--point",
            "0.5,0.5,0.5,0.5",
            "-k",
            "3",
            "-n",
            "2",
        ]))
        .unwrap()
        .0;
        assert!(out.contains("3-2-match"));
        assert_eq!(out.matches("n-match diff").count(), 3);

        let out = run(&s(&[
            "query",
            db.to_str().unwrap(),
            "--point",
            "0.5,0.5,0.5,0.5",
            "-k",
            "2",
            "--frequent",
            "1",
            "4",
        ]))
        .unwrap()
        .0;
        assert!(out.contains("appears"));

        // The library oracle agrees on the answer-set size the CLI printed.
        let ds = knmatch_data::load_dataset(&csv).unwrap();
        let oracle = knmatch_core::k_n_match_scan(&ds, &[0.5, 0.5, 0.5, 0.5], 3, 2).unwrap();
        assert_eq!(oracle.entries.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_clusters_and_coil() {
        let dir = tmpdir();
        let f = dir.join("c.csv");
        let out = run(&s(&[
            "generate",
            "--kind",
            "clusters",
            "--cardinality",
            "60",
            "--dims",
            "5",
            "--classes",
            "3",
            "--out",
            f.to_str().unwrap(),
        ]))
        .unwrap()
        .0;
        assert!(out.contains("wrote 60"));
        let lds = knmatch_data::labelled_from_csv(&std::fs::read_to_string(&f).unwrap()).unwrap();
        assert_eq!(lds.classes(), 3);

        let out = run(&s(&[
            "generate",
            "--kind",
            "coil",
            "--out",
            f.to_str().unwrap(),
        ]))
        .unwrap()
        .0;
        assert!(out.contains("wrote 100"));
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&s(&[])).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["generate", "--kind", "nope", "--out", "/tmp/x"])).is_err());
        assert!(run(&s(&["build", "only-one-arg"])).is_err());
        assert!(run(&s(&["info", "/nonexistent/file.knm"])).is_err());
        assert!(run(&s(&[
            "query",
            "/nonexistent.knm",
            "--point",
            "1",
            "-k",
            "1",
            "-n",
            "1"
        ]))
        .is_err());
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["--point", "1,2", "-k", "5"]);
        assert_eq!(flag_value(&args, "--point"), Some("1,2"));
        assert_eq!(flag_value(&args, "-k"), Some("5"));
        assert_eq!(flag_value(&args, "--missing"), None);
        assert!(parse_num::<usize>("12", "x").is_ok());
        assert!(parse_num::<usize>("twelve", "x").is_err());
    }
}

#[cfg(test)]
mod verify_bench_tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn verify_and_bench_roundtrip() {
        let dir = std::env::temp_dir().join(format!("knmatch-cli-vb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let db = dir.join("d.knm");
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "800",
            "--dims",
            "6",
            "--out",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&["build", csv.to_str().unwrap(), db.to_str().unwrap()])).unwrap();

        let out = run(&s(&["verify", db.to_str().unwrap()])).unwrap().0;
        assert!(out.contains("OK"), "{out}");

        let out = run(&s(&[
            "bench",
            db.to_str().unwrap(),
            "-k",
            "5",
            "--frequent",
            "2",
            "4",
            "--queries",
            "4",
        ]))
        .unwrap()
        .0;
        assert!(out.contains("AD"), "{out}");
        assert!(out.contains("scan"), "{out}");
        assert!(out.contains("p95"));

        // Corrupt a value byte of the first column entry (header page +
        // heap pages, then entry 0 = 4 pid bytes + 8 value bytes); verify
        // must fail.
        let mut bytes = std::fs::read(&db).unwrap();
        let heap_pages = 800usize.div_ceil(knmatch_storage::page::rows_per_page(6));
        let off = (1 + heap_pages) * knmatch_storage::PAGE_SIZE + 4 + 3;
        bytes[off] ^= 0xFF;
        std::fs::write(&db, &bytes).unwrap();
        assert!(run(&s(&["verify", db.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn batch_runs_all_query_kinds_and_matches_single_queries() {
        let dir = std::env::temp_dir().join(format!("knmatch-cli-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "300",
            "--dims",
            "4",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "8",
            "--dims",
            "4",
            "--seed",
            "7",
            "--out",
            queries.to_str().unwrap(),
        ]))
        .unwrap();

        for workers in ["1", "4"] {
            let out = run(&s(&[
                "batch",
                data.to_str().unwrap(),
                "--queries",
                queries.to_str().unwrap(),
                "-k",
                "3",
                "-n",
                "2",
                "--workers",
                workers,
            ]))
            .unwrap()
            .0;
            assert!(out.contains("8 queries (3-2-match)"), "{out}");
            assert!(out.contains("8 ok / 0 failed"), "{out}");
            // Answers are worker-count independent: check one against the
            // library oracle.
            let ds = knmatch_data::load_dataset(&data).unwrap();
            let qs = knmatch_data::load_dataset(&queries).unwrap();
            let oracle = knmatch_core::k_n_match_scan(&ds, qs.point(0), 3, 2).unwrap();
            let want: Vec<String> = oracle.ids().iter().map(|p| p.to_string()).collect();
            assert!(out.contains(&format!("#0: [{}]", want.join(", "))), "{out}");
        }

        let out = run(&s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "-k",
            "2",
            "--frequent",
            "1",
            "4",
        ]))
        .unwrap()
        .0;
        assert!(out.contains("frequent 2-n-match, n in [1, 4]"), "{out}");

        let out = run(&s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--eps",
            "0.05",
            "-n",
            "2",
        ]))
        .unwrap()
        .0;
        assert!(out.contains("eps-2-match"), "{out}");

        // Per-query failures keep the batch running but clear the all-ok
        // flag, so the process can exit non-zero.
        let (out, all_ok) = run(&s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--eps",
            "-1",
            "-n",
            "2",
        ]))
        .unwrap();
        assert!(!all_ok);
        assert!(out.contains("0 ok / 8 failed"), "{out}");
        assert_eq!(out.matches("invalid epsilon -1").count(), 8);

        // --disk runs the same batch through the DiskQueryEngine: same
        // answers, now with per-query I/O stats. Per-query lines are
        // worker-count independent (modelled on a cold private pool).
        let db = dir.join("data.knm");
        run(&s(&["build", data.to_str().unwrap(), db.to_str().unwrap()])).unwrap();
        let mem = run(&s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "-k",
            "3",
            "-n",
            "2",
        ]))
        .unwrap()
        .0;
        let mut disk_query_lines: Option<Vec<String>> = None;
        for workers in ["1", "4"] {
            let (out, all_ok) = run(&s(&[
                "batch",
                db.to_str().unwrap(),
                "--queries",
                queries.to_str().unwrap(),
                "-k",
                "3",
                "-n",
                "2",
                "--disk",
                "--workers",
                workers,
                "--pool-pages",
                "64",
            ]))
            .unwrap();
            assert!(all_ok);
            assert!(out.contains("64 pool pages"), "{out}");
            assert!(out.contains("hit ratio"), "{out}");
            let lines: Vec<String> = out
                .lines()
                .filter(|l| l.contains("ms modelled"))
                .map(str::to_string)
                .collect();
            assert_eq!(lines.len(), 8);
            // Same ids as the in-memory engine.
            for line in &lines {
                let ids = line.split(" — ").next().unwrap().trim();
                assert!(mem.contains(ids), "{ids} missing from in-memory output");
            }
            match &disk_query_lines {
                None => disk_query_lines = Some(lines),
                Some(first) => assert_eq!(first, &lines, "workers changed modelled I/O"),
            }
        }

        assert!(run(&s(&["batch", data.to_str().unwrap()])).is_err());
        assert!(run(&s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "-k",
            "3",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_planner_routes_and_reports_plans() {
        let dir = std::env::temp_dir().join(format!("knmatch-cli-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        for (path, cardinality, seed) in [(&data, "500", "1"), (&queries, "6", "9")] {
            run(&s(&[
                "generate",
                "--kind",
                "uniform",
                "--cardinality",
                cardinality,
                "--dims",
                "6",
                "--seed",
                seed,
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let base = s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "-k",
            "4",
            "-n",
            "3",
        ]);
        let plain = run(&base).unwrap().0;
        let plain_answers: Vec<&str> = plain
            .lines()
            .filter(|l| l.trim_start().starts_with('#'))
            .collect();

        for mode in ["auto", "ad", "vafile", "scan", "igrid"] {
            let mut args = base.clone();
            args.extend(s(&["--planner", mode, "--workers", "2"]));
            let (out, all_ok) = run(&args).unwrap();
            assert!(all_ok, "{out}");
            assert!(out.contains(&format!("planner {mode}")), "{out}");
            assert!(out.contains("plans:"), "{out}");
            // Planned answers are bit-identical to the plain engine's.
            for line in &plain_answers {
                assert!(out.contains(line.trim()), "missing {line:?} in {out}");
            }
        }

        // Forced scan tallies every query under scan.
        let mut args = base.clone();
        args.extend(s(&["--planner", "scan"]));
        let (out, _) = run(&args).unwrap();
        assert!(
            out.contains("plans: 0 ad, 0 vafile, 6 scan, 0 igrid"),
            "{out}"
        );

        // The planner is in-memory only, and modes must parse.
        let mut args = base.clone();
        args.extend(s(&["--planner", "auto", "--disk"]));
        assert!(run(&args).unwrap_err().contains("--planner"));
        let mut args = base;
        args.extend(s(&["--planner", "fastest"]));
        assert!(run(&args).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn deadline_and_fail_fast_flags() {
        let dir = std::env::temp_dir().join(format!("knmatch-cli-dl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "200",
            "--dims",
            "4",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "6",
            "--dims",
            "4",
            "--seed",
            "9",
            "--out",
            queries.to_str().unwrap(),
        ]))
        .unwrap();
        let base = s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "-k",
            "3",
            "-n",
            "2",
        ]);

        // An expired deadline fails every query in its own slot.
        let mut args = base.clone();
        args.extend(s(&["--deadline-ms", "0"]));
        let (out, all_ok) = run(&args).unwrap();
        assert!(!all_ok);
        assert!(out.contains("0 ok / 6 failed"), "{out}");
        assert_eq!(out.matches("query deadline exceeded").count(), 6);

        // A generous deadline changes nothing.
        let mut args = base.clone();
        args.extend(s(&["--deadline-ms", "60000"]));
        let (out, all_ok) = run(&args).unwrap();
        assert!(all_ok, "{out}");
        assert!(out.contains("6 ok / 0 failed"), "{out}");

        // --fail-fast: after the first failure (here an expired deadline)
        // the rest of the batch is cancelled. One worker gives a
        // deterministic order.
        let mut args = base.clone();
        args.extend(s(&["--deadline-ms", "0", "--fail-fast", "--workers", "1"]));
        let (out, all_ok) = run(&args).unwrap();
        assert!(!all_ok);
        assert_eq!(out.matches("query deadline exceeded").count(), 1, "{out}");
        assert_eq!(out.matches("query cancelled").count(), 5, "{out}");

        // The sharded and disk arms honour the deadline too.
        let mut args = base.clone();
        args.extend(s(&["--shards", "2", "--deadline-ms", "0"]));
        let (out, all_ok) = run(&args).unwrap();
        assert!(!all_ok);
        assert!(out.contains("query deadline exceeded"), "{out}");

        let db = dir.join("data.knm");
        run(&s(&["build", data.to_str().unwrap(), db.to_str().unwrap()])).unwrap();
        let (out, all_ok) = run(&s(&[
            "batch",
            db.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "-k",
            "3",
            "-n",
            "2",
            "--disk",
            "--deadline-ms",
            "0",
        ]))
        .unwrap();
        assert!(!all_ok);
        assert!(out.contains("query deadline exceeded"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod auto_plan_tests {
    use super::*;

    #[test]
    fn auto_flag_reports_the_plan() {
        let dir = std::env::temp_dir().join(format!("knmatch-cli-auto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("a.csv");
        let db = dir.join("a.knm");
        let s = |parts: &[&str]| parts.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "2000",
            "--dims",
            "8",
            "--out",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&["build", csv.to_str().unwrap(), db.to_str().unwrap()])).unwrap();
        let point = "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5";
        let out = run(&s(&[
            "query",
            db.to_str().unwrap(),
            "--point",
            point,
            "-k",
            "5",
            "--frequent",
            "2",
            "4",
            "--auto",
        ]))
        .unwrap()
        .0;
        assert!(out.contains("planner chose"), "{out}");
        assert!(out.contains("appears"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod ingest_tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    /// `ingest` streams a CSV into a mutable server (keys offset by
    /// `--start-key`), `--seal` freezes the delta, and both `ingest
    /// --stats` and `client --stats` print the version counter line.
    /// `serve` itself blocks until shutdown, so the server side binds
    /// through the same [`EngineConfig`] grammar the command uses, once
    /// per reactor backend the host offers.
    #[cfg(unix)]
    #[test]
    fn ingest_streams_points_into_a_mutable_server() {
        for reactor in [
            knmatch_server::ReactorChoice::Poll,
            #[cfg(target_os = "linux")]
            knmatch_server::ReactorChoice::Epoll,
        ] {
            ingest_round_trip(knmatch_server::ServerConfig {
                reactor,
                ..Default::default()
            });
        }
        assert!(run(&s(&["ingest"])).is_err());
        assert!(run(&s(&["ingest", "127.0.0.1:1"])).is_err());
    }

    #[cfg(unix)]
    fn ingest_round_trip(server_cfg: knmatch_server::ServerConfig) {
        let dir = std::env::temp_dir().join(format!(
            "knmatch-cli-ingest-{}-{}",
            std::process::id(),
            server_cfg.reactor
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let extra = dir.join("extra.csv");
        let queries = dir.join("queries.csv");
        for (path, cardinality, seed) in [
            (&data, "100", "42"),
            (&extra, "20", "7"),
            (&queries, "4", "9"),
        ] {
            run(&s(&[
                "generate",
                "--kind",
                "uniform",
                "--cardinality",
                cardinality,
                "--dims",
                "4",
                "--seed",
                seed,
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let ds = knmatch_data::load_dataset(&data).unwrap();

        let cfg = EngineConfig::from_args(&s(&["--mutable", "--merge-threshold", "8"])).unwrap();
        let server =
            EventServer::bind(cfg.build_in_memory(&ds), "127.0.0.1:0", server_cfg.clone()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        std::thread::scope(|sc| {
            let serving = sc.spawn(|| server.serve().unwrap());
            let (out, all_ok) = run(&s(&[
                "ingest",
                &addr,
                "--points",
                extra.to_str().unwrap(),
                "--start-key",
                "1000",
                "--seal",
                "--stats",
            ]))
            .unwrap();
            assert!(all_ok, "{out}");
            assert!(out.contains("20 inserted / 0 failed"), "{out}");
            assert!(out.contains("sealed delta at epoch"), "{out}");
            assert!(out.contains("version: epoch"), "{out}");
            assert!(out.contains("120 live"), "{out}");

            let (out, all_ok) = run(&s(&[
                "client",
                &addr,
                "--queries",
                queries.to_str().unwrap(),
                "-k",
                "3",
                "-n",
                "2",
                "--stats",
            ]))
            .unwrap();
            assert!(all_ok, "{out}");
            assert!(out.contains("version: epoch"), "{out}");
            handle.shutdown();
            serving.join().unwrap();
        });

        // Against a read-only server every insert fails, the failures
        // are itemised, and the all-ok flag clears for the exit code.
        let server = EventServer::bind(
            EngineConfig::default().build_in_memory(&ds),
            "127.0.0.1:0",
            server_cfg,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        std::thread::scope(|sc| {
            let serving = sc.spawn(|| server.serve().unwrap());
            let (out, all_ok) =
                run(&s(&["ingest", &addr, "--points", extra.to_str().unwrap()])).unwrap();
            assert!(!all_ok);
            assert!(out.contains("0 inserted / 20 failed"), "{out}");
            assert!(out.contains("immutable"), "{out}");
            handle.shutdown();
            serving.join().unwrap();
        });

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod sharded_cli_tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    /// What `--shards N` resolves to on this host (single-CPU hosts
    /// collapse every shard request to 1).
    fn effective_shards(requested: &str) -> String {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cpus == 1 {
            "1".to_string()
        } else {
            requested.to_string()
        }
    }

    /// The per-query answer lines of a batch run, header/footer stripped.
    fn answer_lines(out: &str) -> Vec<String> {
        out.lines()
            .filter(|l| l.trim_start().starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn batch_shards_match_unsharded_and_reject_disk() {
        let dir = std::env::temp_dir().join(format!("knmatch-cli-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "400",
            "--dims",
            "5",
            "--out",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "6",
            "--dims",
            "5",
            "--seed",
            "11",
            "--out",
            queries.to_str().unwrap(),
        ]))
        .unwrap();

        let base = s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "-k",
            "4",
            "-n",
            "3",
        ]);
        let plain = run(&base).unwrap().0;
        for shards in ["1", "3"] {
            let mut args = base.clone();
            args.extend(s(&["--shards", shards, "--workers", "2"]));
            let (out, all_ok) = run(&args).unwrap();
            assert!(all_ok);
            // A single-CPU host collapses any shard request to 1.
            let shown = effective_shards(shards);
            assert!(out.contains(&format!("{shown} shard(s)")), "{out}");
            assert_eq!(
                answer_lines(&out),
                answer_lines(&plain),
                "sharded ids diverged at --shards {shards}"
            );
        }

        // Frequent queries shard too.
        let mut args = s(&[
            "batch",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "-k",
            "3",
            "--frequent",
            "1",
            "5",
        ]);
        let plain = run(&args).unwrap().0;
        args.extend(s(&["--shards", "4"]));
        let sharded = run(&args).unwrap().0;
        assert_eq!(answer_lines(&sharded), answer_lines(&plain));

        // --shards is the in-memory engine; --disk must be rejected.
        let mut args = base.clone();
        args.extend(s(&["--shards", "2", "--disk"]));
        let err = run(&args).unwrap_err();
        assert!(err.contains("cannot be combined with --disk"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_shards_answer_and_cost_breakdown() {
        let dir = std::env::temp_dir().join(format!("knmatch-cli-shardq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("q.csv");
        let db = dir.join("q.knm");
        run(&s(&[
            "generate",
            "--kind",
            "uniform",
            "--cardinality",
            "300",
            "--dims",
            "4",
            "--out",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&["build", csv.to_str().unwrap(), db.to_str().unwrap()])).unwrap();

        let point = "0.5,0.5,0.5,0.5";
        let plain = run(&s(&[
            "query",
            db.to_str().unwrap(),
            "--point",
            point,
            "-k",
            "3",
            "-n",
            "2",
        ]))
        .unwrap()
        .0;
        let plain_ids: Vec<&str> = plain
            .lines()
            .filter(|l| l.contains("n-match diff"))
            .collect();
        assert_eq!(plain_ids.len(), 3);

        let out = run(&s(&[
            "query",
            db.to_str().unwrap(),
            "--point",
            point,
            "-k",
            "3",
            "-n",
            "2",
            "--shards",
            "4",
            "--workers",
            "2",
        ]))
        .unwrap()
        .0;
        let shown = effective_shards("4");
        assert!(out.contains(&format!("{shown} shard(s)")), "{out}");
        // Same answer lines as the disk path, in the same order.
        for line in &plain_ids {
            assert!(out.contains(line.trim()), "missing {line:?} in {out}");
        }
        // One walk, one cost line: attributes, pops, and the run count.
        let cost = out.lines().find(|l| l.starts_with("cost:")).unwrap();
        assert!(cost.contains(" attributes, "), "{cost}");
        assert!(
            cost.ends_with(&format!(" pops over {shown} run(s)")),
            "{cost}"
        );

        let out = run(&s(&[
            "query",
            db.to_str().unwrap(),
            "--point",
            point,
            "-k",
            "2",
            "--frequent",
            "1",
            "4",
            "--shards",
            "3",
        ]))
        .unwrap()
        .0;
        assert!(out.contains("appears"), "{out}");
        let shown = effective_shards("3");
        assert!(out.contains(&format!("{shown} shard(s)")), "{out}");

        let err = run(&s(&[
            "query",
            db.to_str().unwrap(),
            "--point",
            point,
            "-k",
            "2",
            "--frequent",
            "1",
            "4",
            "--shards",
            "3",
            "--auto",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot be combined with --shards"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
