//! The traced run: where a served query's time goes, layer by layer.
//!
//! Spans are recorded from the benchmark's side of each layer's public
//! functions (spans inside the program are a later change):
//!
//! 1. a single-threaded in-process *layer walk* over one pass of the
//!    query list — `client.encode → protocol.parse → planner.plan →
//!    engine.exec → protocol.encode → client.decode` — with the AD, page
//!    and allocation counts taken at the same boundaries;
//! 2. one served depth-1 pass with a root `request` span per query. Its
//!    self time — its duration minus the walk's spans for the same
//!    query — is what the walk cannot see: sockets, queue wait,
//!    wake-ups, `writev`. That is `reactor.residual_us`.
//!
//! Spans stay in memory and are written to `out/trace-<workload>.json`
//! when the run ends. No end-to-end metric is taken from this run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use knmatch_core::{
    AdStats, BatchEngine, BatchOptions, BatchOutcome, BatchQuery, Dataset, PlannerMode,
    VersionWriter,
};
use knmatch_server::protocol::{
    decode_request_frame, decode_response_frame, encode_query_frame, encode_response_frame,
    format_query, format_response, parse_request, parse_response,
};
use knmatch_server::{
    AnyEngine, BinRequest, Client, ClientError, PlannedEngine, Request, Response, ServerExtras,
    FRAME_HEADER_LEN,
};
use knmatch_storage::{BackendChoice, IoStats};

use crate::alloc;
use crate::e2e::{
    quiesce_check, rate, with_session, writer_detail, Ctx, Metric, Outcome, PhaseRecord,
    RaiseOnDrop, Session,
};
use crate::host;
use crate::json::{obj, Json};
use crate::manifest::PER_LAYER;
use crate::serve::{build_engine, depth1, engine_config, writer, Feed, Tally};
use crate::stats::{mean, percentile};
use crate::workload::{EngineKind, WriteOp, WriteStream};

/// Queries priced under every forced planner mode for `planner.regret`.
const REGRET_QUERIES: usize = 256;
/// Writes replayed against a bare `VersionWriter` for the per-call costs.
const REPLAY_WRITES: usize = 5000;

/// The layer walk's spans, in request order.
pub const CHAIN: [&str; 6] = [
    "client.encode",
    "protocol.parse",
    "planner.plan",
    "engine.exec",
    "protocol.encode",
    "client.decode",
];
pub const ROOT: &str = "request";

/// One recorded span. `id` is the query's index in the workload's list:
/// the request identifier every span of that query shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children may overlap each other and may stick
/// out of the parent; only the covered part inside it counts).
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Times consecutive steps and counts the allocations inside each.
struct Lap {
    at: Instant,
    allocs: u64,
}

impl Lap {
    fn start() -> Lap {
        Lap {
            at: Instant::now(),
            allocs: alloc::events(),
        }
    }

    /// Nanoseconds and allocations since the previous mark.
    fn mark(&mut self) -> (u64, u64) {
        let now = Instant::now();
        let allocs = alloc::events();
        let out = ((now - self.at).as_nanos() as u64, allocs - self.allocs);
        (self.at, self.allocs) = (now, allocs);
        out
    }

    /// Forgets whatever happened since the previous mark.
    fn skip(&mut self) {
        *self = Lap::start();
    }
}

/// What the walk saw of one query.
#[derive(Debug, Clone, Default)]
struct Walked {
    /// Durations of the `CHAIN` steps (binary codec).
    chain_ns: [u64; 6],
    chain_allocs: [u64; 6],
    /// `format_query`, `parse_request`, `format_response`,
    /// `parse_response`.
    text_ns: [u64; 4],
    ad: AdStats,
    io: Option<IoStats>,
    req_bytes: usize,
    resp_bytes: usize,
    /// Whether AD answered it (always, unless a planner routed it away).
    ad_routed: bool,
}

fn planned(engine: &AnyEngine) -> Option<&PlannedEngine> {
    match engine {
        AnyEngine::Planned(p) => Some(p),
        _ => None,
    }
}

/// One single-threaded pass over `queries` through every layer's public
/// entry point, in the order a served request meets them.
fn walk(engine: &AnyEngine, queries: &[BatchQuery]) -> Vec<Walked> {
    let planner = planned(engine);
    let mut frame = Vec::new();
    let mut reply = Vec::new();
    queries
        .iter()
        .map(|q| {
            let mut w = Walked::default();
            let mut lap = Lap::start();
            let step = |w: &mut Walked, i: usize, lap: &mut Lap| {
                (w.chain_ns[i], w.chain_allocs[i]) = lap.mark();
            };

            frame.clear();
            encode_query_frame(q, &mut frame);
            step(&mut w, 0, &mut lap);
            let parsed = decode_request_frame(frame[1], &frame[FRAME_HEADER_LEN..]);
            step(&mut w, 1, &mut lap);
            let Ok(BinRequest::One(Request::Query(query))) = parsed else {
                panic!("a query frame decodes to a query");
            };
            w.req_bytes = frame.len();

            lap.skip();
            if let Some(p) = planner {
                let choice = p.plan_for(&query).expect("valid query");
                step(&mut w, 2, &mut lap);
                w.ad_routed = choice.backend == BackendChoice::Ad;
            } else {
                w.ad_routed = true;
            }

            let outcome = engine
                .run(std::slice::from_ref(&query))
                .pop()
                .expect("one outcome per query")
                .expect("valid query");
            step(&mut w, 3, &mut lap);
            // A planned engine plans again inside `run`: what is left
            // after taking the planning out is the execution.
            if planner.is_some() {
                w.chain_ns[3] = w.chain_ns[3].saturating_sub(w.chain_ns[2]);
            }
            w.ad = outcome.ad_stats();
            w.io = outcome.io().copied();
            let response = Response::Answer(outcome.into_answer());

            lap.skip();
            reply.clear();
            encode_response_frame(&response, &mut reply);
            step(&mut w, 4, &mut lap);
            let decoded = decode_response_frame(reply[1], &reply[FRAME_HEADER_LEN..]);
            step(&mut w, 5, &mut lap);
            black_box(decoded.expect("an answer frame decodes"));
            w.resp_bytes = reply.len();

            lap.skip();
            let line = format_query(q);
            w.text_ns[0] = lap.mark().0;
            black_box(parse_request(&line).expect("a query line parses"));
            w.text_ns[1] = lap.mark().0;
            let line = format_response(&response);
            w.text_ns[2] = lap.mark().0;
            black_box(parse_response(&line).expect("an answer line parses"));
            w.text_ns[3] = lap.mark().0;
            w
        })
        .collect()
}

/// Mean of one per-query nanosecond field, in microseconds.
fn mean_us(walked: &[Walked], f: impl Fn(&Walked) -> u64) -> f64 {
    mean(&walked.iter().map(|w| f(w) as f64 / 1e3).collect::<Vec<_>>())
}

fn mean_of(walked: &[Walked], f: impl Fn(&Walked) -> f64) -> f64 {
    mean(&walked.iter().map(f).collect::<Vec<_>>())
}

/// Whole-list throughput of `engine.run`, no sockets: passes repeat
/// until a second has gone by.
fn direct_qps(engine: &AnyEngine, queries: &[BatchQuery]) -> f64 {
    let start = Instant::now();
    let mut done = 0usize;
    while done == 0 || start.elapsed().as_secs_f64() < 1.0 {
        let outcomes = engine.run(queries);
        assert!(outcomes.iter().all(Result::is_ok), "direct run failed");
        done += black_box(outcomes).len();
    }
    done as f64 / start.elapsed().as_secs_f64()
}

/// Mean µs of `engine.run` on one query at a time.
fn exec_us(engine: &AnyEngine, queries: &[BatchQuery]) -> f64 {
    let start = Instant::now();
    for q in queries {
        let out = engine.run(std::slice::from_ref(q));
        assert!(out[0].is_ok(), "direct run failed");
        black_box(out);
    }
    start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
}

struct PlannerCosts {
    regret: f64,
    misroute_ratio: f64,
}

/// Prices the first `REGRET_QUERIES` queries under `auto` and under
/// every forced backend `auto` can choose.
fn planner_costs(engine: &AnyEngine, p: &PlannedEngine, queries: &[BatchQuery]) -> PlannerCosts {
    // The second of two runs: every mode then finds the query's data as
    // warm as the others do, whichever ran first.
    let timed = |q: &BatchQuery, mode: PlannerMode| {
        let opts = BatchOptions {
            planner: Some(mode),
            ..BatchOptions::default()
        };
        let mut ns = 0.0;
        for _ in 0..2 {
            let start = Instant::now();
            let out = engine.run_with(std::slice::from_ref(q), &opts);
            ns = start.elapsed().as_nanos() as f64;
            assert!(out[0].is_ok(), "forced-mode run failed");
            black_box(out);
        }
        ns
    };
    let (mut auto_ns, mut best_ns, mut misrouted) = (0.0, 0.0, 0usize);
    let sample = &queries[..REGRET_QUERIES.min(queries.len())];
    for q in sample {
        let forced = [PlannerMode::Ad, PlannerMode::VaFile, PlannerMode::Scan].map(|m| timed(q, m));
        let best = forced.iter().copied().fold(f64::INFINITY, f64::min);
        let chosen = match p.plan_for(q).expect("valid query").backend {
            BackendChoice::Ad => forced[0],
            BackendChoice::VaFile => forced[1],
            BackendChoice::Scan => forced[2],
        };
        auto_ns += timed(q, PlannerMode::Auto);
        best_ns += best;
        misrouted += usize::from(chosen > 1.2 * best);
    }
    PlannerCosts {
        regret: auto_ns / best_ns,
        misroute_ratio: misrouted as f64 / sample.len() as f64,
    }
}

/// One depth-1 pass over the whole list on connection 0, in list order.
/// Returns each query's `(start, end)` in nanoseconds since `origin`.
fn depth1_pass(
    session: &mut Session<'_>,
    ctx: &Ctx,
    origin: Instant,
) -> Result<(Tally, Vec<(u64, u64)>), String> {
    let feed = Feed::one_pass(0, 1, ctx.queries.len());
    let (tally, trips) = depth1(
        &mut session.readers[0],
        &ctx.queries,
        feed,
        ctx.timed_check(),
    )
    .map_err(|e| e.to_string())?;
    let spans = trips
        .iter()
        .map(|&(sent, took)| {
            let start = (sent - origin).as_nanos() as u64;
            (start, start + took.as_nanos() as u64)
        })
        .collect();
    Ok((tally, spans))
}

/// The walk's spans for query `id`, laid end to end from the served
/// request's start and cut off at its end.
fn rebased_children(root: (u64, u64), walked: &Walked, id: u32) -> Vec<Span> {
    let mut at = root.0;
    CHAIN
        .iter()
        .zip(walked.chain_ns)
        .filter(|(_, ns)| *ns > 0)
        .map(|(name, ns)| {
            let start = at.min(root.1);
            at += ns;
            Span {
                id,
                name,
                parent: Some(ROOT),
                start_ns: start,
                end_ns: at.min(root.1),
            }
        })
        .collect()
}

fn reactor_counters(session: &mut Session<'_>) -> Result<ServerExtras, String> {
    session.readers[0]
        .stats_report()
        .map_err(|e| e.to_string())?
        .extras
        .ok_or_else(|| "the event server reports no reactor counters".to_string())
}

/// Per-layer values by metric name; what is never set reads 0 (the
/// layer does not exist on this workload).
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name), m.unit))
            .collect()
    }
}

/// The traced run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut phases = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut span_counts: Vec<Json> = Vec::new();
    layers.set("host.calib_before_ns", host::calibrate());
    layers.set("host.nproc", ctx.nproc as f64);

    let traced = with_session(ctx, ctx.spec.engine, 1, |session, times, verified| {
        phases.push(PhaseRecord::of("verification", times.verify_s, verified));
        layers.set("storage.create_s", times.create_s);
        layers.set("storage.open_s", times.open_s);
        match ctx.spec.engine {
            EngineKind::Planned => layers.set("planner.build_s", times.build_s),
            EngineKind::Disk { .. } => {}
            _ => layers.set("columns.build_s", times.build_s),
        }
        let engine = session.server.engine();
        let n = ctx.queries.len() as f64;
        let check = ctx.timed_check();

        // A second, warm pass: against the verification pass (the first
        // touch of every page) it prices first-read checksum work.
        let warm_from = Instant::now();
        let warm = session.pass(ctx, check)?;
        let warm_s = warm_from.elapsed().as_secs_f64();
        phases.push(PhaseRecord::of("warm-pass", warm_s, &warm));
        if let EngineKind::Disk { .. } = ctx.spec.engine {
            layers.set("storage.first_pass_ratio", times.verify_s / warm_s);
        }

        // A third pass between two STATS reads: the reactor's, the
        // pool's and the planner's counters per query.
        let before = reactor_counters(session)?;
        let (pool0, plans0) = (engine.pool_stats(), engine.plan_counts());
        let counted_from = Instant::now();
        let counted = session.pass(ctx, check)?;
        let counted_s = counted_from.elapsed().as_secs_f64();
        let after = reactor_counters(session)?;
        phases.push(PhaseRecord::of("counted-pass", counted_s, &counted));
        let polls = (after.poll_iterations - before.poll_iterations) as f64;
        layers.set("reactor.polls_per_query", polls / n);
        layers.set(
            "reactor.events_per_poll",
            (after.events_dispatched - before.events_dispatched) as f64 / polls.max(1.0),
        );
        layers.set(
            "reactor.writev_per_query",
            (after.writev_calls - before.writev_calls) as f64 / n,
        );
        layers.set(
            "reactor.pipeline_depth_max",
            after.pipeline_depth_max as f64,
        );
        if let (Some(a), Some(b)) = (pool0, engine.pool_stats()) {
            let hits = (b.hits - a.hits) as f64;
            let reads = (b.page_accesses() - a.page_accesses()) as f64;
            layers.set("storage.pool_hit_ratio", hits / (hits + reads).max(1.0));
            layers.set("storage.store_reads_per_query", reads / n);
            layers.set("storage.retries", (b.retries - a.retries) as f64);
        }
        if let (Some(a), Some(b)) = (plans0, engine.plan_counts()) {
            set_shares(&mut layers, a, b);
        }

        // Depth-1, first without and then with span recording and
        // allocation counting: the ratio is the tracing overhead.
        let origin = Instant::now();
        let plain_from = Instant::now();
        let (tally, plain) = depth1_pass(session, ctx, origin)?;
        let plain_s = plain_from.elapsed().as_secs_f64();
        phases.push(PhaseRecord::of("depth-1-untraced", plain_s, &tally));
        let mut lat: Vec<f64> = plain.iter().map(|(s, e)| (e - s) as f64 / 1e3).collect();
        lat.sort_by(f64::total_cmp);
        layers.set("client.lat_p99_us", percentile(&lat, 0.99));
        layers.set("client.lat_max_us", percentile(&lat, 1.0));

        alloc::set_counting(true);
        let allocs_from = alloc::events();
        let traced_from = Instant::now();
        let (tally, roots) = depth1_pass(session, ctx, origin)?;
        let traced_s = traced_from.elapsed().as_secs_f64();
        let served_allocs = (alloc::events() - allocs_from) as f64 / n;
        phases.push(PhaseRecord::of("depth-1-traced", traced_s, &tally));
        layers.set("host.trace_overhead_ratio", traced_s / plain_s);

        // The layer walk: once to warm up, once counted.
        alloc::set_counting(false);
        black_box(walk(engine, &ctx.queries));
        alloc::set_counting(true);
        let walked = walk(engine, &ctx.queries);
        alloc::set_counting(false);

        let mut residual_us = Vec::with_capacity(roots.len());
        for (i, (root, w)) in roots.iter().zip(&walked).enumerate() {
            let children = rebased_children(*root, w, i as u32);
            let covered: Vec<(u64, u64)> =
                children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
            residual_us.push(self_time_ns(*root, &covered) as f64 / 1e3);
            spans.push(Span {
                id: i as u32,
                name: ROOT,
                parent: None,
                start_ns: root.0,
                end_ns: root.1,
            });
            spans.extend(children);
            span_counts.push(obj([
                ("attrs", Json::from(w.ad.attributes_retrieved)),
                ("pops", Json::from(w.ad.heap_pops)),
                ("locate_probes", Json::from(w.ad.locate_probes)),
                (
                    "pages",
                    w.io.map_or(Json::Null, |io| Json::from(io.page_accesses())),
                ),
                ("allocs", Json::from(w.chain_allocs.iter().sum::<u64>())),
                ("walk_ns", Json::from(w.chain_ns.iter().sum::<u64>())),
            ]));
        }
        layers.set("reactor.residual_us", mean(&residual_us));
        set_walk_layers(&mut layers, ctx, &walked);
        let walk_allocs = mean_of(&walked, |w| w.chain_allocs.iter().sum::<u64>() as f64);
        layers.set("reactor.allocs_per_query", served_allocs - walk_allocs);

        // The engine alone, then the same queries through the wire.
        let direct = direct_qps(engine, &ctx.queries);
        layers.set("engine.direct_qps", direct);
        let qps_s = (ctx.seconds * 0.15).max(0.5);
        let (tally, secs) = session.pipelined_for(ctx, qps_s, check)?;
        phases.push(PhaseRecord::of("qps", secs, &tally));
        layers.set("reactor.wire_efficiency", rate(&tally, secs) / direct);

        if let Some(p) = planned(engine) {
            let costs = planner_costs(engine, p, &ctx.queries);
            layers.set("planner.regret", costs.regret);
            layers.set("planner.misroute_ratio", costs.misroute_ratio);
        }
        if ctx.is_mutable() {
            ingest_layers(ctx, session, &mut layers, &mut phases)?;
        }
        Ok(())
    });
    let db = ctx.db_path();
    let finish = traced.and_then(|()| beside_the_served_engine(ctx, &db, &mut layers, &mut phases));
    let _ = std::fs::remove_file(&db);
    finish?;

    layers.set("host.calib_after_ns", host::calibrate());
    let trace_path = ctx.out_dir.join(format!("trace-{}.json", ctx.spec.name));
    write_trace(&trace_path, ctx, &spans, &span_counts)?;
    Ok(Outcome {
        metrics: layers.metrics(),
        phases,
        detail: obj([
            ("prepare_s", Json::from(ctx.prepare_s)),
            ("trace_file", Json::from(trace_path.display().to_string())),
            ("spans", Json::from(spans.len())),
        ]),
    })
}

fn set_shares(layers: &mut Layers, a: knmatch_core::PlanTally, b: knmatch_core::PlanTally) {
    let total = (b.total() - a.total()).max(1) as f64;
    layers.set("planner.share_ad", (b.ad - a.ad) as f64 / total);
    layers.set("planner.share_vafile", (b.vafile - a.vafile) as f64 / total);
    layers.set("planner.share_scan", (b.scan - a.scan) as f64 / total);
}

fn set_walk_layers(layers: &mut Layers, ctx: &Ctx, walked: &[Walked]) {
    layers.set("client.encode_us.bin", mean_us(walked, |w| w.chain_ns[0]));
    layers.set("protocol.parse_us.bin", mean_us(walked, |w| w.chain_ns[1]));
    layers.set("planner.plan_us", mean_us(walked, |w| w.chain_ns[2]));
    layers.set("engine.exec_us", mean_us(walked, |w| w.chain_ns[3]));
    layers.set("protocol.encode_us.bin", mean_us(walked, |w| w.chain_ns[4]));
    layers.set("client.decode_us.bin", mean_us(walked, |w| w.chain_ns[5]));
    layers.set("client.encode_us.text", mean_us(walked, |w| w.text_ns[0]));
    layers.set("protocol.parse_us.text", mean_us(walked, |w| w.text_ns[1]));
    layers.set("protocol.encode_us.text", mean_us(walked, |w| w.text_ns[2]));
    layers.set("client.decode_us.text", mean_us(walked, |w| w.text_ns[3]));
    layers.set(
        "protocol.req_bytes",
        mean_of(walked, |w| w.req_bytes as f64),
    );
    layers.set(
        "protocol.resp_bytes",
        mean_of(walked, |w| w.resp_bytes as f64),
    );
    layers.set(
        "protocol.allocs_per_query",
        mean_of(walked, |w| (w.chain_allocs[1] + w.chain_allocs[4]) as f64),
    );
    layers.set(
        "engine.allocs_per_query",
        mean_of(walked, |w| w.chain_allocs[3] as f64),
    );
    let attrs = mean_of(walked, |w| w.ad.attributes_retrieved as f64);
    layers.set("engine.attrs_per_query", attrs);
    layers.set(
        "engine.pops_per_query",
        mean_of(walked, |w| w.ad.heap_pops as f64),
    );
    layers.set(
        "engine.locate_probes_per_query",
        mean_of(walked, |w| w.ad.locate_probes as f64),
    );
    layers.set(
        "engine.retrieved_fraction",
        attrs / (ctx.spec.cardinality * ctx.spec.dims) as f64,
    );
    let (ad_ns, ad_attrs) = walked
        .iter()
        .filter(|w| w.ad_routed)
        .fold((0u64, 0u64), |(ns, at), w| {
            (ns + w.chain_ns[3], at + w.ad.attributes_retrieved)
        });
    layers.set("engine.ns_per_attr", ad_ns as f64 / ad_attrs.max(1) as f64);
    let ios: Vec<IoStats> = walked.iter().filter_map(|w| w.io).collect();
    if !ios.is_empty() {
        let pages: u64 = ios.iter().map(IoStats::page_accesses).sum();
        let seq: u64 = ios.iter().map(|io| io.sequential_reads).sum();
        layers.set("storage.pages_per_query", pages as f64 / ios.len() as f64);
        layers.set("storage.seq_share", seq as f64 / pages.max(1) as f64);
    }
}

/// What needs a second engine beside the served one: two engine
/// workers, the planner on a workload served without one, the same
/// queries from memory on the disk workload.
fn beside_the_served_engine(
    ctx: &Ctx,
    db: &Path,
    layers: &mut Layers,
    phases: &mut Vec<PhaseRecord>,
) -> Result<(), String> {
    let kind = ctx.spec.engine;
    let direct_w1 = layers.get("engine.direct_qps");
    let two = match kind {
        // The file is still there: open it again, do not rewrite it.
        EngineKind::Disk { .. } => engine_config(kind, 2)?.open(&db.to_string_lossy())?,
        _ => engine_config(kind, 2)?.build_in_memory(&ctx.ds),
    };
    // Two workers on the run's one core could only lose: let this one
    // measurement use every core the process was given.
    if let Some((_, allowed)) = &ctx.pinned {
        host::allow_cpus(allowed);
    }
    let direct_w2 = direct_qps(&two, &ctx.queries);
    if ctx.pinned.is_some() {
        host::pin_to_last_cpu();
    }
    layers.set("engine.w2_speedup", direct_w2 / direct_w1);
    drop(two);

    match kind {
        EngineKind::Plain => {
            // The same data behind planner(auto): what planning costs
            // when the query itself costs almost nothing.
            let served = with_session(ctx, EngineKind::Planned, 1, |session, times, verified| {
                phases.push(PhaseRecord::of(
                    "verification-planned",
                    times.verify_s,
                    verified,
                ));
                layers.set("planner.build_s", times.build_s);
                let engine = session.server.engine();
                let plans0 = engine.plan_counts();
                let (tally, secs) =
                    session.pipelined_for(ctx, (ctx.seconds * 0.15).max(0.5), ctx.timed_check())?;
                phases.push(PhaseRecord::of("qps-planned", secs, &tally));
                layers.set("planner.qps_planned", rate(&tally, secs));
                if let (Some(a), Some(b)) = (plans0, engine.plan_counts()) {
                    set_shares(layers, a, b);
                }
                let p = planned(engine).expect("a planned engine was asked for");
                let start = Instant::now();
                for q in &ctx.queries {
                    black_box(p.plan_for(q).expect("valid query"));
                }
                layers.set(
                    "planner.plan_us",
                    start.elapsed().as_secs_f64() * 1e6 / ctx.queries.len() as f64,
                );
                let costs = planner_costs(engine, p, &ctx.queries);
                layers.set("planner.regret", costs.regret);
                layers.set("planner.misroute_ratio", costs.misroute_ratio);
                Ok(())
            });
            served?;
        }
        EngineKind::Planned => {
            let plain = build_engine(EngineKind::Plain, &ctx.ds, 1, db)?;
            layers.set("columns.build_s", plain.build_s);
        }
        EngineKind::Disk { .. } => {
            let bytes = std::fs::metadata(db)
                .map_err(|e| format!("{}: {e}", db.display()))?
                .len();
            layers.set(
                "storage.space_amp",
                bytes as f64 / (ctx.spec.cardinality * ctx.spec.dims * 8) as f64,
            );
            let memory = build_engine(EngineKind::Plain, &ctx.ds, 1, db)?;
            layers.set("columns.build_s", memory.build_s);
            let disk = engine_config(kind, 1)?.open(&db.to_string_lossy())?;
            // Warm the pool the way the served engine's was.
            black_box(exec_us(&disk, &ctx.queries));
            layers.set(
                "storage.exec_over_memory",
                exec_us(&disk, &ctx.queries) / exec_us(&memory.engine, &ctx.queries),
            );
        }
        EngineKind::Mutable { .. } => replay_writes(ctx, layers)?,
    }
    Ok(())
}

/// The ingest workload's own phases, on the live session: reads beside
/// the paced writer with the version counters sampled once a second,
/// then the writer alone and closed loop, then — writes quiesced — the
/// exactness check and the read amplification of the churned index.
fn ingest_layers(
    ctx: &Ctx,
    session: &mut Session<'_>,
    layers: &mut Layers,
    phases: &mut Vec<PhaseRecord>,
) -> Result<(), String> {
    let rate = ctx
        .spec
        .write_rate
        .expect("the mutable workload is written");
    let addr = session.addr;
    let check = ctx.timed_check();
    let stats = |session: &Session<'_>| {
        session
            .server
            .engine()
            .writer()
            .expect("mutable engine")
            .version_stats()
    };
    let merges_before = stats(session).merges;
    let mut stream = WriteStream::new(&ctx.ds, ctx.seed);

    // Mixed: reads beside the paced writer, one compaction cycle per
    // burst, while a sampler reads the version counters twenty times a
    // second (in-process: the same numbers as the STATS version group,
    // without a third connection in the measurement).
    let mixed_s = (ctx.seconds * 0.3).max(1.0);
    let stop = AtomicBool::new(false);
    let index = session.server.engine().writer().expect("mutable engine");
    let (paced, samples) = std::thread::scope(|s| {
        let raise = RaiseOnDrop(&stop);
        let (stop, stream) = (&stop, &mut stream);
        let writing = s.spawn(move || {
            Client::connect(addr)
                .map_err(ClientError::from)
                .and_then(|mut c| writer(&mut c, stream, Some(rate), stop))
        });
        let sampling = s.spawn(move || {
            let mut samples = Vec::new();
            // Relaxed: the flag publishes nothing but itself.
            while !stop.load(Ordering::Relaxed) {
                samples.push(index.version_stats());
                std::thread::sleep(Duration::from_millis(50));
            }
            samples
        });
        session.cycle_aligned = true;
        let mut reads = Tally::default();
        let burst_s = mixed_s.min(1.0);
        let from = Instant::now();
        for _ in 0..(mixed_s / burst_s).ceil() as usize {
            let (tally, _) = session.pipelined_for(ctx, burst_s, check)?;
            reads.merge(&tally);
        }
        let reads_s = from.elapsed().as_secs_f64();
        phases.push(PhaseRecord::of("mixed-reads", reads_s, &reads));
        session.cycle_aligned = false;
        drop(raise);
        let paced = writing
            .join()
            .expect("writer thread")
            .map_err(|e| format!("writer: {e}"))?;
        Ok::<_, String>((paced, sampling.join().expect("sampler thread")))
    })?;
    phases.push(PhaseRecord::of_writer("paced-writer", &paced));
    let count = samples.len() as f64;
    layers.set(
        "versioned.runs_mean",
        samples.iter().map(|s| s.runs as f64).sum::<f64>() / count,
    );
    layers.set(
        "versioned.runs_max",
        samples.iter().map(|s| s.runs).max().unwrap_or(0) as f64,
    );
    layers.set(
        "versioned.delta_mean",
        samples.iter().map(|s| s.delta_len as f64).sum::<f64>() / count,
    );
    layers.set(
        "versioned.tombstones_max",
        samples.iter().map(|s| s.tombstones).max().unwrap_or(0) as f64,
    );
    let detail = writer_detail(&paced);
    let number = |key: &str| detail.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    layers.set("versioned.write_lat_p95_us", number("lat_from_due_p95_us"));
    layers.set("versioned.writer_late_ms", number("generator_late_p99_ms"));

    // The writer alone, as fast as replies come.
    let alone_s = (ctx.seconds * 0.15).max(0.5);
    let stop = AtomicBool::new(false);
    let alone = std::thread::scope(|s| {
        let (stop_ref, stream) = (&stop, &mut stream);
        let writing = s.spawn(move || {
            Client::connect(addr)
                .map_err(ClientError::from)
                .and_then(|mut c| writer(&mut c, stream, None, stop_ref))
        });
        std::thread::sleep(Duration::from_secs_f64(alone_s));
        // Relaxed: the flag publishes nothing but itself.
        stop.store(true, Ordering::Relaxed);
        writing.join().expect("writer thread")
    })
    .map_err(|e| format!("writer: {e}"))?;
    phases.push(PhaseRecord::of_writer("closed-loop-writer", &alone));
    layers.set("versioned.write_ops_s", alone.ok as f64 / alone.elapsed_s);
    layers.set(
        "versioned.merges",
        (stats(session).merges - merges_before) as f64,
    );

    phases.push(quiesce_check(session, ctx, &stream)?);
    Ok(())
}

/// The same write stream against a bare `VersionWriter`, call by call.
/// The index never seals on its own here: the benchmark seals at the
/// workload's threshold and compacts when due, so each of the four
/// calls is timed apart from the others.
fn replay_writes(ctx: &Ctx, layers: &mut Layers) -> Result<(), String> {
    let EngineKind::Mutable { merge_threshold } = ctx.spec.engine else {
        return Ok(());
    };
    let bare = engine_config(
        EngineKind::Mutable {
            merge_threshold: usize::MAX,
        },
        1,
    )?
    .build_in_memory(&ctx.ds);
    let w: &dyn VersionWriter = bare.writer().expect("mutable engine");
    let mut stream = WriteStream::new(&ctx.ds, ctx.seed);
    let (mut insert, mut remove, mut seal, mut maintain) = (vec![], vec![], vec![], vec![]);
    let us = |from: Instant| from.elapsed().as_secs_f64() * 1e6;
    // Replay at least `REPLAY_WRITES` ops, then on to the next moment a
    // compaction comes due — and stop there, with the index at the far
    // end of its cycle: the most runs and tombstones a reader ever sees.
    let mut replayed = 0;
    loop {
        if w.needs_maintenance() {
            if replayed >= REPLAY_WRITES {
                break;
            }
            let from = Instant::now();
            w.maintain().map_err(|e| e.to_string())?;
            maintain.push(us(from));
        }
        replayed += 1;
        let op = stream.next_op();
        let from = Instant::now();
        match &op {
            WriteOp::Upsert { key, point } | WriteOp::Reinsert { key, point } => {
                w.insert(*key, point).map_err(|e| e.to_string())?;
                insert.push(us(from));
            }
            WriteOp::Delete { key } => {
                w.remove(*key).map_err(|e| e.to_string())?;
                remove.push(us(from));
            }
        }
        stream.apply(op);
        if w.version_stats().delta_len >= merge_threshold {
            let from = Instant::now();
            w.seal().map_err(|e| e.to_string())?;
            seal.push(us(from));
        }
    }
    layers.set("versioned.insert_us", mean(&insert));
    layers.set("versioned.remove_us", mean(&remove));
    layers.set("versioned.seal_us", mean(&seal));
    layers.set("versioned.maintain_us", mean(&maintain));

    // The churned index against a freshly built one over the same rows.
    let rows: Vec<&[f64]> = stream.live_rows().into_iter().map(|(_, p)| p).collect();
    let fresh_ds = Dataset::from_rows(&rows).map_err(|e| e.to_string())?;
    let fresh = engine_config(ctx.spec.engine, 1)?.build_in_memory(&fresh_ds);
    black_box(exec_us(&bare, &ctx.queries));
    layers.set(
        "versioned.read_amp",
        exec_us(&bare, &ctx.queries) / exec_us(&fresh, &ctx.queries),
    );
    Ok(())
}

fn write_trace(path: &Path, ctx: &Ctx, spans: &[Span], counts: &[Json]) -> Result<(), String> {
    // Self time needs each span's children: group by request id.
    let mut rendered = Vec::with_capacity(spans.len());
    let mut i = 0;
    while i < spans.len() {
        let id = spans[i].id;
        let group_end = i + spans[i..].iter().take_while(|s| s.id == id).count();
        let group = &spans[i..group_end];
        for span in group {
            let children: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.parent == Some(span.name))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            let mut fields = vec![
                ("id", Json::from(u64::from(span.id))),
                ("name", Json::from(span.name)),
                ("parent", span.parent.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                (
                    "self_ns",
                    Json::from(self_time_ns((span.start_ns, span.end_ns), &children)),
                ),
            ];
            if span.parent.is_none() {
                if let Some(c) = counts.get(span.id as usize) {
                    fields.push(("counts", c.clone()));
                }
            }
            rendered.push(obj(fields));
        }
        i = group_end;
    }
    let doc = obj([
        ("workload", Json::from(ctx.spec.name)),
        ("seed", Json::from(ctx.seed)),
        (
            "note",
            Json::from(
                "root spans are served depth-1 requests; their children were timed in the \
                 in-process layer walk of the same query and are laid end to end from the \
                 root's start, cut off at its end; a root's self_ns is the served time no \
                 walked layer accounts for",
            ),
        ),
        ("spans", Json::Arr(rendered)),
    ]);
    std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_only() {
        // Two disjoint children.
        assert_eq!(self_time_ns((100, 200), &[(110, 120), (150, 180)]), 60);
        // Overlapping children are not counted twice.
        assert_eq!(self_time_ns((100, 200), &[(110, 150), (140, 160)]), 50);
        // Children sticking out are clipped; outside ones ignored.
        assert_eq!(
            self_time_ns((100, 200), &[(50, 120), (190, 300), (300, 400)]),
            70
        );
        // No children: all self. Fully covered: none.
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        assert_eq!(self_time_ns((100, 200), &[(0, 500)]), 0);
    }

    #[test]
    fn rebased_children_and_root_self_time_sum_to_the_root() {
        let walked = Walked {
            chain_ns: [10, 20, 0, 300, 15, 5],
            ..Walked::default()
        };
        for root in [(1000, 2000), (1000, 1200)] {
            let children = rebased_children(root, &walked, 7);
            // The step that took no time (no planner) leaves no span.
            assert_eq!(children.len(), 5);
            assert!(children.iter().all(|c| c.id == 7
                && c.parent == Some(ROOT)
                && c.start_ns >= root.0
                && c.end_ns <= root.1));
            let covered: Vec<(u64, u64)> =
                children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
            let own: u64 = children.iter().map(|c| c.end_ns - c.start_ns).sum();
            assert_eq!(self_time_ns(root, &covered) + own, root.1 - root.0);
        }
        assert_eq!(
            self_time_ns((1000, 2000), &[(1000, 1350)]),
            650,
            "a 1000 ns request whose layers account for 350 ns leaves 650 ns to the reactor"
        );
    }
}
