//! The untraced run: set-up (several times, for a median), the
//! oracle-checked verification pass, and the measured phases that give
//! the end-to-end metrics.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use knmatch_core::{BatchAnswer, BatchEngine, BatchQuery, Dataset};
use knmatch_server::{AnyEngine, Client, ClientError, EventServer};

use crate::host;
use crate::json::{obj, Json};
use crate::oracle;
use crate::serve::{
    build_engine, depth1, pipelined, serve_with, text_batches, writer, Budget, Built, Check, Feed,
    Tally, WriterTally,
};
use crate::stats::{digest, median, percentile, samples_beyond, Sliced};
use crate::workload::{EngineKind, Spec, WriteStream, TEXT_BATCH, TEXT_WINDOW};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries held against a from-scratch index once the writer has
/// quiesced.
const QUIESCE_QUERIES: usize = 256;
/// Shares of `--seconds` given to the three measured phases.
const SHARE_QPS: f64 = 0.35;
const SHARE_TEXT: f64 = 0.30;
const SHARE_LAT: f64 = 0.35;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything a run knows before the server starts.
pub struct Ctx {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: PathBuf,
    pub ds: Dataset,
    pub queries: Vec<BatchQuery>,
    /// The oracle's answers over the initial data.
    pub expected: Vec<BatchAnswer>,
    pub digests: Vec<u64>,
    /// Seconds spent generating data and computing the oracle.
    pub prepare_s: f64,
    /// Cores the host offers (read before pinning shrinks what
    /// `available_parallelism` reports).
    pub nproc: usize,
    /// The one CPU every thread of the run is pinned to, and the set
    /// the process was allowed before.
    pub pinned: Option<(usize, host::CpuSet)>,
}

impl Ctx {
    pub fn prepare(spec: Spec, seed: u64, seconds: f64, out_dir: PathBuf) -> Ctx {
        let start = Instant::now();
        let ds = spec.dataset(seed);
        let queries = spec.queries(&ds, seed);
        let expected = oracle::answers(&ds, &queries, host::nproc());
        let digests = expected.iter().map(digest).collect();
        Ctx {
            spec,
            seed,
            seconds,
            out_dir,
            ds,
            queries,
            expected,
            digests,
            prepare_s: start.elapsed().as_secs_f64(),
            nproc: host::nproc(),
            pinned: None,
        }
    }

    /// Where the disk workload's database file lives: inside the
    /// checkout, unique to this process, removed when the run ends.
    pub fn db_path(&self) -> PathBuf {
        self.out_dir.join(format!(
            "{}-{}-{}.knm",
            self.spec.name,
            self.seed,
            std::process::id()
        ))
    }

    pub fn is_mutable(&self) -> bool {
        matches!(self.spec.engine, EngineKind::Mutable { .. })
    }

    /// What timed replies are held against: digests of the verified
    /// answers, or — while a writer changes the data — their shape.
    pub fn timed_check(&self) -> Check<'_> {
        if self.is_mutable() {
            Check::Shape { k: 10 }
        } else {
            Check::Digest(&self.digests)
        }
    }
}

/// Requests sent / succeeded / failed in one phase, for the result file
/// and the `attempted` / `failed` totals.
#[derive(Debug, Clone)]
pub struct PhaseRecord {
    pub name: String,
    pub seconds: f64,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Per-slice values of the phase's headline metric, if it has one.
    pub slices: Vec<f64>,
    /// Latency samples behind a percentile, if the phase has any.
    pub samples: usize,
}

impl PhaseRecord {
    pub fn of(name: &str, seconds: f64, tally: &Tally) -> PhaseRecord {
        PhaseRecord {
            name: name.into(),
            seconds,
            sent: tally.sent,
            ok: tally.ok,
            // A request that never got its reply counts as failed.
            failed: tally.sent - tally.ok,
            slices: Vec::new(),
            samples: 0,
        }
    }

    pub fn of_writer(name: &str, tally: &WriterTally) -> PhaseRecord {
        PhaseRecord {
            name: name.into(),
            seconds: tally.elapsed_s,
            sent: tally.sent,
            ok: tally.ok,
            failed: tally.sent - tally.ok,
            slices: Vec::new(),
            samples: tally.lat_us.len(),
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("phase", Json::from(self.name.as_str())),
            ("seconds", Json::from(self.seconds)),
            ("sent", Json::from(self.sent)),
            ("succeeded", Json::from(self.ok)),
            ("failed", Json::from(self.failed)),
            ("slices", Json::from(self.slices.clone())),
            ("samples", Json::from(self.samples)),
        ])
    }
}

/// A served engine with its reader connections open and verified.
pub struct Session<'a> {
    pub server: &'a EventServer<AnyEngine>,
    pub addr: SocketAddr,
    pub readers: Vec<Client>,
    /// Requests the timed slices have sent so far (per-connection
    /// shares of it place the next slice's feeds).
    sent_so_far: usize,
    /// Set while a writer churns the index: slices then end at a
    /// compaction instead of a deadline.
    pub cycle_aligned: bool,
}

impl Session<'_> {
    /// Runs `f` once per reader connection, for the first `n` of them,
    /// each on its own generator thread (the calling thread drives
    /// connection 0), and merges the tallies.
    fn on_readers(
        &mut self,
        n: usize,
        f: impl Fn(usize, &mut Client) -> Result<Tally, ClientError> + Sync,
    ) -> Result<Tally, String> {
        let (first, rest) = self.readers[..n]
            .split_first_mut()
            .expect("a reader connection");
        let f = &f;
        let tallies: Vec<Result<Tally, ClientError>> = std::thread::scope(|s| {
            let others: Vec<_> = rest
                .iter_mut()
                .enumerate()
                .map(|(j, c)| s.spawn(move || f(j + 1, c)))
                .collect();
            let mut all = vec![f(0, first)];
            all.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("generator thread")),
            );
            all
        });
        let mut total = Tally::default();
        for t in tallies {
            total.merge(&t.map_err(|e| e.to_string())?);
        }
        Ok(total)
    }

    /// One pass over the whole query list, pipelined binary frames.
    pub fn pass(&mut self, ctx: &Ctx, check: Check<'_>) -> Result<Tally, String> {
        let conns = self.readers.len();
        self.on_readers(conns, |j, c| {
            let feed = Feed::one_pass(j, conns, ctx.queries.len());
            pipelined(c, &ctx.queries, ctx.spec.window, feed, check)
        })
    }

    /// One timed slice: `run` drives every reader with a feed that
    /// lasts about `secs` seconds — or, once a writer is churning the
    /// index, until the next compaction has been installed, so that
    /// every slice spans exactly one seal-and-compact cycle and none is
    /// favoured by where in the cycle it happened to start. (A read
    /// costs several times more against nine runs than against one.)
    /// Slices carry on through the list where the last one stopped.
    /// Returns the tally and the seconds until the last reply.
    fn slice(
        &mut self,
        conns: usize,
        secs: f64,
        items: usize,
        run: impl Fn(&mut Client, Feed<'_>) -> Result<Tally, ClientError> + Sync,
    ) -> Result<(Tally, f64), String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        // A cycle that never ends must not hang the run.
        let give_up = start + Duration::from_secs_f64(secs * 3.0);
        let writer = self.server.engine().writer().filter(|_| self.cycle_aligned);
        let merges_at_start = writer.map_or(0, |w| w.version_stats().merges);
        let more = move || match writer {
            Some(w) => w.version_stats().merges == merges_at_start && Instant::now() < give_up,
            None => Instant::now() < deadline,
        };
        let first = self.sent_so_far / conns * conns;
        let tally = self.on_readers(conns, |j, c| {
            run(c, Feed::new(first + j, conns, items, Budget::While(&more)))
        })?;
        self.sent_so_far += tally.sent as usize;
        Ok((tally, start.elapsed().as_secs_f64()))
    }

    /// Pipelined binary single-query frames for one slice.
    pub fn pipelined_for(
        &mut self,
        ctx: &Ctx,
        secs: f64,
        check: Check<'_>,
    ) -> Result<(Tally, f64), String> {
        self.slice(self.readers.len(), secs, ctx.queries.len(), |c, feed| {
            pipelined(c, &ctx.queries, ctx.spec.window, feed, check)
        })
    }

    /// Text `BATCH` frames for one slice.
    pub fn text_batches_for(
        &mut self,
        ctx: &Ctx,
        secs: f64,
        check: Check<'_>,
    ) -> Result<(Tally, f64), String> {
        let window = (TEXT_WINDOW / ctx.spec.connections).max(1);
        let batches = ctx.queries.len() / TEXT_BATCH;
        self.slice(self.readers.len(), secs, batches, |c, feed| {
            text_batches(c, &ctx.queries, TEXT_BATCH, window, feed, check)
        })
    }

    /// Depth-1 binary queries on connection 0 for one slice; returns
    /// the correct replies' latencies in µs.
    pub fn depth1_for(
        &mut self,
        ctx: &Ctx,
        secs: f64,
        check: Check<'_>,
    ) -> Result<(Tally, f64, Vec<f64>), String> {
        let lat_us = Mutex::new(Vec::new());
        let (tally, secs) = self.slice(1, secs, ctx.queries.len(), |c, feed| {
            let (tally, trips) = depth1(c, &ctx.queries, feed, check)?;
            *lat_us.lock().expect("one generator, no panic") = trips
                .iter()
                .map(|(_, took)| took.as_secs_f64() * 1e6)
                .collect();
            Ok(tally)
        })?;
        let lat_us = lat_us.into_inner().expect("one generator, no panic");
        Ok((tally, secs, lat_us))
    }
}

/// Times of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub build_s: f64,
    pub create_s: f64,
    pub open_s: f64,
    pub verify_s: f64,
}

/// Sets the workload up — builds the engine (writing and opening the
/// database file for the disk engine), binds and starts the server,
/// connects the readers and holds one pass over every query against the
/// oracle — then hands the live session to `body`.
pub fn with_session<R>(
    ctx: &Ctx,
    kind: EngineKind,
    workers: usize,
    body: impl FnOnce(&mut Session<'_>, SetupTimes, &Tally) -> Result<R, String>,
) -> Result<R, String> {
    let start = Instant::now();
    let Built {
        engine,
        build_s,
        create_s,
        open_s,
    } = build_engine(kind, &ctx.ds, workers, &ctx.db_path())?;
    serve_with(engine, ctx.spec.executors, |server| {
        let addr = server.local_addr();
        let readers = (0..ctx.spec.connections)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let mut session = Session {
            server,
            addr,
            readers,
            sent_so_far: 0,
            cycle_aligned: false,
        };
        let verify_from = Instant::now();
        let verified = session.pass(ctx, Check::Full(&ctx.expected))?;
        let times = SetupTimes {
            total_s: start.elapsed().as_secs_f64(),
            build_s,
            create_s,
            open_s,
            verify_s: verify_from.elapsed().as_secs_f64(),
        };
        body(&mut session, times, &verified)
    })
}

/// Raises the flag when dropped, so an early return cannot leave a
/// scoped writer thread running (and the scope waiting on it) forever.
pub struct RaiseOnDrop<'a>(pub &'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        // Relaxed: the flag publishes nothing but itself.
        self.0.store(true, Ordering::Relaxed);
    }
}

/// After the writer has stopped: the server's live count equals the
/// shadow copy's, and `QUIESCE_QUERIES` queries answer exactly as a
/// from-scratch index over the shadow copy's live rows.
pub fn quiesce_check(
    session: &mut Session<'_>,
    ctx: &Ctx,
    stream: &WriteStream,
) -> Result<PhaseRecord, String> {
    let start = Instant::now();
    let n = QUIESCE_QUERIES.min(ctx.queries.len());
    let fresh = oracle::answers_keyed(&stream.live_rows(), &ctx.queries[..n], host::nproc());
    let reader = &mut session.readers[0];
    let mut tally = pipelined(
        reader,
        &ctx.queries[..n],
        ctx.spec.window,
        Feed::one_pass(0, 1, n),
        Check::Full(&fresh),
    )
    .map_err(|e| e.to_string())?;
    let live = reader
        .stats_report()
        .map_err(|e| e.to_string())?
        .version
        .map(|v| v.live);
    tally.sent += 1;
    if live == Some(stream.live_count() as u64) {
        tally.ok += 1;
    } else {
        eprintln!(
            "quiesce: server reports live={live:?}, shadow copy has {}",
            stream.live_count()
        );
    }
    Ok(PhaseRecord::of(
        "quiesce-check",
        start.elapsed().as_secs_f64(),
        &tally,
    ))
}

/// Correct replies per second of one slice.
pub fn rate(tally: &Tally, seconds: f64) -> f64 {
    tally.ok as f64 / seconds
}

/// The result of a run, traced or not.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub phases: Vec<PhaseRecord>,
    /// Everything else worth keeping: spreads, sample counts, host
    /// calibration, generator lateness.
    pub detail: Json,
}

fn sliced_json(s: &Sliced) -> Json {
    obj([
        ("value", Json::from(s.value)),
        ("median", Json::from(s.median)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("slices", Json::from(s.slices.clone())),
    ])
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let calib_before = host::calibrate();
    let mut phases = Vec::new();
    let mut setups = Vec::new();
    // All but the last set-up exist only to be timed.
    for _ in 1..SETUPS {
        let (times, verified) =
            with_session(ctx, ctx.spec.engine, 1, |_, t, v| Ok((t, v.clone())))?;
        phases.push(PhaseRecord::of("verification", times.verify_s, &verified));
        setups.push(times);
    }
    let measured = with_session(ctx, ctx.spec.engine, 1, |session, times, verified| {
        phases.push(PhaseRecord::of("verification", times.verify_s, verified));
        setups.push(times);
        measure(ctx, session, &mut phases)
    });
    if let EngineKind::Disk { .. } = ctx.spec.engine {
        let _ = std::fs::remove_file(ctx.db_path());
    }
    let m = measured?;
    let calib_after = host::calibrate();

    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let metrics: Vec<Metric> = vec![
        ("setup_s", setup_s, "s"),
        ("qps", m.qps.value, "1/s"),
        ("qps_text_batch", m.qps_text.value, "1/s"),
        ("lat_p50_us", m.lat_p50.value, "us"),
        ("lat_p95_us", m.lat_p95.value, "us"),
        ("cpu_us_per_query", m.cpu_us_per_query.value, "us"),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ];
    let smallest = m.lat_samples.iter().copied().min().unwrap_or(0);
    let detail = obj([
        ("prepare_s", Json::from(ctx.prepare_s)),
        (
            "setups_s",
            Json::from(setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
        ),
        ("rounds", Json::from(m.qps.slices.len())),
        ("qps", sliced_json(&m.qps)),
        ("qps_text_batch", sliced_json(&m.qps_text)),
        ("lat_p50_us", sliced_json(&m.lat_p50)),
        ("lat_p95_us", sliced_json(&m.lat_p95)),
        ("cpu_us_per_query", sliced_json(&m.cpu_us_per_query)),
        (
            "lat_samples",
            Json::from(m.lat_samples.iter().sum::<usize>()),
        ),
        ("lat_samples_smallest_slice", Json::from(smallest)),
        (
            "lat_samples_beyond_p95_smallest_slice",
            Json::from(samples_beyond(smallest.max(1), 0.95)),
        ),
        ("writer", m.writer.unwrap_or(Json::Null)),
        ("host.calib_before_ns", Json::from(calib_before)),
        ("host.calib_after_ns", Json::from(calib_after)),
        ("host.nproc", Json::from(ctx.nproc)),
    ]);
    Ok(Outcome {
        metrics,
        phases,
        detail,
    })
}

struct Measured {
    qps: Sliced,
    qps_text: Sliced,
    lat_p50: Sliced,
    lat_p95: Sliced,
    cpu_us_per_query: Sliced,
    lat_samples: Vec<usize>,
    writer: Option<Json>,
}

/// Rounds of `--seconds`, at least three. Four seconds each, except
/// two where microsecond requests share one core: there a depth-1 round
/// trip settles, slice by slice, into one of two scheduler-made modes
/// (26 µs or 44 µs on `lowcost`, as the woken executor does or does not
/// preempt the reactor that woke it), and ten slices make it near
/// certain that a quarter of them saw the fast one. Longer slices
/// elsewhere: a compaction cycle takes about 1.2 s, and a millisecond
/// query needs 1.4 s of depth-1 to leave ten samples beyond its p95.
pub fn rounds(spec: &Spec, seconds: f64) -> usize {
    let short = spec.one_core && spec.write_rate.is_none();
    let round_s = if short { 2.0 } else { 4.0 };
    ((seconds / round_s) as usize).max(3)
}

/// Warm-up, then `rounds` rounds of the three measured phases — with
/// the paced writer running beside all of them on the ingest workload.
///
/// Each metric gets one slice per round and reports its better-quartile
/// slice (see [`Sliced`]). The phases are interleaved rather than run
/// one after the other so that a few seconds of host noise spoil one
/// slice of every metric instead of every slice of one.
fn measure(
    ctx: &Ctx,
    session: &mut Session<'_>,
    phases: &mut Vec<PhaseRecord>,
) -> Result<Measured, String> {
    let check = ctx.timed_check();
    let stop = AtomicBool::new(false);
    let addr = session.addr;
    std::thread::scope(|s| {
        let raise = RaiseOnDrop(&stop);
        let writing = ctx.spec.write_rate.map(|rate| {
            let stop = &stop;
            s.spawn(move || {
                let mut stream = WriteStream::new(&ctx.ds, ctx.seed);
                let tally = Client::connect(addr)
                    .map_err(ClientError::from)
                    .and_then(|mut c| writer(&mut c, &mut stream, Some(rate), stop));
                (tally, stream)
            })
        });

        session.cycle_aligned = writing.is_some();
        let (warm, warm_s) = session.pipelined_for(ctx, (ctx.seconds * 0.1).max(0.5), check)?;
        phases.push(PhaseRecord::of("warm-up", warm_s, &warm));

        let rounds = rounds(&ctx.spec, ctx.seconds);
        let per_round = ctx.seconds / rounds as f64;
        let (mut qps, mut qps_text, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
        let (mut p50, mut p95, mut lat_samples) = (Vec::new(), Vec::new(), Vec::new());
        let (mut bin, mut text, mut one) = (Tally::default(), Tally::default(), Tally::default());
        let (mut bin_s, mut text_s, mut one_s) = (0.0, 0.0, 0.0);
        for _ in 0..rounds {
            let cpu_from = host::on_cpu_ns();
            let (tally, secs) = session.pipelined_for(ctx, per_round * SHARE_QPS, check)?;
            let cpu_ns = host::on_cpu_ns() - cpu_from;
            if tally.ok == 0 {
                return Err("a qps slice completed no query".into());
            }
            qps.push(rate(&tally, secs));
            cpu.push(cpu_ns as f64 / 1e3 / tally.ok as f64);
            bin.merge(&tally);
            bin_s += secs;

            let (tally, secs) = session.text_batches_for(ctx, per_round * SHARE_TEXT, check)?;
            qps_text.push(rate(&tally, secs));
            text.merge(&tally);
            text_s += secs;

            let (tally, secs, mut lat_us) =
                session.depth1_for(ctx, per_round * SHARE_LAT, check)?;
            one_s += secs;
            if lat_us.is_empty() {
                return Err("a depth-1 slice completed no query".into());
            }
            lat_us.sort_by(f64::total_cmp);
            p50.push(percentile(&lat_us, 0.50));
            p95.push(percentile(&lat_us, 0.95));
            lat_samples.push(lat_us.len());
            one.merge(&tally);
        }
        let (qps, qps_text) = (Sliced::of(qps, true), Sliced::of(qps_text, true));
        let (lat_p50, lat_p95) = (Sliced::of(p50, false), Sliced::of(p95, false));
        for (name, secs, tally, slices) in [
            ("qps", bin_s, &bin, &qps.slices),
            ("qps_text_batch", text_s, &text, &qps_text.slices),
            ("depth-1", one_s, &one, &lat_p50.slices),
        ] {
            let mut rec = PhaseRecord::of(name, secs, tally);
            rec.slices = slices.clone();
            if name == "depth-1" {
                rec.samples = lat_samples.iter().sum();
            }
            phases.push(rec);
        }

        drop(raise);
        session.cycle_aligned = false;
        let mut writer_json = None;
        if let Some(handle) = writing {
            let (tally, stream) = handle.join().expect("writer thread");
            let tally = tally.map_err(|e| format!("writer: {e}"))?;
            phases.push(PhaseRecord::of_writer("paced-writer", &tally));
            writer_json = Some(writer_detail(&tally));
            phases.push(quiesce_check(session, ctx, &stream)?);
        }
        Ok(Measured {
            qps,
            qps_text,
            lat_p50,
            lat_p95,
            cpu_us_per_query: Sliced::of(cpu, false),
            lat_samples,
            writer: writer_json,
        })
    })
}

/// The paced writer's own numbers: latency from the due instant and how
/// late the generator ran.
pub fn writer_detail(tally: &WriterTally) -> Json {
    let mut lat = tally.lat_us.clone();
    lat.sort_by(f64::total_cmp);
    let mut late = tally.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let pct = |v: &[f64], p: f64| {
        if v.is_empty() {
            Json::Null
        } else {
            Json::from(percentile(v, p))
        }
    };
    obj([
        ("ops", Json::from(tally.sent)),
        ("ops_per_s", Json::from(tally.sent as f64 / tally.elapsed_s)),
        ("lat_from_due_p50_us", pct(&lat, 0.50)),
        ("lat_from_due_p95_us", pct(&lat, 0.95)),
        ("generator_late_p50_ms", pct(&late, 0.50)),
        ("generator_late_p99_ms", pct(&late, 0.99)),
        ("generator_late_max_ms", pct(&late, 1.0)),
    ])
}
