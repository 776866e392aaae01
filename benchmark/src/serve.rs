//! The served path as a caller sees it: an in-process `EventServer` on
//! loopback and the closed- and open-loop generators that drive it.
//! Every generator runs on the thread that owns its connection.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use knmatch_core::{BatchAnswer, BatchQuery, Dataset, PlannerMode};
use knmatch_server::protocol::encode_query_frame;
use knmatch_server::{
    AnyEngine, Backend, Client, ClientError, EngineConfig, EventServer, Response, ServerConfig,
    ShutdownHandle,
};
use knmatch_storage::{DiskDatabase, VerifyMode};

use crate::stats::digest;
use crate::workload::{due_ns, EngineKind, WriteOp, WriteStream};

/// An engine built the way the workload serves it, with the time each
/// step of the build took.
pub struct Built {
    pub engine: AnyEngine,
    /// `EngineConfig::build_in_memory` (0 for the disk engine).
    pub build_s: f64,
    /// `DiskDatabase::create_file` (disk engine only).
    pub create_s: f64,
    /// `EngineConfig::open` (disk engine only).
    pub open_s: f64,
}

/// The `EngineConfig` a workload's engine is built from.
pub fn engine_config(kind: EngineKind, workers: usize) -> Result<EngineConfig, String> {
    let cfg = EngineConfig::builder().workers(workers);
    match kind {
        EngineKind::Plain => cfg,
        EngineKind::Planned => cfg.planner(PlannerMode::Auto),
        EngineKind::Disk { pool_pages } => cfg.backend(Backend::Disk {
            pool_pages,
            verify: VerifyMode::FirstRead,
        }),
        EngineKind::Mutable { merge_threshold } => {
            cfg.mutable(true).merge_threshold(merge_threshold)
        }
    }
    .build()
}

/// Builds `kind`'s engine over `ds`. The disk engine writes `db_path`
/// first and then opens it the way `knmatch serve --disk` does.
pub fn build_engine(
    kind: EngineKind,
    ds: &Dataset,
    workers: usize,
    db_path: &Path,
) -> Result<Built, String> {
    let cfg = engine_config(kind, workers)?;
    let start = Instant::now();
    if let EngineKind::Disk { pool_pages } = kind {
        drop(
            DiskDatabase::create_file(db_path, ds, pool_pages)
                .map_err(|e| format!("{}: {e}", db_path.display()))?,
        );
        let create_s = start.elapsed().as_secs_f64();
        let opened = Instant::now();
        let engine = cfg.open(&db_path.to_string_lossy())?;
        return Ok(Built {
            engine,
            build_s: 0.0,
            create_s,
            open_s: opened.elapsed().as_secs_f64(),
        });
    }
    let engine = cfg.build_in_memory(ds);
    Ok(Built {
        engine,
        build_s: start.elapsed().as_secs_f64(),
        create_s: 0.0,
        open_s: 0.0,
    })
}

/// Stops the server when dropped, so a failing body cannot leave the
/// scope waiting on a reactor that nobody will stop.
struct StopOnDrop(ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Serves `engine` on an ephemeral loopback port for the duration of
/// `body`, then drains and joins the reactor.
pub fn serve_with<R>(
    engine: AnyEngine,
    executors: usize,
    body: impl FnOnce(&EventServer<AnyEngine>) -> R,
) -> R {
    let cfg = ServerConfig {
        executors,
        ..ServerConfig::default()
    };
    let server = EventServer::bind(engine, "127.0.0.1:0", cfg).expect("bind loopback");
    std::thread::scope(|s| {
        let reactor = s.spawn(|| server.serve());
        let out = {
            let _stop = StopOnDrop(server.handle());
            body(&server)
        };
        reactor
            .join()
            .expect("reactor thread")
            .expect("reactor exits cleanly");
        out
    })
}

/// What a reply is held against.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// The oracle's full answers (the verification pass).
    Full(&'a [BatchAnswer]),
    /// Digests of the verified answers (timed phases).
    Digest(&'a [u64]),
    /// Data is changing under the reader: an `OK KNM` of exactly `k`
    /// entries in ascending difference order is all that can be asked;
    /// exactness is checked after the writer has quiesced.
    Shape { k: usize },
}

impl Check<'_> {
    pub fn holds(&self, i: usize, answer: &BatchAnswer) -> bool {
        match self {
            Check::Full(expected) => expected[i] == *answer,
            Check::Digest(digests) => digests[i] == digest(answer),
            Check::Shape { k } => match answer {
                BatchAnswer::KnMatch(res) => {
                    res.entries.len() == *k
                        && res.entries.windows(2).all(|w| w[0].diff <= w[1].diff)
                }
                _ => false,
            },
        }
    }

    fn holds_response(&self, i: usize, response: &Response) -> bool {
        matches!(response, Response::Answer(a) if self.holds(i, a))
    }
}

/// Requests one generator sent in one slice and how many came back
/// correct; the rest — wrong, refused or never answered — failed. The
/// caller times the slice around the generator call: a slice ends when
/// the last reply in flight has arrived.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
    }
}

/// When a generator stops sending.
#[derive(Clone, Copy)]
pub enum Budget<'a> {
    /// Keep sending while this holds (timed slices: a deadline, or the
    /// next compaction on the ingest workload).
    While(&'a (dyn Fn() -> bool + Sync)),
    /// Send this many more (passes over the list).
    Count(usize),
}

/// Which requests one connection sends: every `step`-th index from
/// `first` on, wrapping around a list of `len`, for as long as the
/// budget lasts.
#[derive(Clone)]
pub struct Feed<'a> {
    at: usize,
    step: usize,
    len: usize,
    budget: Budget<'a>,
}

impl<'a> Feed<'a> {
    /// Every `step`-th of `len` items from `first` on, wrapping.
    pub fn new(first: usize, step: usize, len: usize, budget: Budget<'a>) -> Feed<'a> {
        Feed {
            at: first % len,
            step,
            len,
            budget,
        }
    }

    /// One pass: connection `conn`'s share of `len` items, each once.
    pub fn one_pass(conn: usize, conns: usize, len: usize) -> Feed<'static> {
        let share = (len + conns - 1 - conn) / conns;
        Feed::new(conn, conns, len, Budget::Count(share))
    }

    fn next(&mut self) -> Option<usize> {
        match &mut self.budget {
            Budget::While(more) if !more() => return None,
            Budget::Count(0) => return None,
            Budget::Count(n) => *n -= 1,
            Budget::While(_) => {}
        }
        let i = self.at;
        self.at = (self.at + self.step) % self.len;
        Some(i)
    }
}

/// Closed loop, binary single-query frames, up to `window` in flight:
/// the window is topped up half a window at a time, so requests leave
/// in bursts of `window / 2` and the server always has work queued.
pub fn pipelined(
    client: &mut Client,
    queries: &[BatchQuery],
    window: usize,
    mut feed: Feed<'_>,
    check: Check<'_>,
) -> Result<Tally, ClientError> {
    let mut tally = Tally::default();
    let half = (window / 2).max(1);
    let mut inflight: VecDeque<usize> = VecDeque::with_capacity(window);
    let mut burst = Vec::new();
    loop {
        let mut drained = false;
        if window - inflight.len() >= half {
            burst.clear();
            while inflight.len() < window {
                let Some(i) = feed.next() else {
                    drained = true;
                    break;
                };
                encode_query_frame(&queries[i], &mut burst);
                inflight.push_back(i);
                tally.sent += 1;
            }
            if !burst.is_empty() {
                client.send_raw(&burst)?;
            }
        }
        if inflight.is_empty() {
            return Ok(tally);
        }
        // Once the feed has run dry, collect everything still in flight.
        let take = if drained {
            inflight.len()
        } else {
            half.min(inflight.len())
        };
        for _ in 0..take {
            let response = client.recv_response()?;
            let i = inflight.pop_front().expect("a reply per request in flight");
            tally.ok += u64::from(check.holds_response(i, &response));
        }
    }
}

/// Closed loop, text `BATCH` frames of `batch` consecutive queries, up
/// to `window` frames in flight. `feed` walks batch numbers.
pub fn text_batches(
    client: &mut Client,
    queries: &[BatchQuery],
    batch: usize,
    window: usize,
    mut feed: Feed<'_>,
    check: Check<'_>,
) -> Result<Tally, ClientError> {
    client.set_binary(false);
    let mut tally = Tally::default();
    let mut inflight: VecDeque<usize> = VecDeque::with_capacity(window);
    loop {
        while inflight.len() < window {
            let Some(b) = feed.next() else { break };
            client.send_batch(&queries[b * batch..(b + 1) * batch])?;
            inflight.push_back(b);
            tally.sent += batch as u64;
        }
        let Some(b) = inflight.pop_front() else {
            return Ok(tally);
        };
        let reply = client.recv_batch(batch)?;
        for (j, answer) in reply.answers.iter().enumerate() {
            tally.ok += u64::from(matches!(answer, Ok(a) if check.holds(b * batch + j, a)));
        }
    }
}

/// Closed loop, one binary query in flight: `Client::query` per
/// request, timed from just before the call to the decoded answer.
/// Returns when each correctly answered request left and how long its
/// round trip took.
pub fn depth1(
    client: &mut Client,
    queries: &[BatchQuery],
    mut feed: Feed<'_>,
    check: Check<'_>,
) -> Result<(Tally, Vec<(Instant, Duration)>), ClientError> {
    client.set_binary(true);
    let mut tally = Tally::default();
    let mut trips = Vec::new();
    while let Some(i) = feed.next() {
        let sent = Instant::now();
        let reply = client.query(&queries[i])?;
        let took = sent.elapsed();
        tally.sent += 1;
        if matches!(&reply, Ok(a) if check.holds(i, a)) {
            tally.ok += 1;
            trips.push((sent, took));
        }
    }
    Ok((tally, trips))
}

/// What the writer connection saw.
#[derive(Debug, Default)]
pub struct WriterTally {
    pub sent: u64,
    pub ok: u64,
    /// Paced: reply time minus *due* time. Unpaced: minus send time.
    pub lat_us: Vec<f64>,
    /// Paced only: how long after its due time each op was sent.
    pub late_ms: Vec<f64>,
    pub elapsed_s: f64,
}

/// One write at a time over `client` until `stop` is raised. With a
/// `rate` the stream is open loop: op `i` is due at `i / rate` seconds
/// whatever happened to the ops before it, its latency counts from that
/// due time, and how late it left is kept. Without one it is closed
/// loop, as fast as replies come.
pub fn writer(
    client: &mut Client,
    stream: &mut WriteStream,
    rate: Option<u32>,
    stop: &AtomicBool,
) -> Result<WriterTally, ClientError> {
    client.set_binary(true);
    let mut tally = WriterTally::default();
    let start = Instant::now();
    // Relaxed: the flag publishes nothing but itself.
    while !stop.load(Ordering::Relaxed) {
        let mut from = Instant::now();
        if let Some(rate) = rate {
            let due = start + Duration::from_nanos(due_ns(tally.sent, rate));
            if let Some(wait) = due.checked_duration_since(from) {
                std::thread::sleep(wait);
            }
            tally
                .late_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            from = due;
        }
        let op = stream.next_op();
        let reply = match &op {
            WriteOp::Upsert { key, point } | WriteOp::Reinsert { key, point } => {
                client.insert(*key, point)?
            }
            WriteOp::Delete { key } => client.delete(*key)?,
        };
        tally.sent += 1;
        tally
            .lat_us
            .push(Instant::now().duration_since(from).as_secs_f64() * 1e6);
        if reply.is_ok() {
            tally.ok += 1;
            stream.apply(op);
        }
    }
    tally.elapsed_s = start.elapsed().as_secs_f64();
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feeds_partition_the_list_between_connections() {
        let mut seen = vec![0u32; 10];
        for conn in 0..3 {
            let mut feed = Feed::one_pass(conn, 3, 10);
            while let Some(i) = feed.next() {
                assert_eq!(i % 3, conn);
                seen[i] += 1;
            }
            assert_eq!(feed.next(), None);
        }
        assert_eq!(seen, vec![1; 10]);
        let mut cycling = Feed::new(1, 2, 4, Budget::Count(5));
        let order: Vec<usize> = std::iter::from_fn(|| cycling.next()).collect();
        assert_eq!(order, vec![1, 3, 1, 3, 1]);
    }

    #[test]
    fn a_feed_stops_when_its_condition_stops_holding() {
        let left = std::sync::atomic::AtomicUsize::new(3);
        let more = || left.fetch_sub(1, Ordering::Relaxed) > 0;
        let mut feed = Feed::new(0, 1, 10, Budget::While(&more));
        assert_eq!(feed.next(), Some(0));
        assert_eq!(feed.next(), Some(1));
        assert_eq!(feed.next(), Some(2));
        assert_eq!(feed.next(), None);
    }

    #[test]
    fn tallies_merge() {
        let mut a = Tally { sent: 3, ok: 2 };
        a.merge(&Tally { sent: 2, ok: 2 });
        assert_eq!(a, Tally { sent: 5, ok: 4 });
    }
}
