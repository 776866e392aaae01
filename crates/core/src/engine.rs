//! Parallel batch execution of matching queries over one shared
//! sorted-column organisation.
//!
//! The AD algorithm is read-only over [`SortedColumns`], so a batch of
//! queries parallelises trivially: `W` worker threads claim queries from a
//! shared atomic counter and each walks the same `Arc<SortedColumns>`
//! through its own [`Scratch`]. Because every query runs the exact same
//! `frequent_lists` loop as the sequential entry points — same frontier,
//! same tie-breaking, same counters — the engine's answers and
//! [`AdStats`] are bit-for-bit identical to a sequential loop, in the
//! same order as the input batch, regardless of worker count or
//! scheduling.
//!
//! Workers use `std::thread::scope` (no extra dependencies, no `unsafe`)
//! and keep one reusable `Scratch` each, so a batch of `q` queries costs
//! `W` scratch allocations, not `q`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use crate::ad::{eps_lists, frequent_lists, validate_eps, validate_params, AdStats};
use crate::columns::SortedColumns;
use crate::error::{panic_message, KnMatchError, Result};
use crate::frontier::SortedLists;
use crate::result::{FrequentResult, KnMatchResult};
use crate::scratch::{QueryControl, Scratch};
use crate::source::SortedAccessSource;

/// Queries claimed per worker fetch-add (see [`QueryEngine::run`]).
const CLAIM_CHUNK: usize = 4;

/// One query of a batch: the three AD-backed query kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchQuery {
    /// A k-n-match query (Definition 3).
    KnMatch {
        /// The query point.
        query: Vec<f64>,
        /// Answer-set size.
        k: usize,
        /// Number of matching dimensions.
        n: usize,
    },
    /// A frequent k-n-match query (Definition 4) over `n ∈ [n0, n1]`.
    Frequent {
        /// The query point.
        query: Vec<f64>,
        /// Answer-set size.
        k: usize,
        /// Lower end of the n range.
        n0: usize,
        /// Upper end of the n range.
        n1: usize,
    },
    /// An ε-n-match query: all points within threshold `eps`.
    EpsMatch {
        /// The query point.
        query: Vec<f64>,
        /// The n-match-difference threshold.
        eps: f64,
        /// Number of matching dimensions.
        n: usize,
    },
}

impl BatchQuery {
    /// Validates this query against a `cardinality × dims` source,
    /// mirroring the AD entry points exactly — the same errors with the
    /// same precedence, whichever backend ends up running it.
    ///
    /// # Errors
    ///
    /// See [`validate_params`] and [`validate_eps`].
    pub fn validate(&self, dims: usize, cardinality: usize) -> Result<()> {
        match self {
            BatchQuery::KnMatch { query, k, n } => {
                validate_params(query, dims, cardinality, *k, *n, *n)
            }
            BatchQuery::Frequent { query, k, n0, n1 } => {
                validate_params(query, dims, cardinality, *k, *n0, *n1)
            }
            BatchQuery::EpsMatch { query, eps, n } => {
                validate_params(query, dims, cardinality, 1, *n, *n)?;
                validate_eps(*eps)
            }
        }
    }
}

/// The answer to one [`BatchQuery`], mirroring its variant.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchAnswer {
    /// Answer to [`BatchQuery::KnMatch`].
    KnMatch(KnMatchResult),
    /// Answer to [`BatchQuery::Frequent`].
    Frequent(FrequentResult),
    /// Answer to [`BatchQuery::EpsMatch`].
    EpsMatch(KnMatchResult),
}

/// Batch-wide fault-handling options (DESIGN.md §10), accepted by the
/// `run_with` methods of every batch engine: [`QueryEngine`], the
/// versioned run-list engine, and the disk engine in `knmatch-storage`.
///
/// The default imposes nothing and `run(batch)` is exactly
/// `run_with(batch, &BatchOptions::default())` — healthy-path answers and
/// stats are bit-identical with or without options.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Per-query time budget. Each query that is still walking when the
    /// budget (measured from batch submission) runs out fails with
    /// [`KnMatchError::DeadlineExceeded`]; the rest of the batch is
    /// unaffected.
    pub deadline: Option<Duration>,
    /// Absolute deadline stamped by a caller that queued the batch before
    /// running it (the event-loop server stamps arrival time, so executor
    /// queue wait counts against the budget). When both this and
    /// [`deadline`](BatchOptions::deadline) are set, the earlier instant
    /// wins.
    pub deadline_at: Option<Instant>,
    /// When `true`, the first failing query trips a shared cancel flag and
    /// every query not yet finished gives up with
    /// [`KnMatchError::Cancelled`]. When `false` (default) each query
    /// fails or succeeds on its own.
    pub fail_fast: bool,
    /// Backend-selection override for planner-capable engines: `None`
    /// (default) keeps the engine's configured mode; `Some(mode)` forces
    /// that mode for this batch. Engines without a planner ignore it, so
    /// default options stay bit-identical to [`BatchEngine::run`]
    /// everywhere.
    pub planner: Option<PlannerMode>,
}

/// How a planner-capable engine picks the backend for each query.
///
/// `Auto` evaluates the per-query cost model (the Figure 12 crossover,
/// live per batch element); the others force one backend. Every listed
/// backend answers the exact query kinds bit-identically to the
/// sequential oracle, so the mode changes cost, never answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlannerMode {
    /// Pick AD, VA-file, or scan per query from the cost model.
    #[default]
    Auto,
    /// Always the AD algorithm over sorted columns.
    Ad,
    /// Always the VA-file two-phase filter-and-refine backend.
    VaFile,
    /// Always the kernel-loop naive full scan.
    Scan,
    /// Always the IGrid (equi-depth) filter-and-refine backend. Never
    /// chosen by `Auto` — an explicit override for experiments.
    IGrid,
}

impl PlannerMode {
    /// The CLI/protocol spelling (`auto`, `ad`, `vafile`, `scan`, `igrid`).
    pub fn as_str(self) -> &'static str {
        match self {
            PlannerMode::Auto => "auto",
            PlannerMode::Ad => "ad",
            PlannerMode::VaFile => "vafile",
            PlannerMode::Scan => "scan",
            PlannerMode::IGrid => "igrid",
        }
    }
}

impl std::fmt::Display for PlannerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PlannerMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "auto" => Ok(PlannerMode::Auto),
            "ad" => Ok(PlannerMode::Ad),
            "vafile" => Ok(PlannerMode::VaFile),
            "scan" => Ok(PlannerMode::Scan),
            "igrid" => Ok(PlannerMode::IGrid),
            other => Err(format!(
                "unknown planner mode {other:?} (expected auto|ad|vafile|scan|igrid)"
            )),
        }
    }
}

/// Cumulative count of per-query plan decisions made by a planner-capable
/// engine, reported through [`BatchEngine::plan_counts`] and surfaced by
/// the server's `STATS` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanTally {
    /// Queries routed to the AD algorithm.
    pub ad: u64,
    /// Queries routed to the VA-file filter-and-refine backend.
    pub vafile: u64,
    /// Queries routed to the kernel scan backend.
    pub scan: u64,
    /// Queries routed to the IGrid backend (explicit override only).
    pub igrid: u64,
}

impl PlanTally {
    /// Total planned queries.
    pub fn total(&self) -> u64 {
        self.ad + self.vafile + self.scan + self.igrid
    }
}

impl BatchOptions {
    /// Arms a [`QueryControl`] for one batch submission: the deadline
    /// becomes an absolute instant *now*, and fail-fast allocates the
    /// shared cancel flag. Called once per batch so every query in the
    /// batch races the same clock.
    pub fn arm(&self) -> QueryControl {
        // `checked_add` so an absurd duration means "no deadline"
        // rather than a panic.
        let relative = self.deadline.and_then(|d| Instant::now().checked_add(d));
        QueryControl {
            deadline: match (self.deadline_at, relative) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            cancel: if self.fail_fast {
                Some(Arc::new(AtomicBool::new(false)))
            } else {
                None
            },
        }
    }
}

/// One successful slot of a batch run, as seen through the [`BatchEngine`]
/// abstraction.
///
/// Every engine returns its own outcome type — the in-memory engines
/// ([`QueryEngine`], the versioned run list, the planner) a plain
/// `(BatchAnswer, AdStats)` pair, the disk engine a `DiskBatchOutcome`
/// carrying modelled page I/O. This trait is the common projection: the
/// answer itself plus the attribute-level AD counters, which every
/// backend produces. Code that serves or prints batch results (the
/// network front-end, the CLI) works against this projection and stays
/// backend-agnostic.
pub trait BatchOutcome: Send {
    /// The query answer, mirroring the [`BatchQuery`] variant.
    fn answer(&self) -> &BatchAnswer;
    /// The attribute-level AD counters of this query.
    fn ad_stats(&self) -> AdStats;
    /// Consumes the outcome, keeping only the answer.
    fn into_answer(self) -> BatchAnswer;
}

impl BatchOutcome for (BatchAnswer, AdStats) {
    fn answer(&self) -> &BatchAnswer {
        &self.0
    }

    fn ad_stats(&self) -> AdStats {
        self.1
    }

    fn into_answer(self) -> BatchAnswer {
        self.0
    }
}

/// A batch executor for [`BatchQuery`] workloads: the one API every
/// backend implements and every front-end consumes.
///
/// Three AD engines implement it — [`QueryEngine`] (shared in-memory
/// columns, inter-query parallelism; the reference),
/// [`VersionedIndex`](crate::VersionedIndex) (a snapshot of runs walked
/// by one AD frontier, the same inter-query parallelism, live writes;
/// what the front-ends serve from memory), and the disk engine in
/// `knmatch-storage` (shared buffer pool over a database file). All three
/// promise the same contract:
///
/// - one result per query, **in input order**, regardless of worker count
///   or scheduling;
/// - invalid queries fail their own slot with a validation error while
///   the rest of the batch completes;
/// - a panicking query is isolated to its own slot
///   ([`KnMatchError::Panicked`]);
/// - [`BatchOptions`] add per-query deadlines and fail-fast cancellation,
///   and with default options `run_with` is bit-identical to
///   [`run`](BatchEngine::run).
///
/// The trait keeps generic callers honest: the network front-end in
/// `knmatch-server` serves every backend through one code path, and
/// cross-check tests compare a served batch against a direct
/// [`run`](BatchEngine::run) call on the same engine value.
pub trait BatchEngine {
    /// What a successful query slot carries; see [`BatchOutcome`].
    type Outcome: BatchOutcome;

    /// The configured worker count.
    fn workers(&self) -> usize;

    /// Executes the whole batch under `opts`, returning one result per
    /// query in input order.
    fn run_with(&self, queries: &[BatchQuery], opts: &BatchOptions) -> Vec<Result<Self::Outcome>>;

    /// [`run_with`](BatchEngine::run_with) under default [`BatchOptions`]:
    /// no deadline, no fail-fast — the healthy-path entry point.
    fn run(&self, queries: &[BatchQuery]) -> Vec<Result<Self::Outcome>> {
        self.run_with(queries, &BatchOptions::default())
    }

    /// Cumulative per-query plan decisions, for planner-capable engines.
    /// The default (`None`) marks an engine with no planner; front-ends
    /// report tallies only when one is present.
    fn plan_counts(&self) -> Option<PlanTally> {
        None
    }

    /// The mutation surface, for engines that accept live writes. The
    /// default (`None`) marks a read-only engine; servers reject the
    /// write verbs when no writer is present.
    fn writer(&self) -> Option<&dyn crate::versioned::VersionWriter> {
        None
    }
}

/// Records `result` against an armed control: a failed query trips the
/// batch's fail-fast cancel flag (a no-op without one). Shared by all
/// three batch engines so fail-fast semantics cannot drift.
pub fn note_outcome<T>(control: &QueryControl, result: &Result<T>) {
    if result.is_err() {
        if let Some(flag) = &control.cancel {
            flag.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs `f`, converting a panic into [`KnMatchError::Panicked`] so one
/// query's panic is isolated to its own result slot. The payload is
/// rendered with [`panic_message`]; callers that smuggle richer errors
/// through panics (the disk engine's storage errors) do their own
/// downcast before falling back to this.
pub fn isolate_panic<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(KnMatchError::Panicked {
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Executes one [`BatchQuery`] against any [`SortedAccessSource`] with
/// caller-provided working memory.
///
/// This is the single dispatch point every batch executor funnels through:
/// the in-memory [`QueryEngine`], the planner's AD route, the disk-backed
/// engine in `knmatch-storage`, and sequential cross-check loops all call
/// it — and a versioned snapshot calls the same dispatch over its run
/// list — so answers and [`AdStats`] cannot drift between them.
///
/// # Errors
///
/// Per-query parameter validation; see [`crate::KnMatchError`].
pub fn execute_batch_query<Src: SortedAccessSource>(
    src: &mut Src,
    query: &BatchQuery,
    scratch: &mut Scratch,
) -> Result<(BatchAnswer, AdStats)> {
    execute_lists(src, query, scratch)
}

/// [`execute_batch_query`] over any [`SortedLists`].
pub(crate) fn execute_lists<L: SortedLists>(
    src: &mut L,
    query: &BatchQuery,
    scratch: &mut Scratch,
) -> Result<(BatchAnswer, AdStats)> {
    match query {
        BatchQuery::KnMatch { query, k, n } => {
            frequent_lists(src, query, *k, *n, *n, scratch).map(|(mut r, s)| {
                let level = r.per_n.pop().expect("single-n run yields one answer set");
                (BatchAnswer::KnMatch(level), s)
            })
        }
        BatchQuery::Frequent { query, k, n0, n1 } => {
            frequent_lists(src, query, *k, *n0, *n1, scratch)
                .map(|(r, s)| (BatchAnswer::Frequent(r), s))
        }
        BatchQuery::EpsMatch { query, eps, n } => {
            eps_lists(src, query, *eps, *n, scratch).map(|(r, s)| (BatchAnswer::EpsMatch(r), s))
        }
    }
}

/// The batch loop of the in-memory AD engines: one query per
/// [`run_batch`] work item against `lists` (a shared, `Copy` view — plain
/// columns for [`QueryEngine`], the run list for a versioned snapshot),
/// per-worker [`Scratch`], panics isolated and failures noted for
/// fail-fast per query.
pub(crate) fn run_queries<L: SortedLists + Copy + Sync>(
    workers: usize,
    queries: &[BatchQuery],
    opts: &BatchOptions,
    lists: L,
) -> Vec<Result<(BatchAnswer, AdStats)>> {
    let control = opts.arm();
    run_batch(
        workers,
        queries.len(),
        || control.scratch(),
        |scratch, i| {
            let mut view = lists;
            let out = isolate_panic(|| execute_lists(&mut view, &queries[i], scratch));
            note_outcome(&control, &out);
            out
        },
    )
}

/// Runs `count` independent work items over a pool of `workers` threads,
/// returning the per-item outputs in item order.
///
/// This is the PR-1 claim-chunk executor factored out of [`QueryEngine`]
/// so any source — in-memory columns, a disk-backed shared buffer pool, a
/// remote stub — can reuse the exact scheduling behaviour: workers claim
/// item indices in chunks of 4 off one atomic counter, each builds its
/// own per-thread context once (`init`), and results travel back in one
/// message per worker. With `workers <= 1` everything runs on the calling
/// thread with a single context and no thread machinery, which keeps the
/// sequential path trivially inspectable.
///
/// Item outputs must not depend on scheduling: `exec` receives only its
/// per-thread context and the item index, so for deterministic `exec` the
/// returned vector is identical at any worker count.
pub fn run_batch<T, Ctx, I, E>(workers: usize, count: usize, init: I, exec: E) -> Vec<T>
where
    T: Send,
    I: Fn() -> Ctx + Sync,
    E: Fn(&mut Ctx, usize) -> T + Sync,
{
    if workers <= 1 || count <= 1 {
        let mut ctx = init();
        return (0..count).map(|i| exec(&mut ctx, i)).collect();
    }
    let workers = workers.min(count);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let init = &init;
            let exec = &exec;
            s.spawn(move || {
                let mut ctx = init();
                let mut done: Vec<(usize, T)> = Vec::new();
                loop {
                    // Claim a small chunk per atomic op; big enough to
                    // keep contention negligible, small enough that a
                    // straggler chunk cannot unbalance the batch.
                    let start = next.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                    if start >= count {
                        break;
                    }
                    let end = (start + CLAIM_CHUNK).min(count);
                    for i in start..end {
                        done.push((i, exec(&mut ctx, i)));
                    }
                }
                // One send per worker: answers travel in bulk, not one
                // channel node per item.
                let _ = tx.send(done);
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for done in rx {
        for (i, out) in done {
            slots[i] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("each claimed index sends exactly one result"))
        .collect()
}

/// Executes batches of matching queries in parallel over one shared
/// [`SortedColumns`].
///
/// This is the reference batch engine: the front-ends serve a static
/// dataset as a one-run [`VersionedIndex`](crate::VersionedIndex), whose
/// answers and [`AdStats`] the cross-checks hold equal to this engine's.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use knmatch_core::{BatchAnswer, BatchEngine, BatchQuery, Dataset, QueryEngine, SortedColumns};
///
/// let ds = knmatch_core::paper::fig3_dataset();
/// let engine = QueryEngine::new(Arc::new(SortedColumns::build(&ds)));
/// let batch = vec![
///     BatchQuery::KnMatch { query: vec![3.0, 7.0, 4.0], k: 2, n: 2 },
///     BatchQuery::Frequent { query: vec![3.0, 7.0, 4.0], k: 2, n0: 1, n1: 3 },
/// ];
/// let results = engine.run(&batch);
/// let (BatchAnswer::KnMatch(first), _) = results[0].as_ref().unwrap() else {
///     unreachable!()
/// };
/// assert_eq!(first.ids(), vec![2, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    cols: Arc<SortedColumns>,
    workers: usize,
}

impl QueryEngine {
    /// An engine over `cols` with one worker per available CPU.
    pub fn new(cols: Arc<SortedColumns>) -> Self {
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(cols, workers)
    }

    /// An engine with an explicit worker count (clamped to ≥ 1). One
    /// worker means [`run`](Self::run) executes on the calling thread.
    pub fn with_workers(cols: Arc<SortedColumns>, workers: usize) -> Self {
        QueryEngine {
            cols,
            workers: workers.max(1),
        }
    }

    /// The shared column organisation.
    pub fn columns(&self) -> &Arc<SortedColumns> {
        &self.cols
    }

    /// Executes one query against caller-provided scratch, on the calling
    /// thread. [`run`](Self::run) is a parallel loop over exactly this, so
    /// cross-checking the two paths needs no test-only hooks.
    ///
    /// # Errors
    ///
    /// Per-query parameter validation; see [`crate::KnMatchError`].
    pub fn execute(
        &self,
        query: &BatchQuery,
        scratch: &mut Scratch,
    ) -> Result<(BatchAnswer, AdStats)> {
        // `&SortedColumns` implements `SortedAccessSource`; taking `&mut`
        // of the local reference (not the columns) keeps the shared data
        // immutable.
        let mut view: &SortedColumns = &self.cols;
        execute_batch_query(&mut view, query, scratch)
    }
}

impl BatchEngine for QueryEngine {
    type Outcome = (BatchAnswer, AdStats);

    fn workers(&self) -> usize {
        self.workers
    }

    fn run_with(
        &self,
        queries: &[BatchQuery],
        opts: &BatchOptions,
    ) -> Vec<Result<(BatchAnswer, AdStats)>> {
        run_queries(self.workers, queries, opts, &*self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::{frequent_k_n_match_ad, k_n_match_ad};
    use crate::error::KnMatchError;

    fn engine(workers: usize) -> QueryEngine {
        let ds = crate::paper::fig3_dataset();
        QueryEngine::with_workers(Arc::new(SortedColumns::build(&ds)), workers)
    }

    fn batch() -> Vec<BatchQuery> {
        vec![
            BatchQuery::KnMatch {
                query: vec![3.0, 7.0, 4.0],
                k: 2,
                n: 2,
            },
            BatchQuery::Frequent {
                query: vec![3.0, 7.0, 4.0],
                k: 2,
                n0: 1,
                n1: 3,
            },
            BatchQuery::EpsMatch {
                query: vec![3.0, 7.0, 4.0],
                eps: 1.6,
                n: 2,
            },
            BatchQuery::KnMatch {
                query: vec![0.0, 0.0, 0.0],
                k: 1,
                n: 3,
            },
        ]
    }

    #[test]
    fn parallel_equals_sequential_wrappers() {
        let mut cols = SortedColumns::build(&crate::paper::fig3_dataset());
        for workers in [1, 2, 4, 9] {
            let results = engine(workers).run(&batch());
            let (want, ws) = k_n_match_ad(&mut cols, &[3.0, 7.0, 4.0], 2, 2).unwrap();
            let (got, gs) = match results[0].as_ref().unwrap() {
                (BatchAnswer::KnMatch(r), s) => (r, s),
                other => panic!("wrong variant: {other:?}"),
            };
            assert_eq!((got, gs), (&want, &ws));
            let (want, ws) = frequent_k_n_match_ad(&mut cols, &[3.0, 7.0, 4.0], 2, 1, 3).unwrap();
            let (got, gs) = match results[1].as_ref().unwrap() {
                (BatchAnswer::Frequent(r), s) => (r, s),
                other => panic!("wrong variant: {other:?}"),
            };
            assert_eq!((got, gs), (&want, &ws));
        }
    }

    #[test]
    fn invalid_queries_fail_individually() {
        let e = engine(2);
        let mut queries = batch();
        queries.push(BatchQuery::KnMatch {
            query: vec![1.0],
            k: 1,
            n: 1,
        });
        queries.push(BatchQuery::EpsMatch {
            query: vec![0.0; 3],
            eps: -1.0,
            n: 1,
        });
        let results = e.run(&queries);
        assert!(results[..4].iter().all(Result::is_ok));
        assert!(matches!(
            results[4],
            Err(KnMatchError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            results[5],
            Err(KnMatchError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn zero_deadline_fails_each_query_not_the_batch() {
        let e = engine(2);
        let opts = BatchOptions {
            deadline: Some(Duration::ZERO),
            ..BatchOptions::default()
        };
        let results = e.run_with(&batch(), &opts);
        assert_eq!(results.len(), 4);
        for r in results {
            assert_eq!(r, Err(KnMatchError::DeadlineExceeded));
        }
    }

    #[test]
    fn generous_deadline_is_bit_identical_to_no_options() {
        let e = engine(3);
        let opts = BatchOptions {
            deadline: Some(Duration::from_secs(3600)),
            fail_fast: true,
            ..BatchOptions::default()
        };
        assert_eq!(e.run_with(&batch(), &opts), e.run(&batch()));
    }

    #[test]
    fn fail_fast_cancels_queries_after_a_failure() {
        // One worker: queries run in input order, so everything after the
        // invalid query deterministically sees the tripped cancel flag.
        let e = engine(1);
        let mut queries = batch();
        queries.insert(
            0,
            BatchQuery::KnMatch {
                query: vec![1.0],
                k: 1,
                n: 1,
            },
        );
        let results = e.run_with(
            &queries,
            &BatchOptions {
                fail_fast: true,
                ..BatchOptions::default()
            },
        );
        assert!(matches!(
            results[0],
            Err(KnMatchError::DimensionMismatch { .. })
        ));
        for r in &results[1..] {
            assert_eq!(*r, Err(KnMatchError::Cancelled));
        }
    }

    #[test]
    fn panics_are_isolated_to_an_error() {
        let out: Result<()> = isolate_panic(|| panic!("boom {}", 42));
        assert_eq!(
            out,
            Err(KnMatchError::Panicked {
                message: "boom 42".into()
            })
        );
        let out: Result<()> = isolate_panic(|| std::panic::panic_any(7u32));
        assert_eq!(
            out,
            Err(KnMatchError::Panicked {
                message: "non-string panic payload".into()
            })
        );
    }

    #[test]
    fn empty_batch_and_accessors() {
        let e = engine(3);
        assert!(e.run(&[]).is_empty());
        assert_eq!(e.workers(), 3);
        assert_eq!(e.columns().cardinality(), 5);
        assert!(QueryEngine::new(e.columns().clone()).workers() >= 1);
        assert_eq!(
            QueryEngine::with_workers(e.columns().clone(), 0).workers(),
            1
        );
    }
}
