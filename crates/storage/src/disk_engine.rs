//! Parallel batch execution of matching queries over a disk-resident
//! database.
//!
//! [`DiskQueryEngine`] runs the paper's disk-based AD (Section 4.1) over
//! a batch: `W` workers claim queries from the shared claim-chunk
//! executor ([`knmatch_core::run_batch`]) and every worker drives the
//! generic AD engine over its own [`SharedDiskColumns`] view — a private
//! [`crate::ReadSession`] plus per-dimension copy-out slots — into one
//! [`SharedBufferPool`], so hot fence and column pages are fetched once
//! for the whole batch instead of once per worker. A
//! [`crate::DiskDatabase`] is this engine plus its heap file; its
//! single-query methods are [`DiskQueryEngine::execute`] on the calling
//! thread.
//!
//! **Determinism contract.** Answers and `AdStats` come out of the exact
//! same `execute_batch_query` loop as every other entry point, and the
//! per-query [`IoStats`] are *modelled* against a private cold pool of
//! the configured capacity (see [`crate::ReadSession`]) — so all three
//! are identical at any worker count, any scheduling and any state of
//! the shared cache. The shared pool's *actual* I/O (what the batch
//! really cost, with cross-query sharing) is reported separately via
//! [`DiskQueryEngine::pool_stats`].

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

use knmatch_core::{
    execute_batch_query, note_outcome, panic_message, run_batch, AdStats, BatchAnswer, BatchEngine,
    BatchOptions, BatchOutcome, BatchQuery, KnMatchError, Result, Scratch,
};

use crate::buffer::IoStats;
use crate::column_file::{SharedDiskColumns, SortedColumnFile};
use crate::error::StorageError;
use crate::shared_pool::SharedBufferPool;
use crate::store::SharedPageStore;

/// Converts a panic caught at the disk-query boundary into a
/// [`KnMatchError`]. A [`StorageError`] smuggled across the infallible
/// `SortedAccessSource` trait via `panic_any` (see
/// [`SharedDiskColumns`]'s page reads) becomes
/// [`KnMatchError::Storage`]; any other payload is a genuine panic and
/// becomes [`KnMatchError::Panicked`].
fn unwind_to_error(payload: Box<dyn std::any::Any + Send>) -> KnMatchError {
    match payload.downcast::<StorageError>() {
        Ok(e) => (*e).into(),
        Err(payload) => KnMatchError::Panicked {
            message: panic_message(payload.as_ref()),
        },
    }
}

/// Outcome of one query of a disk batch: the answer plus both cost views.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskBatchOutcome {
    /// The query answer, mirroring the [`BatchQuery`] variant.
    pub answer: BatchAnswer,
    /// Attribute-level AD counters.
    pub ad: AdStats,
    /// Modelled per-query page I/O: what this query alone would cost on a
    /// cold private pool of the engine's capacity. Deterministic at any
    /// worker count.
    pub io: IoStats,
}

impl BatchOutcome for DiskBatchOutcome {
    fn answer(&self) -> &BatchAnswer {
        &self.answer
    }

    fn ad_stats(&self) -> AdStats {
        self.ad
    }

    fn into_answer(self) -> BatchAnswer {
        self.answer
    }
}

/// Executes batches of matching queries in parallel against a
/// disk-resident sorted-column file behind one [`SharedBufferPool`].
///
/// # Examples
///
/// ```
/// use knmatch_core::{BatchEngine, BatchQuery};
/// use knmatch_storage::DiskDatabase;
///
/// let ds = knmatch_core::paper::fig3_dataset();
/// let engine = DiskDatabase::build_in_memory(&ds, 16).into_engine(4);
/// let batch = vec![BatchQuery::KnMatch { query: vec![3.0, 7.0, 4.0], k: 2, n: 2 }];
/// let out = engine.run(&batch).pop().unwrap().unwrap();
/// let knmatch_core::BatchAnswer::KnMatch(res) = out.answer else { unreachable!() };
/// assert_eq!(res.ids(), vec![2, 1]);
/// assert!(out.io.page_accesses() > 0);
/// ```
#[derive(Debug)]
pub struct DiskQueryEngine<S> {
    pool: SharedBufferPool<S>,
    columns: SortedColumnFile,
    pool_pages: usize,
    workers: usize,
}

impl<S: SharedPageStore> DiskQueryEngine<S> {
    /// An engine over the column file laid out in `store`, with a shared
    /// cache of `pool_pages` frames (also the modelled per-query pool
    /// capacity) and one worker per available CPU.
    ///
    /// # Errors
    ///
    /// Rejects `pool_pages == 0` as `InvalidInput`.
    pub fn new(store: S, columns: SortedColumnFile, pool_pages: usize) -> io::Result<Self> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(store, columns, pool_pages, workers)
    }

    /// An engine with an explicit worker count (clamped to ≥ 1). Every
    /// disk database is built here, so this is where a pool size is
    /// validated.
    ///
    /// # Errors
    ///
    /// Rejects `pool_pages == 0` as `InvalidInput`.
    pub fn with_workers(
        store: S,
        columns: SortedColumnFile,
        pool_pages: usize,
        workers: usize,
    ) -> io::Result<Self> {
        check_pool_pages(pool_pages)?;
        Ok(DiskQueryEngine {
            pool: SharedBufferPool::new(store, pool_pages),
            columns,
            pool_pages,
            workers: workers.max(1),
        })
    }

    /// Reconfigures the worker count (clamped to ≥ 1), keeping the warm
    /// cache — useful for worker-sweep benchmarks.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The sorted-column file handle.
    pub fn columns(&self) -> &SortedColumnFile {
        &self.columns
    }

    /// The shared buffer pool (e.g. to invalidate after store mutation).
    pub fn pool(&self) -> &SharedBufferPool<S> {
        &self.pool
    }

    /// Actual shared-cache traffic accumulated so far (merged per-shard
    /// counters): the real I/O the batch cost, with cross-query sharing.
    pub fn pool_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Modelled per-query pool capacity.
    pub fn pool_pages(&self) -> usize {
        self.pool_pages
    }

    /// Executes one query on the calling thread against caller-provided
    /// state. [`run`](Self::run) is a parallel loop over exactly this, so
    /// cross-checking the two paths needs no test-only hooks.
    ///
    /// The query body runs under `catch_unwind`: a storage failure that
    /// exhausted its retries (surfacing as a [`StorageError`] panic from
    /// the page reader) becomes [`KnMatchError::Storage`], any other
    /// panic becomes [`KnMatchError::Panicked`] — in both cases only this
    /// query's result slot fails and `src`/`scratch` remain usable (their
    /// per-query state is reset by the next `begin_query`/reseed).
    ///
    /// # Errors
    ///
    /// Per-query parameter validation; see
    /// [`KnMatchError`].
    pub fn execute(
        &self,
        query: &BatchQuery,
        src: &mut SharedDiskColumns<'_, S>,
        scratch: &mut Scratch,
    ) -> Result<DiskBatchOutcome> {
        src.begin_query();
        let run = catch_unwind(AssertUnwindSafe(|| {
            execute_batch_query(src, query, scratch)
        }));
        let (answer, ad) = match run {
            Ok(r) => r?,
            Err(payload) => return Err(unwind_to_error(payload)),
        };
        Ok(DiskBatchOutcome {
            answer,
            ad,
            io: src.session_stats(),
        })
    }
}

/// Rejects a zero-frame pool as `InvalidInput`: a pool needs at least one
/// frame. [`DiskQueryEngine::with_workers`] checks every pool this way;
/// [`crate::DiskDatabase::create_file`] checks first too, so a bad size
/// never truncates an existing file.
pub(crate) fn check_pool_pages(pool_pages: usize) -> io::Result<()> {
    if pool_pages == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "buffer pool needs at least one frame (pool_pages == 0)",
        ));
    }
    Ok(())
}

impl<S: SharedPageStore> BatchEngine for DiskQueryEngine<S> {
    type Outcome = DiskBatchOutcome;

    fn workers(&self) -> usize {
        self.workers
    }

    /// Invalid, failing, or panicking queries yield an `Err` in their own
    /// slot without affecting the rest of the batch. Answers, `AdStats`,
    /// and modelled `IoStats` are identical at every worker count.
    fn run_with(
        &self,
        queries: &[BatchQuery],
        opts: &BatchOptions,
    ) -> Vec<Result<DiskBatchOutcome>> {
        let control = opts.arm();
        run_batch(
            self.workers,
            queries.len(),
            || {
                (
                    SharedDiskColumns::new(&self.columns, &self.pool, self.pool_pages),
                    control.scratch(),
                )
            },
            |(src, scratch), i| {
                let out = self.execute(&queries[i], src, scratch);
                note_outcome(&control, &out);
                out
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DiskDatabase;
    use crate::store::MemStore;

    fn fig3_engine(workers: usize) -> DiskQueryEngine<MemStore> {
        DiskDatabase::build_in_memory(&knmatch_core::paper::fig3_dataset(), 16).into_engine(workers)
    }

    /// Match-or-fail: the `KnMatch` payload, or a failure naming the
    /// variant actually returned.
    fn expect_kn(answer: &BatchAnswer) -> &knmatch_core::KnMatchResult {
        match answer {
            BatchAnswer::KnMatch(r) => r,
            other => panic!("expected a KnMatch answer, got {other:?}"),
        }
    }

    /// Match-or-fail: the `Frequent` payload, or a failure naming the
    /// variant actually returned.
    fn expect_frequent(answer: &BatchAnswer) -> &knmatch_core::FrequentResult {
        match answer {
            BatchAnswer::Frequent(r) => r,
            other => panic!("expected a Frequent answer, got {other:?}"),
        }
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
        ]
    }

    #[test]
    fn matches_sequential_disk_database_per_query() {
        for workers in [1, 2, 4] {
            let engine = fig3_engine(workers);
            let results = engine.run(&batch());

            let db = DiskDatabase::build_in_memory(&knmatch_core::paper::fig3_dataset(), 16);
            let want = db.k_n_match(&[3.0, 7.0, 4.0], 2, 2).unwrap();
            let got = results[0].as_ref().unwrap();
            let r = expect_kn(&got.answer);
            assert_eq!(r, &want.result);
            assert_eq!(got.ad, want.ad);
            assert_eq!(got.io, want.io, "workers {workers}");

            let want = db.frequent_k_n_match(&[3.0, 7.0, 4.0], 2, 1, 3).unwrap();
            let got = results[1].as_ref().unwrap();
            let r = expect_frequent(&got.answer);
            assert_eq!(r, &want.result);
            assert_eq!(got.io, want.io);
        }
    }

    #[test]
    fn invalid_queries_fail_individually() {
        let engine = fig3_engine(2);
        let mut queries = batch();
        queries.push(BatchQuery::KnMatch {
            query: vec![1.0],
            k: 1,
            n: 1,
        });
        let results = engine.run(&queries);
        assert!(results[..3].iter().all(Result::is_ok));
        assert!(results[3].is_err());
    }

    #[test]
    fn rejects_zero_pool_pages() {
        let ds = knmatch_core::paper::fig3_dataset();
        let mut store = MemStore::new();
        let layout = DiskDatabase::<MemStore>::build(&ds, &mut store);
        let err = DiskQueryEngine::new(store, layout.columns, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn deadlines_and_generous_options_behave() {
        let engine = fig3_engine(2);
        let opts = BatchOptions {
            deadline: Some(std::time::Duration::ZERO),
            ..BatchOptions::default()
        };
        for r in engine.run_with(&batch(), &opts) {
            assert_eq!(r, Err(KnMatchError::DeadlineExceeded));
        }
        let opts = BatchOptions {
            deadline: Some(std::time::Duration::from_secs(3600)),
            fail_fast: true,
            ..BatchOptions::default()
        };
        assert_eq!(engine.run_with(&batch(), &opts), engine.run(&batch()));
    }

    #[test]
    fn shared_pool_accumulates_hits_across_queries() {
        let engine = fig3_engine(1);
        let b = batch();
        let _ = engine.run(&b);
        let cold = engine.pool_stats();
        let _ = engine.run(&b);
        let warm = engine.pool_stats();
        // Second run of the same batch is served from the shared cache.
        assert_eq!(warm.page_accesses(), cold.page_accesses());
        assert!(warm.hits > cold.hits);
    }

    #[test]
    fn accessors() {
        let mut engine = fig3_engine(3);
        assert_eq!(engine.workers(), 3);
        engine.set_workers(0);
        assert_eq!(engine.workers(), 1);
        assert_eq!(engine.pool_pages(), 16);
        assert_eq!(engine.columns().dims(), 3);
        assert!(engine.run(&[]).is_empty());
        assert_eq!(
            crate::PageStore::page_count(engine.pool().store()),
            engine.columns().total_pages() + 1
        );
    }
}
