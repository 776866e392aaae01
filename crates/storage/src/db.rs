//! A disk-resident k-n-match database: sorted-column file + heap file
//! behind one buffer pool, with the paper's two disk algorithms —
//! the disk-based AD algorithm (Section 4.1) and the sequential-scan
//! baseline — exposed with per-query I/O statistics.
//!
//! A [`DiskDatabase`] is a [`DiskQueryEngine`] plus its [`HeapFile`]: the
//! AD queries are the engine's [`execute`](DiskQueryEngine::execute) on
//! the calling thread, and the scan, the point fetches and
//! [`verify`](DiskDatabase::verify) read the heap through the same
//! [`SharedBufferPool`]. Every query books its I/O in a fresh
//! [`ReadSession`], so its [`IoStats`] are the cold private-pool model
//! whatever earlier queries left cached; what the pool actually served
//! is [`DiskDatabase::pool_stats`].

use knmatch_core::{
    AdStats, BatchAnswer, BatchQuery, Dataset, FrequentResult, KnMatchResult, Result, Scratch,
};

use crate::buffer::IoStats;
use crate::column_file::{SharedDiskColumns, SortedColumnFile};
use crate::disk_engine::DiskQueryEngine;
use crate::error::StorageResult;
use crate::heap_file::HeapFile;
use crate::shared_pool::{ReadSession, SharedBufferPool};
use crate::store::{MemStore, PageStore, SharedPageStore};

/// Outcome of one disk query: the answer plus what it cost.
#[derive(Debug, Clone)]
pub struct DiskQueryOutcome<R> {
    /// The query answer.
    pub result: R,
    /// Page-level I/O incurred by this query, modelled on a cold private
    /// pool of the database's capacity.
    pub io: IoStats,
    /// Attribute-level AD counters (zeroed for scan-based queries' probes).
    pub ad: AdStats,
}

/// A dataset materialised on "disk" (any [`SharedPageStore`]): a heap file
/// in pid order plus a sorted-column file, sharing one LRU buffer pool.
#[derive(Debug)]
pub struct DiskDatabase<S> {
    engine: DiskQueryEngine<S>,
    heap: HeapFile,
}

impl DiskDatabase<MemStore> {
    /// Builds both files in a fresh in-memory store (the deterministic
    /// experiment substrate).
    ///
    /// # Panics
    ///
    /// Panics when `pool_pages == 0` (use [`DiskLayout::attach`] for a
    /// fallible path).
    pub fn build_in_memory(ds: &Dataset, pool_pages: usize) -> Self {
        let mut store = MemStore::new();
        Self::build(ds, &mut store)
            .attach(store, pool_pages)
            .expect("pool_pages must be at least one")
    }
}

/// Layout handles produced by [`DiskDatabase::build`]; attach them to the
/// store they were built into.
#[derive(Debug, Clone)]
pub struct DiskLayout {
    /// Sorted-dimension file handle.
    pub columns: SortedColumnFile,
    /// Full-record heap file handle.
    pub heap: HeapFile,
}

impl DiskLayout {
    /// Binds the layout to its store behind a pool of `pool_pages` frames.
    ///
    /// # Errors
    ///
    /// Rejects `pool_pages == 0` as `InvalidInput` (a pool needs at least
    /// one frame; see [`DiskQueryEngine::with_workers`]).
    pub fn attach<S: SharedPageStore>(
        self,
        store: S,
        pool_pages: usize,
    ) -> std::io::Result<DiskDatabase<S>> {
        Ok(DiskDatabase {
            engine: DiskQueryEngine::with_workers(store, self.columns, pool_pages, 1)?,
            heap: self.heap,
        })
    }
}

impl<S: SharedPageStore> DiskDatabase<S> {
    /// Writes the heap file then the column file into `store`.
    pub fn build(ds: &Dataset, store: &mut impl PageStore) -> DiskLayout {
        let heap = HeapFile::build(store, ds);
        let columns = SortedColumnFile::build(store, ds);
        DiskLayout { columns, heap }
    }

    /// The sorted-column file handle.
    pub fn columns(&self) -> &SortedColumnFile {
        self.engine.columns()
    }

    /// The heap file handle.
    pub fn heap(&self) -> HeapFile {
        self.heap
    }

    /// The buffer pool every read of this database goes through (e.g. to
    /// [`invalidate_all`](SharedBufferPool::invalidate_all) between
    /// queries for a cold cache).
    pub fn pool(&self) -> &SharedBufferPool<S> {
        self.engine.pool()
    }

    /// Traffic the pool actually served so far (merged shard counters):
    /// unlike a query's modelled [`DiskQueryOutcome::io`], it shrinks when
    /// earlier queries left pages cached.
    pub fn pool_stats(&self) -> IoStats {
        self.engine.pool_stats()
    }

    /// Pool capacity in pages (also each query's modelled capacity).
    pub fn pool_pages(&self) -> usize {
        self.engine.pool_pages()
    }

    /// A fresh session modelling one query on a cold pool of this
    /// database's capacity.
    pub(crate) fn session(&self) -> ReadSession {
        ReadSession::new(self.pool_pages())
    }

    /// Cardinality `c`.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.heap.dims()
    }

    /// Runs one query through the engine on the calling thread, taking
    /// the answer out of its [`BatchAnswer`] with `answer`.
    fn execute<R>(
        &self,
        query: BatchQuery,
        answer: impl FnOnce(BatchAnswer) -> Option<R>,
    ) -> Result<DiskQueryOutcome<R>> {
        let mut src = SharedDiskColumns::new(self.columns(), self.pool(), self.pool_pages());
        let out = self.engine.execute(&query, &mut src, &mut Scratch::new())?;
        Ok(DiskQueryOutcome {
            result: answer(out.answer).expect("an answer mirrors its query's kind"),
            io: out.io,
            ad: out.ad,
        })
    }

    /// Disk-based AD k-n-match (Section 4.1).
    ///
    /// # Errors
    ///
    /// Core parameter validation, or [`knmatch_core::KnMatchError::Storage`]
    /// when a page read fails.
    pub fn k_n_match(
        &self,
        query: &[f64],
        k: usize,
        n: usize,
    ) -> Result<DiskQueryOutcome<KnMatchResult>> {
        let query = query.to_vec();
        self.execute(BatchQuery::KnMatch { query, k, n }, |a| match a {
            BatchAnswer::KnMatch(r) => Some(r),
            _ => None,
        })
    }

    /// Disk-based AD frequent k-n-match (Section 4.1).
    ///
    /// # Errors
    ///
    /// As [`DiskDatabase::k_n_match`].
    pub fn frequent_k_n_match(
        &self,
        query: &[f64],
        k: usize,
        n0: usize,
        n1: usize,
    ) -> Result<DiskQueryOutcome<FrequentResult>> {
        let query = query.to_vec();
        self.execute(BatchQuery::Frequent { query, k, n0, n1 }, |a| match a {
            BatchAnswer::Frequent(r) => Some(r),
            _ => None,
        })
    }

    /// Disk-based AD eps-n-match: all points matching the query in at
    /// least `n` dimensions within `eps`.
    ///
    /// # Errors
    ///
    /// As [`DiskDatabase::k_n_match`].
    pub fn eps_n_match(
        &self,
        query: &[f64],
        eps: f64,
        n: usize,
    ) -> Result<DiskQueryOutcome<KnMatchResult>> {
        let query = query.to_vec();
        self.execute(BatchQuery::EpsMatch { query, eps, n }, |a| match a {
            BatchAnswer::EpsMatch(r) => Some(r),
            _ => None,
        })
    }

    /// Sequential-scan k-n-match baseline: streams the heap file, computing
    /// every point's n-match difference (the paper's "scan" competitor).
    ///
    /// # Errors
    ///
    /// As [`DiskDatabase::k_n_match`].
    pub fn scan_k_n_match(
        &self,
        query: &[f64],
        k: usize,
        n: usize,
    ) -> Result<DiskQueryOutcome<KnMatchResult>> {
        let out = self.scan_frequent_k_n_match(query, k, n, n)?;
        Ok(DiskQueryOutcome {
            result: out.result.per_n.into_iter().next().expect("single n"),
            io: out.io,
            ad: out.ad,
        })
    }

    /// Sequential-scan frequent k-n-match baseline.
    ///
    /// # Errors
    ///
    /// As [`DiskDatabase::k_n_match`].
    pub fn scan_frequent_k_n_match(
        &self,
        query: &[f64],
        k: usize,
        n0: usize,
        n1: usize,
    ) -> Result<DiskQueryOutcome<FrequentResult>> {
        knmatch_core::ad::validate_params(query, self.dims(), self.len(), k, n0, n1)?;
        let mut tops: Vec<knmatch_core::topk::TopK> = (n0..=n1)
            .map(|_| knmatch_core::topk::TopK::new(k))
            .collect();
        let mut buf: Vec<f64> = Vec::with_capacity(self.dims());
        let mut session = self.session();
        self.heap.for_each(self.pool(), &mut session, |pid, row| {
            knmatch_core::sorted_differences_with_buf(row, query, &mut buf);
            for (i, top) in tops.iter_mut().enumerate() {
                top.offer(pid, buf[n0 + i - 1]);
            }
        })?;
        let per_n: Vec<KnMatchResult> = tops
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.into_result(n0 + i))
            .collect();
        Ok(DiskQueryOutcome {
            result: FrequentResult::from_levels((n0, n1), per_n, k),
            io: session.stats(),
            ad: AdStats::default(),
        })
    }

    /// Fetches one point by id (through the pool; counts as I/O).
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries.
    pub fn fetch_point(&self, pid: knmatch_core::PointId) -> StorageResult<Vec<f64>> {
        let mut out = vec![0.0; self.dims()];
        self.heap
            .point(self.pool(), &mut self.session(), pid, &mut out)?;
        Ok(out)
    }

    /// Streams the heap file back into a [`Dataset`] (how the in-memory
    /// backends load a database file).
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries.
    pub fn to_dataset(&self) -> StorageResult<Dataset> {
        self.heap.to_dataset(self.pool(), &mut self.session())
    }

    /// The batch engine over this database's column file, with `workers`
    /// workers and this database's pool (warm as it is).
    pub fn into_engine(self, workers: usize) -> DiskQueryEngine<S> {
        let mut engine = self.engine;
        engine.set_workers(workers);
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_db() -> DiskDatabase<MemStore> {
        DiskDatabase::build_in_memory(&knmatch_core::paper::fig3_dataset(), 16)
    }

    #[test]
    fn disk_ad_matches_paper_running_example() {
        let db = fig3_db();
        let out = db.k_n_match(&[3.0, 7.0, 4.0], 2, 2).unwrap();
        assert_eq!(out.result.ids(), vec![2, 1]);
        assert_eq!(out.result.epsilon(), 1.5);
        assert!(out.io.page_accesses() > 0);
        assert!(out.ad.attributes_retrieved > 0);
    }

    #[test]
    fn scan_and_ad_agree() {
        let db = fig3_db();
        let q = [3.0, 7.0, 4.0];
        for n in 1..=3 {
            for k in [1, 3, 5] {
                let ad = db.k_n_match(&q, k, n).unwrap();
                let scan = db.scan_k_n_match(&q, k, n).unwrap();
                assert_eq!(ad.result.ids(), scan.result.ids(), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn frequent_disk_matches_in_memory() {
        let ds = knmatch_core::paper::fig3_dataset();
        let db = DiskDatabase::build_in_memory(&ds, 16);
        let q = [3.0, 7.0, 4.0];
        let disk = db.frequent_k_n_match(&q, 2, 1, 3).unwrap();
        let mem = knmatch_core::frequent_k_n_match_scan(&ds, &q, 2, 1, 3).unwrap();
        assert_eq!(disk.result.ids(), mem.ids());
        for (a, b) in disk.result.per_n.iter().zip(&mem.per_n) {
            assert_eq!(a.ids(), b.ids());
        }
    }

    #[test]
    fn scan_reads_whole_heap_sequentially() {
        let rows: Vec<Vec<f64>> = (0..5000)
            .map(|i| vec![(i % 97) as f64, (i % 31) as f64])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let db = DiskDatabase::build_in_memory(&ds, 4);
        let out = db.scan_k_n_match(&[3.0, 4.0], 10, 1).unwrap();
        assert_eq!(out.io.page_accesses() as usize, db.heap().total_pages());
        assert_eq!(out.io.random_reads, 1);
    }

    #[test]
    fn fetch_point_roundtrip() {
        let db = fig3_db();
        assert_eq!(db.fetch_point(4).unwrap(), vec![3.5, 1.5, 8.0]);
    }

    #[test]
    fn io_stats_isolated_per_query() {
        let db = fig3_db();
        let q = [3.0, 7.0, 4.0];
        let first = db.k_n_match(&q, 1, 1).unwrap();
        let served = db.pool_stats();
        let second = db.k_n_match(&q, 1, 1).unwrap();
        // Each query's modelled I/O starts cold: the rerun books exactly
        // the same reads ...
        assert_eq!(second.io, first.io);
        // ... while the pool really served it from cache.
        let rerun = db.pool_stats();
        assert_eq!(rerun.page_accesses(), served.page_accesses());
        assert!(rerun.hits > served.hits);
    }
}

/// A structural problem found by [`DiskDatabase::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// A sorted column has entries out of order.
    UnsortedColumn {
        /// The offending dimension.
        dim: usize,
        /// Rank at which order breaks.
        rank: usize,
    },
    /// A dimension does not list every point exactly once.
    BadPidMultiset {
        /// The offending dimension.
        dim: usize,
    },
    /// A column entry's value disagrees with the heap file's coordinate.
    ValueMismatch {
        /// The offending dimension.
        dim: usize,
        /// The point whose value disagrees.
        pid: knmatch_core::PointId,
    },
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Corruption::UnsortedColumn { dim, rank } => {
                write!(f, "dimension {dim} is out of order at rank {rank}")
            }
            Corruption::BadPidMultiset { dim } => {
                write!(f, "dimension {dim} does not list every point exactly once")
            }
            Corruption::ValueMismatch { dim, pid } => {
                write!(
                    f,
                    "dimension {dim}: column value for point {pid} disagrees with the heap"
                )
            }
        }
    }
}

impl<S: SharedPageStore> DiskDatabase<S> {
    /// Full structural verification: every sorted column must be in
    /// ascending order, list every point exactly once, and agree value-
    /// for-value with the heap file. Returns all problems found (empty =
    /// healthy). Reads every page once.
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries.
    pub fn verify(&self) -> StorageResult<Vec<Corruption>> {
        let c = self.len();
        let d = self.dims();
        let mut problems = Vec::new();
        // Materialise the heap once for cross-checking.
        let reference = self.to_dataset()?;
        let mut session = self.session();
        for dim in 0..d {
            let mut seen = vec![false; c];
            let mut prev = f64::NEG_INFINITY;
            let mut dup_or_missing = false;
            for rank in 0..c {
                let e = self.columns().entry(self.pool(), &mut session, dim, rank)?;
                if e.value < prev {
                    problems.push(Corruption::UnsortedColumn { dim, rank });
                    prev = e.value;
                } else {
                    prev = e.value;
                }
                let idx = e.pid as usize;
                if idx >= c || seen[idx] {
                    dup_or_missing = true;
                } else {
                    seen[idx] = true;
                    if reference.coord(e.pid, dim) != e.value {
                        problems.push(Corruption::ValueMismatch { dim, pid: e.pid });
                    }
                }
            }
            if dup_or_missing || !seen.iter().all(|&s| s) {
                problems.push(Corruption::BadPidMultiset { dim });
            }
        }
        Ok(problems)
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use crate::page::{empty_page, read_column_entry, write_column_entry};

    fn sample_dataset() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..700)
            .map(|i| vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.73) % 1.0])
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    /// The sample database with `corrupt` applied to page `page_of(layout)`
    /// of its store before the pool is attached, plus what `corrupt`
    /// returned.
    fn corrupted_db<T>(
        page_of: impl FnOnce(&DiskLayout) -> usize,
        corrupt: impl FnOnce(&mut crate::page::PageBuf) -> T,
    ) -> (DiskDatabase<MemStore>, T) {
        let mut store = MemStore::new();
        let layout = DiskDatabase::<MemStore>::build(&sample_dataset(), &mut store);
        let page_no = page_of(&layout);
        let mut buf = empty_page();
        store.try_read_page(page_no, &mut buf).unwrap();
        let witness = corrupt(&mut buf);
        store.write_page(page_no, &buf);
        (layout.attach(store, 64).unwrap(), witness)
    }

    #[test]
    fn healthy_database_verifies_clean() {
        let db = DiskDatabase::build_in_memory(&sample_dataset(), 64);
        assert!(db.verify().unwrap().is_empty());
    }

    #[test]
    fn detects_unsorted_column() {
        // Swap two distinct-valued entries of dimension 0's first column
        // page (adjacent slots can legitimately hold equal values).
        let (db, ()) = corrupted_db(
            |l| l.columns.base_page(),
            |buf| {
                let a = read_column_entry(buf, 10);
                let b = read_column_entry(buf, 200);
                assert_ne!(a.1, b.1, "test needs distinct values");
                write_column_entry(buf, 10, b.0, b.1);
                write_column_entry(buf, 200, a.0, a.1);
            },
        );
        let problems = db.verify().unwrap();
        assert!(
            problems
                .iter()
                .any(|p| matches!(p, Corruption::UnsortedColumn { dim: 0, .. })),
            "{problems:?}"
        );
    }

    #[test]
    fn detects_value_mismatch() {
        // Corrupt one value in dimension 1's column region.
        let (db, pid) = corrupted_db(
            |l| l.columns.base_page() + l.columns.pages_per_dim(),
            |buf| {
                let (pid, v) = read_column_entry(buf, 5);
                write_column_entry(buf, 5, pid, v + 1e-6);
                pid
            },
        );
        let problems = db.verify().unwrap();
        assert!(
            problems
                .iter()
                .any(|p| matches!(p, Corruption::ValueMismatch { dim: 1, pid: q } if *q == pid)),
            "{problems:?}"
        );
    }

    #[test]
    fn detects_duplicated_pid() {
        let (db, ()) = corrupted_db(
            |l| l.columns.base_page(),
            |buf| {
                let (_, v) = read_column_entry(buf, 3);
                let (other_pid, _) = read_column_entry(buf, 4);
                write_column_entry(buf, 3, other_pid, v); // pid 4's id now appears twice
            },
        );
        let problems = db.verify().unwrap();
        assert!(
            problems
                .iter()
                .any(|p| matches!(p, Corruption::BadPidMultiset { dim: 0 })),
            "{problems:?}"
        );
    }
}
