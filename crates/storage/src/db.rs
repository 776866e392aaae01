//! A disk-resident k-n-match database: sorted-column file + heap file
//! behind one buffer pool, with the paper's two disk algorithms —
//! the disk-based AD algorithm (Section 4.1) and the sequential-scan
//! baseline — exposed with per-query I/O statistics.

use knmatch_core::{
    eps_n_match_ad, frequent_k_n_match_ad, k_n_match_ad, AdStats, Dataset, FrequentResult,
    KnMatchResult, Result,
};

use crate::buffer::{BufferPool, IoStats};
use crate::column_file::{DiskColumns, SortedColumnFile};
use crate::disk_engine::DiskQueryEngine;
use crate::heap_file::HeapFile;
use crate::store::{MemStore, PageStore, SharedPageStore};

/// Outcome of one disk query: the answer plus what it cost.
#[derive(Debug, Clone)]
pub struct DiskQueryOutcome<R> {
    /// The query answer.
    pub result: R,
    /// Page-level I/O incurred by this query.
    pub io: IoStats,
    /// Attribute-level AD counters (zeroed for scan-based queries' probes).
    pub ad: AdStats,
}

/// A dataset materialised on "disk" (any [`PageStore`]): a heap file in pid
/// order plus a sorted-column file, sharing one LRU buffer pool.
#[derive(Debug)]
pub struct DiskDatabase<S: PageStore> {
    pool: BufferPool<S>,
    columns: SortedColumnFile,
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
    /// one frame); validated here, up front, so no caller ever reaches the
    /// panic inside [`BufferPool::new`].
    pub fn attach<S: PageStore>(
        self,
        store: S,
        pool_pages: usize,
    ) -> std::io::Result<DiskDatabase<S>> {
        if pool_pages == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "buffer pool needs at least one frame (pool_pages == 0)",
            ));
        }
        Ok(DiskDatabase {
            pool: BufferPool::new(store, pool_pages),
            columns: self.columns,
            heap: self.heap,
        })
    }
}

impl<S: PageStore> DiskDatabase<S> {
    /// Writes the heap file then the column file into `store`.
    pub fn build(ds: &Dataset, store: &mut impl PageStore) -> DiskLayout {
        let heap = HeapFile::build(store, ds);
        let columns = SortedColumnFile::build(store, ds);
        DiskLayout { columns, heap }
    }

    /// The sorted-column file handle.
    pub fn columns(&self) -> &SortedColumnFile {
        &self.columns
    }

    /// The heap file handle.
    pub fn heap(&self) -> HeapFile {
        self.heap
    }

    /// The shared buffer pool.
    pub fn pool_mut(&mut self) -> &mut BufferPool<S> {
        &mut self.pool
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

    /// Disk-based AD k-n-match (Section 4.1).
    ///
    /// # Errors
    ///
    /// Propagates core parameter validation.
    pub fn k_n_match(
        &mut self,
        query: &[f64],
        k: usize,
        n: usize,
    ) -> Result<DiskQueryOutcome<KnMatchResult>> {
        self.pool.reset_stats();
        let mut src = DiskColumns::new(&self.columns, &mut self.pool);
        let (result, ad) = k_n_match_ad(&mut src, query, k, n)?;
        Ok(DiskQueryOutcome {
            result,
            io: self.pool.stats(),
            ad,
        })
    }

    /// Disk-based AD frequent k-n-match (Section 4.1).
    ///
    /// # Errors
    ///
    /// Propagates core parameter validation.
    pub fn frequent_k_n_match(
        &mut self,
        query: &[f64],
        k: usize,
        n0: usize,
        n1: usize,
    ) -> Result<DiskQueryOutcome<FrequentResult>> {
        self.pool.reset_stats();
        let mut src = DiskColumns::new(&self.columns, &mut self.pool);
        let (result, ad) = frequent_k_n_match_ad(&mut src, query, k, n0, n1)?;
        Ok(DiskQueryOutcome {
            result,
            io: self.pool.stats(),
            ad,
        })
    }

    /// Disk-based AD eps-n-match: all points matching the query in at
    /// least `n` dimensions within `eps`.
    ///
    /// # Errors
    ///
    /// Propagates core parameter validation.
    pub fn eps_n_match(
        &mut self,
        query: &[f64],
        eps: f64,
        n: usize,
    ) -> Result<DiskQueryOutcome<KnMatchResult>> {
        self.pool.reset_stats();
        let mut src = DiskColumns::new(&self.columns, &mut self.pool);
        let (result, ad) = eps_n_match_ad(&mut src, query, eps, n)?;
        Ok(DiskQueryOutcome {
            result,
            io: self.pool.stats(),
            ad,
        })
    }

    /// Sequential-scan k-n-match baseline: streams the heap file, computing
    /// every point's n-match difference (the paper's "scan" competitor).
    ///
    /// # Errors
    ///
    /// Propagates core parameter validation.
    pub fn scan_k_n_match(
        &mut self,
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
    /// Propagates core parameter validation.
    pub fn scan_frequent_k_n_match(
        &mut self,
        query: &[f64],
        k: usize,
        n0: usize,
        n1: usize,
    ) -> Result<DiskQueryOutcome<FrequentResult>> {
        knmatch_core::ad::validate_params(query, self.dims(), self.len(), k, n0, n1)?;
        self.pool.reset_stats();
        let mut tops: Vec<knmatch_core::topk::TopK> = (n0..=n1)
            .map(|_| knmatch_core::topk::TopK::new(k))
            .collect();
        let mut buf: Vec<f64> = Vec::with_capacity(self.dims());
        let heap = self.heap;
        heap.for_each(&mut self.pool, |pid, row| {
            knmatch_core::sorted_differences_with_buf(row, query, &mut buf);
            for (i, top) in tops.iter_mut().enumerate() {
                top.offer(pid, buf[n0 + i - 1]);
            }
        });
        let per_n: Vec<KnMatchResult> = tops
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.into_result(n0 + i))
            .collect();
        Ok(DiskQueryOutcome {
            result: FrequentResult::from_levels((n0, n1), per_n, k),
            io: self.pool.stats(),
            ad: AdStats::default(),
        })
    }

    /// Fetches one point by id (through the pool; counts as I/O).
    pub fn fetch_point(&mut self, pid: knmatch_core::PointId) -> Vec<f64> {
        let mut out = vec![0.0; self.dims()];
        let heap = self.heap;
        heap.point(&mut self.pool, pid, &mut out);
        out
    }

    /// Converts this sequential database into a parallel
    /// [`DiskQueryEngine`] with `workers` workers, carrying over the store
    /// and the pool capacity (the engine's shared cache starts cold).
    pub fn into_engine(self, workers: usize) -> DiskQueryEngine<S>
    where
        S: SharedPageStore,
    {
        let pool_pages = self.pool.capacity();
        DiskQueryEngine::with_workers(self.pool.into_store(), self.columns, pool_pages, workers)
            .expect("capacity was already validated")
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
        let mut db = fig3_db();
        let out = db.k_n_match(&[3.0, 7.0, 4.0], 2, 2).unwrap();
        assert_eq!(out.result.ids(), vec![2, 1]);
        assert_eq!(out.result.epsilon(), 1.5);
        assert!(out.io.page_accesses() > 0);
        assert!(out.ad.attributes_retrieved > 0);
    }

    #[test]
    fn scan_and_ad_agree() {
        let mut db = fig3_db();
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
        let mut db = DiskDatabase::build_in_memory(&ds, 16);
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
        let mut db = DiskDatabase::build_in_memory(&ds, 4);
        let out = db.scan_k_n_match(&[3.0, 4.0], 10, 1).unwrap();
        assert_eq!(out.io.page_accesses() as usize, db.heap().total_pages());
        assert_eq!(out.io.random_reads, 1);
    }

    #[test]
    fn fetch_point_roundtrip() {
        let mut db = fig3_db();
        assert_eq!(db.fetch_point(4), vec![3.5, 1.5, 8.0]);
    }

    #[test]
    fn io_stats_isolated_per_query() {
        let mut db = fig3_db();
        let first = db.k_n_match(&[3.0, 7.0, 4.0], 1, 1).unwrap();
        let second = db.k_n_match(&[3.0, 7.0, 4.0], 1, 1).unwrap();
        // Second run hits the warm pool: fewer or equal accesses.
        assert!(second.io.page_accesses() <= first.io.page_accesses());
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

impl<S: PageStore> DiskDatabase<S> {
    /// Full structural verification: every sorted column must be in
    /// ascending order, list every point exactly once, and agree value-
    /// for-value with the heap file. Returns all problems found (empty =
    /// healthy). Reads every page once.
    pub fn verify(&mut self) -> Vec<Corruption> {
        let c = self.len();
        let d = self.dims();
        let mut problems = Vec::new();
        // Materialise the heap once for cross-checking.
        let heap = self.heap;
        let reference = heap.to_dataset(&mut self.pool);
        let columns = self.columns.clone();
        for dim in 0..d {
            let mut seen = vec![false; c];
            let mut prev = f64::NEG_INFINITY;
            let mut dup_or_missing = false;
            for rank in 0..c {
                let e = columns.entry(&mut self.pool, dim, rank);
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
        problems
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use crate::page::{write_column_entry, COLUMN_ENTRIES_PER_PAGE};

    fn sample_db() -> DiskDatabase<MemStore> {
        let rows: Vec<Vec<f64>> = (0..700)
            .map(|i| vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.73) % 1.0])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        DiskDatabase::build_in_memory(&ds, 64)
    }

    #[test]
    fn healthy_database_verifies_clean() {
        let mut db = sample_db();
        assert!(db.verify().is_empty());
    }

    #[test]
    fn detects_unsorted_column() {
        let mut db = sample_db();
        // Swap two distinct-valued entries of dimension 0's first column
        // page (adjacent slots can legitimately hold equal values).
        let page_no = db.columns().base_page();
        let mut buf = crate::page::empty_page();
        db.pool_mut().store_mut().read_page(page_no, &mut buf);
        let a = crate::page::read_column_entry(&buf, 10);
        let b = crate::page::read_column_entry(&buf, 200);
        assert_ne!(a.1, b.1, "test needs distinct values");
        write_column_entry(&mut buf, 10, b.0, b.1);
        write_column_entry(&mut buf, 200, a.0, a.1);
        db.pool_mut().store_mut().write_page(page_no, &buf);
        db.pool_mut().invalidate_all();
        let problems = db.verify();
        assert!(
            problems
                .iter()
                .any(|p| matches!(p, Corruption::UnsortedColumn { dim: 0, .. })),
            "{problems:?}"
        );
    }

    #[test]
    fn detects_value_mismatch() {
        let mut db = sample_db();
        // Corrupt one value in dimension 1's column region.
        let page_no = db.columns().base_page() + db.columns().pages_per_dim();
        let mut buf = crate::page::empty_page();
        db.pool_mut().store_mut().read_page(page_no, &mut buf);
        let (pid, v) = crate::page::read_column_entry(&buf, 5);
        write_column_entry(&mut buf, 5, pid, v + 1e-6);
        db.pool_mut().store_mut().write_page(page_no, &buf);
        db.pool_mut().invalidate_all();
        let problems = db.verify();
        assert!(
            problems
                .iter()
                .any(|p| matches!(p, Corruption::ValueMismatch { dim: 1, pid: q } if *q == pid)),
            "{problems:?}"
        );
    }

    #[test]
    fn detects_duplicated_pid() {
        let mut db = sample_db();
        let page_no = db.columns().base_page();
        let mut buf = crate::page::empty_page();
        db.pool_mut().store_mut().read_page(page_no, &mut buf);
        let (_, v) = crate::page::read_column_entry(&buf, 3);
        let (other_pid, _) = crate::page::read_column_entry(&buf, 4);
        write_column_entry(&mut buf, 3, other_pid, v); // pid 4's id now appears twice
        db.pool_mut().store_mut().write_page(page_no, &buf);
        db.pool_mut().invalidate_all();
        let problems = db.verify();
        assert!(
            problems
                .iter()
                .any(|p| matches!(p, Corruption::BadPidMultiset { dim: 0 })),
            "{problems:?}"
        );
        let _ = COLUMN_ENTRIES_PER_PAGE;
    }
}
