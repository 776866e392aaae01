//! A heap file of full records, stored row-major in pid order.
//!
//! The sequential-scan baseline streams it; the VA-file's refinement phase
//! fetches individual points from it by pid (the random accesses the paper
//! blames for the VA-file adaptation's poor showing in Figure 10).

use knmatch_core::{Dataset, PointId};

use crate::error::StorageResult;
use crate::page::{empty_page, pages_needed, read_row, rows_per_page, write_row};
use crate::shared_pool::{ReadSession, SharedBufferPool, POINT_LOOKUP};
use crate::store::{PageStore, SharedPageStore};

/// Stream group used by whole-file scans ([`HeapFile::for_each`] and the
/// VA-file approximation scan). Point fetches ([`HeapFile::point`]) carry
/// no stream and classify as random, as the paper observes for the
/// VA-file's refinement phase.
pub const SCAN_GROUP: u32 = u32::MAX - 1;

/// Layout metadata of a heap file inside a page store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapFile {
    dims: usize,
    len: usize,
    rows_per_page: usize,
    base_page: usize,
}

impl HeapFile {
    /// Appends every point of `ds` to `store` in pid order.
    pub fn build<S: PageStore>(store: &mut S, ds: &Dataset) -> Self {
        let dims = ds.dims();
        let rpp = rows_per_page(dims);
        let base_page = store.page_count();
        let mut page = empty_page();
        let mut slot = 0usize;
        for (_, row) in ds.iter() {
            write_row(&mut page, slot, row);
            slot += 1;
            if slot == rpp {
                store.append_page(&page);
                page = empty_page();
                slot = 0;
            }
        }
        if slot > 0 {
            store.append_page(&page);
        }
        HeapFile {
            dims,
            len: ds.len(),
            rows_per_page: rpp,
            base_page,
        }
    }

    /// Reconstructs a handle to an existing heap file from its layout
    /// parameters (the layout is fully determined by them).
    ///
    /// # Panics
    ///
    /// Panics when a `dims`-dimensional row cannot fit one page.
    pub fn open(dims: usize, len: usize, base_page: usize) -> Self {
        HeapFile {
            dims,
            len,
            rows_per_page: rows_per_page(dims),
            base_page,
        }
    }

    /// Dimensionality of the stored rows.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages occupied.
    pub fn total_pages(&self) -> usize {
        pages_needed(self.len, self.rows_per_page)
    }

    /// First page inside the store.
    pub fn base_page(&self) -> usize {
        self.base_page
    }

    /// Page number holding `pid`.
    pub fn page_of(&self, pid: PointId) -> usize {
        self.base_page + pid as usize / self.rows_per_page
    }

    /// Reads point `pid` into `out` through `pool` (a point lookup, so a
    /// miss books a random read in `session`).
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries.
    ///
    /// # Panics
    ///
    /// Panics when `pid` is out of range or `out.len() != dims`.
    pub fn point<S: SharedPageStore>(
        &self,
        pool: &SharedBufferPool<S>,
        session: &mut ReadSession,
        pid: PointId,
        out: &mut [f64],
    ) -> StorageResult<()> {
        assert!((pid as usize) < self.len, "pid {pid} out of range");
        assert_eq!(out.len(), self.dims, "output buffer dimensionality");
        let mut page = empty_page();
        pool.read_in(self.page_of(pid), POINT_LOOKUP, session, &mut page)?;
        read_row(&page, pid as usize % self.rows_per_page, out);
        Ok(())
    }

    /// Streams every `(pid, row)` in pid order (sequential page reads in
    /// [`SCAN_GROUP`]), invoking `f` per point.
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries; `f` has then
    /// seen the rows of the pages before it.
    pub fn for_each<S: SharedPageStore>(
        &self,
        pool: &SharedBufferPool<S>,
        session: &mut ReadSession,
        mut f: impl FnMut(PointId, &[f64]),
    ) -> StorageResult<()> {
        let mut row = vec![0.0f64; self.dims];
        let mut page = empty_page();
        let mut pid = 0usize;
        for p in 0..self.total_pages() {
            let rows_here = self.rows_per_page.min(self.len - pid);
            pool.read_in(self.base_page + p, SCAN_GROUP, session, &mut page)?;
            for slot in 0..rows_here {
                read_row(&page, slot, &mut row);
                f(pid as PointId, &row);
                pid += 1;
            }
        }
        debug_assert_eq!(pid, self.len);
        Ok(())
    }

    /// Streams the heap pages back into a [`Dataset`], one sequential
    /// pass — how the in-memory backends load a database file.
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries.
    pub fn to_dataset<S: SharedPageStore>(
        &self,
        pool: &SharedBufferPool<S>,
        session: &mut ReadSession,
    ) -> StorageResult<Dataset> {
        let mut ds = Dataset::with_capacity(self.dims, self.len).expect("dims >= 1");
        self.for_each(pool, session, |_, row| {
            ds.push(row).expect("stored rows are valid");
        })?;
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn sample(n: usize, d: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| (i * d + j) as f64 * 0.5).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    /// `ds` laid out as a heap file behind a pool of `pool_pages` frames,
    /// with a session of the same capacity.
    fn heap_of(
        ds: &Dataset,
        pool_pages: usize,
    ) -> (HeapFile, SharedBufferPool<MemStore>, ReadSession) {
        let mut store = MemStore::new();
        let hf = HeapFile::build(&mut store, ds);
        (
            hf,
            SharedBufferPool::new(store, pool_pages),
            ReadSession::new(pool_pages),
        )
    }

    #[test]
    fn roundtrip_small() {
        let ds = sample(7, 3);
        let (hf, pool, mut session) = heap_of(&ds, 4);
        assert_eq!(hf.to_dataset(&pool, &mut session).unwrap(), ds);
    }

    #[test]
    fn point_fetch_matches() {
        let ds = sample(1000, 5);
        let (hf, pool, mut session) = heap_of(&ds, 8);
        assert_eq!(hf.total_pages(), pages_needed(1000, rows_per_page(5)));
        let mut out = vec![0.0; 5];
        for pid in [0u32, 101, 499, 999] {
            hf.point(&pool, &mut session, pid, &mut out).unwrap();
            assert_eq!(out.as_slice(), ds.point(pid));
        }
    }

    #[test]
    fn scan_is_sequential() {
        let ds = sample(1000, 4);
        let (hf, pool, mut session) = heap_of(&ds, 2);
        let mut count = 0usize;
        hf.for_each(&pool, &mut session, |pid, row| {
            assert_eq!(row, ds.point(pid));
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 1000);
        let stats = session.stats();
        assert_eq!(stats.page_accesses() as usize, hf.total_pages());
        // All but the first page read continue the run.
        assert_eq!(stats.random_reads, 1);
        assert_eq!(stats.sequential_reads as usize, hf.total_pages() - 1);
    }

    #[test]
    fn partial_last_page() {
        let ds = sample(rows_per_page(2) + 1, 2);
        let (hf, pool, mut session) = heap_of(&ds, 2);
        assert_eq!(hf.total_pages(), 2);
        let mut out = vec![0.0; 2];
        hf.point(&pool, &mut session, rows_per_page(2) as u32, &mut out)
            .unwrap();
        assert_eq!(out.as_slice(), ds.point(rows_per_page(2) as u32));
    }

    #[test]
    fn page_of_maps_rows() {
        let ds = sample(100, 512); // 1 row per page
        let mut store = MemStore::new();
        let hf = HeapFile::build(&mut store, &ds);
        assert_eq!(hf.page_of(0), hf.base_page());
        assert_eq!(hf.page_of(99), hf.base_page() + 99);
    }
}
