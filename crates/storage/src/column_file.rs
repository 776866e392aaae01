//! Disk-resident sorted dimensions.
//!
//! Section 4.1 of the paper: "we sort each dimension and store them
//! sequentially on disk". Dimension `i` occupies a contiguous run of pages,
//! each holding [`COLUMN_ENTRIES_PER_PAGE`] `(pid, value)` entries in
//! ascending value order, so the AD algorithm's forward walks read pages
//! sequentially.
//!
//! [`SharedDiskColumns`] is the AD engine's view of such a file: per
//! attribute it books the page in its [`ReadSession`] and decodes the
//! entry from one of two per-dimension copy-out slots. A repeat access to
//! a slot's page is an O(1) booked hit; only a page in neither slot
//! takes the cold path through the shared pool. The view's state borrows
//! nothing, so [`crate::DiskQueryEngine`] parks it between batches and
//! lends it to one view per query; the copy-out slots are emptied per
//! batch.

use std::borrow::BorrowMut;

use knmatch_core::{Dataset, QueryControl, SortedColumns, SortedEntry, WorkerState};

use crate::error::{StorageError, StorageResult};
use crate::page::{
    empty_page, pages_needed, read_column_entry, write_column_entry, PageBuf,
    COLUMN_ENTRIES_PER_PAGE,
};
use crate::shared_pool::{ReadSession, SharedBufferPool};
use crate::store::{PageStore, SharedPageStore};

/// Layout metadata of a sorted-column file inside a page store, plus the
/// in-memory fence keys (first value of each page per dimension) that a
/// real system would keep as a sparse index — they let [`locate`] touch a
/// single page instead of binary-searching through the pool.
///
/// [`locate`]: SortedColumnFile::locate
#[derive(Debug, Clone, PartialEq)]
pub struct SortedColumnFile {
    dims: usize,
    cardinality: usize,
    pages_per_dim: usize,
    base_page: usize,
    /// `fences[dim][j]` = value of the first entry on page `j` of `dim`.
    fences: Vec<Vec<f64>>,
}

impl SortedColumnFile {
    /// Sorts every dimension of `ds` and appends the column pages to
    /// `store`, returning the layout handle.
    pub fn build<S: PageStore>(store: &mut S, ds: &Dataset) -> Self {
        let sorted = SortedColumns::build(ds);
        Self::from_sorted(store, &sorted)
    }

    /// Writes pre-sorted columns to `store`.
    pub fn from_sorted<S: PageStore>(store: &mut S, cols: &SortedColumns) -> Self {
        let dims = cols.dims();
        let cardinality = cols.cardinality();
        let pages_per_dim = pages_needed(cardinality, COLUMN_ENTRIES_PER_PAGE);
        let base_page = store.page_count();
        let mut fences = Vec::with_capacity(dims);
        for dim in 0..dims {
            let col = cols.column(dim);
            let mut dim_fences = Vec::with_capacity(pages_per_dim);
            for chunk in col.chunks(COLUMN_ENTRIES_PER_PAGE) {
                let mut page = empty_page();
                dim_fences.push(chunk.get(0).value);
                for (slot, e) in chunk.iter().enumerate() {
                    write_column_entry(&mut page, slot, e.pid, e.value);
                }
                store.append_page(&page);
            }
            fences.push(dim_fences);
            // A dimension with no full final page still owns its page range.
            debug_assert_eq!(
                store.page_count(),
                base_page + (dim + 1) * pages_per_dim,
                "each dimension occupies exactly pages_per_dim pages"
            );
        }
        SortedColumnFile {
            dims,
            cardinality,
            pages_per_dim,
            base_page,
            fences,
        }
    }

    /// Reconstructs a handle to an existing column file, re-reading the
    /// fence keys (first entry of every page) from the store.
    ///
    /// # Panics
    ///
    /// Panics when the store does not hold the expected page range or a
    /// fence-page read fails; [`SortedColumnFile::try_open`] is the
    /// fallible variant.
    pub fn open<S: PageStore>(
        store: &mut S,
        dims: usize,
        cardinality: usize,
        base_page: usize,
    ) -> Self {
        Self::try_open(store, dims, cardinality, base_page)
            .unwrap_or_else(|e| panic!("column file open: {e}"))
    }

    /// Fallible [`SortedColumnFile::open`]: a missing page range or a
    /// failing fence-page read (I/O error, checksum mismatch) is returned
    /// instead of panicking, so [`crate::DiskDatabase::open_file`] can
    /// report corruption cleanly.
    ///
    /// # Errors
    ///
    /// [`StorageError::Truncated`] when the store is too small for the
    /// claimed layout, or whatever the store's read reports.
    pub fn try_open<S: PageStore>(
        store: &mut S,
        dims: usize,
        cardinality: usize,
        base_page: usize,
    ) -> StorageResult<Self> {
        let pages_per_dim = pages_needed(cardinality, COLUMN_ENTRIES_PER_PAGE);
        let expected = base_page + dims * pages_per_dim;
        if expected > store.page_count() {
            return Err(StorageError::Truncated {
                pages: store.page_count(),
                expected,
            });
        }
        let mut buf = empty_page();
        let mut fences = Vec::with_capacity(dims);
        for dim in 0..dims {
            let mut dim_fences = Vec::with_capacity(pages_per_dim);
            for p in 0..pages_per_dim {
                store.try_read_page(base_page + dim * pages_per_dim + p, &mut buf)?;
                dim_fences.push(read_column_entry(&buf, 0).1);
            }
            fences.push(dim_fences);
        }
        Ok(SortedColumnFile {
            dims,
            cardinality,
            pages_per_dim,
            base_page,
            fences,
        })
    }

    /// Dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Cardinality `c`.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Pages occupied per dimension.
    pub fn pages_per_dim(&self) -> usize {
        self.pages_per_dim
    }

    /// Total pages occupied by the file.
    pub fn total_pages(&self) -> usize {
        self.pages_per_dim * self.dims
    }

    /// First page of the file inside the store.
    pub fn base_page(&self) -> usize {
        self.base_page
    }

    /// Page number and in-page slot of the entry at `rank` of `dim`.
    ///
    /// # Panics
    ///
    /// Panics when `dim` or `rank` is out of range.
    fn page_slot(&self, dim: usize, rank: usize) -> (usize, usize) {
        assert!(dim < self.dims, "dimension {dim} out of range");
        assert!(rank < self.cardinality, "rank {rank} out of range");
        (
            self.base_page + dim * self.pages_per_dim + rank / COLUMN_ENTRIES_PER_PAGE,
            rank % COLUMN_ENTRIES_PER_PAGE,
        )
    }

    /// The one page that can hold the answer rank for query value `q` in
    /// `dim`, per the in-memory fences: `(page_no, first_rank_on_page,
    /// entries_on_page)`, or `None` when the answer is rank 0 without any
    /// page read.
    fn locate_page(&self, dim: usize, q: f64) -> Option<(usize, usize, usize)> {
        let fences = &self.fences[dim];
        // First page whose fence is >= q; the answer rank lives on the page
        // before it (values between the two fences), or is that page's
        // first rank.
        let j = fences.partition_point(|&f| f < q);
        if j == 0 {
            return None;
        }
        let page = j - 1;
        let start = page * COLUMN_ENTRIES_PER_PAGE;
        let len = COLUMN_ENTRIES_PER_PAGE.min(self.cardinality - start);
        Some((self.base_page + dim * self.pages_per_dim + page, start, len))
    }

    /// Reads the entry at `rank` of `dim` through `pool`, booking the
    /// read in `session` (one stream group per dimension file: the up and
    /// down cursor walks both stream within it).
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries.
    ///
    /// # Panics
    ///
    /// Panics when `dim` or `rank` is out of range.
    pub fn entry<S: SharedPageStore>(
        &self,
        pool: &SharedBufferPool<S>,
        session: &mut ReadSession,
        dim: usize,
        rank: usize,
    ) -> StorageResult<SortedEntry> {
        let (page_no, slot) = self.page_slot(dim, rank);
        let mut page = empty_page();
        pool.read_in(page_no, dim as u32, session, &mut page)?;
        let (pid, value) = read_column_entry(&page, slot);
        Ok(SortedEntry { pid, value })
    }

    /// Page-granular estimate of the rank of the first entry in `dim` with
    /// value `>= q`, from the in-memory fence keys alone — **no I/O**.
    /// Accurate to within one page; the tests' reference columns finish
    /// the search on the page it names.
    pub fn locate_fences_only(&self, dim: usize, q: f64) -> usize {
        let j = self.fences[dim].partition_point(|&f| f < q);
        (j * COLUMN_ENTRIES_PER_PAGE).min(self.cardinality)
    }

    /// Rank of the first entry in `dim` with value `>= q`: the in-memory
    /// fence keys narrow the search to one page, which is then scanned
    /// through the pool (at most one page read — and it is the page the AD
    /// cursors seed from next).
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries.
    pub fn locate<S: SharedPageStore>(
        &self,
        pool: &SharedBufferPool<S>,
        session: &mut ReadSession,
        dim: usize,
        q: f64,
    ) -> StorageResult<usize> {
        let Some((page_no, start, len)) = self.locate_page(dim, q) else {
            return Ok(0);
        };
        let mut page = empty_page();
        pool.read_in(page_no, dim as u32, session, &mut page)?;
        Ok(start + search_page(&page, len, q))
    }
}

/// Rank offset (within a page holding `len` entries) of the first entry
/// with value `>= q`.
fn search_page(buf: &PageBuf, len: usize, q: f64) -> usize {
    let mut lo = 0usize;
    let mut hi = len;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if read_column_entry(buf, mid).1 < q {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Sentinel for "no page cached" in [`SharedDiskColumns`]' per-dimension
/// copy-out slots (page numbers never reach `usize::MAX`).
const NO_PAGE: usize = usize::MAX;

/// One dimension's two copy-out slots.
#[derive(Debug)]
struct LocalPages {
    /// Page number held by each slot.
    no: [usize; 2],
    /// `(generation, frame)` at which each slot's page was last booked in
    /// the session: while the session's generation still matches, a
    /// repeat access is a modelled hit on that frame.
    booked: [(u64, u32); 2],
    /// Most recently used slot; its sibling is the victim.
    mru: u8,
    buf: [Box<PageBuf>; 2],
}

impl LocalPages {
    fn new() -> Self {
        LocalPages {
            no: [NO_PAGE; 2],
            booked: [(u64::MAX, 0); 2],
            mru: 0,
            buf: [Box::new(empty_page()), Box::new(empty_page())],
        }
    }
}

/// What a [`SharedDiskColumns`] view reads with: its [`ReadSession`] and
/// the 2·d copy-out slots. It borrows nothing, so a
/// [`crate::DiskQueryEngine`] keeps it between batches.
#[derive(Debug)]
pub struct ReadState {
    session: ReadSession,
    local: Vec<LocalPages>,
}

impl ReadState {
    pub(crate) fn new(dims: usize, modelled_capacity: usize) -> Self {
        ReadState {
            session: ReadSession::new(modelled_capacity),
            local: (0..dims).map(|_| LocalPages::new()).collect(),
        }
    }
}

impl WorkerState for ReadState {
    /// Empties the copy-out slots, so each batch reads its pages through
    /// the shared pool at least once, whatever an earlier batch left
    /// behind. Disk reads take no control: the walk checks it.
    fn arm(&mut self, _: &QueryControl) {
        for local in &mut self.local {
            local.no = [NO_PAGE; 2];
        }
    }
}

/// A [`SortedColumnFile`] viewed through the buffer pool as a
/// [`knmatch_core::SortedAccessSource`], so the generic AD engine runs
/// unchanged on disk (Section 4.1's disk-based AD). Many workers can read
/// at once: each holds its own instance over the same `&SharedBufferPool`.
///
/// Every page request is booked in the view's [`ReadSession`] first —
/// the modelled per-query [`crate::IoStats`] — and then served from one
/// of two per-dimension copy-out slots, falling back to the shared pool
/// on a local miss. Two slots, not one, because the AD walk runs an
/// ascending and a descending cursor per dimension: once they straddle a
/// page boundary a single slot would refetch on every alternation. The
/// local slots only short-circuit the copy; they never change what is
/// counted.
///
/// A repeat access to a slot's page costs O(1) bookkeeping: each slot
/// remembers the session frame its page was booked in, and while the
/// session's generation is unchanged (no modelled eviction, no new
/// query) that frame still holds the page, so the access is booked as a
/// hit there without a table lookup.
///
/// A view made by [`new`](Self::new) owns its read state; the engine's
/// views borrow a state it keeps between batches (`R = &mut ReadState`).
#[derive(Debug)]
pub struct SharedDiskColumns<'a, S, R = ReadState> {
    file: &'a SortedColumnFile,
    pool: &'a SharedBufferPool<S>,
    state: R,
}

impl<'a, S: SharedPageStore> SharedDiskColumns<'a, S> {
    /// Binds a column file to a shared pool, modelling per-query I/O as a
    /// private cold pool of `modelled_capacity` frames (the engine passes
    /// its pool's capacity).
    ///
    /// # Panics
    ///
    /// Panics when `modelled_capacity == 0`, matching
    /// [`SharedBufferPool::new`].
    pub fn new(
        file: &'a SortedColumnFile,
        pool: &'a SharedBufferPool<S>,
        modelled_capacity: usize,
    ) -> Self {
        SharedDiskColumns {
            file,
            pool,
            state: ReadState::new(file.dims(), modelled_capacity),
        }
    }
}

impl<'a, S> SharedDiskColumns<'a, S, &'a mut ReadState> {
    /// A view reading with `state`, kept from an earlier view of the
    /// same file and capacity (see [`WorkerState::arm`] for when its
    /// copy-out slots are emptied).
    pub(crate) fn with_state(
        file: &'a SortedColumnFile,
        pool: &'a SharedBufferPool<S>,
        state: &'a mut ReadState,
    ) -> Self {
        debug_assert_eq!(state.local.len(), file.dims());
        SharedDiskColumns { file, pool, state }
    }
}

impl<S: SharedPageStore, R: BorrowMut<ReadState>> SharedDiskColumns<'_, S, R> {
    /// Starts a fresh query: resets the modelled session (counters,
    /// streams, simulated cache). The local copy-out slots stay warm for
    /// the rest of the batch — they are data plumbing, not accounting.
    pub fn begin_query(&mut self) {
        self.state.borrow_mut().session.begin_query();
    }

    /// Modelled I/O of the current query (see [`ReadSession::stats`]).
    pub fn session_stats(&self) -> crate::IoStats {
        self.state.borrow().session.stats()
    }

    /// The shared pool this view reads through.
    pub fn pool(&self) -> &SharedBufferPool<S> {
        self.pool
    }

    /// Returns `dim`'s copy of `page_no`, booking the access in the
    /// session. This is the per-attribute fast path: a page already in
    /// one of `dim`'s slots is booked (in O(1) when its booking is still
    /// current) and served from the slot; anything else goes to
    /// [`page_slow`](Self::page_slow).
    #[inline]
    fn page(&mut self, dim: usize, page_no: usize) -> &PageBuf {
        let no = self.state.borrow().local[dim].no;
        let which = if no[0] == page_no {
            0
        } else if no[1] == page_no {
            1
        } else {
            return self.page_slow(dim, page_no);
        };
        let ReadState { session, local } = self.state.borrow_mut();
        let local = &mut local[dim];
        let (generation, frame) = local.booked[which];
        if generation == session.generation() {
            session.book_hit(frame);
        } else {
            let (_, frame) = session.account(page_no, dim as u32);
            local.booked[which] = (session.generation(), frame);
        }
        local.mru = which as u8;
        &local.buf[which]
    }

    /// A page in neither local slot: books the access, then fetches it
    /// through the shared pool into the less recently used slot.
    ///
    /// A pool read that still fails after the retry budget unwinds as a
    /// panic carrying the [`StorageError`] payload: the
    /// `SortedAccessSource` trait is infallible by design (the hot AD
    /// loop stays branch-free on the healthy path), and
    /// [`crate::DiskQueryEngine`] catches the unwind at the query
    /// boundary and turns it into that query's `Err` slot. The victim
    /// slot holds no page from before the read until it succeeds, so a
    /// failed read's torn bytes are never served, in this query or a
    /// later one on the same view.
    #[cold]
    #[inline(never)]
    fn page_slow(&mut self, dim: usize, page_no: usize) -> &PageBuf {
        let ReadState { session, local } = self.state.borrow_mut();
        let (verdict, frame) = session.account(page_no, dim as u32);
        let local = &mut local[dim];
        let victim = 1 - usize::from(local.mru);
        // A failed read may leave torn bytes in the buffer: the slot
        // holds no page until the read succeeds.
        local.no[victim] = NO_PAGE;
        self.pool
            .read_classified(page_no, verdict.is_sequential(), &mut local.buf[victim])
            .unwrap_or_else(|e| std::panic::panic_any(e));
        local.no[victim] = page_no;
        local.booked[victim] = (session.generation(), frame);
        local.mru = victim as u8;
        &local.buf[victim]
    }
}

impl<S: SharedPageStore, R: BorrowMut<ReadState>> knmatch_core::SortedAccessSource
    for SharedDiskColumns<'_, S, R>
{
    fn dims(&self) -> usize {
        self.file.dims()
    }

    fn cardinality(&self) -> usize {
        self.file.cardinality()
    }

    fn locate(&mut self, dim: usize, q: f64) -> usize {
        let Some((page_no, start, len)) = self.file.locate_page(dim, q) else {
            return 0;
        };
        let buf = self.page(dim, page_no);
        start + search_page(buf, len, q)
    }

    fn entry(&mut self, dim: usize, rank: usize) -> SortedEntry {
        let (page_no, slot) = self.file.page_slot(dim, rank);
        let (pid, value) = read_column_entry(self.page(dim, page_no), slot);
        SortedEntry { pid, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use knmatch_core::SortedAccessSource;

    fn build_fig3() -> (SortedColumnFile, SharedBufferPool<MemStore>, ReadSession) {
        let ds = knmatch_core::paper::fig3_dataset();
        let mut store = MemStore::new();
        let file = SortedColumnFile::build(&mut store, &ds);
        (file, SharedBufferPool::new(store, 8), ReadSession::new(8))
    }

    #[test]
    fn layout_counts() {
        let (file, pool, _) = build_fig3();
        assert_eq!(file.dims(), 3);
        assert_eq!(file.cardinality(), 5);
        assert_eq!(file.pages_per_dim(), 1);
        assert_eq!(file.total_pages(), 3);
        assert_eq!(crate::PageStore::page_count(pool.store()), 3);
    }

    #[test]
    fn entries_match_in_memory_columns() {
        let ds = knmatch_core::paper::fig3_dataset();
        let mem = SortedColumns::build(&ds);
        let (file, pool, mut session) = build_fig3();
        for dim in 0..3 {
            for rank in 0..5 {
                assert_eq!(
                    file.entry(&pool, &mut session, dim, rank).unwrap(),
                    mem.column(dim).get(rank)
                );
            }
        }
    }

    #[test]
    fn locate_matches_in_memory() {
        let ds = knmatch_core::paper::fig3_dataset();
        let mut mem = SortedColumns::build(&ds);
        let (file, pool, mut session) = build_fig3();
        for dim in 0..3 {
            for q in [-1.0, 0.4, 2.9, 5.5, 9.0, 42.0] {
                assert_eq!(
                    file.locate(&pool, &mut session, dim, q).unwrap(),
                    knmatch_core::SortedAccessSource::locate(&mut mem, dim, q),
                    "dim {dim} q {q}"
                );
            }
        }
    }

    #[test]
    fn multi_page_dimension() {
        // 1000 points in 1 dim spans 3 pages (341 entries/page).
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut store = MemStore::new();
        let file = SortedColumnFile::build(&mut store, &ds);
        assert_eq!(file.pages_per_dim(), 3);
        let pool = SharedBufferPool::new(store, 4);
        let mut s = ReadSession::new(4);
        assert_eq!(file.entry(&pool, &mut s, 0, 0).unwrap().value, 0.0);
        assert_eq!(file.entry(&pool, &mut s, 0, 341).unwrap().value, 341.0);
        assert_eq!(file.entry(&pool, &mut s, 0, 999).unwrap().value, 999.0);
        assert_eq!(file.locate(&pool, &mut s, 0, 341.0).unwrap(), 341);
        assert_eq!(file.locate(&pool, &mut s, 0, 999.5).unwrap(), 1000);
    }

    #[test]
    fn failed_read_never_leaves_torn_bytes_in_a_slot() {
        use crate::fault::{FaultConfig, FaultStore};
        use crate::shared_pool::RetryPolicy;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // One dimension of three pages (341 entries each). Every first
        // read of a page comes back corrupted and one try is all a read
        // gets, so each page fails once and then reads clean.
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut store = MemStore::new();
        let file = SortedColumnFile::build(&mut store, &ds);
        let config = FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut pool = SharedBufferPool::new(FaultStore::new(store, config), 4);
        pool.set_retry_policy(RetryPolicy {
            attempts: 1,
            backoff: std::time::Duration::ZERO,
        });
        let mut src = SharedDiskColumns::new(&file, &pool, 4);
        let mut entry = |rank: usize| catch_unwind(AssertUnwindSafe(|| src.entry(0, rank).value));
        for rank in [0, 341] {
            assert!(
                entry(rank).is_err(),
                "first read of rank {rank}'s page fails"
            );
            assert_eq!(entry(rank).unwrap(), rank as f64);
        }
        // Both slots hold a page; page 2's failed read lands in the
        // older one (page 0's), which must not be served from afterwards.
        assert!(entry(682).is_err());
        assert_eq!(entry(0).unwrap(), 0.0);
        assert_eq!(entry(682).unwrap(), 682.0);
    }

    #[test]
    fn disk_columns_run_generic_ad() {
        let (file, pool, _) = build_fig3();
        let mut src = SharedDiskColumns::new(&file, &pool, 8);
        let (res, _) = knmatch_core::k_n_match_ad(&mut src, &[3.0, 7.0, 4.0], 2, 2).unwrap();
        assert_eq!(res.ids(), vec![2, 1]);
        assert_eq!(res.epsilon(), 1.5);
    }

    #[test]
    fn trait_dims_and_cardinality() {
        let (file, pool, _) = build_fig3();
        let src = SharedDiskColumns::new(&file, &pool, 8);
        assert_eq!(src.dims(), 3);
        assert_eq!(src.cardinality(), 5);
    }
}
