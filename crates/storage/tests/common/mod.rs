//! Test-only reference implementations the storage read path is held to.
//!
//! [`ReferencePool`] is an exclusive LRU buffer pool written the obvious
//! way: a `HashMap` page cache over a [`PageStore`], with per-group stream
//! tails that classify each miss as sequential or random. The product
//! path models the same private cold pool with a
//! [`knmatch_storage::ReadSession`] (a slot-table LRU over page numbers)
//! in front of the shared pool, and the tests check that the two book
//! every access identically. [`ReferenceColumns`] runs the generic AD
//! engine over a sorted-column file through a `ReferencePool`, so whole
//! queries can be compared, not only access sequences.
//!
//! Compiled into the crate's unit tests and into its integration tests;
//! each uses a different subset.
#![allow(dead_code)]

use std::collections::HashMap;

use knmatch_core::{SortedAccessSource, SortedEntry};
use knmatch_storage::page::{empty_page, read_column_entry, PageBuf, COLUMN_ENTRIES_PER_PAGE};
use knmatch_storage::{IoStats, PageStore, SortedColumnFile};

/// Doubly-linked-list node indices for the LRU chain.
const NIL: usize = usize::MAX;

/// Streams remembered per group: one group is one "open file", and the AD
/// algorithm runs an up and a down cursor against each dimension file.
const TAILS_PER_GROUP: usize = 2;

#[derive(Debug)]
struct Frame {
    page_no: usize,
    buf: Box<PageBuf>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU cache of pages over a [`PageStore`], with
/// sequential/random miss accounting.
#[derive(Debug)]
pub struct ReferencePool<S: PageStore> {
    store: S,
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<usize, usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    stats: IoStats,
    /// Per-group last-missed pages (front = most recent within the group).
    streams: HashMap<u32, Vec<usize>>,
}

impl<S: PageStore> ReferencePool<S> {
    /// Wraps `store` with a cold LRU cache of `capacity` pages.
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        ReferencePool {
            store,
            capacity,
            frames: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            stats: IoStats::default(),
            streams: HashMap::new(),
        }
    }

    /// Returns page `no` on behalf of stream group `group` (`u32::MAX` =
    /// a point lookup, whose miss always seeks), reading through on a
    /// miss. A miss adjacent (±1) to one of the group's stream tails is
    /// sequential; otherwise it seeks and opens a new stream in the group.
    pub fn get_in(&mut self, no: usize, group: u32) -> &PageBuf {
        if let Some(&idx) = self.map.get(&no) {
            self.stats.hits += 1;
            self.touch(idx);
            return &self.frames[idx].buf;
        }
        if group == u32::MAX {
            self.stats.random_reads += 1;
        } else {
            let tails = self.streams.entry(group).or_default();
            let adjacent = tails
                .iter()
                .any(|&t| t == no.wrapping_sub(1) || t == no.wrapping_add(1));
            if adjacent {
                self.stats.sequential_reads += 1;
            } else {
                self.stats.random_reads += 1;
            }
            // The matched tail is kept: two cursors launched from adjacent
            // seed pages (AD's up/down pair) must each keep their stream.
            tails.insert(0, no);
            tails.truncate(TAILS_PER_GROUP + 1);
        }

        let idx = if self.frames.len() < self.capacity {
            let idx = self.frames.len();
            self.frames.push(Frame {
                page_no: no,
                buf: Box::new(empty_page()),
                prev: NIL,
                next: NIL,
            });
            self.attach_front(idx);
            idx
        } else {
            let idx = self.tail;
            let old = self.frames[idx].page_no;
            self.map.remove(&old);
            self.frames[idx].page_no = no;
            self.touch(idx);
            idx
        };
        self.map.insert(no, idx);
        let frame = &mut self.frames[idx];
        self.store.try_read_page(no, &mut frame.buf).unwrap();
        &self.frames[idx].buf
    }

    /// Accumulated counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.detach(idx);
        self.attach_front(idx);
    }
}

/// A [`SortedColumnFile`] read through a [`ReferencePool`] as a
/// [`SortedAccessSource`]: one stream group per dimension file, and a
/// `locate` that reads the single page the fence keys point at. The page
/// arithmetic is recomputed here from the file's public layout.
pub struct ReferenceColumns<'a, S: PageStore> {
    file: &'a SortedColumnFile,
    pool: &'a mut ReferencePool<S>,
}

impl<'a, S: PageStore> ReferenceColumns<'a, S> {
    /// Binds a column file to a reference pool.
    pub fn new(file: &'a SortedColumnFile, pool: &'a mut ReferencePool<S>) -> Self {
        ReferenceColumns { file, pool }
    }

    fn page_no(&self, dim: usize, page: usize) -> usize {
        self.file.base_page() + dim * self.file.pages_per_dim() + page
    }
}

impl<S: PageStore> SortedAccessSource for ReferenceColumns<'_, S> {
    fn dims(&self) -> usize {
        self.file.dims()
    }

    fn cardinality(&self) -> usize {
        self.file.cardinality()
    }

    fn locate(&mut self, dim: usize, q: f64) -> usize {
        let c = self.file.cardinality();
        // Fences alone give `min(j · E, c)` for `j` = pages whose first
        // value is below `q`; the answer lies on page `j − 1`.
        let ranked = self.file.locate_fences_only(dim, q);
        let j = if ranked == c {
            self.file.pages_per_dim()
        } else {
            ranked / COLUMN_ENTRIES_PER_PAGE
        };
        if j == 0 {
            return 0;
        }
        let start = (j - 1) * COLUMN_ENTRIES_PER_PAGE;
        let len = COLUMN_ENTRIES_PER_PAGE.min(c - start);
        let page_no = self.page_no(dim, j - 1);
        let page = self.pool.get_in(page_no, dim as u32);
        start
            + (0..len)
                .take_while(|&s| read_column_entry(page, s).1 < q)
                .count()
    }

    fn entry(&mut self, dim: usize, rank: usize) -> SortedEntry {
        let page_no = self.page_no(dim, rank / COLUMN_ENTRIES_PER_PAGE);
        let page = self.pool.get_in(page_no, dim as u32);
        let (pid, value) = read_column_entry(page, rank % COLUMN_ENTRIES_PER_PAGE);
        SortedEntry { pid, value }
    }
}
