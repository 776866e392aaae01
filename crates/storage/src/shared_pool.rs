//! The buffer pool: one shard-locked page cache shared by every reader.
//!
//! Every page read of the disk structures — the sorted-column file, the
//! heap file, the VA-file and IGrid — goes through a [`SharedBufferPool`].
//! The page cache is split into `page_no`-hashed shards, each an
//! independently locked LRU, over a [`SharedPageStore`] whose read path
//! takes `&self` (positioned `read_at` reads for [`crate::FileStore`]), so
//! concurrent misses on different shards proceed fully in parallel and
//! even misses on one shard never contend on a file cursor.
//!
//! **Copy-out, not pinning.** A hit copies the 4 KiB page into the
//! caller's buffer instead of handing out a reference. At this page size a
//! copy is a few hundred nanoseconds of streaming memcpy, far cheaper than
//! the bookkeeping (and failure modes) of a pin/unpin protocol, and it
//! means the shard lock is held only for the duration of the copy — no
//! reader can block eviction while it parses a page.
//!
//! **Accounting.** One pool, two views of what it cost:
//!
//! * A [`ReadSession`] gives each query its *modelled* stats, the paper's
//!   cost currency: per-group stream tails classify misses as sequential
//!   or random, and a simulated private LRU of the configured capacity
//!   decides hit vs miss exactly as a dedicated cold pool would. Session
//!   stats are therefore a pure function of the query's page-request
//!   sequence — bit-identical at any worker count, any interleaving, and
//!   any state of the shared cache. The simulated LRU is a timestamp LRU
//!   (a hit writes one tick; eviction pops the oldest tick from a lazy
//!   heap), and a session keeps its tables across
//!   [`begin_query`](ReadSession::begin_query), so a reused session books
//!   a page in O(1) without allocating.
//! * Each shard counts the traffic it actually served ([`IoStats`]:
//!   hits, and misses split sequential/random); [`SharedBufferPool::stats`]
//!   merges them on demand. This measures the *real* I/O saved by sharing
//!   the cache across queries — the hit-ratio column of the disk benches.
//!
//! **Stream classification under sharding.** The sequential-vs-random
//! verdict never lives in a shard: consecutive pages of one scan hash to
//! *different* shards, so shard-local tails could not see a run. Instead
//! the caller's [`ReadSession`] owns the per-group tails (mirroring
//! per-open-file readahead state) and the shard is simply told the
//! verdict when it has to fetch. Merged pool stats therefore preserve the
//! group semantics even though pages scatter.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::buffer::IoStats;
use crate::error::{StorageError, StorageResult};
use crate::page::{empty_page, PageBuf};
use crate::store::SharedPageStore;

/// Doubly-linked-list node indices for the LRU chains.
const NIL: usize = usize::MAX;

/// Streams remembered per group: one group is one "open file", and the AD
/// algorithm runs an up and a down cursor against each dimension file.
const TAILS_PER_GROUP: usize = 2;

/// The stream group of a point lookup: a miss in it is always a seek
/// (the VA-file's refinement fetches, IGrid's block hops).
pub const POINT_LOOKUP: u32 = u32::MAX;

/// Default shard count: enough that 8 workers rarely collide on a shard
/// lock, small enough that a tiny pool still has ≥ 1 frame per shard.
pub const DEFAULT_SHARDS: usize = 8;

/// Bounded retry-with-backoff for transient read failures (DESIGN.md
/// §10). A fetch that fails with a [transient](StorageError::is_transient)
/// error is retried up to `attempts` total tries, sleeping
/// `backoff × attempt` between tries (linear backoff); non-transient
/// errors and exhausted budgets surface immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per fetch, including the first (minimum 1).
    pub attempts: u32,
    /// Base sleep between tries; try `n` waits `backoff × n`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three tries with a 100 µs base backoff: enough to absorb
    /// interrupted syscalls and one torn transfer without stalling the
    /// shard for a visible amount of time.
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_micros(100),
        }
    }
}

#[derive(Debug)]
struct Frame {
    page_no: usize,
    buf: Box<PageBuf>,
    prev: usize,
    next: usize,
}

/// One independently locked LRU over the pages that hash to it.
#[derive(Debug)]
struct Shard {
    capacity: usize,
    /// The pool's shard count: this shard holds the pages `no` with the
    /// same `no % stride`, and indexes them by `no / stride`.
    stride: usize,
    frames: Vec<Frame>,
    /// `slot[no / stride]` = frame holding page `no`, or [`NO_FRAME`];
    /// direct-indexed because page numbers are dense and bounded by the
    /// store size, and grown when a page is first cached.
    slot: Vec<u32>,
    head: usize,
    tail: usize,
    stats: IoStats,
}

impl Shard {
    fn new(capacity: usize, stride: usize) -> Self {
        Shard {
            capacity,
            stride,
            frames: Vec::with_capacity(capacity),
            slot: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: IoStats::default(),
        }
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

    /// Drops every cached frame, keeping the served counters.
    fn clear(&mut self) {
        let stats = self.stats;
        *self = Shard::new(self.capacity, self.stride);
        self.stats = stats;
    }

    /// The frame holding page `no`, if cached.
    fn lookup(&self, no: usize) -> Option<usize> {
        match self.slot.get(no / self.stride) {
            Some(&frame) if frame != NO_FRAME => Some(frame as usize),
            _ => None,
        }
    }

    /// Frame to read page `no` into: a fresh one while below capacity,
    /// otherwise the recycled LRU tail. The frame is already at the front
    /// of the chain and in the slot table when this returns.
    fn frame_for(&mut self, no: usize) -> usize {
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
            self.slot[old / self.stride] = NO_FRAME;
            self.frames[idx].page_no = no;
            self.touch(idx);
            idx
        };
        let key = no / self.stride;
        if key >= self.slot.len() {
            self.slot.resize(key + 1, NO_FRAME);
        }
        self.slot[key] = idx as u32;
        idx
    }
}

/// A fixed-capacity page cache over a [`SharedPageStore`], shared by any
/// number of threads: `page_no`-hashed shards, one `Mutex`-guarded LRU
/// per shard, copy-out reads.
///
/// # Examples
///
/// ```
/// use knmatch_storage::{page::empty_page, MemStore, PageStore, SharedBufferPool};
///
/// let mut store = MemStore::new();
/// let mut p = empty_page();
/// p[0] = 7;
/// store.append_page(&p);
///
/// let pool = SharedBufferPool::new(store, 4);
/// let mut out = empty_page();
/// assert!(!pool.read(0, &mut out).unwrap()); // miss: fetched from the store
/// assert_eq!(out[0], 7);
/// assert!(pool.read(0, &mut out).unwrap()); // hit
/// assert_eq!(pool.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct SharedBufferPool<S> {
    store: S,
    shards: Box<[Mutex<Shard>]>,
    capacity: usize,
    retry: RetryPolicy,
}

impl<S: SharedPageStore> SharedBufferPool<S> {
    /// Wraps `store` with a cache of `capacity` pages split over
    /// [`DEFAULT_SHARDS`] shards (fewer when `capacity` is smaller).
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`; [`crate::DiskQueryEngine::with_workers`]
    /// is the fallible front door.
    pub fn new(store: S, capacity: usize) -> Self {
        Self::with_shards(store, capacity, DEFAULT_SHARDS)
    }

    /// Wraps `store` with an explicit shard count (clamped to
    /// `1..=capacity` so every shard owns at least one frame).
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn with_shards(store: S, capacity: usize, shards: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let n = shards.clamp(1, capacity);
        // Split the frame budget as evenly as the shard count allows; the
        // first `capacity % n` shards carry the remainder.
        let shards: Vec<Mutex<Shard>> = (0..n)
            .map(|i| Mutex::new(Shard::new(capacity / n + usize::from(i < capacity % n), n)))
            .collect();
        SharedBufferPool {
            store,
            shards: shards.into_boxed_slice(),
            capacity,
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the transient-read [`RetryPolicy`] (defaults to three
    /// tries with 100 µs linear backoff).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = RetryPolicy {
            attempts: retry.attempts.max(1),
            ..retry
        };
    }

    /// The active transient-read retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    fn shard_of(&self, no: usize) -> &Mutex<Shard> {
        &self.shards[no % self.shards.len()]
    }

    /// Locks a shard, recovering from poison instead of propagating it.
    ///
    /// A shard mutex is poisoned when a reader panics mid-fetch (fault
    /// injection does this deliberately; see [`crate::FaultStore`]).
    /// Cached frames are conservatively discarded — recovery assumes
    /// nothing about how far the panicking reader got — while the served
    /// counters are kept (they are plain totals; the worst a panic can
    /// do is leave one access uncounted). The pool stays usable for
    /// every later query.
    fn lock_shard<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                shard.clear_poison();
                guard
            }
        }
    }

    /// Reads page `no` into `out`, with the miss (if any) pre-classified
    /// by the caller: `sequential == true` charges the shard a streamed
    /// read, otherwise a seek. Returns `Ok(true)` on a cache hit.
    ///
    /// The classification verdict comes from outside because stream state
    /// is per-reader, not per-shard — see the module docs and
    /// [`ReadSession`].
    ///
    /// # Errors
    ///
    /// A store read that still fails after the [`RetryPolicy`]'s budget
    /// of transient retries. A failed fetch leaves the shard's table and
    /// LRU chain exactly as they were — no frame ever holds bytes that
    /// did not verify.
    pub fn read_classified(
        &self,
        no: usize,
        sequential: bool,
        out: &mut PageBuf,
    ) -> StorageResult<bool> {
        let mut shard = self.lock_shard(self.shard_of(no));
        if let Some(idx) = shard.lookup(no) {
            shard.stats.hits += 1;
            shard.touch(idx);
            out.copy_from_slice(&shard.frames[idx].buf[..]);
            return Ok(true);
        }
        // Fetch into the caller's buffer first; the frame is claimed and
        // filled only once the bytes are known good. The store read
        // happens under the shard lock: `read_page_at` is `&self` so
        // other shards proceed, and holding the lock means two racing
        // readers of one page never fetch it twice (which also keeps
        // FaultStore's heal-on-retry per-page ordering race-free). The
        // backoff sleeps are likewise under the lock — a store in
        // trouble is already degraded, and simplicity wins over shard
        // throughput during a fault burst.
        self.fetch_with_retry(no, &mut shard, out)?;
        if sequential {
            shard.stats.sequential_reads += 1;
        } else {
            shard.stats.random_reads += 1;
        }
        let idx = shard.frame_for(no);
        shard.frames[idx].buf.copy_from_slice(out);
        Ok(false)
    }

    /// One store fetch under the shard lock, retrying transient errors
    /// per the pool's [`RetryPolicy`] and counting each extra try in the
    /// shard's [`IoStats::retries`].
    fn fetch_with_retry(
        &self,
        no: usize,
        shard: &mut Shard,
        out: &mut PageBuf,
    ) -> StorageResult<()> {
        let mut attempt: u32 = 1;
        loop {
            match self.store.read_page_at(no, out) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < self.retry.attempts => {
                    shard.stats.retries += 1;
                    if !self.retry.backoff.is_zero() {
                        std::thread::sleep(self.retry.backoff * attempt);
                    }
                    attempt += 1;
                }
                Err(e) if attempt > 1 => {
                    return Err(StorageError::RetriesExhausted {
                        page: no,
                        attempts: attempt,
                        last: Box::new(e),
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Point-lookup read (a miss is always a seek). Returns `Ok(true)`
    /// on a cache hit.
    ///
    /// # Errors
    ///
    /// As [`SharedBufferPool::read_classified`].
    pub fn read(&self, no: usize, out: &mut PageBuf) -> StorageResult<bool> {
        self.read_classified(no, false, out)
    }

    /// Reads page `no` on behalf of `session`'s stream group `group`
    /// ([`POINT_LOOKUP`] for a point lookup): the session records its
    /// modelled per-query stats (hit/sequential/random exactly as a
    /// private cold pool would) and
    /// classifies the shard-level miss, then the shared cache serves the
    /// bytes. Returns `Ok(true)` when the shared cache had the page.
    ///
    /// The session books the access *before* the fetch can fail, so a
    /// retried-and-recovered read leaves the modelled stats exactly as a
    /// fault-free run would — the bit-identical-answers invariant.
    ///
    /// # Errors
    ///
    /// As [`SharedBufferPool::read_classified`].
    pub fn read_in(
        &self,
        no: usize,
        group: u32,
        session: &mut ReadSession,
        out: &mut PageBuf,
    ) -> StorageResult<bool> {
        let sequential = session.account(no, group).0.is_sequential();
        self.read_classified(no, sequential, out)
    }

    /// Counters of the traffic the shared cache actually served, merged
    /// over all shards on demand.
    pub fn stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for shard in self.shards.iter() {
            total.merge(self.lock_shard(shard).stats);
        }
        total
    }

    /// Zeroes every shard's counters without dropping cached pages.
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            self.lock_shard(shard).stats = IoStats::default();
        }
    }

    /// Drops every cached page (required after mutating the store
    /// directly), keeping the served counters.
    pub fn invalidate_all(&self) {
        for shard in self.shards.iter() {
            self.lock_shard(shard).clear();
        }
    }

    /// Number of frames currently cached across all shards.
    pub fn cached_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock_shard(s).frames.len())
            .sum()
    }

    /// Total frame budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to the wrapped store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Unwraps the pool.
    pub fn into_store(self) -> S {
        self.store
    }
}

/// How a [`ReadSession`] booked one page request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Modelled as served by the private cache.
    Hit,
    /// Modelled as a fetch, already classified.
    Miss {
        /// Whether the fetch extends one of the group's scan streams.
        sequential: bool,
    },
}

impl Access {
    /// Whether a shard-level fetch for this request should be charged as
    /// streamed. A modelled hit that the shared pool nevertheless misses
    /// is a re-fetch after eviction — a seek.
    pub(crate) fn is_sequential(self) -> bool {
        matches!(self, Access::Miss { sequential: true })
    }
}

/// Slot-table sentinel: page currently not in the modelled cache.
const NO_FRAME: u32 = u32::MAX;

/// Stream-tail sentinel: an empty tail. No page number is adjacent to it
/// (page numbers stay far below `usize::MAX - 1`).
const NO_TAIL: usize = usize::MAX;

/// One group's stream tails, most recent first; [`NO_TAIL`] pads the
/// unused entries.
type Tails = [usize; TAILS_PER_GROUP + 1];

/// A capacity-bounded LRU over page *numbers* only, used by
/// [`ReadSession`] to model per-query hits and misses deterministically:
/// a shard's eviction logic with the data removed.
///
/// This runs once per *attribute* access, so it is a timestamp LRU over
/// a direct-indexed slot table (page numbers are dense and bounded by the
/// store size, and per-slot epochs clear it in O(1)): a hit is one array
/// load and one tick written to its frame. Eviction pops the smallest
/// tick from a lazy min-heap holding one entry per frame; an entry whose
/// frame was touched since it was pushed is re-pushed with the frame's
/// current tick. Ticks are unique and increase with every access, so the
/// victim is exactly the least recently used frame, the tail of a
/// shard's linked chain.
#[derive(Debug)]
struct SimLru {
    capacity: usize,
    /// `slot[page_no]` = frame index holding that page, valid only when
    /// the stamp matches the current epoch; grown on demand.
    slot: Vec<(u32, u32)>,
    epoch: u32,
    /// Page held by each frame.
    page_no: Vec<usize>,
    /// Tick of each frame's last access.
    tick: Vec<u64>,
    clock: u64,
    /// `(tick, frame)`, one per frame, with `tick <=` the frame's current
    /// tick.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Bumped on every eviction and every clear: while it is unchanged, a
    /// page once found in a frame is still there.
    generation: u64,
}

impl SimLru {
    fn new(capacity: usize) -> Self {
        SimLru {
            capacity,
            slot: Vec::new(),
            epoch: 1,
            page_no: Vec::with_capacity(capacity),
            tick: Vec::with_capacity(capacity),
            clock: 0,
            heap: BinaryHeap::with_capacity(capacity),
            generation: 0,
        }
    }

    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps could collide, so really reset.
            self.slot.clear();
            self.epoch = 1;
        }
        self.page_no.clear();
        self.tick.clear();
        self.heap.clear();
        self.generation += 1;
    }

    /// Marks `frame` most recently used.
    #[inline]
    fn touch(&mut self, frame: u32) {
        self.clock += 1;
        self.tick[frame as usize] = self.clock;
    }

    /// The least recently used frame, leaving the heap without an entry
    /// for it.
    fn pop_lru(&mut self) -> u32 {
        loop {
            let Reverse((tick, frame)) = self.heap.pop().expect("a full cache has frames");
            let now = self.tick[frame as usize];
            if now == tick {
                return frame;
            }
            self.heap.push(Reverse((now, frame)));
        }
    }

    /// Accesses page `no`: returns whether it was a (modelled) hit and
    /// the frame that now holds it. A hit promotes the page; a miss
    /// inserts it, evicting the LRU page when full.
    fn access(&mut self, no: usize) -> (bool, u32) {
        if no >= self.slot.len() {
            self.slot.resize(no + 1, (NO_FRAME, 0));
        }
        let (frame, stamp) = self.slot[no];
        if stamp == self.epoch && frame != NO_FRAME {
            self.touch(frame);
            return (true, frame);
        }
        let frame = if self.page_no.len() < self.capacity {
            self.page_no.push(no);
            self.tick.push(0);
            (self.page_no.len() - 1) as u32
        } else {
            let frame = self.pop_lru();
            let old = self.page_no[frame as usize];
            self.slot[old] = (NO_FRAME, self.epoch);
            self.page_no[frame as usize] = no;
            self.generation += 1;
            frame
        };
        self.touch(frame);
        self.heap.push(Reverse((self.clock, frame)));
        self.slot[no] = (frame, self.epoch);
        (false, frame)
    }
}

/// Per-query modelled I/O accounting over a [`SharedBufferPool`].
///
/// One session belongs to one reader at a time and models what *this
/// query alone* would have cost on a cold, private LRU pool of the given
/// capacity: per-group stream tails classify misses, and a
/// page-number-only LRU decides hit vs miss. Because the model never
/// looks at the shared cache, its [`IoStats`] are a pure function of the
/// query's page-request sequence — deterministic at any worker count,
/// whatever other queries left in the shared cache.
///
/// Call [`begin_query`](ReadSession::begin_query) before each query to
/// start it cold. A session keeps its tables between queries, so a
/// reused one books pages without allocating.
#[derive(Debug)]
pub struct ReadSession {
    /// Stream tails per group; cleared per query, keeping its capacity.
    streams: HashMap<u32, Tails>,
    sim: SimLru,
    stats: IoStats,
}

impl ReadSession {
    /// A session modelling a private pool of `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`, matching [`SharedBufferPool::new`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        ReadSession {
            streams: HashMap::new(),
            sim: SimLru::new(capacity),
            stats: IoStats::default(),
        }
    }

    /// Starts a fresh query: zeroes the counters, forgets the scan
    /// streams, and empties the modelled cache.
    pub fn begin_query(&mut self) {
        self.streams.clear();
        self.sim.clear();
        self.stats = IoStats::default();
    }

    /// The modelled per-query counters accumulated since the last
    /// [`begin_query`](ReadSession::begin_query).
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Changes whenever a page booked earlier may have left the modelled
    /// cache: on every modelled eviction and every
    /// [`begin_query`](ReadSession::begin_query). While it is unchanged,
    /// [`book_hit`](ReadSession::book_hit) on a frame returned by
    /// [`account`](ReadSession::account) books exactly what re-accounting
    /// that page would.
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.sim.generation
    }

    /// Books a hit on `frame`, known to still hold its page (see
    /// [`generation`](ReadSession::generation)): the O(1) repeat access.
    #[inline]
    pub(crate) fn book_hit(&mut self, frame: u32) {
        self.sim.touch(frame);
        self.stats.hits += 1;
    }

    /// Books one page request: modelled hit/miss from the private LRU,
    /// misses classified by the group's stream tails — a miss adjacent
    /// (±1) to one of them streams, any other miss (and every
    /// [`POINT_LOOKUP`] miss) seeks. Also returns the modelled frame that
    /// now holds page `no`.
    pub(crate) fn account(&mut self, no: usize, group: u32) -> (Access, u32) {
        let (hit, frame) = self.sim.access(no);
        if hit {
            self.stats.hits += 1;
            return (Access::Hit, frame);
        }
        if group == POINT_LOOKUP {
            self.stats.random_reads += 1;
            return (Access::Miss { sequential: false }, frame);
        }
        let tails = self
            .streams
            .entry(group)
            .or_insert([NO_TAIL; TAILS_PER_GROUP + 1]);
        let adjacent = tails.iter().any(|&t| t.abs_diff(no) == 1);
        // The matched tail is kept: two cursors launched from adjacent
        // seed pages (AD's up/down pair) must each keep their stream.
        // Shifting the oldest out ages stale tails.
        tails.rotate_right(1);
        tails[0] = no;
        if adjacent {
            self.stats.sequential_reads += 1;
        } else {
            self.stats.random_reads += 1;
        }
        (
            Access::Miss {
                sequential: adjacent,
            },
            frame,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferencePool;
    use crate::store::{MemStore, PageStore};

    fn store_with(n: usize) -> MemStore {
        let mut s = MemStore::new();
        for i in 0..n {
            let mut p = empty_page();
            p[0] = i as u8;
            s.append_page(&p);
        }
        s
    }

    #[test]
    fn read_misses_then_hits() {
        let pool = SharedBufferPool::new(store_with(4), 2);
        let mut out = empty_page();
        assert!(!pool.read(1, &mut out).unwrap());
        assert_eq!(out[0], 1);
        assert!(pool.read(1, &mut out).unwrap());
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.page_accesses(), 1);
        assert_eq!(s.retries, 0);
    }

    #[test]
    fn shard_split_covers_capacity() {
        for (cap, shards) in [(1, 8), (3, 8), (8, 8), (13, 4), (64, 8)] {
            let pool = SharedBufferPool::with_shards(store_with(1), cap, shards);
            let per_shard: usize = (0..pool.shard_count())
                .map(|i| pool.shards[i].lock().unwrap().capacity)
                .sum();
            assert_eq!(per_shard, cap, "cap {cap} shards {shards}");
            assert!(pool.shard_count() <= cap.max(1));
            assert!((0..pool.shard_count()).all(|i| pool.shards[i].lock().unwrap().capacity >= 1));
        }
    }

    #[test]
    fn eviction_is_per_shard_lru() {
        // 2 shards × 1 frame: pages 0,2 share shard 0; 1 shares shard 1.
        let pool = SharedBufferPool::with_shards(store_with(4), 2, 2);
        let mut out = empty_page();
        pool.read(0, &mut out).unwrap();
        pool.read(1, &mut out).unwrap();
        pool.read(2, &mut out).unwrap(); // evicts 0 (same shard), not 1
        assert!(
            pool.read(1, &mut out).unwrap(),
            "page 1 must survive in its shard"
        );
        assert!(!pool.read(0, &mut out).unwrap(), "page 0 was evicted");
        assert_eq!(pool.cached_pages(), 2);
    }

    #[test]
    fn session_stats_match_private_buffer_pool() {
        // The modelled session accounting must replicate the reference
        // HashMap LRU pool bit-for-bit on an arbitrary access pattern,
        // including evictions and the stream-tails rules.
        let accesses: Vec<(usize, u32)> = vec![
            (0, 0),
            (1, 0),
            (2, 0),
            (9, u32::MAX),
            (3, 0),
            (2, 0),
            (7, 1),
            (8, 1),
            (0, 0),
            (9, 1),
            (5, u32::MAX),
            (4, 0),
            (9, 1),
            (1, 0),
        ];
        for capacity in [1, 2, 3, 8] {
            let mut reference = ReferencePool::new(store_with(10), capacity);
            let shared = SharedBufferPool::new(store_with(10), capacity);
            let mut session = ReadSession::new(capacity);
            let mut out = empty_page();
            for &(no, group) in &accesses {
                let want = reference.get_in(no, group)[0];
                shared.read_in(no, group, &mut session, &mut out).unwrap();
                assert_eq!(out[0], want);
            }
            assert_eq!(
                session.stats(),
                reference.stats(),
                "capacity {capacity}: modelled session diverged from the reference pool"
            );
        }
    }

    /// A seeded request stream over `pages` pages: mostly ±1 steps of a
    /// few cursors (streams, and re-reads that hit), with jumps, point
    /// lookups and a heap-scan group mixed in.
    fn request_stream(seed: u64, pages: usize, len: usize) -> Vec<(usize, u32)> {
        use crate::heap_file::SCAN_GROUP;
        let mut rng = knmatch_data::rng::seeded(seed);
        let mut cursors = [0usize, pages / 3, pages / 2, pages - 1];
        (0..len)
            .map(|_| {
                let c = rng.range_usize(0..cursors.len());
                let roll = rng.range_usize(0..16);
                let no = match roll {
                    0 => rng.range_usize(0..pages),
                    1..=5 => cursors[c],
                    6..=10 => (cursors[c] + 1).min(pages - 1),
                    _ => cursors[c].saturating_sub(1),
                };
                if roll != 0 {
                    cursors[c] = no;
                }
                let group = match rng.range_usize(0..10) {
                    0 => POINT_LOOKUP,
                    1 => SCAN_GROUP,
                    _ => c as u32,
                };
                (no, group)
            })
            .collect()
    }

    #[test]
    fn timestamp_lru_is_the_reference_lru() {
        // Eviction-heavy at small capacities (the page range is several
        // times the pool), and one pool large enough to rarely evict.
        for (capacity, pages, len) in [
            (1, 8, 2_000),
            (2, 8, 2_000),
            (3, 12, 2_000),
            (16, 64, 4_000),
            (1024, 3_000, 20_000),
        ] {
            for seed in 0..4u64 {
                let requests = request_stream(seed * 31 + capacity as u64, pages, len);
                let mut session = ReadSession::new(capacity);
                let mut reference = ReferencePool::new(store_with(pages), capacity);
                for (i, &(no, group)) in requests.iter().enumerate() {
                    // Every 500 requests a new query starts, on the same
                    // (reused) session and a fresh reference pool.
                    if i % 500 == 0 && i > 0 {
                        session.begin_query();
                        reference = ReferencePool::new(store_with(pages), capacity);
                    }
                    session.account(no, group);
                    reference.get_in(no, group);
                    assert_eq!(
                        session.stats(),
                        reference.stats(),
                        "capacity {capacity} seed {seed}: diverged at request {i} ({no}, {group})"
                    );
                }
            }
        }
    }

    #[test]
    fn begin_query_resets_the_model() {
        let shared = SharedBufferPool::new(store_with(4), 4);
        let mut session = ReadSession::new(4);
        let mut out = empty_page();
        shared.read_in(0, 0, &mut session, &mut out).unwrap();
        shared.read_in(1, 0, &mut session, &mut out).unwrap();
        session.begin_query();
        assert_eq!(session.stats(), IoStats::default());
        // Page 0 is still in the *shared* cache but the modelled query
        // starts cold: a modelled miss, an actual hit.
        let before = shared.stats().hits;
        shared.read_in(0, 0, &mut session, &mut out).unwrap();
        assert_eq!(session.stats().page_accesses(), 1);
        assert_eq!(shared.stats().hits, before + 1);
    }

    #[test]
    fn invalidate_all_drops_pages() {
        let pool = SharedBufferPool::new(store_with(3), 4);
        let mut out = empty_page();
        pool.read(0, &mut out).unwrap();
        pool.read(1, &mut out).unwrap();
        assert_eq!(pool.cached_pages(), 2);
        pool.invalidate_all();
        assert_eq!(pool.cached_pages(), 0);
        assert_eq!(pool.stats().page_accesses(), 2, "counters survive");
        pool.reset_stats();
        assert!(!pool.read(0, &mut out).unwrap());
    }

    #[test]
    fn transient_errors_are_retried_and_counted() {
        use crate::fault::{FaultConfig, FaultStore};
        // Rate 1.0 means every first read of a page faults, and the
        // heal-on-retry rule makes the second try succeed.
        let store = FaultStore::new(store_with(4), FaultConfig::transient(11, 1.0));
        let pool = SharedBufferPool::new(store, 4);
        let mut out = empty_page();
        for no in 0..4 {
            assert!(!pool.read(no, &mut out).unwrap());
            assert_eq!(out[0], no as u8);
        }
        let s = pool.stats();
        assert_eq!(s.retries, 4, "one retry per first-touch page");
        assert_eq!(s.page_accesses(), 4);
        // Hits bypass the store entirely: no further faults or retries.
        assert!(pool.read(0, &mut out).unwrap());
        assert_eq!(pool.stats().retries, 4);
    }

    #[test]
    fn exhausted_retries_surface_and_leave_no_frame() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            fail_pages: [2usize].into_iter().collect(),
            ..FaultConfig::default()
        };
        let pool = SharedBufferPool::new(FaultStore::new(store_with(4), cfg), 4);
        let mut out = empty_page();
        match pool.read(2, &mut out) {
            Err(StorageError::RetriesExhausted {
                page: 2, attempts, ..
            }) => {
                assert_eq!(attempts, RetryPolicy::default().attempts);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // The failed fetch claimed no frame and corrupted no state.
        assert_eq!(pool.cached_pages(), 0);
        assert!(!pool.read(1, &mut out).unwrap());
        assert_eq!(out[0], 1);
        let s = pool.stats();
        assert_eq!(s.retries, u64::from(RetryPolicy::default().attempts - 1));
        assert_eq!(
            s.page_accesses(),
            1,
            "only the successful miss was classified"
        );
    }

    #[test]
    fn poisoned_shard_is_rebuilt_and_usable() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            panic_on_page: Some(1),
            ..FaultConfig::default()
        };
        let pool = SharedBufferPool::with_shards(FaultStore::new(store_with(4), cfg), 4, 2);
        let mut out = empty_page();
        pool.read(3, &mut out).unwrap(); // cache something in page 1's shard
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = empty_page();
            let _ = pool.read(1, &mut buf);
        }));
        assert!(caught.is_err(), "injected panic must propagate");
        // The poisoned shard recovers: its frames were dropped, reads work.
        assert!(!pool.read(1, &mut out).unwrap());
        assert_eq!(out[0], 1);
        assert!(
            !pool.read(3, &mut out).unwrap(),
            "frame was discarded in recovery"
        );
        assert_eq!(out[0], 3);
        assert!(pool.read(3, &mut out).unwrap());
    }

    #[test]
    fn capacity_accessors() {
        let pool = SharedBufferPool::with_shards(store_with(1), 10, 3);
        assert_eq!(pool.capacity(), 10);
        assert_eq!(pool.shard_count(), 3);
        assert_eq!(PageStore::page_count(pool.store()), 1);
        let store = pool.into_store();
        assert_eq!(PageStore::page_count(&store), 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        let _ = SharedBufferPool::new(MemStore::new(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_session_panics() {
        let _ = ReadSession::new(0);
    }
}
