//! Page-read cost accounting: the counters every disk query reports and
//! the model that prices them.
//!
//! All page reads go through the one [`crate::SharedBufferPool`]. Its
//! per-query view, a [`crate::ReadSession`], books each request against a
//! private cold LRU of the pool's capacity and classifies each miss as
//! *sequential* when it extends one of the caller's scan streams by one
//! page, the pattern forward (or, with drive track caching, backward)
//! scans produce and disks serve at streaming bandwidth, and *random*
//! otherwise (a seek).
//!
//! Streams are scoped by a caller-supplied *group*, mirroring how real
//! systems keep readahead state per open file / descriptor: the AD
//! algorithm legitimately drives two cursors per dimension file (group =
//! dimension; the paper credits its forward walks with sequential
//! behaviour, Section 4.1), a heap scan is one stream, while IGrid's
//! fragmented block chains (Section 5.2.3) hop pages inside their group
//! and stay random. The tests below pin those rules.

/// Page-read counters: one query's modelled I/O ([`crate::ReadSession`])
/// or the shared pool's actual traffic ([`crate::SharedBufferPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Buffer-pool hits (no store read).
    pub hits: u64,
    /// Misses fetched from the store at `last_missed + 1` (streamed).
    pub sequential_reads: u64,
    /// All other misses (each costs a seek).
    pub random_reads: u64,
    /// Extra store-read attempts spent recovering transient failures
    /// (see [`crate::shared_pool::RetryPolicy`]); zero on a healthy
    /// store. Retries are not page accesses: a read that succeeds on
    /// try two still counts once in the miss counters.
    pub retries: u64,
}

impl IoStats {
    /// Total store reads (page accesses, the paper's Figure 11/12 y-axis).
    pub fn page_accesses(&self) -> u64 {
        self.sequential_reads + self.random_reads
    }

    /// Models a response time in milliseconds from the read mix.
    pub fn response_time_ms(&self, model: CostModel) -> f64 {
        self.sequential_reads as f64 * model.sequential_ms
            + self.random_reads as f64 * model.random_ms
    }

    /// Adds another stats block (e.g. from a second pool used by the same
    /// query).
    pub fn merge(&mut self, other: IoStats) {
        self.hits += other.hits;
        self.sequential_reads += other.sequential_reads;
        self.random_reads += other.random_reads;
        self.retries += other.retries;
    }
}

/// Per-page-read costs for the modelled response time.
///
/// Defaults approximate the paper's 2006-era desktop disk: ~0.1 ms to
/// stream a 4 KiB page, ~1 ms amortised for a seek-bearing read. Absolute
/// wall-clock is hardware-bound; the *ratios* between methods are what the
/// reproduction compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Milliseconds per sequential page read.
    pub sequential_ms: f64,
    /// Milliseconds per random page read.
    pub random_ms: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            sequential_ms: 0.1,
            random_ms: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::error::StorageResult;
    use crate::page::{empty_page, PageBuf, PAGE_SIZE};
    use crate::shared_pool::{ReadSession, SharedBufferPool, POINT_LOOKUP};
    use crate::store::{MemStore, PageStore, SharedPageStore};

    fn store_with(n: usize) -> MemStore {
        let mut s = MemStore::new();
        for i in 0..n {
            let mut p = empty_page();
            p[0] = i as u8;
            s.append_page(&p);
        }
        s
    }

    /// One query's reads: a single-shard pool (so its actual counters
    /// are one LRU too) and the session booking the modelled I/O.
    struct Reader {
        pool: SharedBufferPool<MemStore>,
        session: ReadSession,
    }

    impl Reader {
        fn new(pages: usize, capacity: usize) -> Self {
            Reader {
                pool: SharedBufferPool::with_shards(store_with(pages), capacity, 1),
                session: ReadSession::new(capacity),
            }
        }

        /// First byte of page `no`, read on behalf of stream `group`.
        fn get_in(&mut self, no: usize, group: u32) -> u8 {
            let mut out = empty_page();
            self.pool
                .read_in(no, group, &mut self.session, &mut out)
                .unwrap();
            out[0]
        }

        fn get(&mut self, no: usize) -> u8 {
            self.get_in(no, POINT_LOOKUP)
        }

        fn stats(&self) -> IoStats {
            self.session.stats()
        }
    }

    #[test]
    fn hit_after_miss() {
        let mut pool = Reader::new(4, 2);
        assert_eq!(pool.get(1), 1);
        assert_eq!(pool.get(1), 1);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.page_accesses(), 1);
        assert_eq!(pool.pool.stats(), s, "one cold query: both views agree");
    }

    #[test]
    fn sequential_vs_random_classification() {
        let mut pool = Reader::new(10, 4);
        pool.get_in(0, 0); // random (first)
        pool.get_in(1, 0); // sequential
        pool.get_in(2, 0); // sequential
        pool.get_in(7, 0); // random (new stream in the group)
        pool.get_in(8, 0); // sequential
        let s = pool.stats();
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.sequential_reads, 3);
    }

    #[test]
    fn hits_do_not_break_the_scan_run() {
        let mut pool = Reader::new(10, 4);
        pool.get_in(0, 0);
        pool.get_in(1, 0);
        pool.get_in(0, 0); // hit — must not reset the miss position
        pool.get_in(2, 0); // still sequential after page 1
        let s = pool.stats();
        assert_eq!(s.sequential_reads, 2);
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn two_cursors_in_one_group_both_stream() {
        // The AD pattern: an up cursor and a down cursor on one dimension
        // file, interleaved.
        let mut pool = Reader::new(10, 8);
        pool.get_in(5, 0); // random: down cursor start
        pool.get_in(6, 0); // sequential (adjacent to 5): up cursor start
        pool.get_in(4, 0); // sequential: down continues (5 → 4)
        pool.get_in(7, 0); // sequential: up continues (6 → 7)
        pool.get_in(3, 0); // sequential
        pool.get_in(8, 0); // sequential
        let s = pool.stats();
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.sequential_reads, 5);
    }

    #[test]
    fn groups_are_isolated() {
        let mut pool = Reader::new(10, 8);
        pool.get_in(0, 0); // random
        pool.get_in(1, 1); // random: adjacency in ANOTHER group gives no credit
        pool.get_in(2, 1); // sequential within group 1
        let s = pool.stats();
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.sequential_reads, 1);
    }

    #[test]
    fn point_lookups_are_always_random() {
        let mut pool = Reader::new(10, 8);
        pool.get(0);
        pool.get(1); // adjacent, but point lookups carry no stream
        pool.get(2);
        let s = pool.stats();
        assert_eq!(s.random_reads, 3);
        assert_eq!(s.sequential_reads, 0);
    }

    #[test]
    fn strided_reads_stay_random() {
        // The IGrid chain pattern: pages with gaps ≥ 2 never stream.
        let mut pool = Reader::new(10, 8);
        for no in [0usize, 2, 4, 6, 8] {
            pool.get_in(no, 3);
        }
        let s = pool.stats();
        assert_eq!(s.random_reads, 5);
        assert_eq!(s.sequential_reads, 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut pool = Reader::new(5, 2);
        pool.get(0);
        pool.get(1);
        pool.get(0); // 0 is now MRU; LRU is 1
        pool.get(2); // evicts 1
        assert_eq!(pool.pool.cached_pages(), 2);
        let before = pool.stats();
        pool.get(0); // hit
        assert_eq!(pool.stats().hits, before.hits + 1);
        pool.get(1); // miss (was evicted)
        assert_eq!(pool.stats().page_accesses(), before.page_accesses() + 1);
        // The single-shard pool evicted exactly what the model did.
        assert_eq!(pool.pool.stats(), pool.stats());
    }

    #[test]
    fn capacity_one_works() {
        let mut pool = Reader::new(3, 1);
        assert_eq!(pool.get(2), 2);
        assert_eq!(pool.get(0), 0);
        assert_eq!(pool.get(2), 2);
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().page_accesses(), 3);
    }

    #[test]
    fn invalidate_after_external_write() {
        /// A store another handle can write behind the pool's back.
        struct Shared(Mutex<MemStore>);
        impl SharedPageStore for Shared {
            fn page_count(&self) -> usize {
                PageStore::page_count(&*self.0.lock().unwrap())
            }
            fn read_page_at(&self, no: usize, buf: &mut PageBuf) -> StorageResult<()> {
                self.0.lock().unwrap().try_read_page(no, buf)
            }
        }
        let pool = SharedBufferPool::new(Shared(Mutex::new(store_with(1))), 2);
        let mut out = empty_page();
        pool.read(0, &mut out).unwrap();
        assert_eq!(out[0], 0);
        let mut p = empty_page();
        p[0] = 99;
        pool.store().0.lock().unwrap().write_page(0, &p);
        pool.read(0, &mut out).unwrap();
        assert_eq!(out[0], 0, "the pool serves its cached copy");
        pool.invalidate_all();
        pool.read(0, &mut out).unwrap();
        assert_eq!(out[0], 99);
    }

    #[test]
    fn response_time_model() {
        let s = IoStats {
            hits: 5,
            sequential_reads: 100,
            random_reads: 10,
            retries: 2,
        };
        let t = s.response_time_ms(CostModel::default());
        assert!((t - (100.0 * 0.1 + 10.0 * 1.0)).abs() < 1e-9);
        let mut a = IoStats::default();
        a.merge(s);
        assert_eq!(a, s);
    }

    #[test]
    fn page_buffer_is_full_size() {
        // The copy-out moves the whole page, hit or miss.
        let mut store = MemStore::new();
        let mut p = empty_page();
        p[PAGE_SIZE - 1] = 0xAB;
        store.append_page(&p);
        let pool = SharedBufferPool::new(store, 1);
        for _ in 0..2 {
            let mut out = empty_page();
            pool.read(0, &mut out).unwrap();
            assert_eq!(out[PAGE_SIZE - 1], 0xAB);
        }
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        let _ = SharedBufferPool::new(MemStore::new(), 0);
    }
}
