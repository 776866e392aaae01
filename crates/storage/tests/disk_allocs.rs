//! Allocation gate for the served disk path: a warm
//! [`DiskQueryEngine`](knmatch_storage::DiskQueryEngine) answers a
//! one-query `run` — the shape every served disk query takes — with no
//! more heap allocations than the in-memory engine (a one-run
//! `VersionedIndex`) needs for the same answer, a k-n-match query with at
//! most a dozen and a frequent one (five levels) with at most 13.
//!
//! The engines keep each worker's state (the AD scratch and, on disk, the
//! modelled session's tables and the 2·d copy-out pages) between batches,
//! so what is left is the batch's result vector and the answer itself.
//! That holds for the threads a multi-worker batch spawns too: a warm
//! two-query `run` at two workers allocates less than one cold scratch's
//! 4 B × c of appearance marks. A counting `#[global_allocator]` counts
//! process-wide allocation events and bytes while the measured call runs;
//! this file holds one test so no other test's thread allocates
//! meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use knmatch_core::{BatchEngine, BatchQuery, VersionedIndex, DEFAULT_MERGE_THRESHOLD};
use knmatch_storage::DiskDatabase;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System` plus an event and a byte counter (`alloc`, `alloc_zeroed`,
/// `realloc`; a `realloc` counts its new size).
struct Counting;

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations a warm one-query `run` may make.
const MAX_ALLOCS: u64 = 12;

/// Most allocations a warm one-query frequent `run` over n ∈ [4, 8] may
/// make: what it measures, one answer set per level reserved at k.
const MAX_FREQUENT_ALLOCS: u64 = 13;

/// Allocation events and bytes of one `engine.run(batch)`, the answers
/// included.
fn counts_of<E: BatchEngine>(engine: &E, batch: &[BatchQuery]) -> (u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = engine.run(batch);
    COUNTING.store(false, Ordering::Relaxed);
    let after = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    assert!(out.iter().all(Result::is_ok), "query failed");
    (after.0 - before.0, after.1 - before.1)
}

/// Allocation events of one `engine.run(&[q])`, the answer included.
fn allocs_of<E: BatchEngine>(engine: &E, q: &BatchQuery) -> u64 {
    counts_of(engine, std::slice::from_ref(q)).0
}

#[test]
fn warm_one_query_run_allocates_no_more_than_memory() {
    let ds = knmatch_data::uniform(20_000, 16, 42);
    let queries: Vec<BatchQuery> = (0..48u32)
        .map(|i| {
            let query = ds.point(i * 97).iter().map(|v| v + 0.003).collect();
            match i % 4 {
                // The served disk workload's shape.
                0 => BatchQuery::KnMatch { query, k: 10, n: 2 },
                1 => BatchQuery::KnMatch { query, k: 5, n: 12 },
                2 => BatchQuery::Frequent {
                    query,
                    k: 10,
                    n0: 4,
                    n1: 8,
                },
                _ => BatchQuery::EpsMatch {
                    query,
                    eps: 0.01,
                    n: 8,
                },
            }
        })
        .collect();
    // A pool of ~6 % of the file, as the served small-pool workload.
    let disk = DiskDatabase::build_in_memory(&ds, 64).into_engine(1);
    // The served in-memory engine: one run, one worker.
    let memory = VersionedIndex::from_dataset(&ds, 1, 1, DEFAULT_MERGE_THRESHOLD).unwrap();
    // Warm-up: the first batches grow the kept read state and this
    // thread's scratch to their working size.
    for q in &queries {
        allocs_of(&disk, q);
        allocs_of(&memory, q);
    }
    for (i, q) in queries.iter().enumerate() {
        let (on_disk, in_memory) = (allocs_of(&disk, q), allocs_of(&memory, q));
        // Reading from disk adds nothing to what the answer costs.
        assert!(
            on_disk <= in_memory,
            "query {i}: {on_disk} allocations on disk, {in_memory} in memory: {q:?}"
        );
        // A k-n-match answer costs a handful; a frequent one holds a
        // result per n.
        let gate = match q {
            BatchQuery::Frequent { .. } => MAX_FREQUENT_ALLOCS,
            _ => MAX_ALLOCS,
        };
        assert!(
            on_disk <= gate,
            "query {i}: a warm one-query run allocated {on_disk} times \
             (gate {gate}): {q:?}"
        );
    }

    // Two workers: the batch loop spawns threads for a two-query batch,
    // and they must start as warm as the engine's last batch left it.
    let c = ds.len() as u64;
    let disk = DiskDatabase::build_in_memory(&ds, 64).into_engine(2);
    let memory = VersionedIndex::from_dataset(&ds, 1, 2, DEFAULT_MERGE_THRESHOLD).unwrap();
    for pair in queries.chunks_exact(2) {
        counts_of(&disk, pair);
        counts_of(&memory, pair);
    }
    for (i, pair) in queries.chunks_exact(2).enumerate() {
        for (name, bytes) in [
            ("disk", counts_of(&disk, pair).1),
            ("memory", counts_of(&memory, pair).1),
        ] {
            assert!(
                bytes < 4 * c,
                "pair {i}: a warm two-worker run on {name} allocated {bytes} bytes, \
                 not under one cold scratch's {}",
                4 * c
            );
        }
    }
}
