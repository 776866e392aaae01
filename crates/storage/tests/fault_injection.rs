//! Fault-injection matrix for the disk batch engine (DESIGN.md §10).
//!
//! Three invariants are asserted here, end to end through the real stack
//! (`FaultStore` → `SharedBufferPool` retries → `SharedDiskColumns` →
//! `DiskQueryEngine` panic isolation):
//!
//! 1. **Recovered faults are invisible.** At every (worker count, pool
//!    capacity, transient rate) combination, a mixed batch of all three
//!    query kinds returns answers, `AdStats`, and modelled `IoStats`
//!    bit-identical to the fault-free run — injected faults heal on retry
//!    and the retry budget absorbs them.
//! 2. **Unrecoverable faults are isolated.** A page that fails every read
//!    exhausts the retry budget and fails exactly the queries that touch
//!    it; every other slot of the batch completes normally.
//! 3. **Panics are isolated and the pool survives.** A query that panics
//!    mid-read fails only its own slot (poisoning and recovering its
//!    shard lock along the way); the same engine then serves the next
//!    batch correctly.

use std::collections::HashSet;

use knmatch_core::{BatchEngine, BatchQuery, Dataset, KnMatchError};
use knmatch_storage::{
    DiskDatabase, DiskLayout, DiskQueryEngine, FaultConfig, FaultStore, MemStore,
};

/// A deterministic 3-dim dataset big enough that its column pages exceed
/// the small pool capacities below, forcing evictions and store reads.
fn dataset() -> Dataset {
    let rows: Vec<[f64; 3]> = (0..1000)
        .map(|i| {
            let x = i as f64;
            [x, (x * 7.0 + 13.0) % 1000.0, (x * 31.0 + 5.0) % 1000.0]
        })
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

/// A mixed batch exercising all three query kinds at several positions.
fn mixed_batch() -> Vec<BatchQuery> {
    let mut batch = Vec::new();
    for v in [3.0, 250.0, 499.0, 750.0, 997.0] {
        batch.push(BatchQuery::KnMatch {
            query: vec![v, v, v],
            k: 5,
            n: 2,
        });
        batch.push(BatchQuery::Frequent {
            query: vec![v, v, v],
            k: 3,
            n0: 1,
            n1: 3,
        });
        batch.push(BatchQuery::EpsMatch {
            query: vec![v, v, v],
            eps: 4.0,
            n: 2,
        });
    }
    batch
}

fn engine_with_faults(
    ds: &Dataset,
    config: FaultConfig,
    pool_pages: usize,
    workers: usize,
) -> DiskQueryEngine<FaultStore<MemStore>> {
    let mut store = MemStore::new();
    let DiskLayout { columns, .. } = DiskDatabase::<MemStore>::build(ds, &mut store);
    DiskQueryEngine::with_workers(FaultStore::new(store, config), columns, pool_pages, workers)
        .unwrap()
}

#[test]
fn transient_fault_matrix_is_bit_identical_to_fault_free() {
    let ds = dataset();
    let batch = mixed_batch();
    for pool_pages in [4usize, 16] {
        // The reference outcome: no faults, one worker.
        let baseline = engine_with_faults(&ds, FaultConfig::default(), pool_pages, 1).run(&batch);
        assert!(baseline.iter().all(Result::is_ok));
        for workers in [1usize, 2, 4] {
            for rate in [0.0f64, 0.01, 0.05] {
                let engine =
                    engine_with_faults(&ds, FaultConfig::transient(42, rate), pool_pages, workers);
                let got = engine.run(&batch);
                assert_eq!(
                    got, baseline,
                    "workers={workers} pool_pages={pool_pages} rate={rate}"
                );
            }
        }
    }
}

#[test]
fn certain_faults_on_every_read_are_fully_absorbed_by_retries() {
    // transient_rate = 1.0: every fresh read faults once and heals, so the
    // retry budget (3 attempts) recovers every single store read. Answers
    // must still be bit-identical, and the retry counters must show the
    // recovery actually happened.
    let ds = dataset();
    let batch = mixed_batch();
    let baseline = engine_with_faults(&ds, FaultConfig::default(), 8, 1).run(&batch);
    for workers in [1usize, 4] {
        let engine = engine_with_faults(&ds, FaultConfig::transient(7, 1.0), 8, workers);
        let got = engine.run(&batch);
        assert_eq!(got, baseline, "workers={workers}");
        assert!(engine.pool().store().injected() > 0, "rate 1.0 must inject");
    }
    let engine = engine_with_faults(&ds, FaultConfig::transient(7, 1.0), 8, 1);
    let _ = engine.run(&batch);
    let retries = engine.pool().stats().retries;
    assert!(retries > 0, "every store read needs one retry, got 0");
}

/// A 1000-point single-dimension dataset: its sorted column spans three
/// pages (341 entries each), so a query at value `v` touches only the
/// page holding `v`'s neighbourhood — which makes per-slot failure
/// placement fully predictable.
fn line_dataset() -> Dataset {
    let rows: Vec<[f64; 1]> = (0..1000).map(|i| [i as f64]).collect();
    Dataset::from_rows(&rows).unwrap()
}

fn line_query(v: f64) -> BatchQuery {
    BatchQuery::KnMatch {
        query: vec![v],
        k: 3,
        n: 1,
    }
}

#[test]
fn always_failing_page_fails_only_the_queries_that_touch_it() {
    let ds = line_dataset();
    let mut store = MemStore::new();
    let DiskLayout { columns, .. } = DiskDatabase::<MemStore>::build(&ds, &mut store);
    // Poison the third (last) column page: values ≈ 682..999 live there.
    let bad_page = columns.base_page() + 2;
    let config = FaultConfig {
        fail_pages: [bad_page].into_iter().collect::<HashSet<_>>(),
        ..FaultConfig::default()
    };
    let batch = vec![
        line_query(5.0),   // first column page only
        line_query(900.0), // the poisoned page
        line_query(120.0), // first column page only
        line_query(990.0), // the poisoned page
    ];
    for workers in [1usize, 2] {
        let engine = DiskQueryEngine::with_workers(
            FaultStore::new(MemStore::clone(&store), config.clone()),
            columns.clone(),
            4,
            workers,
        )
        .unwrap();
        let results = engine.run(&batch);
        assert!(results[0].is_ok(), "workers={workers}");
        assert!(results[2].is_ok(), "workers={workers}");
        for slot in [1usize, 3] {
            match &results[slot] {
                Err(KnMatchError::Storage { message }) => {
                    assert!(
                        message.contains("after 3 attempts"),
                        "retry budget should be spent first: {message}"
                    );
                }
                other => panic!("slot {slot} should fail with Storage, got {other:?}"),
            }
        }
        // The retry loop burned attempts on the poisoned page.
        assert!(engine.pool().stats().retries > 0);
        // The healthy slots match a fault-free run.
        let clean = DiskQueryEngine::with_workers(MemStore::clone(&store), columns.clone(), 4, 1)
            .unwrap()
            .run(&batch);
        assert_eq!(results[0], clean[0]);
        assert_eq!(results[2], clean[2]);
    }
}

#[test]
fn panicking_query_fails_its_slot_and_the_pool_survives() {
    let ds = line_dataset();
    let mut store = MemStore::new();
    let DiskLayout { columns, .. } = DiskDatabase::<MemStore>::build(&ds, &mut store);
    let bad_page = columns.base_page() + 2;
    let config = FaultConfig {
        panic_on_page: Some(bad_page),
        ..FaultConfig::default()
    };
    let engine = DiskQueryEngine::with_workers(
        FaultStore::new(MemStore::clone(&store), config),
        columns.clone(),
        4,
        1,
    )
    .unwrap();
    let batch = vec![line_query(5.0), line_query(900.0), line_query(120.0)];
    let results = engine.run(&batch);
    assert!(results[0].is_ok());
    assert!(results[2].is_ok(), "slots after the panic must complete");
    match &results[1] {
        Err(KnMatchError::Panicked { message }) => {
            assert!(message.contains("injected fault: panic"), "{message}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The panic unwound through a held shard lock; the pool must have
    // recovered it. The one-shot panic is spent, so the same engine now
    // answers the full batch, matching a fault-free engine.
    let again = engine.run(&batch);
    let clean = DiskQueryEngine::with_workers(MemStore::clone(&store), columns, 4, 1)
        .unwrap()
        .run(&batch);
    assert_eq!(again, clean);
}
