//! Randomized cross-check of the disk read path against a reference
//! exclusive LRU pool.
//!
//! The contract is bit-identical results at any worker count: answers,
//! `AdStats`, and the *modelled* per-query `IoStats` of both the parallel
//! [`DiskQueryEngine`] and the single-query [`DiskDatabase`] methods must
//! all equal what the generic AD engine books when it reads the same
//! column file through a cold [`common::ReferencePool`] of the same
//! capacity — a `HashMap` LRU written independently of the product's
//! `ReadSession`. The database is queried without invalidating its
//! shared pool, so the modelled stats must also ignore whatever earlier
//! queries left cached. Capacities sweep down to a single frame, where
//! the modelled LRU churns on every access — the harshest test of the
//! session's pool simulation.
//!
//! [`DiskQueryEngine`]: knmatch_storage::DiskQueryEngine

mod common;

use common::{ReferenceColumns, ReferencePool};
use knmatch_core::{execute_batch_query, AdStats, BatchAnswer, BatchEngine, BatchQuery, Scratch};
use knmatch_storage::{DiskDatabase, IoStats, MemStore, SortedColumnFile};

/// Mixed workload over `ds`: every query type, parameters varied by a
/// seeded xoshiro stream.
fn mixed_batch(ds: &knmatch_core::Dataset, count: usize, seed: u64) -> Vec<BatchQuery> {
    let mut rng = knmatch_data::rng::seeded(seed);
    let d = ds.dims();
    (0..count)
        .map(|i| {
            let pid = (rng.next_u64() % ds.len() as u64) as u32;
            let mut query = ds.point(pid).to_vec();
            // Perturb so queries are near but not on data points.
            for v in &mut query {
                *v += rng.next_f64() * 0.02 - 0.01;
            }
            let k = 1 + (rng.next_u64() % 8) as usize;
            let n = 1 + (rng.next_u64() % d as u64) as usize;
            match i % 3 {
                0 => BatchQuery::KnMatch { query, k, n },
                1 => {
                    let n1 = n.max(2);
                    let n0 = 1 + (rng.next_u64() % n1 as u64) as usize;
                    BatchQuery::Frequent { query, k, n0, n1 }
                }
                _ => BatchQuery::EpsMatch {
                    query,
                    eps: rng.next_f64() * 0.05,
                    n,
                },
            }
        })
        .collect()
}

/// Runs `q` through the generic AD engine over a cold reference pool.
fn reference(
    store: &MemStore,
    columns: &SortedColumnFile,
    pool_pages: usize,
    q: &BatchQuery,
) -> (BatchAnswer, AdStats, IoStats) {
    let mut pool = ReferencePool::new(store.clone(), pool_pages);
    let mut src = ReferenceColumns::new(columns, &mut pool);
    let (answer, ad) = execute_batch_query(&mut src, q, &mut Scratch::new()).unwrap();
    (answer, ad, pool.stats())
}

/// Runs `q` through the database's single-query methods.
fn sequential(db: &DiskDatabase<MemStore>, q: &BatchQuery) -> (BatchAnswer, AdStats, IoStats) {
    match q {
        BatchQuery::KnMatch { query, k, n } => {
            let out = db.k_n_match(query, *k, *n).unwrap();
            (BatchAnswer::KnMatch(out.result), out.ad, out.io)
        }
        BatchQuery::Frequent { query, k, n0, n1 } => {
            let out = db.frequent_k_n_match(query, *k, *n0, *n1).unwrap();
            (BatchAnswer::Frequent(out.result), out.ad, out.io)
        }
        BatchQuery::EpsMatch { query, eps, n } => {
            let out = db.eps_n_match(query, *eps, *n).unwrap();
            (BatchAnswer::EpsMatch(out.result), out.ad, out.io)
        }
    }
}

fn crosscheck(cardinality: usize, dims: usize, pool_pages: usize, seed: u64) {
    let ds = knmatch_data::uniform(cardinality, dims, seed);
    let batch = mixed_batch(&ds, 24, seed ^ 0x9E3779B97F4A7C15);

    let mut store = MemStore::new();
    let layout = DiskDatabase::<MemStore>::build(&ds, &mut store);
    let oracle: Vec<_> = batch
        .iter()
        .map(|q| reference(&store, &layout.columns, pool_pages, q))
        .collect();

    // Single queries on the calling thread, shared pool left warm.
    let db = layout.attach(store, pool_pages).unwrap();
    for (i, (q, want)) in batch.iter().zip(&oracle).enumerate() {
        assert_eq!(
            &sequential(&db, q),
            want,
            "database diverged: query {i}, pool {pool_pages}"
        );
    }

    for workers in [1usize, 2, 4, 8] {
        let engine = DiskDatabase::build_in_memory(&ds, pool_pages).into_engine(workers);
        let results = engine.run(&batch);
        let mut total_accesses = 0u64;
        for (i, (res, (answer, ad, io))) in results.iter().zip(&oracle).enumerate() {
            let got = res.as_ref().unwrap_or_else(|e| panic!("query {i}: {e}"));
            assert_eq!(
                &got.answer, answer,
                "answer diverged: query {i}, workers {workers}, pool {pool_pages}"
            );
            assert_eq!(
                &got.ad, ad,
                "AdStats diverged: query {i}, workers {workers}, pool {pool_pages}"
            );
            assert_eq!(
                &got.io, io,
                "IoStats diverged: query {i}, workers {workers}, pool {pool_pages}"
            );
            total_accesses += got.io.page_accesses();
        }
        let want_total: u64 = oracle.iter().map(|(_, _, io)| io.page_accesses()).sum();
        assert_eq!(total_accesses, want_total, "workers {workers}");
    }
}

#[test]
fn crosscheck_roomy_pool() {
    crosscheck(1200, 5, 64, 42);
}

#[test]
fn crosscheck_tight_pool() {
    // Smaller than one query's working set: constant modelled eviction.
    crosscheck(1200, 5, 4, 7);
}

#[test]
fn crosscheck_single_frame_pool() {
    // The minimum legal pool: every modelled access past the first of a
    // page is a fresh miss unless immediately repeated.
    crosscheck(600, 3, 1, 1234);
}

#[test]
fn crosscheck_high_dims() {
    crosscheck(500, 12, 32, 99);
}
