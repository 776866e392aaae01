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
use knmatch_core::{
    execute_batch_query, AdStats, BatchAnswer, BatchEngine, BatchQuery, KnMatchError, Scratch,
    SortedColumns,
};
use knmatch_storage::{
    DiskDatabase, DiskQueryEngine, FaultConfig, FaultStore, IoStats, MemStore, SharedBufferPool,
    SharedDiskColumns, SortedColumnFile, COLUMN_ENTRIES_PER_PAGE,
};

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

/// A query on the data point at `rank` of `dim`'s sorted column: its
/// `locate` in `dim` reads the page holding that rank.
fn aimed_at(ds: &knmatch_core::Dataset, dim: usize, rank: usize) -> BatchQuery {
    let pid = SortedColumns::build(ds).column(dim).get(rank).pid;
    BatchQuery::KnMatch {
        query: ds.point(pid).to_vec(),
        k: 3,
        n: 2,
    }
}

/// One engine keeps its workers' read states across many batches; no
/// query may see what an earlier one left in them. Seeded batches of all
/// three kinds run on one engine, some after an `invalidate_all`, some
/// with a query that reads a page whose every read fails, and one batch
/// reads a page whose first read panics. Every query must come out
/// exactly as on a fresh view of its own — answers, `AdStats`, modelled
/// `IoStats`, and the same error where the fresh view fails — and every
/// answer must be the reference pool's.
fn kept_views_are_fresh_views(workers: usize, seed: u64) {
    let ds = knmatch_data::uniform(1500, 6, seed);
    let pool_pages = 12;
    let mut store = MemStore::new();
    let layout = DiskDatabase::<MemStore>::build(&ds, &mut store);
    let columns = layout.columns;
    let page_of = |dim: usize, rank: usize| {
        columns.base_page() + dim * columns.pages_per_dim() + rank / COLUMN_ENTRIES_PER_PAGE
    };
    let (fail_rank, panic_rank) = (
        2 * COLUMN_ENTRIES_PER_PAGE + 100,
        COLUMN_ENTRIES_PER_PAGE + 50,
    );
    let failing = FaultConfig {
        fail_pages: [page_of(2, fail_rank)].into_iter().collect(),
        ..FaultConfig::default()
    };
    let engine = DiskQueryEngine::with_workers(
        FaultStore::new(
            store.clone(),
            FaultConfig {
                panic_on_page: Some(page_of(0, panic_rank)),
                ..failing.clone()
            },
        ),
        columns.clone(),
        pool_pages,
        workers,
    )
    .unwrap();
    let fresh_pool = SharedBufferPool::new(FaultStore::new(store.clone(), failing), pool_pages);

    let mut rng = knmatch_data::rng::seeded(seed);
    let (mut panics, mut failures) = (0, 0);
    for b in 0..12u64 {
        let size = 1 + rng.range_usize(0..10);
        let mut batch = mixed_batch(&ds, size, seed ^ (b << 32));
        if b % 4 == 1 {
            batch.insert(size / 2, aimed_at(&ds, 2, fail_rank));
        }
        if b == 6 {
            batch.insert(size / 2, aimed_at(&ds, 0, panic_rank));
        }
        if b % 3 == 2 {
            engine.pool().invalidate_all();
        }
        let results = engine.run(&batch);
        for (i, (q, got)) in batch.iter().zip(results).enumerate() {
            let mut src = SharedDiskColumns::new(&columns, &fresh_pool, pool_pages);
            let fresh = engine.execute(q, &mut src, &mut Scratch::new());
            let at = format!("workers {workers}, batch {b}, query {i}");
            match &got {
                Err(KnMatchError::Panicked { message }) => {
                    assert!(message.contains("injected fault: panic"), "{at}: {message}");
                    assert!(fresh.is_ok(), "{at}: {fresh:?}");
                    panics += 1;
                    continue;
                }
                Err(KnMatchError::Storage { .. }) => failures += 1,
                Ok(out) => {
                    let want = reference(&store, &columns, pool_pages, q);
                    assert_eq!(
                        (&out.answer, &out.ad, &out.io),
                        (&want.0, &want.1, &want.2),
                        "{at}: diverged from the reference pool"
                    );
                }
                Err(e) => panic!("{at}: {e}"),
            }
            assert_eq!(got, fresh, "{at}: a kept view and a fresh one disagree");
        }
    }
    assert_eq!(
        panics, 1,
        "workers {workers}: the one-shot panic fires once"
    );
    assert!(
        failures > 0,
        "workers {workers}: some query read the failing page"
    );
}

#[test]
fn kept_views_are_fresh_views_one_worker() {
    kept_views_are_fresh_views(1, 5);
}

#[test]
fn kept_views_are_fresh_views_two_workers() {
    kept_views_are_fresh_views(2, 6);
}

#[test]
fn kept_views_are_fresh_views_four_workers() {
    kept_views_are_fresh_views(4, 7);
}

/// Theorem 3.2's count, taken from the data: the attributes within ε of
/// `query`, where ε is the k-th smallest n1-match difference.
fn attributes_within_kth(rows: &[Vec<f64>], query: &[f64], k: usize, n1: usize) -> u64 {
    let mut nth: Vec<f64> = rows
        .iter()
        .map(|row| {
            let mut diffs: Vec<f64> = row.iter().zip(query).map(|(v, q)| (v - q).abs()).collect();
            diffs.sort_unstable_by(f64::total_cmp);
            diffs[n1 - 1]
        })
        .collect();
    nth.sort_unstable_by(f64::total_cmp);
    let eps = nth[k - 1];
    rows.iter()
        .flat_map(|row| row.iter().zip(query))
        .filter(|(v, q)| (*v - *q).abs() <= eps)
        .count() as u64
}

#[test]
fn heap_pops_equal_the_attributes_within_the_kth_difference() {
    // Theorem 3.2 on disk: a k-n-match walk over the column file pops
    // exactly the attributes within the answer's ε — one pop too many or
    // too few fails — on uniform data and on a 0.25 grid whose
    // differences tie. Each batch runs twice on one engine, so the
    // second pass walks on the read state and scratch the first one
    // parked; neither may change a pop.
    let (c, d) = (600, 4);
    let mut rng = knmatch_data::rng::seeded(0x5AAD_0009);
    for grid in [false, true] {
        let mut value = || {
            let v = rng.next_f64();
            if grid {
                (v * 4.0).floor() / 4.0
            } else {
                v
            }
        };
        let rows: Vec<Vec<f64>> = (0..c).map(|_| (0..d).map(|_| value()).collect()).collect();
        let points: Vec<Vec<f64>> = (0..6).map(|_| (0..d).map(|_| value()).collect()).collect();
        let ds = knmatch_core::Dataset::from_rows(&rows).unwrap();
        let mut queries = Vec::new();
        for query in &points {
            for k in [1, 10] {
                for n in 1..=d {
                    let query = query.clone();
                    queries.push(BatchQuery::KnMatch { query, k, n });
                }
            }
        }
        for workers in [1, 2] {
            let engine = DiskDatabase::build_in_memory(&ds, 8).into_engine(workers);
            for pass in 0..2 {
                for (q, got) in queries.iter().zip(engine.run(&queries)) {
                    let BatchQuery::KnMatch { query, k, n } = q else {
                        unreachable!("k-n-match queries only")
                    };
                    let ad = got.unwrap().ad;
                    let at = format!("grid={grid} workers={workers} pass={pass} {q:?}");
                    assert_eq!(
                        ad.heap_pops,
                        attributes_within_kth(&rows, query, *k, *n),
                        "{at}"
                    );
                    assert!(
                        ad.attributes_retrieved - ad.heap_pops <= (2 * d) as u64,
                        "{at}: {ad:?}"
                    );
                }
            }
        }
    }
}
