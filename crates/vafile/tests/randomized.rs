//! Randomized tests: VA-file bounds must be sound and the two-phase
//! algorithm must agree with the exact oracle on every seeded random
//! instance (no external property-testing crate in the offline build).

use knmatch_core::Dataset;
use knmatch_data::rng::{seeded, Rng64};
use knmatch_storage::{HeapFile, MemStore, ReadSession, SharedBufferPool};
use knmatch_vafile::{frequent_k_n_match_va, k_n_match_va, k_nearest_va, VaFile};

fn db_and_query(rng: &mut Rng64) -> (Vec<Vec<f64>>, Vec<f64>, u8) {
    let d = rng.range_usize(1..6);
    let c = rng.range_usize(2..31);
    let bits = rng.range_usize(1..9) as u8;
    let rows = (0..c)
        .map(|_| (0..d).map(|_| rng.next_f64()).collect())
        .collect();
    let query = (0..d).map(|_| rng.next_f64()).collect();
    (rows, query, bits)
}

fn all_diffs_distinct(rows: &[Vec<f64>], query: &[f64]) -> bool {
    let mut diffs: Vec<f64> = rows
        .iter()
        .flat_map(|p| p.iter().zip(query).map(|(a, b)| (a - b).abs()))
        .collect();
    diffs.sort_unstable_by(f64::total_cmp);
    diffs.windows(2).all(|w| w[0] < w[1])
}

/// The dataset, its VA-file and heap file behind a 64-page pool, and a
/// session to read them with.
type Setup = (
    Dataset,
    VaFile,
    HeapFile,
    SharedBufferPool<MemStore>,
    ReadSession,
);

fn setup(rows: &[Vec<f64>], bits: u8) -> Setup {
    let ds = Dataset::from_rows(rows).unwrap();
    let mut store = MemStore::new();
    let heap = HeapFile::build(&mut store, &ds);
    let va = VaFile::build(&mut store, &ds, bits);
    (
        ds,
        va,
        heap,
        SharedBufferPool::new(store, 64),
        ReadSession::new(64),
    )
}

/// Per-dimension cell bounds always bracket the true difference.
#[test]
fn diff_bounds_are_sound() {
    let mut rng = seeded(0x7AF1_0001);
    for _ in 0..192 {
        let (rows, query, bits) = db_and_query(&mut rng);
        let (ds, va, _, _, _) = setup(&rows, bits);
        for (_, p) in ds.iter() {
            for (dim, (&v, &q)) in p.iter().zip(&query).enumerate() {
                let cell = va.cell_of(dim, v);
                let (lb, ub) = va.diff_bounds(dim, cell, q);
                let true_diff = (v - q).abs();
                assert!(lb <= true_diff + 1e-12, "lb {lb} > {true_diff}");
                assert!(ub + 1e-12 >= true_diff, "ub {ub} < {true_diff}");
                assert!(lb <= ub + 1e-12);
            }
        }
    }
}

/// The two-phase k-n-match returns exactly the oracle's answers.
#[test]
fn va_matches_oracle() {
    let mut rng = seeded(0x7AF1_0002);
    for _ in 0..192 {
        let (rows, query, bits) = db_and_query(&mut rng);
        if !all_diffs_distinct(&rows, &query) {
            continue;
        }
        let (ds, va, heap, pool, mut session) = setup(&rows, bits);
        let c = rows.len();
        let d = query.len();
        let k = c.div_ceil(2).max(1);
        for n in [1, d.div_ceil(2), d] {
            let out = k_n_match_va(&va, &heap, &pool, &mut session, &query, k, n).unwrap();
            let oracle = knmatch_core::k_n_match_scan(&ds, &query, k, n).unwrap();
            assert_eq!(out.result.ids(), oracle.ids(), "n={n}");
            assert!(out.refined >= k);
            assert!(out.refined <= c);
        }
        let out = frequent_k_n_match_va(&va, &heap, &pool, &mut session, &query, k, 1, d).unwrap();
        let oracle = knmatch_core::frequent_k_n_match_scan(&ds, &query, k, 1, d).unwrap();
        assert_eq!(out.result.ids(), oracle.ids());
    }
}

/// The classic kNN VA-file returns exactly the Euclidean kNN.
#[test]
fn va_knn_matches_oracle() {
    let mut rng = seeded(0x7AF1_0003);
    for _ in 0..192 {
        let (rows, query, bits) = db_and_query(&mut rng);
        let (ds, va, heap, pool, mut session) = setup(&rows, bits);
        let k = rows.len().div_ceil(2).max(1);
        let out = k_nearest_va(&va, &heap, &pool, &mut session, &query, k).unwrap();
        let oracle = knmatch_core::k_nearest(&ds, &query, k, &knmatch_core::Euclidean).unwrap();
        // Distances must agree even when id ties differ.
        for (a, b) in out.result.iter().zip(&oracle) {
            assert!((a.dist - b.dist).abs() < 1e-9);
        }
    }
}

/// Finer quantisation never refines more points.
#[test]
fn finer_bits_refine_no_more() {
    let mut rng = seeded(0x7AF1_0004);
    for _ in 0..192 {
        let (rows, query, _) = db_and_query(&mut rng);
        let coarse = rng.range_usize(1..5) as u8;
        let fine = coarse + 4;
        let k = rows.len().div_ceil(2).max(1);
        let n = query.len();
        let (_, va_c, heap_c, pool_c, mut session_c) = setup(&rows, coarse);
        let out_c = k_n_match_va(&va_c, &heap_c, &pool_c, &mut session_c, &query, k, n).unwrap();
        let (_, va_f, heap_f, pool_f, mut session_f) = setup(&rows, fine);
        let out_f = k_n_match_va(&va_f, &heap_f, &pool_f, &mut session_f, &query, k, n).unwrap();
        assert!(
            out_f.refined <= out_c.refined,
            "{fine} bits refined {} vs {coarse} bits refined {}",
            out_f.refined,
            out_c.refined
        );
    }
}
