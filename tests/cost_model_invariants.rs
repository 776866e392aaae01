//! Cross-crate integration: the cost claims of Sections 3–5 hold on real
//! workloads — AD's attribute optimality bounds, the free frequent range
//! (Theorem 3.3), disk-cost ordering, and the VA-file's sound pruning.

use knmatch::data::{skewed, uniform};
use knmatch::eval::{sample_query_points, DiskBench};
use knmatch::prelude::*;
use knmatch::storage::{HeapFile, ReadSession, SharedBufferPool};

#[test]
fn ad_attribute_count_grows_with_k_and_n() {
    let ds = uniform(2000, 10, 21);
    let mut cols = SortedColumns::build(&ds);
    let q = ds.point(42).to_vec();
    let mut prev = 0u64;
    for n in 1..=10 {
        let (_, stats) = k_n_match_ad(&mut cols, &q, 10, n).expect("valid");
        assert!(
            stats.attributes_retrieved >= prev,
            "n={n}: retrieval must not shrink as n grows"
        );
        prev = stats.attributes_retrieved;
    }
    let mut prev = 0u64;
    for k in [1, 5, 25, 125] {
        let (_, stats) = k_n_match_ad(&mut cols, &q, k, 5).expect("valid");
        assert!(stats.attributes_retrieved >= prev, "k={k}");
        prev = stats.attributes_retrieved;
    }
}

#[test]
fn frequent_range_is_free_beyond_its_upper_end() {
    // Theorem 3.3: FKNMatchAD([n0, n1]) costs exactly KNMatchAD(n1).
    let ds = uniform(1500, 8, 4);
    let mut cols = SortedColumns::build(&ds);
    let q = ds.point(7).to_vec();
    for (n0, n1) in [(1, 8), (2, 5), (4, 4)] {
        let (_, freq) = frequent_k_n_match_ad(&mut cols, &q, 12, n0, n1).expect("valid");
        let (_, single) = k_n_match_ad(&mut cols, &q, 12, n1).expect("valid");
        assert_eq!(
            freq.attributes_retrieved, single.attributes_retrieved,
            "[{n0}, {n1}] must cost the same as a plain k-{n1}-match"
        );
    }
}

#[test]
fn ad_never_exceeds_scan_attribute_cost() {
    let ds = skewed(3000, 12, 17);
    let mut cols = SortedColumns::build(&ds);
    let total = (ds.len() * ds.dims()) as u64;
    for q in sample_query_points(&ds, 4, 3) {
        let (_, stats) = frequent_k_n_match_ad(&mut cols, &q, 20, 4, 12).expect("valid");
        assert!(stats.attributes_retrieved <= total);
        // On skewed data the matches concentrate: well under half the file.
        assert!(
            (stats.attributes_retrieved as f64) < 0.5 * total as f64,
            "skew should keep retrieval low: {} of {total}",
            stats.attributes_retrieved
        );
    }
}

#[test]
fn disk_cost_ordering_ad_scan_igrid() {
    let ds = uniform(24_000, 16, 9);
    let queries = sample_query_points(&ds, 2, 5);
    let mut bench = DiskBench::build(&ds);
    let ad = bench.ad_frequent(&queries, 20, 4, 8);
    let scan = bench.scan_frequent(&queries, 20, 4, 8);
    let igrid = bench.igrid_query(&queries, 20);
    assert!(
        ad.pages < scan.pages,
        "AD pages {} !< scan {}",
        ad.pages,
        scan.pages
    );
    assert!(
        ad.time_ms < scan.time_ms && scan.time_ms < igrid.time_ms,
        "expected AD < scan < IGrid: {} / {} / {}",
        ad.time_ms,
        scan.time_ms,
        igrid.time_ms
    );
}

#[test]
fn va_pruning_is_sound_and_answers_exactly() {
    let ds = uniform(5000, 8, 33);
    let mut store = MemStore::new();
    let heap = HeapFile::build(&mut store, &ds);
    let va = VaFile::build(&mut store, &ds, 8);
    let pool = SharedBufferPool::new(store, 128);
    let mut session = ReadSession::new(128);
    for q in sample_query_points(&ds, 3, 8) {
        let out =
            frequent_k_n_match_va(&va, &heap, &pool, &mut session, &q, 15, 3, 6).expect("valid");
        let oracle = frequent_k_n_match_scan(&ds, &q, 15, 3, 6).expect("oracle");
        assert_eq!(out.result.ids(), oracle.ids());
        assert!(out.refined >= 15, "at least k candidates refine");
        assert!(out.refined < ds.len(), "the filter must prune something");
    }
}

#[test]
fn warm_pool_reduces_io_but_not_answers() {
    // A query's modelled I/O is the cold private-pool model every time;
    // what a warm pool saves shows in the pool's actual counters.
    let ds = uniform(4000, 8, 12);
    let db = DiskDatabase::build_in_memory(&ds, 2048);
    let q = ds.point(9).to_vec();
    let cold = db.frequent_k_n_match(&q, 10, 2, 6).expect("valid");
    let cold_reads = db.pool_stats().page_accesses();
    let warm = db.frequent_k_n_match(&q, 10, 2, 6).expect("valid");
    let warm_reads = db.pool_stats().page_accesses() - cold_reads;
    assert_eq!(cold.result.ids(), warm.result.ids());
    assert_eq!(warm.io, cold.io, "modelled I/O ignores the warm cache");
    assert!(cold_reads > 0);
    assert!(
        warm_reads < cold_reads,
        "the warm rerun must fetch less: {warm_reads} vs {cold_reads}"
    );
    assert_eq!(cold.ad.attributes_retrieved, warm.ad.attributes_retrieved);
}
