//! Cross-crate integration: every exact implementation of the (frequent)
//! k-n-match query — naive scan, in-memory AD, disk AD, disk scan, and the
//! two-phase VA-file — must return identical answers on shared workloads.

use knmatch::data::{coil_like, labelled_clusters, skewed, uniform, ClusterSpec};
use knmatch::prelude::*;
use knmatch::storage::{HeapFile, ReadSession, SharedBufferPool};

fn va_setup(ds: &Dataset, bits: u8) -> (VaFile, HeapFile, SharedBufferPool<MemStore>, ReadSession) {
    let mut store = MemStore::new();
    let heap = HeapFile::build(&mut store, ds);
    let va = VaFile::build(&mut store, ds, bits);
    (
        va,
        heap,
        SharedBufferPool::new(store, 128),
        ReadSession::new(128),
    )
}

fn check_all_agree(ds: &Dataset, query: &[f64], k: usize, n0: usize, n1: usize) {
    let oracle = frequent_k_n_match_scan(ds, query, k, n0, n1).expect("oracle");

    let mut cols = SortedColumns::build(ds);
    let (mem_ad, _) = frequent_k_n_match_ad(&mut cols, query, k, n0, n1).expect("mem AD");
    assert_eq!(mem_ad.ids(), oracle.ids(), "in-memory AD vs oracle");

    let db = DiskDatabase::build_in_memory(ds, 64);
    let disk_ad = db.frequent_k_n_match(query, k, n0, n1).expect("disk AD");
    assert_eq!(disk_ad.result.ids(), oracle.ids(), "disk AD vs oracle");
    let disk_scan = db
        .scan_frequent_k_n_match(query, k, n0, n1)
        .expect("disk scan");
    assert_eq!(disk_scan.result.ids(), oracle.ids(), "disk scan vs oracle");

    let (va, heap, pool, mut session) = va_setup(ds, 8);
    let va_out =
        frequent_k_n_match_va(&va, &heap, &pool, &mut session, query, k, n0, n1).expect("VA-file");
    assert_eq!(va_out.result.ids(), oracle.ids(), "VA-file vs oracle");

    // Per-n answer sets agree too.
    for (a, b) in oracle.per_n.iter().zip(&mem_ad.per_n) {
        assert_eq!(a.ids(), b.ids(), "per-n mismatch at n = {}", a.n);
    }
    for (a, b) in oracle.per_n.iter().zip(&va_out.result.per_n) {
        assert_eq!(a.ids(), b.ids(), "VA per-n mismatch at n = {}", a.n);
    }
}

#[test]
fn uniform_workload() {
    let ds = uniform(700, 8, 11);
    let q = ds.point(13).to_vec();
    check_all_agree(&ds, &q, 10, 2, 6);
    check_all_agree(&ds, &q, 1, 1, 1);
    check_all_agree(&ds, &q, 25, 8, 8);
}

#[test]
fn skewed_workload() {
    let ds = skewed(600, 10, 5);
    let q = ds.point(77).to_vec();
    check_all_agree(&ds, &q, 8, 3, 7);
}

#[test]
fn clustered_workload() {
    let lds = labelled_clusters(&ClusterSpec::new(300, 12, 3, 9));
    let q = lds.data.point(100).to_vec();
    check_all_agree(&lds.data, &q, 15, 4, 12);
}

#[test]
fn coil_workload() {
    let ds = coil_like(42);
    let q = ds.point(knmatch::data::COIL_QUERY_ID).to_vec();
    check_all_agree(&ds, &q, 4, 5, 30);
}

#[test]
fn paper_figures_end_to_end() {
    // Figure 1 semantics through the whole stack. (The Figure 1 data is
    // deliberately tie-heavy — several objects share exact per-dimension
    // differences — so distinct correct implementations may return
    // different, equally valid answer sets; we check the paper's stated
    // conclusions rather than id-for-id equality.)
    let ds = knmatch::core::paper::fig1_dataset();
    let q = knmatch::core::paper::fig1_query();
    let mut cols = SortedColumns::build(&ds);
    let (freq_ad, _) = frequent_k_n_match_ad(&mut cols, &q, 2, 1, 10).expect("AD");
    let freq_scan = frequent_k_n_match_scan(&ds, &q, 2, 1, 10).expect("scan");
    for freq in [&freq_ad, &freq_scan] {
        assert!(
            !freq.ids().contains(&3),
            "the all-20s object is never frequent"
        );
        for e in &freq.entries {
            assert!(e.pid <= 2);
        }
    }

    let db = DiskDatabase::build_in_memory(&ds, 16);
    let m6 = db.k_n_match(&q, 1, 6).expect("6-match");
    assert_eq!(m6.result.ids(), vec![2]);
    assert_eq!(m6.result.epsilon(), 0.0);

    // Figure 3's running example on every backend.
    let ds = knmatch::core::paper::fig3_dataset();
    let q = knmatch::core::paper::fig3_query();
    let db = DiskDatabase::build_in_memory(&ds, 16);
    let r = db.k_n_match(&q, 2, 2).expect("2-2-match");
    assert_eq!(r.result.ids(), vec![2, 1]);
    assert_eq!(r.result.epsilon(), 1.5);
    let (va, heap, pool, mut session) = va_setup(&ds, 8);
    let v = k_n_match_va(&va, &heap, &pool, &mut session, &q, 2, 2).expect("VA 2-2-match");
    assert_eq!(v.result.ids(), vec![2, 1]);
}

#[test]
fn single_n_equals_frequent_with_degenerate_range() {
    let ds = uniform(200, 6, 3);
    let q = ds.point(50).to_vec();
    for n in [1, 3, 6] {
        let single = k_n_match_scan(&ds, &q, 7, n).expect("single");
        let freq = frequent_k_n_match_scan(&ds, &q, 7, n, n).expect("frequent");
        assert_eq!(single.ids(), freq.per_n[0].ids());
        let mut sorted_single = single.ids();
        sorted_single.sort_unstable();
        let mut freq_ids = freq.ids();
        freq_ids.sort_unstable();
        assert_eq!(
            sorted_single, freq_ids,
            "degenerate frequent = plain k-n-match"
        );
    }
}
