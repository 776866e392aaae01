//! Cross-crate integration for the beyond-the-paper features: the hybrid
//! schema, MEDRANK, FA/TA, the streaming iterator and the parallel scan
//! all interoperating on shared workloads.

use knmatch::core::{
    eps_n_match_ad, k_n_match_scan_parallel, medrank, DimKind, GradedLists, HybridColumns,
    HybridSchema, MinAggregate, NMatchStream,
};
use knmatch::data::{labelled_clusters, uniform, ClusterSpec};
use knmatch::prelude::*;

#[test]
fn hybrid_and_plain_agree_on_numeric_data() {
    let ds = uniform(300, 5, 9);
    let schema = HybridSchema::all_numeric(5).unwrap();
    let hybrid = HybridColumns::build(&ds, schema).unwrap();
    let mut plain = SortedColumns::build(&ds);
    let q = ds.point(123).to_vec();
    for n in [1usize, 3, 5] {
        // One AD walker: the same answers and the same cost counters.
        let h = knmatch::core::k_n_match_hybrid(&hybrid, &q, 8, n).unwrap();
        let p = k_n_match_ad(&mut plain, &q, 8, n).unwrap();
        assert_eq!(h, p, "n={n}");
    }
}

#[test]
fn hybrid_categorical_dimension_changes_answers() {
    // Append a category code column: points share the query's category only
    // when pid % 3 == 0.
    let base = uniform(120, 4, 4);
    let rows: Vec<Vec<f64>> = base
        .iter()
        .map(|(pid, p)| {
            let mut r = p.to_vec();
            r.push((pid % 3) as f64);
            r
        })
        .collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let schema = HybridSchema::new(vec![
        DimKind::numeric(),
        DimKind::numeric(),
        DimKind::numeric(),
        DimKind::numeric(),
        DimKind::Categorical { weight: 10.0 },
    ])
    .unwrap();
    let cols = HybridColumns::build(&ds, schema).unwrap();
    let mut q = base.point(0).to_vec();
    q.push(0.0); // category 0
                 // With n = 5 every dimension must match: only category-0 points can
                 // have a small 5-match difference.
    let (m, _) = knmatch::core::k_n_match_hybrid(&cols, &q, 5, 5).unwrap();
    assert!(m.entries[0].diff < 10.0);
    assert_eq!(
        m.entries[0].pid % 3,
        0,
        "best full match shares the category"
    );
}

#[test]
fn medrank_and_ad_agree_when_data_is_well_separated() {
    // On tight clusters the rank winner and the difference winner coincide.
    let lds = labelled_clusters(&ClusterSpec {
        cardinality: 90,
        dims: 8,
        classes: 3,
        cluster_std: 0.02,
        noise_prob: 0.0,
        seed: 4,
    });
    let mut cols = SortedColumns::build(&lds.data);
    for qid in [0u32, 31, 62] {
        let q = lds.data.point(qid).to_vec();
        let (mr, _) = medrank(&mut cols, &q, 1, None).unwrap();
        assert_eq!(
            lds.labels[mr.ids()[0] as usize],
            lds.labels[qid as usize],
            "MEDRANK's winner shares the query's cluster"
        );
    }
}

#[test]
fn fagin_ta_runs_over_generated_grades() {
    let ds = uniform(200, 4, 8);
    let lists = GradedLists::build(&ds);
    let (fa, fa_stats) = lists.fa(&MinAggregate, 5).unwrap();
    let (ta, ta_stats) = lists.ta(&MinAggregate, 5).unwrap();
    let fa_ids: Vec<u32> = fa.iter().map(|&(p, _)| p).collect();
    let ta_ids: Vec<u32> = ta.iter().map(|&(p, _)| p).collect();
    assert_eq!(fa_ids, ta_ids, "FA and TA agree on monotone aggregates");
    assert!(ta_stats.sorted_accesses <= fa_stats.sorted_accesses);
}

#[test]
fn stream_eps_and_batch_views_are_consistent() {
    let ds = uniform(500, 6, 11);
    let q = ds.point(42).to_vec();
    let mut a = SortedColumns::build(&ds);
    let mut b = SortedColumns::build(&ds);
    let mut c = SortedColumns::build(&ds);
    let (topk, _) = k_n_match_ad(&mut a, &q, 12, 4).unwrap();
    let eps = topk.epsilon();
    let (by_eps, _) = eps_n_match_ad(&mut b, &q, eps, 4).unwrap();
    assert_eq!(by_eps.ids(), topk.ids());
    let streamed: Vec<u32> = NMatchStream::new(&mut c, &q, 4)
        .unwrap()
        .take(12)
        .map(|e| e.pid)
        .collect();
    let mut sorted_stream = streamed.clone();
    sorted_stream.sort_unstable();
    let mut sorted_top = topk.ids();
    sorted_top.sort_unstable();
    assert_eq!(sorted_stream, sorted_top);
}

#[test]
fn parallel_scan_agrees_everywhere() {
    let ds = uniform(3000, 10, 13);
    let q = ds.point(999).to_vec();
    for n in [1usize, 5, 10] {
        let par = k_n_match_scan_parallel(&ds, &q, 30, n, 8).unwrap();
        let ser = k_n_match_scan(&ds, &q, 30, n).unwrap();
        assert_eq!(par.ids(), ser.ids(), "n={n}");
    }
}
