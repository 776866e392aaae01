//! The VA backend's pruning power as a count: on `planner_crossover`'s
//! own data and query points, wide frequent ranges refine a small
//! fraction of the points. The count is a pure function of the data and
//! the queries, so the bounds below are exact gates, not timings.

use std::sync::Arc;

use knmatch_bench::crossover_points;
use knmatch_core::{BatchQuery, FilterScratch};
use knmatch_vafile::va_engine;

/// `planner_crossover`'s defaults: seed, cardinality, queries per cell, k.
const SEED: u64 = 42;
const CARDINALITY: usize = 20_000;
const QUERIES: usize = 48;
const K: usize = 10;

/// The VA backend's mean refined points per query for frequent
/// `[n0, d]` queries at the crossover grid's n = d points.
fn mean_refined(d: usize, n0: usize) -> f64 {
    let ds = knmatch_data::uniform(CARDINALITY, d, SEED);
    let [_, _, points] = crossover_points(&ds, SEED, QUERIES);
    let engine = va_engine(Arc::new(ds));
    let mut scratch = FilterScratch::new();
    let attrs: u64 = points
        .into_iter()
        .map(|query| {
            let q = BatchQuery::Frequent {
                query,
                k: K,
                n0,
                n1: d,
            };
            engine
                .execute(&q, &mut scratch)
                .unwrap()
                .1
                .attributes_retrieved
        })
        .sum();
    attrs as f64 / (d * QUERIES) as f64
}

#[test]
fn wide_frequent_ranges_refine_a_tenth_of_the_points() {
    // The count test alone (level n1's bound, hit floor n0) keeps about
    // 19 000 and 10 000 of the 20 000 points here; the per-level test
    // brings both to about 500.
    for (d, n0) in [(16usize, 8usize), (8, 4)] {
        let refined = mean_refined(d, n0);
        assert!(
            refined <= 2_000.0,
            "d={d} frequent [{n0}, {d}]: {refined:.1} points refined per query"
        );
    }
}
