//! Randomized cross-check of the pruning backends and the cost-based
//! planner against the sequential oracle.
//!
//! Every backend the planner can route to — VA-file, kernel scan, AD —
//! forced through the planner's batch loop, and the planner itself under
//! every mode, must answer the exact query kinds **bit-identically** to
//! the naive sequential scan, across dimensionalities, cardinalities,
//! n-ranges, and worker counts; the AD route's `AdStats` must equal
//! sequential AD's, and its pops the count Theorem 3.2 gives. The sweeps are seeded, so a failure reproduces
//! deterministically.

use knmatch_core::{
    execute_batch_query, frequent_k_n_match_scan, k_n_match_scan, nmatch_difference_with_buf,
    BatchAnswer, BatchEngine, BatchOptions, BatchQuery, Dataset, KnMatchResult, MatchEntry,
    PlannerMode, Scratch, FILTER_BLOCK,
};
use knmatch_data::rng::Rng64;
use knmatch_server::PlannedEngine;

fn random_dataset(rng: &mut Rng64, c: usize, d: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..c)
        .map(|_| (0..d).map(|_| rng.next_f64()).collect())
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

/// Low-entropy values (a small grid) so differences collide constantly
/// and only the canonical `(diff, pid)` tie-break yields a unique answer.
fn quantised_dataset(rng: &mut Rng64, c: usize, d: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..c)
        .map(|_| {
            (0..d)
                .map(|_| rng.range_usize(0..5) as f64 * 0.25)
                .collect()
        })
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

/// A random batch covering every query kind and a spread of n-ranges,
/// including the extremes n = 1 and n = d where the Figure 12 crossover
/// flips backends.
fn random_batch(rng: &mut Rng64, d: usize, queries: usize) -> Vec<BatchQuery> {
    (0..queries)
        .map(|i| {
            let query: Vec<f64> = (0..d).map(|_| rng.next_f64()).collect();
            let k = rng.range_usize(1..12);
            let n = match i % 4 {
                0 => 1,
                1 => d,
                _ => rng.range_usize(1..d + 1),
            };
            match i % 3 {
                0 => BatchQuery::KnMatch { query, k, n },
                1 => {
                    let n1 = rng.range_usize(n..d + 1);
                    BatchQuery::Frequent {
                        query,
                        k,
                        n0: n,
                        n1,
                    }
                }
                _ => BatchQuery::EpsMatch {
                    query,
                    eps: rng.range_f64(0.0, 0.3),
                    n,
                },
            }
        })
        .collect()
}

/// The oracle: the naive per-algorithm scans, which share no loop with
/// any backend under test (the refine loops those backends run are what
/// this suite checks) — ε-n-match through `nmatch_difference_with_buf`, as
/// `filter.rs`'s own test oracle does.
fn oracle(ds: &Dataset, batch: &[BatchQuery]) -> Vec<BatchAnswer> {
    batch
        .iter()
        .map(|q| match q {
            BatchQuery::KnMatch { query, k, n } => {
                BatchAnswer::KnMatch(k_n_match_scan(ds, query, *k, *n).unwrap())
            }
            BatchQuery::Frequent { query, k, n0, n1 } => {
                BatchAnswer::Frequent(frequent_k_n_match_scan(ds, query, *k, *n0, *n1).unwrap())
            }
            BatchQuery::EpsMatch { query, eps, n } => {
                let mut buf = Vec::new();
                let mut entries: Vec<MatchEntry> = ds
                    .iter()
                    .map(|(pid, p)| MatchEntry {
                        pid,
                        diff: nmatch_difference_with_buf(p, query, *n, &mut buf),
                    })
                    .filter(|e| e.diff <= *eps)
                    .collect();
                entries.sort_by(|a, b| a.diff.total_cmp(&b.diff).then(a.pid.cmp(&b.pid)));
                BatchAnswer::EpsMatch(KnMatchResult { n: *n, entries })
            }
        })
        .collect()
}

/// `batch` through `engine` with `mode` forced for the batch.
fn forced(
    engine: &PlannedEngine,
    mode: PlannerMode,
    batch: &[BatchQuery],
) -> Vec<knmatch_core::Result<(BatchAnswer, knmatch_core::AdStats)>> {
    let opts = BatchOptions {
        planner: Some(mode),
        ..BatchOptions::default()
    };
    engine.run_with(batch, &opts)
}

#[test]
fn backends_match_oracle_across_the_grid() {
    let mut rng = Rng64::new(0x5eed_cafe);
    for &(c, d) in &[(300usize, 4usize), (300, 12), (2000, 4), (2000, 12)] {
        let ds = random_dataset(&mut rng, c, d);
        let batch = random_batch(&mut rng, d, 24);
        let want = oracle(&ds, &batch);
        for workers in [1usize, 3] {
            let engine = PlannedEngine::with_workers(&ds, workers, PlannerMode::Auto);
            for mode in [PlannerMode::VaFile, PlannerMode::Scan] {
                let got = forced(&engine, mode, &batch);
                for (i, (r, w)) in got.into_iter().zip(&want).enumerate() {
                    assert_eq!(
                        &r.unwrap().0,
                        w,
                        "{mode} diverged: c={c} d={d} workers={workers} query #{i}"
                    );
                }
            }
        }
    }
}

#[test]
fn planner_matches_oracle_in_every_mode() {
    let mut rng = Rng64::new(0x91a2);
    for &(c, d) in &[(300usize, 4usize), (2000, 12)] {
        let ds = random_dataset(&mut rng, c, d);
        let batch = random_batch(&mut rng, d, 20);
        let want = oracle(&ds, &batch);
        for workers in [1usize, 3] {
            let engine = PlannedEngine::with_workers(&ds, workers, PlannerMode::Auto);
            // The AD route's answers *and* stats: sequential AD over the
            // planner's own columns.
            let mut scratch = Scratch::new();
            let ad_want: Vec<_> = batch
                .iter()
                .map(|q| execute_batch_query(&mut &**engine.columns(), q, &mut scratch).unwrap())
                .collect();
            for mode in [
                PlannerMode::Auto,
                PlannerMode::Ad,
                PlannerMode::VaFile,
                PlannerMode::Scan,
            ] {
                for (i, (r, w)) in forced(&engine, mode, &batch)
                    .into_iter()
                    .zip(&want)
                    .enumerate()
                {
                    let r = r.unwrap();
                    let ctx = format!("mode={mode} c={c} d={d} workers={workers} query #{i}");
                    assert_eq!(&r.0, w, "planner diverged: {ctx}");
                    if mode == PlannerMode::Ad {
                        assert_eq!(r, ad_want[i], "AD route's stats diverged: {ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn tie_heavy_data_resolves_canonically_everywhere() {
    let mut rng = Rng64::new(77);
    let ds = quantised_dataset(&mut rng, 500, 6);
    let batch = random_batch(&mut rng, 6, 18);
    let want = oracle(&ds, &batch);
    let engine = PlannedEngine::with_workers(&ds, 2, PlannerMode::Auto);
    let engines: Vec<(&str, Vec<_>)> = vec![
        ("vafile", forced(&engine, PlannerMode::VaFile, &batch)),
        ("planner", engine.run(&batch)),
    ];
    for (name, got) in engines {
        for (i, (r, w)) in got.into_iter().zip(&want).enumerate() {
            assert_eq!(&r.unwrap().0, w, "{name} diverged on ties at query #{i}");
        }
    }
}

#[test]
fn grid_ties_at_every_threshold_resolve_identically_everywhere() {
    // On the 0.25-step grid every difference is a multiple of the step,
    // so the running k-th difference, ε and each frequent level's k-th
    // are tied by many points at once: the counting refine must keep
    // exactly the ties `TopK`'s pid tie-break then decides.
    let mut rng = Rng64::new(0x7135);
    let (c, d) = (300usize, 6usize);
    let ds = quantised_dataset(&mut rng, c, d);
    let mut batch = Vec::new();
    for _ in 0..4 {
        let query: Vec<f64> = (0..d)
            .map(|_| rng.range_usize(0..5) as f64 * 0.25)
            .collect();
        for k in [1, c / 2, c] {
            for n in [1, d] {
                batch.push(BatchQuery::KnMatch {
                    query: query.clone(),
                    k,
                    n,
                });
            }
            batch.push(BatchQuery::Frequent {
                query: query.clone(),
                k,
                n0: 1,
                n1: d,
            });
        }
        for n in [1, d] {
            batch.push(BatchQuery::EpsMatch {
                query: query.clone(),
                eps: 0.25,
                n,
            });
        }
    }
    let want = oracle(&ds, &batch);
    for workers in [1usize, 3] {
        let engine = PlannedEngine::with_workers(&ds, workers, PlannerMode::Auto);
        for mode in [PlannerMode::Scan, PlannerMode::VaFile, PlannerMode::Auto] {
            for (i, (r, w)) in forced(&engine, mode, &batch)
                .into_iter()
                .zip(&want)
                .enumerate()
            {
                assert_eq!(
                    &r.unwrap().0,
                    w,
                    "mode={mode} workers={workers} diverged on grid ties at query #{i}: {:?}",
                    batch[i]
                );
            }
        }
    }
}

#[test]
fn planner_tally_is_consistent_with_its_own_cost_model() {
    let mut rng = Rng64::new(0xabcd);
    let ds = random_dataset(&mut rng, 1500, 8);
    let batch = random_batch(&mut rng, 8, 30);
    let engine = PlannedEngine::with_workers(&ds, 2, PlannerMode::Auto);
    // Predict every route first: planning is a pure function of the data
    // and the query, so re-planning must reproduce the execution tally.
    let mut want = knmatch_core::PlanTally::default();
    for q in &batch {
        match engine.plan_for(q).unwrap().backend {
            knmatch_storage::BackendChoice::Ad => want.ad += 1,
            knmatch_storage::BackendChoice::VaFile => want.vafile += 1,
            knmatch_storage::BackendChoice::Scan => want.scan += 1,
        }
    }
    for r in engine.run(&batch) {
        r.unwrap();
    }
    assert_eq!(engine.plan_counts(), Some(want));
    assert_eq!(want.total(), batch.len() as u64);
}

#[test]
fn forced_vafile_matches_oracle_at_block_edges() {
    // The VA filter counts and refines FILTER_BLOCK pids at a time: data
    // ending just before, just after and well past a block edge, and
    // copies of one row straddling the first edge whose difference ties
    // the k-th, at k = c, n = d, frequent [1, d] and ε-n-match.
    let mut rng = Rng64::new(0xb10c);
    let b = FILTER_BLOCK;
    let d = 5;
    for c in [1, b - 1, b + 1, 3 * b + 7] {
        let mut rows: Vec<Vec<f64>> = (0..c)
            .map(|_| (0..d).map(|_| 0.3 + 0.7 * rng.next_f64()).collect())
            .collect();
        let near: Vec<f64> = (0..d).map(|_| 0.1 * rng.next_f64()).collect();
        for row in rows.iter_mut().take(b + 2).skip(b.saturating_sub(2)) {
            row.clone_from(&near);
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut batch = Vec::new();
        for query in [near.clone(), rows[c / 2].clone()] {
            for k in [1, c.min(3), c.min(10), c] {
                for n in [1, 3, d] {
                    batch.push(BatchQuery::KnMatch {
                        query: query.clone(),
                        k,
                        n,
                    });
                }
                batch.push(BatchQuery::Frequent {
                    query: query.clone(),
                    k,
                    n0: 1,
                    n1: d,
                });
            }
            batch.push(BatchQuery::EpsMatch {
                query: query.clone(),
                eps: 0.12,
                n: 2,
            });
        }
        let want = oracle(&ds, &batch);
        for workers in [1usize, 3] {
            let engine = PlannedEngine::with_workers(&ds, workers, PlannerMode::Auto);
            for (i, (r, w)) in forced(&engine, PlannerMode::VaFile, &batch)
                .into_iter()
                .zip(&want)
                .enumerate()
            {
                assert_eq!(
                    &r.unwrap().0,
                    w,
                    "vafile diverged: c={c} workers={workers} query #{i}: {:?}",
                    batch[i]
                );
            }
        }
    }
}

/// Theorem 3.2's count, taken from the data: the attributes within ε of
/// `query`, where ε is the k-th smallest n1-match difference.
fn attributes_within_kth(ds: &Dataset, query: &[f64], k: usize, n1: usize) -> u64 {
    let mut nth: Vec<f64> = ds
        .iter()
        .map(|(_, p)| {
            let mut diffs: Vec<f64> = p.iter().zip(query).map(|(v, q)| (v - q).abs()).collect();
            diffs.sort_unstable_by(f64::total_cmp);
            diffs[n1 - 1]
        })
        .collect();
    nth.sort_unstable_by(f64::total_cmp);
    let eps = nth[k - 1];
    ds.iter()
        .flat_map(|(_, row)| row.iter().zip(query))
        .filter(|(v, q)| (*v - *q).abs() <= eps)
        .count() as u64
}

#[test]
fn forced_ad_pops_the_attributes_within_the_kth_difference() {
    // Theorem 3.2 on the planner's `ad` route: a k-n-match (and a
    // frequent [⌈n/2⌉, n]) walk pops exactly the attributes within the
    // answer's ε, on continuous data and on the 0.25 grid, where the
    // count takes in the whole tie plateau at ε.
    let mut rng = Rng64::new(0x7e03);
    let (c, d) = (300usize, 6usize);
    for grid in [false, true] {
        let ds = if grid {
            quantised_dataset(&mut rng, c, d)
        } else {
            random_dataset(&mut rng, c, d)
        };
        let mut batch = Vec::new();
        for pid in [0, c / 3, c - 1] {
            let query = ds.point(pid as u32).to_vec();
            for k in [1, 10] {
                for n in 1..=4 {
                    batch.push(BatchQuery::KnMatch {
                        query: query.clone(),
                        k,
                        n,
                    });
                    batch.push(BatchQuery::Frequent {
                        query: query.clone(),
                        k,
                        n0: n.div_ceil(2),
                        n1: n,
                    });
                }
            }
        }
        let engine = PlannedEngine::with_workers(&ds, 2, PlannerMode::Auto);
        for (q, r) in batch.iter().zip(forced(&engine, PlannerMode::Ad, &batch)) {
            let (_, stats) = r.unwrap();
            let (query, k, n1) = match q {
                BatchQuery::KnMatch { query, k, n } => (query, *k, *n),
                BatchQuery::Frequent { query, k, n1, .. } => (query, *k, *n1),
                BatchQuery::EpsMatch { .. } => unreachable!("no ε queries here"),
            };
            assert_eq!(
                stats.heap_pops,
                attributes_within_kth(&ds, query, k, n1),
                "grid={grid} {q:?}"
            );
        }
    }
}
