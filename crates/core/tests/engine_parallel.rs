//! Cross-check: the served in-memory engine — a one-run
//! `VersionedIndex` — must return entry-for-entry identical answers AND
//! identical `AdStats` to the sequential single-query functions, across a
//! grid of dataset shapes, query parameters, and worker counts — and so
//! must the batch dispatch when one `Scratch` is reused across many
//! queries. This is the determinism contract of the batch engine.

use knmatch_core::{
    eps_n_match_ad, execute_batch_query, frequent_k_n_match_ad, k_n_match_ad, AdStats, BatchAnswer,
    BatchEngine, BatchQuery, Dataset, KnMatchError, Scratch, SortedColumns, VersionedIndex,
    DEFAULT_MERGE_THRESHOLD,
};

/// SplitMix64, kept local (knmatch-core has no dev-dependencies).
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn rows(rng: &mut TestRng, c: usize, d: usize) -> Vec<Vec<f64>> {
    (0..c)
        .map(|_| (0..d).map(|_| rng.f64()).collect())
        .collect()
}

/// A mixed workload touching every query kind and the full parameter grid.
fn workload(rng: &mut TestRng, c: usize, d: usize) -> Vec<BatchQuery> {
    let mut out = Vec::new();
    for k in [1, c.div_ceil(2), c] {
        for n0 in [1, d.div_ceil(2)] {
            for n1 in [n0, d] {
                let query: Vec<f64> = (0..d).map(|_| rng.f64()).collect();
                out.push(BatchQuery::Frequent {
                    query: query.clone(),
                    k,
                    n0,
                    n1,
                });
                out.push(BatchQuery::KnMatch {
                    query: query.clone(),
                    k,
                    n: n1,
                });
                out.push(BatchQuery::EpsMatch {
                    query,
                    eps: rng.f64(),
                    n: n0,
                });
            }
        }
    }
    out
}

/// The sequential reference: fresh allocations per query, the code path
/// that predates the engine.
fn sequential(
    cols: &SortedColumns,
    queries: &[BatchQuery],
) -> Vec<Result<(BatchAnswer, AdStats), KnMatchError>> {
    let mut cols = cols.clone();
    queries
        .iter()
        .map(|q| match q {
            BatchQuery::KnMatch { query, k, n } => {
                k_n_match_ad(&mut cols, query, *k, *n).map(|(r, s)| (BatchAnswer::KnMatch(r), s))
            }
            BatchQuery::Frequent { query, k, n0, n1 } => {
                frequent_k_n_match_ad(&mut cols, query, *k, *n0, *n1)
                    .map(|(r, s)| (BatchAnswer::Frequent(r), s))
            }
            BatchQuery::EpsMatch { query, eps, n } => eps_n_match_ad(&mut cols, query, *eps, *n)
                .map(|(r, s)| (BatchAnswer::EpsMatch(r), s)),
        })
        .collect()
}

/// The engine under test: `data` as a one-run index with `workers`.
fn served(data: &[Vec<f64>], workers: usize) -> VersionedIndex {
    let ds = Dataset::from_rows(data).unwrap();
    VersionedIndex::from_dataset(&ds, 1, workers, DEFAULT_MERGE_THRESHOLD).unwrap()
}

fn worker_grid() -> Vec<usize> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ws = vec![1, 2, cpus, cpus + 3];
    ws.dedup();
    ws
}

#[test]
fn batch_engine_matches_sequential_everywhere() {
    let mut rng = TestRng(0xE46E_0001);
    for (c, d) in [(1, 1), (7, 2), (24, 4), (61, 3), (120, 6)] {
        let data = rows(&mut rng, c, d);
        let cols = SortedColumns::from_rows(&data).unwrap();
        let queries = workload(&mut rng, c, d);
        let want = sequential(&cols, &queries);
        for workers in worker_grid() {
            let got = served(&data, workers).run(&queries);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g, w,
                    "c={c} d={d} workers={workers} query #{i}: {:?}",
                    queries[i]
                );
            }
        }
    }
}

#[test]
fn one_scratch_survives_a_long_mixed_workload() {
    // Repeated reuse of a single Scratch across sources of different
    // cardinalities: the epoch trick must never leak state between
    // queries (this is exactly what engine workers do, distilled).
    let mut rng = TestRng(0xE46E_0002);
    let mut scratch = Scratch::new();
    for (c, d) in [(40, 3), (5, 2), (90, 5), (2, 1), (40, 3)] {
        let cols = SortedColumns::from_rows(&rows(&mut rng, c, d)).unwrap();
        let queries = workload(&mut rng, c, d);
        let want = sequential(&cols, &queries);
        for (q, w) in queries.iter().zip(&want) {
            assert_eq!(&execute_batch_query(&mut &cols, q, &mut scratch), w);
        }
    }
}

#[test]
fn errors_surface_identically_in_batch_and_sequential() {
    let mut rng = TestRng(0xE46E_0003);
    let data = rows(&mut rng, 10, 3);
    let cols = SortedColumns::from_rows(&data).unwrap();
    let queries = vec![
        BatchQuery::KnMatch {
            query: vec![0.5; 3],
            k: 0,
            n: 1,
        },
        BatchQuery::KnMatch {
            query: vec![0.5; 2],
            k: 1,
            n: 1,
        },
        BatchQuery::Frequent {
            query: vec![0.5; 3],
            k: 1,
            n0: 2,
            n1: 1,
        },
        BatchQuery::EpsMatch {
            query: vec![0.5; 3],
            eps: -0.25,
            n: 1,
        },
        BatchQuery::KnMatch {
            query: vec![0.5; 3],
            k: 3,
            n: 2,
        },
    ];
    let want = sequential(&cols, &queries);
    for workers in worker_grid() {
        let got = served(&data, workers).run(&queries);
        assert_eq!(got, want);
    }
    assert!(matches!(want[0], Err(KnMatchError::InvalidK { .. })));
    assert!(matches!(
        want[3],
        Err(KnMatchError::InvalidEpsilon { eps: -0.25 })
    ));
    assert!(want[4].is_ok());

    // NaN thresholds also surface as InvalidEpsilon (they are not
    // comparable by eq, hence checked by pattern).
    let nan = served(&data, 2).run(&[BatchQuery::EpsMatch {
        query: vec![0.5; 3],
        eps: f64::NAN,
        n: 1,
    }]);
    assert!(matches!(nan[0], Err(KnMatchError::InvalidEpsilon { eps }) if eps.is_nan()));
}
