//! The VA-file as a first-class serving backend.
//!
//! [`va_engine`] is the in-memory promotion of this crate's two-phase
//! algorithm to a per-query backend the planner routes to: the
//! per-dimension equi-width quantisation of [`VaFile`](crate::VaFile)
//! (256 cells, one byte per attribute), but with the approximation filter
//! rewritten on the core band-count kernels ([`knmatch_core::kernels`])
//! over dim-major cell columns instead of the per-point float-bound sort
//! of the disk path, and interleaved with the refine in blocks of points
//! so it prunes at the running k-th difference. The candidates are
//! refined exactly through the shared canonical `(diff, pid)` collectors,
//! so answers are bit-identical to the sequential oracle on every exact
//! query kind — a pure function of the data, independent of which worker
//! runs it, batch order, and quantisation. This crate decides only the boundary vector;
//! the filter is the core [`BandEngine`].

use std::sync::Arc;

use knmatch_core::{equi_width_boundaries, BandEngine, Dataset};

/// Cells per dimension: the full range of one approximation byte.
pub const VA_CELLS: usize = 256;

/// Builds the in-memory VA-file backend (see the module docs): the byte
/// approximations of `data` over [`VA_CELLS`] equi-width cells per
/// dimension.
pub fn va_engine(data: Arc<Dataset>) -> BandEngine {
    let boundaries = equi_width_boundaries(&data, VA_CELLS);
    BandEngine::from_boundaries(data, boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::{
        frequent_k_n_match_scan, k_n_match_scan, run_batch, AdStats, BatchAnswer, BatchQuery,
        FilterScratch, MatchEntry, Result,
    };

    /// `batch` through `e` on `workers` threads — the planner's batch
    /// loop, one scratch per worker.
    fn run(
        e: &BandEngine,
        batch: &[BatchQuery],
        workers: usize,
    ) -> Vec<Result<(BatchAnswer, AdStats)>> {
        run_batch(
            workers,
            batch.len(),
            FilterScratch::new,
            |scratch, i| e.execute(&batch[i], scratch),
            drop,
        )
    }

    fn pseudo_dataset(c: usize, d: usize, seed: u64) -> Dataset {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<Vec<f64>> = (0..c).map(|_| (0..d).map(|_| next()).collect()).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn matches_oracle_bitwise_across_workers() {
        let ds = pseudo_dataset(600, 7, 77);
        let q: Vec<f64> = (0..7).map(|j| 0.05 + 0.13 * j as f64).collect();
        let batch = vec![
            BatchQuery::KnMatch {
                query: q.clone(),
                k: 9,
                n: 2,
            },
            BatchQuery::Frequent {
                query: q.clone(),
                k: 6,
                n0: 1,
                n1: 7,
            },
            BatchQuery::EpsMatch {
                query: q.clone(),
                eps: 0.04,
                n: 3,
            },
        ];
        let e = va_engine(Arc::new(ds.clone()));
        let mut answers: Vec<Vec<BatchAnswer>> = Vec::new();
        for workers in [1usize, 4] {
            answers.push(
                run(&e, &batch, workers)
                    .into_iter()
                    .map(|r| r.unwrap().0)
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(answers[0], answers[1], "answers depend on worker count");
        let want_kn = k_n_match_scan(&ds, &q, 9, 2).unwrap();
        assert_eq!(answers[0][0], BatchAnswer::KnMatch(want_kn));
        let want_f = frequent_k_n_match_scan(&ds, &q, 6, 1, 7).unwrap();
        assert_eq!(answers[0][1], BatchAnswer::Frequent(want_f));
    }

    #[test]
    fn quantised_ties_resolve_canonically() {
        // Every coordinate sits on a 0.25 grid, so n-match differences
        // collide en masse; the answer is only well-defined under the
        // canonical (diff, pid) tie-break — which the engine must apply
        // identically to the oracle.
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                (0..6)
                    .map(|j| ((i * 11 + j * 5) % 5) as f64 * 0.25)
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let e = va_engine(Arc::new(ds.clone()));
        let q = vec![0.25; 6];
        for (k, n) in [(1usize, 1usize), (13, 3), (25, 6)] {
            let batch = [BatchQuery::KnMatch {
                query: q.clone(),
                k,
                n,
            }];
            let got = run(&e, &batch, 3).pop().unwrap().unwrap().0;
            let want = k_n_match_scan(&ds, &q, k, n).unwrap();
            assert_eq!(got, BatchAnswer::KnMatch(want), "k={k} n={n}");
        }
        let batch = [BatchQuery::EpsMatch {
            query: q.clone(),
            eps: 0.25,
            n: 4,
        }];
        let got = run(&e, &batch, 3).pop().unwrap().unwrap().0;
        let BatchAnswer::EpsMatch(res) = got else {
            panic!("wrong variant")
        };
        // ε-matches are canonical: ascending (diff, pid), exactly the
        // points whose 4th-smallest difference is within 0.25.
        let mut prev: Option<&MatchEntry> = None;
        for e in &res.entries {
            assert!(e.diff <= 0.25);
            if let Some(p) = prev {
                assert!((p.diff, p.pid) < (e.diff, e.pid), "not canonical");
            }
            prev = Some(e);
        }
    }

    #[test]
    fn prunes_on_selective_queries() {
        let ds = pseudo_dataset(3000, 8, 3);
        let e = va_engine(Arc::new(ds.clone()));
        let q = ds.point(42).to_vec();
        let (_, stats) = e
            .execute(
                &BatchQuery::KnMatch {
                    query: q,
                    k: 3,
                    n: 8,
                },
                &mut FilterScratch::new(),
            )
            .unwrap();
        assert!(
            stats.attributes_retrieved < 3000 * 8 / 2,
            "expected the filter to prune most of the refine work: {stats:?}"
        );
    }
}
