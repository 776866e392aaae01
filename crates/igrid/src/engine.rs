//! The IGrid partitioning as a first-class *exact* serving backend.
//!
//! [`IGridIndex`](crate::IGridIndex) answers approximate
//! proximity-weighted queries; [`igrid_engine`] reuses the same equi-depth
//! per-dimension partitioning ([`EquiDepthPartition`]) but as a
//! quantisation for the core band-count filter ([`BandEngine`]), so it
//! serves the exact query kinds through the `BatchEngine` surface with answers
//! bit-identical to the sequential oracle. Against the VA-file's
//! equi-width cells, equi-depth ranges adapt to skewed value
//! distributions (each cell prunes a similar number of points); the
//! request-time planner never picks it on its own — it exists as an
//! explicit `--planner igrid` override for experiments.

use std::sync::Arc;

use knmatch_core::{BandEngine, Dataset};

use crate::partition::EquiDepthPartition;

/// Most ranges per dimension the byte-cell filter can hold.
pub const MAX_BINS: usize = 256;

/// Builds the equi-depth filter-and-refine batch backend (see the module
/// docs): `bins` ranges per dimension (clamped to `2..=256`;
/// [`default_bins`](crate::default_bins) is the IGrid default `kd = d/2`)
/// and `workers` batch workers (clamped to ≥ 1).
pub fn igrid_engine(data: Arc<Dataset>, bins: usize, workers: usize) -> BandEngine {
    let part = EquiDepthPartition::fit(&data, bins.clamp(2, MAX_BINS));
    let boundaries = (0..data.dims()).map(|j| part.edges(j).to_vec()).collect();
    BandEngine::from_boundaries(data, boundaries, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::{
        frequent_k_n_match_scan, k_n_match_scan, BatchAnswer, BatchEngine, BatchQuery,
    };

    fn skewed_dataset(c: usize, d: usize, seed: u64) -> Dataset {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        // Squaring skews mass toward zero — the case equi-depth cells are
        // built for.
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|_| (0..d).map(|_| next() * next()).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn matches_oracle_on_skewed_data() {
        let ds = skewed_dataset(500, 8, 19);
        let q: Vec<f64> = (0..8).map(|j| 0.02 + 0.04 * j as f64).collect();
        for workers in [1usize, 3] {
            let e = igrid_engine(Arc::new(ds.clone()), 16, workers);
            let batch = vec![
                BatchQuery::KnMatch {
                    query: q.clone(),
                    k: 8,
                    n: 3,
                },
                BatchQuery::Frequent {
                    query: q.clone(),
                    k: 5,
                    n0: 2,
                    n1: 6,
                },
            ];
            let got: Vec<BatchAnswer> = e.run(&batch).into_iter().map(|r| r.unwrap().0).collect();
            assert_eq!(
                got[0],
                BatchAnswer::KnMatch(k_n_match_scan(&ds, &q, 8, 3).unwrap()),
                "workers={workers}"
            );
            assert_eq!(
                got[1],
                BatchAnswer::Frequent(frequent_k_n_match_scan(&ds, &q, 5, 2, 6).unwrap()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn duplicate_heavy_dimensions_stay_exact() {
        // 90% of the mass in one value per dimension — equi-depth marks
        // collapse, leaving zero-width ranges the filter must handle.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                (0..4)
                    .map(|j| if (i + j) % 10 < 9 { 1.0 } else { i as f64 })
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let e = igrid_engine(Arc::new(ds.clone()), 8, 2);
        let q = vec![1.0, 5.0, 50.0, 150.0];
        for n in 1..=4usize {
            let got = e
                .run(&[BatchQuery::KnMatch {
                    query: q.clone(),
                    k: 10,
                    n,
                }])
                .pop()
                .unwrap()
                .unwrap()
                .0;
            assert_eq!(
                got,
                BatchAnswer::KnMatch(k_n_match_scan(&ds, &q, 10, n).unwrap()),
                "n={n}"
            );
        }
    }

    #[test]
    fn default_bins_follow_dimensionality() {
        let ds = skewed_dataset(100, 12, 7);
        let e = igrid_engine(Arc::new(ds), crate::default_bins(12), 1);
        assert!((0..12).all(|dim| e.cells(dim) == 6));
    }
}
