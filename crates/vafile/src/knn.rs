//! Classic VA-file kNN (Weber et al., VLDB'98), included because the paper
//! positions the VA-file as *the* scalable high-dimensional kNN method
//! before adapting it to k-n-match. Uses Euclidean lower/upper bounds per
//! approximation cell and the same two-phase filter-and-refine structure.

use knmatch_core::ad::validate_params;
use knmatch_core::topk::TopK;
use knmatch_core::{Neighbour, PointId, Result};
use knmatch_storage::{HeapFile, ReadSession, SharedBufferPool, SharedPageStore};

use crate::approx::VaFile;
use crate::match_query::VaOutcome;

/// Answers a Euclidean kNN query with the two-phase VA-file algorithm.
/// `session` starts cold on entry, so [`VaOutcome::io`] covers exactly
/// this query.
///
/// # Errors
///
/// Validates parameters like the core algorithms;
/// [`KnMatchError::Storage`](knmatch_core::KnMatchError::Storage) when a
/// page read fails.
pub fn k_nearest_va<S: SharedPageStore>(
    va: &VaFile,
    heap: &HeapFile,
    pool: &SharedBufferPool<S>,
    session: &mut ReadSession,
    query: &[f64],
    k: usize,
) -> Result<VaOutcome<Vec<Neighbour>>> {
    let d = va.dims();
    let c = va.len();
    validate_params(query, d, c, k, 1, d)?;
    session.begin_query();

    // Phase 1: bound each point's squared Euclidean distance.
    let mut lower: Vec<f64> = Vec::with_capacity(c);
    let mut upper_top = TopK::new(k);
    va.for_each_approx(pool, session, |pid, cells| {
        let mut lb2 = 0.0f64;
        let mut ub2 = 0.0f64;
        for (j, &cell) in cells.iter().enumerate() {
            let (lb, ub) = va.diff_bounds(j, cell, query[j]);
            lb2 += lb * lb;
            ub2 += ub * ub;
        }
        lower.push(lb2);
        upper_top.offer(pid, ub2);
    })?;
    let tau2 = upper_top
        .threshold()
        .expect("k ≤ c guarantees k candidates");

    // Phase 2: refine survivors.
    let mut top = TopK::new(k);
    let mut row = vec![0.0f64; d];
    let mut refined = 0usize;
    for (pid, &lb2) in lower.iter().enumerate() {
        if lb2 > tau2 {
            continue;
        }
        refined += 1;
        heap.point(pool, session, pid as PointId, &mut row)?;
        let dist2: f64 = row.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
        top.offer(pid as PointId, dist2);
    }

    let result: Vec<Neighbour> = top
        .into_sorted()
        .into_iter()
        .map(|(pid, d2)| Neighbour {
            pid,
            dist: d2.sqrt(),
        })
        .collect();
    Ok(VaOutcome {
        result,
        refined,
        io: session.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::{k_nearest, Dataset, Euclidean};
    use knmatch_storage::MemStore;

    fn build(
        ds: &Dataset,
        bits: u8,
    ) -> (VaFile, HeapFile, SharedBufferPool<MemStore>, ReadSession) {
        let mut store = MemStore::new();
        let heap = HeapFile::build(&mut store, ds);
        let va = VaFile::build(&mut store, ds, bits);
        (
            va,
            heap,
            SharedBufferPool::new(store, 64),
            ReadSession::new(64),
        )
    }

    #[test]
    fn agrees_with_exact_knn() {
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                let x = (i as f64 * 0.7548776662) % 1.0;
                let y = (i as f64 * 0.5698402911) % 1.0;
                vec![x, y, (x + y) % 1.0]
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let (va, heap, pool, mut session) = build(&ds, 6);
        let q = [0.25, 0.5, 0.75];
        let out = k_nearest_va(&va, &heap, &pool, &mut session, &q, 7).unwrap();
        let exact = k_nearest(&ds, &q, 7, &Euclidean).unwrap();
        let got: Vec<u32> = out.result.iter().map(|n| n.pid).collect();
        let want: Vec<u32> = exact.iter().map(|n| n.pid).collect();
        assert_eq!(got, want);
        for (a, b) in out.result.iter().zip(&exact) {
            assert!((a.dist - b.dist).abs() < 1e-9);
        }
        assert!(out.refined >= 7 && out.refined <= ds.len());
    }

    #[test]
    fn prunes_most_points_with_fine_bits() {
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|i| vec![(i as f64 * 0.618) % 1.0, (i as f64 * 0.149) % 1.0])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let (va, heap, pool, mut session) = build(&ds, 8);
        let out = k_nearest_va(&va, &heap, &pool, &mut session, &[0.5, 0.5], 10).unwrap();
        assert!(
            out.refined < ds.len() / 4,
            "8-bit VA-file should prune aggressively for kNN: refined {}",
            out.refined
        );
    }

    #[test]
    fn validates() {
        let ds = knmatch_core::paper::fig3_dataset();
        let (va, heap, pool, mut session) = build(&ds, 8);
        assert!(k_nearest_va(&va, &heap, &pool, &mut session, &[0.0], 1).is_err());
        assert!(k_nearest_va(&va, &heap, &pool, &mut session, &[0.0, 0.0, 0.0], 99).is_err());
    }
}
