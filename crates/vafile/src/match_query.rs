//! The VA-file adaptation for (frequent) k-n-match queries — the paper's
//! Section 4.2 competitor.
//!
//! Phase one scans the approximation file once (sequential pages),
//! computing for each point a **lower and upper bound of its n-match
//! difference**: since every per-dimension lower bound underestimates the
//! true difference, the n-th smallest lower bound underestimates the n-th
//! smallest true difference (and dually for upper bounds). The k-th
//! smallest upper bound τ_n then prunes every point whose lower bound
//! exceeds it. Phase two fetches the surviving candidates from the heap
//! file (random page accesses — the cost the paper blames for this method
//! losing to a plain scan in Figure 10) and resolves them exactly.

use knmatch_core::ad::validate_params;
use knmatch_core::topk::TopK;
use knmatch_core::{FrequentResult, KnMatchResult, PointId, Result};
use knmatch_storage::{BufferPool, HeapFile, IoStats, PageStore};

use crate::approx::VaFile;

/// Outcome of a VA-file query: the answer plus phase statistics.
#[derive(Debug, Clone)]
pub struct VaOutcome<R> {
    /// The query answer (identical to the exact algorithms').
    pub result: R,
    /// Points that survived phase one and were fetched in phase two
    /// (Figure 10(a)'s y-axis).
    pub refined: usize,
    /// Page-level I/O of both phases.
    pub io: IoStats,
}

/// Answers a frequent k-n-match query with the two-phase VA-file algorithm.
///
/// Pool statistics are reset on entry, so [`VaOutcome::io`] covers exactly
/// this query.
///
/// # Errors
///
/// Validates parameters like the core algorithms.
pub fn frequent_k_n_match_va<S: PageStore>(
    va: &VaFile,
    heap: &HeapFile,
    pool: &mut BufferPool<S>,
    query: &[f64],
    k: usize,
    n0: usize,
    n1: usize,
) -> Result<VaOutcome<FrequentResult>> {
    let d = va.dims();
    let c = va.len();
    validate_params(query, d, c, k, n0, n1)?;
    pool.reset_stats();

    let n_count = n1 - n0 + 1;
    // Phase 1: one sequential scan of the approximations. Per point, keep
    // the lower bounds of its n-match differences for each queried n, and
    // feed the upper bounds into per-n TopK collectors to obtain τ_n.
    let mut lower_bounds: Vec<f64> = Vec::with_capacity(c * n_count);
    let mut upper_topk: Vec<TopK> = (0..n_count).map(|_| TopK::new(k)).collect();
    let mut lbuf = vec![0.0f64; d];
    let mut ubuf = vec![0.0f64; d];
    va.for_each_approx(pool, |pid, cells| {
        for (j, &cell) in cells.iter().enumerate() {
            let (lb, ub) = va.diff_bounds(j, cell, query[j]);
            lbuf[j] = lb;
            ubuf[j] = ub;
        }
        lbuf.sort_unstable_by(f64::total_cmp);
        ubuf.sort_unstable_by(f64::total_cmp);
        for (i, top) in upper_topk.iter_mut().enumerate() {
            lower_bounds.push(lbuf[n0 + i - 1]);
            top.offer(pid, ubuf[n0 + i - 1]);
        }
    });
    let taus: Vec<f64> = upper_topk
        .into_iter()
        .map(|t| t.threshold().expect("k ≤ c guarantees k candidates"))
        .collect();

    // Candidate selection: a point survives when its lower bound does not
    // exceed τ_n for at least one queried n.
    let mut candidates: Vec<PointId> = Vec::new();
    for pid in 0..c {
        let lbs = &lower_bounds[pid * n_count..(pid + 1) * n_count];
        if lbs.iter().zip(&taus).any(|(lb, tau)| lb <= tau) {
            candidates.push(pid as PointId);
        }
    }

    // Phase 2: fetch candidates (ascending pid keeps the access pattern as
    // friendly as the method allows; the paper still observes these to be
    // random accesses) and resolve exactly.
    let mut tops: Vec<TopK> = (0..n_count).map(|_| TopK::new(k)).collect();
    let mut row = vec![0.0f64; d];
    let mut diffs = vec![0.0f64; d];
    for &pid in &candidates {
        heap.point(pool, pid, &mut row);
        for (j, (&a, &b)) in row.iter().zip(query).enumerate() {
            diffs[j] = (a - b).abs();
        }
        diffs.sort_unstable_by(f64::total_cmp);
        for (i, top) in tops.iter_mut().enumerate() {
            top.offer(pid, diffs[n0 + i - 1]);
        }
    }

    let per_n: Vec<KnMatchResult> = tops
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.into_result(n0 + i))
        .collect();
    Ok(VaOutcome {
        result: FrequentResult::from_levels((n0, n1), per_n, k),
        refined: candidates.len(),
        io: pool.stats(),
    })
}

/// Answers a k-n-match query with the two-phase VA-file algorithm.
///
/// # Errors
///
/// Validates parameters like the core algorithms.
pub fn k_n_match_va<S: PageStore>(
    va: &VaFile,
    heap: &HeapFile,
    pool: &mut BufferPool<S>,
    query: &[f64],
    k: usize,
    n: usize,
) -> Result<VaOutcome<KnMatchResult>> {
    let out = frequent_k_n_match_va(va, heap, pool, query, k, n, n)?;
    Ok(VaOutcome {
        result: out.result.per_n.into_iter().next().expect("single n"),
        refined: out.refined,
        io: out.io,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::Dataset;
    use knmatch_storage::MemStore;

    fn build(ds: &Dataset, bits: u8) -> (VaFile, HeapFile, BufferPool<MemStore>) {
        let mut store = MemStore::new();
        let heap = HeapFile::build(&mut store, ds);
        let va = VaFile::build(&mut store, ds, bits);
        (va, heap, BufferPool::new(store, 64))
    }

    #[test]
    fn exact_answers_on_paper_example() {
        let ds = knmatch_core::paper::fig3_dataset();
        let (va, heap, mut pool) = build(&ds, 8);
        let q = [3.0, 7.0, 4.0];
        let out = k_n_match_va(&va, &heap, &mut pool, &q, 2, 2).unwrap();
        assert_eq!(out.result.ids(), vec![2, 1]);
        assert_eq!(out.result.epsilon(), 1.5);
    }

    #[test]
    fn agrees_with_scan_on_random_data() {
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<Vec<f64>> = (0..300).map(|_| (0..6).map(|_| next()).collect()).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let (va, heap, mut pool) = build(&ds, 6);
        let q: Vec<f64> = (0..6).map(|_| next()).collect();
        for n in [1usize, 3, 6] {
            let va_out = k_n_match_va(&va, &heap, &mut pool, &q, 10, n).unwrap();
            let exact = knmatch_core::k_n_match_scan(&ds, &q, 10, n).unwrap();
            assert_eq!(va_out.result.ids(), exact.ids(), "n={n}");
        }
        let va_f = frequent_k_n_match_va(&va, &heap, &mut pool, &q, 10, 2, 5).unwrap();
        let exact_f = knmatch_core::frequent_k_n_match_scan(&ds, &q, 10, 2, 5).unwrap();
        assert_eq!(va_f.result.ids(), exact_f.ids());
    }

    #[test]
    fn coarse_bits_refine_more_points() {
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![(i as f64 * 0.618) % 1.0, (i as f64 * 0.382) % 1.0])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let q = [0.4, 0.6];
        let (va8, heap8, mut pool8) = build(&ds, 8);
        let fine = k_n_match_va(&va8, &heap8, &mut pool8, &q, 5, 1).unwrap();
        let (va2, heap2, mut pool2) = build(&ds, 2);
        let coarse = k_n_match_va(&va2, &heap2, &mut pool2, &q, 5, 1).unwrap();
        assert_eq!(fine.result.ids(), coarse.result.ids());
        assert!(
            fine.refined <= coarse.refined,
            "finer quantisation must not refine more points ({} vs {})",
            fine.refined,
            coarse.refined
        );
        assert!(fine.refined >= 5, "at least k candidates survive");
    }

    #[test]
    fn refinement_counts_bound_candidates() {
        let ds = knmatch_core::paper::fig1_dataset();
        let (va, heap, mut pool) = build(&ds, 8);
        let q = knmatch_core::paper::fig1_query();
        let out = frequent_k_n_match_va(&va, &heap, &mut pool, &q, 2, 1, 10).unwrap();
        assert!(out.refined >= 2 && out.refined <= 4);
        let exact = knmatch_core::frequent_k_n_match_scan(&ds, &q, 2, 1, 10).unwrap();
        assert_eq!(out.result.ids(), exact.ids());
    }

    #[test]
    fn io_covers_both_phases() {
        let ds = knmatch_core::paper::fig3_dataset();
        let (va, heap, mut pool) = build(&ds, 8);
        let out = k_n_match_va(&va, &heap, &mut pool, &[3.0, 7.0, 4.0], 1, 1).unwrap();
        // At least the VA pages were read, plus one heap page per refined
        // point at worst.
        assert!(out.io.page_accesses() as usize >= va.total_pages());
        assert!(out.refined >= 1);
    }

    #[test]
    fn validates_parameters() {
        let ds = knmatch_core::paper::fig3_dataset();
        let (va, heap, mut pool) = build(&ds, 8);
        assert!(k_n_match_va(&va, &heap, &mut pool, &[0.0], 1, 1).is_err());
        assert!(k_n_match_va(&va, &heap, &mut pool, &[0.0, 0.0, 0.0], 0, 1).is_err());
        assert!(k_n_match_va(&va, &heap, &mut pool, &[0.0, 0.0, 0.0], 1, 4).is_err());
    }
}
