//! The AD (Ascending Difference) algorithm — Section 3 of the paper.
//!
//! The data is organised as `d` sorted lists (one per dimension). For a
//! query `Q`, the algorithm locates `q_i` in each list by binary search and
//! then retrieves individual attributes **in ascending order of their
//! difference to the corresponding query attribute**, merging the `2d`
//! directional cursors through a frontier (the paper's `g[]` array, kept
//! here as a tournament tree over the cursors; the paper-literal linear
//! array is the test oracle [`frequent_k_n_match_ad_linear`]).
//! When a point id has been seen `n` times, it is the next k-n-match answer
//! (Theorem 3.1); the algorithm stops once `k` ids have been seen `n` times
//! (`n1` times for the frequent variant) and is **optimal in the number of
//! attributes retrieved** (Theorems 3.2 / 3.3).

use crate::error::{KnMatchError, Result};
use crate::frontier::SortedLists;
use crate::point::{validate_finite, PointId};
use crate::result::{FrequentResult, KnMatchResult, MatchEntry};
use crate::scratch::Scratch;
use crate::source::SortedAccessSource;

/// Cost counters for one AD run, in the paper's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdStats {
    /// Individual attributes retrieved by sorted access (the paper's cost
    /// measure; Theorem 3.2 proves AD minimises this).
    pub attributes_retrieved: u64,
    /// Binary-search probes issued to seed the cursors (one per sorted
    /// list: `d` over plain columns, `S · d` over an `S`-run snapshot).
    pub locate_probes: u64,
    /// Triples popped from `g[]`. Popped ≤ retrieved: up to two retrieved
    /// attributes per sorted list may still sit in `g[]` at termination.
    pub heap_pops: u64,
}

impl AdStats {
    /// Retrieved attributes as a fraction of the `c · d` total — the y-axis
    /// of the paper's Figures 9(a) and 15(b).
    pub fn retrieved_fraction(&self, cardinality: usize, dims: usize) -> f64 {
        let total = (cardinality as u64).saturating_mul(dims as u64);
        if total == 0 {
            0.0
        } else {
            self.attributes_retrieved as f64 / total as f64
        }
    }
}

/// Answers a k-n-match query (Definition 3) with algorithm `KNMatchAD`.
///
/// Returns the answer set together with the run's [`AdStats`].
///
/// # Errors
///
/// Validates the query shape and parameters; see [`KnMatchError`].
///
/// # Examples
///
/// ```
/// use knmatch_core::{k_n_match_ad, SortedColumns};
///
/// // The paper's Figure 3 database and its 2-2-match example:
/// let mut cols = SortedColumns::from_rows(&[
///     vec![0.4, 1.0, 1.0],
///     vec![2.8, 5.5, 2.0],
///     vec![6.5, 7.8, 5.0],
///     vec![9.0, 9.0, 9.0],
///     vec![3.5, 1.5, 8.0],
/// ]).unwrap();
/// let (res, _stats) = k_n_match_ad(&mut cols, &[3.0, 7.0, 4.0], 2, 2).unwrap();
/// // Paper ids {2, 3} are our zero-based {1, 2}; ascending diff order
/// // lists point 2 (diff 1.0) before point 1 (diff 1.5 = ε).
/// assert_eq!(res.ids(), vec![2, 1]);
/// assert_eq!(res.epsilon(), 1.5);
/// ```
pub fn k_n_match_ad<S: SortedAccessSource>(
    src: &mut S,
    query: &[f64],
    k: usize,
    n: usize,
) -> Result<(KnMatchResult, AdStats)> {
    k_n_match_ad_with(src, query, k, n, &mut Scratch::new())
}

/// [`k_n_match_ad`] with caller-provided working memory (see [`Scratch`]):
/// identical answers and stats, but no per-query O(c) allocation.
///
/// # Errors
///
/// Validates the query shape and parameters; see [`KnMatchError`].
pub fn k_n_match_ad_with<S: SortedAccessSource>(
    src: &mut S,
    query: &[f64],
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) -> Result<(KnMatchResult, AdStats)> {
    let (mut freq, stats) = frequent_k_n_match_ad_with(src, query, k, n, n, scratch)?;
    Ok((
        freq.per_n
            .pop()
            .expect("single-n run yields one answer set"),
        stats,
    ))
}

/// Answers a frequent k-n-match query (Definition 4) with algorithm
/// `FKNMatchAD`.
///
/// Runs the ascending-difference scan until `k` points have appeared `n1`
/// times; by then the k-n-match answer sets for every `n ∈ [n0, n1]` have
/// been produced as a side effect (Theorem 3.3: no more attributes are
/// retrieved than a plain k-n1-match needs). Frequencies are counted over
/// the k-sized per-n answer sets, per Definition 4.
///
/// # Errors
///
/// Validates the query shape and parameters; see [`KnMatchError`].
pub fn frequent_k_n_match_ad<S: SortedAccessSource>(
    src: &mut S,
    query: &[f64],
    k: usize,
    n0: usize,
    n1: usize,
) -> Result<(FrequentResult, AdStats)> {
    frequent_k_n_match_ad_with(src, query, k, n0, n1, &mut Scratch::new())
}

/// [`frequent_k_n_match_ad`] with caller-provided working memory (see
/// [`Scratch`]): identical answers and stats, but no per-query O(c)
/// allocation or memset for the appearance/frequency counters.
///
/// # Errors
///
/// Validates the query shape and parameters; see [`KnMatchError`].
pub fn frequent_k_n_match_ad_with<S: SortedAccessSource>(
    src: &mut S,
    query: &[f64],
    k: usize,
    n0: usize,
    n1: usize,
    scratch: &mut Scratch,
) -> Result<(FrequentResult, AdStats)> {
    frequent_lists(src, query, k, n0, n1, scratch)
}

/// [`frequent_k_n_match_ad_with`] over any [`SortedLists`] — plain
/// columns or the run list of a versioned snapshot: the FKNMatchAD loop
/// against borrowed working memory. Every public entry point and every
/// batch engine funnels here, so the sequential, scratch-reusing,
/// parallel and run-list paths are the same code and produce
/// bit-identical answers and [`AdStats`].
///
/// The walk is one frontier over *all* the lists of `src` and its stop
/// condition is global: `k` **live** points seen `n1` times. A point is
/// resolved ([`SortedLists::resolve`]) only when it completes a level in
/// `[n0, n1]`; a dead one is skipped and never counts as an answer, so
/// Theorem 3.2's argument holds per live point and no list is walked past
/// the global ε.
///
/// Tie-breaking is **canonical**: when several points share the boundary
/// difference ε of an answer set, the set keeps the ones with the smallest
/// (diff, pid) keys — a pure function of the data, independent of cursor
/// interleaving and of how the points are split over parts. This costs a
/// short extra drain of boundary-tied pops (zero when the boundary
/// difference is unique).
pub(crate) fn frequent_lists<L: SortedLists>(
    src: &mut L,
    query: &[f64],
    k: usize,
    n0: usize,
    n1: usize,
    scratch: &mut Scratch,
) -> Result<(FrequentResult, AdStats)> {
    let Scratch {
        marks,
        walker,
        control,
    } = scratch;
    validate_params(query, src.dims(), src.live(), k, n0, n1)?;
    control.precheck()?;

    marks.begin(src.slots());
    walker.reseed(src, query);
    // S_{n0} … S_{n1}, filled in order of appearance (= ascending n-match
    // difference, Theorem 3.1). Once S_n holds k entries, a later one can
    // still rank only by tying its k-th, so the rest are never kept and
    // each set ends with k entries plus the boundary ties.
    let mut sets: Vec<Vec<MatchEntry>> = (n0..=n1).map(|_| Vec::with_capacity(k)).collect();
    let mut visit = |src: &L, sets: &mut [Vec<MatchEntry>], (slot, diff): (PointId, f64)| {
        let a = marks.bump_appear(slot) as usize;
        if a >= n0 && a <= n1 {
            let set = &mut sets[a - n0];
            if set.len() < k || diff <= set[k - 1].diff {
                if let Some(pid) = src.resolve(slot) {
                    set.push(MatchEntry { pid, diff });
                }
            }
        }
    };

    let last_set = n1 - n0;
    let mut tick = 0u32;
    while sets[last_set].len() < k {
        control.check(&mut tick)?;
        let pop = walker.next_pop(src).expect(
            "g[] exhausted: every attribute read, so each of the ≥ k live points appeared d ≥ n1 times",
        );
        visit(src, &mut sets, pop);
    }

    // Canonical tie drain. The loop above stops the instant S_{n1} holds k
    // entries, which resolves ties at an answer-set boundary by pop order —
    // an order that depends on cursor interleaving, not on the data alone.
    // Keep popping while the next difference is still within ε_{n1} (=
    // `sets[last_set][k-1].diff`, the largest boundary: per-point n-match
    // differences are non-decreasing in n, so ε_{n0} ≤ … ≤ ε_{n1}). After
    // the drain every set holds *all* candidates with diff ≤ its own
    // boundary, and selecting each set's k smallest by the canonical
    // (diff, pid) key makes the answer a pure function of the data — which
    // is what makes an S-run snapshot bit-identical to one run over the
    // same points. On tie-free boundaries the drain pops nothing and the
    // result is unchanged.
    let bound = sets[last_set][k - 1].diff;
    while walker.peek_diff().is_some_and(|d| d <= bound) {
        let pop = walker.next_pop(src).expect("peeked non-empty frontier");
        visit(src, &mut sets, pop);
    }

    // Each S_n lists its candidates in ascending pop order; the k-n-match
    // answer set is its k smallest entries by (diff, pid).
    let mut per_n = Vec::with_capacity(sets.len());
    for (i, mut set) in sets.into_iter().enumerate() {
        set.sort_unstable_by(|a, b| a.diff.total_cmp(&b.diff).then(a.pid.cmp(&b.pid)));
        set.truncate(k);
        per_n.push(KnMatchResult {
            n: n0 + i,
            entries: set,
        });
    }
    Ok((
        FrequentResult::from_levels((n0, n1), per_n, k),
        walker.stats,
    ))
}

/// Answers an **ε-n-match query**: every point whose n-match difference is
/// at most `eps`, in ascending `(diff, pid)` order — the threshold
/// companion of the k-n-match query (the paper determines ε from k; this
/// API lets callers fix ε directly, e.g. "all objects matching the query
/// in ≥ n dimensions within 0.05").
///
/// Also returns the run's [`AdStats`]; the walk stops at the first popped
/// difference exceeding `eps`, so the cost is proportional to the answer.
///
/// # Errors
///
/// Validates like [`k_n_match_ad`] (with `k` implicitly free), plus
/// rejects a negative or non-finite `eps` via
/// [`KnMatchError::InvalidEpsilon`].
pub fn eps_n_match_ad<S: SortedAccessSource>(
    src: &mut S,
    query: &[f64],
    eps: f64,
    n: usize,
) -> Result<(KnMatchResult, AdStats)> {
    eps_n_match_ad_with(src, query, eps, n, &mut Scratch::new())
}

/// [`eps_n_match_ad`] with caller-provided working memory (see
/// [`Scratch`]): identical answers and stats, but no per-query O(c)
/// allocation.
///
/// # Errors
///
/// As for [`eps_n_match_ad`].
pub fn eps_n_match_ad_with<S: SortedAccessSource>(
    src: &mut S,
    query: &[f64],
    eps: f64,
    n: usize,
    scratch: &mut Scratch,
) -> Result<(KnMatchResult, AdStats)> {
    eps_lists(src, query, eps, n, scratch)
}

/// [`eps_n_match_ad_with`] over any [`SortedLists`]; like
/// `frequent_lists`, a point is resolved when it completes and a dead one
/// is skipped.
pub(crate) fn eps_lists<L: SortedLists>(
    src: &mut L,
    query: &[f64],
    eps: f64,
    n: usize,
    scratch: &mut Scratch,
) -> Result<(KnMatchResult, AdStats)> {
    validate_params(query, src.dims(), src.live(), 1, n, n)?;
    validate_eps(eps)?;
    let Scratch {
        marks,
        walker,
        control,
    } = scratch;
    control.precheck()?;
    marks.begin(src.slots());
    walker.reseed(src, query);
    let mut entries = Vec::new();
    let mut tick = 0u32;
    while let Some((slot, diff)) = walker.next_pop(src) {
        control.check(&mut tick)?;
        if diff > eps {
            break;
        }
        if marks.bump_appear(slot) as usize == n {
            if let Some(pid) = src.resolve(slot) {
                entries.push(MatchEntry { pid, diff });
            }
        }
    }
    let mut res = KnMatchResult { n, entries };
    res.normalise();
    Ok((res, walker.stats))
}

/// [`frequent_k_n_match_ad`] as the paper writes it (Figure 4): the `g[]`
/// array scanned for its minimum on every pop, plain appearance counters,
/// no scratch reuse. It shares no code with the served walk, so it is the
/// oracle that walk is held to: answers and [`AdStats`] must be identical.
/// O(d) per pop instead of O(log d).
///
/// # Errors
///
/// Validates the query shape and parameters; see [`KnMatchError`].
pub fn frequent_k_n_match_ad_linear<S: SortedAccessSource>(
    src: &mut S,
    query: &[f64],
    k: usize,
    n0: usize,
    n1: usize,
) -> Result<(FrequentResult, AdStats)> {
    let c = src.cardinality();
    validate_params(query, SortedAccessSource::dims(src), c, k, n0, n1)?;
    let mut g = PaperG::seed(src, query);
    let mut appear = vec![0usize; c];
    let mut sets: Vec<Vec<MatchEntry>> = vec![Vec::new(); n1 - n0 + 1];
    let mut visit = |sets: &mut [Vec<MatchEntry>], (pid, diff): (PointId, f64)| {
        appear[pid as usize] += 1;
        let a = appear[pid as usize];
        if (n0..=n1).contains(&a) {
            sets[a - n0].push(MatchEntry { pid, diff });
        }
    };
    while sets[n1 - n0].len() < k {
        let pop = g.pop(src).expect("k ≤ c points each appear d ≥ n1 times");
        visit(&mut sets, pop);
    }
    // The same canonical tie drain as the served walk: everything within
    // ε_{n1}, then each set's k smallest by (diff, pid).
    let bound = sets[n1 - n0][k - 1].diff;
    while g.peek_diff().is_some_and(|d| d <= bound) {
        let pop = g.pop(src).expect("peeked non-empty g[]");
        visit(&mut sets, pop);
    }
    let per_n = sets
        .into_iter()
        .zip(n0..)
        .map(|(mut entries, n)| {
            entries.sort_by(|a, b| a.diff.total_cmp(&b.diff).then(a.pid.cmp(&b.pid)));
            entries.truncate(k);
            KnMatchResult { n, entries }
        })
        .collect();
    Ok((FrequentResult::from_levels((n0, n1), per_n, k), g.stats))
}

/// The paper's `g[]`, literally: one `(pid, diff)` triple per directional
/// cursor (`2 · dim` walks down from the query, `2 · dim + 1` up) and
/// `smallest(g)` a linear scan that takes the first minimum, so ties go
/// to the smaller cursor id.
pub(crate) struct PaperG {
    query: Vec<f64>,
    g: Vec<Option<(PointId, f64)>>,
    /// The rank each cursor last read.
    rank: Vec<usize>,
    len: usize,
    stats: AdStats,
}

impl PaperG {
    /// Locates the query in every list and reads one attribute each way.
    pub(crate) fn seed<S: SortedAccessSource>(src: &mut S, query: &[f64]) -> Self {
        let d = query.len();
        let mut g = PaperG {
            query: query.to_vec(),
            g: vec![None; 2 * d],
            rank: vec![0; 2 * d],
            len: src.cardinality(),
            stats: AdStats::default(),
        };
        for (dim, &q) in query.iter().enumerate() {
            let pos = src.locate(dim, q);
            g.stats.locate_probes += 1;
            if pos > 0 {
                g.read(src, 2 * dim, pos - 1);
            }
            if pos < g.len {
                g.read(src, 2 * dim + 1, pos);
            }
        }
        g
    }

    fn read<S: SortedAccessSource>(&mut self, src: &mut S, cid: usize, rank: usize) {
        let dim = cid / 2;
        let e = src.entry(dim, rank);
        self.stats.attributes_retrieved += 1;
        self.rank[cid] = rank;
        self.g[cid] = Some((e.pid, (e.value - self.query[dim]).abs()));
    }

    fn smallest(&self) -> Option<usize> {
        let live = self.g.iter().enumerate();
        let live = live.filter_map(|(cid, t)| t.map(|(_, diff)| (cid, diff)));
        live.min_by(|a, b| a.1.total_cmp(&b.1)).map(|(cid, _)| cid)
    }

    /// The difference [`pop`](Self::pop) would return next.
    fn peek_diff(&self) -> Option<f64> {
        self.smallest()
            .and_then(|cid| self.g[cid])
            .map(|(_, diff)| diff)
    }

    /// Takes the smallest triple and refills its cursor.
    pub(crate) fn pop<S: SortedAccessSource>(&mut self, src: &mut S) -> Option<(PointId, f64)> {
        let cid = self.smallest()?;
        let triple = self.g[cid].take();
        self.stats.heap_pops += 1;
        let last = self.rank[cid];
        if cid % 2 == 0 && last > 0 {
            self.read(src, cid, last - 1);
        } else if cid % 2 == 1 && last + 1 < self.len {
            self.read(src, cid, last + 1);
        }
        triple
    }
}

/// Validates an ε-n-match threshold: finite and non-negative. Shared (like
/// [`validate_params`]) by every backend that answers ε-n-match, so the
/// error for a bad `eps` is identical everywhere.
///
/// # Errors
///
/// [`KnMatchError::InvalidEpsilon`] otherwise.
pub fn validate_eps(eps: f64) -> Result<()> {
    if !eps.is_finite() || eps < 0.0 {
        return Err(KnMatchError::InvalidEpsilon { eps });
    }
    Ok(())
}

/// Validates a (query, k, n-range) parameter set against a `d`-dimensional,
/// cardinality-`c` source. Shared by every query algorithm in this crate and
/// by the disk/VA-file/IGrid implementations in sibling crates.
///
/// # Errors
///
/// See [`KnMatchError`] for each condition.
pub fn validate_params(
    query: &[f64],
    d: usize,
    c: usize,
    k: usize,
    n0: usize,
    n1: usize,
) -> Result<()> {
    if c == 0 {
        return Err(KnMatchError::EmptyDataset);
    }
    if query.len() != d {
        return Err(KnMatchError::DimensionMismatch {
            expected: d,
            actual: query.len(),
        });
    }
    validate_finite(query)?;
    if k == 0 || k > c {
        return Err(KnMatchError::InvalidK { k, cardinality: c });
    }
    if n0 == 0 || n0 > n1 || n1 > d {
        return Err(KnMatchError::InvalidRange { n0, n1, dims: d });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::SortedColumns;

    /// The paper's Figure 3 database (ids shifted to 0-based).
    fn fig3() -> SortedColumns {
        SortedColumns::build(&crate::paper::fig3_dataset())
    }

    #[test]
    fn paper_running_example_2_2_match() {
        // Section 3.1's worked run: 2-2-match of (3.0, 7.0, 4.0) is
        // {point 2, point 3} (1-based) with ε = 1.5.
        let mut cols = fig3();
        let (res, stats) = k_n_match_ad(&mut cols, &[3.0, 7.0, 4.0], 2, 2).unwrap();
        // Ascending 2-match difference: point 3 (paper id; diff 1.0) then
        // point 2 (diff 1.5).
        assert_eq!(res.ids(), vec![2, 1]);
        assert_eq!(res.epsilon(), 1.5);
        // The worked example pops 5 triples before stopping.
        assert_eq!(stats.heap_pops, 5);
        // 6 seeds + one refill per pop, none exhausted.
        assert_eq!(stats.attributes_retrieved, 6 + 5);
        assert_eq!(stats.locate_probes, 3);
    }

    #[test]
    fn linear_frontier_variant_is_identical() {
        let mut cols = fig3();
        let q = [3.0, 7.0, 4.0];
        for (k, n0, n1) in [(2usize, 2usize, 2usize), (1, 1, 1), (3, 1, 3), (5, 2, 3)] {
            let (a, sa) = frequent_k_n_match_ad(&mut cols, &q, k, n0, n1).unwrap();
            let (b, sb) = frequent_k_n_match_ad_linear(&mut cols, &q, k, n0, n1).unwrap();
            assert_eq!(a, b, "k={k} [{n0},{n1}]");
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn paper_fig3_1_match_is_point_2() {
        // The FA counterexample: the correct 1-match of (3.0, 7.0, 4.0) is
        // point 2 (diff 0.2), not point 1.
        let mut cols = fig3();
        let (res, _) = k_n_match_ad(&mut cols, &[3.0, 7.0, 4.0], 1, 1).unwrap();
        assert_eq!(res.ids(), vec![1]); // paper's point 2
        assert!((res.epsilon() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn full_n_equals_d_matches_chebyshev_ranking() {
        // With n = d the n-match difference is the L∞ distance, so the
        // answer is the Chebyshev nearest neighbour.
        let ds = crate::paper::fig3_dataset();
        let mut cols = fig3();
        let q = [3.0, 7.0, 4.0];
        let (res, _) = k_n_match_ad(&mut cols, &q, 1, 3).unwrap();
        let cheb = |p: &[f64]| {
            p.iter()
                .zip(&q)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        let best = ds
            .iter()
            .min_by(|a, b| cheb(a.1).total_cmp(&cheb(b.1)))
            .map(|(pid, _)| pid)
            .unwrap();
        assert_eq!(res.ids(), vec![best]);
    }

    #[test]
    fn frequent_run_produces_all_per_n_sets() {
        let mut cols = fig3();
        let (freq, _) = frequent_k_n_match_ad(&mut cols, &[3.0, 7.0, 4.0], 2, 1, 3).unwrap();
        assert_eq!(freq.per_n.len(), 3);
        for (i, r) in freq.per_n.iter().enumerate() {
            assert_eq!(r.n, i + 1);
            assert_eq!(r.entries.len(), 2);
        }
        assert_eq!(freq.entries.len(), 2);
        // Point 2 (0-based 1) is in every answer set: 1-match (0.2),
        // 2-match (1.5), 3-match (2.0) → count 3.
        assert_eq!(freq.count_of(1), 3);
        assert_eq!(freq.ids()[0], 1);
    }

    #[test]
    fn boundary_ties_resolve_by_smallest_pid() {
        // Values 1.0 (pids 0, 1) and 3.0 (pid 2) with q = 2.0: every point
        // has 1-match difference exactly 1.0. The seeded down cursor meets
        // pid 1 before pid 0, so a pop-order answer to k = 1 would be
        // {1}; the canonical answer keeps the smallest (diff, pid) key.
        let mut cols = SortedColumns::from_rows(&[[1.0], [1.0], [3.0]]).unwrap();
        let (res, stats) = k_n_match_ad(&mut cols, &[2.0], 1, 1).unwrap();
        assert_eq!(res.ids(), vec![0]);
        // The drain reads the whole tie plateau: all three attributes.
        assert_eq!(stats.attributes_retrieved, 3);
        assert_eq!(stats.heap_pops, 3);
        let (res, _) = k_n_match_ad(&mut cols, &[2.0], 2, 1).unwrap();
        assert_eq!(res.ids(), vec![0, 1]);
        // A unique boundary still stops without draining anything: the
        // paper's worked example costs are asserted exactly in
        // `paper_running_example_2_2_match`.
    }

    #[test]
    fn eps_n_match_returns_all_within_threshold() {
        let mut cols = fig3();
        let q = [3.0, 7.0, 4.0];
        // 2-match differences: p1 2.6, p2 1.5, p3 1.0, p4 5.0, p5 3.5
        // (1-based). ε = 1.6 admits points 2 and 3.
        let (res, _) = eps_n_match_ad(&mut cols, &q, 1.6, 2).unwrap();
        assert_eq!(res.ids(), vec![2, 1]);
        // ε = 0.9 admits nothing.
        let (res, _) = eps_n_match_ad(&mut cols, &q, 0.9, 2).unwrap();
        assert!(res.entries.is_empty());
        // A huge ε admits everything, ranked.
        let (res, _) = eps_n_match_ad(&mut cols, &q, 100.0, 2).unwrap();
        assert_eq!(res.entries.len(), 5);
        let diffs = res.diffs();
        assert!(diffs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn eps_n_match_agrees_with_k_n_match_at_epsilon() {
        let mut cols = fig3();
        let q = [3.0, 7.0, 4.0];
        let (topk, _) = k_n_match_ad(&mut cols, &q, 3, 2).unwrap();
        let (by_eps, _) = eps_n_match_ad(&mut cols, &q, topk.epsilon(), 2).unwrap();
        assert_eq!(by_eps.ids(), topk.ids());
    }

    #[test]
    fn eps_validation() {
        let mut cols = fig3();
        assert_eq!(
            eps_n_match_ad(&mut cols, &[0.0; 3], -1.0, 1),
            Err(KnMatchError::InvalidEpsilon { eps: -1.0 })
        );
        assert!(matches!(
            eps_n_match_ad(&mut cols, &[0.0; 3], f64::NAN, 1),
            Err(KnMatchError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            eps_n_match_ad(&mut cols, &[0.0; 3], f64::INFINITY, 1),
            Err(KnMatchError::InvalidEpsilon { .. })
        ));
        // Parameter errors still report as such, not as epsilon problems.
        assert!(matches!(
            eps_n_match_ad(&mut cols, &[0.0; 3], 1.0, 4),
            Err(KnMatchError::InvalidRange { .. })
        ));
    }

    #[test]
    fn reused_scratch_is_identical_to_fresh_across_query_kinds() {
        let mut cols = fig3();
        let mut scratch = Scratch::new();
        let queries = [
            [3.0, 7.0, 4.0],
            [0.0, 0.0, 0.0],
            [9.0, 9.0, 9.0],
            [2.8, 5.5, 2.0],
        ];
        for q in &queries {
            let with = frequent_k_n_match_ad_with(&mut cols, q, 2, 1, 3, &mut scratch).unwrap();
            let fresh = frequent_k_n_match_ad(&mut cols, q, 2, 1, 3).unwrap();
            assert_eq!(with, fresh);
            let with = k_n_match_ad_with(&mut cols, q, 3, 2, &mut scratch).unwrap();
            let fresh = k_n_match_ad(&mut cols, q, 3, 2).unwrap();
            assert_eq!(with, fresh);
            let with = eps_n_match_ad_with(&mut cols, q, 2.0, 2, &mut scratch).unwrap();
            let fresh = eps_n_match_ad(&mut cols, q, 2.0, 2).unwrap();
            assert_eq!(with, fresh);
        }
        // A smaller source after a larger one must not see stale counters.
        let mut small = SortedColumns::from_rows(&[[1.0], [2.0]]).unwrap();
        let with = k_n_match_ad_with(&mut small, &[1.4], 1, 1, &mut scratch).unwrap();
        let fresh = k_n_match_ad(&mut small, &[1.4], 1, 1).unwrap();
        assert_eq!(with, fresh);
    }

    #[test]
    fn k_equals_cardinality_ranks_everything() {
        let mut cols = fig3();
        let (res, stats) = k_n_match_ad(&mut cols, &[3.0, 7.0, 4.0], 5, 2).unwrap();
        assert_eq!(res.entries.len(), 5);
        assert!(stats.attributes_retrieved <= 15);
        let diffs = res.diffs();
        assert!(diffs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn query_outside_data_range_works() {
        let mut cols = fig3();
        // All data below the query in every dimension: only down-cursors live.
        let (res, _) = k_n_match_ad(&mut cols, &[100.0, 100.0, 100.0], 1, 3).unwrap();
        assert_eq!(res.ids(), vec![3]); // (9,9,9) is the closest everywhere
                                        // And from below.
        let (res, _) = k_n_match_ad(&mut cols, &[-5.0, -5.0, -5.0], 1, 3).unwrap();
        assert_eq!(res.ids(), vec![0]);
    }

    #[test]
    fn validation_errors() {
        let mut cols = fig3();
        assert!(matches!(
            k_n_match_ad(&mut cols, &[1.0], 1, 1),
            Err(KnMatchError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            k_n_match_ad(&mut cols, &[1.0, 1.0, 1.0], 0, 1),
            Err(KnMatchError::InvalidK { .. })
        ));
        assert!(matches!(
            k_n_match_ad(&mut cols, &[1.0, 1.0, 1.0], 6, 1),
            Err(KnMatchError::InvalidK { .. })
        ));
        assert!(matches!(
            k_n_match_ad(&mut cols, &[1.0, 1.0, 1.0], 1, 0),
            Err(KnMatchError::InvalidRange { .. })
        ));
        assert!(matches!(
            k_n_match_ad(&mut cols, &[1.0, 1.0, 1.0], 1, 4),
            Err(KnMatchError::InvalidRange { .. })
        ));
        assert!(matches!(
            frequent_k_n_match_ad(&mut cols, &[1.0, 1.0, 1.0], 1, 3, 2),
            Err(KnMatchError::InvalidRange { .. })
        ));
        assert!(matches!(
            k_n_match_ad(&mut cols, &[1.0, f64::NAN, 1.0], 1, 1),
            Err(KnMatchError::NonFiniteValue { dim: 1 })
        ));
    }

    #[test]
    fn single_point_database() {
        let mut cols = SortedColumns::from_rows(&[[0.5, 0.5]]).unwrap();
        let (res, _) = k_n_match_ad(&mut cols, &[0.0, 1.0], 1, 2).unwrap();
        assert_eq!(res.ids(), vec![0]);
        assert!((res.epsilon() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_match_has_zero_epsilon() {
        let mut cols = fig3();
        let (res, _) = k_n_match_ad(&mut cols, &[2.8, 5.5, 2.0], 1, 3).unwrap();
        assert_eq!(res.ids(), vec![1]);
        assert_eq!(res.epsilon(), 0.0);
    }

    #[test]
    fn stats_fraction() {
        let s = AdStats {
            attributes_retrieved: 30,
            locate_probes: 3,
            heap_pops: 25,
        };
        assert!((s.retrieved_fraction(10, 10) - 0.3).abs() < 1e-12);
        assert_eq!(AdStats::default().retrieved_fraction(0, 0), 0.0);
    }
}
