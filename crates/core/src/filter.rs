//! In-memory filter-and-refine backends over the kernel loops.
//!
//! Two per-query backends live here, both answering the exact query kinds
//! bit-identically to the sequential oracle. Each runs one query on the
//! calling thread against a caller's [`FilterScratch`]; batching,
//! deadlines, fail-fast and panic isolation are the planner's batch loop
//! (`PlannedEngine` in `knmatch-server`), which routes a query to one of
//! them or to AD:
//!
//! - [`ScanEngine`] — the naive full scan as a serving backend: every
//!   point's differences through the [`crate::kernels::abs_diffs`]
//!   kernel, selection of the n-th smallest, canonical top-k. This is the
//!   paper's "scan" competitor promoted from a benchmark loop to a
//!   first-class backend (it wins near `n1 = d`, Figure 12).
//! - [`BandEngine`] — the rewritten two-phase approximation filter. Each
//!   dimension is quantised against caller-supplied cell boundaries
//!   (equi-width for the VA-file in `knmatch-vafile`); phase one counts,
//!   per point, the dimensions whose cell intersects the query band
//!   `[q_j − τ, q_j + τ]` with the branchless
//!   [`crate::kernels::accumulate_band_hits`] byte kernel; phase two
//!   refines the survivors exactly. Because a point's
//!   per-dimension lower bound is within `τ` **iff** its cell intersects
//!   the band, "at least `n` band hits" is exactly "n-th smallest lower
//!   bound ≤ τ" — the classic VA-file filter condition — so the candidate
//!   set is a superset of the true answers at any quantisation and the
//!   refined answers are a pure function of the data.
//!
//! The pruning threshold `τ` is derived by refining a small evenly-spaced
//! sample exactly ([`sample_thresholds`]): the k-th smallest sampled
//! n-match difference (under the canonical `(diff, pid)` order) is a valid
//! upper bound of the true k-th smallest, which is all the filter needs.
//!
//! Both backends share one exact refine loop per query kind, and each
//! **counts before it selects**: after a point's differences are taken,
//! [`count_within`] the current threshold — the running k-th n-match
//! difference, `ε`, or each frequent level's k-th — decides whether the
//! point can rank at all, and only the few that can pay for the selection
//! or sort and the top-k offer. The n-th smallest difference is within a
//! threshold iff at least n differences are, a skipped point ranks strictly
//! after the k-th under `(diff, pid)` (a tie with the threshold is kept, so
//! the pid tie-break still decides), and the answers and the work
//! accounting (`refined` = points differenced) are those of the loop that
//! selects on every point.

use std::sync::Arc;

use crate::ad::AdStats;
use crate::engine::{BatchAnswer, BatchQuery};
use crate::error::Result;
use crate::kernels::{abs_diffs, accumulate_band_hits, count_within, nth_smallest, sort_canonical};
use crate::point::{Dataset, PointId};
use crate::result::{FrequentResult, KnMatchResult, MatchEntry};
use crate::scratch::QueryControl;
use crate::topk::TopK;

/// Points sampled (evenly spaced by pid) to derive the pruning threshold —
/// the same budget the disk planner uses.
pub const FILTER_SAMPLE: usize = 64;

/// Consecutive pids per run of [`BandEngine::estimate_candidate_fraction`]'s
/// sample: 16 one-byte cells are one cache line of a dimension's column.
const PROBE_RUN: usize = 16;

/// The sampled order statistic [`sample_thresholds`] extrapolates `ε_q`
/// from when `k/c` is finer than the sample resolves.
const TAIL_RANK: usize = 4;

/// Reusable per-worker working memory for the filter backends.
#[derive(Debug, Default)]
pub struct FilterScratch {
    counts: Vec<u16>,
    diffs: Vec<f64>,
    /// Deadline/cancellation the next query must honour (the batch loop
    /// arms it per batch, like [`Scratch`](crate::Scratch)).
    pub control: QueryControl,
}

impl FilterScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        FilterScratch::default()
    }
}

/// The two answer-threshold estimates one evenly-spaced sample yields
/// ([`sample_thresholds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledThresholds {
    /// `ε̂` — the canonical k-th smallest sampled n-match difference: an
    /// upper bound of the true k-th smallest whenever the sample holds at
    /// least `k` points, `+∞` (no pruning) otherwise. The band filter's
    /// `τ`, because its correctness needs a bound.
    pub bound: f64,
    /// `ε_q` — the `k/c`-quantile of the sampled n-match differences: an
    /// *estimate* of the true k-th smallest (the disk planner's), never
    /// above `bound`. Where `k/c` is finer than the sample resolves, one of
    /// the sample's smallest values is scaled down the lower tail
    /// `F(x) ∝ xⁿ` rather than clamped to (the disk planner clamps: on the
    /// `planner_crossover` grid that overstated AD's work 2–20× at n ≤ 4,
    /// where this reads 0.99–1.25× of it at n ≥ 2). At `k = 10` of
    /// `c = 50 000` the answer lives at the 0.02 % quantile while `ε̂` sits
    /// near the 16th percentile of the sample, so pricing AD's frontier at
    /// `ε̂` would overstate it by orders of magnitude.
    pub quantile: f64,
}

/// `ε̂` and `ε_q` ([`SampledThresholds`]) of a k-n-match query, from one
/// pass over an evenly-spaced sample of at most [`FILTER_SAMPLE`] points.
///
/// Deterministic: the sample pids depend only on the cardinality, and the
/// order statistics are taken under the canonical `(diff, pid)` order. An
/// empty dataset yields `+∞` for both (nothing to sample, nothing to prune).
pub fn sample_thresholds(ds: &Dataset, query: &[f64], k: usize, n: usize) -> SampledThresholds {
    let c = ds.len();
    let sample_n = FILTER_SAMPLE.min(c);
    if sample_n == 0 {
        return SampledThresholds {
            bound: f64::INFINITY,
            quantile: f64::INFINITY,
        };
    }
    let step = (c / sample_n).max(1);
    // ε_q's rank in the sorted sample (the disk planner's rule). It is
    // below k whenever the sample holds k points, so one collector of the
    // smallest few holds every order statistic used below.
    let rank = k as f64 / c as f64 * sample_n as f64;
    let q_idx = (rank.ceil() as usize).clamp(1, sample_n) - 1;
    let tail = TAIL_RANK.min(sample_n);
    let has_bound = sample_n >= k;
    let mut top = TopK::new(tail.max(if has_bound { k } else { q_idx + 1 }));
    let mut buf = vec![0.0f64; ds.dims()];
    let mut kept_bound = f64::INFINITY;
    for i in 0..sample_n {
        let pid = ((i * step) % c) as PointId;
        abs_diffs(&mut buf, ds.point(pid), query);
        if count_within(&buf, kept_bound) >= n {
            top.offer(pid, nth_smallest(&mut buf, n));
            kept_bound = top.threshold().unwrap_or(f64::INFINITY);
        }
    }
    let kept = top.into_sorted();
    // Below the sample's resolution the k/c-quantile lies under its
    // smallest few values. The n-match difference's lower tail is
    // F(x) ∝ xⁿ — n of the d per-dimension differences must each fall
    // within x — so scale the tail-th smallest down by (rank/tail)^(1/n).
    // Not the smallest itself: a query drawn near one sampled point (a
    // duplicate, or the row it was perturbed from) would collapse it.
    let quantile = if rank >= tail as f64 {
        kept[q_idx].1
    } else {
        kept[tail - 1].1 * (rank / tail as f64).powf(1.0 / n as f64)
    };
    let bound = if has_bound {
        kept[k - 1].1
    } else {
        f64::INFINITY
    };
    SampledThresholds {
        bound,
        quantile: quantile.min(bound),
    }
}

/// Exact k-n-match over an explicit candidate id list (ascending pids),
/// canonical top-k. The shared phase-two loop of both backends.
fn knmatch_over<I: Iterator<Item = PointId>>(
    ds: &Dataset,
    query: &[f64],
    k: usize,
    n: usize,
    pids: I,
    diffs: &mut Vec<f64>,
    control: &QueryControl,
) -> Result<(KnMatchResult, usize)> {
    diffs.resize(ds.dims(), 0.0);
    let mut top = TopK::new(k);
    // The current k-th n-match difference, +∞ until k are held.
    let mut bound = f64::INFINITY;
    let mut refined = 0usize;
    let mut tick = 0u32;
    for pid in pids {
        control.check(&mut tick)?;
        abs_diffs(diffs, ds.point(pid), query);
        refined += 1;
        if count_within(diffs, bound) >= n {
            top.offer(pid, nth_smallest(diffs, n));
            bound = top.threshold().unwrap_or(f64::INFINITY);
        }
    }
    Ok((top.into_result(n), refined))
}

/// Whether a point with differences `diffs` can enter the answer set of
/// some level `n ∈ [n0, n0 + bounds.len())`, where `bounds[n − n0]` is
/// level n's current k-th difference.
///
/// The bounds are nondecreasing in n (every level has been offered the
/// same points, and each point's n-match difference is nondecreasing in
/// n), so when level n admits only `w < n` differences, every level in
/// `(w, n)` admits at most `w` too and fails: the search jumps straight to
/// level `w`. A far point is usually rejected after one or two counts.
fn enters_some_level(diffs: &[f64], bounds: &[f64], n0: usize) -> bool {
    let mut n = n0 + bounds.len() - 1;
    loop {
        let within = count_within(diffs, bounds[n - n0]);
        if within >= n {
            return true;
        }
        if within < n0 {
            return false;
        }
        n = within;
    }
}

/// Exact frequent k-n-match over a candidate id list that is a superset of
/// every per-n answer set: per-n canonical top-k collectors, fed one
/// sorted-difference pass per point that can enter at least one of them,
/// then the standard frequency ranking — the same aggregation as the
/// naive oracle, so the answers are identical whenever the candidate list
/// covers the true answers.
#[allow(clippy::too_many_arguments)]
fn frequent_over<I: Iterator<Item = PointId>>(
    ds: &Dataset,
    query: &[f64],
    k: usize,
    n0: usize,
    n1: usize,
    pids: I,
    diffs: &mut Vec<f64>,
    control: &QueryControl,
) -> Result<(FrequentResult, usize)> {
    diffs.resize(ds.dims(), 0.0);
    let mut tops: Vec<TopK> = (n0..=n1).map(|_| TopK::new(k)).collect();
    let mut bounds = vec![f64::INFINITY; tops.len()];
    let mut refined = 0usize;
    let mut tick = 0u32;
    for pid in pids {
        control.check(&mut tick)?;
        abs_diffs(diffs, ds.point(pid), query);
        refined += 1;
        if !enters_some_level(diffs, &bounds, n0) {
            continue;
        }
        diffs.sort_unstable_by(f64::total_cmp);
        for (i, (top, bound)) in tops.iter_mut().zip(&mut bounds).enumerate() {
            top.offer(pid, diffs[n0 + i - 1]);
            *bound = top.threshold().unwrap_or(f64::INFINITY);
        }
    }
    let per_n: Vec<KnMatchResult> = tops
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.into_result(n0 + i))
        .collect();
    Ok((FrequentResult::from_levels((n0, n1), per_n, k), refined))
}

/// Exact ε-n-match over a candidate id list covering every true answer:
/// keep candidates whose n-th smallest difference is within `eps`, in the
/// canonical `(diff, pid)` order.
fn eps_over<I: Iterator<Item = PointId>>(
    ds: &Dataset,
    query: &[f64],
    eps: f64,
    n: usize,
    pids: I,
    diffs: &mut Vec<f64>,
    control: &QueryControl,
) -> Result<(KnMatchResult, usize)> {
    diffs.resize(ds.dims(), 0.0);
    let mut entries = Vec::new();
    let mut refined = 0usize;
    let mut tick = 0u32;
    for pid in pids {
        control.check(&mut tick)?;
        abs_diffs(diffs, ds.point(pid), query);
        refined += 1;
        if count_within(diffs, eps) >= n {
            entries.push(MatchEntry {
                pid,
                diff: nth_smallest(diffs, n),
            });
        }
    }
    sort_canonical(&mut entries);
    Ok((KnMatchResult { n, entries }, refined))
}

/// Stats attributed to a refine pass that touched `refined` points of a
/// `d`-dimensional dataset, after sampling `sampled` points for the
/// threshold: `attributes_retrieved` counts the refined attributes (the
/// paper's cost measure for phase two), `locate_probes` the sampled
/// points. The scan backend reports `refined = c`, `sampled = 0`.
fn refine_stats(refined: usize, d: usize, sampled: usize) -> AdStats {
    AdStats {
        attributes_retrieved: (refined as u64) * (d as u64),
        locate_probes: sampled as u64,
        heap_pops: 0,
    }
}

/// The naive full scan as a per-query backend: kernel differences,
/// O(d) selection, canonical top-k. Bit-identical to the sequential scan
/// oracle (and therefore to the AD algorithm) on every query kind.
#[derive(Debug, Clone)]
pub struct ScanEngine {
    data: Arc<Dataset>,
}

impl ScanEngine {
    /// A scan over `data`.
    pub fn new(data: Arc<Dataset>) -> Self {
        ScanEngine { data }
    }

    /// Executes one query on the calling thread against caller scratch.
    ///
    /// # Errors
    ///
    /// Per-query parameter validation, deadline, cancellation.
    pub fn execute(
        &self,
        query: &BatchQuery,
        scratch: &mut FilterScratch,
    ) -> Result<(BatchAnswer, AdStats)> {
        let ds = &*self.data;
        let (d, c) = (ds.dims(), ds.len());
        query.validate(d, c)?;
        scratch.control.precheck()?;
        let control = scratch.control.clone();
        let answer = match query {
            BatchQuery::KnMatch { query, k, n } => {
                let (r, _) = knmatch_over(
                    ds,
                    query,
                    *k,
                    *n,
                    0..c as PointId,
                    &mut scratch.diffs,
                    &control,
                )?;
                BatchAnswer::KnMatch(r)
            }
            BatchQuery::Frequent { query, k, n0, n1 } => {
                let (r, _) = frequent_over(
                    ds,
                    query,
                    *k,
                    *n0,
                    *n1,
                    0..c as PointId,
                    &mut scratch.diffs,
                    &control,
                )?;
                BatchAnswer::Frequent(r)
            }
            BatchQuery::EpsMatch { query, eps, n } => {
                let (r, _) = eps_over(
                    ds,
                    query,
                    *eps,
                    *n,
                    0..c as PointId,
                    &mut scratch.diffs,
                    &control,
                )?;
                BatchAnswer::EpsMatch(r)
            }
        };
        Ok((answer, refine_stats(c, d, 0)))
    }
}

/// A quantised filter-and-refine per-query backend over caller-supplied
/// per-dimension cell boundaries (see the module docs). `knmatch-vafile`
/// builds it with equi-width cells (the VA-file); the filter is exact for
/// any ascending marks that cover the data, repeated ones included.
#[derive(Debug, Clone)]
pub struct BandEngine {
    data: Arc<Dataset>,
    /// `boundaries[dim]` holds `cells_j + 1` ascending marks spanning that
    /// dimension's observed value range.
    boundaries: Vec<Vec<f64>>,
    /// Dim-major quantised cell indices: `cells[dim * len + pid]`.
    cells: Vec<u8>,
}

impl BandEngine {
    /// Quantises `data` against `boundaries` (one ascending mark vector of
    /// `cells_j + 1 ≤ 257` entries per dimension, spanning at least the
    /// observed value range of that dimension).
    ///
    /// # Panics
    ///
    /// Panics when a dimension has fewer than 2 marks, more than 257, or
    /// marks that fail to cover its observed values (the cover is what
    /// makes the filter's lower bounds sound).
    pub fn from_boundaries(data: Arc<Dataset>, boundaries: Vec<Vec<f64>>) -> Self {
        let (d, c) = (data.dims(), data.len());
        assert_eq!(boundaries.len(), d, "one boundary vector per dimension");
        let mut cells = vec![0u8; d * c];
        for (j, marks) in boundaries.iter().enumerate() {
            assert!(
                (2..=257).contains(&marks.len()),
                "dimension {j}: need 2..=257 marks, got {}",
                marks.len()
            );
            let ncells = marks.len() - 1;
            let col = &mut cells[j * c..(j + 1) * c];
            for (pid, slot) in col.iter_mut().enumerate() {
                let v = data.coord(pid as PointId, j);
                assert!(
                    v >= marks[0] && v <= marks[ncells],
                    "dimension {j}: value {v} outside boundary range"
                );
                // First mark above v, minus one; the final mark maps into
                // the last cell so each cell interval contains its values.
                let cell = marks.partition_point(|&m| m <= v).min(ncells) - 1;
                *slot = cell as u8;
            }
        }
        BandEngine {
            data,
            boundaries,
            cells,
        }
    }

    /// The inclusive cell band of `dim` intersecting the value interval
    /// `[lo, hi]`, or `None` when no cell does. A cell intersects exactly
    /// when the per-dimension difference lower bound it implies is ≤ the
    /// interval half-width, so the filter prunes nothing it should keep.
    fn band(&self, dim: usize, lo: f64, hi: f64) -> Option<(u8, u8)> {
        let marks = &self.boundaries[dim];
        let ncells = marks.len() - 1;
        // First cell whose upper mark reaches lo.
        let first = marks[1..].partition_point(|&m| m < lo);
        // Last cell whose lower mark does not pass hi.
        let last = marks[..ncells].partition_point(|&m| m <= hi);
        if first >= last {
            return None;
        }
        Some((first as u8, (last - 1) as u8))
    }

    /// Phase one: counts, per point, the dimensions whose cell intersects
    /// `[q_j − tau, q_j + tau]`, into `counts` (reset here).
    fn filter_counts(&self, query: &[f64], tau: f64, counts: &mut Vec<u16>) {
        let c = self.data.len();
        counts.clear();
        counts.resize(c, 0);
        for (j, &qv) in query.iter().enumerate() {
            if let Some((lo, hi)) = self.band(j, qv - tau, qv + tau) {
                accumulate_band_hits(counts, &self.cells[j * c..(j + 1) * c], lo, hi);
            }
        }
    }

    /// Estimates the fraction of points phase one would keep for a filter
    /// at threshold `tau` requiring `min_hits` band hits, by running the
    /// filter over about `sample` points: evenly spaced runs of 16
    /// consecutive pids. Used by the request-time planner to
    /// price the refine phase without paying for a full filter pass.
    ///
    /// A run's cells share a cache line in every dimension's column, so
    /// the probe reads `d · sample / 16` lines through the
    /// vectorised band kernel instead of `d · sample` scattered bytes.
    pub fn estimate_candidate_fraction(
        &self,
        query: &[f64],
        tau: f64,
        min_hits: usize,
        sample: usize,
    ) -> f64 {
        let c = self.data.len();
        let sample_n = sample.clamp(1, c);
        let runs = (sample_n / PROBE_RUN).max(1);
        // run_len ≤ stride, so the runs are disjoint and in bounds.
        let (run_len, stride) = (sample_n / runs, c / runs);
        let mut counts = vec![0u16; runs * run_len];
        for (j, &qv) in query.iter().enumerate() {
            let Some((lo, hi)) = self.band(j, qv - tau, qv + tau) else {
                continue;
            };
            let col = &self.cells[j * c..(j + 1) * c];
            for (r, hits) in counts.chunks_exact_mut(run_len).enumerate() {
                let start = r * stride;
                accumulate_band_hits(hits, &col[start..start + run_len], lo, hi);
            }
        }
        let min16 = min_hits.min(u16::MAX as usize) as u16;
        let kept = counts.iter().filter(|&&h| h >= min16).count();
        kept as f64 / counts.len() as f64
    }

    /// Executes one query on the calling thread against caller scratch:
    /// sample-derived threshold, kernel band filter, exact refine.
    ///
    /// # Errors
    ///
    /// Per-query parameter validation, deadline, cancellation.
    pub fn execute(
        &self,
        query: &BatchQuery,
        scratch: &mut FilterScratch,
    ) -> Result<(BatchAnswer, AdStats)> {
        let ds = &*self.data;
        let (d, c) = (ds.dims(), ds.len());
        query.validate(d, c)?;
        scratch.control.precheck()?;
        let control = scratch.control.clone();
        // Threshold and hit floor per kind: k-n-match prunes at the n-level
        // bound, frequent at the loosest level of its range (τ is
        // nondecreasing in n, so τ(n1) covers every per-n answer set), and
        // ε-n-match prunes at ε itself.
        let (q, tau, min_hits, sampled) = match query {
            BatchQuery::KnMatch { query, k, n } => (
                query,
                sample_thresholds(ds, query, *k, *n).bound,
                *n,
                FILTER_SAMPLE.min(c),
            ),
            BatchQuery::Frequent { query, k, n1, n0 } => (
                query,
                sample_thresholds(ds, query, *k, *n1).bound,
                *n0,
                FILTER_SAMPLE.min(c),
            ),
            BatchQuery::EpsMatch { query, eps, n } => (query, *eps, *n, 0),
        };
        self.filter_counts(q, tau, &mut scratch.counts);
        let min16 = min_hits.min(u16::MAX as usize) as u16;
        let counts = std::mem::take(&mut scratch.counts);
        let cands = counts
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h >= min16)
            .map(|(pid, _)| pid as PointId);
        let (answer, refined) = match query {
            BatchQuery::KnMatch { query, k, n } => {
                let (r, refined) =
                    knmatch_over(ds, query, *k, *n, cands, &mut scratch.diffs, &control)?;
                (BatchAnswer::KnMatch(r), refined)
            }
            BatchQuery::Frequent { query, k, n0, n1 } => {
                let (r, refined) =
                    frequent_over(ds, query, *k, *n0, *n1, cands, &mut scratch.diffs, &control)?;
                (BatchAnswer::Frequent(r), refined)
            }
            BatchQuery::EpsMatch { query, eps, n } => {
                let (r, refined) =
                    eps_over(ds, query, *eps, *n, cands, &mut scratch.diffs, &control)?;
                (BatchAnswer::EpsMatch(r), refined)
            }
        };
        scratch.counts = counts;
        Ok((answer, refine_stats(refined, d, sampled)))
    }
}

/// Equi-width cell boundaries over the observed per-dimension ranges —
/// the VA-file quantisation (`cells` cells per dimension). Degenerate
/// (constant) dimensions get a unit-width cell so quantisation never
/// divides by zero.
pub fn equi_width_boundaries(ds: &Dataset, cells: usize) -> Vec<Vec<f64>> {
    assert!(
        (1..=256).contains(&cells),
        "cells per dimension must be 1..=256"
    );
    let d = ds.dims();
    let mut mins = vec![f64::INFINITY; d];
    let mut maxs = vec![f64::NEG_INFINITY; d];
    for (_, p) in ds.iter() {
        for (j, &v) in p.iter().enumerate() {
            mins[j] = mins[j].min(v);
            maxs[j] = maxs[j].max(v);
        }
    }
    (0..d)
        .map(|j| {
            let lo = mins[j];
            let hi = if maxs[j] > mins[j] {
                maxs[j]
            } else {
                mins[j] + 1.0
            };
            let mut marks: Vec<f64> = (0..=cells)
                .map(|c| lo + (hi - lo) * c as f64 / cells as f64)
                .collect();
            // Guard against rounding pulling the last mark below the max.
            marks[cells] = marks[cells].max(maxs[j]);
            marks
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BatchQuery;
    use crate::naive::{frequent_k_n_match_scan, k_n_match_scan};

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

    fn band_engine(ds: &Dataset) -> BandEngine {
        let boundaries = equi_width_boundaries(ds, 64);
        BandEngine::from_boundaries(Arc::new(ds.clone()), boundaries)
    }

    /// Each query of `batch` through `execute`, one scratch reused.
    fn run_each(
        execute: impl Fn(&BatchQuery, &mut FilterScratch) -> Result<(BatchAnswer, AdStats)>,
        batch: &[BatchQuery],
    ) -> Vec<(BatchAnswer, AdStats)> {
        let mut scratch = FilterScratch::new();
        batch
            .iter()
            .map(|q| execute(q, &mut scratch).unwrap())
            .collect()
    }

    fn mixed_batch(d: usize) -> Vec<BatchQuery> {
        let q: Vec<f64> = (0..d).map(|j| 0.1 + 0.8 * j as f64 / d as f64).collect();
        vec![
            BatchQuery::KnMatch {
                query: q.clone(),
                k: 7,
                n: 1,
            },
            BatchQuery::KnMatch {
                query: q.clone(),
                k: 3,
                n: d,
            },
            BatchQuery::Frequent {
                query: q.clone(),
                k: 5,
                n0: 1,
                n1: d,
            },
            BatchQuery::EpsMatch {
                query: q,
                eps: 0.05,
                n: (d / 2).max(1),
            },
        ]
    }

    fn oracle(ds: &Dataset, query: &BatchQuery) -> BatchAnswer {
        match query {
            BatchQuery::KnMatch { query, k, n } => {
                BatchAnswer::KnMatch(k_n_match_scan(ds, query, *k, *n).unwrap())
            }
            BatchQuery::Frequent { query, k, n0, n1 } => {
                BatchAnswer::Frequent(frequent_k_n_match_scan(ds, query, *k, *n0, *n1).unwrap())
            }
            BatchQuery::EpsMatch { query, eps, n } => {
                let mut entries = Vec::new();
                let mut buf = Vec::new();
                for (pid, p) in ds.iter() {
                    let diff = crate::nmatch::nmatch_difference_with_buf(p, query, *n, &mut buf);
                    if diff <= *eps {
                        entries.push(MatchEntry { pid, diff });
                    }
                }
                sort_canonical(&mut entries);
                BatchAnswer::EpsMatch(KnMatchResult { n: *n, entries })
            }
        }
    }

    #[test]
    fn scan_engine_matches_oracle_bitwise() {
        let ds = pseudo_dataset(400, 6, 11);
        let batch = mixed_batch(6);
        let e = ScanEngine::new(Arc::new(ds.clone()));
        for (q, (answer, stats)) in batch.iter().zip(run_each(|q, s| e.execute(q, s), &batch)) {
            assert_eq!(answer, oracle(&ds, q));
            assert_eq!(stats.attributes_retrieved, 400 * 6);
        }
    }

    #[test]
    fn band_engine_matches_oracle_bitwise() {
        let ds = pseudo_dataset(500, 8, 23);
        let batch = mixed_batch(8);
        let e = band_engine(&ds);
        for (q, (answer, _)) in batch.iter().zip(run_each(|q, s| e.execute(q, s), &batch)) {
            assert_eq!(answer, oracle(&ds, q));
        }
    }

    #[test]
    fn band_engine_handles_adversarial_ties() {
        // Heavily quantised values: nearly every difference collides, so
        // only the canonical (diff, pid) tie-break yields a unique answer.
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                (0..5)
                    .map(|j| ((i * 7 + j * 13) % 4) as f64 * 0.25)
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let e = band_engine(&ds);
        let s = ScanEngine::new(Arc::new(ds.clone()));
        let batch = vec![
            BatchQuery::KnMatch {
                query: vec![0.2; 5],
                k: 11,
                n: 3,
            },
            BatchQuery::Frequent {
                query: vec![0.5; 5],
                k: 9,
                n0: 2,
                n1: 5,
            },
            BatchQuery::EpsMatch {
                query: vec![0.25; 5],
                eps: 0.25,
                n: 2,
            },
        ];
        let band = run_each(|q, sc| e.execute(q, sc), &batch);
        let scan = run_each(|q, sc| s.execute(q, sc), &batch);
        for ((q, band), scan) in batch.iter().zip(band).zip(scan) {
            let want = oracle(&ds, q);
            assert_eq!(band.0, want);
            assert_eq!(scan.0, want);
        }
    }

    #[test]
    fn duplicate_heavy_dimensions_stay_exact() {
        // 90% of the mass in one value per dimension, cut into equi-depth
        // cells: the marks collapse onto that value, leaving repeated
        // edges and zero-width cells the filter must handle. A constant
        // fifth dimension gives the VA-file's equi-width cells the
        // degenerate range too.
        let (c, d) = (200usize, 5usize);
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|i| {
                (0..d)
                    .map(|j| match j {
                        4 => 2.5,
                        _ if (i + j) % 10 < 9 => 1.0,
                        _ => i as f64,
                    })
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let equi_depth: Vec<Vec<f64>> = (0..d)
            .map(|j| {
                let mut col: Vec<f64> = rows.iter().map(|r| r[j]).collect();
                col.sort_unstable_by(f64::total_cmp);
                (0..=8).map(|b| col[b * (c - 1) / 8]).collect()
            })
            .collect();
        assert!(equi_depth[0].windows(2).any(|w| w[0] == w[1]));
        let engines = [
            BandEngine::from_boundaries(Arc::new(ds.clone()), equi_depth),
            band_engine(&ds),
        ];
        let q = vec![1.0, 5.0, 50.0, 150.0, 2.5];
        let batch: Vec<BatchQuery> = (1..=d)
            .map(|n| BatchQuery::KnMatch {
                query: q.clone(),
                k: 10,
                n,
            })
            .collect();
        for e in &engines {
            for (q, (answer, _)) in batch.iter().zip(run_each(|q, s| e.execute(q, s), &batch)) {
                assert_eq!(answer, oracle(&ds, q), "{q:?}");
            }
        }
    }

    #[test]
    fn band_filter_prunes_on_selective_queries() {
        let ds = pseudo_dataset(2000, 8, 5);
        let e = band_engine(&ds);
        let q = ds.point(123).to_vec();
        let mut scratch = FilterScratch::new();
        let (_, stats) = e
            .execute(
                &BatchQuery::KnMatch {
                    query: q,
                    k: 5,
                    n: 8,
                },
                &mut scratch,
            )
            .unwrap();
        assert!(
            stats.attributes_retrieved < 2000 * 8 / 2,
            "full-dimension self-query should prune most points: {stats:?}"
        );
    }

    #[test]
    fn candidate_fraction_estimate_is_a_fraction() {
        let ds = pseudo_dataset(1000, 4, 9);
        let e = band_engine(&ds);
        let q = vec![0.5; 4];
        let f = e.estimate_candidate_fraction(&q, 0.01, 4, 128);
        assert!((0.0..=1.0).contains(&f));
        let g = e.estimate_candidate_fraction(&q, 10.0, 1, 128);
        assert_eq!(g, 1.0, "an unbounded band keeps everything");
    }

    #[test]
    fn engines_validate_like_ad() {
        let ds = pseudo_dataset(50, 3, 2);
        let bad = BatchQuery::KnMatch {
            query: vec![0.0; 2],
            k: 1,
            n: 1,
        };
        let mut scratch = FilterScratch::new();
        assert!(ScanEngine::new(Arc::new(ds.clone()))
            .execute(&bad, &mut scratch)
            .is_err());
        assert!(band_engine(&ds).execute(&bad, &mut scratch).is_err());
    }

    #[test]
    fn sample_threshold_bounds_the_true_threshold() {
        let ds = pseudo_dataset(800, 6, 31);
        let q = vec![0.3; 6];
        for (k, n) in [(1usize, 1usize), (10, 3), (25, 6)] {
            let est = sample_thresholds(&ds, &q, k, n);
            let exact = k_n_match_scan(&ds, &q, k, n).unwrap();
            assert!(
                exact.epsilon() <= est.bound,
                "sampled bound below true threshold: k={k} n={n}"
            );
            assert!(est.quantile <= est.bound, "k={k} n={n}: {est:?}");
        }
        // Past the sample size there is no bound, but still a quantile:
        // the ⌈k/c · 64⌉-th smallest sampled difference.
        let est = sample_thresholds(&ds, &q, 100, 3);
        assert_eq!(est.bound, f64::INFINITY);
        let mut sampled: Vec<f64> = (0..FILTER_SAMPLE)
            .map(|i| {
                let p = ds.point((i * (800 / FILTER_SAMPLE)) as PointId);
                crate::nmatch::nmatch_difference_with_buf(p, &q, 3, &mut Vec::new())
            })
            .collect();
        sampled.sort_unstable_by(f64::total_cmp);
        assert_eq!(est.quantile, sampled[8 - 1]);
        // Finer than the sample resolves (k/c · 64 = 0.08 of a rank): the
        // 4th smallest sampled difference, scaled down the xⁿ tail.
        let est = sample_thresholds(&ds, &q, 1, 3);
        let rank = 1.0 / 800.0 * 64.0f64;
        assert_eq!(est.quantile, sampled[3] * (rank / 4.0).powf(1.0 / 3.0));
    }

    #[test]
    fn sample_thresholds_of_an_empty_dataset_prune_nothing() {
        let ds = Dataset::new(3).unwrap();
        let est = sample_thresholds(&ds, &[0.5; 3], 5, 2);
        assert_eq!(est.bound, f64::INFINITY);
        assert_eq!(est.quantile, f64::INFINITY);
    }
}
