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
//! - [`BandEngine`] — the VA-file's approximation filter interleaved with
//!   the exact refine. Each dimension is quantised against caller-supplied
//!   cell boundaries (equi-width for the VA-file in `knmatch-vafile`). The
//!   pids are walked in blocks of [`FILTER_BLOCK`]: a block counts, per
//!   point, the dimensions whose cell intersects the query band
//!   `[q_j − τ, q_j + τ]` with the branchless
//!   [`crate::kernels::accumulate_band_hits`] kernel into byte counts
//!   (saturating at 255; the hit floor is clamped to 255 too, so past 255
//!   dimensions the test keeps a superset), and the points with enough
//!   hits are refined exactly before the next block is counted. The
//!   counts are read 16 points at a time: a run whose 16 counts all miss
//!   the floor costs one vector compare. Because a point's per-dimension
//!   lower bound is within `τ` **iff** its cell intersects the band, "at
//!   least `n` band hits" is exactly "n-th smallest lower bound ≤ τ" —
//!   the classic VA-file filter condition — so the candidates are a
//!   superset of the true answers at any quantisation and the refined
//!   answers are a pure function of the data.
//!
//! `τ` is the tighter of two upper bounds of the answer's threshold: the
//! k-th smallest n-match difference of a small evenly-spaced sample
//! ([`sample_thresholds`]), and
//! the refine's running k-th difference, which tightens block by block
//! (Weber, Schek & Blott's VA-file search prunes the same way). Neither
//! drops below the final k-th difference and a band hit is inclusive, so
//! every answer, ties included, is refined; a query refines at most the
//! points a two-phase filter at the sampled bound would keep. ε-n-match
//! runs through the same loop at its fixed `ε`.
//!
//! A frequent `[n0, n1]` query counts at level n1's `τ` with hit floor
//! n0, which alone keeps most points of a wide range. Each 16-point run
//! that passes that test then meets a **per-level test**: a point stays a
//! candidate only if, for some level `n`, its n-th smallest per-dimension
//! cell distance is within level n's own `τ_n` (the sampled and the
//! running k-th of that level, whichever is tighter). The distance of a
//! point's cell `a` from the query's cell `b` is counted in cells of the
//! narrowest width `w` of any dimension, minus one: `(|a − b| − 1)·w` is
//! a lower bound of the difference, so a point that fails every level
//! cannot enter any level's answer. The 16 points' distances are sorted
//! per lane by a byte sorting network ([`crate::kernels::sort_lanes`]).
//! The test stands down where it cannot help or cannot be cheap: one
//! level, repeated marks (`w = 0`), or more than [`NETWORK_MAX_DIMS`]
//! dimensions. It is AND-ed with the count test, so a query refines a
//! subset of what the count test alone keeps.
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
use crate::kernels::{
    abs_diffs, accumulate_band_hits, at_least_mask, count_within, nth_smallest, pack_lanes,
    sort_canonical, sort_lanes, sorting_network, RUN,
};
use crate::point::{Dataset, PointId};
use crate::result::{FrequentResult, KnMatchResult, MatchEntry};
use crate::scratch::QueryControl;
use crate::topk::TopK;

/// Points sampled (evenly spaced by pid) to derive the pruning threshold —
/// the same budget the disk planner uses.
pub const FILTER_SAMPLE: usize = 64;

/// Consecutive pids [`BandEngine`] filters before it refines them: the
/// running bound can tighten every block, and one block's byte hit counts
/// live on the stack.
pub const FILTER_BLOCK: usize = 256;

/// The most dimensions the frequent filter's per-level test sorts with its
/// byte network (see the module docs); past it the test stands down.
pub const NETWORK_MAX_DIMS: usize = 32;

/// The relative margin the per-level test's cell unit is shrunk by, so
/// that rounding in the marks' widths, in the bound's division by the unit
/// and in the refine's differences can never prune a point the exact
/// arithmetic would keep (any margin well above 2⁻⁵⁰ does).
const UNIT_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// The sampled order statistic [`sample_thresholds`] extrapolates `ε_q`
/// from when `k/c` is finer than the sample resolves.
const TAIL_RANK: usize = 4;

/// Reusable per-worker working memory for the filter backends.
#[derive(Debug, Default)]
pub struct FilterScratch {
    /// Each dimension's inclusive cell band at the current threshold.
    bands: Vec<(u8, u8)>,
    diffs: Vec<f64>,
    /// One block's candidates, in pid order.
    cands: Vec<PointId>,
    /// The per-level test's query cells, its per-level cell limits and
    /// one run's per-dimension cell distances.
    levels: LevelScratch,
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

/// Every level's answer-threshold estimates from one pass over an
/// evenly-spaced sample ([`sample_thresholds`]); level `n0 + i` at index
/// `i`, both nondecreasing in the level.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledThresholds {
    /// `ε̂_n` — the k-th smallest sampled n-match difference: an
    /// upper bound of the true k-th smallest whenever the sample holds at
    /// least `k` points, `+∞` (no pruning) otherwise. The band filter's
    /// `τ_n` until its running bound is tighter, because its correctness
    /// needs a bound.
    pub bounds: Vec<f64>,
    /// `ε_q` — the `k/c`-quantile of the sampled n-match differences: an
    /// *estimate* of the true k-th smallest (the disk planner's), never
    /// above the level's bound. Where `k/c` is finer than the sample
    /// resolves, one of the sample's smallest values is scaled down the
    /// lower tail `F(x) ∝ xⁿ` rather than clamped to (the disk planner
    /// clamps: on the `planner_crossover` grid that overstated AD's work
    /// 2–20× at n ≤ 4, where this reads 0.99–1.25× of it at n ≥ 2). At
    /// `k = 10` of `c = 50 000` the answer lives at the 0.02 % quantile
    /// while `ε̂` sits near the 16th percentile of the sample, so pricing
    /// AD's frontier at `ε̂` would overstate it by orders of magnitude.
    pub quantiles: Vec<f64>,
    /// Points the sample read (0 for ε-n-match, whose threshold is given).
    pub sampled: usize,
}

impl SampledThresholds {
    /// The thresholds of any query kind: [`sample_thresholds`] over its
    /// levels, and for ε-n-match its `ε` as both estimates, unsampled.
    pub fn of(ds: &Dataset, query: &BatchQuery) -> Self {
        match query {
            BatchQuery::KnMatch { query, k, n } => sample_thresholds(ds, query, *k, *n, *n),
            BatchQuery::Frequent { query, k, n0, n1 } => sample_thresholds(ds, query, *k, *n0, *n1),
            BatchQuery::EpsMatch { eps, .. } => SampledThresholds {
                bounds: vec![*eps],
                quantiles: vec![*eps],
                sampled: 0,
            },
        }
    }

    /// The loosest level's `ε̂`: it covers every level's answer set.
    pub fn bound(&self) -> f64 {
        self.bounds[self.bounds.len() - 1]
    }

    /// The loosest level's `ε_q`: what AD's frontier reaches.
    pub fn quantile(&self) -> f64 {
        self.quantiles[self.quantiles.len() - 1]
    }
}

/// `ε̂_n` and `ε_q` ([`SampledThresholds`]) of every level `n ∈ [n0, n1]`
/// of a query, from one pass over an evenly-spaced sample of at most
/// [`FILTER_SAMPLE`] points (`n0 = n1 = n` for a k-n-match query).
///
/// Deterministic: the sample pids depend only on the cardinality, and an
/// order statistic of values does not depend on how ties are broken. An
/// empty dataset yields `+∞` for both (nothing to sample, nothing to prune).
///
/// # Panics
///
/// Panics when `n0 > n1`.
pub fn sample_thresholds(
    ds: &Dataset,
    query: &[f64],
    k: usize,
    n0: usize,
    n1: usize,
) -> SampledThresholds {
    assert!(n0 <= n1, "level range [{n0}, {n1}] is empty");
    let levels = n1 - n0 + 1;
    let c = ds.len();
    let sample_n = FILTER_SAMPLE.min(c);
    if sample_n == 0 {
        return SampledThresholds {
            bounds: vec![f64::INFINITY; levels],
            quantiles: vec![f64::INFINITY; levels],
            sampled: 0,
        };
    }
    let step = (c / sample_n).max(1);
    // ε_q's rank in the sorted sample (the disk planner's rule). It is
    // below k whenever the sample holds k points, so the smallest `keep`
    // differences of each level hold every order statistic used below.
    let rank = k as f64 / c as f64 * sample_n as f64;
    let q_idx = (rank.ceil() as usize).clamp(1, sample_n) - 1;
    let tail = TAIL_RANK.min(sample_n);
    let keep = tail.max(if sample_n >= k { k } else { q_idx + 1 });
    // The kept points' n-match differences, `levels` per point. A point
    // with fewer than n0 differences within the loosest level's keep-th
    // smallest so far is not among any level's smallest `keep` (each
    // level's keep-th is at most the loosest one's), so it is skipped.
    let mut loosest = TopK::new(keep);
    let mut nth = Vec::with_capacity(levels * sample_n);
    let mut buf = vec![0.0f64; ds.dims()];
    for s in 0..sample_n {
        let pid = ((s * step) % c) as PointId;
        abs_diffs(&mut buf, ds.point(pid), query);
        if count_within(&buf, loosest.threshold().unwrap_or(f64::INFINITY)) < n0 {
            continue;
        }
        if levels == 1 {
            nth.push(nth_smallest(&mut buf, n0));
        } else {
            buf.sort_unstable_by(f64::total_cmp);
            nth.extend_from_slice(&buf[n0 - 1..n1]);
        }
        loosest.offer(pid, nth[nth.len() - 1]);
    }
    let mut bounds = Vec::with_capacity(levels);
    let mut quantiles = Vec::with_capacity(levels);
    let mut diffs = Vec::with_capacity(nth.len() / levels);
    for i in 0..levels {
        let n = n0 + i;
        diffs.clear();
        diffs.extend(nth.iter().skip(i).step_by(levels));
        let diffs = &mut diffs[..];
        // Below the sample's resolution the k/c-quantile lies under its
        // smallest few values. The n-match difference's lower tail is
        // F(x) ∝ xⁿ — n of the d per-dimension differences must each fall
        // within x — so scale the tail-th smallest down by
        // (rank/tail)^(1/n). Not the smallest itself: a query drawn near
        // one sampled point (a duplicate, or the row it was perturbed
        // from) would collapse it.
        let quantile = if rank >= tail as f64 {
            nth_smallest(diffs, q_idx + 1)
        } else {
            nth_smallest(diffs, tail) * (rank / tail as f64).powf(1.0 / n as f64)
        };
        let bound = if sample_n >= k {
            nth_smallest(diffs, k)
        } else {
            f64::INFINITY
        };
        bounds.push(bound);
        quantiles.push(quantile.min(bound));
    }
    SampledThresholds {
        bounds,
        quantiles,
        sampled: sample_n,
    }
}

/// The exact phase-two refine of one query kind, fed candidate points in
/// ascending pid order, one list at a time — the loop both backends
/// share. Each kind **counts before it selects**: [`count_within`] its
/// current threshold decides whether a point can rank at all, and only the
/// few that can pay for the selection or sort and the top-k offer.
///
/// Each kind's [`refine`](Self::refine) is its own loop, kept out of line:
/// inlined into the engines' per-kind dispatch, the same loop measured
/// 10–20 % slower on a full scan.
trait Refine {
    /// The fewest differences within [`bound`](Self::bound) an answer has:
    /// the band filter's hit floor.
    fn min_hits(&self) -> usize;

    /// The loosest threshold a point's `min_hits`-th difference must meet
    /// to enter the answer: the running k-th n-match difference, the
    /// loosest frequent level's k-th (`+∞` until `k` are held), or `ε`.
    /// It never drops below the final answer's threshold.
    fn bound(&self) -> f64;

    /// Each level's running k-th, level [`min_hits`](Self::min_hits)
    /// first, for the per-level test of a query over more than one level;
    /// `None` for a single level, where the count test already is it.
    fn level_bounds(&self) -> Option<&[f64]> {
        None
    }

    /// Differences every point of `pids` against `query` and offers it,
    /// returning how many points were differenced. `tick` carries the
    /// deadline check's stride from one call to the next.
    fn refine(
        &mut self,
        ds: &Dataset,
        query: &[f64],
        pids: impl Iterator<Item = PointId>,
        diffs: &mut Vec<f64>,
        control: &QueryControl,
        tick: &mut u32,
    ) -> Result<usize>;

    /// The canonical answer of every point offered.
    fn finish(self) -> BatchAnswer;
}

/// k-n-match: one canonical top-k at `n`.
struct KnRefine {
    top: TopK,
    n: usize,
    /// The current k-th n-match difference, +∞ until k are held.
    bound: f64,
}

impl KnRefine {
    fn new(k: usize, n: usize) -> Self {
        KnRefine {
            top: TopK::new(k),
            n,
            bound: f64::INFINITY,
        }
    }
}

impl Refine for KnRefine {
    fn min_hits(&self) -> usize {
        self.n
    }

    fn bound(&self) -> f64 {
        self.bound
    }

    #[inline(never)]
    fn refine(
        &mut self,
        ds: &Dataset,
        query: &[f64],
        pids: impl Iterator<Item = PointId>,
        diffs: &mut Vec<f64>,
        control: &QueryControl,
        tick: &mut u32,
    ) -> Result<usize> {
        diffs.resize(ds.dims(), 0.0);
        let (n, mut bound) = (self.n, self.bound);
        let mut refined = 0usize;
        for pid in pids {
            control.check(tick)?;
            abs_diffs(diffs, ds.point(pid), query);
            refined += 1;
            if count_within(diffs, bound) >= n {
                self.top.offer(pid, nth_smallest(diffs, n));
                bound = self.top.threshold().unwrap_or(f64::INFINITY);
            }
        }
        self.bound = bound;
        Ok(refined)
    }

    fn finish(self) -> BatchAnswer {
        BatchAnswer::KnMatch(self.top.into_result(self.n))
    }
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

/// Frequent k-n-match: per-n canonical top-k collectors, fed one
/// sorted-difference pass per point that can enter at least one of them,
/// then the standard frequency ranking — the same aggregation as the
/// naive oracle, so the answers are identical whenever the candidates
/// cover every per-n answer set.
struct FreqRefine {
    tops: Vec<TopK>,
    /// Level `n0 + i`'s current k-th difference, nondecreasing in `i`.
    bounds: Vec<f64>,
    k: usize,
    n0: usize,
}

impl FreqRefine {
    fn new(k: usize, n0: usize, n1: usize) -> Self {
        FreqRefine {
            tops: (n0..=n1).map(|_| TopK::new(k)).collect(),
            bounds: vec![f64::INFINITY; n1 - n0 + 1],
            k,
            n0,
        }
    }
}

impl Refine for FreqRefine {
    fn min_hits(&self) -> usize {
        self.n0
    }

    /// Level n1's k-th: an answer at any level `n ≥ n0` has `n`
    /// differences within its level's k-th, which is at most this one.
    fn bound(&self) -> f64 {
        self.bounds[self.bounds.len() - 1]
    }

    fn level_bounds(&self) -> Option<&[f64]> {
        (self.bounds.len() > 1).then_some(&self.bounds[..])
    }

    #[inline(never)]
    fn refine(
        &mut self,
        ds: &Dataset,
        query: &[f64],
        pids: impl Iterator<Item = PointId>,
        diffs: &mut Vec<f64>,
        control: &QueryControl,
        tick: &mut u32,
    ) -> Result<usize> {
        diffs.resize(ds.dims(), 0.0);
        let n0 = self.n0;
        let mut refined = 0usize;
        for pid in pids {
            control.check(tick)?;
            abs_diffs(diffs, ds.point(pid), query);
            refined += 1;
            if !enters_some_level(diffs, &self.bounds, n0) {
                continue;
            }
            diffs.sort_unstable_by(f64::total_cmp);
            for (i, (top, bound)) in self.tops.iter_mut().zip(&mut self.bounds).enumerate() {
                top.offer(pid, diffs[n0 + i - 1]);
                *bound = top.threshold().unwrap_or(f64::INFINITY);
            }
        }
        Ok(refined)
    }

    fn finish(self) -> BatchAnswer {
        let n0 = self.n0;
        let n1 = n0 + self.tops.len() - 1;
        let per_n: Vec<KnMatchResult> = self
            .tops
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.into_result(n0 + i))
            .collect();
        BatchAnswer::Frequent(FrequentResult::from_levels((n0, n1), per_n, self.k))
    }
}

/// ε-n-match: keep the points whose n-th smallest difference is within
/// `eps`, in the canonical `(diff, pid)` order.
struct EpsRefine {
    eps: f64,
    n: usize,
    entries: Vec<MatchEntry>,
}

impl EpsRefine {
    fn new(eps: f64, n: usize) -> Self {
        EpsRefine {
            eps,
            n,
            entries: Vec::new(),
        }
    }
}

impl Refine for EpsRefine {
    fn min_hits(&self) -> usize {
        self.n
    }

    fn bound(&self) -> f64 {
        self.eps
    }

    #[inline(never)]
    fn refine(
        &mut self,
        ds: &Dataset,
        query: &[f64],
        pids: impl Iterator<Item = PointId>,
        diffs: &mut Vec<f64>,
        control: &QueryControl,
        tick: &mut u32,
    ) -> Result<usize> {
        diffs.resize(ds.dims(), 0.0);
        let (eps, n) = (self.eps, self.n);
        let mut refined = 0usize;
        for pid in pids {
            control.check(tick)?;
            abs_diffs(diffs, ds.point(pid), query);
            refined += 1;
            if count_within(diffs, eps) >= n {
                self.entries.push(MatchEntry {
                    pid,
                    diff: nth_smallest(diffs, n),
                });
            }
        }
        Ok(refined)
    }

    fn finish(mut self) -> BatchAnswer {
        sort_canonical(&mut self.entries);
        BatchAnswer::EpsMatch(KnMatchResult {
            n: self.n,
            entries: self.entries,
        })
    }
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
        let answer = match query {
            BatchQuery::KnMatch { query, k, n } => self.scan(query, KnRefine::new(*k, *n), scratch),
            BatchQuery::Frequent { query, k, n0, n1 } => {
                self.scan(query, FreqRefine::new(*k, *n0, *n1), scratch)
            }
            BatchQuery::EpsMatch { query, eps, n } => {
                self.scan(query, EpsRefine::new(*eps, *n), scratch)
            }
        }?;
        Ok((answer, refine_stats(c, d, 0)))
    }

    /// Offers every point to `refine`, in pid order.
    fn scan<R: Refine>(
        &self,
        query: &[f64],
        mut refine: R,
        scratch: &mut FilterScratch,
    ) -> Result<BatchAnswer> {
        let ds = &*self.data;
        let pids = 0..ds.len() as PointId;
        refine.refine(
            ds,
            query,
            pids,
            &mut scratch.diffs,
            &scratch.control,
            &mut 0,
        )?;
        Ok(refine.finish())
    }
}

/// The per-level test's fixed parts (see the module docs).
#[derive(Debug, Clone)]
struct LevelTest {
    /// The narrowest cell width of any dimension, shrunk by
    /// [`UNIT_SLACK`]: cells `m + 1` apart hold values more than `m` units
    /// apart.
    unit: f64,
    /// Batcher's network over the `d` per-dimension distances.
    network: Vec<(u8, u8)>,
}

impl LevelTest {
    /// The largest cell distance a point may have at threshold `bound`,
    /// `⌊bound / unit⌋`, clamped to 255 (distances stop at 254, so 255
    /// prunes nothing).
    fn limit(&self, bound: f64) -> u8 {
        let m = (bound / self.unit).floor();
        if m < 255.0 {
            m as u8
        } else {
            u8::MAX
        }
    }

    /// Fills `limits` with every level's [`limit`](Self::limit) at the
    /// tighter of its two bounds, and says whether the loosest level (the
    /// last: the bounds are nondecreasing) can prune anything.
    fn set_limits(&self, running: &[f64], sampled: &[f64], limits: &mut Vec<u8>) -> bool {
        limits.clear();
        limits.extend(
            running
                .iter()
                .zip(sampled)
                .map(|(&r, &s)| self.limit(r.min(s))),
        );
        limits.last().is_some_and(|&m| m < u8::MAX - 1)
    }
}

/// The per-level test's per-query working memory.
#[derive(Debug, Default)]
struct LevelScratch {
    /// The query's cell in every dimension.
    qcells: Vec<u8>,
    /// Level `n0 + i`'s largest admissible n-th smallest cell distance.
    limits: Vec<u8>,
    /// One run's per-dimension cell distances, one vector of 16 lanes per
    /// dimension, sorted per lane.
    rows: Vec<[u8; RUN]>,
}

/// The cell `marks` assign to `v`: the first mark above `v`, minus one,
/// with the final mark in the last cell, so `marks[cell] ≤ v ≤
/// marks[cell + 1]` for any `v` the marks span.
fn cell_of(marks: &[f64], v: f64) -> u8 {
    let ncells = marks.len() - 1;
    (marks.partition_point(|&m| m <= v).min(ncells) - 1) as u8
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
    /// The frequent filter's per-level test; `None` where it stands down
    /// (repeated marks, or more than [`NETWORK_MAX_DIMS`] dimensions).
    levels: Option<LevelTest>,
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
                *slot = cell_of(marks, v);
            }
        }
        let narrowest = boundaries
            .iter()
            .flat_map(|marks| marks.windows(2).map(|w| w[1] - w[0]))
            .fold(f64::INFINITY, f64::min);
        let unit = narrowest * (1.0 - UNIT_SLACK);
        let levels = (d <= NETWORK_MAX_DIMS && unit > 0.0 && unit.is_finite()).then(|| LevelTest {
            unit,
            network: sorting_network(d),
        });
        BandEngine {
            data,
            boundaries,
            cells,
            levels,
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

    /// Every dimension's band ([`Self::band`]) at threshold `tau` into
    /// `bands`, an empty band as `(1, 0)` (no cell matches it).
    fn bands(&self, query: &[f64], tau: f64, bands: &mut Vec<(u8, u8)>) {
        bands.clear();
        bands.extend(
            query
                .iter()
                .enumerate()
                .map(|(j, &qv)| self.band(j, qv - tau, qv + tau).unwrap_or((1, 0))),
        );
    }

    /// Arms `levels` for `query`: its cell in every dimension, each value
    /// first clamped into the marks (which moves it no farther from any
    /// point, as every point lies within them), and one run's rows.
    fn start_levels(&self, query: &[f64], levels: &mut LevelScratch) {
        levels.qcells.clear();
        levels.qcells.extend(
            self.boundaries
                .iter()
                .zip(query)
                .map(|(marks, &qv)| cell_of(marks, qv.clamp(marks[0], marks[marks.len() - 1]))),
        );
        levels.rows.resize(query.len(), [0; RUN]);
    }

    /// Bit `i` set for each point `start + i` (`i < lanes ≤ 16`) that
    /// passes the per-level test at `levels.limits` (level `n0` first):
    /// for some level `n`, its n-th smallest cell distance from the query,
    /// `|a − b| − 1` cells, is at most level n's limit.
    fn level_mask(
        &self,
        test: &LevelTest,
        start: usize,
        lanes: usize,
        n0: usize,
        levels: &mut LevelScratch,
    ) -> u16 {
        let c = self.data.len();
        let LevelScratch {
            qcells,
            limits,
            rows,
        } = levels;
        for (j, (row, &qc)) in rows.iter_mut().zip(qcells.iter()).enumerate() {
            let col = &self.cells[j * c + start..j * c + start + lanes];
            let mut cell = [qc; RUN];
            if let Ok(full) = <[u8; RUN]>::try_from(col) {
                cell = full;
            } else {
                cell[..lanes].copy_from_slice(col);
            }
            for (dist, &a) in row.iter_mut().zip(&cell) {
                *dist = (a.saturating_sub(qc) | qc.saturating_sub(a)).saturating_sub(1);
            }
        }
        sort_lanes(rows, &test.network);
        // The loop stops once every lane is kept; that exit also keeps
        // the compiler from vectorising across levels instead of lanes.
        let mut keep = [0u8; RUN];
        for (row, &limit) in rows[n0 - 1..].iter().zip(limits.iter()) {
            for (k, &dist) in keep.iter_mut().zip(row) {
                *k |= u8::from(dist <= limit);
            }
            if keep.iter().fold(1, |all, &k| all & k) == 1 {
                break;
            }
        }
        pack_lanes(&keep)
    }

    /// Estimates the fraction of points the band filter keeps for a query
    /// over the levels `n0 ..` with thresholds `taus` (one per level,
    /// nondecreasing; one for k-n-match and ε-n-match), by running the
    /// filter over about `sample` points: evenly spaced runs of 16
    /// consecutive pids. The count test runs at the loosest threshold with
    /// hit floor `n0`, and over more than one level the per-level test
    /// too, each level at its own threshold — the rule
    /// [`Self::execute`] prunes by. Used by the request-time planner to
    /// price the refine without paying for a full filter pass.
    ///
    /// A run's cells share a cache line in every dimension's column, so
    /// the probe reads `d · sample / 16` lines through the
    /// vectorised band kernel instead of `d · sample` scattered bytes.
    pub fn estimate_candidate_fraction(
        &self,
        query: &[f64],
        taus: &[f64],
        n0: usize,
        sample: usize,
    ) -> f64 {
        let c = self.data.len();
        let sample_n = sample.clamp(1, c);
        let runs = (sample_n / RUN).max(1);
        // run_len ≤ stride, so the runs are disjoint and in bounds.
        let (run_len, stride) = (RUN.min(c), c / runs);
        let tau = taus[taus.len() - 1];
        let mut counts = vec![[0u8; RUN]; runs];
        for (j, &qv) in query.iter().enumerate() {
            let Some((lo, hi)) = self.band(j, qv - tau, qv + tau) else {
                continue;
            };
            let col = &self.cells[j * c..(j + 1) * c];
            for (r, hits) in counts.iter_mut().enumerate() {
                let start = r * stride;
                accumulate_band_hits(&mut hits[..run_len], &col[start..start + run_len], lo, hi);
            }
        }
        let mut levels = LevelScratch::default();
        let test = self
            .levels
            .as_ref()
            .filter(|t| taus.len() > 1 && t.set_limits(taus, taus, &mut levels.limits));
        if test.is_some() {
            self.start_levels(query, &mut levels);
        }
        let floor = n0.clamp(1, u8::MAX as usize) as u8;
        let kept: u32 = counts
            .iter()
            .enumerate()
            .map(|(r, hits)| {
                let mut mask = at_least_mask(hits, floor);
                if let Some(t) = test.filter(|_| mask != 0) {
                    mask &= self.level_mask(t, r * stride, run_len, n0, &mut levels);
                }
                mask.count_ones()
            })
            .sum();
        f64::from(kept) / (runs * run_len) as f64
    }

    /// Executes one query on the calling thread against caller scratch:
    /// sample-derived thresholds, then the band filter and the exact
    /// refine interleaved block by block (see the module docs).
    ///
    /// # Errors
    ///
    /// Per-query parameter validation, deadline, cancellation.
    pub fn execute(
        &self,
        query: &BatchQuery,
        scratch: &mut FilterScratch,
    ) -> Result<(BatchAnswer, AdStats)> {
        query.validate(self.data.dims(), self.data.len())?;
        self.execute_sampled(query, &SampledThresholds::of(&self.data, query), scratch)
    }

    /// [`Self::execute`] at thresholds the caller has drawn already —
    /// they must be [`SampledThresholds::of`] this very query over this
    /// engine's data (what the planner priced the query with): the
    /// filter's correctness rests on their bounds.
    ///
    /// # Errors
    ///
    /// Per-query parameter validation, deadline, cancellation.
    ///
    /// # Panics
    ///
    /// Panics when `sampled` holds a different number of levels than the
    /// query has.
    pub fn execute_sampled(
        &self,
        query: &BatchQuery,
        sampled: &SampledThresholds,
        scratch: &mut FilterScratch,
    ) -> Result<(BatchAnswer, AdStats)> {
        let ds = &*self.data;
        let (d, c) = (ds.dims(), ds.len());
        query.validate(d, c)?;
        let levels = match query {
            BatchQuery::Frequent { n0, n1, .. } => n1 - n0 + 1,
            _ => 1,
        };
        assert_eq!(sampled.bounds.len(), levels, "one sampled bound per level");
        scratch.control.precheck()?;
        // The first blocks prune at the sampled bounds: k-n-match at its
        // n, frequent at the loosest level of its range (the bound is
        // nondecreasing in n, so n1's covers every per-n answer set) and
        // each level at its own in the per-level test, and ε-n-match at ε
        // itself.
        let (answer, refined) = match query {
            BatchQuery::KnMatch { query, k, n } => {
                self.filter_refine(query, sampled, KnRefine::new(*k, *n), scratch)
            }
            BatchQuery::Frequent { query, k, n0, n1 } => {
                self.filter_refine(query, sampled, FreqRefine::new(*k, *n0, *n1), scratch)
            }
            BatchQuery::EpsMatch { query, eps, n } => {
                self.filter_refine(query, sampled, EpsRefine::new(*eps, *n), scratch)
            }
        }?;
        Ok((answer, refine_stats(refined, d, sampled.sampled)))
    }

    /// Filters and refines [`FILTER_BLOCK`] consecutive pids at a time: each
    /// block counts its band hits at `min(ε̂, refine.bound())` and
    /// refines the points with at least `refine.min_hits()` of them before
    /// the next block is counted, so the filter tightens as the running
    /// bound does. The bands are recomputed at a block boundary only when
    /// that threshold has tightened. Over more than one level, each run of
    /// 16 points with a candidate also meets the per-level test at every
    /// level's tighter bound as of the block's start. Returns the answer
    /// and the number of points refined.
    ///
    /// Exact: no bound ever drops below the final answer's threshold of
    /// its level and both tests are inclusive, so every answer (ties
    /// included) is refined.
    fn filter_refine<R: Refine>(
        &self,
        query: &[f64],
        sampled: &SampledThresholds,
        mut refine: R,
        scratch: &mut FilterScratch,
    ) -> Result<(BatchAnswer, usize)> {
        let ds = &*self.data;
        let c = ds.len();
        let FilterScratch {
            bands,
            diffs,
            cands,
            levels,
            control,
        } = scratch;
        let n0 = refine.min_hits();
        let floor = n0.min(u8::MAX as usize) as u8;
        let test = self
            .levels
            .as_ref()
            .filter(|_| refine.level_bounds().is_some());
        if test.is_some() {
            self.start_levels(query, levels);
        }
        let tau = sampled.bound();
        let mut hits = [0u8; FILTER_BLOCK];
        // The threshold `bands` were last computed at.
        let mut band_tau: Option<f64> = None;
        let (mut refined, mut tick) = (0usize, 0u32);
        for start in (0..c).step_by(FILTER_BLOCK) {
            let t = tau.min(refine.bound());
            if band_tau.is_none_or(|b| t < b) {
                self.bands(query, t, bands);
                band_tau = Some(t);
            }
            let len = FILTER_BLOCK.min(c - start);
            // Past `len` the counts stay 0: a short last run reads no
            // candidate there.
            hits.fill(0);
            for (j, &(lo, hi)) in bands.iter().enumerate() {
                let col = &self.cells[j * c + start..j * c + start + len];
                accumulate_band_hits(&mut hits[..len], col, lo, hi);
            }
            let block_test = test.filter(|t| {
                let running = refine.level_bounds().unwrap_or_default();
                t.set_limits(running, &sampled.bounds, &mut levels.limits)
            });
            cands.clear();
            let (runs, _) = hits.as_chunks::<RUN>();
            for (r, run) in runs.iter().enumerate().take(len.div_ceil(RUN)) {
                let mut mask = at_least_mask(run, floor);
                if mask == 0 {
                    continue;
                }
                let first = start + r * RUN;
                if let Some(t) = block_test {
                    mask &= self.level_mask(t, first, RUN.min(c - first), n0, levels);
                }
                while mask != 0 {
                    cands.push((first + mask.trailing_zeros() as usize) as PointId);
                    mask &= mask - 1;
                }
            }
            refined +=
                refine.refine(ds, query, cands.iter().copied(), diffs, control, &mut tick)?;
        }
        Ok((refine.finish(), refined))
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
        // A zero-width cell leaves the per-level test no unit: it stands
        // down, and the count test alone filters frequent queries.
        assert!(engines[0].levels.is_none());
        assert!(engines[1].levels.is_some());
        let q = vec![1.0, 5.0, 50.0, 150.0, 2.5];
        let mut batch: Vec<BatchQuery> = (1..=d)
            .map(|n| BatchQuery::KnMatch {
                query: q.clone(),
                k: 10,
                n,
            })
            .collect();
        batch.extend(frequent_batch(&q, &[1, 10]));
        for (i, e) in engines.iter().enumerate() {
            check_engine(e, &ds, &batch, &format!("engine {i}"));
        }
    }

    /// How many points the two-phase filter (every point counted at one
    /// threshold, then refined) keeps at `tau` with `min_hits`. Its counts
    /// and floor stop at 255, like the engine's byte counts.
    fn two_phase_kept(e: &BandEngine, q: &[f64], tau: f64, min_hits: usize) -> u64 {
        let c = e.data.len();
        let mut bands = Vec::new();
        e.bands(q, tau, &mut bands);
        let hits = |pid: usize| {
            let in_band =
                |(j, &(lo, hi)): (usize, &(u8, u8))| (lo..=hi).contains(&e.cells[j * c + pid]);
            bands.iter().enumerate().filter(|&b| in_band(b)).count()
        };
        let floor = min_hits.min(255);
        (0..c).filter(|&pid| hits(pid).min(255) >= floor).count() as u64
    }

    /// The block loop against the oracle, and its refined points against
    /// the two-phase filter's at the sampled bound (at ε for ε-n-match).
    fn check_blocks(ds: &Dataset, batch: &[BatchQuery], ctx: &str) {
        check_engine(&band_engine(ds), ds, batch, ctx);
    }

    /// [`check_blocks`] on engine `e` over `ds`; returns each query's
    /// refined points and the two-phase filter's.
    fn check_engine(
        e: &BandEngine,
        ds: &Dataset,
        batch: &[BatchQuery],
        ctx: &str,
    ) -> Vec<(u64, u64)> {
        let d = ds.dims() as u64;
        let mut counts = Vec::new();
        for (q, (answer, stats)) in batch.iter().zip(run_each(|q, s| e.execute(q, s), batch)) {
            assert_eq!(answer, oracle(ds, q), "{ctx}: {q:?}");
            let bound = SampledThresholds::of(ds, q).bound();
            let kept = match q {
                BatchQuery::KnMatch { query, n, .. } | BatchQuery::EpsMatch { query, n, .. } => {
                    two_phase_kept(e, query, bound, *n)
                }
                BatchQuery::Frequent { query, n0, .. } => two_phase_kept(e, query, bound, *n0),
            };
            let refined = stats.attributes_retrieved / d;
            assert!(
                refined <= kept,
                "{ctx}: refined {refined} points, the two-phase filter keeps {kept}: {q:?}"
            );
            counts.push((refined, kept));
        }
        counts
    }

    /// Frequent queries over `[2, d]`, `[⌈d/2⌉, d]` and `[2, 3]`, and a
    /// k-n-match at `⌈d/2⌉`, at each of `ks`.
    fn frequent_batch(query: &[f64], ks: &[usize]) -> Vec<BatchQuery> {
        let d = query.len();
        let mut batch = Vec::new();
        for &k in ks {
            for (n0, n1) in [(2, d), (d.div_ceil(2), d), (2, 3.min(d))] {
                batch.push(BatchQuery::Frequent {
                    query: query.to_vec(),
                    k,
                    n0,
                    n1,
                });
            }
            batch.push(BatchQuery::KnMatch {
                query: query.to_vec(),
                k,
                n: d.div_ceil(2),
            });
        }
        batch
    }

    #[test]
    fn per_level_test_keeps_an_answer_only_a_middle_level_admits() {
        // Query 0.5 everywhere, d = 6, frequent [2, 5] at k = 1. Point A
        // (pid 0) leads level 2 (differences 0,0,.3,.3,.3,.3), C (pid 1)
        // levels 4 and 5 (.2 ×5, .45), and B (pid 300, a later block)
        // only level 3 (.1,.1,.1,.4,.4,.4). Once block 0 has set the
        // running bounds, level 2 (0) and levels 4–5 (.2) each reject B;
        // only level 3's bound (.2) admits it. The background passes the
        // count test (two differences within .2) and fails every level.
        let (c, d) = (600usize, 6usize);
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|pid| match pid {
                0 => vec![0.5, 0.5, 0.8, 0.8, 0.8, 0.8],
                1 => vec![0.7, 0.7, 0.7, 0.7, 0.7, 0.95],
                300 => vec![0.6, 0.6, 0.6, 0.9, 0.9, 0.9],
                _ => (0..d)
                    .map(|j| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        let near = (j + pid) % d < 2;
                        let off = if near { 0.15 } else { 0.45 } + (s % 40) as f64 / 1000.0;
                        if s >> 63 == 0 {
                            0.5 + off
                        } else {
                            0.5 - off
                        }
                    })
                    .collect(),
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let q = vec![0.5; d];
        let query = BatchQuery::Frequent {
            query: q.clone(),
            k: 1,
            n0: 2,
            n1: 5,
        };
        let BatchAnswer::Frequent(want) = oracle(&ds, &query) else {
            unreachable!("a frequent query answers a frequent result")
        };
        let levels: Vec<Vec<PointId>> = want.per_n.iter().map(KnMatchResult::ids).collect();
        assert_eq!(levels, vec![vec![0], vec![300], vec![1], vec![1]]);
        let e = band_engine(&ds);
        let counts = check_engine(&e, &ds, &[query], "middle level");
        // The per-level test ran: it refined a fraction of what the count
        // test alone keeps.
        assert!(counts[0].0 * 4 < counts[0].1, "{counts:?}");
        let mut batch = frequent_batch(&q, &[1, 2, 5]);
        batch.push(BatchQuery::Frequent {
            query: q,
            k: 2,
            n0: 1,
            n1: d,
        });
        check_engine(&e, &ds, &batch, "middle level, other shapes");
    }

    #[test]
    fn level_bound_ties_straddle_run_and_block_edges() {
        // A 0.25-step grid (every difference ties many others), with one
        // row copied across the run edge at 16 (pids 14–17) and the block
        // edge (B − 2 … B + 1): for k up to 8 some level's k-th difference
        // is tied by copies on both sides of an edge.
        let (c, d) = (2 * FILTER_BLOCK + 9, 6usize);
        let b = FILTER_BLOCK;
        let mut s = 0x9e37_79b9u64;
        let mut grid = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 5) as f64 * 0.25
        };
        let copy: Vec<f64> = (0..d).map(|_| grid()).collect();
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|pid| {
                if (14..18).contains(&pid) || (b - 2..b + 2).contains(&pid) {
                    copy.clone()
                } else {
                    (0..d).map(|_| grid()).collect()
                }
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let shifted: Vec<f64> = copy.iter().map(|v| (v + 0.1f64).min(1.0)).collect();
        let other = rows[c / 2].clone();
        for q in [copy, shifted, other] {
            check_blocks(&ds, &frequent_batch(&q, &[1, 3, 4, 6, 8, 9]), "edge ties");
        }
    }

    #[test]
    fn per_level_network_edges_stay_exact() {
        // Up to NETWORK_MAX_DIMS the per-level test sorts with the byte
        // network (16 and 17 elements, 32 and 33 on either side of the
        // cap); past it the test stands down.
        for d in [16usize, 17, NETWORK_MAX_DIMS, NETWORK_MAX_DIMS + 1] {
            let ds = pseudo_dataset(700, d, d as u64);
            assert_eq!(band_engine(&ds).levels.is_some(), d <= NETWORK_MAX_DIMS);
            let q: Vec<f64> = ds.point(350).iter().map(|v| v * 0.97 + 0.015).collect();
            let mut batch = frequent_batch(&q, &[1, 10]);
            batch.push(BatchQuery::Frequent {
                query: q,
                k: 10,
                n0: d - 2,
                n1: d - 1,
            });
            check_blocks(&ds, &batch, &format!("d={d}"));
        }
    }

    #[test]
    fn counts_saturate_past_255_dimensions() {
        // d = 300: a point can hit more than 255 bands, the byte counts
        // stop at 255 and the hit floor of every n > 255 is clamped to 255,
        // so the filter keeps a superset and the refine decides.
        let (c, d) = (200usize, 300usize);
        let ds = pseudo_dataset(c, d, 300);
        let q: Vec<f64> = ds.point(77).iter().map(|v| v * 0.99 + 0.005).collect();
        let mut batch = Vec::new();
        for n in [250, 256, 280, d] {
            batch.push(BatchQuery::KnMatch {
                query: q.clone(),
                k: 5,
                n,
            });
        }
        for (n0, n1) in [(256, 260), (250, d), (2, d)] {
            batch.push(BatchQuery::Frequent {
                query: q.clone(),
                k: 4,
                n0,
                n1,
            });
        }
        let eps = k_n_match_scan(&ds, &q, 10, 270).unwrap().epsilon();
        batch.push(BatchQuery::EpsMatch {
            query: q,
            eps,
            n: 270,
        });
        check_blocks(&ds, &batch, "d=300");
    }

    #[test]
    fn queries_outside_the_marks_stay_exact() {
        // The per-level test clamps the query into the marks before it
        // takes its cell; the refine uses the query as given.
        let d = 8;
        let ds = pseudo_dataset(900, d, 41);
        let inside = ds.point(5).to_vec();
        let below: Vec<f64> = inside.iter().map(|v| v - 1.5).collect();
        let mixed: Vec<f64> = inside
            .iter()
            .enumerate()
            .map(|(j, v)| match j % 3 {
                0 => -0.4,
                1 => 1.3,
                _ => *v,
            })
            .collect();
        for q in [below, mixed] {
            let mut batch = frequent_batch(&q, &[1, 7]);
            batch.push(BatchQuery::EpsMatch {
                query: q.clone(),
                eps: 0.5,
                n: 3,
            });
            check_blocks(&ds, &batch, &format!("{q:?}"));
        }
    }

    #[test]
    fn block_loop_matches_oracle_at_block_edges() {
        let d = 5;
        for c in [1, FILTER_BLOCK - 1, FILTER_BLOCK + 1, 3 * FILTER_BLOCK + 7] {
            let ds = pseudo_dataset(c, d, c as u64);
            let q = ds
                .point((c / 2) as PointId)
                .iter()
                .map(|v| v * 0.98 + 0.01)
                .collect::<Vec<_>>();
            let mut batch = vec![
                BatchQuery::KnMatch {
                    query: q.clone(),
                    k: c,
                    n: d,
                },
                BatchQuery::Frequent {
                    query: q.clone(),
                    k: c.min(5),
                    n0: 1,
                    n1: d,
                },
                BatchQuery::Frequent {
                    query: q.clone(),
                    k: c,
                    n0: 1,
                    n1: d,
                },
                BatchQuery::EpsMatch {
                    query: q.clone(),
                    eps: 0.1,
                    n: 2,
                },
            ];
            for n in 1..=d {
                batch.push(BatchQuery::KnMatch {
                    query: q.clone(),
                    k: c.min(7),
                    n,
                });
            }
            check_blocks(&ds, &batch, &format!("c={c}"));
        }
    }

    #[test]
    fn block_loop_keeps_duplicates_tied_across_a_block_edge() {
        // Four copies of one row at pids B−2 … B+1 (B = FILTER_BLOCK), far
        // from everything else: for k ≤ 4 the k-th difference is tied by
        // all four, and the copies the answer keeps (the smallest pids)
        // sit on both sides of the block edge.
        let (c, d) = (2 * FILTER_BLOCK + 9, 6);
        let far = pseudo_dataset(c, d, 17);
        let near = vec![0.1; d];
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|pid| {
                if (FILTER_BLOCK - 2..=FILTER_BLOCK + 1).contains(&pid) {
                    near.clone()
                } else {
                    far.point(pid as PointId)
                        .iter()
                        .map(|v| 0.5 + v / 2.0)
                        .collect()
                }
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let q: Vec<f64> = (0..d).map(|j| 0.1 + 0.01 * j as f64).collect();
        let mut batch = Vec::new();
        for k in 1..=5 {
            for n in [1, 3, d] {
                batch.push(BatchQuery::KnMatch {
                    query: q.clone(),
                    k,
                    n,
                });
            }
            batch.push(BatchQuery::Frequent {
                query: q.clone(),
                k,
                n0: 1,
                n1: d,
            });
        }
        batch.push(BatchQuery::EpsMatch {
            query: q.clone(),
            eps: 0.05,
            n: d,
        });
        check_blocks(&ds, &batch, "duplicates");
        let e = band_engine(&ds);
        let (answer, _) = e
            .execute(
                &BatchQuery::KnMatch {
                    query: q,
                    k: 3,
                    n: d,
                },
                &mut FilterScratch::new(),
            )
            .unwrap();
        let BatchAnswer::KnMatch(r) = answer else {
            unreachable!("k-n-match answers a k-n-match")
        };
        let b = FILTER_BLOCK as PointId;
        assert_eq!(r.ids(), vec![b - 2, b - 1, b]);
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
        let f = e.estimate_candidate_fraction(&q, &[0.01], 4, 128);
        assert!((0.0..=1.0).contains(&f));
        let g = e.estimate_candidate_fraction(&q, &[10.0], 1, 128);
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
            let est = sample_thresholds(&ds, &q, k, n, n);
            let exact = k_n_match_scan(&ds, &q, k, n).unwrap();
            assert!(
                exact.epsilon() <= est.bound(),
                "sampled bound below true threshold: k={k} n={n}"
            );
            assert!(est.quantile() <= est.bound(), "k={k} n={n}: {est:?}");
        }
        // Past the sample size there is no bound, but still a quantile:
        // the ⌈k/c · 64⌉-th smallest sampled difference.
        let est = sample_thresholds(&ds, &q, 100, 3, 3);
        assert_eq!(est.bound(), f64::INFINITY);
        let mut sampled: Vec<f64> = (0..FILTER_SAMPLE)
            .map(|i| {
                let p = ds.point((i * (800 / FILTER_SAMPLE)) as PointId);
                crate::nmatch::nmatch_difference_with_buf(p, &q, 3, &mut Vec::new())
            })
            .collect();
        sampled.sort_unstable_by(f64::total_cmp);
        assert_eq!(est.quantile(), sampled[8 - 1]);
        // Finer than the sample resolves (k/c · 64 = 0.08 of a rank): the
        // 4th smallest sampled difference, scaled down the xⁿ tail.
        let est = sample_thresholds(&ds, &q, 1, 3, 3);
        let rank = 1.0 / 800.0 * 64.0f64;
        assert_eq!(est.quantile(), sampled[3] * (rank / 4.0).powf(1.0 / 3.0));
    }

    #[test]
    fn sample_thresholds_of_an_empty_dataset_prune_nothing() {
        let ds = Dataset::new(3).unwrap();
        let est = sample_thresholds(&ds, &[0.5; 3], 5, 2, 4);
        assert_eq!(est.bounds, vec![f64::INFINITY; 3]);
        assert_eq!(est.quantiles, vec![f64::INFINITY; 3]);
    }
}
