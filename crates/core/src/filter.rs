//! In-memory filter-and-refine batch backends over the kernel loops.
//!
//! Two [`BatchEngine`] backends live here, both answering the exact query
//! kinds bit-identically to the sequential oracle:
//!
//! - [`ScanEngine`] — the naive full scan as a serving backend: every
//!   point's differences through the [`kernels::abs_diffs`]
//!   kernel, selection of the n-th smallest, canonical top-k. This is the
//!   paper's "scan" competitor promoted from a benchmark loop to a
//!   first-class backend (it wins near `n1 = d`, Figure 12).
//! - [`BandEngine`] — the rewritten two-phase approximation filter. Each
//!   dimension is quantised against caller-supplied cell boundaries
//!   (equi-width for the VA-file in `knmatch-vafile`, equi-depth for the
//!   IGrid adapter in `knmatch-igrid`); phase one counts, per point, the
//!   dimensions whose cell intersects the query band `[q_j − τ, q_j + τ]`
//!   with the branchless [`kernels::accumulate_band_hits`] byte kernel;
//!   phase two refines the survivors exactly. Because a point's
//!   per-dimension lower bound is within `τ` **iff** its cell intersects
//!   the band, "at least `n` band hits" is exactly "n-th smallest lower
//!   bound ≤ τ" — the classic VA-file filter condition — so the candidate
//!   set is a superset of the true answers at any quantisation and the
//!   refined answers are a pure function of the data.
//!
//! The pruning threshold `τ` is derived by refining a small evenly-spaced
//! sample exactly ([`sample_threshold`]): the k-th smallest sampled
//! n-match difference (under the canonical `(diff, pid)` order) is a valid
//! upper bound of the true k-th smallest, which is all the filter needs.

use std::sync::Arc;

use crate::ad::AdStats;
use crate::engine::{
    isolate_panic, note_outcome, run_batch, BatchAnswer, BatchEngine, BatchOptions, BatchQuery,
};
use crate::error::Result;
use crate::kernels::{abs_diffs, accumulate_band_hits, nth_smallest, sort_canonical};
use crate::point::{Dataset, PointId};
use crate::result::{rank_frequent, FrequentResult, KnMatchResult, MatchEntry};
use crate::scratch::QueryControl;
use crate::topk::TopK;

/// Points sampled (evenly spaced by pid) to derive the pruning threshold —
/// the same budget the disk planner uses.
pub const FILTER_SAMPLE: usize = 64;

/// Reusable per-worker working memory for the filter backends.
#[derive(Debug, Default)]
pub struct FilterScratch {
    counts: Vec<u16>,
    diffs: Vec<f64>,
    /// Deadline/cancellation the next query must honour (engines stamp it
    /// per batch, like [`Scratch`](crate::Scratch)).
    pub control: QueryControl,
}

impl FilterScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        FilterScratch::default()
    }

    /// A fresh scratch armed with `control`.
    pub fn with_control(control: QueryControl) -> Self {
        FilterScratch {
            control,
            ..FilterScratch::default()
        }
    }
}

/// The canonical k-th smallest n-match difference among an evenly-spaced
/// sample of at most [`FILTER_SAMPLE`] points — an upper bound of the true
/// k-th smallest over the whole dataset whenever the sample holds at least
/// `k` points, and `+∞` (no pruning) otherwise.
///
/// Deterministic: the sample pids depend only on the cardinality, and the
/// k-th smallest is selected under the canonical `(diff, pid)` order.
pub fn sample_threshold(ds: &Dataset, query: &[f64], k: usize, n: usize) -> f64 {
    let c = ds.len();
    let sample_n = FILTER_SAMPLE.min(c);
    if sample_n < k {
        return f64::INFINITY;
    }
    let step = (c / sample_n).max(1);
    let mut top = TopK::new(k);
    let mut buf = vec![0.0f64; ds.dims()];
    for i in 0..sample_n {
        let pid = ((i * step) % c) as PointId;
        abs_diffs(&mut buf, ds.point(pid), query);
        top.offer(pid, nth_smallest(&mut buf, n));
    }
    top.threshold().expect("sample_n >= k")
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
    let mut refined = 0usize;
    let mut tick = 0u32;
    for pid in pids {
        control.check(&mut tick)?;
        abs_diffs(diffs, ds.point(pid), query);
        top.offer(pid, nth_smallest(diffs, n));
        refined += 1;
    }
    Ok((top.into_result(n), refined))
}

/// Exact frequent k-n-match over a candidate id list that is a superset of
/// every per-n answer set: per-n canonical top-k collectors over one
/// sorted-difference pass per candidate, then the standard frequency
/// ranking — the same aggregation as the naive oracle, so the answers are
/// identical whenever the candidate list covers the true answers.
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
    let mut refined = 0usize;
    let mut tick = 0u32;
    for pid in pids {
        control.check(&mut tick)?;
        abs_diffs(diffs, ds.point(pid), query);
        diffs.sort_unstable_by(f64::total_cmp);
        for (i, top) in tops.iter_mut().enumerate() {
            top.offer(pid, diffs[n0 + i - 1]);
        }
        refined += 1;
    }
    let per_n: Vec<KnMatchResult> = tops
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.into_result(n0 + i))
        .collect();
    let mut counts: Vec<(PointId, u32)> = Vec::new();
    for res in &per_n {
        for e in &res.entries {
            match counts.iter_mut().find(|(p, _)| *p == e.pid) {
                Some((_, c)) => *c += 1,
                None => counts.push((e.pid, 1)),
            }
        }
    }
    counts.sort_unstable_by_key(|&(p, _)| p);
    let entries = rank_frequent(&counts, k);
    Ok((
        FrequentResult {
            range: (n0, n1),
            entries,
            per_n,
        },
        refined,
    ))
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
        let diff = nth_smallest(diffs, n);
        if diff <= eps {
            entries.push(MatchEntry { pid, diff });
        }
        refined += 1;
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

/// The naive full scan as a [`BatchEngine`]: kernel differences,
/// O(d) selection, canonical top-k. Bit-identical to the sequential scan
/// oracle (and therefore to the AD algorithm) on every query kind.
#[derive(Debug, Clone)]
pub struct ScanEngine {
    data: Arc<Dataset>,
    workers: usize,
}

impl ScanEngine {
    /// An engine over `data` with one worker per available CPU.
    pub fn new(data: Arc<Dataset>) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(data, workers)
    }

    /// An engine with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(data: Arc<Dataset>, workers: usize) -> Self {
        ScanEngine {
            data,
            workers: workers.max(1),
        }
    }

    /// The scanned dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.data
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

impl BatchEngine for ScanEngine {
    type Outcome = (BatchAnswer, AdStats);

    fn workers(&self) -> usize {
        self.workers
    }

    fn run_with(
        &self,
        queries: &[BatchQuery],
        opts: &BatchOptions,
    ) -> Vec<Result<(BatchAnswer, AdStats)>> {
        let control = opts.arm();
        run_batch(
            self.workers,
            queries.len(),
            || FilterScratch::with_control(control.clone()),
            |scratch, i| {
                let out = isolate_panic(|| self.execute(&queries[i], scratch));
                note_outcome(&control, &out);
                out
            },
        )
    }
}

/// A quantised filter-and-refine [`BatchEngine`] over caller-supplied
/// per-dimension cell boundaries (see the module docs). `knmatch-vafile`
/// builds it with equi-width cells (the VA-file), `knmatch-igrid` with
/// equi-depth ranges (the IGrid partitioning) — the filter, kernels, and
/// exactness argument are shared.
#[derive(Debug, Clone)]
pub struct BandEngine {
    data: Arc<Dataset>,
    /// `boundaries[dim]` holds `cells_j + 1` ascending marks spanning that
    /// dimension's observed value range.
    boundaries: Vec<Vec<f64>>,
    /// Dim-major quantised cell indices: `cells[dim * len + pid]`.
    cells: Vec<u8>,
    workers: usize,
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
    pub fn from_boundaries(data: Arc<Dataset>, boundaries: Vec<Vec<f64>>, workers: usize) -> Self {
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
            workers: workers.max(1),
        }
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.data
    }

    /// Worker count used by [`BatchEngine::run_with`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cells dimension `dim` is quantised into.
    pub fn cells(&self, dim: usize) -> usize {
        self.boundaries[dim].len() - 1
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
    /// filter over at most `sample` evenly-strided points. Used by the
    /// request-time planner to price the refine phase without paying for
    /// a full filter pass.
    pub fn estimate_candidate_fraction(
        &self,
        query: &[f64],
        tau: f64,
        min_hits: usize,
        sample: usize,
    ) -> f64 {
        let c = self.data.len();
        let sample_n = sample.clamp(1, c);
        let step = (c / sample_n).max(1);
        let mut kept = 0usize;
        let bands: Vec<Option<(u8, u8)>> = query
            .iter()
            .enumerate()
            .map(|(j, &qv)| self.band(j, qv - tau, qv + tau))
            .collect();
        for i in 0..sample_n {
            let pid = (i * step) % c;
            let mut hits = 0usize;
            for (j, band) in bands.iter().enumerate() {
                if let Some((lo, hi)) = band {
                    let cell = self.cells[j * c + pid];
                    hits += usize::from(cell >= *lo && cell <= *hi);
                }
            }
            kept += usize::from(hits >= min_hits);
        }
        kept as f64 / sample_n as f64
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
                sample_threshold(ds, query, *k, *n),
                *n,
                FILTER_SAMPLE.min(c),
            ),
            BatchQuery::Frequent { query, k, n1, n0 } => (
                query,
                sample_threshold(ds, query, *k, *n1),
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

impl BatchEngine for BandEngine {
    type Outcome = (BatchAnswer, AdStats);

    fn workers(&self) -> usize {
        self.workers
    }

    fn run_with(
        &self,
        queries: &[BatchQuery],
        opts: &BatchOptions,
    ) -> Vec<Result<(BatchAnswer, AdStats)>> {
        let control = opts.arm();
        run_batch(
            self.workers,
            queries.len(),
            || FilterScratch::with_control(control.clone()),
            |scratch, i| {
                let out = isolate_panic(|| self.execute(&queries[i], scratch));
                note_outcome(&control, &out);
                out
            },
        )
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

    fn band_engine(ds: &Dataset, workers: usize) -> BandEngine {
        let boundaries = equi_width_boundaries(ds, 64);
        BandEngine::from_boundaries(Arc::new(ds.clone()), boundaries, workers)
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
        for workers in [1usize, 3] {
            let e = ScanEngine::with_workers(Arc::new(ds.clone()), workers);
            for (q, r) in batch.iter().zip(e.run(&batch)) {
                let (answer, stats) = r.unwrap();
                assert_eq!(answer, oracle(&ds, q), "workers={workers}");
                assert_eq!(stats.attributes_retrieved, 400 * 6);
            }
        }
    }

    #[test]
    fn band_engine_matches_oracle_bitwise() {
        let ds = pseudo_dataset(500, 8, 23);
        let batch = mixed_batch(8);
        for workers in [1usize, 4] {
            let e = band_engine(&ds, workers);
            for (q, r) in batch.iter().zip(e.run(&batch)) {
                let (answer, _) = r.unwrap();
                assert_eq!(answer, oracle(&ds, q), "workers={workers}");
            }
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
        let e = band_engine(&ds, 2);
        let s = ScanEngine::with_workers(Arc::new(ds.clone()), 2);
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
        for ((q, band), scan) in batch.iter().zip(e.run(&batch)).zip(s.run(&batch)) {
            let want = oracle(&ds, q);
            assert_eq!(band.unwrap().0, want);
            assert_eq!(scan.unwrap().0, want);
        }
    }

    #[test]
    fn band_filter_prunes_on_selective_queries() {
        let ds = pseudo_dataset(2000, 8, 5);
        let e = band_engine(&ds, 1);
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
        let e = band_engine(&ds, 1);
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
        assert!(ScanEngine::with_workers(Arc::new(ds.clone()), 1)
            .execute(&bad, &mut scratch)
            .is_err());
        assert!(band_engine(&ds, 1).execute(&bad, &mut scratch).is_err());
    }

    #[test]
    fn sample_threshold_bounds_the_true_threshold() {
        let ds = pseudo_dataset(800, 6, 31);
        let q = vec![0.3; 6];
        for (k, n) in [(1usize, 1usize), (10, 3), (25, 6)] {
            let tau = sample_threshold(&ds, &q, k, n);
            let exact = k_n_match_scan(&ds, &q, k, n).unwrap();
            assert!(
                exact.epsilon() <= tau,
                "sampled bound below true threshold: k={k} n={n}"
            );
        }
    }
}
