//! Intra-query parallelism: point-id-sharded columns and the engine that
//! fans one AD query out over them.
//!
//! The batch [`QueryEngine`](crate::QueryEngine) parallelises *across*
//! queries; one giant query still walks its frontier on a single core.
//! [`ShardedColumns`] partitions the point-id space into `S` contiguous
//! ranges and builds an independent [`SortedColumns`] per range, so
//! [`ShardedQueryEngine`] can run the unmodified AD core on every shard
//! concurrently (one [`run_batch`] work item per shard, per-worker
//! [`Scratch`] reuse) and merge the per-shard streams.
//!
//! # Why the merge is exact
//!
//! The n-match difference of a point depends only on that point's own
//! attributes (Definition 1), so partitioning by point id partitions the
//! *candidates*, not the computation: shard `s`'s k-n-match answer is the
//! `k` best `(diff, pid)` keys among its own points, which is a superset
//! of the global answer's members that live in shard `s`. Concatenating
//! the per-shard answers and keeping the `k` smallest `(diff, pid)` keys
//! therefore yields exactly the global answer — *provided* answers are a
//! pure function of the data. The AD core guarantees that: tie-breaking is
//! canonical (boundary ties resolve by `(diff, pid)`, never by cursor pop
//! order — see `frequent_core`), so the merged answers are bit-identical
//! to the unsharded engine for all three query kinds:
//!
//! - **k-n-match**: concatenate per-shard entry lists (pids rebased to
//!   global), sort by `(diff, pid)`, keep `k`.
//! - **ε-n-match**: concatenate and sort; thresholds are per-point, no
//!   truncation.
//! - **frequent k-n-match**: merge each per-n level as a k-n-match, then
//!   recount frequencies over the merged `k`-sized sets (Definition 4) and
//!   rank with the shared [`rank_frequent`].
//!
//! Per-shard `k` is clamped to the shard cardinality (a shard holding
//! fewer than `k` points ranks everything it has), and query validation
//! runs once against the *global* dimensions and cardinality.
//!
//! # Cost accounting
//!
//! Each shard's [`AdStats`] is bit-identical to running the sequential AD
//! core on that shard's columns alone — the engine reports them per shard
//! plus their total. The total exceeds an unsharded run's stats (every
//! shard seeds `2d` cursors and walks to its own stop condition); with
//! `shards = 1` answers *and* stats are bit-identical to
//! [`QueryEngine`](crate::QueryEngine).

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use crate::ad::AdStats;
use crate::columns::{sort_dim_range, SortedColumns};
use crate::engine::{
    execute_batch_query, isolate_panic, note_outcome, run_batch, BatchAnswer, BatchEngine,
    BatchOptions, BatchOutcome, BatchQuery,
};
use crate::error::Result;
use crate::point::{Dataset, PointId};
use crate::result::{rank_frequent, FrequentResult, KnMatchResult, MatchEntry};
use crate::scratch::Scratch;

/// A dataset partitioned into `S` contiguous point-id ranges, each
/// organised as its own [`SortedColumns`].
///
/// Shard boundaries are as even as possible (the first `c mod S` shards
/// hold one extra point); entry pids inside a shard are shard-local
/// (starting at 0) so each shard is a self-contained
/// [`SortedAccessSource`](crate::SortedAccessSource) — contiguity makes
/// the local → global mapping a single offset add that preserves pid
/// order, which the exact merge relies on.
///
/// # Examples
///
/// ```
/// use knmatch_core::ShardedColumns;
///
/// let ds = knmatch_core::paper::fig3_dataset();
/// let cols = ShardedColumns::build(&ds, 2);
/// assert_eq!(cols.shard_count(), 2);
/// assert_eq!(cols.shard(0).cardinality(), 3); // 5 points → 3 + 2
/// assert_eq!(cols.shard_start(1), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedColumns {
    dims: usize,
    cardinality: usize,
    /// `starts[s]..starts[s + 1]` is the global pid range of shard `s`.
    starts: Vec<usize>,
    shards: Vec<SortedColumns>,
}

impl ShardedColumns {
    /// Partitions `ds` into `shards` ranges (clamped to `1..=c`) and sorts
    /// every shard × dimension column, one [`run_batch`] work item each,
    /// with one worker per available CPU.
    pub fn build(ds: &Dataset, shards: usize) -> Self {
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        Self::build_with_workers(ds, shards, workers)
    }

    /// [`build`](Self::build) with an explicit worker count. The result is
    /// identical at any worker count.
    pub fn build_with_workers(ds: &Dataset, shards: usize, workers: usize) -> Self {
        let dims = ds.dims();
        let c = ds.len();
        let s = shards.clamp(1, c.max(1));
        let (base, rem) = (c / s, c % s);
        let mut starts = Vec::with_capacity(s + 1);
        starts.push(0usize);
        for i in 0..s {
            starts.push(starts[i] + base + usize::from(i < rem));
        }
        // One sort task per shard × dimension over a single pool, so a
        // build saturates the workers even when shards ≫ dims or dims ≫
        // shards.
        let parts = run_batch(workers.max(1), s * dims, Vec::new, |pairs, t| {
            let (sh, dim) = (t / dims, t % dims);
            sort_dim_range(ds, dim, starts[sh], starts[sh + 1], pairs)
        });
        let mut parts = parts.into_iter();
        let shards = (0..s)
            .map(|sh| {
                let cols: Vec<_> = parts.by_ref().take(dims).collect();
                SortedColumns::from_sorted_parts(starts[sh + 1] - starts[sh], cols)
            })
            .collect();
        ShardedColumns {
            dims,
            cardinality: c,
            starts,
            shards,
        }
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The columns of shard `s` (entry pids are shard-local).
    ///
    /// # Panics
    ///
    /// Panics when `s >= shard_count()`.
    pub fn shard(&self, s: usize) -> &SortedColumns {
        &self.shards[s]
    }

    /// First global pid of shard `s` — add it to a shard-local pid to get
    /// the global one.
    pub fn shard_start(&self, s: usize) -> usize {
        self.starts[s]
    }

    /// Dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total cardinality `c` across all shards.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }
}

/// The answer of one sharded query: the merged [`BatchAnswer`]
/// (bit-identical to the unsharded engine's) plus the run's cost split.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// The merged answer, bit-identical to [`QueryEngine`](crate::QueryEngine).
    pub answer: BatchAnswer,
    /// Total of the per-shard stats (see [`AdStats::accumulate`]).
    pub stats: AdStats,
    /// Per-shard stats, in shard order; each is bit-identical to a
    /// sequential AD run over that shard's columns alone.
    pub per_shard: Vec<AdStats>,
}

impl BatchOutcome for ShardedOutcome {
    fn answer(&self) -> &BatchAnswer {
        &self.answer
    }

    fn ad_stats(&self) -> AdStats {
        self.stats
    }

    fn into_answer(self) -> BatchAnswer {
        self.answer
    }
}

/// Executes matching queries with intra-query parallelism over
/// [`ShardedColumns`]: every query fans out into one work item per shard,
/// and a batch of `q` queries schedules `q × S` items on the pool.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use knmatch_core::{BatchAnswer, BatchQuery, ShardedColumns, ShardedQueryEngine};
///
/// let ds = knmatch_core::paper::fig3_dataset();
/// let engine = ShardedQueryEngine::new(Arc::new(ShardedColumns::build(&ds, 2)));
/// let out = engine
///     .execute(&BatchQuery::KnMatch { query: vec![3.0, 7.0, 4.0], k: 2, n: 2 })
///     .unwrap();
/// let BatchAnswer::KnMatch(res) = &out.answer else { unreachable!() };
/// assert_eq!(res.ids(), vec![2, 1]); // same answer as the unsharded engine
/// assert_eq!(out.per_shard.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedQueryEngine {
    cols: Arc<ShardedColumns>,
    workers: usize,
}

impl ShardedQueryEngine {
    /// An engine over `cols` with one worker per available CPU.
    pub fn new(cols: Arc<ShardedColumns>) -> Self {
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(cols, workers)
    }

    /// An engine with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(cols: Arc<ShardedColumns>, workers: usize) -> Self {
        ShardedQueryEngine {
            cols,
            workers: workers.max(1),
        }
    }

    /// The shared sharded organisation.
    pub fn columns(&self) -> &Arc<ShardedColumns> {
        &self.cols
    }

    /// Executes one query across all shards on the pool.
    ///
    /// # Errors
    ///
    /// Per-query parameter validation against the global dimensions and
    /// cardinality; see [`KnMatchError`](crate::KnMatchError).
    pub fn execute(&self, query: &BatchQuery) -> Result<ShardedOutcome> {
        self.run(std::slice::from_ref(query))
            .pop()
            .expect("one result per query")
    }

    /// Runs `query` against shard `s` with `k` clamped to the shard
    /// cardinality, rebasing answer pids to global. Validation passed
    /// globally and shard parameters only clamp `k`, so an `Err` here is a
    /// runtime failure (deadline, cancellation, a panic caught at the
    /// shard-task boundary) — it fails this query's slot, not the batch.
    fn run_shard(
        &self,
        query: &BatchQuery,
        s: usize,
        scratch: &mut Scratch,
    ) -> Result<(BatchAnswer, AdStats)> {
        let shard = self.cols.shard(s);
        let local = clamp_k(query, shard.cardinality());
        isolate_panic(|| {
            let mut view: &SortedColumns = shard;
            let (answer, stats) = execute_batch_query(&mut view, &local, scratch)?;
            Ok((
                offset_answer(answer, self.cols.shard_start(s) as PointId),
                stats,
            ))
        })
    }
}

impl BatchEngine for ShardedQueryEngine {
    type Outcome = ShardedOutcome;

    fn workers(&self) -> usize {
        self.workers
    }

    /// All `q × S` shard-tasks share one pool, so a single query and a
    /// large batch both keep every worker busy. Invalid queries yield
    /// their validation error without spawning shard work; a shard task
    /// that fails or panics fails only its own query (first failing
    /// shard, in shard order, wins) while the rest of the batch
    /// completes. Every shard task of every query shares the batch's
    /// deadline clock and cancel flag.
    fn run_with(&self, queries: &[BatchQuery], opts: &BatchOptions) -> Vec<Result<ShardedOutcome>> {
        fan_out(
            queries,
            opts,
            self.workers,
            (self.cols.dims(), self.cols.cardinality()),
            self.cols.shard_count(),
            |query, s, scratch| self.run_shard(query, s, scratch),
        )
    }
}

/// `query` with its answer-set size clamped to the shard cardinality `c_s`
/// (a shard smaller than `k` ranks all of its points).
fn clamp_k(query: &BatchQuery, c_s: usize) -> BatchQuery {
    let mut q = query.clone();
    match &mut q {
        BatchQuery::KnMatch { k, .. } | BatchQuery::Frequent { k, .. } => *k = (*k).min(c_s),
        BatchQuery::EpsMatch { .. } => {}
    }
    q
}

/// Rebases every pid in `answer` from shard-local to global by adding the
/// shard's first global pid. Adding a constant preserves `(diff, pid)`
/// order, so rebased per-shard lists stay sorted.
fn offset_answer(answer: BatchAnswer, off: PointId) -> BatchAnswer {
    fn shift(r: &mut KnMatchResult, off: PointId) {
        for e in &mut r.entries {
            e.pid += off;
        }
    }
    match answer {
        BatchAnswer::KnMatch(mut r) => {
            shift(&mut r, off);
            BatchAnswer::KnMatch(r)
        }
        BatchAnswer::EpsMatch(mut r) => {
            shift(&mut r, off);
            BatchAnswer::EpsMatch(r)
        }
        BatchAnswer::Frequent(mut f) => {
            for lvl in &mut f.per_n {
                shift(lvl, off);
            }
            for e in &mut f.entries {
                e.pid += off;
            }
            BatchAnswer::Frequent(f)
        }
    }
}

/// The `(query × part)` fan-out shared by every engine whose answer is an
/// exact merge over independent parts (pid-range shards here, the
/// versioned index's runs): queries are validated against the global
/// `(dims, cardinality)` shape, every valid query contributes `parts`
/// tasks to one [`run_batch`] pool, and each query's per-part outcomes
/// regroup — first failing part, in part order, wins — into one
/// [`merge_shards`] call. Generic over the per-part closure, so each
/// caller monomorphises to its own copy.
pub(crate) fn fan_out<F>(
    queries: &[BatchQuery],
    opts: &BatchOptions,
    workers: usize,
    (dims, cardinality): (usize, usize),
    parts: usize,
    run_part: F,
) -> Vec<Result<ShardedOutcome>>
where
    F: Fn(&BatchQuery, usize, &mut Scratch) -> Result<(BatchAnswer, AdStats)> + Sync,
{
    let validity: Vec<Result<()>> = queries
        .iter()
        .map(|q| q.validate(dims, cardinality))
        .collect();
    let mut tasks = Vec::new();
    for (qi, v) in validity.iter().enumerate() {
        if v.is_ok() {
            tasks.extend((0..parts).map(|p| (qi, p)));
        }
    }
    let control = opts.arm();
    let outs = run_batch(
        workers,
        tasks.len(),
        || control.scratch(),
        |scratch, t| {
            let (qi, p) = tasks[t];
            let out = run_part(&queries[qi], p, scratch);
            note_outcome(&control, &out);
            out
        },
    );
    // Tasks were pushed query-major, so each valid query owns the next
    // `parts` outputs in order.
    let mut outs = outs.into_iter();
    validity
        .into_iter()
        .enumerate()
        .map(|(qi, v)| {
            v.and_then(|()| {
                let mut answers = Vec::with_capacity(parts);
                let mut first_err = None;
                for part in outs.by_ref().take(parts) {
                    match part {
                        Ok(x) => answers.push(x),
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(merge_shards(&queries[qi], answers)),
                }
            })
        })
        .collect()
}

/// Merges the per-shard outcomes of one query into the global answer plus
/// the cost split. The versioned index's sealed runs merge exactly like
/// shards (keys play the role of global pids).
fn merge_shards(query: &BatchQuery, parts: Vec<(BatchAnswer, AdStats)>) -> ShardedOutcome {
    let per_shard: Vec<AdStats> = parts.iter().map(|(_, s)| *s).collect();
    let mut stats = AdStats::default();
    for s in &per_shard {
        stats.accumulate(s);
    }
    let answers = parts.into_iter().map(|(a, _)| a);
    let answer = match query {
        BatchQuery::KnMatch { k, n, .. } => {
            let lists = answers.map(|a| match a {
                BatchAnswer::KnMatch(r) => r,
                other => unreachable!("shard returned {other:?} for a KnMatch query"),
            });
            BatchAnswer::KnMatch(merge_kn(lists, Some(*k), *n))
        }
        BatchQuery::EpsMatch { n, .. } => {
            let lists = answers.map(|a| match a {
                BatchAnswer::EpsMatch(r) => r,
                other => unreachable!("shard returned {other:?} for an EpsMatch query"),
            });
            BatchAnswer::EpsMatch(merge_kn(lists, None, *n))
        }
        BatchQuery::Frequent { k, n0, n1, .. } => {
            let lists = answers.map(|a| match a {
                BatchAnswer::Frequent(f) => f,
                other => unreachable!("shard returned {other:?} for a Frequent query"),
            });
            BatchAnswer::Frequent(merge_frequent(lists, *k, *n0, *n1))
        }
    };
    ShardedOutcome {
        answer,
        stats,
        per_shard,
    }
}

/// Concatenates per-shard entry lists and keeps the `k` smallest by the
/// canonical `(diff, pid)` key (all of them for ε queries, `k = None`).
fn merge_kn(
    lists: impl Iterator<Item = KnMatchResult>,
    k: Option<usize>,
    n: usize,
) -> KnMatchResult {
    let mut entries: Vec<MatchEntry> = lists.flat_map(|r| r.entries).collect();
    entries.sort_unstable_by(|a, b| a.diff.total_cmp(&b.diff).then(a.pid.cmp(&b.pid)));
    if let Some(k) = k {
        entries.truncate(k);
    }
    KnMatchResult { n, entries }
}

/// Merges per-shard frequent results: each per-n level merges as a
/// k-n-match, then frequencies are recounted over the merged `k`-sized
/// sets (Definition 4) and ranked with the shared [`rank_frequent`] —
/// exactly what the unsharded `frequent_core` computes.
fn merge_frequent(
    lists: impl Iterator<Item = FrequentResult>,
    k: usize,
    n0: usize,
    n1: usize,
) -> FrequentResult {
    let levels = n1 - n0 + 1;
    let mut by_level: Vec<Vec<KnMatchResult>> = (0..levels).map(|_| Vec::new()).collect();
    for f in lists {
        debug_assert_eq!(f.per_n.len(), levels);
        for (i, lvl) in f.per_n.into_iter().enumerate() {
            by_level[i].push(lvl);
        }
    }
    let per_n: Vec<KnMatchResult> = by_level
        .into_iter()
        .enumerate()
        .map(|(i, lvls)| merge_kn(lvls.into_iter(), Some(k), n0 + i))
        .collect();
    let mut counts: HashMap<PointId, u32> = HashMap::new();
    for lvl in &per_n {
        for e in &lvl.entries {
            *counts.entry(e.pid).or_insert(0) += 1;
        }
    }
    let mut pairs: Vec<(PointId, u32)> = counts.into_iter().collect();
    pairs.sort_unstable_by_key(|&(pid, _)| pid);
    FrequentResult {
        range: (n0, n1),
        entries: rank_frequent(&pairs, k),
        per_n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::error::KnMatchError;

    fn fig3_sharded(shards: usize) -> ShardedQueryEngine {
        let ds = crate::paper::fig3_dataset();
        ShardedQueryEngine::with_workers(Arc::new(ShardedColumns::build(&ds, shards)), 2)
    }

    fn fig3_batch() -> Vec<BatchQuery> {
        vec![
            BatchQuery::KnMatch {
                query: vec![3.0, 7.0, 4.0],
                k: 2,
                n: 2,
            },
            BatchQuery::Frequent {
                query: vec![3.0, 7.0, 4.0],
                k: 2,
                n0: 1,
                n1: 3,
            },
            BatchQuery::EpsMatch {
                query: vec![3.0, 7.0, 4.0],
                eps: 1.6,
                n: 2,
            },
        ]
    }

    #[test]
    fn partition_is_contiguous_and_even() {
        let ds = crate::paper::fig3_dataset();
        for s in 1..=5 {
            let cols = ShardedColumns::build_with_workers(&ds, s, 1);
            assert_eq!(cols.shard_count(), s);
            assert_eq!(cols.shard_start(0), 0);
            let mut total = 0;
            for i in 0..s {
                assert_eq!(cols.shard_start(i), total);
                total += cols.shard(i).cardinality();
                // Even split: sizes differ by at most one.
                assert!(cols.shard(i).cardinality() >= 5 / s);
                assert!(cols.shard(i).cardinality() <= 5 / s + 1);
            }
            assert_eq!(total, cols.cardinality());
        }
    }

    #[test]
    fn shard_count_clamps_to_cardinality() {
        let ds = crate::paper::fig3_dataset();
        assert_eq!(ShardedColumns::build(&ds, 0).shard_count(), 1);
        assert_eq!(ShardedColumns::build(&ds, 99).shard_count(), 5);
    }

    #[test]
    fn shard_columns_match_direct_range_builds() {
        let ds = crate::paper::fig3_dataset();
        let cols = ShardedColumns::build_with_workers(&ds, 2, 3);
        for s in 0..2 {
            let lo = cols.shard_start(s);
            let hi = lo + cols.shard(s).cardinality();
            let direct = SortedColumns::build_range(&ds, lo, hi, 1);
            for dim in 0..ds.dims() {
                assert_eq!(
                    cols.shard(s).column(dim).to_vec(),
                    direct.column(dim).to_vec()
                );
            }
        }
    }

    #[test]
    fn fig3_answers_match_unsharded_engine() {
        let ds = crate::paper::fig3_dataset();
        let plain = QueryEngine::with_workers(Arc::new(SortedColumns::build(&ds)), 1);
        let want: Vec<_> = plain
            .run(&fig3_batch())
            .into_iter()
            .map(|r| r.unwrap().0)
            .collect();
        for shards in 1..=5 {
            let engine = fig3_sharded(shards);
            for (got, want) in engine.run(&fig3_batch()).iter().zip(&want) {
                let got = got.as_ref().unwrap();
                assert_eq!(&got.answer, want, "shards={shards}");
                assert_eq!(got.per_shard.len(), shards);
            }
        }
    }

    #[test]
    fn single_shard_stats_match_unsharded_engine() {
        let ds = crate::paper::fig3_dataset();
        let plain = QueryEngine::with_workers(Arc::new(SortedColumns::build(&ds)), 1);
        let engine = fig3_sharded(1);
        for (got, want) in engine
            .run(&fig3_batch())
            .iter()
            .zip(plain.run(&fig3_batch()))
        {
            let got = got.as_ref().unwrap();
            let (want_answer, want_stats) = want.unwrap();
            assert_eq!(got.answer, want_answer);
            assert_eq!(got.stats, want_stats);
            assert_eq!(got.per_shard, vec![want_stats]);
        }
    }

    #[test]
    fn invalid_queries_fail_individually() {
        let engine = fig3_sharded(2);
        let mut queries = fig3_batch();
        queries.push(BatchQuery::KnMatch {
            query: vec![1.0],
            k: 1,
            n: 1,
        });
        queries.push(BatchQuery::KnMatch {
            query: vec![0.0; 3],
            k: 9,
            n: 1,
        });
        queries.push(BatchQuery::EpsMatch {
            query: vec![0.0; 3],
            eps: -1.0,
            n: 1,
        });
        let results = engine.run(&queries);
        assert!(results[..3].iter().all(Result::is_ok));
        assert!(matches!(
            results[3],
            Err(KnMatchError::DimensionMismatch { .. })
        ));
        // k validates against the *global* cardinality (5), not a shard's.
        assert!(matches!(results[4], Err(KnMatchError::InvalidK { .. })));
        assert!(matches!(
            results[5],
            Err(KnMatchError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn k_larger_than_a_shard_is_clamped_not_rejected() {
        // 5 points over 3 shards → shard sizes 2, 2, 1; k = 4 exceeds every
        // shard but must still merge to the global top 4.
        let ds = crate::paper::fig3_dataset();
        let engine = ShardedQueryEngine::with_workers(Arc::new(ShardedColumns::build(&ds, 3)), 1);
        let q = BatchQuery::KnMatch {
            query: vec![3.0, 7.0, 4.0],
            k: 4,
            n: 2,
        };
        let got = engine.execute(&q).unwrap();
        let mut plain = SortedColumns::build(&ds);
        let (want, _) = crate::ad::k_n_match_ad(&mut plain, &[3.0, 7.0, 4.0], 4, 2).unwrap();
        assert_eq!(got.answer, BatchAnswer::KnMatch(want));
    }

    #[test]
    fn accessors_and_empty_batch() {
        let engine = fig3_sharded(2);
        assert!(engine.run(&[]).is_empty());
        assert_eq!(engine.workers(), 2);
        assert_eq!(engine.columns().cardinality(), 5);
        assert_eq!(engine.columns().dims(), 3);
        assert!(ShardedQueryEngine::new(engine.columns().clone()).workers() >= 1);
        assert_eq!(
            ShardedQueryEngine::with_workers(engine.columns().clone(), 0).workers(),
            1
        );
    }

    #[test]
    fn deadlines_fail_queries_individually_and_generous_ones_change_nothing() {
        let engine = fig3_sharded(2);
        let opts = BatchOptions {
            deadline: Some(std::time::Duration::ZERO),
            ..BatchOptions::default()
        };
        for r in engine.run_with(&fig3_batch(), &opts) {
            assert_eq!(r, Err(KnMatchError::DeadlineExceeded));
        }
        let opts = BatchOptions {
            deadline: Some(std::time::Duration::from_secs(3600)),
            ..BatchOptions::default()
        };
        assert_eq!(
            engine.run_with(&fig3_batch(), &opts),
            engine.run(&fig3_batch())
        );
    }

    #[test]
    fn totals_sum_per_shard_stats() {
        let engine = fig3_sharded(3);
        let out = engine
            .execute(&BatchQuery::KnMatch {
                query: vec![3.0, 7.0, 4.0],
                k: 2,
                n: 2,
            })
            .unwrap();
        let mut sum = AdStats::default();
        for s in &out.per_shard {
            sum.accumulate(s);
        }
        assert_eq!(out.stats, sum);
        assert_eq!(out.stats.locate_probes, 9); // 3 dims × 3 shards
    }
}
