//! The exact `(diff, pid)` merge behind intra-query parallelism: the
//! per-kind merge functions that [`EpochSnapshot`](crate::EpochSnapshot)
//! regroups its `(query × run)` fan-out with.
//!
//! The batch [`QueryEngine`](crate::QueryEngine) parallelises *across*
//! queries; one giant query still walks its frontier on a single core. A
//! [`VersionedIndex`](crate::VersionedIndex) holding more than one run —
//! seeded that way by [`from_dataset`](crate::VersionedIndex::from_dataset)
//! or grown by sealing — runs the unmodified AD core on every run
//! concurrently (one `run_batch` work item per run, per-worker
//! `Scratch` reuse) and merges the per-run streams here. Each run is a
//! shard of the key space; this module keeps the word.
//!
//! # Why the merge is exact
//!
//! The n-match difference of a point depends only on that point's own
//! attributes (Definition 1), so partitioning the points partitions the
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
//! - **k-n-match**: concatenate per-shard entry lists (pids already
//!   global), sort by `(diff, pid)`, keep `k`.
//! - **ε-n-match**: concatenate and sort; thresholds are per-point, no
//!   truncation.
//! - **frequent k-n-match**: merge each per-n level as a k-n-match, then
//!   recount frequencies over the merged `k`-sized sets (Definition 4) and
//!   rank with the shared [`rank_frequent`].
//!
//! Per-shard `k` is clamped to the shard cardinality by the caller (a
//! shard holding fewer than `k` points ranks everything it has), and
//! query validation runs once against the *global* dimensions and
//! cardinality.
//!
//! # Cost accounting
//!
//! Each shard's [`AdStats`] is whatever its part closure reports — for a
//! run without tombstones, bit-identical to running the sequential AD
//! core on that run's columns alone. [`ShardedOutcome`] carries them per
//! shard plus their total. The total exceeds an unsharded run's stats
//! (every shard seeds `2d` cursors and walks to its own stop condition);
//! with one shard answers *and* stats are bit-identical to
//! [`QueryEngine`](crate::QueryEngine).

use std::collections::HashMap;

use crate::ad::AdStats;
use crate::engine::{BatchAnswer, BatchOutcome, BatchQuery};
use crate::point::PointId;
use crate::result::{rank_frequent, FrequentResult, KnMatchResult, MatchEntry};

/// The answer of one query merged over shards: the merged [`BatchAnswer`]
/// (bit-identical to the unsharded engine's) plus the cost split.
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

/// Merges the per-shard outcomes of one query into the global answer plus
/// the cost split.
pub(crate) fn merge_shards(
    query: &BatchQuery,
    parts: Vec<(BatchAnswer, AdStats)>,
) -> ShardedOutcome {
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
    use crate::columns::SortedColumns;
    use crate::engine::{BatchEngine, BatchOptions, QueryEngine};
    use crate::error::KnMatchError;
    use crate::point::Dataset;
    use crate::versioned::{VersionedIndex, DEFAULT_MERGE_THRESHOLD};
    use std::sync::Arc;

    /// Figure 3's five points laid out as `shards` runs, two workers.
    fn fig3_sharded(shards: usize) -> VersionedIndex {
        let ds = crate::paper::fig3_dataset();
        VersionedIndex::from_dataset(&ds, shards, 2, DEFAULT_MERGE_THRESHOLD).unwrap()
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
        for s in 1..=5 {
            let snap = fig3_sharded(s).snapshot();
            assert_eq!(snap.run_count(), s);
            let mut next_key = 0;
            for i in 0..s {
                let (keys, cols) = snap.run_parts(i);
                // Contiguous: each run continues where the last ended.
                let want: Vec<PointId> = (next_key..next_key + keys.len() as PointId).collect();
                assert_eq!(keys, want);
                next_key += keys.len() as PointId;
                assert_eq!(cols.cardinality(), keys.len());
                // Even split: sizes differ by at most one.
                assert!(keys.len() >= 5 / s);
                assert!(keys.len() <= 5 / s + 1);
            }
            assert_eq!(next_key as usize, snap.live());
        }
    }

    #[test]
    fn shard_count_clamps_to_cardinality() {
        assert_eq!(fig3_sharded(0).snapshot().run_count(), 1);
        assert_eq!(fig3_sharded(99).snapshot().run_count(), 5);
    }

    #[test]
    fn shard_columns_match_direct_range_builds() {
        let ds = crate::paper::fig3_dataset();
        let snap = VersionedIndex::from_dataset(&ds, 2, 3, DEFAULT_MERGE_THRESHOLD)
            .unwrap()
            .snapshot();
        for s in 0..2 {
            let (keys, cols) = snap.run_parts(s);
            let (lo, hi) = (keys[0] as usize, keys[keys.len() - 1] as usize + 1);
            let sub_rows: Vec<&[f64]> = (lo..hi).map(|pid| ds.point(pid as PointId)).collect();
            let direct = SortedColumns::build(&Dataset::from_rows(&sub_rows).unwrap());
            for dim in 0..ds.dims() {
                assert_eq!(cols.column(dim).to_vec(), direct.column(dim).to_vec());
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
        let engine = VersionedIndex::from_dataset(&ds, 3, 1, DEFAULT_MERGE_THRESHOLD).unwrap();
        let q = BatchQuery::KnMatch {
            query: vec![3.0, 7.0, 4.0],
            k: 4,
            n: 2,
        };
        let got = engine.run(std::slice::from_ref(&q)).remove(0).unwrap();
        let mut plain = SortedColumns::build(&ds);
        let (want, _) = crate::ad::k_n_match_ad(&mut plain, &[3.0, 7.0, 4.0], 4, 2).unwrap();
        assert_eq!(got.answer, BatchAnswer::KnMatch(want));
    }

    #[test]
    fn accessors_and_empty_batch() {
        let engine = fig3_sharded(2);
        assert!(engine.run(&[]).is_empty());
        assert_eq!(engine.workers(), 2);
        assert_eq!(engine.live(), 5);
        assert_eq!(engine.dims(), 3);
        let ds = crate::paper::fig3_dataset();
        assert_eq!(
            VersionedIndex::from_dataset(&ds, 2, 0, DEFAULT_MERGE_THRESHOLD)
                .unwrap()
                .workers(),
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
    fn fail_fast_sees_an_invalid_query_like_any_other_failure() {
        // One worker runs tasks in input order, so everything after the
        // invalid query is cancelled — at one run what `QueryEngine` does
        // (`engine::tests::fail_fast_cancels_queries_after_a_failure`).
        let mut queries = fig3_batch();
        let query = vec![1.0];
        queries.insert(1, BatchQuery::KnMatch { query, k: 1, n: 1 });
        let opts = BatchOptions {
            fail_fast: true,
            ..BatchOptions::default()
        };
        let ds = crate::paper::fig3_dataset();
        for shards in [1, 3] {
            let engine = VersionedIndex::from_dataset(&ds, shards, 1, 4).unwrap();
            let got = engine.run_with(&queries, &opts);
            assert!(got[0].is_ok(), "shards={shards}");
            assert!(matches!(
                got[1],
                Err(KnMatchError::DimensionMismatch { .. })
            ));
            assert_eq!(
                got[2..],
                [Err(KnMatchError::Cancelled), Err(KnMatchError::Cancelled)]
            );
        }
    }

    #[test]
    fn totals_sum_per_shard_stats() {
        let engine = fig3_sharded(3);
        let out = engine.run(&fig3_batch()[..1]).remove(0).unwrap();
        let mut sum = AdStats::default();
        for s in &out.per_shard {
            sum.accumulate(s);
        }
        assert_eq!(out.stats, sum);
        assert_eq!(out.stats.locate_probes, 9); // 3 dims × 3 shards
    }
}
