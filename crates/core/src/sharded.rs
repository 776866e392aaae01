//! Unit tests of the `S`-run layout (`VersionedIndex::from_dataset`'s
//! split) and of the run list's batch contract at `S > 1`. Test-only: the
//! per-run fan-out and merge that lived here are gone (a snapshot is one
//! AD walk over all its runs, see `versioned`); the tests keep their names.

#[cfg(test)]
mod tests {
    use crate::ad::AdStats;
    use crate::columns::SortedColumns;
    use crate::engine::{execute_batch_query, BatchAnswer, BatchEngine, BatchOptions, BatchQuery};
    use crate::error::KnMatchError;
    use crate::point::{Dataset, PointId};
    use crate::scratch::Scratch;
    use crate::versioned::{VersionedIndex, DEFAULT_MERGE_THRESHOLD};

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

    /// Figure 3's batch through the sequential AD dispatch on plain
    /// `&SortedColumns`: the reference every run layout answers like.
    fn fig3_sequential() -> Vec<(BatchAnswer, AdStats)> {
        let cols = SortedColumns::build(&crate::paper::fig3_dataset());
        let mut scratch = Scratch::new();
        fig3_batch()
            .iter()
            .map(|q| execute_batch_query(&mut &cols, q, &mut scratch).unwrap())
            .collect()
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
        let want: Vec<_> = fig3_sequential().into_iter().map(|(a, _)| a).collect();
        for shards in 1..=5 {
            let engine = fig3_sharded(shards);
            assert_eq!(engine.snapshot().run_count(), shards);
            for (got, want) in engine.run(&fig3_batch()).iter().zip(&want) {
                assert_eq!(&got.as_ref().unwrap().0, want, "shards={shards}");
            }
        }
    }

    #[test]
    fn single_shard_stats_match_unsharded_engine() {
        let engine = fig3_sharded(1);
        for (got, want) in engine.run(&fig3_batch()).iter().zip(fig3_sequential()) {
            assert_eq!(got.as_ref().unwrap(), &want);
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
        // k validates against the *global* cardinality (5), not a run's.
        assert!(matches!(results[4], Err(KnMatchError::InvalidK { .. })));
        assert!(matches!(
            results[5],
            Err(KnMatchError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn k_larger_than_a_shard_is_clamped_not_rejected() {
        // 5 points over 3 runs → run sizes 2, 2, 1; k = 4 exceeds every
        // run but the walk must still rank the global top 4.
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
        assert_eq!(got.0, BatchAnswer::KnMatch(want));
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
        // invalid query is cancelled — at one run what the unit test
        // `engine::tests::fail_fast_cancels_queries_after_a_failure` pins.
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
}
