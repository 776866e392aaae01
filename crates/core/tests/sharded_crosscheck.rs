//! Cross-check: a `VersionedIndex` seeded with S runs must answer
//! bit-identically to sequential AD over one `SortedColumns` (the batch
//! dispatch on `&SortedColumns`) for every query kind, run
//! count, and worker count — including on datasets stuffed with duplicate
//! values, where answer-set boundaries are decided purely by the
//! canonical `(diff, pid)` tie-break. The walk is one AD frontier over
//! all S·d sorted lists with a global stop, so on tombstone-free
//! snapshots it pops exactly the attributes the one-run walk pops
//! (`heap_pops` equal, `S·d` locate probes, at most two retrieved but
//! unpopped attributes per list); `S = 1` must reproduce the reference's
//! `AdStats` exactly, and an index that *reached* the same key ranges
//! through inserts and seals must be indistinguishable from one *built*
//! with them. Theorem 3.2 holds as a count from the data: `heap_pops` is
//! the number of attributes within the answer's ε, tombstoned rows
//! included.

use knmatch_core::{
    execute_batch_query, AdStats, BatchAnswer, BatchEngine, BatchQuery, Dataset, KnMatchError,
    PointId, Scratch, SortedColumns, VersionWriter, VersionedIndex, DEFAULT_MERGE_THRESHOLD,
};

/// SplitMix64, kept local (knmatch-core has no dev-dependencies).
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A value from a tiny grid — exact duplicates everywhere, so answer
    /// boundaries are almost always tied.
    fn gridval(&mut self) -> f64 {
        (self.next_u64() % 5) as f64 * 0.25
    }
}

fn rows(rng: &mut TestRng, c: usize, d: usize, duplicate_heavy: bool) -> Vec<Vec<f64>> {
    (0..c)
        .map(|_| {
            (0..d)
                .map(|_| {
                    if duplicate_heavy {
                        rng.gridval()
                    } else {
                        rng.f64()
                    }
                })
                .collect()
        })
        .collect()
}

/// Every query kind over the (k, n-range) grid; on duplicate-heavy data
/// the query points come from the same grid so differences tie exactly,
/// and ε thresholds land exactly on attainable differences.
fn workload(rng: &mut TestRng, c: usize, d: usize, duplicate_heavy: bool) -> Vec<BatchQuery> {
    let point = |rng: &mut TestRng| -> Vec<f64> {
        (0..d)
            .map(|_| {
                if duplicate_heavy {
                    rng.gridval()
                } else {
                    rng.f64()
                }
            })
            .collect()
    };
    let mut out = Vec::new();
    for k in [1, c.div_ceil(2), c] {
        for n0 in [1, d.div_ceil(2)] {
            for n1 in [n0, d] {
                let query = point(rng);
                out.push(BatchQuery::Frequent {
                    query: query.clone(),
                    k,
                    n0,
                    n1,
                });
                out.push(BatchQuery::KnMatch {
                    query: query.clone(),
                    k,
                    n: n1,
                });
                out.push(BatchQuery::EpsMatch {
                    query,
                    eps: if duplicate_heavy { 0.25 } else { rng.f64() },
                    n: n0,
                });
            }
        }
    }
    out
}

/// The reference: each query through the sequential AD dispatch on plain
/// `&SortedColumns` over `data`, one scratch reused.
fn sequential(
    data: &[Vec<f64>],
    queries: &[BatchQuery],
) -> Vec<Result<(BatchAnswer, AdStats), KnMatchError>> {
    let cols = SortedColumns::from_rows(data).unwrap();
    let mut scratch = Scratch::new();
    queries
        .iter()
        .map(|q| execute_batch_query(&mut &cols, q, &mut scratch))
        .collect()
}

/// The engine under test: `ds` laid out as `shards` initial runs.
fn sharded(ds: &Dataset, shards: usize, workers: usize) -> VersionedIndex {
    VersionedIndex::from_dataset(ds, shards, workers, DEFAULT_MERGE_THRESHOLD).unwrap()
}

/// The `[lo, hi)` key ranges of the even split of `c` points over
/// `shards` runs (clamped to `1..=c`): the first `c mod S` hold one extra.
fn even_split(c: usize, shards: usize) -> Vec<(usize, usize)> {
    let s = shards.clamp(1, c);
    let mut lo = 0;
    (0..s)
        .map(|i| {
            let hi = lo + c / s + usize::from(i < c % s);
            (std::mem::replace(&mut lo, hi), hi)
        })
        .collect()
}

#[test]
fn sharded_answers_match_unsharded_for_all_shards_workers_and_kinds() {
    let mut rng = TestRng(0x5AAD_0001);
    for duplicate_heavy in [false, true] {
        for (c, d) in [(1, 1), (9, 2), (26, 4), (40, 3)] {
            let data = rows(&mut rng, c, d, duplicate_heavy);
            let queries = workload(&mut rng, c, d, duplicate_heavy);
            let want: Vec<_> = sequential(&data, &queries)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            let ds = Dataset::from_rows(&data).unwrap();
            for shards in [1, 2, 3, 4, 7] {
                for workers in [1, 2, 4] {
                    let engine = sharded(&ds, shards, workers);
                    assert_eq!(engine.snapshot().run_count(), shards.min(c));
                    let got = engine.run(&queries);
                    assert_eq!(got.len(), want.len());
                    for (i, (g, (want_answer, want_stats))) in got.iter().zip(&want).enumerate() {
                        let (answer, stats) = g.as_ref().unwrap();
                        assert_eq!(
                            answer, want_answer,
                            "dup={duplicate_heavy} c={c} d={d} shards={shards} \
                             workers={workers} query #{i}: {:?}",
                            queries[i]
                        );
                        if shards.min(c) == 1 {
                            // One run is sequential AD, stats and all.
                            assert_eq!(stats, want_stats);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn tombstone_free_runs_pop_exactly_what_one_run_pops() {
    // After the plateau drain a walk has popped every attribute whose
    // difference is within the answer's ε — a function of the data, not of
    // how the points are split over runs. The split costs only seeding:
    // one locate probe per list, and the up-to-two attributes per list
    // that sit retrieved in the frontier when the walk stops.
    let mut rng = TestRng(0x5AAD_0002);
    for duplicate_heavy in [false, true] {
        let (c, d) = (23, 3);
        let data = rows(&mut rng, c, d, duplicate_heavy);
        let queries = workload(&mut rng, c, d, duplicate_heavy);
        let ds = Dataset::from_rows(&data).unwrap();
        let want = sequential(&data, &queries);
        for shards in [1, 2, 3, 5] {
            let got = sharded(&ds, shards, 4).run(&queries);
            for (qi, (g, w)) in got.iter().zip(&want).enumerate() {
                let ctx = format!("dup={duplicate_heavy} shards={shards} query #{qi}");
                let ((answer, stats), (want_answer, one_run)) =
                    (g.as_ref().unwrap(), w.as_ref().unwrap());
                assert_eq!(answer, want_answer, "{ctx}");
                if shards == 1 {
                    assert_eq!(stats, one_run, "{ctx}");
                }
                assert_eq!(stats.heap_pops, one_run.heap_pops, "{ctx}");
                assert_eq!(stats.locate_probes, (shards * d) as u64, "{ctx}");
                assert!(
                    stats.attributes_retrieved - stats.heap_pops <= (2 * d * shards) as u64,
                    "{ctx}: {stats:?}"
                );
            }
        }
    }
}

/// Theorem 3.2's count, taken from the data: the attributes within ε of
/// `query` over every slot a walk meets, dead rows included, where ε is
/// the k-th smallest n1-match difference among the live rows.
fn attributes_within_kth(
    slots: &[Vec<f64>],
    live: impl Fn(usize) -> bool,
    query: &[f64],
    k: usize,
    n1: usize,
) -> u64 {
    let mut nth: Vec<f64> = (0..slots.len())
        .filter(|&slot| live(slot))
        .map(|slot| {
            let mut diffs: Vec<f64> = slots[slot]
                .iter()
                .zip(query)
                .map(|(v, q)| (v - q).abs())
                .collect();
            diffs.sort_unstable_by(f64::total_cmp);
            diffs[n1 - 1]
        })
        .collect();
    nth.sort_unstable_by(f64::total_cmp);
    let eps = nth[k - 1];
    slots
        .iter()
        .flat_map(|row| row.iter().zip(query))
        .filter(|(v, q)| (*v - *q).abs() <= eps)
        .count() as u64
}

#[test]
fn heap_pops_equal_the_attributes_within_the_kth_difference() {
    // Theorem 3.2 as a count from the data: a k-n-match (and a frequent
    // [n0, n1]) walk pops exactly the attributes within the answer's
    // ε — one pop too many or too few fails — on plain columns and on
    // S-run snapshots whose tombstoned rows the walk still meets. Each
    // list retrieves at most two attributes it never pops.
    let mut rng = TestRng(0x5AAD_0006);
    for duplicate_heavy in [false, true] {
        let (c, d) = (150, 5);
        let data = rows(&mut rng, c, d, duplicate_heavy);
        let ds = Dataset::from_rows(&data).unwrap();
        let dead = |key: usize| key % 7 == 3;
        let live = (0..c).filter(|&key| !dead(key)).count();
        let points = rows(&mut rng, 4, d, duplicate_heavy);
        let queries = |rows: usize| -> Vec<BatchQuery> {
            let mut out = Vec::new();
            for query in &points {
                for k in [1, 10, rows] {
                    for n1 in 1..=d {
                        out.push(BatchQuery::KnMatch {
                            query: query.clone(),
                            k,
                            n: n1,
                        });
                        out.push(BatchQuery::Frequent {
                            query: query.clone(),
                            k,
                            n0: n1.div_ceil(2),
                            n1,
                        });
                    }
                }
            }
            out
        };
        let check = |(answer, stats): &(BatchAnswer, AdStats),
                     q: &BatchQuery,
                     runs: usize,
                     live: &dyn Fn(usize) -> bool| {
            let (query, k, n1) = match q {
                BatchQuery::KnMatch { query, k, n } => (query, *k, *n),
                BatchQuery::Frequent { query, k, n1, .. } => (query, *k, *n1),
                BatchQuery::EpsMatch { .. } => unreachable!("no ε queries here"),
            };
            let ctx = format!("dup={duplicate_heavy} runs={runs} {q:?} -> {answer:?}");
            assert_eq!(
                stats.heap_pops,
                attributes_within_kth(&data, live, query, k, n1),
                "{ctx}"
            );
            assert!(
                stats.attributes_retrieved - stats.heap_pops <= (2 * runs * d) as u64,
                "{ctx}: {stats:?}"
            );
        };

        // Plain sorted columns, every row live.
        let all = queries(c);
        for (q, got) in all.iter().zip(sequential(&data, &all)) {
            check(&got.unwrap(), q, 1, &|_| true);
        }
        // 1-, 3- and 9-run snapshots with every seventh key removed.
        let some = queries(live);
        for runs in [1, 3, 9] {
            let engine = sharded(&ds, runs, 2);
            for key in (0..c).filter(|&key| dead(key)) {
                engine.remove(key as PointId).unwrap();
            }
            let stats = engine.version_stats();
            assert_eq!((stats.runs, stats.live), (runs, live));
            assert_eq!(stats.tombstones, c - live);
            for (q, got) in some.iter().zip(engine.run(&some)) {
                check(&got.unwrap(), q, runs, &|slot| !dead(slot));
            }
        }
    }
}

#[test]
fn merged_eps_answers_enumerate_every_shard_hit() {
    // ε-n-match has no k truncation: the answer must be the exact union
    // of every run's hits, sorted by (diff, pid) — checked against a
    // brute-force filter.
    let mut rng = TestRng(0x5AAD_0003);
    let (c, d) = (31, 3);
    let data = rows(&mut rng, c, d, true);
    let ds = Dataset::from_rows(&data).unwrap();
    let query: Vec<f64> = (0..d).map(|_| rng.gridval()).collect();
    let q = BatchQuery::EpsMatch {
        query: query.clone(),
        eps: 0.5,
        n: 2,
    };
    let out = sharded(&ds, 3, 2).run(&[q]).remove(0).unwrap();
    let BatchAnswer::EpsMatch(res) = &out.0 else {
        panic!("wrong variant")
    };
    let mut want: Vec<u32> = (0..c as u32)
        .filter(|&pid| {
            let mut diffs: Vec<f64> = data[pid as usize]
                .iter()
                .zip(&query)
                .map(|(a, b)| (a - b).abs())
                .collect();
            diffs.sort_unstable_by(f64::total_cmp);
            diffs[1] <= 0.5
        })
        .collect();
    want.sort_unstable();
    let mut got = res.ids();
    got.sort_unstable();
    assert_eq!(got, want);
    assert!(res
        .entries
        .windows(2)
        .all(|w| (w[0].diff, w[0].pid) < (w[1].diff, w[1].pid)
            || (w[0].diff == w[1].diff && w[0].pid < w[1].pid)));
}

#[test]
fn sharded_errors_match_unsharded_validation() {
    let mut rng = TestRng(0x5AAD_0004);
    let data = rows(&mut rng, 10, 3, false);
    let engine = sharded(&Dataset::from_rows(&data).unwrap(), 4, 2);
    let bad = vec![
        BatchQuery::KnMatch {
            query: vec![0.5; 2],
            k: 1,
            n: 1,
        },
        BatchQuery::KnMatch {
            query: vec![0.5; 3],
            k: 11,
            n: 1,
        },
        BatchQuery::Frequent {
            query: vec![0.5; 3],
            k: 1,
            n0: 2,
            n1: 1,
        },
        BatchQuery::EpsMatch {
            query: vec![0.5; 3],
            eps: f64::NAN,
            n: 1,
        },
    ];
    let results = engine.run(&bad);
    assert!(matches!(
        results[0],
        Err(KnMatchError::DimensionMismatch { .. })
    ));
    assert!(matches!(results[1], Err(KnMatchError::InvalidK { .. })));
    assert!(matches!(results[2], Err(KnMatchError::InvalidRange { .. })));
    assert!(matches!(
        results[3],
        Err(KnMatchError::InvalidEpsilon { .. })
    ));
}

#[test]
fn built_runs_equal_runs_reached_by_insert_and_seal() {
    // One engine: laying the dataset out as S runs up front and arriving
    // at the same S key ranges through the write path are the same
    // snapshot — identical answers *and* identical AdStats.
    let mut rng = TestRng(0x5AAD_0005);
    for duplicate_heavy in [false, true] {
        let (c, d) = (29, 3);
        let data = rows(&mut rng, c, d, duplicate_heavy);
        let queries = workload(&mut rng, c, d, duplicate_heavy);
        let ds = Dataset::from_rows(&data).unwrap();
        for shards in [1, 2, 3, 4, 7] {
            let built = sharded(&ds, shards, 2);
            // A threshold above c keeps every range in the delta until
            // its explicit seal.
            let grown = VersionedIndex::new(d, 2, c + 1).unwrap();
            for (lo, hi) in even_split(c, shards) {
                for (key, row) in (lo..hi).zip(&data[lo..hi]) {
                    grown.insert(key as PointId, row).unwrap();
                }
                grown.seal().unwrap();
            }
            assert_eq!(grown.version_stats().runs, shards);
            assert_eq!(
                built.run(&queries),
                grown.run(&queries),
                "dup={duplicate_heavy} shards={shards}"
            );
        }
    }
}
