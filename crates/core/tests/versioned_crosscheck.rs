//! Cross-check: a pinned [`EpochSnapshot`] must answer every query kind
//! bit-identically to a from-scratch [`SortedColumns`] rebuild over the
//! snapshot's live rows at that epoch — across random interleavings of
//! inserts, removes, updates, seals and compactions, for every worker
//! count, merge timing and initial run count, and while a writer thread
//! is mutating the index concurrently — and on the layouts only the write
//! path produces: interleaved key ranges, mostly and fully dead runs.
//! Also asserts the MVCC liveness property (readers make progress while a
//! writer is continuously publishing new epochs) and, by count, that
//! tombstones cost a query their own pops and nothing more.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use knmatch_core::{
    eps_n_match_ad, frequent_k_n_match_ad, k_n_match_ad, BatchAnswer, BatchEngine, BatchQuery,
    Dataset, EpochSnapshot, PointId, SortedColumns, VersionWriter, VersionedIndex,
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

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value from a tiny grid — exact duplicates everywhere, so answer
    /// boundaries are decided purely by the `(diff, key)` tie-break.
    fn gridval(&mut self) -> f64 {
        (self.next_u64() % 7) as f64 * 0.25
    }
}

/// The model: what the live key space must hold. `BTreeMap` keeps rows
/// in key order, matching `EpochSnapshot::live_rows`.
type Model = BTreeMap<PointId, Vec<f64>>;

fn random_point(rng: &mut TestRng, d: usize) -> Vec<f64> {
    (0..d).map(|_| rng.gridval()).collect()
}

/// Every query kind over the model's current (k, n) grid.
fn workload(rng: &mut TestRng, live: usize, d: usize) -> Vec<BatchQuery> {
    let mut out = Vec::new();
    for k in [1, live.div_ceil(2), live] {
        let query = random_point(rng, d);
        let n0 = 1 + rng.below(d as u64) as usize;
        let n1 = n0 + rng.below((d - n0 + 1) as u64) as usize;
        out.push(BatchQuery::KnMatch {
            query: query.clone(),
            k,
            n: n1,
        });
        out.push(BatchQuery::Frequent {
            query: query.clone(),
            k,
            n0,
            n1,
        });
        out.push(BatchQuery::EpsMatch {
            query,
            eps: 0.25 * rng.below(4) as f64,
            n: n0,
        });
    }
    out
}

/// Runs `queries` through the oracle — a fresh [`SortedColumns`] over the
/// model's rows, dense pids mapped back through the key list — and
/// asserts the snapshot's answers are bit-identical (`==` on every entry,
/// per-n set, count and stat-free answer field).
fn assert_snapshot_matches_oracle(
    snap: &EpochSnapshot,
    model: &Model,
    queries: &[BatchQuery],
    ctx: &str,
) {
    let rows: Vec<(PointId, Vec<f64>)> = model.iter().map(|(&k, v)| (k, v.clone())).collect();
    assert_eq!(snap.live_rows(), rows, "{ctx}: live rows diverged");
    let keys: Vec<PointId> = rows.iter().map(|&(k, _)| k).collect();
    let data: Vec<Vec<f64>> = rows.into_iter().map(|(_, r)| r).collect();
    let mut cols = SortedColumns::from_rows(&data).unwrap();
    let outs = snap.run(queries);
    for (qi, (q, out)) in queries.iter().zip(outs).enumerate() {
        let got = out.unwrap_or_else(|e| panic!("{ctx} query #{qi} failed: {e}"));
        let want = match q {
            BatchQuery::KnMatch { query, k, n } => {
                BatchAnswer::KnMatch(k_n_match_ad(&mut cols, query, *k, *n).unwrap().0)
            }
            BatchQuery::Frequent { query, k, n0, n1 } => BatchAnswer::Frequent(
                frequent_k_n_match_ad(&mut cols, query, *k, *n0, *n1)
                    .unwrap()
                    .0,
            ),
            BatchQuery::EpsMatch { query, eps, n } => {
                BatchAnswer::EpsMatch(eps_n_match_ad(&mut cols, query, *eps, *n).unwrap().0)
            }
        };
        assert_eq!(got.0, remap(want, &keys), "{ctx} query #{qi}: {q:?}");
    }
}

/// Maps the oracle's dense pids onto keys. The key list ascends, so the
/// map is monotone and the canonical `(diff, pid)` order is untouched.
fn remap(a: BatchAnswer, keys: &[PointId]) -> BatchAnswer {
    let map = |entries: &mut Vec<knmatch_core::MatchEntry>| {
        for e in entries.iter_mut() {
            e.pid = keys[e.pid as usize];
        }
    };
    match a {
        BatchAnswer::KnMatch(mut r) => {
            map(&mut r.entries);
            BatchAnswer::KnMatch(r)
        }
        BatchAnswer::EpsMatch(mut r) => {
            map(&mut r.entries);
            BatchAnswer::EpsMatch(r)
        }
        BatchAnswer::Frequent(mut f) => {
            for lvl in &mut f.per_n {
                map(&mut lvl.entries);
            }
            for e in &mut f.entries {
                e.pid = keys[e.pid as usize];
            }
            BatchAnswer::Frequent(f)
        }
    }
}

/// One random mutation against both the index and the model.
fn mutate(rng: &mut TestRng, idx: &VersionedIndex, model: &mut Model, d: usize) {
    match rng.below(10) {
        // Remove a live key (when any exist).
        0 | 1 if !model.is_empty() => {
            let keys: Vec<PointId> = model.keys().copied().collect();
            let key = keys[rng.below(keys.len() as u64) as usize];
            idx.remove(key).unwrap();
            model.remove(&key);
        }
        // Update a live key in place.
        2 if !model.is_empty() => {
            let keys: Vec<PointId> = model.keys().copied().collect();
            let key = keys[rng.below(keys.len() as u64) as usize];
            let row = random_point(rng, d);
            idx.insert(key, &row).unwrap();
            model.insert(key, row);
        }
        // Explicit seal / compaction at random times.
        3 => {
            idx.seal().unwrap();
        }
        4 => {
            idx.maintain().unwrap();
        }
        // Insert a fresh key (sparse key space exercises the remap).
        _ => {
            let key = rng.below(500) as PointId;
            let row = random_point(rng, d);
            idx.insert(key, &row).unwrap();
            model.insert(key, row);
        }
    }
}

#[test]
fn interleaved_ops_match_rebuild_oracle_at_every_pinned_epoch() {
    for seed in [0xE90C_0001u64, 0xE90C_0002, 0xE90C_0003] {
        // Merge timings: seal on every insert, mid-size runs, delta-only.
        for threshold in [1usize, 8, 10_000] {
            for workers in [1usize, 2, 4] {
                // The index starts as a seed dataset laid out in one run or
                // split over three; the writes then land on top of either.
                for initial_runs in [1usize, 3] {
                    let mut rng = TestRng(seed ^ (threshold as u64) ^ ((workers as u64) << 32));
                    let d = 3;
                    let seed_rows: Vec<Vec<f64>> =
                        (0..10).map(|_| random_point(&mut rng, d)).collect();
                    let ds = Dataset::from_rows(&seed_rows).unwrap();
                    let idx = VersionedIndex::from_dataset(&ds, initial_runs, workers, threshold)
                        .unwrap();
                    assert_eq!(idx.version_stats().runs, initial_runs);
                    let mut model: Model = (0..).zip(seed_rows).collect();
                    let mut pinned: Vec<(EpochSnapshot, Model, Vec<BatchQuery>)> = Vec::new();
                    for step in 0..120 {
                        mutate(&mut rng, &idx, &mut model, d);
                        let ctx = format!(
                            "seed={seed:#x} threshold={threshold} workers={workers} \
                             initial_runs={initial_runs} step={step}"
                        );
                        if step % 15 == 7 && !model.is_empty() {
                            // Check the *current* epoch right away…
                            let snap = idx.snapshot();
                            let queries = workload(&mut rng, model.len(), d);
                            assert_snapshot_matches_oracle(&snap, &model, &queries, &ctx);
                            // …and pin it for re-checking after more writes.
                            pinned.push((snap, model.clone(), queries));
                        }
                    }
                    // Every pinned epoch must still answer exactly as it did
                    // when pinned, no matter what happened afterwards.
                    idx.seal().unwrap();
                    while idx.needs_maintenance() {
                        idx.maintain().unwrap();
                    }
                    for (i, (snap, at_pin, queries)) in pinned.iter().enumerate() {
                        let ctx = format!(
                            "seed={seed:#x} threshold={threshold} workers={workers} \
                             initial_runs={initial_runs} pinned #{i}"
                        );
                        assert_snapshot_matches_oracle(snap, at_pin, queries, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn compaction_layout_does_not_change_answers_at_an_epoch() {
    // The same epoch served from different physical layouts (many runs
    // with tombstones vs one compacted run) must be bit-identical.
    let mut rng = TestRng(0xE90C_0010);
    let d = 4;
    let idx = VersionedIndex::new(d, 2, 4).unwrap();
    let mut model = Model::new();
    for _ in 0..60 {
        mutate(&mut rng, &idx, &mut model, d);
    }
    if model.is_empty() {
        let row = random_point(&mut rng, d);
        idx.insert(7, &row).unwrap();
        model.insert(7, row);
    }
    let before = idx.snapshot();
    idx.seal().unwrap();
    let sealed = idx.snapshot();
    // Force a full compaction regardless of the maintenance heuristic.
    let queries = workload(&mut rng, model.len(), d);
    assert_eq!(before.epoch(), sealed.epoch());
    assert_snapshot_matches_oracle(&before, &model, &queries, "pre-seal");
    assert_snapshot_matches_oracle(&sealed, &model, &queries, "post-seal");
    while idx.needs_maintenance() {
        assert!(idx.maintain().unwrap());
    }
    let compacted = idx.snapshot();
    assert_eq!(compacted.epoch(), before.epoch());
    assert_snapshot_matches_oracle(&compacted, &model, &queries, "post-compaction");
}

#[test]
fn interleaved_and_dead_runs_match_rebuild_oracle_at_every_pinned_epoch() {
    // Layouts the split of a static dataset never produces: three runs
    // whose key ranges interleave (slot order ≠ key order), one of them
    // then mostly tombstoned and one fully dead — by updates, so its keys
    // live on in a fourth run — over grid values whose boundary ties
    // straddle the runs. `workload` asks every kind at k ∈ {1, live/2,
    // live}.
    for workers in [1usize, 2, 4] {
        let mut rng = TestRng(0xE90C_0040 ^ workers as u64);
        let d = 3;
        // A threshold above every delta: only the explicit seals cut runs.
        let idx = VersionedIndex::new(d, workers, 10_000).unwrap();
        let mut model = Model::new();
        let mut pinned: Vec<(EpochSnapshot, Model, Vec<BatchQuery>, String)> = Vec::new();
        let mut pin = |idx: &VersionedIndex, model: &Model, rng: &mut TestRng, stage: &str| {
            let ctx = format!("workers={workers} {stage}");
            let snap = idx.snapshot();
            let queries = workload(rng, model.len(), d);
            assert_snapshot_matches_oracle(&snap, model, &queries, &ctx);
            pinned.push((snap, model.clone(), queries, ctx));
        };
        for residue in 0..3u32 {
            for key in (residue..60).step_by(3) {
                let row = random_point(&mut rng, d);
                idx.insert(key, &row).unwrap();
                model.insert(key, row);
            }
            pin(&idx, &model, &mut rng, "delta");
            idx.seal().unwrap();
        }
        assert_eq!(idx.version_stats().runs, 3);
        pin(&idx, &model, &mut rng, "three interleaved runs");
        // 14 of run 0's 20 keys die.
        for key in (0..60).step_by(3).take(14) {
            idx.remove(key).unwrap();
            model.remove(&key);
        }
        pin(&idx, &model, &mut rng, "run 0 mostly dead");
        // Every key of run 2 moves: the run is fully dead, its keys live
        // in the delta (then in a later run) under new values.
        for key in (2..60).step_by(3) {
            let row = random_point(&mut rng, d);
            idx.insert(key, &row).unwrap();
            model.insert(key, row);
        }
        pin(&idx, &model, &mut rng, "run 2 fully dead, delta");
        idx.seal().unwrap();
        let stats = idx.version_stats();
        assert_eq!((stats.runs, stats.tombstones, stats.live), (4, 34, 46));
        pin(&idx, &model, &mut rng, "run 2 fully dead, sealed");
        // The pinned layouts must keep answering as they did while the
        // index compacts underneath them.
        while idx.needs_maintenance() {
            assert!(idx.maintain().unwrap());
        }
        pin(&idx, &model, &mut rng, "compacted");
        for (snap, at_pin, queries, ctx) in &pinned {
            assert_snapshot_matches_oracle(snap, at_pin, queries, &format!("{ctx}, re-checked"));
        }
    }
}

#[test]
fn tombstones_cost_their_own_pops_and_nothing_more() {
    // A count, not a timing: a dead row is skipped when it completes, so
    // it adds to the walk only those of its own d attributes that lie
    // within the live answer's ε — `heap_pops ≤ fresh_pops + t·d`, and
    // exactly so below. (Inflating k by the tombstone count instead walks
    // to the (k + t)-th answer: about 10× the pops here.)
    let (c, d, t) = (20_000usize, 8usize, 1_000usize);
    let mut rng = TestRng(0xE90C_0050);
    let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let rows: Vec<Vec<f64>> = (0..c).map(|_| (0..d).map(|_| unit()).collect()).collect();
    let query: Vec<f64> = (0..d).map(|_| unit()).collect();
    let one_run = |rows: &[Vec<f64>]| {
        VersionedIndex::from_dataset(&Dataset::from_rows(rows).unwrap(), 1, 1, 1 << 20).unwrap()
    };
    let idx = one_run(&rows);
    for pid in 0..t {
        idx.remove(pid as PointId).unwrap();
    }
    let q = [BatchQuery::KnMatch {
        query: query.clone(),
        k: 10,
        n: 2,
    }];
    let (answer, stats) = idx.run(&q).remove(0).unwrap();
    // The same query on an index rebuilt from the live rows.
    let (fresh_answer, fresh_stats) = one_run(&rows[t..]).run(&q).remove(0).unwrap();
    let (BatchAnswer::KnMatch(got), BatchAnswer::KnMatch(want)) = (answer, fresh_answer) else {
        panic!("wrong variant")
    };
    assert_eq!(got.diffs(), want.diffs());
    // The drained walk pops every attribute within the live ε; the dead
    // rows own `dead_within` of those.
    let dead_within = rows[..t]
        .iter()
        .flat_map(|row| row.iter().zip(&query))
        .filter(|(v, q)| (*v - *q).abs() <= got.epsilon())
        .count();
    assert!(dead_within > 0 && dead_within <= t * d);
    assert_eq!(
        stats.heap_pops,
        fresh_stats.heap_pops + dead_within as u64,
        "{stats:?} vs fresh {fresh_stats:?}"
    );
}

/// The liveness half of the acceptance criterion: while one thread
/// writes continuously (forcing seals and compactions), reader threads
/// pin snapshots and complete query batches the whole time. If readers
/// blocked on writers, no read could finish until the writer stopped.
#[test]
fn readers_make_progress_while_a_writer_streams_mutations() {
    let d = 3;
    let idx = Arc::new(VersionedIndex::new(d, 2, 16).unwrap());
    {
        let mut rng = TestRng(0xE90C_0020);
        for key in 0..64u32 {
            idx.insert(key, &random_point(&mut rng, d)).unwrap();
        }
    }
    let writer_done = Arc::new(AtomicBool::new(false));
    let reads_before_writer_finished = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        let widx = Arc::clone(&idx);
        let wdone = Arc::clone(&writer_done);
        s.spawn(move || {
            let mut rng = TestRng(0xE90C_0021);
            for i in 0..2_000u32 {
                let key = rng.below(256) as PointId;
                if i % 5 == 4 {
                    // Absent keys are expected; only they may fail.
                    let _ = widx.remove(key);
                } else {
                    widx.insert(key, &random_point(&mut rng, d)).unwrap();
                }
                if i % 64 == 63 && widx.needs_maintenance() {
                    widx.maintain().unwrap();
                }
            }
            wdone.store(true, Ordering::SeqCst);
        });

        for r in 0..2 {
            let ridx = Arc::clone(&idx);
            let rdone = Arc::clone(&writer_done);
            let rcount = Arc::clone(&reads_before_writer_finished);
            s.spawn(move || {
                let mut rng = TestRng(0xE90C_0030 + r);
                while !rdone.load(Ordering::SeqCst) {
                    let snap = ridx.snapshot();
                    let live = snap.live();
                    if live == 0 {
                        continue;
                    }
                    let queries = workload(&mut rng, live, d);
                    let epoch = snap.epoch();
                    for out in snap.run(&queries) {
                        out.unwrap();
                    }
                    // The pinned view never moved underneath the batch.
                    assert_eq!(snap.epoch(), epoch);
                    assert_eq!(snap.live(), live);
                    if !rdone.load(Ordering::SeqCst) {
                        rcount.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });

    assert!(
        reads_before_writer_finished.load(Ordering::SeqCst) > 0,
        "no reader batch completed while the writer was running — readers blocked on writers"
    );
    // Post-quiescence sanity: final state still matches a rebuild oracle.
    let snap = idx.snapshot();
    let rows = snap.live_rows();
    assert_eq!(rows.len(), snap.live());
    let stats = idx.version_stats();
    assert!(stats.seals > 0, "threshold 16 over 2000 writes must seal");
    assert_eq!(stats.epoch, snap.epoch());
}
