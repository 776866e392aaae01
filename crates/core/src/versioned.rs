//! Epoch-versioned MVCC index: live ingestion served concurrently with
//! queries (DESIGN.md §16).
//!
//! The one updatable index of this crate, built from three pieces:
//!
//! - an in-memory **delta** of keyed rows, sorted by key, that receives
//!   every insert and delete;
//! - immutable **sealed runs** — each the ascending key list of a row
//!   block and the [`SortedColumns`] built over it (nothing else: the
//!   columns hold every coordinate once), plus a per-run tombstone list
//!   for points deleted after sealing;
//! - a monotonically increasing **epoch**, bumped by every logical
//!   mutation.
//!
//! After each mutation the writer publishes an immutable
//! [`EpochSnapshot`] view; readers pin one with
//! [`VersionedIndex::snapshot`] (an `Arc` clone behind a briefly-held
//! lock) and run the unchanged AD core against that frozen view for as
//! long as they like. Writers never invalidate a pinned snapshot — they
//! only publish newer ones — so **readers never block on writers** and a
//! batch's answers are a pure function of the pinned epoch's live rows.
//!
//! ## Exactness across runs
//!
//! The n-match difference of a point depends only on that point's own
//! attributes (Definition 1), so splitting the points over runs splits
//! the *sorted lists*, not the computation: a snapshot of `S` runs is a
//! database of `S · d` sorted lists, and a query is **one** AD walk over
//! all of them — `2 · S · d` cursors in one frontier, appearances counted
//! per *slot* (run base + run-local pid) in one `Scratch`, one global
//! stop. Its answer is the canonical `(diff, key)` answer over the live
//! points, bit-identical to one run rebuilt from them, because:
//!
//! 1. **The frontier pops in ascending difference across every list**, so
//!    points complete their n-th appearance in the order of their n-match
//!    differences whichever run holds them (Theorem 3.1 never asks the
//!    lists to belong to one array).
//! 2. **A slot is resolved to its key only when it completes** a level
//!    in `[n0, n1]`: `key = run.keys[local]`, and a key in the run's
//!    tombstone list is skipped — never pushed, never counted towards
//!    `k`. The walk stops at `k` *live* answers, so Theorem 3.2's
//!    optimality argument holds per live point; a dead point costs at
//!    most those of its own `d` attributes that lie inside the live ε.
//! 3. **Slot order need not follow key order.** Ties are settled after
//!    the walk, by the plateau drain and the final `(diff, key)` sort
//!    over resolved keys; slots only index the appearance counters. Runs
//!    whose key ranges interleave are as exact as contiguous ones.
//!
//! With no tombstones an `S`-run walk pops what the one-run walk pops
//! (after the drain: every attribute within ε) and pays `S · d` locate
//! probes plus up to two retrieved-but-unpopped attributes per list. With
//! one run it *is* the sequential AD loop over one [`SortedColumns`],
//! answers and [`AdStats`] — which is why a static dataset is served as a
//! one-run index, and why the cross-checks hold it to
//! [`execute_batch_query`](crate::execute_batch_query) on
//! `&SortedColumns`. More initial runs ([`VersionedIndex::from_dataset`])
//! are a layout, not intra-query parallelism: queries run one per worker
//! whatever the run count (DESIGN.md §9).
//!
//! ## Lifecycle
//!
//! The delta is rebuilt into a one-run [`SortedColumns`] on every
//! mutation (cost `O(|delta| · d · log |delta|)`, bounded because the
//! delta **auto-seals** into a run at `merge_threshold` rows). Sealing
//! costs no second build: an auto-seal builds the run from the writer's
//! raw rows instead of publishing them as a delta, and an explicit seal
//! takes the delta run the published view already holds.
//! [`VersionWriter::maintain`] compacts the run list (merging runs
//! and dropping tombstoned rows) once it grows past the fanout or turns
//! mostly dead; servers schedule it on their executor pools after
//! writes. A run keeps no row-major copy, so compaction scatters the live
//! rows back out of the captured runs' columns (`live_rows_of`) — the
//! f64 bits that went in. It builds the merged run **outside** both locks and
//! installs it only if the captured runs are still in place, folding in
//! any tombstones that arrived mid-build — concurrent writers are never
//! stalled by a merge, and a compacted view answers bit-identically to
//! the uncompacted one at the same epoch.

use std::sync::{Arc, Mutex, RwLock};

use crate::ad::AdStats;
use crate::columns::{locate_lockstep, SortedColumns};
use crate::engine::{execute_lists, BatchAnswer, BatchEngine, BatchOptions, BatchQuery, Park};
use crate::error::{KnMatchError, Result};
use crate::frontier::SortedLists;
use crate::point::{validate_finite, Dataset, PointId};
use crate::scratch::Scratch;
use crate::source::{SortedAccessSource, SortedEntry};

/// Default number of delta rows that triggers an automatic seal.
pub const DEFAULT_MERGE_THRESHOLD: usize = 1024;

/// Sealed-run count past which [`VersionWriter::maintain`] compacts.
const MAX_RUNS: usize = 8;

/// A point-in-time summary of a versioned index, reported over the wire
/// in `STATS` and by the `EPOCH` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Version of the logical content; bumped by every insert/remove.
    pub epoch: u64,
    /// Live (non-tombstoned) points across the delta and all runs.
    pub live: usize,
    /// Rows currently in the unsealed delta.
    pub delta_len: usize,
    /// Sealed immutable runs.
    pub runs: usize,
    /// Tombstones across all sealed runs.
    pub tombstones: usize,
    /// Inserts accepted over the index lifetime.
    pub inserts: u64,
    /// Removes accepted over the index lifetime.
    pub removes: u64,
    /// Delta seals performed (explicit and automatic).
    pub seals: u64,
    /// Run compactions completed.
    pub merges: u64,
}

/// The object-safe write surface of a versioned engine — what servers
/// dispatch the `INSERT`/`DELETE`/`SEAL`/`EPOCH` verbs through (see
/// [`BatchEngine::writer`]).
pub trait VersionWriter: Sync {
    /// Inserts (or updates) the point stored under `key`, returning the
    /// new epoch.
    ///
    /// # Errors
    ///
    /// Rejects wrong-width or non-finite points; see [`KnMatchError`].
    fn insert(&self, key: PointId, point: &[f64]) -> Result<u64>;

    /// Removes the point stored under `key`, returning the new epoch.
    ///
    /// # Errors
    ///
    /// [`KnMatchError::KeyNotFound`] when `key` holds no live point.
    fn remove(&self, key: PointId) -> Result<u64>;

    /// Seals the current delta into an immutable run (a no-op on an
    /// empty delta) and returns the current epoch.
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` keeps the wire surface uniform.
    fn seal(&self) -> Result<u64>;

    /// Whether [`VersionWriter::maintain`] would do work right now.
    fn needs_maintenance(&self) -> bool;

    /// Runs one maintenance step (compacting the run list) when due.
    /// Returns whether a compaction was installed. Safe to call from a
    /// background thread while reads and writes proceed.
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` keeps the wire surface uniform.
    fn maintain(&self) -> Result<bool>;

    /// The current epoch.
    fn epoch(&self) -> u64;

    /// Counters describing the index right now.
    fn version_stats(&self) -> VersionStats;
}

/// One immutable sealed run: the key list mapping local pids back to
/// keys, and the sorted per-dimension columns of its rows — the only
/// copy of the coordinates ([`live_rows_of`] scatters rows back out).
#[derive(Debug)]
struct SealedRun {
    /// Keys in ascending order; index = the run-local pid.
    keys: Vec<PointId>,
    /// The sorted-dimension organisation the AD core walks.
    cols: SortedColumns,
}

impl SealedRun {
    /// Builds a run over the borrowed row-major `rows`, which hold the
    /// points of `keys` in the same (strictly ascending) order — finite
    /// values, `rows.len() == keys.len() * dims`.
    fn build(keys: Vec<PointId>, rows: &[f64], dims: usize, workers: usize) -> Arc<Self> {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(rows.len(), keys.len() * dims);
        let cols = SortedColumns::build_rows(rows, dims, workers);
        Arc::new(SealedRun { keys, cols })
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// A run plus the tombstones that apply to it in one frozen view.
#[derive(Debug, Clone)]
struct SnapRun {
    run: Arc<SealedRun>,
    /// Keys deleted from this run, ascending. Empty for the delta run.
    tombs: Arc<Vec<PointId>>,
}

impl SnapRun {
    fn live(&self) -> usize {
        self.run.len() - self.tombs.len()
    }
}

/// The immutable payload behind one published epoch.
#[derive(Debug)]
struct ViewInner {
    dims: usize,
    epoch: u64,
    live: usize,
    runs: Vec<SnapRun>,
    /// `bases[i]` is the slot of run `i`'s local pid 0: the prefix sums
    /// of the run lengths.
    bases: Vec<PointId>,
}

impl ViewInner {
    fn new(dims: usize, epoch: u64, runs: Vec<SnapRun>) -> Self {
        let mut end = 0;
        let bases = runs.iter().map(|sr| {
            let base = PointId::try_from(end).expect("slots of one view fit a point id");
            end += sr.run.len();
            base
        });
        ViewInner {
            dims,
            epoch,
            live: runs.iter().map(SnapRun::live).sum(),
            bases: bases.collect(),
            runs,
        }
    }
}

/// A view is the `S · d` sorted lists of its runs: the AD walk reads run
/// `part`'s columns, numbers its points from the run's base slot, and
/// resolves a completed slot to its key unless the key is tombstoned.
impl SortedLists for &ViewInner {
    fn dims(&self) -> usize {
        self.dims
    }

    fn parts(&self) -> usize {
        self.runs.len()
    }

    fn part_len(&self, part: usize) -> usize {
        self.runs[part].run.len()
    }

    fn live(&self) -> usize {
        self.live
    }

    fn locate_part<F: FnMut(&mut Self, usize, usize)>(
        &mut self,
        part: usize,
        query: &[f64],
        found: F,
    ) {
        locate_lockstep(self, |view| &view.runs[part].run.cols, query, found);
    }

    fn entry(&mut self, part: usize, dim: usize, rank: usize) -> SortedEntry {
        let e = SortedAccessSource::entry(&mut &self.runs[part].run.cols, dim, rank);
        SortedEntry {
            pid: self.bases[part] + e.pid,
            value: e.value,
        }
    }

    fn resolve(&self, slot: PointId) -> Option<PointId> {
        // `bases[0] = 0`, so some base is ≤ slot; the last such is the
        // run holding it.
        let part = self.bases.partition_point(|&base| base <= slot) - 1;
        let sr = &self.runs[part];
        let key = sr.run.keys[(slot - self.bases[part]) as usize];
        sr.tombs.binary_search(&key).is_err().then_some(key)
    }
}

/// A frozen, queryable view of a [`VersionedIndex`] at one epoch.
///
/// Cloning is an `Arc` clone; every clone pins the same version. The
/// snapshot implements [`BatchEngine`] with the plain
/// `(BatchAnswer, AdStats)` outcome: one AD walk over all its runs.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    inner: Arc<ViewInner>,
    workers: usize,
    /// The index's worker scratches, shared by every snapshot it pins.
    park: Arc<Park<Scratch>>,
}

impl EpochSnapshot {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Live points visible in this snapshot.
    pub fn live(&self) -> usize {
        self.inner.live
    }

    /// Dimensionality of the indexed space.
    pub fn dims(&self) -> usize {
        self.inner.dims
    }

    /// Runs (sealed + delta) this snapshot reads.
    pub fn run_count(&self) -> usize {
        self.inner.runs.len()
    }

    /// Every live `(key, row)` in ascending key order — the from-scratch
    /// rebuild oracle's input: building a [`SortedColumns`] over exactly
    /// these rows and mapping its dense pids through the key list must
    /// reproduce this snapshot's answers bit-identically.
    pub fn live_rows(&self) -> Vec<(PointId, Vec<f64>)> {
        let (keys, rows) = live_rows_of(&self.inner.runs, self.inner.dims);
        let rows = rows.chunks_exact(self.inner.dims).map(<[f64]>::to_vec);
        keys.into_iter().zip(rows).collect()
    }

    /// The `S · d` sorted lists a query walks, for the unit tests that
    /// hold the walk to a reference.
    #[cfg(test)]
    pub(crate) fn lists(&self) -> impl SortedLists + Copy + '_ {
        &*self.inner
    }

    /// Run `ri`'s ascending keys and sorted columns, for the unit tests
    /// that pin the initial split's boundaries.
    #[cfg(test)]
    pub(crate) fn run_parts(&self, ri: usize) -> (&[PointId], &SortedColumns) {
        let run = &self.inner.runs[ri].run;
        (&run.keys, &run.cols)
    }
}

/// Every live row of `runs` in ascending key order: the keys, and their
/// row-major coordinates scattered back out of the runs' columns — entry
/// `(value, pid)` of dimension `j` lands at `rows[slot(pid) · d + j]`, the
/// f64 bits the run was built from, so a rebuild over these rows is
/// bit-identical to one over the originals.
fn live_rows_of(runs: &[SnapRun], dims: usize) -> (Vec<PointId>, Vec<f64>) {
    let live = |sr: &SnapRun, key: &PointId| sr.tombs.binary_search(key).is_err();
    let mut keys: Vec<PointId> = Vec::new();
    for sr in runs {
        keys.extend(sr.run.keys.iter().filter(|key| live(sr, key)));
    }
    keys.sort_unstable();
    let mut rows = vec![0.0; keys.len() * dims];
    for sr in runs {
        // Where each local pid's row lands; `None` for a tombstoned one.
        let slot: Vec<Option<usize>> = sr
            .run
            .keys
            .iter()
            .map(|key| keys.binary_search(key).ok().filter(|_| live(sr, key)))
            .collect();
        for j in 0..dims {
            let col = sr.run.cols.column(j);
            for (&value, &pid) in col.values().iter().zip(col.pids()) {
                if let Some(s) = slot[pid as usize] {
                    rows[s * dims + j] = value;
                }
            }
        }
    }
    (keys, rows)
}

impl BatchEngine for EpochSnapshot {
    type Outcome = (BatchAnswer, AdStats);

    fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the batch against this frozen view: each query a single AD
    /// walk over every run's sorted lists (see the module docs),
    /// validated once against the snapshot's `(dims, live)` shape, one
    /// query per work item of [`Park::run`] on a scratch kept by the
    /// index; deadlines, fail-fast and panic isolation are per query.
    fn run_with(
        &self,
        queries: &[BatchQuery],
        opts: &BatchOptions,
    ) -> Vec<Result<(BatchAnswer, AdStats)>> {
        let lists = &*self.inner;
        self.park
            .run(self.workers, queries, opts, Scratch::new, |scratch, q| {
                let mut view = lists;
                execute_lists(&mut view, q, scratch)
            })
    }
}

/// Mutable writer-side state, guarded by one mutex. Holding it never
/// blocks readers — they only touch the published view.
#[derive(Debug)]
struct WriterState {
    epoch: u64,
    /// Delta keys, ascending.
    delta_keys: Vec<PointId>,
    /// Delta rows, row-major, parallel to `delta_keys`.
    delta_coords: Vec<f64>,
    /// Sealed runs, oldest first.
    runs: Vec<SnapRun>,
    inserts: u64,
    removes: u64,
    seals: u64,
    merges: u64,
}

impl WriterState {
    fn delta_len(&self) -> usize {
        self.delta_keys.len()
    }

    fn live(&self) -> usize {
        self.delta_len() + self.runs.iter().map(SnapRun::live).sum::<usize>()
    }

    fn tombstones(&self) -> usize {
        self.runs.iter().map(|r| r.tombs.len()).sum()
    }

    /// Whether `key` is live in some sealed run; returns the run index.
    fn find_in_runs(&self, key: PointId) -> Option<usize> {
        self.runs.iter().position(|sr| {
            sr.run.keys.binary_search(&key).is_ok() && sr.tombs.binary_search(&key).is_err()
        })
    }

    /// Adds `key` to run `ri`'s tombstones (clone-on-write: pinned
    /// snapshots keep the old list).
    fn tombstone(&mut self, ri: usize, key: PointId) {
        let mut tombs: Vec<PointId> = self.runs[ri].tombs.as_ref().clone();
        let pos = tombs.binary_search(&key).unwrap_err();
        tombs.insert(pos, key);
        self.runs[ri].tombs = Arc::new(tombs);
    }
}

/// The epoch-versioned MVCC index: delta + sealed runs + published
/// snapshots. All methods take `&self`; writes serialise on an internal
/// mutex while readers pin immutable [`EpochSnapshot`]s.
///
/// # Examples
///
/// ```
/// use knmatch_core::{BatchEngine, BatchOutcome, BatchQuery, VersionWriter, VersionedIndex};
///
/// let idx = VersionedIndex::new(2, 1, 4).unwrap();
/// for (key, row) in [(10, [0.1, 0.9]), (20, [0.5, 0.4]), (30, [0.9, 0.2])] {
///     idx.insert(key, &row).unwrap();
/// }
/// let pinned = idx.snapshot();
/// idx.remove(20).unwrap();
/// // The pinned snapshot still sees key 20; a fresh one does not.
/// assert_eq!(pinned.live(), 3);
/// assert_eq!(idx.snapshot().live(), 2);
/// let q = BatchQuery::KnMatch { query: vec![0.5, 0.5], k: 1, n: 2 };
/// let got = pinned.run(&[q]).remove(0).unwrap();
/// let knmatch_core::BatchAnswer::KnMatch(r) = got.answer() else { unreachable!() };
/// assert_eq!(r.ids(), vec![20]);
/// ```
#[derive(Debug)]
pub struct VersionedIndex {
    dims: usize,
    workers: usize,
    merge_threshold: usize,
    writer: Mutex<WriterState>,
    published: RwLock<Arc<ViewInner>>,
    /// Worker scratches kept between batches, for every snapshot.
    park: Arc<Park<Scratch>>,
}

impl VersionedIndex {
    /// An empty index over `dims` dimensions. `workers` drives both
    /// snapshot query parallelism and run builds; `merge_threshold` (≥ 1,
    /// see [`DEFAULT_MERGE_THRESHOLD`]) bounds the delta before it
    /// auto-seals.
    ///
    /// # Errors
    ///
    /// [`KnMatchError::ZeroDimensions`] when `dims == 0`.
    pub fn new(dims: usize, workers: usize, merge_threshold: usize) -> Result<Self> {
        if dims == 0 {
            return Err(KnMatchError::ZeroDimensions);
        }
        let state = WriterState {
            epoch: 0,
            delta_keys: Vec::new(),
            delta_coords: Vec::new(),
            runs: Vec::new(),
            inserts: 0,
            removes: 0,
            seals: 0,
            merges: 0,
        };
        let view = Arc::new(ViewInner::new(dims, 0, Vec::new()));
        Ok(VersionedIndex {
            dims,
            workers: workers.max(1),
            merge_threshold: merge_threshold.max(1),
            writer: Mutex::new(state),
            published: RwLock::new(view),
            park: Arc::default(),
        })
    }

    /// Seeds an index from a dataset as `runs` sealed runs (clamped to
    /// `1..=c`) over contiguous, as-even-as-possible key ranges (the first
    /// `c mod runs` hold one extra point), with keys equal to the
    /// dataset's pids — a served static file becomes epoch 0 of a live
    /// index. More than one run is a layout choice (`S` smaller sorts at
    /// build time); queries walk all runs in one frontier either way. The
    /// initial runs are sealed runs like any others: later compaction
    /// may merge them.
    ///
    /// # Errors
    ///
    /// Propagates [`VersionedIndex::new`] validation; the dataset may be
    /// empty (the index simply starts with no runs).
    pub fn from_dataset(
        ds: &Dataset,
        runs: usize,
        workers: usize,
        merge_threshold: usize,
    ) -> Result<Self> {
        let idx = Self::new(ds.dims(), workers, merge_threshold)?;
        if !ds.is_empty() {
            let (c, d) = (ds.len(), ds.dims());
            let s = runs.clamp(1, c);
            let mut w = idx.lock_writer();
            let mut lo = 0;
            for i in 0..s {
                let hi = lo + c / s + usize::from(i < c % s);
                let keys: Vec<PointId> = (lo as PointId..hi as PointId).collect();
                let rows = &ds.as_flat()[lo * d..hi * d];
                w.runs.push(SnapRun {
                    run: SealedRun::build(keys, rows, d, idx.workers),
                    tombs: Arc::new(Vec::new()),
                });
                lo = hi;
            }
            idx.publish(&w);
        }
        Ok(idx)
    }

    /// Dimensionality of the indexed space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Live points in the current epoch.
    pub fn live(&self) -> usize {
        self.published.read().expect("published lock poisoned").live
    }

    /// The delta size that triggers an automatic seal.
    pub fn merge_threshold(&self) -> usize {
        self.merge_threshold
    }

    /// Pins the current epoch. Queries run only against such a frozen
    /// view, never against the mutable index state itself; the returned
    /// snapshot stays valid and unchanged no matter how many writes land
    /// afterwards.
    pub fn snapshot(&self) -> EpochSnapshot {
        let inner = self
            .published
            .read()
            .expect("published lock poisoned")
            .clone();
        EpochSnapshot {
            inner,
            workers: self.workers,
            park: Arc::clone(&self.park),
        }
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.writer.lock().expect("writer lock poisoned")
    }

    /// Builds and publishes the view for the writer's current state.
    /// Only the delta run is (re)built; sealed runs are shared by `Arc`.
    fn publish(&self, w: &WriterState) {
        let mut runs: Vec<SnapRun> = w.runs.clone();
        if !w.delta_keys.is_empty() {
            runs.push(SnapRun {
                run: SealedRun::build(
                    w.delta_keys.clone(),
                    &w.delta_coords,
                    self.dims,
                    self.workers,
                ),
                tombs: Arc::new(Vec::new()),
            });
        }
        let view = Arc::new(ViewInner::new(self.dims, w.epoch, runs));
        *self.published.write().expect("published lock poisoned") = view;
    }

    /// Moves the delta into a sealed run: `built` when the caller holds
    /// the delta's run already, else one built from the writer's raw rows.
    fn seal_locked(&self, w: &mut WriterState, built: Option<Arc<SealedRun>>) {
        if w.delta_keys.is_empty() {
            return;
        }
        let keys = std::mem::take(&mut w.delta_keys);
        let run = built
            .unwrap_or_else(|| SealedRun::build(keys, &w.delta_coords, self.dims, self.workers));
        w.delta_coords.clear();
        w.runs.push(SnapRun {
            run,
            tombs: Arc::new(Vec::new()),
        });
        w.seals += 1;
    }

    /// One compaction pass: merge every sealed run into a single run,
    /// dropping tombstoned rows. The expensive rebuild happens outside
    /// both locks; installation re-checks that the captured runs are
    /// still current and folds in tombstones that landed mid-build.
    fn compact(&self) -> Result<bool> {
        // Capture the sealed runs under the lock, then let writers go.
        let captured: Vec<SnapRun> = {
            let w = self.lock_writer();
            if w.runs.len() <= 1 && w.tombstones() == 0 {
                return Ok(false);
            }
            w.runs.clone()
        };
        let merged = {
            let (keys, rows) = live_rows_of(&captured, self.dims);
            (!keys.is_empty()).then(|| SealedRun::build(keys, &rows, self.dims, self.workers))
        };

        let mut w = self.lock_writer();
        // Writers only append runs and swap tombstone lists, so the
        // captured runs are current iff the prefix still holds the same
        // sealed blocks (tombstones may differ — folded in below).
        if w.runs.len() < captured.len()
            || !captured
                .iter()
                .zip(&w.runs)
                .all(|(a, b)| Arc::ptr_eq(&a.run, &b.run))
        {
            return Ok(false); // racing compactions; the next pass retries
        }
        let mut tombs: Vec<PointId> = Vec::new();
        if let Some(merged) = &merged {
            for (cap, cur) in captured.iter().zip(&w.runs) {
                for &key in cur.tombs.iter() {
                    // Tombstones added after capture refer to rows the
                    // merge included live; carry them over.
                    if cap.tombs.binary_search(&key).is_err()
                        && merged.keys.binary_search(&key).is_ok()
                    {
                        tombs.push(key);
                    }
                }
            }
            tombs.sort_unstable();
        }
        let tail: Vec<SnapRun> = w.runs[captured.len()..].to_vec();
        w.runs = match merged {
            Some(run) => {
                let mut v = vec![SnapRun {
                    run,
                    tombs: Arc::new(tombs),
                }];
                v.extend(tail);
                v
            }
            None => tail,
        };
        w.merges += 1;
        self.publish(&w);
        Ok(true)
    }

    fn stats_locked(w: &WriterState) -> VersionStats {
        VersionStats {
            epoch: w.epoch,
            live: w.live(),
            delta_len: w.delta_len(),
            runs: w.runs.len(),
            tombstones: w.tombstones(),
            inserts: w.inserts,
            removes: w.removes,
            seals: w.seals,
            merges: w.merges,
        }
    }
}

impl VersionWriter for VersionedIndex {
    fn insert(&self, key: PointId, point: &[f64]) -> Result<u64> {
        if point.len() != self.dims {
            return Err(KnMatchError::DimensionMismatch {
                expected: self.dims,
                actual: point.len(),
            });
        }
        validate_finite(point)?;
        let mut w = self.lock_writer();
        match w.delta_keys.binary_search(&key) {
            Ok(i) => {
                // Re-insert inside the delta: overwrite in place.
                w.delta_coords[i * self.dims..(i + 1) * self.dims].copy_from_slice(point);
            }
            Err(i) => {
                // Updating a sealed key tombstones the old version.
                if let Some(ri) = w.find_in_runs(key) {
                    w.tombstone(ri, key);
                }
                w.delta_keys.insert(i, key);
                let at = i * self.dims;
                w.delta_coords.splice(at..at, point.iter().copied());
            }
        }
        w.epoch += 1;
        w.inserts += 1;
        if w.delta_len() >= self.merge_threshold {
            self.seal_locked(&mut w, None);
        }
        self.publish(&w);
        Ok(w.epoch)
    }

    fn remove(&self, key: PointId) -> Result<u64> {
        let mut w = self.lock_writer();
        if let Ok(i) = w.delta_keys.binary_search(&key) {
            w.delta_keys.remove(i);
            let at = i * self.dims;
            w.delta_coords.drain(at..at + self.dims);
        } else if let Some(ri) = w.find_in_runs(key) {
            w.tombstone(ri, key);
        } else {
            return Err(KnMatchError::KeyNotFound { key });
        }
        w.epoch += 1;
        w.removes += 1;
        self.publish(&w);
        Ok(w.epoch)
    }

    fn seal(&self) -> Result<u64> {
        let mut w = self.lock_writer();
        if !w.delta_keys.is_empty() {
            // Every mutation publishes under this lock, so the published
            // view's last run is this delta, already built.
            let view = self.snapshot().inner;
            let built = view.runs.last().map(|sr| &sr.run);
            let built = built.filter(|run| run.keys == w.delta_keys).cloned();
            self.seal_locked(&mut w, built);
            self.publish(&w);
        }
        Ok(w.epoch)
    }

    fn needs_maintenance(&self) -> bool {
        let w = self.lock_writer();
        let sealed: usize = w.runs.iter().map(|r| r.run.len()).sum();
        // Skipped by queries, a dead row still costs memory and in-bound pops.
        w.runs.len() > MAX_RUNS || w.tombstones() * 2 > sealed
    }

    fn maintain(&self) -> Result<bool> {
        if !self.needs_maintenance() {
            return Ok(false);
        }
        self.compact()
    }

    fn epoch(&self) -> u64 {
        self.lock_writer().epoch
    }

    fn version_stats(&self) -> VersionStats {
        Self::stats_locked(&self.lock_writer())
    }
}

impl BatchEngine for VersionedIndex {
    type Outcome = (BatchAnswer, AdStats);

    fn workers(&self) -> usize {
        self.workers
    }

    /// Pins the current epoch and runs the whole batch against it — one
    /// batch never observes a torn mix of versions.
    fn run_with(
        &self,
        queries: &[BatchQuery],
        opts: &BatchOptions,
    ) -> Vec<Result<(BatchAnswer, AdStats)>> {
        self.snapshot().run_with(queries, opts)
    }

    fn writer(&self) -> Option<&dyn VersionWriter> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::{eps_n_match_ad, frequent_k_n_match_ad, k_n_match_ad};
    use crate::engine::BatchOutcome;
    use crate::result::KnMatchResult;

    fn rows4() -> Vec<(PointId, Vec<f64>)> {
        vec![
            (10, vec![0.4, 1.0, 1.0]),
            (20, vec![2.8, 5.5, 2.0]),
            (30, vec![6.5, 7.8, 5.0]),
            (40, vec![9.0, 9.0, 9.0]),
            (50, vec![3.5, 1.5, 8.0]),
        ]
    }

    fn filled(threshold: usize) -> VersionedIndex {
        let idx = VersionedIndex::new(3, 2, threshold).unwrap();
        for (key, row) in rows4() {
            idx.insert(key, &row).unwrap();
        }
        idx
    }

    /// Answers from the snapshot must equal a from-scratch build over its
    /// live rows, with oracle pids mapped through the key list.
    fn assert_matches_oracle(snap: &EpochSnapshot, queries: &[BatchQuery]) {
        let rows = snap.live_rows();
        if rows.is_empty() {
            return;
        }
        let keys: Vec<PointId> = rows.iter().map(|&(k, _)| k).collect();
        let data: Vec<Vec<f64>> = rows.into_iter().map(|(_, r)| r).collect();
        let mut cols = SortedColumns::from_rows(&data).unwrap();
        let outs = snap.run(queries);
        for (q, out) in queries.iter().zip(outs) {
            let got = out.unwrap().into_answer();
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
            assert_eq!(got, remap_oracle(want, &keys), "query {q:?}");
        }
    }

    /// Maps an oracle answer's dense pids onto keys. The map is monotone,
    /// so entry order is untouched.
    fn remap_oracle(a: BatchAnswer, keys: &[PointId]) -> BatchAnswer {
        let map = |r: &mut KnMatchResult| {
            for e in &mut r.entries {
                e.pid = keys[e.pid as usize];
            }
        };
        match a {
            BatchAnswer::KnMatch(mut r) => {
                map(&mut r);
                BatchAnswer::KnMatch(r)
            }
            BatchAnswer::EpsMatch(mut r) => {
                map(&mut r);
                BatchAnswer::EpsMatch(r)
            }
            BatchAnswer::Frequent(mut f) => {
                for lvl in &mut f.per_n {
                    map(lvl);
                }
                for e in &mut f.entries {
                    e.pid = keys[e.pid as usize];
                }
                BatchAnswer::Frequent(f)
            }
        }
    }

    fn sample_queries() -> Vec<BatchQuery> {
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
    fn insert_then_query_matches_oracle() {
        for threshold in [1, 2, 100] {
            let idx = filled(threshold);
            assert_eq!(idx.live(), 5);
            assert_matches_oracle(&idx.snapshot(), &sample_queries());
        }
    }

    #[test]
    fn pinned_snapshot_survives_writes_and_compaction() {
        let idx = filled(2);
        let pinned = idx.snapshot();
        let epoch = pinned.epoch();
        idx.remove(30).unwrap();
        idx.insert(60, &[1.0, 2.0, 3.0]).unwrap();
        idx.insert(10, &[5.0, 5.0, 5.0]).unwrap(); // update
        while idx.compact().unwrap() {}
        assert_eq!(pinned.epoch(), epoch);
        assert_eq!(pinned.live(), 5);
        assert_matches_oracle(&pinned, &sample_queries());
        let fresh = idx.snapshot();
        assert_eq!(fresh.live(), 5); // -30, +60
        assert_matches_oracle(&fresh, &sample_queries());
    }

    #[test]
    fn removes_and_tombstones_stay_exact() {
        let idx = filled(2); // small threshold: rows land in sealed runs
        idx.remove(20).unwrap();
        idx.remove(50).unwrap();
        let snap = idx.snapshot();
        assert_eq!(snap.live(), 3);
        assert_matches_oracle(&snap, &sample_queries());
        // k can now reference the smaller live set only.
        let q = BatchQuery::KnMatch {
            query: vec![0.0, 0.0, 0.0],
            k: 4,
            n: 1,
        };
        assert!(matches!(
            snap.run(&[q]).remove(0).unwrap_err(),
            KnMatchError::InvalidK { cardinality: 3, .. }
        ));
    }

    #[test]
    fn updates_reroute_answers() {
        let idx = filled(2);
        // Move key 40 on top of the query point; it must dominate.
        idx.insert(40, &[3.0, 7.0, 4.0]).unwrap();
        let snap = idx.snapshot();
        let q = BatchQuery::KnMatch {
            query: vec![3.0, 7.0, 4.0],
            k: 1,
            n: 3,
        };
        let out = snap.run(std::slice::from_ref(&q)).remove(0).unwrap();
        let BatchAnswer::KnMatch(answer) = out.into_answer() else {
            panic!("kn query must yield a kn answer");
        };
        assert_eq!(answer.ids(), vec![40]);
        assert_eq!(answer.epsilon(), 0.0);
        assert_matches_oracle(&snap, &[q]);
    }

    #[test]
    fn seal_and_compaction_preserve_the_epoch_answers() {
        let idx = filled(100); // everything still in the delta
        let before = idx.snapshot();
        idx.seal().unwrap();
        let sealed = idx.snapshot();
        assert_eq!(before.epoch(), sealed.epoch());
        let queries = sample_queries();
        let a = before.run(&queries);
        let b = sealed.run(&queries);
        for (x, y) in a.into_iter().zip(b) {
            assert_eq!(x.unwrap().answer(), y.unwrap().answer());
        }
        // Compaction after deletes keeps answers identical too.
        idx.remove(40).unwrap();
        let pre = idx.snapshot();
        assert!(idx.compact().unwrap());
        let post = idx.snapshot();
        assert_eq!(pre.epoch(), post.epoch());
        let a = pre.run(&queries);
        let b = post.run(&queries);
        for (x, y) in a.into_iter().zip(b) {
            assert_eq!(x.unwrap().answer(), y.unwrap().answer());
        }
        assert_eq!(post.run_count(), 1);
        assert_eq!(idx.version_stats().tombstones, 0);
    }

    #[test]
    fn from_dataset_seeds_identity_keys() {
        let ds = crate::paper::fig3_dataset();
        let idx = VersionedIndex::from_dataset(&ds, 1, 2, 4).unwrap();
        assert_eq!(idx.live(), 5);
        assert_eq!(idx.epoch(), 0);
        let snap = idx.snapshot();
        assert_matches_oracle(&snap, &sample_queries());
        // Key space continues past the seed.
        idx.insert(5, &[1.0, 1.0, 1.0]).unwrap();
        idx.remove(0).unwrap();
        assert_matches_oracle(&idx.snapshot(), &sample_queries());
    }

    /// A run keeps no rows, only columns: what `live_rows` (and with it
    /// compaction) scatters back out must be the rows that went in, bit
    /// for bit — `-0.0` beside `0.0`, subnormals, a whole column of
    /// duplicates, and a single-point index included.
    #[test]
    fn rows_scattered_out_of_columns_are_the_rows_put_in() {
        let tricky: Vec<Vec<f64>> = vec![
            vec![-0.0, f64::MIN_POSITIVE / 2.0, 7.0],
            vec![0.0, -f64::MIN_POSITIVE / 4.0, 7.0],
            vec![-0.0, 5e-324, 7.0],
            vec![1.5, 0.0, 7.0],
            vec![0.0, -0.0, 7.0],
            vec![-1.5, f64::MAX, 7.0],
            vec![f64::MIN, 1.5, 7.0],
        ];
        // (key, bits of the row), keys = positions in `tricky`.
        let want = |keys: &[usize]| -> Vec<(PointId, Vec<u64>)> {
            let bits = |i: &usize| tricky[*i].iter().map(|v| v.to_bits()).collect();
            keys.iter().map(|i| (*i as PointId, bits(i))).collect()
        };
        let got = |idx: &VersionedIndex| -> Vec<(PointId, Vec<u64>)> {
            let rows = idx.snapshot().live_rows().into_iter();
            rows.map(|(key, row)| (key, row.iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        for c in [7, 1] {
            let ds = Dataset::from_rows(&tricky[..c]).unwrap();
            for runs in [1, 3] {
                let idx = VersionedIndex::from_dataset(&ds, runs, 2, 4).unwrap();
                assert_eq!(got(&idx), want(&(0..c).collect::<Vec<_>>()), "runs={runs}");
            }
        }
        // Inserted in descending key order; read back from the delta run,
        // then from the sealed run.
        let idx = VersionedIndex::new(3, 1, 100).unwrap();
        for (key, row) in tricky.iter().enumerate().rev() {
            idx.insert(key as PointId, row).unwrap();
        }
        assert_eq!(got(&idx), want(&[0, 1, 2, 3, 4, 5, 6]));
        idx.seal().unwrap();
        assert_eq!(idx.version_stats().delta_len, 0);
        assert_eq!(got(&idx), want(&[0, 1, 2, 3, 4, 5, 6]));
        // Three runs of two, most rows deleted: the compacted run is built
        // from scattered rows and must hand the survivors back unchanged.
        let idx = VersionedIndex::new(3, 2, 2).unwrap();
        for (key, row) in tricky.iter().enumerate() {
            idx.insert(key as PointId, row).unwrap();
        }
        for key in [0, 1, 3, 5] {
            idx.remove(key).unwrap();
        }
        assert!(idx.maintain().unwrap());
        assert_eq!(idx.version_stats().tombstones, 0);
        assert_eq!(got(&idx), want(&[2, 4, 6]));
    }

    #[test]
    fn auto_seal_and_maintenance_counters() {
        let idx = filled(2);
        let stats = idx.version_stats();
        assert_eq!(stats.inserts, 5);
        assert!(stats.seals >= 2, "threshold 2 must have auto-sealed");
        assert!(stats.delta_len < 2);
        // Deleting most sealed rows makes maintenance due.
        idx.remove(10).unwrap();
        idx.remove(20).unwrap();
        idx.remove(30).unwrap();
        assert!(idx.needs_maintenance());
        assert!(idx.maintain().unwrap());
        let after = idx.version_stats();
        assert_eq!(after.merges, 1);
        assert_eq!(after.tombstones, 0);
        assert_eq!(after.live, 2);
        assert_matches_oracle(&idx.snapshot(), &sample_queries());
    }

    #[test]
    fn errors() {
        assert!(matches!(
            VersionedIndex::new(0, 1, 4).unwrap_err(),
            KnMatchError::ZeroDimensions
        ));
        let idx = VersionedIndex::new(2, 1, 4).unwrap();
        assert!(matches!(
            idx.insert(1, &[1.0]).unwrap_err(),
            KnMatchError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            idx.insert(1, &[1.0, f64::NAN]).unwrap_err(),
            KnMatchError::NonFiniteValue { dim: 1 }
        ));
        assert!(matches!(
            idx.remove(7).unwrap_err(),
            KnMatchError::KeyNotFound { key: 7 }
        ));
        // Empty index: queries fail validation, not execution.
        let q = BatchQuery::KnMatch {
            query: vec![0.0, 0.0],
            k: 1,
            n: 1,
        };
        assert!(matches!(
            idx.snapshot().run(&[q]).remove(0).unwrap_err(),
            KnMatchError::EmptyDataset
        ));
        // Removing the last row returns to the empty state cleanly.
        idx.insert(3, &[0.5, 0.5]).unwrap();
        idx.remove(3).unwrap();
        assert_eq!(idx.live(), 0);
    }

    #[test]
    fn writer_hook_exposes_the_mutation_surface() {
        let idx = filled(4);
        let w = BatchEngine::writer(&idx).expect("versioned index is writable");
        let before = w.epoch();
        w.insert(99, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(w.epoch(), before + 1);
        assert_eq!(w.version_stats().live, 6);
    }
}
