//! Reusable per-query working memory for the AD algorithm.
//!
//! Every AD run needs an array indexed by point slot — how often each
//! point has appeared (`appear`) — plus the frontier and cursor state of
//! the walk itself. Allocating and zeroing that array per query costs O(c)
//! before the first attribute is read, which dominates at high cardinality
//! and small answers. A [`Scratch`] keeps it alive across queries and
//! clears it in O(1) with an epoch stamp: each slot carries the epoch of
//! the query that last wrote it, and a slot whose stamp differs from the
//! current epoch reads as zero. Starting a query is a single integer
//! increment.
//!
//! Reuse also works *across* engine calls: every engine keeps its
//! workers' scratches in its [`Park`](crate::Park) between batches, so a
//! server issuing many small [`run_with`](crate::BatchEngine::run_with)
//! calls (one per single-query job) pays the O(c) warm-up once per
//! worker, not per call, whichever thread runs the batch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{KnMatchError, Result};
use crate::frontier::AdWalker;
use crate::point::PointId;

/// How many AD pops elapse between cooperative deadline /
/// cancellation checks. Checking costs an `Instant::now()` and an atomic
/// load; every 64 pops that is noise (a pop reads an attribute and
/// replays the frontier tree) while still bounding overshoot to well under a
/// millisecond of work.
const CONTROL_CHECK_INTERVAL: u32 = 64;

/// Cooperative per-query deadline and cancellation, checked inside the
/// AD pop loop (DESIGN.md §10).
///
/// A default `QueryControl` imposes nothing: the checks reduce to two
/// `None` tests and the healthy path's answers and
/// [`AdStats`](crate::AdStats) are bit-identical to a build without any
/// control plumbing. Engines arm their workers' [`Scratch`] with a
/// control per batch (see [`BatchOptions`](crate::engine::BatchOptions)
/// and [`Park::run`](crate::Park::run)).
#[derive(Debug, Clone, Default)]
pub struct QueryControl {
    /// Absolute point in time after which the query gives up with
    /// [`KnMatchError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Shared flag; when set, the query gives up with
    /// [`KnMatchError::Cancelled`] (fail-fast batches trip it on the
    /// first failure).
    pub cancel: Option<Arc<AtomicBool>>,
}

impl QueryControl {
    /// A control that never interrupts (the default).
    pub fn none() -> Self {
        QueryControl::default()
    }

    /// Whether any check could ever fire.
    fn is_armed(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Immediate check, used once at query start so even a query whose
    /// walk is shorter than the check interval honours an
    /// already-expired deadline or an already-tripped cancel flag.
    ///
    /// # Errors
    ///
    /// [`KnMatchError::Cancelled`] or [`KnMatchError::DeadlineExceeded`].
    pub(crate) fn precheck(&self) -> Result<()> {
        if !self.is_armed() {
            return Ok(());
        }
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(KnMatchError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(KnMatchError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Loop-body check: consults the clock and the cancel flag every
    /// [`CONTROL_CHECK_INTERVAL`] calls. `tick` is the caller's local
    /// counter (local so the stride never depends on what previous
    /// queries did).
    ///
    /// # Errors
    ///
    /// As [`QueryControl::precheck`].
    #[inline]
    pub(crate) fn check(&self, tick: &mut u32) -> Result<()> {
        if !self.is_armed() {
            return Ok(());
        }
        *tick += 1;
        if !tick.is_multiple_of(CONTROL_CHECK_INTERVAL) {
            return Ok(());
        }
        self.precheck()
    }
}

/// Epoch-stamped appearance counters, indexed by slot (a plain source's
/// pid; a snapshot's run base + local pid): logically zeroed per query by
/// bumping a generation counter instead of an O(c) memset. Each slot is
/// one word — the epoch that last wrote it in the high 16 bits, the count
/// in the low 16 — so a pop touches one cache line, not two.
#[derive(Debug, Default)]
pub(crate) struct EpochMarks {
    /// Generation of the current query, in `1..=u16::MAX` once begun.
    /// Slots stamped with another epoch are stale and read as zero.
    epoch: u32,
    marks: Vec<u32>,
}

impl EpochMarks {
    /// Starts a query over a source of `c` slots: grows the array if
    /// this source is larger than any seen before, then invalidates every
    /// slot by bumping the epoch. On the (once per 2¹⁶ queries) epoch wrap
    /// the marks are hard-reset so stale slots cannot alias the new epoch.
    pub(crate) fn begin(&mut self, c: usize) {
        if self.marks.len() < c {
            // Epoch 0 is never current, so new slots are stale like the
            // rest and lazily zeroed on first touch.
            self.marks.resize(c, 0);
        }
        if self.epoch == u32::from(u16::MAX) {
            self.marks.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Increments and returns the appearance count of `slot`, lazily
    /// zeroing a stale one first. A count is at most `d`, the lists a
    /// point appears in — below 2¹⁶, as the `u16` it returns assumes — so
    /// it never carries into the epoch.
    pub(crate) fn bump_appear(&mut self, slot: PointId) -> u16 {
        let mark = &mut self.marks[slot as usize];
        let stamp = self.epoch << 16;
        let fresh = if *mark & !0xFFFF == stamp {
            *mark
        } else {
            stamp
        };
        debug_assert_ne!(fresh & 0xFFFF, 0xFFFF, "appearance count overflow");
        *mark = fresh + 1;
        (*mark & 0xFFFF) as u16
    }
}

/// Reusable working memory for AD queries: the epoch-stamped counters and
/// the walker (frontier, cursors, query buffer).
///
/// One `Scratch` serves any number of queries, of any kind, against
/// sources of any size — it grows to the largest cardinality it has seen
/// and never shrinks. It is cheap to create but worth reusing: with a
/// fresh `Scratch` per query the per-query cost includes zeroing an
/// array of length `c`; with a reused one it is an integer increment.
///
/// Not `Sync`/shareable: use one per thread (every batch engine keeps
/// one per worker in its [`Park`](crate::Park)).
///
/// # Examples
///
/// ```
/// use knmatch_core::{k_n_match_ad_with, Scratch, SortedColumns};
///
/// let mut cols = SortedColumns::from_rows(&[[0.1, 0.9], [0.5, 0.4]]).unwrap();
/// let mut scratch = Scratch::new();
/// for q in [[0.5, 0.5], [0.0, 1.0]] {
///     let (res, _) = k_n_match_ad_with(&mut cols, &q, 1, 2, &mut scratch).unwrap();
///     assert_eq!(res.entries.len(), 1);
/// }
/// ```
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) marks: EpochMarks,
    pub(crate) walker: AdWalker,
    /// Deadline/cancellation the next query run against this scratch
    /// must honour. Defaults to no control; engines stamp it per batch.
    pub control: QueryControl,
}

impl Scratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bump_invalidates_previous_query() {
        let mut m = EpochMarks::default();
        m.begin(4);
        assert_eq!(m.bump_appear(2), 1);
        assert_eq!(m.bump_appear(2), 2);
        // Next query: all slots logically zero again, no memset.
        m.begin(4);
        assert_eq!(m.bump_appear(2), 1);
    }

    #[test]
    fn grows_to_larger_sources_and_keeps_working() {
        let mut m = EpochMarks::default();
        m.begin(2);
        assert_eq!(m.bump_appear(1), 1);
        m.begin(10);
        assert_eq!(m.bump_appear(9), 1);
        assert_eq!(m.bump_appear(1), 1);
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        let mut m = EpochMarks::default();
        m.begin(3);
        m.bump_appear(0);
        // Walk the epoch to its last value: a slot bumped then must not
        // read as current after the wrap to epoch 1, nor a slot stamped
        // with epoch 1 long ago.
        m.marks[2] = (1 << 16) | 7;
        for _ in 2..=u16::MAX {
            m.begin(3);
        }
        assert_eq!(m.epoch, u32::from(u16::MAX));
        assert_eq!(m.bump_appear(1), 1);
        assert_eq!(m.bump_appear(1), 2);
        m.begin(3);
        assert_eq!(m.epoch, 1);
        assert!(m.marks.iter().all(|&s| s == 0));
        assert_eq!(m.bump_appear(0), 1);
        assert_eq!(m.bump_appear(1), 1);
        assert_eq!(m.bump_appear(2), 1);
    }
}
