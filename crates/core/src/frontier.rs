//! The AD algorithm's frontier `g[]` — the per-cursor candidate set from
//! which the globally smallest difference pops next — plus the shared
//! cursor-walking machinery.
//!
//! The paper maintains `g[]` as a plain array of `2d` triples and scans it
//! for the minimum on every pop (`smallest(g)`, Figure 4). That is O(d)
//! per pop; a binary heap makes it O(log d). Both are implemented behind
//! the [`Frontier`] trait — identical answers, different constant factors —
//! and benched against each other as an ablation (`frontier` bench).

use std::collections::BinaryHeap;

use crate::ad::AdStats;
use crate::point::PointId;
use crate::source::{SortedAccessSource, SortedEntry};

/// What one AD walk runs over: the `d` sorted lists of each of `S`
/// disjoint *parts* of the points — `S · d` lists, one frontier.
///
/// A plain [`SortedAccessSource`] is the `S = 1` case (blanket impl
/// below): one part, slot = pid, every point live. A versioned snapshot
/// is the general one: a part per run, a run's points numbered from the
/// run's base slot, and a slot resolved to its key — or to nothing, when
/// the key is tombstoned — only once the point completes. The walk is
/// generic over this trait and monomorphised per source, so the one-part
/// loop carries no trace of the run list.
pub(crate) trait SortedLists {
    /// Dimensionality `d`.
    fn dims(&self) -> usize;

    /// Number of parts `S`.
    fn parts(&self) -> usize;

    /// Length of each of `part`'s `d` lists.
    fn part_len(&self, part: usize) -> usize;

    /// Total list length over the parts; [`entry`](Self::entry) reports
    /// ids in `0..slots()`.
    fn slots(&self) -> usize {
        (0..self.parts()).map(|part| self.part_len(part)).sum()
    }

    /// Points that can be answers — the cardinality queries validate
    /// against.
    fn live(&self) -> usize;

    /// [`SortedAccessSource::locate`] in `part`'s list for `dim`.
    fn locate(&mut self, part: usize, dim: usize, q: f64) -> usize;

    /// [`SortedAccessSource::entry`] in `part`'s list for `dim`; `pid`
    /// is the point's slot.
    fn entry(&mut self, part: usize, dim: usize, rank: usize) -> SortedEntry;

    /// The id answers report for `slot`, or `None` when the point is
    /// dead and must never count as an answer.
    fn resolve(&self, slot: PointId) -> Option<PointId>;
}

impl<S: SortedAccessSource> SortedLists for S {
    fn dims(&self) -> usize {
        SortedAccessSource::dims(self)
    }

    fn parts(&self) -> usize {
        1
    }

    fn part_len(&self, _part: usize) -> usize {
        self.cardinality()
    }

    fn live(&self) -> usize {
        self.cardinality()
    }

    fn locate(&mut self, _part: usize, dim: usize, q: f64) -> usize {
        SortedAccessSource::locate(self, dim, q)
    }

    fn entry(&mut self, _part: usize, dim: usize, rank: usize) -> SortedEntry {
        SortedAccessSource::entry(self, dim, rank)
    }

    fn resolve(&self, slot: PointId) -> Option<PointId> {
        Some(slot)
    }
}

/// A frontier item: the paper's `(pid, pd, dif)` triple. `cid` identifies
/// the cursor (list × direction) that produced it; `pid` is the point's
/// slot (see [`SortedLists`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Triple {
    pub diff: f64,
    pub cid: u32,
    pub pid: PointId,
}

impl Eq for Triple {}

impl PartialOrd for Triple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Triple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted so BinaryHeap (a max-heap) pops the smallest difference;
        // ties break on cursor id then pid for determinism.
        other
            .diff
            .total_cmp(&self.diff)
            .then_with(|| other.cid.cmp(&self.cid))
            .then_with(|| other.pid.cmp(&self.pid))
    }
}

/// Storage for the frontier: push one triple per live cursor, pop the one
/// with the globally smallest difference.
pub(crate) trait Frontier {
    /// Creates a frontier for `2d` cursors.
    fn with_cursors(cursors: usize) -> Self;

    /// Empties the frontier and re-sizes it for `cursors` cursors, keeping
    /// any allocation (so a reused walker allocates nothing per query).
    fn reset(&mut self, cursors: usize);

    /// Adds a triple (each cursor has at most one triple in flight).
    fn push(&mut self, t: Triple);

    /// Removes and returns the smallest-difference triple.
    fn pop(&mut self) -> Option<Triple>;

    /// The smallest-difference triple, without removing it.
    fn peek(&self) -> Option<Triple>;

    /// Swaps the smallest-difference triple for `t` in one restructuring
    /// (the walker's pop-then-refill fused into a single sift). The
    /// frontier must be non-empty. Observable behaviour is exactly
    /// `pop(); push(t)` — cursor ids make the order strict, so the pop
    /// sequence cannot depend on internal layout.
    fn replace(&mut self, t: Triple);
}

/// O(log d)-per-pop binary heap (this library's default).
#[derive(Debug)]
pub(crate) struct HeapFrontier {
    heap: BinaryHeap<Triple>,
}

impl Frontier for HeapFrontier {
    fn with_cursors(cursors: usize) -> Self {
        HeapFrontier {
            heap: BinaryHeap::with_capacity(cursors),
        }
    }

    fn reset(&mut self, cursors: usize) {
        self.heap.clear();
        if self.heap.capacity() < cursors {
            self.heap.reserve(cursors - self.heap.capacity());
        }
    }

    fn push(&mut self, t: Triple) {
        self.heap.push(t);
    }

    fn pop(&mut self) -> Option<Triple> {
        self.heap.pop()
    }

    fn peek(&self) -> Option<Triple> {
        self.heap.peek().copied()
    }

    fn replace(&mut self, t: Triple) {
        let mut root = self.heap.peek_mut().expect("replace on empty frontier");
        // Writing through PeekMut sifts down on drop: one O(log d)
        // restructure instead of pop's sift plus push's sift.
        *root = t;
    }
}

/// The paper's `g[]`: one slot per cursor, linear scan for the minimum
/// (O(d) per pop). Kept for the ablation bench and as a fidelity witness.
#[derive(Debug)]
pub(crate) struct LinearFrontier {
    slots: Vec<Option<Triple>>,
}

impl Frontier for LinearFrontier {
    fn with_cursors(cursors: usize) -> Self {
        LinearFrontier {
            slots: vec![None; cursors],
        }
    }

    fn reset(&mut self, cursors: usize) {
        self.slots.clear();
        self.slots.resize(cursors, None);
    }

    fn push(&mut self, t: Triple) {
        debug_assert!(
            self.slots[t.cid as usize].is_none(),
            "one triple per cursor"
        );
        self.slots[t.cid as usize] = Some(t);
    }

    fn pop(&mut self) -> Option<Triple> {
        let best = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|t| (i, t)))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))?;
        self.slots[best.0] = None;
        Some(best.1)
    }

    fn peek(&self) -> Option<Triple> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|t| (i, t)))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(_, t)| t)
    }

    fn replace(&mut self, t: Triple) {
        self.pop().expect("replace on empty frontier");
        self.push(t);
    }
}

/// One directional cursor over one sorted list: the list it walks
/// (dimension `dim` of part `part`, `len` entries) and the rank it last
/// read there.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    last: usize,
    len: usize,
    part: u32,
    dim: u32,
}

/// The cursor-walking core of the AD algorithm: seeds two cursors per
/// sorted list (`2 · S · d`) around the query and serves `(slot, diff)`
/// pops in ascending difference order, refilling the popped cursor from
/// the source. Cursor ids run part-major (`2 · (part · d + dim)` down,
/// `+ 1` up), so one part numbers its cursors `2 · dim`, `2 · dim + 1`.
/// Generic over the frontier representation and the lists.
#[derive(Debug)]
pub(crate) struct AdWalker<F: Frontier> {
    query: Vec<f64>,
    frontier: F,
    cursors: Vec<Cursor>,
    pub(crate) stats: AdStats,
}

impl<F: Frontier> Default for AdWalker<F> {
    fn default() -> Self {
        Self::new_empty()
    }
}

impl<F: Frontier> AdWalker<F> {
    /// An unseeded walker holding no state; [`reseed`](Self::reseed) it
    /// before walking. Exists so a walker can live in reusable scratch.
    pub(crate) fn new_empty() -> Self {
        AdWalker {
            query: Vec::new(),
            frontier: F::with_cursors(0),
            cursors: Vec::new(),
            stats: AdStats::default(),
        }
    }

    /// Re-points the walker at a new (source, query) pair, reusing every
    /// buffer: binary-search each list, push the closest attribute in
    /// each direction. Stats restart from zero.
    pub(crate) fn reseed<L: SortedLists>(&mut self, src: &mut L, query: &[f64]) {
        let parts = src.parts();
        self.query.clear();
        self.query.extend_from_slice(query);
        self.frontier.reset(2 * parts * query.len());
        self.cursors.clear();
        self.stats = AdStats::default();
        for part in 0..parts {
            let len = src.part_len(part);
            for (dim, &qv) in query.iter().enumerate() {
                let pos = src.locate(part, dim, qv);
                self.stats.locate_probes += 1;
                let down = self.cursors.len();
                let cursor = Cursor {
                    last: pos,
                    len,
                    part: part as u32,
                    dim: dim as u32,
                };
                self.cursors.extend([cursor, cursor]);
                if pos > 0 {
                    self.read_into_frontier(src, down, pos - 1);
                }
                if pos < len {
                    self.read_into_frontier(src, down + 1, pos);
                }
            }
        }
    }

    /// Seeds a fresh walker: binary-search each list, push the closest
    /// attribute in each direction.
    pub(crate) fn seed<L: SortedLists>(src: &mut L, query: &[f64]) -> Self {
        let mut walker = Self::new_empty();
        walker.reseed(src, query);
        walker
    }

    /// Retrieves `rank` of cursor `cid`'s list, counting the sorted
    /// access and advancing the cursor.
    fn retrieve<L: SortedLists>(&mut self, src: &mut L, cid: usize, rank: usize) -> Triple {
        let cursor = &mut self.cursors[cid];
        cursor.last = rank;
        let (part, dim) = (cursor.part as usize, cursor.dim as usize);
        let e = src.entry(part, dim, rank);
        self.stats.attributes_retrieved += 1;
        Triple {
            diff: (e.value - self.query[dim]).abs(),
            cid: cid as u32,
            pid: e.pid,
        }
    }

    fn read_into_frontier<L: SortedLists>(&mut self, src: &mut L, cid: usize, rank: usize) {
        let t = self.retrieve(src, cid, rank);
        self.frontier.push(t);
    }

    /// The difference the next [`next_pop`](Self::next_pop) would return,
    /// without advancing anything. `None` once the frontier is exhausted.
    /// The canonical tie drain in `frequent_core` peeks this to decide
    /// whether boundary-tied attributes remain.
    pub(crate) fn peek_diff(&self) -> Option<f64> {
        self.frontier.peek().map(|t| t.diff)
    }

    /// Pops the next `(slot, diff)` in ascending difference order and
    /// refills the popped cursor. `None` once every attribute of every
    /// list has been consumed. Pop and refill are fused into one
    /// [`Frontier::replace`] when the cursor has attributes left.
    pub(crate) fn next_pop<L: SortedLists>(&mut self, src: &mut L) -> Option<(PointId, f64)> {
        let item = self.frontier.peek()?;
        self.stats.heap_pops += 1;
        let cid = item.cid as usize;
        let Cursor { last, len, .. } = self.cursors[cid];
        let refill = if cid % 2 == 0 {
            // Towards smaller values.
            last.checked_sub(1)
        } else if last + 1 < len {
            // Towards larger values.
            Some(last + 1)
        } else {
            None
        };
        if let Some(rank) = refill {
            let t = self.retrieve(src, cid, rank);
            self.frontier.replace(t);
        } else {
            self.frontier.pop();
        }
        Some((item.pid, item.diff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::SortedColumns;

    fn pops<F: Frontier>() -> Vec<(PointId, f64)> {
        let ds = crate::paper::fig3_dataset();
        let mut cols = SortedColumns::build(&ds);
        let mut w: AdWalker<F> = AdWalker::seed(&mut cols, &[3.0, 7.0, 4.0]);
        let mut out = Vec::new();
        while let Some(p) = w.next_pop(&mut cols) {
            out.push(p);
        }
        out
    }

    #[test]
    fn walker_emits_all_attributes_in_ascending_order() {
        let seq = pops::<HeapFrontier>();
        assert_eq!(seq.len(), 15); // c·d = 5 × 3
        assert!(seq.windows(2).all(|w| w[0].1 <= w[1].1));
        // First pops match the paper's walk: point 2 (diff 0.2) then
        // point 5 (diff 0.5), 0-based pids 1 and 4.
        assert_eq!(seq[0].0, 1);
        assert!((seq[0].1 - 0.2).abs() < 1e-12);
        assert_eq!(seq[1].0, 4);
        assert!((seq[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn linear_frontier_equals_heap_frontier() {
        assert_eq!(pops::<HeapFrontier>(), pops::<LinearFrontier>());
    }

    #[test]
    fn reseeded_walker_equals_fresh_walker() {
        let ds = crate::paper::fig3_dataset();
        let mut cols = SortedColumns::build(&ds);
        let mut reused: AdWalker<HeapFrontier> = AdWalker::new_empty();
        for q in [[3.0, 7.0, 4.0], [0.0, 0.0, 0.0], [9.0, 1.0, 5.0]] {
            reused.reseed(&mut cols, &q);
            let mut fresh: AdWalker<HeapFrontier> = AdWalker::seed(&mut cols, &q);
            loop {
                let a = reused.next_pop(&mut cols);
                let b = fresh.next_pop(&mut cols);
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(reused.stats, fresh.stats);
        }
    }

    #[test]
    fn linear_frontier_pop_order() {
        let mut f = LinearFrontier::with_cursors(4);
        f.push(Triple {
            diff: 0.5,
            cid: 0,
            pid: 1,
        });
        f.push(Triple {
            diff: 0.1,
            cid: 2,
            pid: 2,
        });
        f.push(Triple {
            diff: 0.5,
            cid: 1,
            pid: 3,
        });
        assert_eq!(f.pop().unwrap().pid, 2);
        // Ties: smaller cid first, matching the heap's determinism.
        assert_eq!(f.pop().unwrap().cid, 0);
        assert_eq!(f.pop().unwrap().cid, 1);
        assert!(f.pop().is_none());
    }
}
