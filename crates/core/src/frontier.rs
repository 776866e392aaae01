//! The AD algorithm's frontier `g[]` — the per-cursor candidate set from
//! which the globally smallest difference pops next — plus the shared
//! cursor-walking machinery.
//!
//! The paper keeps `g[]` as a plain array of `2d` triples and scans it for
//! the minimum on every pop (`smallest(g)`, Figure 4): O(d) per pop. Here
//! it is a tournament (loser) tree over the cursors, keyed by integers, so
//! a pop is one leaf-to-root replay of `log₂(2 · S · d)` branch-free
//! matches. Both orders are the same strict order — ascending difference,
//! ties to the smaller cursor id — so the pops, the attributes retrieved
//! and the sorted accesses a source sees are those of the paper's scan,
//! which survives as the test oracle
//! [`frequent_k_n_match_ad_linear`](crate::frequent_k_n_match_ad_linear).

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

    /// [`SortedAccessSource::locate_each`] over `part`'s `d` lists:
    /// `found(self, dim, rank)` for every dimension, in order — seeding.
    fn locate_part<F: FnMut(&mut Self, usize, usize)>(
        &mut self,
        part: usize,
        query: &[f64],
        found: F,
    ) where
        Self: Sized;

    /// [`SortedAccessSource::entry`] in `part`'s list for `dim`; `pid`
    /// is the point's slot.
    fn entry(&mut self, part: usize, dim: usize, rank: usize) -> SortedEntry;

    /// The id answers report for `slot`, or `None` when the point is
    /// dead and must never count as an answer.
    fn resolve(&self, slot: PointId) -> Option<PointId>;

    /// The difference of attribute `value` in `dim` to the query's `q` —
    /// the walk's key. It must be non-negative and non-decreasing in
    /// `|value − q|`, so the two cursors seeded around `q` still emit
    /// ascending keys; a hybrid schema weights or matches per dimension
    /// (`crate::hybrid`).
    fn diff(&self, _dim: usize, value: f64, q: f64) -> f64 {
        (value - q).abs()
    }
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

    fn locate_part<F: FnMut(&mut Self, usize, usize)>(
        &mut self,
        _part: usize,
        query: &[f64],
        found: F,
    ) {
        self.locate_each(query, found);
    }

    fn entry(&mut self, _part: usize, dim: usize, rank: usize) -> SortedEntry {
        SortedAccessSource::entry(self, dim, rank)
    }

    fn resolve(&self, slot: PointId) -> Option<PointId> {
        Some(slot)
    }
}

/// The key of an exhausted cursor. A difference is an `abs()` (times a
/// positive weight, or a categorical `+0.0` or weight, under a hybrid
/// schema), so its sign bit is clear and its bits order exactly like
/// [`f64::total_cmp`] — `+0.0` and subnormals first, `+∞` (`0x7FF0…`)
/// last — and every one of them sorts below this.
const EXHAUSTED: u64 = u64::MAX;

/// The ordering key of a difference (see [`EXHAUSTED`]).
fn key_of(diff: f64) -> u64 {
    debug_assert!(diff.is_sign_positive() && !diff.is_nan());
    diff.to_bits()
}

/// One slot of the tree: a cursor id and the key of its current head.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    cid: u32,
}

impl Node {
    const EMPTY: Node = Node {
        key: EXHAUSTED,
        cid: u32::MAX,
    };
}

/// A tournament (loser) tree over `width` leaves — the cursors, padded
/// to a power of two with exhausted ones. Internal node `v` holds the
/// loser of the match between its two subtrees' winners; `nodes[0]`
/// holds the overall winner, the smallest `(key, cid)`. Leaves are laid
/// out in cursor-id order, so a left subtree's cursor ids are all smaller
/// than its right sibling's.
#[derive(Debug, Default)]
struct LoserTree {
    /// `nodes[0]`: the winner; `nodes[1..width]`: the losers;
    /// `nodes[width..]`: the leaves, read only by [`build`](Self::build).
    nodes: Vec<Node>,
    width: usize,
    levels: u32,
}

impl LoserTree {
    /// Empties the tree and sizes it for `cursors` leaves, every one
    /// exhausted, keeping any allocation.
    fn reset(&mut self, cursors: usize) {
        self.width = cursors.max(2).next_power_of_two();
        self.levels = self.width.trailing_zeros();
        self.nodes.clear();
        self.nodes.resize(2 * self.width, Node::EMPTY);
    }

    /// Sets leaf `cid`'s key; [`build`](Self::build) plays the matches.
    fn set_leaf(&mut self, cid: usize, key: u64) {
        self.nodes[self.width + cid] = Node {
            key,
            cid: cid as u32,
        };
    }

    /// Plays every match from the leaves up.
    fn build(&mut self) {
        self.nodes[0] = self.play(1);
    }

    /// Plays the subtree under node `v`, keeping each match's loser, and
    /// returns its winner. The left child wins ties: its cursor ids are
    /// the smaller ones.
    fn play(&mut self, v: usize) -> Node {
        if v >= self.width {
            return self.nodes[v];
        }
        let (left, right) = (self.play(2 * v), self.play(2 * v + 1));
        let (win, lose) = if right.key < left.key {
            (right, left)
        } else {
            (left, right)
        };
        self.nodes[v] = lose;
        win
    }

    /// The smallest `(key, cid)`.
    fn winner(&self) -> Node {
        self.nodes[0]
    }

    /// Gives the winning cursor `cid` its next key and replays its path
    /// to the root. Every node on that path holds the winner of the
    /// *sibling* subtree (the old winner came up through this side), so
    /// the tie-break needs no cursor id: the challenger from the left
    /// subtree wins ties, the one from the right loses them. Both
    /// selections are masks, not branches.
    fn replay(&mut self, cid: u32, key: u64) {
        let mut win = Node { key, cid };
        let mut v = self.width + cid as usize;
        for _ in 0..self.levels {
            let from_left = v & 1 == 0;
            v >>= 1;
            let held = self.nodes[v];
            let swap = (held.key < win.key) | ((held.key == win.key) & !from_left);
            let mask = 0u64.wrapping_sub(u64::from(swap));
            let cmask = mask as u32;
            self.nodes[v] = Node {
                key: (win.key & mask) | (held.key & !mask),
                cid: (win.cid & cmask) | (held.cid & !cmask),
            };
            win = Node {
                key: (held.key & mask) | (win.key & !mask),
                cid: (held.cid & cmask) | (win.cid & !cmask),
            };
        }
        self.nodes[0] = win;
    }
}

/// One directional cursor over one sorted list: the list it walks
/// (dimension `dim` of part `part`, `len` entries), the rank it last
/// read there and the slot of that entry — the head it holds in the
/// tree.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    last: usize,
    len: usize,
    part: u32,
    dim: u32,
    pid: PointId,
}

/// The cursor-walking core of the AD algorithm: seeds two cursors per
/// sorted list (`2 · S · d`) around the query and serves `(slot, diff)`
/// pops in ascending `(diff, cursor id)` order, refilling the popped
/// cursor from the source. Cursor ids run part-major (`2 · (part · d +
/// dim)` down, `+ 1` up), so one part numbers its cursors `2 · dim`,
/// `2 · dim + 1`.
#[derive(Debug, Default)]
pub(crate) struct AdWalker {
    query: Vec<f64>,
    tree: LoserTree,
    cursors: Vec<Cursor>,
    pub(crate) stats: AdStats,
}

impl AdWalker {
    /// Re-points the walker at a new (source, query) pair, reusing every
    /// buffer: binary-search each list, read the closest attribute in
    /// each direction, play the tournament once. Stats restart from zero.
    pub(crate) fn reseed<L: SortedLists>(&mut self, src: &mut L, query: &[f64]) {
        let parts = src.parts();
        self.query.clear();
        self.query.extend_from_slice(query);
        self.tree.reset(2 * parts * query.len());
        self.cursors.clear();
        self.stats = AdStats::default();
        for part in 0..parts {
            let len = src.part_len(part);
            src.locate_part(part, query, |src, dim, pos| {
                self.stats.locate_probes += 1;
                let down = self.cursors.len();
                let cursor = Cursor {
                    last: pos,
                    len,
                    part: part as u32,
                    dim: dim as u32,
                    pid: 0,
                };
                self.cursors.extend([cursor, cursor]);
                if pos > 0 {
                    let key = self.retrieve(src, down, pos - 1);
                    self.tree.set_leaf(down, key);
                }
                if pos < len {
                    let key = self.retrieve(src, down + 1, pos);
                    self.tree.set_leaf(down + 1, key);
                }
            });
        }
        self.tree.build();
    }

    /// Seeds a fresh walker.
    pub(crate) fn seed<L: SortedLists>(src: &mut L, query: &[f64]) -> Self {
        let mut walker = Self::default();
        walker.reseed(src, query);
        walker
    }

    /// Retrieves `rank` of cursor `cid`'s list, counting the sorted
    /// access and making it the cursor's head; returns its key.
    fn retrieve<L: SortedLists>(&mut self, src: &mut L, cid: usize, rank: usize) -> u64 {
        let cursor = &mut self.cursors[cid];
        let e = src.entry(cursor.part as usize, cursor.dim as usize, rank);
        cursor.last = rank;
        cursor.pid = e.pid;
        self.stats.attributes_retrieved += 1;
        let dim = cursor.dim as usize;
        key_of(src.diff(dim, e.value, self.query[dim]))
    }

    /// The difference the next [`next_pop`](Self::next_pop) would return,
    /// without advancing anything. `None` once every cursor is exhausted.
    /// The canonical tie drain in `frequent_lists` peeks this to decide
    /// whether boundary-tied attributes remain.
    pub(crate) fn peek_diff(&self) -> Option<f64> {
        let win = self.tree.winner();
        (win.key != EXHAUSTED).then(|| f64::from_bits(win.key))
    }

    /// Pops the next `(slot, diff)` in ascending difference order and
    /// refills the popped cursor — or exhausts it — with one replay.
    /// `None` once every attribute of every list has been consumed.
    #[inline]
    pub(crate) fn next_pop<L: SortedLists>(&mut self, src: &mut L) -> Option<(PointId, f64)> {
        let win = self.tree.winner();
        if win.key == EXHAUSTED {
            return None;
        }
        self.stats.heap_pops += 1;
        let cid = win.cid as usize;
        let Cursor { last, len, pid, .. } = self.cursors[cid];
        // Even cursors step towards smaller values, odd ones towards
        // larger: `last ∓ 1` without a branch on the direction, which is
        // a coin flip per pop. Stepping below rank 0 wraps past `len`, so
        // one compare finds either end of the list.
        let rank = last.wrapping_add(2 * (cid & 1)).wrapping_sub(1);
        let next = if rank < len {
            self.retrieve(src, cid, rank)
        } else {
            EXHAUSTED
        };
        self.tree.replay(win.cid, next);
        Some((pid, f64::from_bits(win.key)))
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::ad::PaperG;
    use crate::columns::SortedColumns;
    use crate::point::Dataset;
    use crate::{VersionWriter, VersionedIndex};

    fn pops() -> Vec<(PointId, f64)> {
        let ds = crate::paper::fig3_dataset();
        let mut cols = SortedColumns::build(&ds);
        let mut w = AdWalker::seed(&mut cols, &[3.0, 7.0, 4.0]);
        let mut out = Vec::new();
        while let Some(p) = w.next_pop(&mut cols) {
            out.push(p);
        }
        out
    }

    #[test]
    fn walker_emits_all_attributes_in_ascending_order() {
        let seq = pops();
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
        // The tree against the paper's literal g[] scan.
        let ds = crate::paper::fig3_dataset();
        let mut cols = SortedColumns::build(&ds);
        let mut g = PaperG::seed(&mut cols, &[3.0, 7.0, 4.0]);
        let mut linear = Vec::new();
        while let Some(p) = g.pop(&mut cols) {
            linear.push(p);
        }
        assert_eq!(pops(), linear);
    }

    #[test]
    fn reseeded_walker_equals_fresh_walker() {
        let ds = crate::paper::fig3_dataset();
        let mut cols = SortedColumns::build(&ds);
        let mut reused = AdWalker::default();
        for q in [[3.0, 7.0, 4.0], [0.0, 0.0, 0.0], [9.0, 1.0, 5.0]] {
            reused.reseed(&mut cols, &q);
            let mut fresh = AdWalker::seed(&mut cols, &q);
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
        let mut f = LoserTree::default();
        f.reset(4);
        f.set_leaf(0, key_of(0.5));
        f.set_leaf(2, key_of(0.1));
        f.set_leaf(1, key_of(0.5));
        f.build();
        let mut pop = || {
            let win = f.winner();
            f.replay(win.cid, EXHAUSTED);
            (win.key != EXHAUSTED).then_some(win.cid)
        };
        assert_eq!(pop(), Some(2));
        // Ties: smaller cid first, as the paper's g[] scan breaks them.
        assert_eq!(pop(), Some(0));
        assert_eq!(pop(), Some(1));
        assert!(pop().is_none());
    }

    /// Sorted lists that log every sorted access they serve.
    struct Logged<L> {
        lists: L,
        log: Vec<(usize, usize, usize)>,
    }

    impl<L: SortedLists> SortedLists for Logged<L> {
        fn dims(&self) -> usize {
            self.lists.dims()
        }
        fn parts(&self) -> usize {
            self.lists.parts()
        }
        fn part_len(&self, part: usize) -> usize {
            self.lists.part_len(part)
        }
        fn live(&self) -> usize {
            self.lists.live()
        }
        fn locate_part<F: FnMut(&mut Self, usize, usize)>(
            &mut self,
            part: usize,
            query: &[f64],
            mut found: F,
        ) {
            let mut ranks = Vec::new();
            self.lists
                .locate_part(part, query, |_, dim, rank| ranks.push((dim, rank)));
            for (dim, rank) in ranks {
                found(self, dim, rank);
            }
        }
        fn entry(&mut self, part: usize, dim: usize, rank: usize) -> SortedEntry {
            self.log.push((part, dim, rank));
            self.lists.entry(part, dim, rank)
        }
        fn resolve(&self, slot: PointId) -> Option<PointId> {
            self.lists.resolve(slot)
        }
        fn diff(&self, dim: usize, value: f64, q: f64) -> f64 {
            self.lists.diff(dim, value, q)
        }
    }

    /// A heap item of the reference walk: `(diff, cid)` under
    /// `total_cmp`, inverted so the max-heap pops the smallest.
    struct Item {
        diff: f64,
        cid: usize,
        pid: PointId,
    }

    impl PartialEq for Item {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .diff
                .total_cmp(&self.diff)
                .then(other.cid.cmp(&self.cid))
        }
    }

    /// The first rank of `part`'s list for `dim` holding a value `>= q`,
    /// by a plain binary search over sorted accesses.
    fn lower_bound<L: SortedLists>(mut lists: L, part: usize, dim: usize, q: f64) -> usize {
        let (mut lo, mut hi) = (0, lists.part_len(part));
        while lo < hi {
            let mid = (lo + hi) / 2;
            if lists.entry(part, dim, mid).value < q {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The whole walk over `lists` by a `BinaryHeap<(diff, cid)>`: every
    /// `(slot, diff)` pop with the stats after it, and the sorted accesses.
    #[allow(clippy::type_complexity)]
    fn reference_walk<L: SortedLists + Copy>(
        lists: L,
        query: &[f64],
    ) -> (Vec<((PointId, f64), AdStats)>, Vec<(usize, usize, usize)>) {
        let mut src = Logged {
            lists,
            log: Vec::new(),
        };
        let d = query.len();
        let mut stats = AdStats::default();
        let mut heap = BinaryHeap::new();
        // The rank each cursor last read.
        let mut at = vec![0usize; 2 * src.parts() * d];
        let read = |src: &mut Logged<L>, stats: &mut AdStats, cid: usize, rank: usize| {
            let (part, dim) = (cid / 2 / d, cid / 2 % d);
            let e = src.entry(part, dim, rank);
            stats.attributes_retrieved += 1;
            Item {
                diff: (e.value - query[dim]).abs(),
                cid,
                pid: e.pid,
            }
        };
        for part in 0..src.parts() {
            for (dim, &q) in query.iter().enumerate() {
                let pos = lower_bound(lists, part, dim, q);
                stats.locate_probes += 1;
                let down = 2 * (part * d + dim);
                if pos > 0 {
                    at[down] = pos - 1;
                    heap.push(read(&mut src, &mut stats, down, pos - 1));
                }
                if pos < src.part_len(part) {
                    at[down + 1] = pos;
                    heap.push(read(&mut src, &mut stats, down + 1, pos));
                }
            }
        }
        let mut pops = Vec::new();
        while let Some(item) = heap.pop() {
            stats.heap_pops += 1;
            let (cid, last) = (item.cid, at[item.cid]);
            let next = match cid % 2 {
                0 => last.checked_sub(1),
                _ => Some(last + 1).filter(|&rank| rank < src.part_len(cid / 2 / d)),
            };
            if let Some(rank) = next {
                at[cid] = rank;
                heap.push(read(&mut src, &mut stats, cid, rank));
            }
            pops.push(((item.pid, item.diff), stats));
        }
        (pops, src.log)
    }

    /// The walker's pops, stats and sorted accesses equal the reference
    /// walk's, bit for bit, over `lists`.
    fn assert_reference_order<L: SortedLists + Copy>(lists: L, query: &[f64], what: &str) {
        let (want, want_log) = reference_walk(lists, query);
        let mut src = Logged {
            lists,
            log: Vec::new(),
        };
        let mut walker = AdWalker::seed(&mut src, query);
        let mut got = Vec::new();
        while let Some((slot, diff)) = walker.next_pop(&mut src) {
            got.push(((slot, diff.to_bits()), walker.stats));
        }
        let want: Vec<_> = want
            .into_iter()
            .map(|((slot, diff), s)| ((slot, diff.to_bits()), s))
            .collect();
        assert_eq!(got, want, "{what}: pops and stats");
        assert_eq!(src.log, want_log, "{what}: sorted accesses");
        assert_eq!(walker.stats.heap_pops, walker.stats.attributes_retrieved);
        assert_eq!(walker.peek_diff(), None, "{what}: drained");
    }

    #[test]
    fn frontier_pops_in_reference_order() {
        let tiny = f64::from_bits(1);
        // (what, rows, queries)
        type Case = (&'static str, Vec<Vec<f64>>, Vec<Vec<f64>>);
        let cases: Vec<Case> = vec![
            (
                "0.25-grid ties",
                (0..40)
                    .map(|i| {
                        (0..3)
                            .map(|j| ((i * 7 + j * 3) % 9) as f64 * 0.25)
                            .collect()
                    })
                    .collect(),
                vec![vec![1.0, 0.5, 1.25], vec![0.125, 2.0, 0.0]],
            ),
            (
                "+0.0 beside subnormal diffs",
                [0.0, -0.0, tiny, -tiny, 2.0 * tiny, -3.0 * tiny, 0.0, tiny]
                    .iter()
                    .map(|&v| vec![v, -v])
                    .collect(),
                vec![vec![0.0, 0.0], vec![tiny, -tiny]],
            ),
            (
                "diffs overflowing to +inf",
                [f64::MAX, -f64::MAX, f64::MAX, 0.0, -f64::MAX, f64::MAX]
                    .iter()
                    .map(|&v| vec![v, -v, 1.0])
                    .collect(),
                vec![
                    vec![-f64::MAX, f64::MAX, 1.0],
                    vec![f64::MAX, 0.0, -f64::MAX],
                ],
            ),
            (
                "queries outside the data range",
                (0..25)
                    .map(|i| vec![i as f64 / 25.0, 1.0 - i as f64 / 25.0])
                    .collect(),
                vec![vec![-3.0, 7.0], vec![7.0, -3.0], vec![-1.0, -1.0]],
            ),
        ];
        for (what, rows, queries) in &cases {
            let ds = Dataset::from_rows(rows).unwrap();
            let cols = SortedColumns::build(&ds);
            for (runs, tombs) in [(1, 0), (1, 3), (3, 2), (9, 4)] {
                let idx = VersionedIndex::from_dataset(&ds, runs, 1, 1024).unwrap();
                let c = rows.len() as PointId;
                for key in (0..c).step_by(rows.len() / tombs.max(1)).take(tombs) {
                    idx.remove(key).unwrap();
                }
                let snap = idx.snapshot();
                for q in queries {
                    let label = format!("{what}, {runs} run(s), query {q:?}");
                    assert_reference_order(&cols, q, &label);
                    assert_reference_order(snap.lists(), q, &label);
                }
            }
        }
    }
}
