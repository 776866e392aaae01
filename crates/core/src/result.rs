//! Answer-set types returned by the query algorithms.

use crate::point::PointId;

/// One member of a k-n-match answer set: a point id plus its n-match
/// difference with regard to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchEntry {
    /// The matched point.
    pub pid: PointId,
    /// Its n-match difference with regard to the query.
    pub diff: f64,
}

/// The answer of a k-n-match query: exactly `k` entries in ascending
/// `(diff, pid)` order.
///
/// On ties in the k-th difference, different correct algorithms may return
/// different (equally valid) point sets; the multiset of differences is
/// always the same. [`KnMatchResult::epsilon`] is the paper's ε — the k-th
/// smallest n-match difference, which defines the implied per-dimension
/// match threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct KnMatchResult {
    /// The `n` this answer set was computed for.
    pub n: usize,
    /// Answer entries in ascending `(diff, pid)` order.
    pub entries: Vec<MatchEntry>,
}

impl KnMatchResult {
    /// The k-th smallest n-match difference (the match threshold ε).
    ///
    /// # Panics
    ///
    /// Panics on an empty answer set (never produced by the query API, which
    /// requires `k >= 1`).
    pub fn epsilon(&self) -> f64 {
        self.entries.last().expect("answer sets are non-empty").diff
    }

    /// The answered point ids, in ascending `(diff, pid)` order.
    pub fn ids(&self) -> Vec<PointId> {
        self.entries.iter().map(|e| e.pid).collect()
    }

    /// The answer differences, ascending.
    pub fn diffs(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.diff).collect()
    }

    /// Whether `pid` is in this answer set.
    pub fn contains(&self, pid: PointId) -> bool {
        self.entries.iter().any(|e| e.pid == pid)
    }

    /// Normalises entry order to ascending `(diff, pid)`.
    pub(crate) fn normalise(&mut self) {
        self.entries
            .sort_unstable_by(|a, b| a.diff.total_cmp(&b.diff).then(a.pid.cmp(&b.pid)));
    }
}

/// One member of a frequent k-n-match answer: a point id and how many of the
/// per-n answer sets it appeared in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrequentEntry {
    /// The matched point.
    pub pid: PointId,
    /// Number of `n ∈ [n0, n1]` whose k-n-match answer set contains `pid`.
    pub count: u32,
}

/// The answer of a frequent k-n-match query.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequentResult {
    /// The queried range `[n0, n1]` of n values.
    pub range: (usize, usize),
    /// The k most frequent points, in descending `(count, -pid)` order
    /// (i.e. count descending, pid ascending on ties).
    pub entries: Vec<FrequentEntry>,
    /// The per-n k-n-match answer sets `S_{n0}, …, S_{n1}` the frequencies
    /// were counted over.
    pub per_n: Vec<KnMatchResult>,
}

impl FrequentResult {
    /// Ranks the per-n answer sets `per_n` (`S_{n0} … S_{n1}` for
    /// `range = (n0, n1)`) into the frequent answer: Definition 4's
    /// appearance counts, top `k` in [`rank_frequent`]'s order.
    ///
    /// The count is one `(pid, 1)` per member, sorted and folded in place
    /// into `(pid, count)` — O(m log m) in the m ≤ `(n1 − n0 + 1)·k`
    /// members, and no array indexed by point id (answer ids need not be
    /// dense: run-list keys are not).
    pub fn from_levels(range: (usize, usize), per_n: Vec<KnMatchResult>, k: usize) -> Self {
        let members = per_n.iter().flat_map(|level| &level.entries);
        let mut counts: Vec<(PointId, u32)> = members.map(|e| (e.pid, 1)).collect();
        counts.sort_unstable();
        counts.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            kept.1 += u32::from(same);
            same
        });
        FrequentResult {
            range,
            entries: rank_frequent(&counts, k),
            per_n,
        }
    }

    /// The answered point ids in rank order.
    pub fn ids(&self) -> Vec<PointId> {
        self.entries.iter().map(|e| e.pid).collect()
    }

    /// Appearance count of `pid`, or 0 when it was not ranked.
    pub fn count_of(&self, pid: PointId) -> u32 {
        self.entries
            .iter()
            .find(|e| e.pid == pid)
            .map_or(0, |e| e.count)
    }
}

/// Ranks appearance counts into the top-k frequent entries.
///
/// Order: count descending, then pid ascending (deterministic on count ties,
/// where Definition 4 allows any choice). Shared by every frequent
/// k-n-match implementation in this workspace.
pub fn rank_frequent(counts: &[(PointId, u32)], k: usize) -> Vec<FrequentEntry> {
    let mut v: Vec<FrequentEntry> = counts
        .iter()
        .map(|&(pid, count)| FrequentEntry { pid, count })
        .collect();
    v.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.pid.cmp(&b.pid)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(pairs: &[(PointId, f64)]) -> KnMatchResult {
        KnMatchResult {
            n: 1,
            entries: pairs
                .iter()
                .map(|&(pid, diff)| MatchEntry { pid, diff })
                .collect(),
        }
    }

    #[test]
    fn epsilon_is_last_diff() {
        let r = res(&[(3, 0.1), (1, 0.5), (2, 0.9)]);
        assert_eq!(r.epsilon(), 0.9);
        assert_eq!(r.ids(), vec![3, 1, 2]);
        assert_eq!(r.diffs(), vec![0.1, 0.5, 0.9]);
        assert!(r.contains(1) && !r.contains(7));
    }

    #[test]
    fn normalise_sorts_by_diff_then_pid() {
        let mut r = res(&[(5, 0.5), (2, 0.1), (4, 0.5)]);
        r.normalise();
        assert_eq!(r.ids(), vec![2, 4, 5]);
    }

    #[test]
    fn rank_frequent_orders_and_truncates() {
        let counts = [(0u32, 2u32), (1, 5), (2, 5), (3, 1)];
        let top = rank_frequent(&counts, 2);
        assert_eq!(
            top,
            vec![
                FrequentEntry { pid: 1, count: 5 },
                FrequentEntry { pid: 2, count: 5 },
            ]
        );
    }

    #[test]
    fn from_levels_counts_sparse_ids_across_levels() {
        let levels = vec![
            res(&[(900_000, 0.1), (7, 0.2)]),
            res(&[(7, 0.3), (900_000, 0.4)]),
            res(&[(7, 0.5), (3, 0.6)]),
        ];
        let fr = FrequentResult::from_levels((2, 4), levels.clone(), 2);
        assert_eq!(fr.range, (2, 4));
        assert_eq!(fr.per_n, levels);
        assert_eq!(
            fr.entries,
            vec![
                FrequentEntry { pid: 7, count: 3 },
                FrequentEntry {
                    pid: 900_000,
                    count: 2
                },
            ]
        );
    }

    #[test]
    fn frequent_result_count_of() {
        let fr = FrequentResult {
            range: (1, 3),
            entries: vec![FrequentEntry { pid: 9, count: 3 }],
            per_n: vec![],
        };
        assert_eq!(fr.count_of(9), 3);
        assert_eq!(fr.count_of(1), 0);
        assert_eq!(fr.ids(), vec![9]);
    }
}
