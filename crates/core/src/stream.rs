//! Incremental n-match answers: a lazy iterator over the k-n-match ranking.
//!
//! [`NMatchStream`] yields `(point, n-match difference)` pairs in ascending
//! difference order, one at a time, retrieving only the attributes needed
//! so far — the AD algorithm's stopping rule turned inside-out. Useful when
//! `k` is not known up front (e.g. "keep fetching matches until the user
//! stops scrolling"): taking the first `k` elements is exactly the
//! k-n-match answer set and costs exactly what [`crate::k_n_match_ad`]
//! would (Theorem 3.2's optimality is per answer).
//!
//! Ties are canonical, matching the batch algorithms: answers sharing one
//! difference value emit in ascending pid order (the plateau is drained
//! and buffered when its first member surfaces), so a stream prefix is
//! bit-identical to the batch answer even on tied boundaries.

use std::collections::VecDeque;

use crate::ad::{validate_params, AdStats};
use crate::error::Result;
use crate::frontier::AdWalker;
use crate::result::MatchEntry;
use crate::source::SortedAccessSource;

/// A lazy, ascending-difference stream of n-match answers.
///
/// # Examples
///
/// ```
/// use knmatch_core::{NMatchStream, SortedColumns};
///
/// let ds = knmatch_core::paper::fig3_dataset();
/// let mut cols = SortedColumns::build(&ds);
/// let mut stream = NMatchStream::new(&mut cols, &[3.0, 7.0, 4.0], 2).unwrap();
/// let first = stream.next().unwrap();
/// assert_eq!(first.pid, 2); // paper's point 3, the best 2-match
/// let second = stream.next().unwrap();
/// assert_eq!(second.pid, 1); // paper's point 2 — together: the 2-2-match
/// ```
#[derive(Debug)]
pub struct NMatchStream<'a, S: SortedAccessSource> {
    src: &'a mut S,
    walker: AdWalker,
    appear: Vec<u16>,
    /// Answers from a drained equal-difference plateau, in canonical
    /// ascending-pid order, waiting to be emitted.
    pending: VecDeque<MatchEntry>,
    n: usize,
    emitted: usize,
    cardinality: usize,
}

impl<'a, S: SortedAccessSource> NMatchStream<'a, S> {
    /// Seeds a stream for the given query and `n`.
    ///
    /// # Errors
    ///
    /// Validates the query shape and `n`; see [`crate::KnMatchError`].
    pub fn new(src: &'a mut S, query: &[f64], n: usize) -> Result<Self> {
        let d = src.dims();
        let c = src.cardinality();
        validate_params(query, d, c, 1, n, n)?;
        let walker = AdWalker::seed(src, query);
        Ok(NMatchStream {
            src,
            walker,
            appear: vec![0u16; c],
            pending: VecDeque::new(),
            n,
            emitted: 0,
            cardinality: c,
        })
    }

    /// Cost counters so far.
    pub fn stats(&self) -> AdStats {
        self.walker.stats
    }

    /// Answers emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }
}

impl<S: SortedAccessSource> Iterator for NMatchStream<'_, S> {
    type Item = MatchEntry;

    fn next(&mut self) -> Option<MatchEntry> {
        if let Some(e) = self.pending.pop_front() {
            self.emitted += 1;
            return Some(e);
        }
        if self.emitted == self.cardinality {
            return None;
        }
        while let Some((pid, diff)) = self.walker.next_pop(self.src) {
            let a = self.appear[pid as usize] + 1;
            self.appear[pid as usize] = a;
            if a as usize == self.n {
                // Drain the rest of this difference plateau so tied
                // answers emit by ascending pid, not by pop order — the
                // same canonical key the batch algorithms select by.
                let mut group = vec![MatchEntry { pid, diff }];
                while self.walker.peek_diff() == Some(diff) {
                    let (tied, _) = self
                        .walker
                        .next_pop(self.src)
                        .expect("peeked non-empty frontier");
                    let at = self.appear[tied as usize] + 1;
                    self.appear[tied as usize] = at;
                    if at as usize == self.n {
                        group.push(MatchEntry { pid: tied, diff });
                    }
                }
                group.sort_unstable_by_key(|e| e.pid);
                self.pending.extend(group);
                let e = self.pending.pop_front().expect("group has one entry");
                self.emitted += 1;
                return Some(e);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.cardinality - self.emitted;
        (remaining, Some(remaining))
    }
}

impl<S: SortedAccessSource> ExactSizeIterator for NMatchStream<'_, S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::SortedColumns;
    use crate::k_n_match_ad;

    fn cols() -> SortedColumns {
        SortedColumns::build(&crate::paper::fig3_dataset())
    }

    #[test]
    fn streams_every_point_in_ascending_order() {
        let mut cols = cols();
        let entries: Vec<MatchEntry> = NMatchStream::new(&mut cols, &[3.0, 7.0, 4.0], 2)
            .unwrap()
            .collect();
        assert_eq!(entries.len(), 5);
        assert!(entries.windows(2).all(|w| w[0].diff <= w[1].diff));
        let mut pids: Vec<u32> = entries.iter().map(|e| e.pid).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn prefix_equals_k_n_match_answer() {
        let mut a = cols();
        let mut b = cols();
        let q = [3.0, 7.0, 4.0];
        for n in 1..=3 {
            for k in 1..=5 {
                let stream: Vec<MatchEntry> =
                    NMatchStream::new(&mut a, &q, n).unwrap().take(k).collect();
                let (batch, _) = k_n_match_ad(&mut b, &q, k, n).unwrap();
                let mut stream_sorted = stream.clone();
                stream_sorted.sort_by(|x, y| x.diff.total_cmp(&y.diff).then(x.pid.cmp(&y.pid)));
                assert_eq!(stream_sorted, batch.entries, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn lazy_cost_matches_batch_cost() {
        let mut a = cols();
        let mut b = cols();
        let q = [3.0, 7.0, 4.0];
        let mut stream = NMatchStream::new(&mut a, &q, 2).unwrap();
        stream.next();
        stream.next();
        let (_, batch_stats) = k_n_match_ad(&mut b, &q, 2, 2).unwrap();
        assert_eq!(stream.stats().heap_pops, batch_stats.heap_pops);
        assert_eq!(
            stream.stats().attributes_retrieved,
            batch_stats.attributes_retrieved
        );
        assert_eq!(stream.emitted(), 2);
    }

    #[test]
    fn size_hint_counts_down() {
        let mut cols = cols();
        let mut s = NMatchStream::new(&mut cols, &[3.0, 7.0, 4.0], 1).unwrap();
        assert_eq!(s.size_hint(), (5, Some(5)));
        s.next();
        assert_eq!(s.size_hint(), (4, Some(4)));
        assert_eq!(s.by_ref().count(), 4);
    }

    #[test]
    fn exhausted_stream_stays_none() {
        let mut cols = cols();
        let mut s = NMatchStream::new(&mut cols, &[3.0, 7.0, 4.0], 3).unwrap();
        for _ in 0..5 {
            assert!(s.next().is_some());
        }
        assert!(s.next().is_none());
        assert!(s.next().is_none());
    }

    #[test]
    fn validates_parameters() {
        let mut cols = cols();
        assert!(NMatchStream::new(&mut cols, &[1.0], 1).is_err());
        assert!(NMatchStream::new(&mut cols, &[1.0, 2.0, 3.0], 0).is_err());
        assert!(NMatchStream::new(&mut cols, &[1.0, 2.0, 3.0], 4).is_err());
    }
}
