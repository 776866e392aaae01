//! An STR-bulk-loaded R-tree with best-first kNN and range search.
//!
//! Sort-Tile-Recursive (Leutenegger et al.) packs points into leaves by
//! recursive per-dimension slicing, producing near-100% fill and tight
//! MBRs — a *favourable* construction for the R-tree, which makes the
//! dimensionality-curse measurement below conservative. kNN is Hjaltason &
//! Samet's best-first traversal on MINDIST. Node-visit counters expose the
//! curse: as dimensionality grows, the fraction of leaves a kNN query must
//! visit approaches one (the motivation for the VA-file in the paper's
//! related work, and ultimately for scan-friendly methods like AD).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use knmatch_core::topk::TopK;
use knmatch_core::{Dataset, KnMatchError, Neighbour, PointId, Result};

use crate::mbr::Mbr;

/// Node fanout (max children / max points per leaf).
pub const FANOUT: usize = 64;

#[derive(Debug)]
enum NodeKind {
    /// Child node indices.
    Internal(Vec<usize>),
    /// Point ids stored in the leaf.
    Leaf(Vec<PointId>),
}

#[derive(Debug)]
struct Node {
    mbr: Mbr,
    kind: NodeKind,
}

/// Traversal counters for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RTreeStats {
    /// Internal nodes visited.
    pub internal_visited: u64,
    /// Leaves visited.
    pub leaves_visited: u64,
    /// Points whose exact distance was computed.
    pub points_checked: u64,
}

impl RTreeStats {
    /// Fraction of the tree's leaves this query touched — the
    /// dimensionality-curse gauge.
    pub fn leaf_fraction(&self, total_leaves: usize) -> f64 {
        if total_leaves == 0 {
            0.0
        } else {
            self.leaves_visited as f64 / total_leaves as f64
        }
    }
}

/// A read-only R-tree over a [`Dataset`] (the dataset provides the
/// coordinates; the tree stores ids).
#[derive(Debug)]
pub struct RTree {
    dims: usize,
    nodes: Vec<Node>,
    root: usize,
    leaves: usize,
    len: usize,
}

impl RTree {
    /// Bulk-loads `ds` with STR packing.
    ///
    /// # Errors
    ///
    /// Rejects an empty dataset.
    pub fn bulk_load(ds: &Dataset) -> Result<Self> {
        if ds.is_empty() {
            return Err(KnMatchError::EmptyDataset);
        }
        let dims = ds.dims();
        let mut tree = RTree {
            dims,
            nodes: Vec::new(),
            root: 0,
            leaves: 0,
            len: ds.len(),
        };

        // STR leaf packing.
        let mut ids: Vec<PointId> = (0..ds.len() as PointId).collect();
        let mut leaf_ids: Vec<usize> = Vec::new();
        tree.str_pack(ds, &mut ids, 0, &mut leaf_ids);

        // Build upper levels by chunking sorted-by-construction children.
        let mut level = leaf_ids;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(FANOUT));
            for chunk in level.chunks(FANOUT) {
                let mut mbr = Mbr::empty(dims);
                for &child in chunk {
                    mbr.expand_mbr(&tree.nodes[child].mbr.clone());
                }
                tree.nodes.push(Node {
                    mbr,
                    kind: NodeKind::Internal(chunk.to_vec()),
                });
                next.push(tree.nodes.len() - 1);
            }
            level = next;
        }
        tree.root = level[0];
        Ok(tree)
    }

    /// Recursive STR tiling: sort the slab by `dim`, slice into
    /// `ceil(|slab| / per_slice)` sub-slabs, recurse on the next dimension;
    /// at the last dimension emit leaves of up to [`FANOUT`] points.
    fn str_pack(&mut self, ds: &Dataset, ids: &mut [PointId], dim: usize, leaves: &mut Vec<usize>) {
        if ids.len() <= FANOUT || dim + 1 == self.dims {
            ids.sort_unstable_by(|&a, &b| {
                ds.coord(a, dim)
                    .total_cmp(&ds.coord(b, dim))
                    .then(a.cmp(&b))
            });
            for chunk in ids.chunks(FANOUT) {
                let mut mbr = Mbr::empty(self.dims);
                for &pid in chunk {
                    mbr.expand(ds.point(pid));
                }
                self.nodes.push(Node {
                    mbr,
                    kind: NodeKind::Leaf(chunk.to_vec()),
                });
                self.leaves += 1;
                leaves.push(self.nodes.len() - 1);
            }
            return;
        }
        ids.sort_unstable_by(|&a, &b| {
            ds.coord(a, dim)
                .total_cmp(&ds.coord(b, dim))
                .then(a.cmp(&b))
        });
        // Number of vertical slabs ≈ (leaves needed)^(1/remaining dims).
        let leaves_needed = ids.len().div_ceil(FANOUT) as f64;
        let remaining = (self.dims - dim) as f64;
        let slabs = leaves_needed.powf(1.0 / remaining).ceil().max(1.0) as usize;
        let per_slab = ids.len().div_ceil(slabs);
        let mut rest = ids;
        while !rest.is_empty() {
            let take = per_slab.min(rest.len());
            let (slab, tail) = rest.split_at_mut(take);
            self.str_pack(ds, slab, dim + 1, leaves);
            rest = tail;
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty (never true — construction rejects it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node].kind {
                NodeKind::Leaf(_) => return h,
                NodeKind::Internal(children) => {
                    node = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Best-first Euclidean kNN with per-query traversal counters.
    ///
    /// # Errors
    ///
    /// Validates the query and `k` like the scan-based kNN.
    pub fn k_nearest(
        &self,
        ds: &Dataset,
        query: &[f64],
        k: usize,
    ) -> Result<(Vec<Neighbour>, RTreeStats)> {
        ds.validate_query(query)?;
        if k == 0 || k > self.len {
            return Err(KnMatchError::InvalidK {
                k,
                cardinality: self.len,
            });
        }
        let mut stats = RTreeStats::default();
        let mut top = TopK::new(k);
        let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();
        frontier.push(Candidate {
            dist2: self.nodes[self.root].mbr.min_dist2(query),
            node: self.root,
        });
        while let Some(c) = frontier.pop() {
            if let Some(tau) = top.threshold() {
                if c.dist2 > tau {
                    break; // every remaining node is farther than the k-th NN
                }
            }
            match &self.nodes[c.node].kind {
                NodeKind::Internal(children) => {
                    stats.internal_visited += 1;
                    for &child in children {
                        let d2 = self.nodes[child].mbr.min_dist2(query);
                        if top.threshold().is_none_or(|tau| d2 <= tau) {
                            frontier.push(Candidate {
                                dist2: d2,
                                node: child,
                            });
                        }
                    }
                }
                NodeKind::Leaf(pids) => {
                    stats.leaves_visited += 1;
                    for &pid in pids {
                        stats.points_checked += 1;
                        let d2: f64 = ds
                            .point(pid)
                            .iter()
                            .zip(query)
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        top.offer(pid, d2);
                    }
                }
            }
        }
        let out = top
            .into_sorted()
            .into_iter()
            .map(|(pid, d2)| Neighbour {
                pid,
                dist: d2.sqrt(),
            })
            .collect();
        Ok((out, stats))
    }

    /// All point ids inside the axis-aligned box `[lo, hi]` (closed), in
    /// ascending id order, with traversal counters.
    ///
    /// # Errors
    ///
    /// Validates the corner dimensionalities.
    pub fn range(
        &self,
        ds: &Dataset,
        lo: &[f64],
        hi: &[f64],
    ) -> Result<(Vec<PointId>, RTreeStats)> {
        ds.validate_query(lo)?;
        ds.validate_query(hi)?;
        let mut query_box = Mbr::from_point(lo);
        query_box.expand(hi);
        let mut stats = RTreeStats::default();
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            let node = &self.nodes[node];
            if !node.mbr.intersects(&query_box) {
                continue;
            }
            match &node.kind {
                NodeKind::Internal(children) => {
                    stats.internal_visited += 1;
                    stack.extend(children.iter().copied());
                }
                NodeKind::Leaf(pids) => {
                    stats.leaves_visited += 1;
                    for &pid in pids {
                        stats.points_checked += 1;
                        if query_box.contains(ds.point(pid)) {
                            out.push(pid);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        Ok((out, stats))
    }
}

/// Frontier entry: min-heap on MINDIST.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    dist2: f64,
    node: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist2
            .total_cmp(&self.dist2)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::{k_nearest, Euclidean};
    use knmatch_data::uniform;

    #[test]
    fn knn_matches_exact_scan() {
        let ds = uniform(3000, 4, 5);
        let tree = RTree::bulk_load(&ds).unwrap();
        for qid in [0u32, 999, 2500] {
            let q = ds.point(qid).to_vec();
            let (got, stats) = tree.k_nearest(&ds, &q, 10).unwrap();
            let want = k_nearest(&ds, &q, 10, &Euclidean).unwrap();
            let g: Vec<u32> = got.iter().map(|n| n.pid).collect();
            let w: Vec<u32> = want.iter().map(|n| n.pid).collect();
            assert_eq!(g, w);
            for (a, b) in got.iter().zip(&want) {
                assert!((a.dist - b.dist).abs() < 1e-9);
            }
            assert!(stats.leaves_visited >= 1);
        }
    }

    #[test]
    fn low_dimensional_queries_prune_hard() {
        let ds = uniform(20_000, 2, 7);
        let tree = RTree::bulk_load(&ds).unwrap();
        let (_, stats) = tree.k_nearest(&ds, &[0.5, 0.5], 10).unwrap();
        assert!(
            stats.leaf_fraction(tree.leaf_count()) < 0.05,
            "2-d kNN should touch a few leaves: {} of {}",
            stats.leaves_visited,
            tree.leaf_count()
        );
    }

    #[test]
    fn dimensionality_curse_shows() {
        // The Section 6 claim: R-tree pruning collapses as d grows.
        let mut fractions = Vec::new();
        for d in [2usize, 8, 32] {
            let ds = uniform(8000, d, 3);
            let tree = RTree::bulk_load(&ds).unwrap();
            let q = ds.point(17).to_vec();
            let (_, stats) = tree.k_nearest(&ds, &q, 10).unwrap();
            fractions.push(stats.leaf_fraction(tree.leaf_count()));
        }
        assert!(
            fractions[0] < fractions[1] && fractions[1] <= fractions[2],
            "{fractions:?}"
        );
        assert!(
            fractions[2] > 0.9,
            "at d=32 nearly every leaf is visited: {fractions:?}"
        );
    }

    #[test]
    fn range_query_matches_filter() {
        let ds = uniform(2000, 3, 9);
        let tree = RTree::bulk_load(&ds).unwrap();
        let lo = [0.2, 0.3, 0.1];
        let hi = [0.5, 0.6, 0.4];
        let (got, _) = tree.range(&ds, &lo, &hi).unwrap();
        let want: Vec<u32> = ds
            .iter()
            .filter(|(_, p)| {
                p.iter().zip(&lo).all(|(v, l)| v >= l) && p.iter().zip(&hi).all(|(v, h)| v <= h)
            })
            .map(|(pid, _)| pid)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn structure_invariants() {
        let ds = uniform(5000, 3, 1);
        let tree = RTree::bulk_load(&ds).unwrap();
        assert_eq!(tree.len(), 5000);
        // STR slab boundaries can add a handful of partial leaves beyond
        // the ideal ceil(N / FANOUT).
        let ideal = 5000usize.div_ceil(FANOUT);
        assert!(
            (ideal..ideal + ideal / 4 + 2).contains(&tree.leaf_count()),
            "leaf count {} vs ideal {ideal}",
            tree.leaf_count()
        );
        assert!(tree.height() >= 2);
        // Every point is found by a point-range query on itself.
        for pid in [0u32, 1234, 4999] {
            let p = ds.point(pid).to_vec();
            let (hits, _) = tree.range(&ds, &p, &p).unwrap();
            assert!(hits.contains(&pid));
        }
    }

    #[test]
    fn single_point_tree() {
        let ds = Dataset::from_rows(&[vec![0.3, 0.7]]).unwrap();
        let tree = RTree::bulk_load(&ds).unwrap();
        assert_eq!(tree.height(), 1);
        let (nn, _) = tree.k_nearest(&ds, &[0.0, 0.0], 1).unwrap();
        assert_eq!(nn[0].pid, 0);
    }

    #[test]
    fn rejects_empty_and_bad_k() {
        let empty = Dataset::new(2).unwrap();
        assert!(RTree::bulk_load(&empty).is_err());
        let ds = uniform(10, 2, 0);
        let tree = RTree::bulk_load(&ds).unwrap();
        assert!(tree.k_nearest(&ds, &[0.0, 0.0], 0).is_err());
        assert!(tree.k_nearest(&ds, &[0.0, 0.0], 11).is_err());
        assert!(tree.k_nearest(&ds, &[0.0], 1).is_err());
    }
}
