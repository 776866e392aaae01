//! The SS-tree (White & Jain, ICDE'96 — the paper's reference \[22\]): a
//! similarity-search tree whose nodes are bounding **spheres** (centroid +
//! radius) rather than rectangles. Spheres have smaller volume than MBRs
//! in high dimensions but overlap more; either way the dimensionality
//! curse wins, which is the point of carrying both trees in this
//! reproduction (Section 6 names the SS-tree and the X-tree as the
//! R-tree-like lineage that "suffer\[s\] from the dimensionality curse").
//!
//! Built bottom-up from a k-means-style assignment per level (centroid
//! packing), queried with best-first kNN on the sphere MINDIST
//! `max(0, |q − centre| − radius)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use knmatch_core::topk::TopK;
use knmatch_core::{Dataset, KnMatchError, Neighbour, PointId, Result};

use crate::tree::RTreeStats;

/// Node fanout.
pub const SS_FANOUT: usize = 32;

#[derive(Debug)]
struct Sphere {
    centre: Vec<f64>,
    radius: f64,
}

impl Sphere {
    fn min_dist(&self, q: &[f64]) -> f64 {
        let d2: f64 = self
            .centre
            .iter()
            .zip(q)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (d2.sqrt() - self.radius).max(0.0)
    }
}

#[derive(Debug)]
enum SsKind {
    Internal(Vec<usize>),
    Leaf(Vec<PointId>),
}

#[derive(Debug)]
struct SsNode {
    sphere: Sphere,
    kind: SsKind,
}

/// A bounding-sphere similarity tree over a [`Dataset`].
#[derive(Debug)]
pub struct SsTree {
    dims: usize,
    nodes: Vec<SsNode>,
    root: usize,
    leaves: usize,
    len: usize,
}

impl SsTree {
    /// Bulk-loads `ds`: leaves are packed by recursive per-dimension tiling
    /// (compact groups → tight spheres), then levels of centroid spheres
    /// are built upward.
    ///
    /// # Errors
    ///
    /// Rejects an empty dataset.
    pub fn bulk_load(ds: &Dataset) -> Result<Self> {
        if ds.is_empty() {
            return Err(KnMatchError::EmptyDataset);
        }
        let dims = ds.dims();
        let mut ids: Vec<PointId> = (0..ds.len() as PointId).collect();
        let mut groups: Vec<Vec<PointId>> = Vec::new();
        tile(ds, &mut ids, 0, &mut groups);

        let mut tree = SsTree {
            dims,
            nodes: Vec::new(),
            root: 0,
            leaves: 0,
            len: ds.len(),
        };
        let mut level: Vec<usize> = Vec::new();
        for chunk in &groups {
            let sphere = tree.sphere_of_points(ds, chunk);
            tree.nodes.push(SsNode {
                sphere,
                kind: SsKind::Leaf(chunk.clone()),
            });
            tree.leaves += 1;
            level.push(tree.nodes.len() - 1);
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(SS_FANOUT));
            for chunk in level.chunks(SS_FANOUT) {
                let sphere = tree.sphere_of_children(chunk);
                tree.nodes.push(SsNode {
                    sphere,
                    kind: SsKind::Internal(chunk.to_vec()),
                });
                next.push(tree.nodes.len() - 1);
            }
            level = next;
        }
        tree.root = level[0];
        Ok(tree)
    }

    fn sphere_of_points(&self, ds: &Dataset, pids: &[PointId]) -> Sphere {
        let mut centre = vec![0.0f64; self.dims];
        for &pid in pids {
            for (c, &v) in centre.iter_mut().zip(ds.point(pid)) {
                *c += v;
            }
        }
        for c in centre.iter_mut() {
            *c /= pids.len() as f64;
        }
        let radius = pids
            .iter()
            .map(|&pid| {
                ds.point(pid)
                    .iter()
                    .zip(&centre)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(0.0f64, f64::max);
        Sphere { centre, radius }
    }

    fn sphere_of_children(&self, children: &[usize]) -> Sphere {
        let mut centre = vec![0.0f64; self.dims];
        for &c in children {
            for (acc, v) in centre.iter_mut().zip(&self.nodes[c].sphere.centre) {
                *acc += v;
            }
        }
        for c in centre.iter_mut() {
            *c /= children.len() as f64;
        }
        let radius = children
            .iter()
            .map(|&c| {
                let s = &self.nodes[c].sphere;
                let d: f64 = s
                    .centre
                    .iter()
                    .zip(&centre)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                d + s.radius
            })
            .fold(0.0f64, f64::max);
        Sphere { centre, radius }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty (construction rejects it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Best-first Euclidean kNN with traversal counters.
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
        let mut frontier: BinaryHeap<Cand> = BinaryHeap::new();
        frontier.push(Cand {
            dist: self.nodes[self.root].sphere.min_dist(query),
            node: self.root,
        });
        while let Some(c) = frontier.pop() {
            if let Some(tau2) = top.threshold() {
                if c.dist * c.dist > tau2 {
                    break;
                }
            }
            match &self.nodes[c.node].kind {
                SsKind::Internal(children) => {
                    stats.internal_visited += 1;
                    for &child in children {
                        let d = self.nodes[child].sphere.min_dist(query);
                        if top.threshold().is_none_or(|tau2| d * d <= tau2) {
                            frontier.push(Cand {
                                dist: d,
                                node: child,
                            });
                        }
                    }
                }
                SsKind::Leaf(pids) => {
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
}

/// Recursive per-dimension tiling (the STR idea applied to sphere leaves):
/// sort the slab by `dim`, slice, recurse on the next dimension; emit leaf
/// groups of up to [`SS_FANOUT`] points.
fn tile(ds: &Dataset, ids: &mut [PointId], dim: usize, out: &mut Vec<Vec<PointId>>) {
    let dims = ds.dims();
    ids.sort_unstable_by(|&a, &b| {
        ds.coord(a, dim)
            .total_cmp(&ds.coord(b, dim))
            .then(a.cmp(&b))
    });
    if ids.len() <= SS_FANOUT || dim + 1 == dims {
        for chunk in ids.chunks(SS_FANOUT) {
            out.push(chunk.to_vec());
        }
        return;
    }
    let leaves_needed = ids.len().div_ceil(SS_FANOUT) as f64;
    let remaining = (dims - dim) as f64;
    let slabs = leaves_needed.powf(1.0 / remaining).ceil().max(1.0) as usize;
    let per_slab = ids.len().div_ceil(slabs);
    let mut rest = ids;
    while !rest.is_empty() {
        let take = per_slab.min(rest.len());
        let (slab, tail) = rest.split_at_mut(take);
        tile(ds, slab, dim + 1, out);
        rest = tail;
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    dist: f64,
    node: usize,
}

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
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
        let ds = uniform(2500, 5, 6);
        let tree = SsTree::bulk_load(&ds).unwrap();
        for qid in [0u32, 777, 2400] {
            let q = ds.point(qid).to_vec();
            let (got, stats) = tree.k_nearest(&ds, &q, 8).unwrap();
            let want = k_nearest(&ds, &q, 8, &Euclidean).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert!((a.dist - b.dist).abs() < 1e-9);
            }
            assert!(stats.leaves_visited >= 1);
        }
    }

    #[test]
    fn spheres_suffer_the_curse_too() {
        let mut fractions = Vec::new();
        for d in [2usize, 32] {
            let ds = uniform(6000, d, 3);
            let tree = SsTree::bulk_load(&ds).unwrap();
            let (_, stats) = tree.k_nearest(&ds, ds.point(9), 10).unwrap();
            fractions.push(stats.leaf_fraction(tree.leaf_count()));
        }
        assert!(fractions[1] > fractions[0], "{fractions:?}");
        assert!(fractions[1] > 0.9, "{fractions:?}");
    }

    #[test]
    fn low_dimensional_pruning_works() {
        let ds = uniform(10_000, 2, 8);
        let tree = SsTree::bulk_load(&ds).unwrap();
        let (_, stats) = tree.k_nearest(&ds, &[0.5, 0.5], 10).unwrap();
        assert!(
            stats.leaf_fraction(tree.leaf_count()) < 0.2,
            "2-d kNN should prune: {} of {}",
            stats.leaves_visited,
            tree.leaf_count()
        );
    }

    #[test]
    fn validation_and_edges() {
        let empty = Dataset::new(2).unwrap();
        assert!(SsTree::bulk_load(&empty).is_err());
        let one = Dataset::from_rows(&[vec![0.4, 0.6]]).unwrap();
        let t = SsTree::bulk_load(&one).unwrap();
        assert_eq!(t.leaf_count(), 1);
        let (nn, _) = t.k_nearest(&one, &[0.0, 0.0], 1).unwrap();
        assert_eq!(nn[0].pid, 0);
        assert!(t.k_nearest(&one, &[0.0, 0.0], 2).is_err());
    }
}
