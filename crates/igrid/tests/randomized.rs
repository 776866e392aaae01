//! Randomized tests for IGrid: partition invariants, in-memory/disk
//! agreement, and similarity-function sanity, swept over seeded random
//! instances (no external property-testing crate in the offline build).

use knmatch_core::Dataset;
use knmatch_data::rng::{seeded, Rng64};
use knmatch_igrid::{DiskIGrid, EquiDepthPartition, IGridIndex};
use knmatch_storage::{MemStore, ReadSession, SharedBufferPool};

fn dataset(rng: &mut Rng64) -> (Vec<Vec<f64>>, usize) {
    let d = rng.range_usize(1..6);
    let c = rng.range_usize(8..61);
    let bins = rng.range_usize(2..7);
    let rows = (0..c)
        .map(|_| (0..d).map(|_| rng.next_f64()).collect())
        .collect();
    (rows, bins)
}

/// Every value falls in the range its bin spans, and bins partition the
/// cardinality.
#[test]
fn partition_covers_all_values() {
    let mut rng = seeded(0x16_0001);
    for _ in 0..192 {
        let (rows, bins) = dataset(&mut rng);
        let ds = Dataset::from_rows(&rows).unwrap();
        let part = EquiDepthPartition::fit(&ds, bins);
        for (_, p) in ds.iter() {
            for (dim, &v) in p.iter().enumerate() {
                let b = part.bin_of(dim, v);
                assert!(b < bins);
                let (lo, hi) = part.bin_span(dim, b);
                assert!(lo <= v && v <= hi + 1e-12, "v={v} not in [{lo}, {hi}]");
                assert!(part.bin_width(dim, b) > 0.0);
            }
        }
        for dim in 0..ds.dims() {
            let total: usize = (0..bins)
                .map(|b| {
                    ds.iter()
                        .filter(|(_, p)| part.bin_of(dim, p[dim]) == b)
                        .count()
                })
                .sum();
            assert_eq!(total, ds.len());
        }
    }
}

/// The disk layout answers exactly like the in-memory index.
#[test]
fn disk_equals_memory() {
    let mut rng = seeded(0x16_0002);
    for _ in 0..192 {
        let (rows, bins) = dataset(&mut rng);
        let ds = Dataset::from_rows(&rows).unwrap();
        let mem = IGridIndex::build_with(&ds, bins, 2.0);
        let mut store = MemStore::new();
        let disk = DiskIGrid::build(&mut store, &ds, bins, 2.0);
        let (pool, mut session) = (SharedBufferPool::new(store, 64), ReadSession::new(64));
        let k = ds.len().div_ceil(2).max(1);
        let q = ds.point(0).to_vec();
        let want = mem.query(&q, k).unwrap();
        let (got, _) = disk.query(&pool, &mut session, &q, k).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.pid, b.pid);
            assert!((a.similarity - b.similarity).abs() < 1e-9);
        }
    }
}

/// Similarity is symmetric, non-negative, and maximal for a point with
/// itself among all points sharing its bins.
#[test]
fn similarity_sanity() {
    let mut rng = seeded(0x16_0003);
    for _ in 0..192 {
        let (rows, bins) = dataset(&mut rng);
        let ds = Dataset::from_rows(&rows).unwrap();
        let idx = IGridIndex::build_with(&ds, bins, 2.0);
        let a = ds.point(0);
        let b = ds.point((ds.len() - 1) as u32);
        let ab = idx.similarity(a, b);
        let ba = idx.similarity(b, a);
        assert!((ab - ba).abs() < 1e-12, "symmetry");
        assert!(ab >= 0.0);
        let aa = idx.similarity(a, a);
        assert!(aa + 1e-12 >= ab, "self-similarity dominates");
        // Self-query retrieves self first.
        let ans = idx.query(a, 1).unwrap();
        assert_eq!(ans[0].pid, 0);
    }
}
