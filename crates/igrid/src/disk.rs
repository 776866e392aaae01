//! The disk-resident IGrid: a block-chained inverted file.
//!
//! An inverted file built by inserting points one at a time grows every
//! (dimension, range) list a block at a time, and consecutive blocks of one
//! list end up scattered between blocks of the other `d · kd − 1` lists.
//! This is the fragmentation the paper holds against IGrid in Section
//! 5.2.3: although a query touches only `1/kd ≈ 2/d` of the data, "the
//! accessed data are fragmented and distributed all over the data set" and
//! each fragment costs a random page access.
//!
//! We reproduce that layout honestly: blocks of [`BLOCK_ENTRIES`] entries
//! are flushed to pages in fill order during a pid-order build, so a
//! query's per-dimension list walk hops across pages.

use knmatch_core::{Dataset, KnMatchError, PointId, Result};
use knmatch_storage::page::empty_page;
use knmatch_storage::{
    IoStats, PageStore, ReadSession, SharedBufferPool, SharedPageStore, PAGE_SIZE, POINT_LOOKUP,
};

use crate::index::IGridAnswer;
use crate::partition::{default_bins, EquiDepthPartition};

/// Entries per inverted-list block.
pub const BLOCK_ENTRIES: usize = 64;

/// Bytes per entry: `u32` pid + `f64` value.
const ENTRY_BYTES: usize = 12;

/// Bytes per block.
pub const BLOCK_BYTES: usize = BLOCK_ENTRIES * ENTRY_BYTES;

/// Blocks per page.
pub const BLOCKS_PER_PAGE: usize = PAGE_SIZE / BLOCK_BYTES;

/// Location of one block of one inverted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockRef {
    page: u32,
    slot: u8,
    len: u16,
}

/// The disk-resident IGrid index (directory in memory, entry blocks on
/// pages).
#[derive(Debug, Clone)]
pub struct DiskIGrid {
    partition: EquiDepthPartition,
    /// `directory[dim * bins + bin]` = the list's block chain, in order.
    directory: Vec<Vec<BlockRef>>,
    cardinality: usize,
    p: f64,
}

impl DiskIGrid {
    /// Builds with the paper defaults (`kd = d/2`, `p = 2`).
    pub fn build_default<S: PageStore>(store: &mut S, ds: &Dataset) -> Self {
        Self::build(store, ds, default_bins(ds.dims()), 2.0)
    }

    /// Builds the inverted file into `store`.
    ///
    /// # Panics
    ///
    /// Panics when `bins < 2`, `ds` is empty, or `p` is not positive.
    pub fn build<S: PageStore>(store: &mut S, ds: &Dataset, bins: usize, p: f64) -> Self {
        assert!(
            p > 0.0 && p.is_finite(),
            "similarity exponent must be positive"
        );
        let partition = EquiDepthPartition::fit(ds, bins);
        let lists = ds.dims() * bins;
        let mut open: Vec<Vec<(PointId, f64)>> = vec![Vec::new(); lists];
        let mut directory: Vec<Vec<BlockRef>> = vec![Vec::new(); lists];

        let mut pending = [0u8; PAGE_SIZE];
        let mut pending_slots = 0usize;
        let mut next_page = store.page_count();

        let flush = |block: &[(PointId, f64)],
                     list: usize,
                     directory: &mut Vec<Vec<BlockRef>>,
                     pending: &mut [u8; PAGE_SIZE],
                     pending_slots: &mut usize,
                     next_page: &mut usize,
                     store: &mut S| {
            let slot = *pending_slots;
            let mut off = slot * BLOCK_BYTES;
            for &(pid, value) in block {
                pending[off..off + 4].copy_from_slice(&pid.to_le_bytes());
                pending[off + 4..off + 12].copy_from_slice(&value.to_le_bytes());
                off += ENTRY_BYTES;
            }
            directory[list].push(BlockRef {
                page: *next_page as u32,
                slot: slot as u8,
                len: block.len() as u16,
            });
            *pending_slots += 1;
            if *pending_slots == BLOCKS_PER_PAGE {
                store.append_page(pending);
                *pending = [0u8; PAGE_SIZE];
                *pending_slots = 0;
                *next_page += 1;
            }
        };

        // Pid-order build: lists grow interleaved, so their block chains
        // fragment — the layout the paper measures.
        for (pid, point) in ds.iter() {
            for (dim, &v) in point.iter().enumerate() {
                let list = dim * bins + partition.bin_of(dim, v);
                open[list].push((pid, v));
                if open[list].len() == BLOCK_ENTRIES {
                    flush(
                        &open[list],
                        list,
                        &mut directory,
                        &mut pending,
                        &mut pending_slots,
                        &mut next_page,
                        store,
                    );
                    open[list].clear();
                }
            }
        }
        for (list, block) in open.iter().enumerate() {
            if !block.is_empty() {
                flush(
                    block,
                    list,
                    &mut directory,
                    &mut pending,
                    &mut pending_slots,
                    &mut next_page,
                    store,
                );
            }
        }
        if pending_slots > 0 {
            store.append_page(&pending);
        }

        DiskIGrid {
            partition,
            directory,
            cardinality: ds.len(),
            p,
        }
    }

    /// The fitted partition.
    pub fn partition(&self) -> &EquiDepthPartition {
        &self.partition
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.cardinality
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.cardinality == 0
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.partition.dims()
    }

    /// Returns the `k` most similar points to `query` with the I/O this
    /// query cost (`session` starts cold on entry). Every block read is a
    /// point lookup: the fragmented chains never stream.
    ///
    /// # Errors
    ///
    /// Rejects malformed queries and out-of-range `k`;
    /// [`KnMatchError::Storage`] when a page read fails.
    pub fn query<S: SharedPageStore>(
        &self,
        pool: &SharedBufferPool<S>,
        session: &mut ReadSession,
        query: &[f64],
        k: usize,
    ) -> Result<(Vec<IGridAnswer>, IoStats)> {
        if query.len() != self.dims() {
            return Err(KnMatchError::DimensionMismatch {
                expected: self.dims(),
                actual: query.len(),
            });
        }
        if k == 0 || k > self.cardinality {
            return Err(KnMatchError::InvalidK {
                k,
                cardinality: self.cardinality,
            });
        }
        session.begin_query();
        let bins = self.partition.bins();
        let mut scores: Vec<f64> = vec![0.0; self.cardinality];
        let mut page = empty_page();
        for (dim, &q) in query.iter().enumerate() {
            let bin = self.partition.bin_of(dim, q);
            let m = self.partition.bin_width(dim, bin);
            for blk in &self.directory[dim * bins + bin] {
                pool.read_in(blk.page as usize, POINT_LOOKUP, session, &mut page)?;
                let mut off = blk.slot as usize * BLOCK_BYTES;
                for _ in 0..blk.len {
                    let pid = u32::from_le_bytes(page[off..off + 4].try_into().expect("4 bytes"));
                    let value =
                        f64::from_le_bytes(page[off + 4..off + 12].try_into().expect("8 bytes"));
                    let t = (1.0 - (value - q).abs() / m).max(0.0);
                    scores[pid as usize] += t.powf(self.p);
                    off += ENTRY_BYTES;
                }
            }
        }
        let mut ranked: Vec<IGridAnswer> = scores
            .iter()
            .enumerate()
            .map(|(pid, &s)| IGridAnswer {
                pid: pid as PointId,
                similarity: s.powf(1.0 / self.p),
            })
            .collect();
        ranked.sort_unstable_by(|a, b| {
            b.similarity
                .total_cmp(&a.similarity)
                .then(a.pid.cmp(&b.pid))
        });
        ranked.truncate(k);
        Ok((ranked, session.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IGridIndex;
    use knmatch_storage::MemStore;

    fn sample(n: usize, d: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * 31 + j * 17) as f64 * 0.618) % 1.0)
                    .collect()
            })
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn disk_matches_in_memory_index() {
        let ds = sample(1000, 4);
        let mem = IGridIndex::build_with(&ds, 4, 2.0);
        let mut store = MemStore::new();
        let disk = DiskIGrid::build(&mut store, &ds, 4, 2.0);
        let (pool, mut session) = (SharedBufferPool::new(store, 64), ReadSession::new(64));
        for pid in [0u32, 123, 999] {
            let q = ds.point(pid).to_vec();
            let (got, _) = disk.query(&pool, &mut session, &q, 10).unwrap();
            let want = mem.query(&q, 10).unwrap();
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.pid, b.pid);
                assert!((a.similarity - b.similarity).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn query_touches_a_fraction_of_the_file() {
        let ds = sample(20_000, 8);
        let mut store = MemStore::new();
        let disk = DiskIGrid::build(&mut store, &ds, 4, 2.0);
        let total_pages = PageStore::page_count(&store);
        let (pool, mut session) = (SharedBufferPool::new(store, 4096), ReadSession::new(4096));
        let q = ds.point(7).to_vec();
        let (_, io) = disk.query(&pool, &mut session, &q, 10).unwrap();
        // One of kd=4 lists per dimension → about 1/4 of the entry pages,
        // but fragmentation makes the reads mostly non-sequential.
        assert!(io.page_accesses() > 0);
        assert!(
            (io.page_accesses() as usize) < total_pages,
            "must not read the whole inverted file"
        );
        assert!(
            io.random_reads > io.sequential_reads,
            "fragmented block chains should look random: {io:?}"
        );
    }

    #[test]
    fn fragmentation_interleaves_block_chains() {
        let ds = sample(5000, 4);
        let mut store = MemStore::new();
        let disk = DiskIGrid::build(&mut store, &ds, 4, 2.0);
        // Some list must have non-consecutive block pages.
        let fragmented = disk.directory.iter().any(|chain| {
            chain
                .windows(2)
                .any(|w| w[1].page != w[0].page && w[1].page != w[0].page + 1)
        });
        assert!(fragmented, "build order should scatter the chains");
    }

    #[test]
    fn self_query_top1() {
        let ds = sample(500, 6);
        let mut store = MemStore::new();
        let disk = DiskIGrid::build_default(&mut store, &ds);
        let (pool, mut session) = (SharedBufferPool::new(store, 64), ReadSession::new(64));
        let (ans, _) = disk.query(&pool, &mut session, ds.point(77), 1).unwrap();
        assert_eq!(ans[0].pid, 77);
    }

    #[test]
    fn validation() {
        let ds = sample(50, 3);
        let mut store = MemStore::new();
        let disk = DiskIGrid::build_default(&mut store, &ds);
        let (pool, mut session) = (SharedBufferPool::new(store, 8), ReadSession::new(8));
        assert!(disk.query(&pool, &mut session, &[0.5], 1).is_err());
        assert!(disk
            .query(&pool, &mut session, &[0.5, 0.5, 0.5], 0)
            .is_err());
    }
}
