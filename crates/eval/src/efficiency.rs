//! Shared machinery for the disk-based efficiency experiments
//! (Figures 10–15): builds every competitor structure over one dataset and
//! answers averaged per-query costs in the paper's currencies — page
//! accesses, attributes retrieved, and a modelled response time.

use knmatch_core::Dataset;
use knmatch_data::rng::seeded;
use knmatch_igrid::DiskIGrid;
use knmatch_storage::{
    CostModel, DiskDatabase, HeapFile, IoStats, MemStore, ReadSession, SharedBufferPool,
};
use knmatch_vafile::VaFile;

/// Averaged cost of one method over a query workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Mean page accesses per query.
    pub pages: f64,
    /// Mean sequential page reads per query.
    pub seq_pages: f64,
    /// Mean random page reads per query.
    pub rand_pages: f64,
    /// Mean modelled response time (ms) per query.
    pub time_ms: f64,
    /// Mean attributes retrieved per query (AD only; 0 otherwise).
    pub attributes: f64,
    /// Mean points refined per query (VA-file only; 0 otherwise).
    pub refined: f64,
}

impl Cost {
    fn add_io(&mut self, io: IoStats, model: CostModel) {
        self.pages += io.page_accesses() as f64;
        self.seq_pages += io.sequential_reads as f64;
        self.rand_pages += io.random_reads as f64;
        self.time_ms += io.response_time_ms(model);
    }

    fn div(&mut self, n: f64) {
        self.pages /= n;
        self.seq_pages /= n;
        self.rand_pages /= n;
        self.time_ms /= n;
        self.attributes /= n;
        self.refined /= n;
    }
}

/// All disk structures for one dataset, each in its own store so page
/// numbering (and hence sequentiality) is per-structure, as it would be in
/// separate files. Every query's cost is its session's cold-pool model.
#[derive(Debug)]
pub struct DiskBench {
    dims: usize,
    len: usize,
    db: DiskDatabase<MemStore>,
    va: VaFile,
    va_heap: HeapFile,
    va_pool: SharedBufferPool<MemStore>,
    igrid: DiskIGrid,
    igrid_pool: SharedBufferPool<MemStore>,
    /// One query's modelled I/O, restarted cold by every query.
    session: ReadSession,
    model: CostModel,
}

/// Buffer-pool frames given to every method (1 MiB at 4 KiB pages — small
/// against the datasets, so queries run cold like the paper's).
pub const POOL_PAGES: usize = 256;

impl DiskBench {
    /// Builds the AD database (heap + sorted columns), the 8-bit VA-file,
    /// and the block-chained IGrid over `ds`.
    pub fn build(ds: &Dataset) -> Self {
        let db = DiskDatabase::build_in_memory(ds, POOL_PAGES);
        let mut va_store = MemStore::new();
        let va_heap = HeapFile::build(&mut va_store, ds);
        let va = VaFile::build(&mut va_store, ds, 8);
        let mut ig_store = MemStore::new();
        let igrid = DiskIGrid::build_default(&mut ig_store, ds);
        DiskBench {
            dims: ds.dims(),
            len: ds.len(),
            db,
            va,
            va_heap,
            va_pool: SharedBufferPool::new(va_store, POOL_PAGES),
            igrid,
            igrid_pool: SharedBufferPool::new(ig_store, POOL_PAGES),
            session: ReadSession::new(POOL_PAGES),
            model: CostModel::default(),
        }
    }

    /// Dataset dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Dataset cardinality.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the benchmark database holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages of the heap file (the scan baseline reads all of them).
    pub fn heap_pages(&self) -> usize {
        self.db.heap().total_pages()
    }

    /// Mean disk-AD cost of the frequent k-n-match workload.
    pub fn ad_frequent(&mut self, queries: &[Vec<f64>], k: usize, n0: usize, n1: usize) -> Cost {
        let mut cost = Cost::default();
        for q in queries {
            let out = self
                .db
                .frequent_k_n_match(q, k, n0, n1)
                .expect("valid parameters");
            cost.add_io(out.io, self.model);
            cost.attributes += out.ad.attributes_retrieved as f64;
        }
        cost.div(queries.len() as f64);
        cost
    }

    /// Mean sequential-scan cost of the frequent k-n-match workload.
    pub fn scan_frequent(&mut self, queries: &[Vec<f64>], k: usize, n0: usize, n1: usize) -> Cost {
        let mut cost = Cost::default();
        for q in queries {
            let out = self
                .db
                .scan_frequent_k_n_match(q, k, n0, n1)
                .expect("valid parameters");
            cost.add_io(out.io, self.model);
            cost.attributes += (self.len * self.dims) as f64;
        }
        cost.div(queries.len() as f64);
        cost
    }

    /// Mean VA-file cost of the frequent k-n-match workload.
    pub fn va_frequent(&mut self, queries: &[Vec<f64>], k: usize, n0: usize, n1: usize) -> Cost {
        let mut cost = Cost::default();
        for q in queries {
            let out = knmatch_vafile::frequent_k_n_match_va(
                &self.va,
                &self.va_heap,
                &self.va_pool,
                &mut self.session,
                q,
                k,
                n0,
                n1,
            )
            .expect("valid parameters");
            cost.add_io(out.io, self.model);
            cost.refined += out.refined as f64;
        }
        cost.div(queries.len() as f64);
        cost
    }

    /// Mean IGrid cost of the top-k similarity workload.
    pub fn igrid_query(&mut self, queries: &[Vec<f64>], k: usize) -> Cost {
        let mut cost = Cost::default();
        for q in queries {
            let (_, io) = self
                .igrid
                .query(&self.igrid_pool, &mut self.session, q, k)
                .expect("valid parameters");
            cost.add_io(io, self.model);
        }
        cost.div(queries.len() as f64);
        cost
    }
}

/// Samples `nq` query points from the dataset (the paper samples queries
/// from the data) with a small perturbation so exact self-matches do not
/// trivialise the search.
pub fn sample_query_points(ds: &Dataset, nq: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded(seed);
    (0..nq)
        .map(|_| {
            let pid = rng.range_usize(0..ds.len()) as u32;
            ds.point(pid)
                .iter()
                .map(|&v| (v + rng.range_f64(-0.01, 0.01)).clamp(0.0, 1.0))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_data::uniform;

    fn bench() -> (DiskBench, Vec<Vec<f64>>) {
        let ds = uniform(4000, 8, 77);
        let queries = sample_query_points(&ds, 3, 1);
        (DiskBench::build(&ds), queries)
    }

    #[test]
    fn scan_cost_is_heap_pages() {
        let (mut b, q) = bench();
        let scan = b.scan_frequent(&q, 10, 4, 8);
        assert!((scan.pages - b.heap_pages() as f64).abs() < 1e-9);
        assert!(scan.rand_pages <= 1.5, "scan is sequential: {scan:?}");
    }

    #[test]
    fn ad_reads_fewer_pages_than_scan() {
        let (mut b, q) = bench();
        let ad = b.ad_frequent(&q, 10, 4, 8);
        let scan = b.scan_frequent(&q, 10, 4, 8);
        assert!(
            ad.pages < scan.pages,
            "AD ({}) must beat scan ({}) in page accesses",
            ad.pages,
            scan.pages
        );
        assert!(ad.attributes > 0.0);
        assert!(ad.attributes < (b.len() * b.dims()) as f64);
    }

    #[test]
    fn va_refines_a_fraction_and_pays_random_io() {
        let (mut b, q) = bench();
        let va = b.va_frequent(&q, 10, 4, 8);
        assert!(va.refined >= 10.0);
        assert!(va.refined < b.len() as f64);
        assert!(va.rand_pages > 0.0);
    }

    #[test]
    fn igrid_touches_fragments() {
        let (mut b, q) = bench();
        let ig = b.igrid_query(&q, 10);
        assert!(ig.pages > 0.0);
        assert!(ig.rand_pages > ig.seq_pages, "fragmented lists: {ig:?}");
    }

    #[test]
    fn ordering_matches_figure_13() {
        // AD fastest, scan in between, IGrid slowest (modelled time). Page
        // granularity only separates the methods at a realistic scale, so
        // this test uses a larger dataset than the smoke tests above.
        let ds = uniform(30_000, 16, 78);
        let q = sample_query_points(&ds, 2, 1);
        let mut b = DiskBench::build(&ds);
        let ad = b.ad_frequent(&q, 10, 4, 8);
        let scan = b.scan_frequent(&q, 10, 4, 8);
        let ig = b.igrid_query(&q, 10);
        assert!(
            ad.time_ms < scan.time_ms && scan.time_ms < ig.time_ms,
            "expected AD < scan < IGrid, got {} / {} / {}",
            ad.time_ms,
            scan.time_ms,
            ig.time_ms
        );
    }

    #[test]
    fn queries_are_deterministic() {
        let ds = uniform(100, 4, 5);
        assert_eq!(
            sample_query_points(&ds, 4, 9),
            sample_query_points(&ds, 4, 9)
        );
    }
}
