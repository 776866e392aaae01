//! The vector-approximation file (Weber, Schek & Blott, VLDB'98 — the
//! paper's reference \[21\]).
//!
//! Each coordinate is quantised to a `b`-bit cell index (the paper's
//! adaptation uses 8 bits, making the VA-file a fraction of the data size).
//! The approximation rows are stored sequentially on pages so phase one of
//! the two-phase algorithm is one sequential scan, and per-dimension cell
//! boundaries allow lower/upper-bounding the true difference `|p_i − q_i|`
//! without touching the point.

use knmatch_core::{Dataset, PointId};
use knmatch_storage::heap_file::SCAN_GROUP;
use knmatch_storage::page::empty_page;
use knmatch_storage::{
    PageStore, ReadSession, SharedBufferPool, SharedPageStore, StorageResult, PAGE_SIZE,
};

/// A built VA-file: quantisation boundaries plus the page range holding the
/// approximation rows (one byte per dimension per point, `b ≤ 8`).
#[derive(Debug, Clone, PartialEq)]
pub struct VaFile {
    bits: u8,
    dims: usize,
    len: usize,
    /// `boundaries[dim]` has `cells + 1` ascending marks; cell `j` of `dim`
    /// spans `[boundaries[dim][j], boundaries[dim][j + 1]]`.
    boundaries: Vec<Vec<f64>>,
    rows_per_page: usize,
    base_page: usize,
}

impl VaFile {
    /// Quantises `ds` with `bits` bits per dimension (equi-width cells over
    /// each dimension's observed range) and appends the approximation pages
    /// to `store`.
    ///
    /// # Panics
    ///
    /// Panics when `bits` is 0 or above 8, when `ds` is empty, or when one
    /// row of approximations exceeds a page.
    pub fn build<S: PageStore>(store: &mut S, ds: &Dataset, bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "bits per dimension must be 1..=8");
        assert!(!ds.is_empty(), "cannot approximate an empty dataset");
        let dims = ds.dims();
        let cells = 1usize << bits;

        // Observed per-dimension ranges.
        let mut mins = vec![f64::INFINITY; dims];
        let mut maxs = vec![f64::NEG_INFINITY; dims];
        for (_, p) in ds.iter() {
            for (j, &v) in p.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        let boundaries: Vec<Vec<f64>> = (0..dims)
            .map(|j| {
                let lo = mins[j];
                let hi = if maxs[j] > mins[j] {
                    maxs[j]
                } else {
                    mins[j] + 1.0
                };
                (0..=cells)
                    .map(|c| lo + (hi - lo) * c as f64 / cells as f64)
                    .collect()
            })
            .collect();

        // Approximation rows are bit-packed: b bits per dimension,
        // byte-aligned per row — the 25%-of-a-32-bit-float footprint Weber
        // reports for b = 8.
        let row_bytes = (dims * bits as usize).div_ceil(8);
        let rows_per_page = PAGE_SIZE / row_bytes;
        assert!(
            rows_per_page >= 1,
            "a {row_bytes}-byte approximation row must fit one page"
        );
        let base_page = store.page_count();

        let mut page = [0u8; PAGE_SIZE];
        let mut slot = 0usize;
        let mut this = VaFile {
            bits,
            dims,
            len: ds.len(),
            boundaries,
            rows_per_page,
            base_page,
        };
        for (_, p) in ds.iter() {
            let off = slot * row_bytes;
            for (j, &v) in p.iter().enumerate() {
                pack_cell(&mut page[off..off + row_bytes], bits, j, this.cell_of(j, v));
            }
            slot += 1;
            if slot == rows_per_page {
                store.append_page(&page);
                page = [0u8; PAGE_SIZE];
                slot = 0;
            }
        }
        if slot > 0 {
            store.append_page(&page);
        }
        this.len = ds.len();
        this
    }

    /// Bytes per bit-packed approximation row.
    pub fn row_bytes(&self) -> usize {
        (self.dims * self.bits as usize).div_ceil(8)
    }

    /// Bits per dimension.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of cells per dimension (`2^bits`).
    pub fn cells(&self) -> usize {
        1usize << self.bits
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of approximated points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages occupied by the approximation rows.
    pub fn total_pages(&self) -> usize {
        self.len.div_ceil(self.rows_per_page)
    }

    /// First page inside the store.
    pub fn base_page(&self) -> usize {
        self.base_page
    }

    /// The cell index of value `v` in `dim`.
    pub fn cell_of(&self, dim: usize, v: f64) -> u8 {
        let marks = &self.boundaries[dim];
        let lo = marks[0];
        let hi = *marks.last().expect("boundaries non-empty");
        let cells = self.cells();
        let raw = ((v - lo) / (hi - lo) * cells as f64).floor();
        (raw.clamp(0.0, (cells - 1) as f64)) as u8
    }

    /// The value range `[lo, hi]` of cell `cell` in `dim`.
    pub fn cell_bounds(&self, dim: usize, cell: u8) -> (f64, f64) {
        let marks = &self.boundaries[dim];
        (marks[cell as usize], marks[cell as usize + 1])
    }

    /// Lower and upper bounds of `|p_i − q_i|` given only `p_i`'s cell.
    ///
    /// The lower bound is 0 when `q` falls inside the cell, otherwise the
    /// distance to the nearest cell edge; the upper bound is the distance
    /// to the farthest edge.
    pub fn diff_bounds(&self, dim: usize, cell: u8, q: f64) -> (f64, f64) {
        let (lo, hi) = self.cell_bounds(dim, cell);
        let lower = if q < lo {
            lo - q
        } else if q > hi {
            q - hi
        } else {
            0.0
        };
        let upper = (q - lo).abs().max((hi - q).abs());
        (lower, upper)
    }

    /// Streams every approximation row in pid order (sequential page
    /// reads in [`SCAN_GROUP`], booked in `session`), invoking
    /// `f(pid, cells)` per point with the unpacked cell indices.
    ///
    /// # Errors
    ///
    /// A page read that fails after the pool's retries.
    pub fn for_each_approx<S: SharedPageStore>(
        &self,
        pool: &SharedBufferPool<S>,
        session: &mut ReadSession,
        mut f: impl FnMut(PointId, &[u8]),
    ) -> StorageResult<()> {
        let row_bytes = self.row_bytes();
        let mut cells = vec![0u8; self.dims];
        let mut page = empty_page();
        let mut pid = 0usize;
        for p in 0..self.total_pages() {
            let rows_here = self.rows_per_page.min(self.len - pid);
            pool.read_in(self.base_page + p, SCAN_GROUP, session, &mut page)?;
            for slot in 0..rows_here {
                let off = slot * row_bytes;
                let row = &page[off..off + row_bytes];
                for (j, c) in cells.iter_mut().enumerate() {
                    *c = unpack_cell(row, self.bits, j);
                }
                f(pid as PointId, &cells);
                pid += 1;
            }
        }
        debug_assert_eq!(pid, self.len);
        Ok(())
    }
}

/// Writes the `b`-bit cell index of dimension `j` into a packed row.
fn pack_cell(row: &mut [u8], bits: u8, j: usize, cell: u8) {
    debug_assert!(bits == 8 || cell < (1 << bits));
    let start = j * bits as usize;
    let mut remaining = bits as usize;
    let mut value = cell as u16;
    let mut bit = start;
    while remaining > 0 {
        let byte = bit / 8;
        let shift = bit % 8;
        let take = remaining.min(8 - shift);
        let mask = ((1u16 << take) - 1) as u8;
        row[byte] &= !(mask << shift);
        row[byte] |= ((value as u8) & mask) << shift;
        value >>= take;
        bit += take;
        remaining -= take;
    }
}

/// Reads the `b`-bit cell index of dimension `j` from a packed row.
fn unpack_cell(row: &[u8], bits: u8, j: usize) -> u8 {
    let start = j * bits as usize;
    let mut remaining = bits as usize;
    let mut out: u16 = 0;
    let mut got = 0usize;
    let mut bit = start;
    while remaining > 0 {
        let byte = bit / 8;
        let shift = bit % 8;
        let take = remaining.min(8 - shift);
        let mask = ((1u16 << take) - 1) as u8;
        out |= (((row[byte] >> shift) & mask) as u16) << got;
        got += take;
        bit += take;
        remaining -= take;
    }
    out as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_storage::MemStore;

    fn sample() -> (Dataset, VaFile, SharedBufferPool<MemStore>) {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64 / 99.0, (99 - i) as f64 / 99.0])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut store = MemStore::new();
        let va = VaFile::build(&mut store, &ds, 4);
        (ds, va, SharedBufferPool::new(store, 8))
    }

    #[test]
    fn shape_and_size() {
        let (ds, va, _) = sample();
        assert_eq!(va.dims(), 2);
        assert_eq!(va.len(), ds.len());
        assert_eq!(va.cells(), 16);
        assert_eq!(va.total_pages(), 1); // 100 × 2 bytes
    }

    #[test]
    fn cells_bracket_their_values() {
        let (ds, va, _) = sample();
        for (_, p) in ds.iter() {
            for (j, &v) in p.iter().enumerate() {
                let cell = va.cell_of(j, v);
                let (lo, hi) = va.cell_bounds(j, cell);
                assert!(lo <= v && v <= hi + 1e-12, "v={v} not in [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn bounds_are_sound() {
        let (ds, va, _) = sample();
        let q = [0.33, 0.77];
        for (_, p) in ds.iter() {
            for (j, &v) in p.iter().enumerate() {
                let cell = va.cell_of(j, v);
                let (lb, ub) = va.diff_bounds(j, cell, q[j]);
                let true_diff = (v - q[j]).abs();
                assert!(lb <= true_diff + 1e-12, "lb {lb} > {true_diff}");
                assert!(ub >= true_diff - 1e-12, "ub {ub} < {true_diff}");
            }
        }
    }

    #[test]
    fn approx_scan_visits_all_points_sequentially() {
        let (ds, va, pool) = sample();
        let mut session = ReadSession::new(8);
        let mut seen = 0usize;
        va.for_each_approx(&pool, &mut session, |pid, cells| {
            assert_eq!(cells.len(), 2);
            assert_eq!(cells[0], va.cell_of(0, ds.coord(pid, 0)));
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, 100);
        assert_eq!(session.stats().page_accesses() as usize, va.total_pages());
    }

    #[test]
    fn constant_dimension_does_not_divide_by_zero() {
        let ds = Dataset::from_rows(&[vec![5.0], vec![5.0]]).unwrap();
        let mut store = MemStore::new();
        let va = VaFile::build(&mut store, &ds, 8);
        let cell = va.cell_of(0, 5.0);
        let (lo, hi) = va.cell_bounds(0, cell);
        assert!(lo <= 5.0 && 5.0 <= hi);
    }

    #[test]
    fn query_outside_range_clamps() {
        let (_, va, _) = sample();
        assert_eq!(va.cell_of(0, -10.0), 0);
        assert_eq!(va.cell_of(0, 10.0), 15);
        let (lb, ub) = va.diff_bounds(0, va.cell_of(0, 1.0), 5.0);
        assert!(lb > 0.0 && ub >= lb);
    }

    #[test]
    fn multipage_file() {
        let rows: Vec<Vec<f64>> = (0..3000).map(|i| vec![(i % 17) as f64, 0.5]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut store = MemStore::new();
        let va = VaFile::build(&mut store, &ds, 8);
        assert_eq!(va.total_pages(), 2); // 3000 rows × 2 B = 6000 B
        let pool = SharedBufferPool::new(store, 4);
        let mut count = 0;
        va.for_each_approx(&pool, &mut ReadSession::new(4), |_, _| count += 1)
            .unwrap();
        assert_eq!(count, 3000);
    }

    #[test]
    fn bit_packing_roundtrips_at_every_width() {
        for bits in 1u8..=8 {
            let dims = 11usize;
            let mut row = vec![0u8; (dims * bits as usize).div_ceil(8)];
            let cells: Vec<u8> = (0..dims)
                .map(|j| ((j * 37 + 5) % (1usize << bits)) as u8)
                .collect();
            for (j, &c) in cells.iter().enumerate() {
                super::pack_cell(&mut row, bits, j, c);
            }
            for (j, &c) in cells.iter().enumerate() {
                assert_eq!(super::unpack_cell(&row, bits, j), c, "bits={bits} j={j}");
            }
            // Overwriting a middle cell leaves neighbours intact.
            super::pack_cell(&mut row, bits, 5, 0);
            assert_eq!(super::unpack_cell(&row, bits, 5), 0);
            assert_eq!(super::unpack_cell(&row, bits, 4), cells[4]);
            assert_eq!(super::unpack_cell(&row, bits, 6), cells[6]);
        }
    }

    #[test]
    fn packed_size_shrinks_with_bits() {
        let rows: Vec<Vec<f64>> = (0..5000).map(|i| vec![(i % 97) as f64; 16]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut pages = Vec::new();
        for bits in [2u8, 4, 8] {
            let mut store = MemStore::new();
            let va = VaFile::build(&mut store, &ds, bits);
            pages.push(va.total_pages());
            assert_eq!(va.row_bytes(), (16 * bits as usize).div_ceil(8));
            // Cells still decode correctly through the scan.
            let pool = SharedBufferPool::new(store, 8);
            va.for_each_approx(&pool, &mut ReadSession::new(8), |pid, cells| {
                assert_eq!(cells.len(), 16);
                assert_eq!(cells[0], va.cell_of(0, ds.coord(pid, 0)));
            })
            .unwrap();
        }
        assert!(pages[0] < pages[1] && pages[1] < pages[2], "{pages:?}");
    }

    #[test]
    #[should_panic(expected = "bits per dimension")]
    fn rejects_zero_bits() {
        let ds = Dataset::from_rows(&[vec![0.0]]).unwrap();
        VaFile::build(&mut MemStore::new(), &ds, 0);
    }
}
