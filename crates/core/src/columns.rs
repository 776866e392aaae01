//! In-memory sorted-dimension organisation of a dataset.
//!
//! Each dimension is a list of `(value, point id)` pairs sorted by value —
//! the organisation the AD algorithm requires (Section 3.1, Figure 5 of the
//! paper). Building from a [`Dataset`] costs `O(d · c log c)` once
//! (parallelised across dimensions on the [`run_batch`] pool); afterwards
//! every query locates the query attribute by binary search and walks
//! outwards.
//!
//! # Structure-of-arrays layout
//!
//! The columns are stored as two flat dimension-major arrays — all values
//! in one `Vec<f64>`, all point ids in a parallel `Vec<PointId>` — rather
//! than one `Vec<SortedEntry>` per dimension. The binary-search seed and
//! the outward cursor walk only compare *values*; keeping values densely
//! packed (8 bytes per entry instead of 16 with the pid and padding
//! interleaved) halves the cache lines those hot loops touch. A query's
//! seeding searches run 16 dimensions in lock-step, each step a
//! conditional move rather than a branch, so the searches' cache misses
//! overlap and no step waits on a mispredicted comparison. The
//! [`ColumnView`] adapter re-materialises `SortedEntry` pairs on demand
//! for callers that want the AoS view (the storage crate's column files).

use crate::engine::run_batch;
use crate::error::Result;
use crate::point::{Dataset, PointId};
use crate::source::{SortedAccessSource, SortedEntry};

/// A borrowed view of one sorted column: parallel value/pid slices of equal
/// length, presenting the array-of-structs [`SortedEntry`] interface over
/// the structure-of-arrays storage.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    values: &'a [f64],
    pids: &'a [PointId],
}

impl<'a> ColumnView<'a> {
    /// Number of entries (the column cardinality).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The entry at `rank` (0-based, ascending by `(value, pid)`).
    ///
    /// # Panics
    ///
    /// Panics when `rank >= len()`.
    pub fn get(&self, rank: usize) -> SortedEntry {
        SortedEntry {
            pid: self.pids[rank],
            value: self.values[rank],
        }
    }

    /// The packed attribute values, ascending.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// The point ids, parallel to [`values`](Self::values).
    pub fn pids(&self) -> &'a [PointId] {
        self.pids
    }

    /// Iterates the entries in rank order.
    pub fn iter(&self) -> impl Iterator<Item = SortedEntry> + 'a {
        self.pids
            .iter()
            .zip(self.values)
            .map(|(&pid, &value)| SortedEntry { pid, value })
    }

    /// Materialises the column as an array-of-structs vector.
    pub fn to_vec(&self) -> Vec<SortedEntry> {
        self.iter().collect()
    }

    /// Iterates sub-views of at most `size` entries, in rank order (the
    /// SoA analogue of `slice::chunks`).
    ///
    /// # Panics
    ///
    /// Panics when `size == 0`.
    pub fn chunks(&self, size: usize) -> impl Iterator<Item = ColumnView<'a>> + 'a {
        self.values
            .chunks(size)
            .zip(self.pids.chunks(size))
            .map(|(values, pids)| ColumnView { values, pids })
    }
}

/// Dimensions whose seeding binary searches run in lock-step.
const LANES: usize = 16;

/// [`SortedAccessSource::locate_each`] over the columns `cols(this)`
/// returns — how plain columns and every run of a versioned snapshot seed
/// a query: the searches run [`LANES`] dimensions at a time, and each
/// rank goes to `found(this, dim, rank)` in dimension order.
pub(crate) fn locate_lockstep<T>(
    this: &mut T,
    cols: impl Fn(&T) -> &SortedColumns,
    query: &[f64],
    mut found: impl FnMut(&mut T, usize, usize),
) {
    for first in (0..query.len()).step_by(LANES) {
        let qs = &query[first..query.len().min(first + LANES)];
        let ranks = cols(this).locate_lanes(first, qs);
        for (i, &rank) in ranks[..qs.len()].iter().enumerate() {
            found(this, first + i, rank);
        }
    }
}

/// A dataset reorganised into `d` value-sorted columns.
///
/// # Examples
///
/// ```
/// use knmatch_core::{Dataset, SortedColumns};
///
/// let ds = Dataset::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
/// let cols = SortedColumns::build(&ds);
/// // Dimension 0 sorted ascending: (pid 1, 0.2), (pid 0, 0.9).
/// assert_eq!(cols.column(0).get(0).pid, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SortedColumns {
    dims: usize,
    cardinality: usize,
    /// Dimension-major: `values[dim * cardinality + rank]`.
    values: Vec<f64>,
    /// Parallel to `values`.
    pids: Vec<PointId>,
}

/// Sorts dimension `dim` of the row-major block `rows` (`dims` values per
/// row) into `pairs` (a reusable buffer), returning the split
/// `(values, pids)` with pid = row index within the block. Tie order
/// between equal values is the explicit `(value, pid)` key
/// ([`SortedEntry::cmp_value_pid`]) — never the layout.
fn sort_dim(
    rows: &[f64],
    dims: usize,
    dim: usize,
    pairs: &mut Vec<SortedEntry>,
) -> (Vec<f64>, Vec<PointId>) {
    pairs.clear();
    let block = rows.chunks_exact(dims).enumerate();
    pairs.extend(block.map(|(pid, row)| SortedEntry {
        pid: pid as PointId,
        value: row[dim],
    }));
    pairs.sort_unstable_by(SortedEntry::cmp_value_pid);
    (
        pairs.iter().map(|e| e.value).collect(),
        pairs.iter().map(|e| e.pid).collect(),
    )
}

impl SortedColumns {
    /// Sorts every dimension of `ds`, one [`run_batch`] work item per
    /// dimension, with one worker per available CPU.
    pub fn build(ds: &Dataset) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::build_with_workers(ds, workers)
    }

    /// [`build`](Self::build) with an explicit worker count (clamped to
    /// ≥ 1). The result is identical at any worker count: each dimension
    /// sorts independently with the explicit `(value, pid)` key.
    pub fn build_with_workers(ds: &Dataset, workers: usize) -> Self {
        Self::build_rows(ds.as_flat(), ds.dims(), workers)
    }

    /// Builds the columns of a borrowed row-major block of `dims`-wide
    /// rows, entry pids = row indices within the block (a block cut out of
    /// a larger dataset gets local pids from 0 in its row order) — how a
    /// [`VersionedIndex`](crate::VersionedIndex) builds every run, with no
    /// copy of the caller's rows. Values must be finite: rows of a
    /// validated [`Dataset`], or validated on insert.
    pub(crate) fn build_rows(rows: &[f64], dims: usize, workers: usize) -> Self {
        debug_assert_eq!(rows.len() % dims, 0);
        let cardinality = rows.len() / dims;
        let cols = run_batch(
            workers.max(1),
            dims,
            Vec::new,
            |pairs, dim| sort_dim(rows, dims, dim, pairs),
            drop,
        );
        let mut values = Vec::with_capacity(dims * cardinality);
        let mut pids = Vec::with_capacity(dims * cardinality);
        for (v, p) in cols {
            values.extend_from_slice(&v);
            pids.extend_from_slice(&p);
        }
        SortedColumns {
            dims,
            cardinality,
            values,
            pids,
        }
    }

    /// Builds directly from row slices (validates like [`Dataset::from_rows`]).
    ///
    /// # Errors
    ///
    /// Propagates [`Dataset::from_rows`] validation errors.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self> {
        Ok(Self::build(&Dataset::from_rows(rows)?))
    }

    /// The sorted column of `dim` as a [`ColumnView`] over the parallel
    /// `(values, pids)` slices.
    ///
    /// # Panics
    ///
    /// Panics when `dim` is out of range.
    pub fn column(&self, dim: usize) -> ColumnView<'_> {
        ColumnView {
            values: self.dim_values(dim),
            pids: &self.pids[dim * self.cardinality..(dim + 1) * self.cardinality],
        }
    }

    /// The packed value slice of `dim` — the array the hot binary search
    /// and cursor walk touch.
    fn dim_values(&self, dim: usize) -> &[f64] {
        &self.values[dim * self.cardinality..(dim + 1) * self.cardinality]
    }

    /// [`SortedAccessSource::locate`] of `qs[i]` in dimension
    /// `first + i`, for up to [`LANES`] dimensions at once: the searches
    /// run level by level, so their cache misses overlap instead of
    /// queueing one search behind the other. Each step is a
    /// [`std::hint::select_unpredictable`] (a conditional move on x86-64):
    /// an `if`/`else`, a multiply or a mask by the comparison all compile
    /// to a branch that mispredicts half the time, and a sign-bit test of
    /// `v − q` differs from `v < q` at `v = −0.0, q = +0.0`.
    fn locate_lanes(&self, first: usize, qs: &[f64]) -> [usize; LANES] {
        let c = self.cardinality;
        let lists = &self.values[first * c..];
        let mut base = [0; LANES];
        if c == 0 {
            return base;
        }
        let mut size = c;
        while size > 1 {
            let half = size / 2;
            for (i, (b, &q)) in base.iter_mut().zip(qs).enumerate() {
                let mid = *b + half;
                *b = std::hint::select_unpredictable(lists[i * c + mid] < q, mid, *b);
            }
            size -= half;
        }
        for (i, (b, &q)) in base.iter_mut().zip(qs).enumerate() {
            *b += usize::from(lists[i * c + *b] < q);
        }
        base
    }

    /// Dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Cardinality `c`.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }
}

impl SortedAccessSource for SortedColumns {
    fn dims(&self) -> usize {
        self.dims
    }

    fn cardinality(&self) -> usize {
        self.cardinality
    }

    fn locate(&mut self, dim: usize, q: f64) -> usize {
        self.dim_values(dim).partition_point(|&v| v < q)
    }

    fn entry(&mut self, dim: usize, rank: usize) -> SortedEntry {
        let i = dim * self.cardinality + rank;
        SortedEntry {
            pid: self.pids[i],
            value: self.values[i],
        }
    }

    fn locate_each<F: FnMut(&mut Self, usize, usize)>(&mut self, query: &[f64], found: F) {
        locate_lockstep(self, |cols| cols, query, found);
    }
}

/// Sorted access never mutates the columns, so a shared reference is a
/// source too. This is what lets many worker threads walk one
/// `Arc<SortedColumns>` concurrently (each holds its own `&SortedColumns`
/// value and passes `&mut` *to that reference*), as the planner's AD
/// route does.
impl SortedAccessSource for &SortedColumns {
    fn dims(&self) -> usize {
        self.dims
    }

    fn cardinality(&self) -> usize {
        self.cardinality
    }

    fn locate(&mut self, dim: usize, q: f64) -> usize {
        self.dim_values(dim).partition_point(|&v| v < q)
    }

    fn entry(&mut self, dim: usize, rank: usize) -> SortedEntry {
        let i = dim * self.cardinality + rank;
        SortedEntry {
            pid: self.pids[i],
            value: self.values[i],
        }
    }

    fn locate_each<F: FnMut(&mut Self, usize, usize)>(&mut self, query: &[f64], found: F) {
        locate_lockstep(self, |cols| *cols, query, found);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SortedColumns {
        // Figure 3 database of the paper.
        SortedColumns::from_rows(&[
            vec![0.4, 1.0, 1.0],
            vec![2.8, 5.5, 2.0],
            vec![6.5, 7.8, 5.0],
            vec![9.0, 9.0, 9.0],
            vec![3.5, 1.5, 8.0],
        ])
        .unwrap()
    }

    #[test]
    fn columns_are_sorted_with_pids() {
        let cols = sample();
        // Figure 5 of the paper: dimension 1 sorted is
        // (1,0.4) (2,2.8) (5,3.5) (3,6.5) (4,9.0) — paper ids are 1-based.
        let d0: Vec<(PointId, f64)> = cols.column(0).iter().map(|e| (e.pid, e.value)).collect();
        assert_eq!(d0, vec![(0, 0.4), (1, 2.8), (4, 3.5), (2, 6.5), (3, 9.0)]);
        for dim in 0..cols.dims() {
            let col = cols.column(dim);
            assert!(col.values().windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(col.len(), cols.cardinality());
        }
    }

    #[test]
    fn every_point_appears_once_per_column() {
        let cols = sample();
        for dim in 0..cols.dims() {
            let mut pids: Vec<PointId> = cols.column(dim).pids().to_vec();
            pids.sort_unstable();
            assert_eq!(pids, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn locate_finds_first_geq() {
        let mut cols = sample();
        // Dimension 0 values: 0.4 2.8 3.5 6.5 9.0
        assert_eq!(cols.locate(0, 3.0), 2);
        assert_eq!(cols.locate(0, 0.0), 0);
        assert_eq!(cols.locate(0, 9.0), 4);
        assert_eq!(cols.locate(0, 10.0), 5);
        assert_eq!(cols.locate(0, 2.8), 1); // exact hit → its own rank
    }

    #[test]
    fn lockstep_locate_equals_one_search_per_dimension() {
        // 37 dimensions (three lane chunks) of grid values with long tie
        // runs, queried on, between and beyond the grid.
        for c in [1usize, 2, 7, 64] {
            let rows: Vec<Vec<f64>> = (0..c)
                .map(|i| {
                    (0..37)
                        .map(|j| ((i * 5 + j * 3) % 6) as f64 * 0.5)
                        .collect()
                })
                .collect();
            let mut cols = SortedColumns::from_rows(&rows).unwrap();
            for q in [-1.0, 0.0, 0.25, 1.0, 2.5, 2.75, 9.0] {
                let query: Vec<f64> = (0..37).map(|j| q + (j % 3) as f64 * 0.5).collect();
                let want: Vec<(usize, usize)> = (0..37)
                    .map(|j| {
                        (
                            j,
                            cols.column(j).values().partition_point(|&v| v < query[j]),
                        )
                    })
                    .collect();
                let mut got = Vec::new();
                cols.locate_each(&query, |_, dim, rank| got.push((dim, rank)));
                assert_eq!(got, want, "c={c} q={q}");
            }
        }
        // Edge values in data and query: both zeros (−0.0 < +0.0 is
        // false, so they are one value to the search), subnormals, ±MAX,
        // and in dimension 0 a column of one repeated value.
        let tiny = f64::from_bits(1);
        let edges = [
            -f64::MAX,
            -1.0,
            -tiny,
            -0.0,
            0.0,
            tiny,
            2.0 * tiny,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
        ];
        let d = LANES + 3;
        for c in [1usize, 2, 5, 33] {
            let rows: Vec<Vec<f64>> = (0..c)
                .map(|i| {
                    (0..d)
                        .map(|j| match j {
                            0 => -0.0,
                            _ => edges[(i * 7 + j * 3) % edges.len()],
                        })
                        .collect()
                })
                .collect();
            let mut cols = SortedColumns::from_rows(&rows).unwrap();
            for shift in 0..edges.len() {
                let query: Vec<f64> = (0..d).map(|j| edges[(shift + j) % edges.len()]).collect();
                let want: Vec<(usize, usize)> = (0..d)
                    .map(|j| {
                        let values = cols.column(j).values();
                        (j, values.partition_point(|&v| v < query[j]))
                    })
                    .collect();
                let mut got = Vec::new();
                cols.locate_each(&query, |_, dim, rank| got.push((dim, rank)));
                assert_eq!(got, want, "c={c} query={query:?}");
            }
        }
    }

    #[test]
    fn entry_returns_rank_order() {
        let mut cols = sample();
        assert_eq!(cols.entry(1, 0), SortedEntry { pid: 0, value: 1.0 });
        assert_eq!(cols.entry(1, 4), SortedEntry { pid: 3, value: 9.0 });
    }

    #[test]
    fn duplicate_values_break_ties_by_pid() {
        let mut cols = SortedColumns::from_rows(&[[5.0], [5.0], [1.0]]).unwrap();
        let col: Vec<PointId> = cols.column(0).pids().to_vec();
        assert_eq!(col, vec![2, 0, 1]);
        assert_eq!(cols.locate(0, 5.0), 1);
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let rows: Vec<Vec<f64>> = (0..37)
            .map(|i| {
                (0..5)
                    .map(|d| (((i * 31 + d * 17) % 11) as f64) * 0.5)
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let seq = SortedColumns::build_with_workers(&ds, 1);
        for workers in [2, 4, 9] {
            let par = SortedColumns::build_with_workers(&ds, workers);
            assert_eq!(par.values, seq.values, "workers={workers}");
            assert_eq!(par.pids, seq.pids, "workers={workers}");
        }
    }

    #[test]
    fn build_range_rebases_pids_and_matches_sub_dataset() {
        let rows = [
            vec![0.4, 1.0],
            vec![2.8, 5.5],
            vec![6.5, 7.8],
            vec![9.0, 9.0],
            vec![3.5, 1.5],
        ];
        let ds = Dataset::from_rows(&rows).unwrap();
        let shard = SortedColumns::build_rows(&ds.as_flat()[2 * 2..5 * 2], 2, 1);
        let direct = SortedColumns::from_rows(&rows[2..5]).unwrap();
        assert_eq!(shard.values, direct.values);
        assert_eq!(shard.pids, direct.pids);
        assert_eq!(shard.cardinality(), 3);
    }

    #[test]
    fn column_view_adapters() {
        let cols = sample();
        let view = cols.column(2);
        assert!(!view.is_empty());
        assert_eq!(view.get(0), SortedEntry { pid: 0, value: 1.0 });
        assert_eq!(view.to_vec().len(), 5);
        let chunk_lens: Vec<usize> = view.chunks(2).map(|c| c.len()).collect();
        assert_eq!(chunk_lens, vec![2, 2, 1]);
        let first = view.chunks(2).next().unwrap();
        assert_eq!(first.get(0), view.get(0));
        assert_eq!(first.values(), &view.values()[..2]);
    }
}
