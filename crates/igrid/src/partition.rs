//! Equi-depth per-dimension partitioning for the IGrid index
//! (Aggarwal & Yu, KDD'00 — the paper's reference \[6\]).
//!
//! Each dimension is split into `kd` ranges holding (as nearly as possible)
//! the same number of points. Two points are *proximate* in a dimension iff
//! they fall in the same range; the paper quotes \[6\]'s analysis that with
//! `kd = d/2` a query touches `2/d` of the data.

use knmatch_core::Dataset;

/// Fitted equi-depth boundaries for every dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthPartition {
    bins: usize,
    /// `edges[dim]` holds `bins + 1` ascending marks; range `r` of `dim`
    /// spans `[edges[dim][r], edges[dim][r + 1])` (last range inclusive).
    edges: Vec<Vec<f64>>,
}

/// The paper's default range count: `kd = d/2` (at least 2), so the
/// accessed fraction `1/kd` matches the quoted `2/d`.
pub fn default_bins(dims: usize) -> usize {
    (dims / 2).max(2)
}

impl EquiDepthPartition {
    /// Fits `bins` equi-depth ranges per dimension of `ds`.
    ///
    /// # Panics
    ///
    /// Panics when `bins < 2` or `ds` is empty.
    pub fn fit(ds: &Dataset, bins: usize) -> Self {
        assert!(bins >= 2, "need at least two ranges per dimension");
        assert!(!ds.is_empty(), "cannot partition an empty dataset");
        let c = ds.len();
        let mut edges = Vec::with_capacity(ds.dims());
        let mut column: Vec<f64> = Vec::with_capacity(c);
        for dim in 0..ds.dims() {
            column.clear();
            column.extend(ds.iter().map(|(_, p)| p[dim]));
            column.sort_unstable_by(f64::total_cmp);
            let mut marks = Vec::with_capacity(bins + 1);
            marks.push(column[0]);
            for r in 1..bins {
                marks.push(column[r * c / bins]);
            }
            marks.push(column[c - 1]);
            // Duplicate-heavy dimensions can produce equal marks; nudge them
            // monotone so ranges stay well-defined (empty ranges are fine).
            for i in 1..marks.len() {
                if marks[i] < marks[i - 1] {
                    marks[i] = marks[i - 1];
                }
            }
            edges.push(marks);
        }
        EquiDepthPartition { bins, edges }
    }

    /// Number of ranges per dimension.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.edges.len()
    }

    /// The `bins + 1` ascending marks of `dim` (first = observed minimum,
    /// last = observed maximum).
    pub fn edges(&self, dim: usize) -> &[f64] {
        &self.edges[dim]
    }

    /// The range index of value `v` in `dim` (values outside the fitted
    /// span clamp to the first/last range).
    pub fn bin_of(&self, dim: usize, v: f64) -> usize {
        let marks = &self.edges[dim];
        // First mark strictly greater than v, minus one.
        let idx = marks[1..self.bins].partition_point(|&m| m <= v);
        idx.min(self.bins - 1)
    }

    /// The `[lo, hi]` span of range `bin` in `dim`.
    ///
    /// # Panics
    ///
    /// Panics when `bin >= bins`.
    pub fn bin_span(&self, dim: usize, bin: usize) -> (f64, f64) {
        assert!(bin < self.bins, "range {bin} out of {}", self.bins);
        (self.edges[dim][bin], self.edges[dim][bin + 1])
    }

    /// Width of range `bin` in `dim` (the `m_i` of the IGrid similarity
    /// function). Zero-width ranges (duplicate-heavy data) report the
    /// smallest positive width to keep the similarity defined.
    pub fn bin_width(&self, dim: usize, bin: usize) -> f64 {
        let (lo, hi) = self.bin_span(dim, bin);
        let w = hi - lo;
        if w > 0.0 {
            w
        } else {
            f64::MIN_POSITIVE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniformish(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64 * 0.6180339887) % 1.0, (i as f64) / n as f64])
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn balanced_within_tolerance() {
        let ds = uniformish(1000);
        let part = EquiDepthPartition::fit(&ds, 10);
        for dim in 0..2 {
            let mut counts = [0usize; 10];
            for (_, p) in ds.iter() {
                counts[part.bin_of(dim, p[dim])] += 1;
            }
            for (b, &cnt) in counts.iter().enumerate() {
                assert!(
                    (90..=110).contains(&cnt),
                    "dim {dim} range {b} holds {cnt} of 1000 points"
                );
            }
        }
    }

    #[test]
    fn bin_of_respects_spans() {
        let ds = uniformish(500);
        let part = EquiDepthPartition::fit(&ds, 7);
        for (_, p) in ds.iter() {
            for (dim, &v) in p.iter().enumerate() {
                let b = part.bin_of(dim, v);
                let (lo, hi) = part.bin_span(dim, b);
                assert!(lo <= v && v <= hi + 1e-12);
            }
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let ds = uniformish(100);
        let part = EquiDepthPartition::fit(&ds, 4);
        assert_eq!(part.bin_of(0, -100.0), 0);
        assert_eq!(part.bin_of(0, 100.0), 3);
    }

    #[test]
    fn default_bins_is_half_d() {
        assert_eq!(default_bins(16), 8);
        assert_eq!(default_bins(34), 17);
        assert_eq!(default_bins(2), 2);
        assert_eq!(default_bins(1), 2);
    }

    #[test]
    fn default_bins_follow_dimensionality() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| (0..12).map(|j| ((i * 7 + j * 13) % 100) as f64).collect())
            .collect();
        let part = EquiDepthPartition::fit(&Dataset::from_rows(&rows).unwrap(), default_bins(12));
        assert_eq!(part.bins(), 6);
        assert!((0..12).all(|dim| part.edges(dim).len() == 7));
    }

    #[test]
    fn duplicate_values_stay_defined() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![if i < 90 { 1.0 } else { 2.0 }])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let part = EquiDepthPartition::fit(&ds, 4);
        let b = part.bin_of(0, 1.0);
        assert!(part.bin_width(0, b) > 0.0);
        assert!(part.bin_of(0, 2.0) >= b);
    }

    #[test]
    #[should_panic(expected = "at least two ranges")]
    fn one_bin_panics() {
        EquiDepthPartition::fit(&uniformish(10), 1);
    }
}
