//! Mixed numeric/categorical attributes — the paper's footnote 1:
//! "a side effect of our work will be that we can have a uniform treatment
//! for both types of attributes in the future."
//!
//! The n-match difference already *is* that uniform treatment: per
//! dimension it needs only a difference, not a coordinate. This module
//! generalises the model to a per-dimension [`DimKind`]:
//!
//! * **numeric** — difference `w · |p_i − q_i|` (weight `w` defaults to 1);
//! * **categorical** — difference `0` on equal codes, `w` otherwise (the
//!   Hamming-style matching the paper's Section 2.1 compares against).
//!
//! The AD algorithm needs no second walker: both kinds are non-decreasing
//! in `|p − q|`, so the plain value-sorted columns (codes sort like
//! values) and the two cursors seeded around `q` already serve every
//! dimension in ascending difference. A numeric cursor meets `w·|p − q|`
//! in the plain order; a categorical down cursor meets only `w`, its up
//! cursor the equal-code block at `0` and then `w`. [`HybridColumns`] is
//! those columns plus the schema that keys each sorted access, and both
//! queries run the one frontier walk of [`crate::ad`] — its stopping
//! rule, optimality argument and canonical `(diff, pid)` tie rule
//! included.

use crate::ad::{frequent_lists, AdStats};
use crate::columns::{locate_lockstep, SortedColumns};
use crate::error::{KnMatchError, Result};
use crate::frontier::SortedLists;
use crate::point::{Dataset, PointId};
use crate::result::{FrequentResult, KnMatchResult};
use crate::scratch::Scratch;
use crate::source::{SortedAccessSource, SortedEntry};
use crate::topk::TopK;

/// Kind and weight of one dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DimKind {
    /// A numeric attribute; difference `weight · |p − q|`.
    Numeric {
        /// Multiplier on the absolute difference (must be positive).
        weight: f64,
    },
    /// A categorical attribute (codes stored as `f64`); difference 0 when
    /// the codes are equal, `weight` otherwise.
    Categorical {
        /// The mismatch penalty (must be positive).
        weight: f64,
    },
}

impl DimKind {
    /// Unweighted numeric dimension.
    pub fn numeric() -> Self {
        DimKind::Numeric { weight: 1.0 }
    }

    /// Categorical dimension with mismatch penalty 1.
    pub fn categorical() -> Self {
        DimKind::Categorical { weight: 1.0 }
    }

    fn weight(self) -> f64 {
        match self {
            DimKind::Numeric { weight } | DimKind::Categorical { weight } => weight,
        }
    }

    /// The difference contributed by this dimension.
    pub fn diff(self, p: f64, q: f64) -> f64 {
        match self {
            DimKind::Numeric { weight } => weight * (p - q).abs(),
            DimKind::Categorical { weight } => {
                if p == q {
                    0.0
                } else {
                    weight
                }
            }
        }
    }
}

/// Per-dimension kinds for a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSchema {
    kinds: Vec<DimKind>,
}

impl HybridSchema {
    /// Builds a schema, validating the weights.
    ///
    /// # Errors
    ///
    /// Rejects empty schemas ([`KnMatchError::ZeroDimensions`]) and
    /// non-positive or non-finite weights
    /// ([`KnMatchError::NonFiniteValue`] with the offending dimension).
    pub fn new(kinds: Vec<DimKind>) -> Result<Self> {
        if kinds.is_empty() {
            return Err(KnMatchError::ZeroDimensions);
        }
        for (dim, k) in kinds.iter().enumerate() {
            let w = k.weight();
            if !w.is_finite() || w <= 0.0 {
                return Err(KnMatchError::NonFiniteValue { dim });
            }
        }
        Ok(HybridSchema { kinds })
    }

    /// All-numeric schema with unit weights (equivalent to the plain model).
    pub fn all_numeric(dims: usize) -> Result<Self> {
        Self::new(vec![DimKind::numeric(); dims])
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.kinds.len()
    }

    /// The kind of dimension `dim`.
    pub fn kind(&self, dim: usize) -> DimKind {
        self.kinds[dim]
    }

    /// All per-dimension differences of `p` vs `q`, sorted ascending
    /// (index `n − 1` is the hybrid n-match difference).
    ///
    /// # Panics
    ///
    /// Panics when the point widths disagree with the schema.
    pub fn sorted_differences(&self, p: &[f64], q: &[f64]) -> Vec<f64> {
        assert_eq!(p.len(), self.dims(), "point width must match schema");
        assert_eq!(q.len(), self.dims(), "query width must match schema");
        let mut diffs: Vec<f64> = self
            .kinds
            .iter()
            .zip(p.iter().zip(q))
            .map(|(k, (&a, &b))| k.diff(a, b))
            .collect();
        diffs.sort_unstable_by(f64::total_cmp);
        diffs
    }

    /// The hybrid n-match difference of `p` w.r.t. `q`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or `n` outside `1..=d`.
    pub fn nmatch_difference(&self, p: &[f64], q: &[f64], n: usize) -> f64 {
        assert!(n >= 1 && n <= self.dims(), "n must be in 1..=d");
        self.sorted_differences(p, q)[n - 1]
    }
}

/// The sorted-dimension organisation for a hybrid schema: the plain
/// value-sorted columns (codes sort like values) plus the schema.
#[derive(Debug, Clone)]
pub struct HybridColumns {
    schema: HybridSchema,
    columns: SortedColumns,
}

impl HybridColumns {
    /// Sorts every dimension of `ds` under `schema`.
    ///
    /// # Errors
    ///
    /// Rejects a schema/dataset dimensionality mismatch.
    pub fn build(ds: &Dataset, schema: HybridSchema) -> Result<Self> {
        if ds.dims() != schema.dims() {
            return Err(KnMatchError::DimensionMismatch {
                expected: schema.dims(),
                actual: ds.dims(),
            });
        }
        Ok(HybridColumns {
            schema,
            columns: SortedColumns::build(ds),
        })
    }
}

/// The plain columns' `d` lists, seeded in lock-step, keyed by the
/// schema's per-dimension difference.
impl SortedLists for &HybridColumns {
    fn dims(&self) -> usize {
        self.columns.dims()
    }

    fn parts(&self) -> usize {
        1
    }

    fn part_len(&self, _part: usize) -> usize {
        self.columns.cardinality()
    }

    fn live(&self) -> usize {
        self.columns.cardinality()
    }

    fn locate_part<F: FnMut(&mut Self, usize, usize)>(
        &mut self,
        _part: usize,
        query: &[f64],
        found: F,
    ) {
        locate_lockstep(self, |cols| &cols.columns, query, found);
    }

    fn entry(&mut self, _part: usize, dim: usize, rank: usize) -> SortedEntry {
        SortedAccessSource::entry(&mut &self.columns, dim, rank)
    }

    fn resolve(&self, slot: PointId) -> Option<PointId> {
        Some(slot)
    }

    fn diff(&self, dim: usize, value: f64, q: f64) -> f64 {
        self.schema.kind(dim).diff(value, q)
    }
}

/// Answers a frequent k-n-match query under a hybrid schema with the AD
/// walk.
///
/// # Errors
///
/// Validates like [`crate::frequent_k_n_match_ad`].
pub fn frequent_k_n_match_hybrid(
    cols: &HybridColumns,
    query: &[f64],
    k: usize,
    n0: usize,
    n1: usize,
) -> Result<(FrequentResult, AdStats)> {
    let mut lists = cols;
    frequent_lists(&mut lists, query, k, n0, n1, &mut Scratch::new())
}

/// Answers a k-n-match query under a hybrid schema.
///
/// # Errors
///
/// Validates like [`crate::k_n_match_ad`].
pub fn k_n_match_hybrid(
    cols: &HybridColumns,
    query: &[f64],
    k: usize,
    n: usize,
) -> Result<(KnMatchResult, AdStats)> {
    let (mut freq, stats) = frequent_k_n_match_hybrid(cols, query, k, n, n)?;
    Ok((freq.per_n.pop().expect("single n"), stats))
}

/// Naive hybrid k-n-match by full scan (the correctness oracle).
///
/// # Errors
///
/// Validates like [`crate::k_n_match_scan`].
pub fn k_n_match_hybrid_scan(
    ds: &Dataset,
    schema: &HybridSchema,
    query: &[f64],
    k: usize,
    n: usize,
) -> Result<KnMatchResult> {
    if ds.dims() != schema.dims() {
        return Err(KnMatchError::DimensionMismatch {
            expected: schema.dims(),
            actual: ds.dims(),
        });
    }
    crate::ad::validate_params(query, ds.dims(), ds.len(), k, n, n)?;
    let mut top = TopK::new(k);
    for (pid, p) in ds.iter() {
        top.offer(pid, schema.nmatch_difference(p, query, n));
    }
    Ok(top.into_result(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Movies: (genre code, decade code, rating, runtime) — two categorical
    /// and two numeric dimensions.
    fn movies() -> (Dataset, HybridSchema) {
        let ds = Dataset::from_rows(&[
            vec![0.0, 199.0, 0.82, 0.45], // action, 90s
            vec![0.0, 200.0, 0.80, 0.50], // action, 00s
            vec![1.0, 199.0, 0.81, 0.48], // drama, 90s
            vec![2.0, 198.0, 0.30, 0.90], // horror, 80s
            vec![0.0, 199.0, 0.10, 0.44], // action, 90s, awful rating
        ])
        .unwrap();
        let schema = HybridSchema::new(vec![
            DimKind::categorical(),
            DimKind::categorical(),
            DimKind::numeric(),
            DimKind::numeric(),
        ])
        .unwrap();
        (ds, schema)
    }

    #[test]
    fn categorical_diff_semantics() {
        let k = DimKind::Categorical { weight: 0.5 };
        assert_eq!(k.diff(3.0, 3.0), 0.0);
        assert_eq!(k.diff(3.0, 4.0), 0.5);
        let n = DimKind::Numeric { weight: 2.0 };
        assert_eq!(n.diff(1.0, 1.5), 1.0);
    }

    #[test]
    fn hybrid_ad_matches_scan_oracle() {
        let (ds, schema) = movies();
        let cols = HybridColumns::build(&ds, schema.clone()).unwrap();
        let q = vec![0.0, 199.0, 0.85, 0.46]; // an action 90s movie
        for n in 1..=4 {
            for k in [1usize, 3, 5] {
                let (ad, _) = k_n_match_hybrid(&cols, &q, k, n).unwrap();
                let scan = k_n_match_hybrid_scan(&ds, &schema, &q, k, n).unwrap();
                let ad_d = ad.diffs();
                let sc_d = scan.diffs();
                for (a, b) in ad_d.iter().zip(&sc_d) {
                    assert!((a - b).abs() < 1e-12, "k={k} n={n}: {ad_d:?} vs {sc_d:?}");
                }
            }
        }
    }

    #[test]
    fn hybrid_finds_genre_peers() {
        let (ds, schema) = movies();
        let cols = HybridColumns::build(&ds, schema).unwrap();
        let q = vec![0.0, 199.0, 0.85, 0.46];
        // 3-match: genre + decade + one numeric must align → movie 0 wins.
        let (m, _) = k_n_match_hybrid(&cols, &q, 1, 3).unwrap();
        assert_eq!(m.ids(), vec![0]);
        // 2-match admits movie 4 (same genre + decade, terrible rating):
        // the noisy numeric dimension is ignored, like the paper's bad
        // pixels.
        let (m, _) = k_n_match_hybrid(&cols, &q, 3, 2).unwrap();
        assert!(m.contains(4), "{:?}", m.ids());
    }

    #[test]
    fn all_numeric_schema_equals_plain_model() {
        let ds = crate::paper::fig3_dataset();
        let schema = HybridSchema::all_numeric(3).unwrap();
        let cols = HybridColumns::build(&ds, schema).unwrap();
        let q = [3.0, 7.0, 4.0];
        let mut plain = crate::SortedColumns::build(&ds);
        for n in 1..=3 {
            let (h, hs) = k_n_match_hybrid(&cols, &q, 2, n).unwrap();
            let (p, ps) = crate::k_n_match_ad(&mut plain, &q, 2, n).unwrap();
            // One walker over the same columns with the same keys (a unit
            // weight multiplies exactly): the same answers, and the same
            // pops, attributes and probes.
            assert_eq!(h, p, "n={n}");
            assert_eq!(hs, ps, "n={n}");
        }
    }

    #[test]
    fn weights_reorder_matches() {
        // One point is close in a low-weight dim, another in a high-weight
        // dim; the 1-match must respect weights.
        let ds = Dataset::from_rows(&[
            vec![0.10, 0.90], // close in dim 0
            vec![0.90, 0.12], // close in dim 1
        ])
        .unwrap();
        let q = [0.0, 0.0];
        let heavy0 = HybridSchema::new(vec![
            DimKind::Numeric { weight: 10.0 },
            DimKind::Numeric { weight: 1.0 },
        ])
        .unwrap();
        let cols = HybridColumns::build(&ds, heavy0).unwrap();
        let (m, _) = k_n_match_hybrid(&cols, &q, 1, 1).unwrap();
        assert_eq!(m.ids(), vec![1], "dim-0 closeness costs 10x");
        let heavy1 = HybridSchema::new(vec![
            DimKind::Numeric { weight: 1.0 },
            DimKind::Numeric { weight: 10.0 },
        ])
        .unwrap();
        let cols = HybridColumns::build(&ds, heavy1).unwrap();
        let (m, _) = k_n_match_hybrid(&cols, &q, 1, 1).unwrap();
        assert_eq!(m.ids(), vec![0]);
    }

    #[test]
    fn frequent_hybrid_counts() {
        let (ds, schema) = movies();
        let cols = HybridColumns::build(&ds, schema).unwrap();
        let q = vec![0.0, 199.0, 0.85, 0.46];
        let (freq, _) = frequent_k_n_match_hybrid(&cols, &q, 2, 1, 4).unwrap();
        assert_eq!(freq.per_n.len(), 4);
        // Movie 0 (same genre/decade, best numerics) tops the count.
        assert_eq!(freq.ids()[0], 0);
        assert_eq!(freq.count_of(0), 4);
    }

    #[test]
    fn unknown_category_matches_nothing_exactly() {
        let (ds, schema) = movies();
        let cols = HybridColumns::build(&ds, schema).unwrap();
        // Genre code 9 matches no movie: every 1-match difference in that
        // dimension is the weight.
        let q = vec![9.0, 199.0, 0.85, 0.46];
        let (m, _) = k_n_match_hybrid(&cols, &q, 5, 1).unwrap();
        assert_eq!(m.entries.len(), 5);
        assert_eq!(m.entries[0].diff, 0.0, "decade still matches exactly");
    }

    #[test]
    fn schema_validation() {
        assert!(HybridSchema::new(vec![]).is_err());
        assert!(HybridSchema::new(vec![DimKind::Numeric { weight: 0.0 }]).is_err());
        assert!(HybridSchema::new(vec![DimKind::Categorical { weight: -1.0 }]).is_err());
        let (ds, _) = movies();
        let wrong = HybridSchema::all_numeric(2).unwrap();
        assert!(HybridColumns::build(&ds, wrong).is_err());
    }
}
