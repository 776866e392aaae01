//! The sorted-access data model the AD algorithm runs against.
//!
//! Section 3 of the paper assumes the attributes of each dimension are
//! sorted and that an algorithm pays one unit of cost per individual
//! attribute retrieved. This matches information retrieval from multiple
//! systems (Fagin's model): each "system" ranks all objects by one score
//! (here: one dimension), and a query performs sorted accesses against each
//! system. It also matches the disk cost model, where page accesses are
//! proportional to attributes retrieved.
//!
//! [`SortedAccessSource`] abstracts that model so the same AD engine drives
//! the in-memory sorted columns ([`crate::SortedColumns`]), the disk-resident
//! layout in `knmatch-storage`, and simulated remote systems.

use crate::point::PointId;

/// One sorted access: the attribute value and the id of the point it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SortedEntry {
    /// Owning point.
    pub pid: PointId,
    /// Attribute value in the accessed dimension.
    pub value: f64,
}

impl SortedEntry {
    /// The canonical column order: ascending `(value, pid)` with
    /// [`f64::total_cmp`] on the value. Every per-dimension sort and
    /// ordered insert in the workspace uses this explicit key, so a layout
    /// change (or an unstable sort) can never perturb the tie order
    /// between equal values.
    pub fn cmp_value_pid(a: &SortedEntry, b: &SortedEntry) -> std::cmp::Ordering {
        a.value.total_cmp(&b.value).then(a.pid.cmp(&b.pid))
    }
}

/// A database organised as `d` sorted lists of `(value, point id)` pairs,
/// one per dimension, supporting positional (rank-based) sorted access.
///
/// `locate` is the binary-search probe the AD algorithm issues once per
/// dimension; `entry` is the per-attribute sorted access whose count the
/// paper's optimality theorem bounds. Implementations may count I/O or
/// network cost internally; the AD engine counts retrieved attributes
/// itself.
pub trait SortedAccessSource {
    /// Dimensionality `d`.
    fn dims(&self) -> usize;

    /// Cardinality `c` (every dimension lists every point exactly once).
    fn cardinality(&self) -> usize;

    /// Rank of the first entry in `dim` whose value is `>= q`
    /// (`0..=cardinality`). This is the seed position for the two
    /// directional cursors.
    fn locate(&mut self, dim: usize, q: f64) -> usize;

    /// The entry at `rank` (0-based, ascending by value) in `dim`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `rank >= cardinality` or
    /// `dim >= dims`.
    fn entry(&mut self, dim: usize, rank: usize) -> SortedEntry;

    /// Seeds a query: [`locate`](Self::locate)s `query[dim]` in every
    /// dimension and hands each rank to `found(self, dim, rank)`, in
    /// dimension order. The default interleaves — one search, then its
    /// callback — so a source that pages sees each search beside the
    /// reads it seeds. In-memory columns override it to run the `d`
    /// searches in lock-step, overlapping their cache misses, before the
    /// callbacks; the ranks are the same either way.
    fn locate_each<F: FnMut(&mut Self, usize, usize)>(&mut self, query: &[f64], mut found: F)
    where
        Self: Sized,
    {
        for (dim, &q) in query.iter().enumerate() {
            let rank = self.locate(dim, q);
            found(self, dim, rank);
        }
    }
}

impl<S: SortedAccessSource + ?Sized> SortedAccessSource for &mut S {
    fn dims(&self) -> usize {
        (**self).dims()
    }
    fn cardinality(&self) -> usize {
        (**self).cardinality()
    }
    fn locate(&mut self, dim: usize, q: f64) -> usize {
        (**self).locate(dim, q)
    }
    fn entry(&mut self, dim: usize, rank: usize) -> SortedEntry {
        (**self).entry(dim, rank)
    }
}
