//! # knmatch-igrid
//!
//! IGrid — the inverted grid index of Aggarwal & Yu (KDD'00), the paper's
//! main effectiveness *and* efficiency competitor. Each dimension is
//! equi-depth partitioned into `kd` ranges (default `d/2`); an inverted
//! list per (dimension, range) lets a query touch one list per dimension
//! and rank points by the proximity-weighted similarity
//! `S(P,Q) = [Σ (1 − |p_i − q_i|/m_i)^p]^{1/p}` over range-matching
//! dimensions.
//!
//! [`IGridIndex`] is the in-memory form used in the accuracy experiments
//! (Table 4, Figures 8–9); [`DiskIGrid`] is the block-chained on-disk form
//! whose fragmented lists the paper measures in Figures 13–15.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod disk;
pub mod index;
pub mod partition;

pub use disk::{DiskIGrid, BLOCKS_PER_PAGE, BLOCK_BYTES, BLOCK_ENTRIES};
pub use index::{IGridAnswer, IGridIndex};
pub use partition::{default_bins, EquiDepthPartition};
