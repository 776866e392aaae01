//! # knmatch-vafile
//!
//! The compression-based competitor of the paper's Section 4.2: a VA-file
//! (vector-approximation file) adapted to answer (frequent) k-n-match
//! queries in two phases — a sequential scan of the quantised
//! approximations that brackets every point's n-match difference between a
//! lower and an upper bound, followed by exact refinement of the points the
//! bounds cannot prune.
//!
//! The answers are exactly those of the reference algorithms; what the
//! experiments compare is the cost: phase two's random heap-file accesses
//! make the method lose to both the plain scan and the AD algorithm
//! (Figure 10), because n-match bounds from per-dimension cells are loose —
//! around 10% of all points survive phase one.
//!
//! The crate also ships the classic Euclidean-kNN VA-file ([`k_nearest_va`])
//! for which the structure was designed, where the same bounds prune well.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod approx;
pub mod engine;
pub mod knn;
pub mod match_query;

pub use approx::VaFile;
pub use engine::{va_engine, VA_CELLS};
pub use knn::k_nearest_va;
pub use match_query::{frequent_k_n_match_va, k_n_match_va, VaOutcome};
