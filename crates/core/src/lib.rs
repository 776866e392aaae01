//! # knmatch-core
//!
//! A from-scratch implementation of **"Similarity Search: A Matching Based
//! Approach"** (Tung, Zhang, Koudas, Ooi — VLDB 2006): the **k-n-match**
//! and **frequent k-n-match** query models and the attribute-optimal **AD
//! (Ascending Difference)** algorithm, together with the naive full-scan
//! reference algorithms and the kNN / skyline baselines the paper compares
//! against.
//!
//! ## The model
//!
//! Similarity search usually maps objects to d-dimensional points and runs
//! kNN under an aggregating metric. That (1) hides partial similarities and
//! (2) lets a single wildly-dissimilar dimension dominate. The k-n-match
//! query instead matches the query and each data point in the `n`
//! dimensions where they agree best: the **n-match difference** of `P`
//! w.r.t. `Q` is the n-th smallest of the per-dimension differences
//! `|p_i − q_i|`, and the k-n-match answer is the `k` points minimising it.
//! The **frequent k-n-match** query removes the sensitivity to `n`: it runs
//! k-n-match for every `n ∈ [n0, n1]` and returns the `k` points appearing
//! most frequently across the answer sets.
//!
//! ## Quick start
//!
//! ```
//! use knmatch_core::{
//!     frequent_k_n_match_ad, k_n_match_ad, k_nearest, Dataset, Euclidean, SortedColumns,
//! };
//!
//! // The paper's Figure 1 database: 4 objects, 10 dims, query (1,…,1).
//! let ds = knmatch_core::paper::fig1_dataset();
//! let q = knmatch_core::paper::fig1_query();
//!
//! // Euclidean kNN picks the all-20s object…
//! assert_eq!(k_nearest(&ds, &q, 1, &Euclidean).unwrap()[0].pid, 3);
//!
//! // …but the 6-match finds the object agreeing exactly in 6 dimensions,
//! let mut cols = SortedColumns::build(&ds);
//! let (m6, _) = k_n_match_ad(&mut cols, &q, 1, 6).unwrap();
//! assert_eq!(m6.ids(), vec![2]);
//!
//! // and the frequent k-n-match over n ∈ [1, 10] ranks by full similarity.
//! let (freq, _) = frequent_k_n_match_ad(&mut cols, &q, 2, 1, 10).unwrap();
//! assert!(!freq.contains_answer(3));
//! # // helper used above:
//! ```
//!
//! (The `contains_answer` call above is sugar for checking the ranked ids;
//! see [`FrequentResult`].)
//!
//! ## Module map
//!
//! - [`point`] / [`Dataset`] — row-major point storage with validation;
//! - [`nmatch`] — the n-match difference (Definition 1) and helpers;
//! - [`columns`] / [`SortedColumns`] — the sorted-dimension organisation;
//! - [`source`] — the sorted-access abstraction (multiple-system IR model);
//! - [`ad`] — the AD algorithm (`KNMatchAD` / `FKNMatchAD`, Theorems 3.1–3.3),
//!   plus the ε-threshold variant and the paper-literal linear `g[]` oracle;
//! - [`scratch`] / [`Scratch`] — reusable epoch-stamped query working memory;
//! - [`engine`] / [`BatchEngine`] — the batch query API every served
//!   engine implements, its one dispatch ([`execute_batch_query`]) and its
//!   one batch loop ([`Park::run`], over the parallel loop [`run_batch`]),
//!   which keeps each engine's per-worker state between batches;
//! - [`kernels`] — autovectorization-friendly inner-loop kernels for the
//!   filter and scan hot paths;
//! - [`filter`] / [`ScanEngine`] / [`BandEngine`] — exact per-query
//!   filter-and-refine backends (the kernel scan, and quantised cells the
//!   VA-file adapter builds on) the planner routes to;
//! - [`stream`] — lazy ascending-difference answer iterator;
//! - [`versioned`] / [`VersionedIndex`] — epoch-versioned MVCC index:
//!   delta + sealed runs (keys + columns each) + pinned snapshots, writers
//!   never block readers; a query is one AD walk over every run's sorted
//!   lists, so one run is plain AD and more runs are only a layout;
//! - [`hybrid`] — mixed numeric/categorical/weighted schemas (footnote 1):
//!   a per-dimension difference on the one AD walk;
//! - [`naive`] — full-scan reference algorithms;
//! - [`knn`] / [`metrics`] — kNN baselines (L_p, Chebyshev, DPF);
//! - [`medrank`](mod@crate::medrank) — Fagin's median-rank aggregation (related work \[12\]);
//! - [`fagin`] — FA / TA for monotone aggregates, and the misapplication
//!   counterexample the paper builds on;
//! - [`skyline`] — the query-relative skyline comparison;
//! - [`paper`] — the paper's worked examples as datasets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ad;
pub mod columns;
pub mod engine;
pub mod error;
pub mod fagin;
pub mod filter;
pub(crate) mod frontier;
pub mod hybrid;
pub mod kernels;
pub mod knn;
pub mod medrank;
pub mod metrics;
pub mod naive;
pub mod nmatch;
pub mod paper;
pub mod point;
pub mod result;
pub mod scratch;
#[cfg(test)]
mod sharded;
pub mod skyline;
pub mod source;
pub mod stream;
pub mod topk;
pub mod versioned;

pub use ad::{
    eps_n_match_ad, eps_n_match_ad_with, frequent_k_n_match_ad, frequent_k_n_match_ad_linear,
    frequent_k_n_match_ad_with, k_n_match_ad, k_n_match_ad_with, AdStats,
};
pub use columns::{ColumnView, SortedColumns};
pub use engine::{
    execute_batch_query, run_batch, BatchAnswer, BatchEngine, BatchOptions, BatchOutcome,
    BatchQuery, Park, PlanTally, PlannerMode, WorkerState,
};
pub use error::{panic_message, KnMatchError, Result};
pub use fagin::{GradedLists, MiddlewareStats, MinAggregate, MonotoneAggregate, WeightedSum};
pub use filter::{
    equi_width_boundaries, sample_thresholds, BandEngine, FilterScratch, SampledThresholds,
    ScanEngine, FILTER_BLOCK, FILTER_SAMPLE,
};
pub use hybrid::{
    frequent_k_n_match_hybrid, k_n_match_hybrid, k_n_match_hybrid_scan, DimKind, HybridColumns,
    HybridSchema,
};
pub use knn::{k_nearest, Neighbour};
pub use medrank::medrank;
pub use metrics::{Chebyshev, Dpf, Euclidean, Lp, Manhattan, Metric};
pub use naive::{
    frequent_k_n_match_scan, k_n_match_scan, k_n_match_scan_counted, k_n_match_scan_parallel,
};
pub use nmatch::{
    matching_dimensions, nmatch_difference, nmatch_difference_with_buf, sorted_differences,
    sorted_differences_with_buf,
};
pub use point::{Dataset, PointId};
pub use result::{FrequentEntry, FrequentResult, KnMatchResult, MatchEntry};
pub use scratch::{QueryControl, Scratch};
pub use skyline::skyline_wrt;
pub use source::{SortedAccessSource, SortedEntry};
pub use stream::NMatchStream;
pub use versioned::{
    EpochSnapshot, VersionStats, VersionWriter, VersionedIndex, DEFAULT_MERGE_THRESHOLD,
};

impl FrequentResult {
    /// Whether `pid` is one of the ranked answers.
    pub fn contains_answer(&self, pid: PointId) -> bool {
        self.entries.iter().any(|e| e.pid == pid)
    }
}
