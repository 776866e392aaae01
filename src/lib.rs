//! # knmatch
//!
//! A from-scratch Rust implementation of **"Similarity Search: A Matching
//! Based Approach"** (Tung, Zhang, Koudas, Ooi — VLDB 2006): the
//! **k-n-match** and **frequent k-n-match** query models, the
//! attribute-optimal **AD algorithm** in memory and on disk, the paper's
//! competitors (sequential scan, a VA-file adaptation, IGrid), workload
//! generators, and the full experiment harness that regenerates every
//! table and figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates so a
//! downstream user can depend on one name.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `knmatch-core` | data model, n-match difference, AD algorithm, naive oracles, kNN/skyline baselines |
//! | [`storage`] | `knmatch-storage` | pages, buffer pool, sorted-column & heap files, disk AD |
//! | [`vafile`] | `knmatch-vafile` | VA-file competitor (two-phase filter & refine) |
//! | [`igrid`] | `knmatch-igrid` | IGrid competitor (equi-depth inverted grid) |
//! | [`rtree`] | `knmatch-rtree` | R-tree baseline (dimensionality-curse witness) |
//! | [`data`] | `knmatch-data` | seeded workload generators, CSV, normalisation |
//! | [`eval`] | `knmatch-eval` | class-stripping protocol, experiment runners |
//! | [`server`] | `knmatch-server` | TCP front-end: text protocol, server, client, engine config |
//!
//! ## Quick start
//!
//! ```
//! use knmatch::prelude::*;
//!
//! // The paper's Figure 1: kNN is fooled by one noisy dimension…
//! let ds = knmatch::core::paper::fig1_dataset();
//! let query = knmatch::core::paper::fig1_query();
//! let nn = k_nearest(&ds, &query, 1, &Euclidean).unwrap();
//! assert_eq!(nn[0].pid, 3); // the uniformly-mediocre object wins
//!
//! // …while the 6-match finds the object that agrees in 6 dimensions,
//! let mut cols = SortedColumns::build(&ds);
//! let (m, _) = k_n_match_ad(&mut cols, &query, 1, 6).unwrap();
//! assert_eq!(m.ids(), vec![2]);
//!
//! // and the frequent k-n-match ranks by similarity across every n.
//! let (freq, _) = frequent_k_n_match_ad(&mut cols, &query, 2, 1, 10).unwrap();
//! assert!(!freq.ids().contains(&3));
//! ```
//!
//! ## Batch queries
//!
//! Many queries against one dataset go through a one-run
//! [`VersionedIndex`](core::VersionedIndex) — the engine the servers run —
//! which shares the sorted columns across worker threads and reuses
//! per-worker scratch instead of allocating per query — same answers,
//! same stats as the sequential calls, in input order:
//!
//! ```
//! use knmatch::prelude::*;
//!
//! let ds = knmatch::core::paper::fig1_dataset();
//! let workers = 4;
//! let engine = VersionedIndex::from_dataset(&ds, 1, workers, DEFAULT_MERGE_THRESHOLD).unwrap();
//! let batch: Vec<BatchQuery> = (1..=10)
//!     .map(|n| BatchQuery::KnMatch { query: knmatch::core::paper::fig1_query(), k: 1, n })
//!     .collect();
//! assert!(engine.run(&batch).iter().all(Result::is_ok));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use knmatch_core as core;
pub use knmatch_data as data;
pub use knmatch_eval as eval;
pub use knmatch_igrid as igrid;
pub use knmatch_rtree as rtree;
pub use knmatch_server as server;
pub use knmatch_storage as storage;
pub use knmatch_vafile as vafile;

/// The names most programs need, in one import.
pub mod prelude {
    pub use knmatch_core::{
        eps_n_match_ad, eps_n_match_ad_with, frequent_k_n_match_ad, frequent_k_n_match_ad_with,
        frequent_k_n_match_scan, k_n_match_ad, k_n_match_ad_with, k_n_match_scan, k_nearest,
        nmatch_difference, skyline_wrt, AdStats, BatchAnswer, BatchEngine, BatchQuery, Chebyshev,
        Dataset, Dpf, Euclidean, FrequentResult, KnMatchError, KnMatchResult, Lp, Manhattan,
        Metric, Neighbour, PointId, Scratch, SortedAccessSource, SortedColumns, SortedEntry,
        VersionedIndex, DEFAULT_MERGE_THRESHOLD,
    };
    pub use knmatch_data::{coil_like, labelled_clusters, skewed, uniform, ClusterSpec};
    pub use knmatch_igrid::IGridIndex;
    pub use knmatch_storage::{DiskDatabase, IoStats, MemStore};
    pub use knmatch_vafile::{frequent_k_n_match_va, k_n_match_va, VaFile};
}
