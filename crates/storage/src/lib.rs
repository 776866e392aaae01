//! # knmatch-storage
//!
//! The disk substrate of the k-n-match reproduction (Section 4 of the
//! paper): 4 KiB pages, page stores (in-memory and file-backed), one
//! sharded LRU buffer pool ([`SharedBufferPool`]) that every page read
//! goes through, a sorted-column file per dimension, a heap file of full
//! records, and the two disk algorithms — the **disk-based AD algorithm**
//! (the generic core engine running over [`SharedDiskColumns`]) and the
//! **sequential-scan baseline**.
//!
//! Cost currency: the paper measures disk algorithms in page accesses and
//! response time. Each query books its reads in a [`ReadSession`], which
//! models a cold private pool of the configured capacity: [`IoStats`]
//! counts hits and sequential vs random page reads (forward AD walks and
//! heap scans stream; IGrid-style fragment hops and VA-file refinements
//! seek), and [`CostModel`] turns the mix into a modelled response time
//! for the figure reproductions. The pool's own counters
//! ([`SharedBufferPool::stats`]) report what it actually served, with
//! pages shared across queries.
//!
//! ```
//! use knmatch_core::Dataset;
//! use knmatch_storage::DiskDatabase;
//!
//! let ds = knmatch_core::paper::fig3_dataset();
//! let db = DiskDatabase::build_in_memory(&ds, 64);
//! let out = db.k_n_match(&[3.0, 7.0, 4.0], 2, 2).unwrap();
//! assert_eq!(out.result.epsilon(), 1.5);
//! println!("{} page accesses", out.io.page_accesses());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

// The reference pool the unit tests hold `ReadSession` to lives with the
// integration tests' helpers; it names this crate by its public path.
#[cfg(test)]
extern crate self as knmatch_storage;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod reference;

pub mod buffer;
pub mod checksum;
pub mod column_file;
pub mod db;
pub mod disk_engine;
pub mod error;
pub mod fault;
pub mod heap_file;
pub mod page;
pub mod persist;
pub mod planner;
pub mod shared_pool;
pub mod store;

pub use buffer::{CostModel, IoStats};
pub use checksum::crc32;
pub use column_file::{SharedDiskColumns, SortedColumnFile};
pub use db::{DiskDatabase, DiskLayout, DiskQueryOutcome};
pub use disk_engine::{DiskBatchOutcome, DiskQueryEngine};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultConfig, FaultStore};
pub use heap_file::{HeapFile, SCAN_GROUP};
pub use page::{PageBuf, COLUMN_ENTRIES_PER_PAGE, PAGE_SIZE};
pub use persist::{FORMAT_VERSION, MAGIC};
pub use planner::{
    plan_in_memory, BackendChoice, MemCostModel, MemPlanChoice, MemPlanInputs, Plan, PlanChoice,
    PLANNER_SAMPLE,
};
pub use shared_pool::{ReadSession, RetryPolicy, SharedBufferPool, DEFAULT_SHARDS, POINT_LOOKUP};
pub use store::{FileStore, MemStore, PageStore, SharedPageStore, VerifyMode, TRAILER_MAGIC};
