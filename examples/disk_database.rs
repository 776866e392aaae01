//! The disk substrate in action: one dataset, four access methods, page-
//! accurate cost accounting — a miniature of the paper's Figures 10–13.
//!
//! Run with: `cargo run --release --example disk_database`

use knmatch::data::uniform;
use knmatch::igrid::DiskIGrid;
use knmatch::prelude::*;
use knmatch::storage::{CostModel, HeapFile, ReadSession, SharedBufferPool};

fn main() {
    let (c, d) = (50_000, 16);
    let ds = uniform(c, d, 1);
    let query: Vec<f64> = ds.point(123).to_vec();
    let (k, n0, n1) = (20, 4, 8);
    let model = CostModel::default();
    println!("{c} points × {d} dims on 4 KiB pages; frequent {k}-n-match, n ∈ [{n0}, {n1}]\n");

    // Sequential scan of the heap file. Every query's I/O is modelled on
    // a cold 256-page pool, whatever the previous query left cached.
    let db = DiskDatabase::build_in_memory(&ds, 256);
    let scan = db
        .scan_frequent_k_n_match(&query, k, n0, n1)
        .expect("valid query");
    report("sequential scan", scan.io, model);

    // Disk-based AD over the sorted-column file.
    let ad = db
        .frequent_k_n_match(&query, k, n0, n1)
        .expect("valid query");
    report("AD algorithm", ad.io, model);
    println!(
        "    ({} of {} attributes retrieved — Theorem 3.2's minimum)",
        ad.ad.attributes_retrieved,
        c * d
    );

    // The VA-file adaptation: sequential approximation scan, then random
    // refinement fetches.
    let mut store = MemStore::new();
    let heap = HeapFile::build(&mut store, &ds);
    let va = VaFile::build(&mut store, &ds, 8);
    let pool = SharedBufferPool::new(store, 256);
    let mut session = ReadSession::new(256);
    let vout = frequent_k_n_match_va(&va, &heap, &pool, &mut session, &query, k, n0, n1)
        .expect("valid query");
    report("VA-file", vout.io, model);
    println!("    ({} of {c} points survived the filter)", vout.refined);

    // IGrid's fragmented inverted lists.
    let mut store = MemStore::new();
    let ig = DiskIGrid::build_default(&mut store, &ds);
    let pool = SharedBufferPool::new(store, 256);
    let (_, ig_io) = ig
        .query(&pool, &mut session, &query, k)
        .expect("valid query");
    report("IGrid", ig_io, model);

    // All exact methods agree on the answer.
    let exact = frequent_k_n_match_scan(&ds, &query, k, n0, n1).expect("valid query");
    assert_eq!(ad.result.ids(), exact.ids());
    assert_eq!(vout.result.ids(), exact.ids());
    println!("\nAD, VA-file and the scan return identical answers; they differ only in cost.");
}

fn report(name: &str, io: IoStats, model: CostModel) {
    println!(
        "{name:<16}: {:>6} pages ({:>6} sequential, {:>5} random) → {:>8.1} ms modelled",
        io.page_accesses(),
        io.sequential_reads,
        io.random_reads,
        io.response_time_ms(model)
    );
}
