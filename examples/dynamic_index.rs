//! A live, updatable similarity index: sensor fingerprints come and go
//! while matching queries keep running — the paper's static model extended
//! with inserts, deletes and stable keys (`VersionedIndex`, DESIGN.md §16).
//!
//! Run with: `cargo run --example dynamic_index`

use knmatch::core::{
    BatchAnswer, BatchEngine, BatchOutcome, BatchQuery, VersionWriter, VersionedIndex,
    DEFAULT_MERGE_THRESHOLD,
};

/// Runs one query against the index's current epoch.
fn ask(index: &VersionedIndex, query: BatchQuery) -> (BatchAnswer, u64) {
    let outcome = index
        .run(&[query])
        .pop()
        .expect("one slot")
        .expect("valid query");
    let attributes = outcome.ad_stats().attributes_retrieved;
    (outcome.into_answer(), attributes)
}

fn main() {
    // Device fingerprints: 5 behavioural features per device, keyed by
    // device id. Devices enroll and retire over time.
    let index = VersionedIndex::new(5, 1, DEFAULT_MERGE_THRESHOLD).expect("5 dims");

    let enroll = [
        (1001u32, [0.20, 0.31, 0.55, 0.10, 0.42]),
        (1002, [0.21, 0.30, 0.54, 0.11, 0.40]), // near-clone of 1001
        (1003, [0.80, 0.75, 0.20, 0.90, 0.65]),
        (1004, [0.22, 0.29, 0.90, 0.12, 0.41]), // clone of 1001 with one wild feature
        (1005, [0.50, 0.50, 0.50, 0.50, 0.50]),
    ];
    for (id, fp) in &enroll {
        index.insert(*id, fp).expect("valid fingerprint");
    }
    println!("enrolled {} devices", index.live());

    // A suspicious login presents a fingerprint close to device 1001.
    let probe = vec![0.21, 0.30, 0.56, 0.10, 0.43];
    let knm = |k| BatchQuery::KnMatch {
        query: probe.clone(),
        k,
        n: 4,
    };
    let (BatchAnswer::KnMatch(matches), attributes) = ask(&index, knm(3)) else {
        unreachable!("a KNM query gets a KNM answer");
    };
    println!("\n4-of-5-feature matches for the probe:");
    for m in &matches.entries {
        println!("  device {}  (diff {:.3})", m.pid, m.diff);
    }
    println!("  [{attributes} attributes examined]");
    assert_eq!(matches.ids()[0], 1001);
    assert!(
        matches.ids().contains(&1004),
        "the one-wild-feature clone must surface under 4-of-5 matching"
    );

    // Device 1001 is retired; its clone should now top the ranking.
    index.remove(1001).expect("present");
    let (BatchAnswer::KnMatch(matches), _) = ask(&index, knm(2)) else {
        unreachable!("a KNM query gets a KNM answer");
    };
    println!("\nafter retiring device 1001:");
    for m in &matches.entries {
        println!("  device {}  (diff {:.3})", m.pid, m.diff);
    }
    assert_eq!(matches.ids()[0], 1002);

    // A re-enrollment updates in place.
    index
        .insert(1005, &[0.19, 0.32, 0.53, 0.09, 0.44])
        .expect("valid fingerprint");
    let frequent = BatchQuery::Frequent {
        query: probe.clone(),
        k: 3,
        n0: 2,
        n1: 5,
    };
    let (BatchAnswer::Frequent(freq), _) = ask(&index, frequent) else {
        unreachable!("a FREQ query gets a FREQ answer");
    };
    println!("\nfrequent matches over n ∈ [2, 5] after 1005's new fingerprint:");
    for e in &freq.entries {
        println!("  device {}  appears {} times", e.pid, e.count);
    }
    assert!(freq.ids().contains(&1005));
}
