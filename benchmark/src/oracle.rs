//! The sequential reference every served answer is held against: the
//! paper's AD algorithm (`k_n_match_ad`, `frequent_k_n_match_ad`,
//! `eps_n_match_ad`) run query by query over one `SortedColumns` —
//! no batch engine, planner, server or wire format in between.

use knmatch_core::{
    eps_n_match_ad, frequent_k_n_match_ad, k_n_match_ad, BatchAnswer, BatchQuery, Dataset,
    KnMatchResult, SortedColumns,
};

fn answer(cols: &SortedColumns, q: &BatchQuery) -> BatchAnswer {
    // `&SortedColumns` is itself a sorted-access source, so the shared
    // columns stay immutable.
    let mut view = cols;
    match q {
        BatchQuery::KnMatch { query, k, n } => BatchAnswer::KnMatch(
            k_n_match_ad(&mut view, query, *k, *n)
                .expect("valid query")
                .0,
        ),
        BatchQuery::Frequent { query, k, n0, n1 } => BatchAnswer::Frequent(
            frequent_k_n_match_ad(&mut view, query, *k, *n0, *n1)
                .expect("valid query")
                .0,
        ),
        BatchQuery::EpsMatch { query, eps, n } => BatchAnswer::EpsMatch(
            eps_n_match_ad(&mut view, query, *eps, *n)
                .expect("valid query")
                .0,
        ),
    }
}

/// The oracle's answer to every query, in query order. The list is cut
/// into one contiguous share per thread; each query is still answered
/// sequentially on its own.
pub fn answers(ds: &Dataset, queries: &[BatchQuery], threads: usize) -> Vec<BatchAnswer> {
    let cols = SortedColumns::build(ds);
    let share = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = queries
            .chunks(share)
            .map(|chunk| {
                let cols = &cols;
                s.spawn(move || chunk.iter().map(|q| answer(cols, q)).collect::<Vec<_>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread"))
            .collect()
    })
}

/// The oracle over keyed rows (ascending key order): builds a fresh
/// index over exactly these rows and maps its dense ids back to keys —
/// what a mutable engine must answer once its writes have quiesced.
pub fn answers_keyed(
    rows: &[(u32, &[f64])],
    queries: &[BatchQuery],
    threads: usize,
) -> Vec<BatchAnswer> {
    let points: Vec<&[f64]> = rows.iter().map(|(_, p)| *p).collect();
    let ds = Dataset::from_rows(&points).expect("live rows form a dataset");
    let rekey = |res: &mut KnMatchResult| {
        for e in &mut res.entries {
            e.pid = rows[e.pid as usize].0;
        }
    };
    let mut out = answers(&ds, queries, threads);
    for a in &mut out {
        match a {
            BatchAnswer::KnMatch(res) | BatchAnswer::EpsMatch(res) => rekey(res),
            BatchAnswer::Frequent(res) => {
                for e in &mut res.entries {
                    e.pid = rows[e.pid as usize].0;
                }
                res.per_n.iter_mut().for_each(rekey);
            }
        }
    }
    out
}
