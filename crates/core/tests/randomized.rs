//! Randomized tests: the AD algorithm must agree with the naive
//! full-scan oracle on every random instance, and the paper's structural
//! invariants must hold. Instances are drawn from a seeded in-file
//! generator so every run exercises the same cases (no external
//! property-testing crate: the offline build cannot fetch one).
//!
//! Tie discipline: when two per-dimension differences are exactly equal,
//! Definition 3 allows several correct answer sets (the *multiset of
//! differences* is unique, the ids are not). AD and the naive scan both
//! resolve such ties canonically — smallest `(diff, pid)` key wins — so
//! they are compared id-for-id even on tie-heavy instances
//! (`ad_matches_naive_oracle_even_with_ties`). Properties comparing
//! *other* implementations (whose tie choices are their own) still skip
//! instances with duplicated differences — which random `f64` coordinates
//! almost never produce.

use knmatch_core::{
    frequent_k_n_match_ad, frequent_k_n_match_scan, k_n_match_ad, k_n_match_scan,
    nmatch_difference, sorted_differences, Dataset, SortedColumns,
};

/// A tiny SplitMix64 — kept local so `knmatch-core`'s tests need no
/// dev-dependency on `knmatch-data` (which depends back on this crate).
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A random (rows, query) pair with 1..=6 dims and 1..=24 points,
    /// coordinates in [0, 1) — the former proptest strategy.
    fn db_and_query(&mut self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let d = 1 + self.below(6);
        let c = 1 + self.below(24);
        let rows = (0..c)
            .map(|_| (0..d).map(|_| self.f64()).collect())
            .collect();
        let query = (0..d).map(|_| self.f64()).collect();
        (rows, query)
    }
}

/// True iff all `c · d` per-dimension differences to the query are distinct
/// (then every per-n ranking is strict and answer sets are unique).
fn all_diffs_distinct(rows: &[Vec<f64>], query: &[f64]) -> bool {
    let mut diffs: Vec<f64> = rows
        .iter()
        .flat_map(|p| p.iter().zip(query).map(|(a, b)| (a - b).abs()))
        .collect();
    diffs.sort_unstable_by(f64::total_cmp);
    diffs.windows(2).all(|w| w[0] < w[1])
}

/// Theorem 3.1 (correctness): AD's answer ids and differences equal the
/// naive oracle's for every k and n (under distinct differences).
#[test]
fn ad_matches_naive_oracle() {
    let mut rng = TestRng(0xAD01);
    for _ in 0..192 {
        let (rows, query) = rng.db_and_query();
        if !all_diffs_distinct(&rows, &query) {
            continue;
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let c = rows.len();
        let d = query.len();
        for n in 1..=d {
            for k in [1, c.div_ceil(2), c] {
                let naive = k_n_match_scan(&ds, &query, k, n).unwrap();
                let (ad, _) = k_n_match_ad(&mut cols, &query, k, n).unwrap();
                assert_eq!(naive.ids(), ad.ids(), "k={k} n={n}");
                for (a, b) in naive.diffs().iter().zip(&ad.diffs()) {
                    assert!((a - b).abs() < 1e-12);
                }
            }
        }
    }
}

/// Even with ties, the multiset of answer differences is unique: compare
/// sorted diffs without assuming distinctness.
#[test]
fn ad_diff_multiset_matches_naive_even_with_ties() {
    let mut rng = TestRng(0xAD02);
    for _ in 0..192 {
        let (rows, query) = rng.db_and_query();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let c = rows.len();
        let d = query.len();
        let k = [1, c.div_ceil(2), c][rng.below(3)].max(1);
        let n = [1, d.div_ceil(2), d][rng.below(3)].max(1);
        let naive = k_n_match_scan(&ds, &query, k, n).unwrap();
        let (ad, _) = k_n_match_ad(&mut cols, &query, k, n).unwrap();
        let nd = naive.diffs();
        let ad_d = ad.diffs();
        assert_eq!(nd.len(), ad_d.len());
        for (a, b) in nd.iter().zip(&ad_d) {
            assert!((a - b).abs() < 1e-12, "naive {nd:?} vs ad {ad_d:?}");
        }
    }
}

/// AD's canonical (diff, pid) tie-break matches the naive oracle's
/// id-for-id even when differences collide: coordinates drawn from a
/// 5-value grid make nearly every boundary a tie.
#[test]
fn ad_matches_naive_oracle_even_with_ties() {
    let mut rng = TestRng(0xAD07);
    for _ in 0..192 {
        let d = 1 + rng.below(5);
        let c = 1 + rng.below(20);
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|_| (0..d).map(|_| rng.below(5) as f64 * 0.25).collect())
            .collect();
        let query: Vec<f64> = (0..d).map(|_| rng.below(5) as f64 * 0.25).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        for n in 1..=d {
            for k in [1, c.div_ceil(2), c] {
                let naive = k_n_match_scan(&ds, &query, k, n).unwrap();
                let (ad, _) = k_n_match_ad(&mut cols, &query, k, n).unwrap();
                assert_eq!(
                    naive.ids(),
                    ad.ids(),
                    "k={k} n={n} rows={rows:?} q={query:?}"
                );
            }
        }
    }
}

/// FKNMatchAD equals the naive frequent oracle: same per-n answer sets,
/// same appearance counts, same ranked ids.
#[test]
fn frequent_ad_matches_naive() {
    let mut rng = TestRng(0xAD03);
    for _ in 0..192 {
        let (rows, query) = rng.db_and_query();
        if !all_diffs_distinct(&rows, &query) {
            continue;
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let c = rows.len();
        let d = query.len();
        let k = c.div_ceil(2).max(1);
        let (n0, n1) = (1, d);
        let naive = frequent_k_n_match_scan(&ds, &query, k, n0, n1).unwrap();
        let (ad, _) = frequent_k_n_match_ad(&mut cols, &query, k, n0, n1).unwrap();
        assert_eq!(naive.per_n.len(), ad.per_n.len());
        for (a, b) in naive.per_n.iter().zip(&ad.per_n) {
            assert_eq!(a.n, b.n);
            assert_eq!(a.ids(), b.ids(), "per-n sets differ at n={}", a.n);
        }
        assert_eq!(naive.ids(), ad.ids());
        for (a, b) in naive.entries.iter().zip(&ad.entries) {
            assert_eq!(a.count, b.count);
        }
    }
}

/// The n-match difference is monotone non-decreasing in n and symmetric.
#[test]
fn nmatch_difference_monotone_and_symmetric() {
    let mut rng = TestRng(0xAD04);
    for _ in 0..256 {
        let d = 1 + rng.below(7);
        let p: Vec<f64> = (0..d).map(|_| rng.f64()).collect();
        let q: Vec<f64> = (0..d).map(|_| rng.f64()).collect();
        let mut prev = f64::NEG_INFINITY;
        for n in 1..=d {
            let v = nmatch_difference(&p, &q, n);
            assert!(v >= prev);
            assert_eq!(v, nmatch_difference(&q, &p, n));
            prev = v;
        }
        // And it equals the sorted-differences entry.
        let all = sorted_differences(&p, &q);
        for n in 1..=d {
            assert_eq!(all[n - 1], nmatch_difference(&p, &q, n));
        }
    }
}

/// Cost sanity: AD never retrieves more than all c·d attributes, and the
/// frequent variant costs exactly as much as a plain k-n1-match
/// (Theorem 3.3).
#[test]
fn ad_cost_bounds() {
    let mut rng = TestRng(0xAD05);
    for _ in 0..192 {
        let (rows, query) = rng.db_and_query();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let c = rows.len() as u64;
        let d = query.len();
        let k = rows.len().div_ceil(2).max(1);
        let n1 = d;
        let (_, plain) = k_n_match_ad(&mut cols, &query, k, n1).unwrap();
        assert!(plain.attributes_retrieved <= c * d as u64);
        let (_, freq) = frequent_k_n_match_ad(&mut cols, &query, k, 1, n1).unwrap();
        assert_eq!(freq.attributes_retrieved, plain.attributes_retrieved);
        assert_eq!(freq.heap_pops, plain.heap_pops);
    }
}

/// Every answer's diff is a true n-match difference of that point, and
/// no non-answer point has a diff strictly below ε (soundness +
/// completeness at the threshold).
#[test]
fn answers_are_sound_and_complete() {
    let mut rng = TestRng(0xAD06);
    for _ in 0..192 {
        let (rows, query) = rng.db_and_query();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let d = query.len();
        let k = rows.len().div_ceil(2).max(1);
        for n in [1, d] {
            let (res, _) = k_n_match_ad(&mut cols, &query, k, n).unwrap();
            let eps = res.epsilon();
            for e in &res.entries {
                let true_diff = nmatch_difference(&rows[e.pid as usize], &query, n);
                assert!((true_diff - e.diff).abs() < 1e-12);
            }
            for (pid, row) in rows.iter().enumerate() {
                if !res.contains(pid as u32) {
                    assert!(nmatch_difference(row, &query, n) >= eps);
                }
            }
        }
    }
}

/// The 1-match answer's point must agree with the query in at least one
/// dimension within ε, and with n = d the answer is the Chebyshev NN.
#[test]
fn boundary_n_semantics() {
    let mut rng = TestRng(0xAD07);
    for _ in 0..192 {
        let (rows, query) = rng.db_and_query();
        if !all_diffs_distinct(&rows, &query) {
            continue;
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let d = query.len();
        let (m1, _) = k_n_match_ad(&mut cols, &query, 1, 1).unwrap();
        let best_single = rows
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&query)
                    .map(|(a, b)| (a - b).abs())
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(f64::INFINITY, f64::min);
        assert!((m1.epsilon() - best_single).abs() < 1e-12);
        let (md, _) = k_n_match_ad(&mut cols, &query, 1, d).unwrap();
        let best_linf = rows
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&query)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(f64::INFINITY, f64::min);
        assert!((md.epsilon() - best_linf).abs() < 1e-12);
    }
}

/// The streaming iterator's first-k prefix equals the batch k-n-match
/// answer (same diffs; same ids under distinct differences).
#[test]
fn stream_prefix_equals_batch() {
    let mut rng = TestRng(0xAD08);
    for _ in 0..128 {
        let (rows, query) = rng.db_and_query();
        if !all_diffs_distinct(&rows, &query) {
            continue;
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut a = SortedColumns::build(&ds);
        let mut b = SortedColumns::build(&ds);
        let d = query.len();
        let c = rows.len();
        let n = d.div_ceil(2);
        let k = c.div_ceil(2).max(1);
        let mut prefix: Vec<knmatch_core::MatchEntry> =
            knmatch_core::NMatchStream::new(&mut a, &query, n)
                .unwrap()
                .take(k)
                .collect();
        prefix.sort_by(|x, y| x.diff.total_cmp(&y.diff).then(x.pid.cmp(&y.pid)));
        let (batch, _) = k_n_match_ad(&mut b, &query, k, n).unwrap();
        assert_eq!(prefix, batch.entries);
    }
}

/// The linear-frontier (paper-literal g[]) variant is identical to the
/// heap variant in answers AND cost counters.
#[test]
fn linear_frontier_identical() {
    let mut rng = TestRng(0xAD09);
    for _ in 0..128 {
        let (rows, query) = rng.db_and_query();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let d = query.len();
        let c = rows.len();
        let k = c.div_ceil(2).max(1);
        let (a, sa) = frequent_k_n_match_ad(&mut cols, &query, k, 1, d).unwrap();
        let (b, sb) =
            knmatch_core::frequent_k_n_match_ad_linear(&mut cols, &query, k, 1, d).unwrap();
        assert_eq!(a.ids(), b.ids());
        assert_eq!(sa, sb);
        for (x, y) in a.per_n.iter().zip(&b.per_n) {
            assert_eq!(x.ids(), y.ids());
        }
    }
}

/// eps-n-match returns exactly the points whose n-match difference is
/// within the threshold.
#[test]
fn eps_match_equals_filter() {
    let mut rng = TestRng(0xAD0A);
    for _ in 0..128 {
        let (rows, query) = rng.db_and_query();
        let eps = rng.f64();
        if !all_diffs_distinct(&rows, &query) {
            continue;
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let d = query.len();
        let n = d.div_ceil(2);
        let (res, _) = knmatch_core::eps_n_match_ad(&mut cols, &query, eps, n).unwrap();
        let mut want: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, p)| nmatch_difference(p, &query, n) <= eps)
            .map(|(pid, _)| pid as u32)
            .collect();
        want.sort_unstable();
        let mut got = res.ids();
        got.sort_unstable();
        assert_eq!(got, want);
    }
}

/// An all-numeric hybrid schema reproduces the plain model, and a
/// weighted schema equals the plain model on pre-scaled data — answers
/// and `AdStats` both, since a hybrid schema runs the one AD walker. On
/// tie-heavy mixed schemas (numeric, power-of-two-weighted numeric and
/// weighted categorical dimensions over 0.25-grid values and three
/// category codes, queried with codes that are sometimes absent), hybrid
/// answers equal the scan oracle's id-for-id under the canonical
/// `(diff, pid)` tie rule, and FREQ equals the fold of the per-n scans.
#[test]
fn hybrid_consistency() {
    use knmatch_core::{
        frequent_k_n_match_hybrid, k_n_match_hybrid, k_n_match_hybrid_scan, DimKind,
        FrequentResult, HybridColumns, HybridSchema,
    };
    let mut rng = TestRng(0xAD0B);
    for _ in 0..128 {
        let (rows, query) = rng.db_and_query();
        let ds = Dataset::from_rows(&rows).unwrap();
        let d = query.len();
        let c = rows.len();
        let k = c.div_ceil(2).max(1);
        let schema = HybridSchema::all_numeric(d).unwrap();
        let cols = HybridColumns::build(&ds, schema).unwrap();
        let mut plain = SortedColumns::build(&ds);
        for n in [1, d] {
            let hybrid = k_n_match_hybrid(&cols, &query, k, n).unwrap();
            let ad = k_n_match_ad(&mut plain, &query, k, n).unwrap();
            assert_eq!(hybrid, ad, "n={n}");
        }
    }

    let mut rng = TestRng(0xAD0E);
    for _ in 0..256 {
        let d = 1 + rng.below(5);
        let c = 1 + rng.below(20);
        // A kind per dimension; every weight is a power of two.
        let kinds: Vec<DimKind> = (0..d)
            .map(|_| match rng.below(3) {
                0 => DimKind::numeric(),
                1 => DimKind::Numeric {
                    weight: [0.25, 0.5, 2.0, 4.0][rng.below(4)],
                },
                _ => DimKind::Categorical {
                    weight: [0.25, 0.5, 1.0][rng.below(3)],
                },
            })
            .collect();
        let categorical = |dim: usize| matches!(kinds[dim], DimKind::Categorical { .. });
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|_| {
                (0..d)
                    .map(|dim| {
                        if categorical(dim) {
                            rng.below(3) as f64
                        } else {
                            rng.below(5) as f64 * 0.25
                        }
                    })
                    .collect()
            })
            .collect();
        // Code 3 is in no row, and a small table misses some of 0..=2 too.
        let query: Vec<f64> = (0..d)
            .map(|dim| {
                if categorical(dim) {
                    rng.below(4) as f64
                } else {
                    rng.below(5) as f64 * 0.25
                }
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let schema = HybridSchema::new(kinds.clone()).unwrap();
        let cols = HybridColumns::build(&ds, schema.clone()).unwrap();
        let what = format!("kinds={kinds:?} rows={rows:?} q={query:?}");
        for k in [1, c.div_ceil(2), c] {
            let scans: Vec<_> = (1..=d)
                .map(|n| k_n_match_hybrid_scan(&ds, &schema, &query, k, n).unwrap())
                .collect();
            for (n, scan) in (1..=d).zip(&scans) {
                let (hybrid, _) = k_n_match_hybrid(&cols, &query, k, n).unwrap();
                assert_eq!(&hybrid, scan, "k={k} n={n} {what}");
            }
            let (freq, _) = frequent_k_n_match_hybrid(&cols, &query, k, 1, d).unwrap();
            assert_eq!(
                freq,
                FrequentResult::from_levels((1, d), scans, k),
                "FREQ k={k} {what}"
            );
        }

        // The same weights on numeric dimensions equal the plain model on
        // data and query pre-multiplied by them: scaling by a power of two
        // is exact here, so the keys, pops and sorted accesses coincide.
        let weights: Vec<f64> = kinds
            .iter()
            .map(|kind| match *kind {
                DimKind::Numeric { weight } | DimKind::Categorical { weight } => weight,
            })
            .collect();
        let numeric: Vec<DimKind> = weights
            .iter()
            .map(|&weight| DimKind::Numeric { weight })
            .collect();
        let cols = HybridColumns::build(&ds, HybridSchema::new(numeric).unwrap()).unwrap();
        let scale =
            |p: &[f64]| -> Vec<f64> { p.iter().zip(&weights).map(|(v, w)| v * w).collect() };
        let scaled: Vec<Vec<f64>> = rows.iter().map(|p| scale(p)).collect();
        let mut plain = SortedColumns::from_rows(&scaled).unwrap();
        let scaled_query = scale(&query);
        for k in [1, c.div_ceil(2), c] {
            for n in 1..=d {
                let hybrid = k_n_match_hybrid(&cols, &query, k, n).unwrap();
                let ad = k_n_match_ad(&mut plain, &scaled_query, k, n).unwrap();
                assert_eq!(hybrid, ad, "pre-scaled k={k} n={n} {what}");
            }
        }
    }
}

/// FA and TA agree with brute force (and each other) on random grade
/// tables, for both canonical monotone aggregates.
#[test]
fn fagin_fa_ta_match_bruteforce() {
    use knmatch_core::{GradedLists, MinAggregate, MonotoneAggregate, WeightedSum};
    let mut rng = TestRng(0xAD0C);
    for _ in 0..128 {
        let (rows, _q) = rng.db_and_query();
        let ds = Dataset::from_rows(&rows).unwrap();
        let lists = GradedLists::build(&ds);
        let k = rows.len().div_ceil(2).max(1);
        let sum = WeightedSum {
            weights: vec![1.0; ds.dims()],
        };
        let check = |t: &dyn MonotoneAggregate, got: Vec<(u32, f64)>| {
            let mut want: Vec<(u32, f64)> = ds.iter().map(|(pid, p)| (pid, t.combine(p))).collect();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            want.truncate(k);
            // Scores must match exactly (ids may differ only on score ties).
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-12, "{got:?} vs {want:?}");
            }
        };
        let (fa, _) = lists.fa(&MinAggregate, k).unwrap();
        check(&MinAggregate, fa);
        let (ta, _) = lists.ta(&MinAggregate, k).unwrap();
        check(&MinAggregate, ta);
        let (fa, _) = lists.fa(&sum, k).unwrap();
        check(&sum, fa);
        let (ta, _) = lists.ta(&sum, k).unwrap();
        check(&sum, ta);
    }
}

/// MEDRANK terminates, emits each point at most once, and its rounds
/// are non-decreasing, for every quorum.
#[test]
fn medrank_structural_invariants() {
    let mut rng = TestRng(0xAD0D);
    for _ in 0..128 {
        let (rows, query) = rng.db_and_query();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cols = SortedColumns::build(&ds);
        let d = query.len();
        for quorum in [1, d.div_ceil(2), d] {
            let k = rows.len();
            let (res, stats) =
                knmatch_core::medrank(&mut cols, &query, k, Some(quorum.max(1))).unwrap();
            let mut ids = res.ids();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), res.entries.len(), "no duplicates");
            let rounds = res.diffs();
            assert!(rounds.windows(2).all(|w| w[0] <= w[1]));
            assert!(stats.attributes_retrieved <= (2 * rows.len() * d) as u64);
        }
    }
}
