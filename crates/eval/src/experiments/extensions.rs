//! Extension experiments beyond the paper's figures — the ablations
//! DESIGN.md calls out. Each backs one claim the paper makes in prose:
//!
//! * **Ext-1 (dimensionality curse)** — Section 6: "R-tree-like structures
//!   all suffer from the dimensionality curse". We measure the fraction of
//!   R-tree leaves (and of VA-file candidates) a kNN query must touch as
//!   dimensionality grows.
//! * **Ext-2 (cost-model sensitivity)** — the reproduction's response
//!   times use a seek:stream cost ratio; this sweep shows AD is fastest at
//!   *every* ratio, while the scan-vs-IGrid ordering the paper measured
//!   appears once seeks cost a few times a streamed page (IGrid touches
//!   less data but fragments it — exactly the paper's argument, now with
//!   its validity region made explicit).
//! * **Ext-3 (VA-file resolution)** — bits-per-dimension ablation for the
//!   Section 4.2 competitor: coarser cells refine more points.

use knmatch_core::k_nearest;
use knmatch_core::Euclidean;
use knmatch_data::uniform;
use knmatch_rtree::{RTree, SsTree};
use knmatch_storage::{CostModel, HeapFile, MemStore, ReadSession, SharedBufferPool};
use knmatch_vafile::{k_nearest_va, VaFile};

use crate::efficiency::{sample_query_points, DiskBench};
use crate::report::{render_figure, Series};

/// Ext-1: the dimensionality curse, quantified.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtCurse {
    /// `(d, fraction)` series: R-tree leaves visited, VA-file points
    /// refined, scan (always 1.0) — each as a fraction of the total.
    pub series: Vec<Series>,
}

/// Runs Ext-1 over `dims` at `card` points, kNN with `k = 10`.
pub fn ext_curse(card: usize, dims: &[usize], queries: usize, seed: u64) -> ExtCurse {
    let mut rtree_frac = Vec::new();
    let mut sstree_frac = Vec::new();
    let mut va_frac = Vec::new();
    let mut scan_frac = Vec::new();
    for &d in dims {
        let ds = uniform(card, d, seed ^ d as u64);
        let qs = sample_query_points(&ds, queries, seed + 7);
        let tree = RTree::bulk_load(&ds).expect("non-empty dataset");
        let stree = SsTree::bulk_load(&ds).expect("non-empty dataset");
        let mut store = MemStore::new();
        let heap = HeapFile::build(&mut store, &ds);
        let va = VaFile::build(&mut store, &ds, 8);
        let pool = SharedBufferPool::new(store, 512);
        let mut session = ReadSession::new(512);

        let mut leaf_f = 0.0;
        let mut ss_leaf_f = 0.0;
        let mut refine_f = 0.0;
        for q in &qs {
            let (tree_ans, stats) = tree.k_nearest(&ds, q, 10).expect("valid query");
            leaf_f += stats.leaf_fraction(tree.leaf_count());
            let (_, ss_stats) = stree.k_nearest(&ds, q, 10).expect("valid query");
            ss_leaf_f += ss_stats.leaf_fraction(stree.leaf_count());
            let va_out = k_nearest_va(&va, &heap, &pool, &mut session, q, 10).expect("valid query");
            refine_f += va_out.refined as f64 / card as f64;
            // All three must agree with the exact scan.
            let exact = k_nearest(&ds, q, 10, &Euclidean).expect("valid query");
            let t: Vec<u32> = tree_ans.iter().map(|n| n.pid).collect();
            let e: Vec<u32> = exact.iter().map(|n| n.pid).collect();
            assert_eq!(t, e, "R-tree kNN must be exact");
        }
        let nq = qs.len() as f64;
        rtree_frac.push((d as f64, leaf_f / nq));
        sstree_frac.push((d as f64, ss_leaf_f / nq));
        va_frac.push((d as f64, refine_f / nq));
        scan_frac.push((d as f64, 1.0));
    }
    ExtCurse {
        series: vec![
            Series::new("R-tree leaves", rtree_frac),
            Series::new("SS-tree leaves", sstree_frac),
            Series::new("VA-file refined", va_frac),
            Series::new("scan", scan_frac),
        ],
    }
}

impl std::fmt::Display for ExtCurse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}",
            render_figure(
                "Ext-1: fraction of structure touched by kNN vs dimensionality",
                "d",
                &self.series
            )
        )
    }
}

/// Ext-2: method ordering across seek:stream cost ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtCostModel {
    /// `(ratio, time ms)` per method.
    pub series: Vec<Series>,
}

/// Runs Ext-2 on one uniform dataset (frequent k-n-match, k = 20,
/// `[n0, n1] = [4, 8]`); the page mixes are measured once and re-priced
/// under each ratio.
pub fn ext_cost_model(card: usize, ratios: &[f64], queries: usize, seed: u64) -> ExtCostModel {
    let ds = uniform(card, 16, seed);
    let qs = sample_query_points(&ds, queries, seed + 1);
    let mut bench = DiskBench::build(&ds);
    let ad = bench.ad_frequent(&qs, 20, 4, 8);
    let scan = bench.scan_frequent(&qs, 20, 4, 8);
    let igrid = bench.igrid_query(&qs, 20);

    let price = |seq: f64, rand: f64, ratio: f64| {
        let model = CostModel {
            sequential_ms: 0.1,
            random_ms: 0.1 * ratio,
        };
        seq * model.sequential_ms + rand * model.random_ms
    };
    let series = vec![
        Series::new(
            "AD",
            ratios
                .iter()
                .map(|&r| (r, price(ad.seq_pages, ad.rand_pages, r)))
                .collect(),
        ),
        Series::new(
            "scan",
            ratios
                .iter()
                .map(|&r| (r, price(scan.seq_pages, scan.rand_pages, r)))
                .collect(),
        ),
        Series::new(
            "IGrid",
            ratios
                .iter()
                .map(|&r| (r, price(igrid.seq_pages, igrid.rand_pages, r)))
                .collect(),
        ),
    ];
    ExtCostModel { series }
}

impl std::fmt::Display for ExtCostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}",
            render_figure(
                "Ext-2: modelled response time (ms) vs seek:stream cost ratio",
                "ratio",
                &self.series
            )
        )
    }
}

/// Ext-3: VA-file resolution ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtVaBits {
    /// `(bits, points refined)` for the frequent k-n-match filter.
    pub refined: Series,
    /// `(bits, approximation size as % of the data)` — the space cost.
    pub size_pct: Series,
}

/// Runs Ext-3: bits ∈ `bits`, frequent k-n-match k = 20, `[4, 8]`.
pub fn ext_va_bits(card: usize, bits: &[u8], queries: usize, seed: u64) -> ExtVaBits {
    let ds = uniform(card, 16, seed);
    let qs = sample_query_points(&ds, queries, seed + 3);
    let mut refined = Vec::new();
    let mut size = Vec::new();
    for &b in bits {
        let mut store = MemStore::new();
        let heap = HeapFile::build(&mut store, &ds);
        let va = VaFile::build(&mut store, &ds, b);
        let pool = SharedBufferPool::new(store, 512);
        let mut session = ReadSession::new(512);
        let mut total = 0usize;
        for q in &qs {
            let out =
                knmatch_vafile::frequent_k_n_match_va(&va, &heap, &pool, &mut session, q, 20, 4, 8)
                    .expect("valid query");
            total += out.refined;
        }
        refined.push((b as f64, total as f64 / qs.len() as f64));
        size.push((
            b as f64,
            100.0 * va.total_pages() as f64 / heap.total_pages() as f64,
        ));
    }
    ExtVaBits {
        refined: Series::new("refined", refined),
        size_pct: Series::new("size %", size),
    }
}

impl std::fmt::Display for ExtVaBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}",
            render_figure(
                "Ext-3: VA-file points refined vs bits per dimension",
                "bits",
                std::slice::from_ref(&self.refined)
            )
        )?;
        write!(
            f,
            "{}",
            render_figure(
                "Ext-3: VA-file size (% of heap) vs bits per dimension",
                "bits",
                std::slice::from_ref(&self.size_pct)
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curse_fractions_rise_with_d() {
        let e = ext_curse(4000, &[2, 16], 2, 5);
        let rt = &e.series[0];
        assert!(
            rt.points[1].1 > rt.points[0].1,
            "R-tree curse: {:?}",
            rt.points
        );
        assert!(rt.points[1].1 > 0.5, "high-d kNN should touch most leaves");
        let va = &e.series[1];
        assert!(va.points[0].1 <= 1.0 && va.points[0].1 > 0.0);
        assert!(e.to_string().contains("Ext-1"));
    }

    #[test]
    fn cost_model_ordering() {
        let e = ext_cost_model(20_000, &[1.0, 5.0, 20.0], 2, 5);
        let get = |name: &str| e.series.iter().find(|s| s.label == name).unwrap();
        for i in 0..3 {
            let ratio = get("AD").points[i].0;
            let ad = get("AD").points[i].1;
            let scan = get("scan").points[i].1;
            let ig = get("IGrid").points[i].1;
            // AD wins at every ratio.
            assert!(ad < scan, "ratio {ratio}: AD {ad} !< scan {scan}");
            assert!(ad < ig, "ratio {ratio}: AD {ad} !< IGrid {ig}");
            // The paper's scan < IGrid ordering needs seeks to actually
            // cost something; it must hold from ratio 5 up.
            if ratio >= 5.0 {
                assert!(scan < ig, "ratio {ratio}: scan {scan} !< IGrid {ig}");
            }
        }
        // At ratio 1 (seeks free) IGrid's smaller accessed volume wins over
        // the scan — the crossover Ext-2 exists to expose.
        let scan1 = get("scan").points[0].1;
        let ig1 = get("IGrid").points[0].1;
        assert!(
            ig1 < scan1,
            "free seeks should favour IGrid: {ig1} vs {scan1}"
        );
    }

    #[test]
    fn va_bits_tradeoff() {
        let e = ext_va_bits(4000, &[2, 4, 8], 2, 5);
        let r: Vec<f64> = e.refined.points.iter().map(|p| p.1).collect();
        assert!(
            r[0] >= r[1] && r[1] >= r[2],
            "coarser bits refine more: {r:?}"
        );
        let s: Vec<f64> = e.size_pct.points.iter().map(|p| p.1).collect();
        assert!(
            s[0] <= s[1] && s[1] <= s[2],
            "finer bits cost more space: {s:?}"
        );
    }
}

/// Ext-4: related-work head-to-head — class-stripping accuracy of kNN,
/// MEDRANK (rank aggregation, \[12\]), IGrid and the frequent k-n-match on
/// the five UCI stand-ins.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtMethods {
    /// `(dataset, d, knn, medrank, igrid, frequent)` rows.
    pub rows: Vec<(String, usize, f64, f64, f64, f64)>,
}

/// Runs Ext-4 with the Table 4 protocol at `queries` queries.
pub fn ext_methods(seed: u64, queries: usize) -> ExtMethods {
    use crate::class_strip::{accuracy_for_queries, sample_queries, ClassStripConfig};
    use crate::methods::{FrequentKnMatchMethod, KnnMethod, MedrankMethod, PrebuiltIGrid};
    let cfg = ClassStripConfig {
        queries,
        k: 20,
        seed,
    };
    let rows = knmatch_data::uci_standins()
        .iter()
        .map(|standin| {
            let lds = standin.generate(seed ^ standin.dims as u64);
            let qids = sample_queries(&lds, &cfg);
            let igrid = PrebuiltIGrid::new(&lds.data);
            (
                standin.name.to_string(),
                standin.dims,
                accuracy_for_queries(&lds, &KnnMethod, cfg.k, &qids),
                accuracy_for_queries(&lds, &MedrankMethod, cfg.k, &qids),
                accuracy_for_queries(&lds, &igrid, cfg.k, &qids),
                accuracy_for_queries(
                    &lds,
                    &FrequentKnMatchMethod {
                        n0: 1,
                        n1: standin.dims,
                    },
                    cfg.k,
                    &qids,
                ),
            )
        })
        .collect();
    ExtMethods { rows }
}

impl std::fmt::Display for ExtMethods {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = crate::report::Table::new(
            "Ext-4: class-stripping accuracy — kNN / MEDRANK / IGrid / freq. k-n-match",
            &["data set (d)", "kNN", "MEDRANK", "IGrid", "Freq. k-n-match"],
        );
        for (name, d, knn, mr, ig, fq) in &self.rows {
            t.push(vec![
                format!("{name} ({d})"),
                crate::report::pct(*knn),
                crate::report::pct(*mr),
                crate::report::pct(*ig),
                crate::report::pct(*fq),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Ext-5: how densely must the frequent range be sampled? Counting
/// appearances over every s-th n in `[1, d]` (stride s) leaves the AD cost
/// unchanged (Theorem 3.3 depends only on n1); this sweep shows the
/// accuracy is stride-robust — evidence for the paper's claim that the
/// frequent query "is not sensitive to the choice of n".
#[derive(Debug, Clone, PartialEq)]
pub struct ExtStride {
    /// One accuracy curve per dataset over the stride grid.
    pub series: Vec<Series>,
}

/// Runs Ext-5 over `strides` with the Table 4 protocol.
pub fn ext_stride(seed: u64, queries: usize, strides: &[usize]) -> ExtStride {
    use crate::class_strip::{accuracy_for_queries, sample_queries, ClassStripConfig};
    use crate::methods::SimilarityMethod;

    /// Frequent k-n-match counting only every `stride`-th n.
    struct Strided {
        stride: usize,
    }
    impl SimilarityMethod for Strided {
        fn name(&self) -> String {
            format!("stride {}", self.stride)
        }
        fn top_k(
            &self,
            ds: &knmatch_core::Dataset,
            query: &[f64],
            k: usize,
        ) -> knmatch_core::Result<Vec<knmatch_core::PointId>> {
            let d = ds.dims();
            let full = knmatch_core::frequent_k_n_match_scan(ds, query, k, 1, d)?;
            let levels = full
                .per_n
                .into_iter()
                .filter(|r| (r.n - 1) % self.stride == 0)
                .collect();
            Ok(knmatch_core::FrequentResult::from_levels((1, d), levels, k).ids())
        }
    }

    let cfg = ClassStripConfig {
        queries,
        k: 20,
        seed,
    };
    let series = knmatch_data::uci_standins()
        .iter()
        .filter(|s| matches!(s.name, "ionosphere" | "segmentation" | "wdbc"))
        .map(|standin| {
            let lds = standin.generate(seed ^ standin.dims as u64);
            let qids = sample_queries(&lds, &cfg);
            let points = strides
                .iter()
                .map(|&s| {
                    (
                        s as f64,
                        accuracy_for_queries(&lds, &Strided { stride: s }, cfg.k, &qids),
                    )
                })
                .collect();
            Series::new(standin.name, points)
        })
        .collect();
    ExtStride { series }
}

impl std::fmt::Display for ExtStride {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}",
            render_figure(
                "Ext-5: accuracy vs frequent-range sampling stride (n in [1, d])",
                "stride",
                &self.series
            )
        )
    }
}

#[cfg(test)]
mod ext45_tests {
    use super::*;

    #[test]
    fn methods_comparison_shape() {
        let e = ext_methods(3, 15);
        assert_eq!(e.rows.len(), 5);
        for (name, d, knn, mr, ig, fq) in &e.rows {
            for v in [knn, mr, ig, fq] {
                assert!((0.0..=1.0).contains(v), "{name}: {v}");
            }
            // The exact matching-based method should not lose badly to the
            // rank-aggregation approximation on high-d noisy data.
            if *d >= 15 {
                assert!(fq + 0.02 >= *mr, "{name}: freq {fq} vs MEDRANK {mr}");
            }
        }
        assert!(e.to_string().contains("MEDRANK"));
    }

    #[test]
    fn stride_robustness() {
        let e = ext_stride(3, 12, &[1, 2, 4]);
        assert_eq!(e.series.len(), 3);
        for s in &e.series {
            let base = s.points[0].1;
            for &(stride, acc) in &s.points {
                assert!(
                    acc >= base - 0.08,
                    "{}: stride {stride} accuracy {acc} collapsed from {base}",
                    s.label
                );
            }
        }
    }
}

/// Ext-6: IGrid range-count ablation — accuracy and accessed fraction as
/// the per-dimension range count `kd` varies around the paper's `d/2`
/// default. More ranges = less data touched but fewer proximity matches:
/// the accuracy/cost trade-off behind the "accessed data size is 2/d"
/// analysis the paper quotes from \[6\].
#[derive(Debug, Clone, PartialEq)]
pub struct ExtIGridBins {
    /// `(kd, accuracy)` on the ionosphere stand-in.
    pub accuracy: Series,
    /// `(kd, accessed % of attributes)`.
    pub accessed: Series,
}

/// Runs Ext-6 over `bin_counts` with the Table 4 protocol.
pub fn ext_igrid_bins(seed: u64, queries: usize, bin_counts: &[usize]) -> ExtIGridBins {
    use crate::class_strip::{accuracy_for_queries, sample_queries, ClassStripConfig};
    use crate::methods::SimilarityMethod;
    use knmatch_igrid::IGridIndex;

    struct WithBins {
        bins: usize,
    }
    impl SimilarityMethod for WithBins {
        fn name(&self) -> String {
            format!("IGrid kd={}", self.bins)
        }
        fn top_k(
            &self,
            ds: &knmatch_core::Dataset,
            query: &[f64],
            k: usize,
        ) -> knmatch_core::Result<Vec<knmatch_core::PointId>> {
            let idx = IGridIndex::build_with(ds, self.bins, 2.0);
            Ok(idx.query(query, k)?.into_iter().map(|a| a.pid).collect())
        }
    }

    let cfg = ClassStripConfig {
        queries,
        k: 20,
        seed,
    };
    let standin = knmatch_data::uci_standins()
        .into_iter()
        .find(|s| s.name == "ionosphere")
        .expect("ionosphere stand-in exists");
    let lds = standin.generate(seed ^ standin.dims as u64);
    let qids = sample_queries(&lds, &cfg);
    let total = (lds.data.len() * lds.data.dims()) as f64;

    let mut accuracy = Vec::new();
    let mut accessed = Vec::new();
    for &bins in bin_counts {
        let acc = accuracy_for_queries(&lds, &WithBins { bins }, cfg.k, &qids);
        accuracy.push((bins as f64, acc));
        let idx = IGridIndex::build_with(&lds.data, bins, 2.0);
        let mut touched = 0u64;
        for &qid in &qids {
            let (_, t) = idx
                .query_with_stats(lds.data.point(qid), cfg.k)
                .expect("valid");
            touched += t;
        }
        accessed.push((
            bins as f64,
            100.0 * touched as f64 / (qids.len() as f64 * total),
        ));
    }
    ExtIGridBins {
        accuracy: Series::new("accuracy", accuracy),
        accessed: Series::new("accessed %", accessed),
    }
}

impl std::fmt::Display for ExtIGridBins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}",
            render_figure(
                "Ext-6: IGrid accuracy vs ranges per dimension (ionosphere)",
                "kd",
                std::slice::from_ref(&self.accuracy)
            )
        )?;
        write!(
            f,
            "{}",
            render_figure(
                "Ext-6: IGrid accessed attributes (%) vs ranges per dimension",
                "kd",
                std::slice::from_ref(&self.accessed)
            )
        )
    }
}

#[cfg(test)]
mod ext6_tests {
    use super::*;

    #[test]
    fn accessed_fraction_shrinks_with_bins() {
        let e = ext_igrid_bins(3, 10, &[2, 8, 32]);
        let acc: Vec<f64> = e.accessed.points.iter().map(|p| p.1).collect();
        assert!(acc[0] > acc[1] && acc[1] > acc[2], "{acc:?}");
        // 1/kd within rounding of the measured fraction.
        for (i, &bins) in [2usize, 8, 32].iter().enumerate() {
            let expected = 100.0 / bins as f64;
            assert!(
                (acc[i] - expected).abs() < expected * 0.5,
                "kd={bins}: measured {} vs ~{expected}",
                acc[i]
            );
        }
        for &(_, a) in &e.accuracy.points {
            assert!((0.0..=1.0).contains(&a));
        }
    }
}
