//! The in-memory cost model: AD, VA-file or scan, priced per query.
//!
//! Figure 12 of the paper shows the crossover this model navigates: the
//! AD algorithm's cost grows with `n1` (and with k), and near `n1 = d` on
//! uniform data it approaches — and can exceed — the scan's, with the
//! VA-file's filter-and-refine in between. The server's planned engine
//! measures each query's inputs ([`MemPlanInputs`]), prices the three
//! exact backends with [`plan_in_memory`] under a [`MemCostModel`], and
//! runs the cheapest. Every backend answers exactly, so the choice
//! changes cost, never answers.

/// Which in-memory backend the request-time planner chose for one query.
///
/// The server's planned engine evaluates [`plan_in_memory`] for every
/// query and dispatches to the winner. All three backends answer exactly,
/// so the choice changes cost, never answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// The AD algorithm over sorted columns.
    Ad,
    /// The VA-file band filter plus exact refine.
    VaFile,
    /// The kernel-unrolled full scan.
    Scan,
}

/// Per-unit costs of the in-memory backends in **nanoseconds**, so a
/// [`MemPlan`] reads as predicted wall-clock per query.
///
/// Every backend is priced linearly in the work it does: AD per attribute
/// its frontier retrieves, the VA-file per quantised cell its filter
/// compares plus per attribute it refines, and the scan per attribute it
/// differences. The scan and the VA refine run the same counting loop in
/// the same pid order, so the points the filter keeps cost the scan what
/// they cost the VA refine; the rest fail the scan's counting test at a
/// fraction of that price. The defaults are the constants `planner_crossover` fits over
/// its d × n × kind grid (it writes them into `BENCH_planner.json` under
/// `fitted_model`), measured on a 2-vCPU x86-64 (Xeon) cloud VM at
/// c = 20 000 — the host every committed `BENCH_*.json` comes from. Only
/// their ratios route, so a host that is uniformly faster or slower plans
/// the same; rerun the bench where the ratios may differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemCostModel {
    /// ns per attribute the AD frontier retrieves (one tree replay, the
    /// cursor advance, the appearance bookkeeping).
    pub ad_ns_per_attr: f64,
    /// ns per attribute the full scan differences and rejects: a point
    /// outside the VA filter's candidates fails the scan's counting test
    /// before any selection.
    pub scan_ns_per_attr: f64,
    /// ns per (point, dimension) byte compare of the band filter, the
    /// candidate extraction pass included.
    pub filter_ns_per_cell: f64,
    /// ns per attribute of a point the VA filter keeps, in the VA refine
    /// (a gather of candidate rows) and in the scan alike: the counting
    /// loop, and the selection and top-k offer a near point pays. At
    /// least `scan_ns_per_attr`, so no backend's price falls as the
    /// candidate fraction grows.
    pub refine_ns_per_attr: f64,
}

impl Default for MemCostModel {
    fn default() -> Self {
        MemCostModel {
            ad_ns_per_attr: 21.9,
            scan_ns_per_attr: 0.65,
            filter_ns_per_cell: 0.22,
            refine_ns_per_attr: 2.3,
        }
    }
}

/// Per-query quantities the in-memory model prices. The caller measures
/// them cheaply at request time: `ad_attrs` from the sorted columns at
/// `q ± ε_q` (two binary searches per dimension), `candidate_fraction`
/// from the band filter at `τ = ε_q` over a small sample.
///
/// `ε_q`, the `k/c`-quantile of one sample of n-match differences (n1 for
/// a frequent query), *estimates* the true k-th difference: what AD's
/// frontier reaches, and what the VA filter's running bound closes in on.
/// For an ε-n-match query it is `ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPlanInputs {
    /// Dataset cardinality.
    pub cardinality: usize,
    /// Dataset dimensionality.
    pub dims: usize,
    /// Estimated attributes the AD algorithm would retrieve before
    /// completing (all dimensions combined).
    pub ad_attrs: u64,
    /// Estimated fraction of points the band filter keeps, in `[0, 1]`:
    /// the VA refine's volume, and the points that cost the scan the
    /// refine price.
    pub candidate_fraction: f64,
}

/// The in-memory planner's decision with the three cost estimates
/// (nanoseconds under the [`MemCostModel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPlan {
    /// The cheapest backend (ties break AD → VA-file → scan, the order in
    /// which estimation error is least harmful).
    pub backend: BackendChoice,
    /// Estimated AD cost.
    pub ad_cost: f64,
    /// Estimated VA-file filter-plus-refine cost.
    pub vafile_cost: f64,
    /// Estimated full-scan cost.
    pub scan_cost: f64,
}

/// Prices the three in-memory backends for one query and returns the
/// cheapest — the Figure 12 crossover, evaluated live per batch element.
pub fn plan_in_memory(inputs: &MemPlanInputs, model: &MemCostModel) -> MemPlan {
    let attrs = inputs.cardinality as f64 * inputs.dims as f64;
    let kept = inputs.candidate_fraction.clamp(0.0, 1.0);
    let refine = kept * attrs * model.refine_ns_per_attr;
    let ad_cost = inputs.ad_attrs as f64 * model.ad_ns_per_attr;
    let scan_cost = (1.0 - kept) * attrs * model.scan_ns_per_attr + refine;
    let vafile_cost = attrs * model.filter_ns_per_cell + refine;
    let backend = if ad_cost <= vafile_cost && ad_cost <= scan_cost {
        BackendChoice::Ad
    } else if vafile_cost <= scan_cost {
        BackendChoice::VaFile
    } else {
        BackendChoice::Scan
    };
    MemPlan {
        backend,
        ad_cost,
        vafile_cost,
        scan_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_model_tracks_its_inputs() {
        let model = MemCostModel::default();
        // 80 000 attributes: the scan's and the filter's work is fixed,
        // AD's and the refine's follow the estimates.
        let base = MemPlanInputs {
            cardinality: 10_000,
            dims: 8,
            ad_attrs: 400,
            candidate_fraction: 0.05,
        };
        // A narrow frontier → AD wins.
        assert_eq!(plan_in_memory(&base, &model).backend, BackendChoice::Ad);
        // AD's frontier ten times wider, filter selective → VA-file.
        let va = MemPlanInputs {
            ad_attrs: 4_000,
            ..base
        };
        assert_eq!(plan_in_memory(&va, &model).backend, BackendChoice::VaFile);
        // AD's frontier a hundred times wider and the filter keeping
        // everything → the plain scan is cheapest.
        let scan = MemPlanInputs {
            ad_attrs: 40_000,
            candidate_fraction: 1.0,
            ..va
        };
        assert_eq!(plan_in_memory(&scan, &model).backend, BackendChoice::Scan);
        // Every cost is its units times its ns constant: linear in its
        // own units, blind to the others. The filter's candidates cost the
        // scan what they cost the VA refine.
        let c = plan_in_memory(&base, &model);
        let refine = 0.05 * 80_000.0 * model.refine_ns_per_attr;
        assert_eq!(c.ad_cost, 400.0 * model.ad_ns_per_attr);
        assert_eq!(
            c.scan_cost,
            0.95 * 80_000.0 * model.scan_ns_per_attr + refine
        );
        assert_eq!(c.vafile_cost, 80_000.0 * model.filter_ns_per_cell + refine);
        let c2 = plan_in_memory(&va, &model);
        assert_eq!(c2.ad_cost, 10.0 * c.ad_cost);
        assert_eq!((c2.scan_cost, c2.vafile_cost), (c.scan_cost, c.vafile_cost));
    }

    #[test]
    fn in_memory_model_breaks_ties_toward_ad() {
        // One ns per unit everywhere but the filter, and inputs that make
        // all three estimates 1 µs.
        let model = MemCostModel {
            ad_ns_per_attr: 1.0,
            scan_ns_per_attr: 1.0,
            filter_ns_per_cell: 0.5,
            refine_ns_per_attr: 1.0,
        };
        let inputs = MemPlanInputs {
            cardinality: 100,
            dims: 10,
            ad_attrs: 1_000,
            candidate_fraction: 0.5,
        };
        let choice = plan_in_memory(&inputs, &model);
        assert_eq!(choice.ad_cost, 1_000.0);
        assert_eq!(choice.vafile_cost, choice.scan_cost);
        assert_eq!(choice.ad_cost, choice.scan_cost);
        assert_eq!(choice.backend, BackendChoice::Ad);
        // With AD out of the race the VA-file wins its tie with the scan.
        let wide = MemPlanInputs {
            ad_attrs: 1_001,
            ..inputs
        };
        assert_eq!(plan_in_memory(&wide, &model).backend, BackendChoice::VaFile);
    }
}
