//! A cost-based access-path choice: AD algorithm or sequential scan.
//!
//! Figure 12 of the paper shows the crossover this planner navigates: the
//! AD algorithm's cost grows with `n1` (and with k), and near `n1 = d` on
//! uniform data it approaches — and can exceed — the scan's. A system
//! should therefore *estimate* the AD cost before committing. The
//! estimator samples a few points, computes their n1-match differences to
//! the query, estimates the answer threshold ε as the appropriate sample
//! quantile, and from it the attribute volume AD would retrieve (the
//! attributes within ε of the query in each dimension, counted via the
//! column fences at page granularity). Both plans are then priced with the
//! pool's [`CostModel`] and the cheaper one runs.

use knmatch_core::{sorted_differences_with_buf, FrequentResult, Result};

use crate::buffer::CostModel;
use crate::db::{DiskDatabase, DiskQueryOutcome};
use crate::page::COLUMN_ENTRIES_PER_PAGE;
use crate::shared_pool::ReadSession;
use crate::store::SharedPageStore;

/// Which access path the planner chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// The disk-based AD algorithm.
    Ad,
    /// The sequential heap-file scan.
    Scan,
}

/// The planner's decision with its cost estimates (milliseconds under the
/// supplied [`CostModel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanChoice {
    /// The chosen path.
    pub plan: Plan,
    /// Estimated AD response time.
    pub ad_estimate_ms: f64,
    /// Estimated (exact, in pages) scan response time.
    pub scan_estimate_ms: f64,
    /// The ε estimated from the sample (the k-th smallest n1-match
    /// difference, extrapolated).
    pub estimated_epsilon: f64,
}

/// How many points the estimator samples (evenly spaced by pid; reading
/// them costs a handful of heap pages, which
/// [`DiskDatabase::frequent_k_n_match_auto`] charges to the query on top
/// of the chosen plan's I/O).
pub const PLANNER_SAMPLE: usize = 64;

impl<S: SharedPageStore> DiskDatabase<S> {
    /// Estimates both plans for a frequent k-n-match query and returns the
    /// choice without running it.
    ///
    /// # Errors
    ///
    /// Validates parameters like the query itself;
    /// [`knmatch_core::KnMatchError::Storage`] when a sample read fails.
    pub fn plan_frequent_k_n_match(
        &self,
        query: &[f64],
        k: usize,
        n0: usize,
        n1: usize,
        model: CostModel,
    ) -> Result<PlanChoice> {
        self.plan_sampled(&mut self.session(), query, k, n0, n1, model)
    }

    /// [`plan_frequent_k_n_match`](Self::plan_frequent_k_n_match) with the
    /// sample's heap reads booked in `session`.
    fn plan_sampled(
        &self,
        session: &mut ReadSession,
        query: &[f64],
        k: usize,
        n0: usize,
        n1: usize,
        model: CostModel,
    ) -> Result<PlanChoice> {
        knmatch_core::ad::validate_params(query, self.dims(), self.len(), k, n0, n1)?;
        let c = self.len();
        let d = self.dims();

        // Sample evenly spaced points and collect their n1-match diffs.
        let sample_n = PLANNER_SAMPLE.min(c);
        let step = (c / sample_n).max(1);
        let mut diffs: Vec<f64> = Vec::with_capacity(sample_n);
        let mut buf = Vec::with_capacity(d);
        let heap = self.heap();
        let mut row = vec![0.0f64; d];
        for i in 0..sample_n {
            let pid = ((i * step) % c) as u32;
            heap.point(self.pool(), session, pid, &mut row)?;
            sorted_differences_with_buf(&row, query, &mut buf);
            diffs.push(buf[n1 - 1]);
        }
        diffs.sort_unstable_by(f64::total_cmp);
        // ε ≈ the q-th quantile of n1-match differences with q = k / c,
        // read off the sample (clamped to its smallest observation when the
        // quantile falls below the sample's resolution).
        let q = k as f64 / c as f64;
        let idx = ((q * sample_n as f64).ceil() as usize).clamp(1, sample_n) - 1;
        let eps = diffs[idx];

        // AD retrieves, per dimension, the attributes within ε of the query
        // value. Count them at page granularity with the in-memory fences
        // (no extra I/O).
        let columns = self.columns().clone();
        let mut pages_ad = 0u64;
        for (dim, &qv) in query.iter().enumerate() {
            let lo = columns.locate_fences_only(dim, qv - eps);
            let hi = columns.locate_fences_only(dim, qv + eps);
            let entries = hi.saturating_sub(lo).max(1);
            pages_ad += (entries as u64).div_ceil(COLUMN_ENTRIES_PER_PAGE as u64) + 1;
        }
        // AD's walks are sequential within a dimension; charge one seek per
        // cursor pair plus streamed pages.
        let ad_ms = d as f64 * model.random_ms
            + pages_ad.saturating_sub(d as u64) as f64 * model.sequential_ms;
        let scan_pages = self.heap().total_pages() as f64;
        let scan_ms = model.random_ms + (scan_pages - 1.0).max(0.0) * model.sequential_ms;

        Ok(PlanChoice {
            plan: if ad_ms <= scan_ms {
                Plan::Ad
            } else {
                Plan::Scan
            },
            ad_estimate_ms: ad_ms,
            scan_estimate_ms: scan_ms,
            estimated_epsilon: eps,
        })
    }

    /// Plans and runs a frequent k-n-match query on the cheaper path.
    /// Returns the answer (identical either way), the I/O it cost, and the
    /// plan taken. The I/O is the planner's sample reads plus the chosen
    /// plan's own cold-pool I/O: the sample neither hides from the bill
    /// nor warms the plan's pages.
    ///
    /// # Errors
    ///
    /// As [`plan_frequent_k_n_match`](Self::plan_frequent_k_n_match).
    pub fn frequent_k_n_match_auto(
        &self,
        query: &[f64],
        k: usize,
        n0: usize,
        n1: usize,
        model: CostModel,
    ) -> Result<(DiskQueryOutcome<FrequentResult>, PlanChoice)> {
        let mut sample = self.session();
        let choice = self.plan_sampled(&mut sample, query, k, n0, n1, model)?;
        let mut out = match choice.plan {
            Plan::Ad => self.frequent_k_n_match(query, k, n0, n1)?,
            Plan::Scan => self.scan_frequent_k_n_match(query, k, n0, n1)?,
        };
        out.io.merge(sample.stats());
        Ok((out, choice))
    }
}

/// Which in-memory backend the request-time planner chose for one query.
///
/// This is the live, per-batch-element counterpart of the disk planner's
/// [`Plan`]: the server's planned engine evaluates [`plan_in_memory`] for
/// every query and dispatches to the winner. All three backends answer
/// exactly, so the choice changes cost, never answers.
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
/// [`MemPlanChoice`] reads as predicted wall-clock per query.
///
/// Every backend is priced linearly in the work it does: AD per attribute
/// its frontier retrieves, the scan per attribute it differences, the
/// VA-file per quantised cell its filter compares plus per attribute it
/// refines. The defaults are the constants `planner_crossover` fits over
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
    /// ns per attribute the full scan differences (the counting refine
    /// loop over every point, `c × d` attributes).
    pub scan_ns_per_attr: f64,
    /// ns per (point, dimension) byte compare of the band filter, the
    /// candidate extraction pass included.
    pub filter_ns_per_cell: f64,
    /// ns per attribute refined after the filter (a gather of candidate
    /// rows into the same counting loop the scan runs).
    pub refine_ns_per_attr: f64,
}

impl Default for MemCostModel {
    fn default() -> Self {
        MemCostModel {
            ad_ns_per_attr: 23.3,
            scan_ns_per_attr: 0.70,
            filter_ns_per_cell: 0.20,
            refine_ns_per_attr: 1.9,
        }
    }
}

/// Per-query quantities the in-memory model prices. The caller measures
/// them cheaply at request time: `ad_attrs` from the sorted columns at
/// `q ± ε_q` (two binary searches per dimension), `candidate_fraction`
/// from the band filter at `τ = ε̂` over a small sample.
///
/// `ε̂` and `ε_q` are two order statistics of one sample of n-match
/// differences (n1 for a frequent query): `ε̂`, the sample's k-th, bounds
/// the true k-th from above and is what the VA filter must use; `ε_q`,
/// the sample's `k/c`-quantile, *estimates* it, which is what AD's
/// frontier actually reaches. For an ε-n-match query both are `ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPlanInputs {
    /// Dataset cardinality.
    pub cardinality: usize,
    /// Dataset dimensionality.
    pub dims: usize,
    /// Estimated attributes the AD algorithm would retrieve before
    /// completing (all dimensions combined).
    pub ad_attrs: u64,
    /// Estimated fraction of points surviving the band filter (phase-two
    /// volume of the VA-file path), in `[0, 1]`.
    pub candidate_fraction: f64,
}

/// The in-memory planner's decision with the three cost estimates
/// (nanoseconds under the [`MemCostModel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPlanChoice {
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
pub fn plan_in_memory(inputs: &MemPlanInputs, model: &MemCostModel) -> MemPlanChoice {
    let attrs = inputs.cardinality as f64 * inputs.dims as f64;
    let ad_cost = inputs.ad_attrs as f64 * model.ad_ns_per_attr;
    let scan_cost = attrs * model.scan_ns_per_attr;
    let vafile_cost = attrs * model.filter_ns_per_cell
        + inputs.candidate_fraction.clamp(0.0, 1.0) * attrs * model.refine_ns_per_attr;
    let backend = if ad_cost <= vafile_cost && ad_cost <= scan_cost {
        BackendChoice::Ad
    } else if vafile_cost <= scan_cost {
        BackendChoice::VaFile
    } else {
        BackendChoice::Scan
    };
    MemPlanChoice {
        backend,
        ad_cost,
        vafile_cost,
        scan_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use knmatch_core::Dataset;

    fn uniformish(c: usize, d: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * 31 + j * 17) as f64 * 0.6180339887) % 1.0)
                    .collect()
            })
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn planner_prefers_ad_for_small_n1_and_scan_near_d() {
        // Genuinely uniform data: near n1 = d the answer threshold ε is
        // large (Figure 12's crossover), so the scan must win there. (The
        // lattice-like `uniformish` data is full of near-duplicates and AD
        // legitimately wins at every n1 on it.)
        let ds = knmatch_data::uniform(20_000, 16, 7);
        let db = DiskDatabase::<MemStore>::build_in_memory(&ds, 256);
        let q = ds.point(5).to_vec();
        let model = CostModel::default();
        let small = db.plan_frequent_k_n_match(&q, 20, 4, 6, model).unwrap();
        assert_eq!(small.plan, Plan::Ad, "{small:?}");
        let large = db.plan_frequent_k_n_match(&q, 20, 4, 16, model).unwrap();
        assert_eq!(large.plan, Plan::Scan, "{large:?}");
        assert!(large.estimated_epsilon > small.estimated_epsilon);
    }

    #[test]
    fn auto_runs_the_chosen_plan_and_answers_exactly() {
        let ds = uniformish(5_000, 8);
        let db = DiskDatabase::<MemStore>::build_in_memory(&ds, 256);
        let q = ds.point(77).to_vec();
        let model = CostModel::default();
        for (n0, n1) in [(2usize, 4usize), (4, 8)] {
            let (out, choice) = db.frequent_k_n_match_auto(&q, 10, n0, n1, model).unwrap();
            let oracle = knmatch_core::frequent_k_n_match_scan(&ds, &q, 10, n0, n1).unwrap();
            assert_eq!(out.result.ids(), oracle.ids(), "plan {:?}", choice.plan);
        }
    }

    #[test]
    fn auto_charges_its_sample_on_top_of_the_cold_plan() {
        // The sample's heap reads are part of an `auto` query's bill, and
        // they must not warm the plan's pages.
        let ds = knmatch_data::uniform(20_000, 16, 7);
        let db = DiskDatabase::<MemStore>::build_in_memory(&ds, 256);
        let q = ds.point(5).to_vec();
        let model = CostModel::default();
        for (n0, n1, plan) in [(4usize, 6usize, Plan::Ad), (4, 16, Plan::Scan)] {
            let (auto, choice) = db.frequent_k_n_match_auto(&q, 20, n0, n1, model).unwrap();
            assert_eq!(choice.plan, plan, "{choice:?}");
            let forced = match plan {
                Plan::Ad => db.frequent_k_n_match(&q, 20, n0, n1).unwrap(),
                Plan::Scan => db.scan_frequent_k_n_match(&q, 20, n0, n1).unwrap(),
            };
            assert_eq!(auto.result, forced.result, "{plan:?}");
            assert!(
                auto.io.page_accesses() > forced.io.page_accesses(),
                "{plan:?}: auto {:?} must cost more than forced {:?}",
                auto.io,
                forced.io
            );
            // The plan's reads are unchanged (the sample neither warmed
            // nor broke its sequential run); the sample adds only seeks.
            assert_eq!(auto.io.sequential_reads, forced.io.sequential_reads);
            let sample = auto.io.random_reads - forced.io.random_reads;
            assert_eq!(auto.io.page_accesses(), forced.io.page_accesses() + sample);
            assert!(
                sample as usize <= PLANNER_SAMPLE,
                "{plan:?}: {sample} sample pages"
            );
        }
    }

    #[test]
    fn estimates_are_positive_and_ordered_sanely() {
        let ds = uniformish(3_000, 6);
        let db = DiskDatabase::<MemStore>::build_in_memory(&ds, 64);
        let q = ds.point(1).to_vec();
        let choice = db
            .plan_frequent_k_n_match(&q, 5, 2, 4, CostModel::default())
            .unwrap();
        assert!(choice.ad_estimate_ms > 0.0);
        assert!(choice.scan_estimate_ms > 0.0);
        assert!(choice.estimated_epsilon > 0.0);
    }

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
        // Filter keeps everything too → the plain scan is cheapest.
        let scan = MemPlanInputs {
            candidate_fraction: 1.0,
            ..va
        };
        assert_eq!(plan_in_memory(&scan, &model).backend, BackendChoice::Scan);
        // Every cost is its units times its ns constant: linear in its
        // own units, blind to the others.
        let c = plan_in_memory(&base, &model);
        assert_eq!(c.ad_cost, 400.0 * model.ad_ns_per_attr);
        assert_eq!(c.scan_cost, 80_000.0 * model.scan_ns_per_attr);
        assert_eq!(
            c.vafile_cost,
            80_000.0 * model.filter_ns_per_cell + 0.05 * 80_000.0 * model.refine_ns_per_attr
        );
        let c2 = plan_in_memory(&va, &model);
        assert_eq!(c2.ad_cost, 10.0 * c.ad_cost);
        assert_eq!((c2.scan_cost, c2.vafile_cost), (c.scan_cost, c.vafile_cost));
    }

    #[test]
    fn in_memory_model_breaks_ties_toward_ad() {
        // One ns per unit everywhere, and inputs that make all three
        // estimates 1 µs.
        let model = MemCostModel {
            ad_ns_per_attr: 1.0,
            scan_ns_per_attr: 1.0,
            filter_ns_per_cell: 0.5,
            refine_ns_per_attr: 0.5,
        };
        let inputs = MemPlanInputs {
            cardinality: 100,
            dims: 10,
            ad_attrs: 1_000,
            candidate_fraction: 1.0,
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

    #[test]
    fn validates_parameters() {
        let ds = uniformish(100, 4);
        let db = DiskDatabase::<MemStore>::build_in_memory(&ds, 16);
        let model = CostModel::default();
        assert!(db
            .plan_frequent_k_n_match(&[0.0; 3], 5, 1, 4, model)
            .is_err());
        assert!(db
            .plan_frequent_k_n_match(&[0.0; 4], 0, 1, 4, model)
            .is_err());
        assert!(db
            .plan_frequent_k_n_match(&[0.0; 4], 5, 3, 2, model)
            .is_err());
    }
}
