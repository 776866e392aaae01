//! The cost-based per-query planner backend (DESIGN.md §12).
//!
//! [`PlannedEngine`] holds the paper's three exact in-memory methods at
//! once — the AD algorithm over sorted columns, the VA-file
//! filter-and-refine backend and the kernel-loop scan — and routes
//! **each query of a batch** to one of them. With
//! [`PlannerMode::Auto`] the route comes from the in-memory cost model
//! ([`plan_in_memory`]), which reproduces the paper's Figure 12 crossover
//! live per request: AD wins at small `n`, the filter backends in the
//! middle, and the plain scan as `n1` approaches `d`. The forced modes
//! (`ad`, `vafile`, `scan`) pin one backend for experiments. The backends
//! answer one query each; batching, deadlines, fail-fast and panic
//! isolation are the shared batch loop ([`Park::run`]), which keeps each
//! worker's AD and filter scratch between batches.
//!
//! Every backend answers the exact query kinds bit-identically to the
//! sequential oracle, so planning changes cost, never answers — the
//! property the randomized cross-check suite pins down.
//!
//! Routing decisions are tallied into a [`PlanTally`] surfaced through
//! [`BatchEngine::plan_counts`] and the server's `STATS` verb.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use knmatch_core::{
    execute_batch_query, AdStats, BandEngine, BatchAnswer, BatchEngine, BatchOptions, BatchQuery,
    Dataset, FilterScratch, Park, PlanTally, PlannerMode, Result as CoreResult, SampledThresholds,
    ScanEngine, Scratch, SortedAccessSource, SortedColumns,
};
use knmatch_storage::{plan_in_memory, BackendChoice, MemCostModel, MemPlan, MemPlanInputs};
use knmatch_vafile::va_engine;

/// Points sampled by the planner's candidate-fraction probe (a strided
/// dry-run of the VA filter; cheap relative to any backend's full pass).
pub const PLAN_FRACTION_SAMPLE: usize = 256;

/// Per-worker working memory for planned queries: the AD scratch and the
/// filter scratch side by side, kept together between batches.
type PlanScratch = (Scratch, FilterScratch);

/// A [`BatchEngine`] that picks AD, VA-file, or scan per query at request
/// time (see the module docs). Build it once per dataset; it shares one
/// [`Dataset`] across its three backends and adds only the VA-file's
/// quantised cell array and the sorted columns on top.
#[derive(Debug)]
pub struct PlannedEngine {
    data: Arc<Dataset>,
    cols: Arc<SortedColumns>,
    /// The VA-file: equi-width byte cells.
    va: BandEngine,
    scan: ScanEngine,
    workers: usize,
    default_mode: PlannerMode,
    model: MemCostModel,
    tally_ad: AtomicU64,
    tally_vafile: AtomicU64,
    tally_scan: AtomicU64,
    park: Park<PlanScratch>,
}

impl PlannedEngine {
    /// A planner over `ds` with one batch worker per available CPU and the
    /// `auto` mode as the per-connection default.
    pub fn new(ds: &Dataset) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(ds, workers, PlannerMode::Auto)
    }

    /// A planner with an explicit worker count (clamped to ≥ 1) and
    /// default mode. The backends run one query at a time on the batch
    /// workers' threads — parallelism lives in the batch loop.
    pub fn with_workers(ds: &Dataset, workers: usize, default_mode: PlannerMode) -> Self {
        let data = Arc::new(ds.clone());
        PlannedEngine {
            cols: Arc::new(SortedColumns::build(ds)),
            va: va_engine(Arc::clone(&data)),
            scan: ScanEngine::new(Arc::clone(&data)),
            data,
            workers: workers.max(1),
            default_mode,
            model: MemCostModel::default(),
            tally_ad: AtomicU64::new(0),
            tally_vafile: AtomicU64::new(0),
            tally_scan: AtomicU64::new(0),
            park: Park::default(),
        }
    }

    /// The sorted-column organisation the AD backend (and the planner's
    /// selectivity probe) runs over.
    pub fn columns(&self) -> &Arc<SortedColumns> {
        &self.cols
    }

    /// The mode used when a batch carries no explicit override.
    pub fn default_mode(&self) -> PlannerMode {
        self.default_mode
    }

    /// The cost model consulted by [`PlannerMode::Auto`].
    pub fn cost_model(&self) -> &MemCostModel {
        &self.model
    }

    /// Prices one query against the cost model without running it:
    /// validates the parameters, then plans it as [`PlannedEngine`]'s
    /// `auto` mode does. What is measured: from one pass over the
    /// evenly-spaced sample ([`SampledThresholds::of`]) every level's
    /// answer-threshold estimate `ε_q` (`ε` for an ε-n-match query); the
    /// sorted-column entries within `±ε_q` of the loosest level of the
    /// query per dimension (the AD frontier's work); and, unless AD has
    /// already won regardless, the VA filter's candidate fraction on a
    /// sample of points, each level at its own `ε_q`. The VA filter prunes
    /// at its running k-th bounds, which close in on the answer's
    /// thresholds, so `ε_q` prices its refine better than the sampled
    /// bounds `ε̂` its first blocks start from.
    ///
    /// Deterministic: every estimate is a pure function of the data and
    /// the query, so the same query always gets the same plan — which is
    /// what lets tests assert the tally matches re-planned predictions.
    ///
    /// # Errors
    ///
    /// The same validation every backend performs (dimension mismatch,
    /// `k`/`n` out of range, invalid `eps`) — identical errors, identical
    /// precedence, so an invalid query fails the same way whether it is
    /// planned or dispatched directly.
    pub fn plan_for(&self, query: &BatchQuery) -> CoreResult<MemPlan> {
        query.validate(self.data.dims(), self.data.len())?;
        let sampled = SampledThresholds::of(&self.data, query);
        Ok(plan_in_memory(
            &self.inputs_valid(query, &sampled),
            &self.model,
        ))
    }

    /// The quantities [`plan_in_memory`] prices for a query that has
    /// passed validation, from its thresholds `sampled` (see
    /// [`Self::plan_for`]). The candidate fraction is left at 0 — the VA
    /// filter's floor, its cell pass alone — whenever AD already beats the
    /// scan and that floor: the scan and VA prices only grow with the
    /// fraction (the model's refine price is at least its scan price), so
    /// no fraction could change the choice, and AD's cheapest queries
    /// (small n) then skip the probe's cold cell reads.
    fn inputs_valid(&self, query: &BatchQuery, sampled: &SampledThresholds) -> MemPlanInputs {
        // The loosest level's threshold covers every per-n answer set and
        // AD stops on it; the hit floor is the tightest level.
        let (q, n0) = match query {
            BatchQuery::KnMatch { query, n, .. } | BatchQuery::EpsMatch { query, n, .. } => {
                (query, *n)
            }
            BatchQuery::Frequent { query, n0, .. } => (query, *n0),
        };
        let eps_q = sampled.quantile();
        // AD's frontier pops, per dimension, the sorted entries within the
        // answer threshold of the query. Two lock-step passes of binary
        // searches count them at the estimate ε_q: the first entry at or
        // above q − ε_q, and the first above q + ε_q (the band is
        // inclusive, and no value lies between a float and its successor).
        let lo: Vec<f64> = q.iter().map(|&v| v - eps_q).collect();
        let hi: Vec<f64> = q.iter().map(|&v| (v + eps_q).next_up()).collect();
        let mut ranks = vec![0usize; q.len()];
        let mut cols = &*self.cols;
        cols.locate_each(&lo, |_, dim, rank| ranks[dim] = rank);
        let mut ad_attrs = 0u64;
        cols.locate_each(&hi, |_, dim, rank| ad_attrs += (rank - ranks[dim]) as u64);
        let mut inputs = MemPlanInputs {
            cardinality: self.data.len(),
            dims: self.data.dims(),
            ad_attrs,
            candidate_fraction: 0.0,
        };
        if plan_in_memory(&inputs, &self.model).backend != BackendChoice::Ad {
            inputs.candidate_fraction = self.va.estimate_candidate_fraction(
                q,
                &sampled.quantiles,
                n0,
                PLAN_FRACTION_SAMPLE,
            );
        }
        inputs
    }

    fn bump(&self, choice: BackendChoice) {
        match choice {
            BackendChoice::Ad => &self.tally_ad,
            BackendChoice::VaFile => &self.tally_vafile,
            BackendChoice::Scan => &self.tally_scan,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Executes one query under `mode` on the calling thread, tallying the
    /// routing decision. Forced modes tally too (the counters answer "what
    /// ran", not "what `auto` would have picked").
    fn execute(
        &self,
        query: &BatchQuery,
        mode: PlannerMode,
        scratch: &mut PlanScratch,
    ) -> CoreResult<(BatchAnswer, AdStats)> {
        // Before a routing decision is tallied: invalid queries fail
        // their slot without ever counting as a plan, in every mode.
        query.validate(self.data.dims(), self.data.len())?;
        // `auto` draws the sample once: the plan prices the query with it
        // and the VA backend, if chosen, prunes with it.
        let (choice, sampled) = match mode {
            PlannerMode::Auto => {
                let sampled = SampledThresholds::of(&self.data, query);
                let inputs = self.inputs_valid(query, &sampled);
                (plan_in_memory(&inputs, &self.model).backend, Some(sampled))
            }
            PlannerMode::Ad => (BackendChoice::Ad, None),
            PlannerMode::VaFile => (BackendChoice::VaFile, None),
            PlannerMode::Scan => (BackendChoice::Scan, None),
        };
        self.bump(choice);
        let (ad, filter) = scratch;
        match (choice, sampled) {
            // `&SortedColumns` is itself a sorted-access source.
            (BackendChoice::Ad, _) => execute_batch_query(&mut &*self.cols, query, ad),
            (BackendChoice::VaFile, Some(sampled)) => {
                self.va.execute_sampled(query, &sampled, filter)
            }
            (BackendChoice::VaFile, None) => self.va.execute(query, filter),
            (BackendChoice::Scan, _) => self.scan.execute(query, filter),
        }
    }
}

impl BatchEngine for PlannedEngine {
    type Outcome = (BatchAnswer, AdStats);

    fn workers(&self) -> usize {
        self.workers
    }

    fn run_with(
        &self,
        queries: &[BatchQuery],
        opts: &BatchOptions,
    ) -> Vec<CoreResult<(BatchAnswer, AdStats)>> {
        let mode = opts.planner.unwrap_or(self.default_mode);
        self.park.run(
            self.workers,
            queries,
            opts,
            PlanScratch::default,
            |scratch, q| self.execute(q, mode, scratch),
        )
    }

    fn plan_counts(&self) -> Option<PlanTally> {
        Some(PlanTally {
            ad: self.tally_ad.load(Ordering::Relaxed),
            vafile: self.tally_vafile.load(Ordering::Relaxed),
            scan: self.tally_scan.load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::naive::{frequent_k_n_match_scan, k_n_match_scan};

    fn pseudo_dataset(c: usize, d: usize, seed: u64) -> Dataset {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<Vec<f64>> = (0..c).map(|_| (0..d).map(|_| next()).collect()).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    fn mixed_batch(d: usize) -> Vec<BatchQuery> {
        let q: Vec<f64> = (0..d).map(|j| 0.1 + 0.8 * j as f64 / d as f64).collect();
        vec![
            BatchQuery::KnMatch {
                query: q.clone(),
                k: 5,
                n: 1,
            },
            BatchQuery::KnMatch {
                query: q.clone(),
                k: 3,
                n: d,
            },
            BatchQuery::Frequent {
                query: q.clone(),
                k: 4,
                n0: 1,
                n1: d,
            },
            BatchQuery::EpsMatch {
                query: q,
                eps: 0.08,
                n: (d / 2).max(1),
            },
        ]
    }

    fn oracle(ds: &Dataset, query: &BatchQuery) -> BatchAnswer {
        match query {
            BatchQuery::KnMatch { query, k, n } => {
                BatchAnswer::KnMatch(k_n_match_scan(ds, query, *k, *n).unwrap())
            }
            BatchQuery::Frequent { query, k, n0, n1 } => {
                BatchAnswer::Frequent(frequent_k_n_match_scan(ds, query, *k, *n0, *n1).unwrap())
            }
            BatchQuery::EpsMatch { query, eps, n } => {
                let full = k_n_match_scan(ds, query, ds.len(), *n).unwrap();
                BatchAnswer::EpsMatch(knmatch_core::KnMatchResult {
                    n: *n,
                    entries: full
                        .entries
                        .into_iter()
                        .filter(|e| e.diff <= *eps)
                        .collect(),
                })
            }
        }
    }

    #[test]
    fn every_mode_matches_the_oracle_bitwise() {
        let ds = pseudo_dataset(400, 6, 77);
        let batch = mixed_batch(6);
        let engine = PlannedEngine::with_workers(&ds, 3, PlannerMode::Auto);
        for mode in [
            PlannerMode::Auto,
            PlannerMode::Ad,
            PlannerMode::VaFile,
            PlannerMode::Scan,
        ] {
            let opts = BatchOptions {
                planner: Some(mode),
                ..BatchOptions::default()
            };
            for (q, r) in batch.iter().zip(engine.run_with(&batch, &opts)) {
                let (answer, _) = r.unwrap();
                assert_eq!(answer, oracle(&ds, q), "mode={mode}");
            }
        }
    }

    #[test]
    fn tally_matches_replanned_predictions() {
        let ds = pseudo_dataset(600, 8, 13);
        let batch = mixed_batch(8);
        let engine = PlannedEngine::with_workers(&ds, 2, PlannerMode::Auto);
        let mut want = PlanTally::default();
        for q in &batch {
            match engine.plan_for(q).unwrap().backend {
                BackendChoice::Ad => want.ad += 1,
                BackendChoice::VaFile => want.vafile += 1,
                BackendChoice::Scan => want.scan += 1,
            }
        }
        for r in engine.run(&batch) {
            r.unwrap();
        }
        assert_eq!(engine.plan_counts(), Some(want));
        assert_eq!(want.total(), batch.len() as u64);
    }

    #[test]
    fn forced_modes_tally_their_backend() {
        let ds = pseudo_dataset(100, 4, 5);
        let engine = PlannedEngine::with_workers(&ds, 1, PlannerMode::Auto);
        let batch = mixed_batch(4);
        let force = |mode| BatchOptions {
            planner: Some(mode),
            ..BatchOptions::default()
        };
        for r in engine.run_with(&batch, &force(PlannerMode::Scan)) {
            r.unwrap();
        }
        for r in engine.run_with(&batch, &force(PlannerMode::VaFile)) {
            r.unwrap();
        }
        let tally = engine.plan_counts().unwrap();
        assert_eq!(tally.scan, batch.len() as u64);
        assert_eq!(tally.vafile, batch.len() as u64);
        assert_eq!(tally.ad, 0);
    }

    #[test]
    fn invalid_queries_fail_their_slot_in_every_mode() {
        let ds = pseudo_dataset(50, 3, 3);
        let engine = PlannedEngine::with_workers(&ds, 1, PlannerMode::Auto);
        let bad = vec![BatchQuery::KnMatch {
            query: vec![0.0; 2],
            k: 1,
            n: 1,
        }];
        for mode in [PlannerMode::Auto, PlannerMode::Ad, PlannerMode::VaFile] {
            let opts = BatchOptions {
                planner: Some(mode),
                ..BatchOptions::default()
            };
            assert!(engine.run_with(&bad, &opts)[0].is_err(), "mode={mode}");
        }
    }

    #[test]
    fn default_mode_applies_without_override() {
        let ds = pseudo_dataset(80, 4, 21);
        let engine = PlannedEngine::with_workers(&ds, 1, PlannerMode::Scan);
        let batch = mixed_batch(4);
        for r in engine.run(&batch) {
            r.unwrap();
        }
        assert_eq!(engine.plan_counts().unwrap().scan, batch.len() as u64);
    }
}
