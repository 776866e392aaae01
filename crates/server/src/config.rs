//! One engine configuration shared by every front-end.
//!
//! `knmatch batch`, `knmatch query` and `knmatch serve` all accept the
//! same backend flags (`--workers`, `--shards`, `--disk`, `--pool-pages`,
//! `--verify`, `--planner`); [`EngineConfig`] owns that grammar in one
//! place and turns it into an [`AnyEngine`] — a [`BatchEngine`] enum over
//! the backends, so the server loop and the CLI printing code are written
//! once against the trait instead of once per concrete type.
//!
//! The in-memory engine is the run list ([`AnyEngine::Runs`]): one AD walk
//! over however many runs the snapshot holds — `--shards` lays the
//! dataset out as more initial runs, `--mutable` adds a writer.
//! `knmatch-core`'s parallel batch engine is not served; it is the
//! reference the cross-checks hold this engine against.

use knmatch_core::{
    AdStats, BatchAnswer, BatchEngine, BatchOptions, BatchOutcome, BatchQuery, Dataset, PlanTally,
    PlannerMode, Result as CoreResult, VersionedIndex, DEFAULT_MERGE_THRESHOLD,
};
use knmatch_storage::{
    DiskBatchOutcome, DiskDatabase, DiskQueryEngine, FileStore, IoStats, VerifyMode, MAGIC,
};

use crate::planner_engine::PlannedEngine;

/// Which backend answers the queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-memory [`VersionedIndex`] holding the dataset as one run — plain
    /// AD over one sorted-column organisation, inter-query parallelism.
    Memory,
    /// The same engine laid out as this many initial runs (contiguous
    /// point-id shards). A layout choice only: every query is one AD
    /// walk over all runs, on one worker.
    Sharded(usize),
    /// Disk-backed [`DiskQueryEngine`] over a `.knm` database file.
    Disk {
        /// Shared buffer-pool capacity in pages.
        pool_pages: usize,
        /// Page read-verification policy.
        verify: VerifyMode,
    },
}

/// Pool capacity used when `--disk` is given without `--pool-pages`.
pub const DEFAULT_POOL_PAGES: usize = 256;

/// A parsed backend + worker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Batch worker threads (≥ 1).
    pub workers: usize,
    /// The backend to build.
    pub backend: Backend,
    /// `Some(mode)` builds the cost-based [`PlannedEngine`] (in-memory
    /// only) with `mode` as the default route; `None` keeps the plain
    /// single-backend engines.
    pub planner: Option<PlannerMode>,
    /// Exposes the in-memory engine's writer, enabling the
    /// `INSERT`/`DELETE`/`EPOCH`/`SEAL` verbs (in-memory only). With
    /// [`Backend::Sharded`] the shard count is the *initial* run count —
    /// compaction treats those runs like any others.
    pub mutable: bool,
    /// Delta rows before the versioned index auto-seals (mutable only).
    pub merge_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: available_cpus(),
            backend: Backend::Memory,
            planner: None,
            mutable: false,
            merge_threshold: DEFAULT_MERGE_THRESHOLD,
        }
    }
}

/// Step-by-step construction of an [`EngineConfig`] from its defaults;
/// [`build`](EngineConfigBuilder::build) returns it through
/// [`EngineConfig::check`] — the same validation whether the knobs came
/// from CLI flags ([`EngineConfig::from_args`] is a thin parse over
/// this), from a builder in code, or from a struct literal.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfigBuilder(EngineConfig);

impl EngineConfigBuilder {
    /// Sets the batch worker count (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.0.workers = workers.max(1);
        self
    }

    /// Sets the backend (default [`Backend::Memory`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.0.backend = backend;
        self
    }

    /// Routes queries through the cost-based planner.
    pub fn planner(mut self, mode: PlannerMode) -> Self {
        self.0.planner = Some(mode);
        self
    }

    /// Makes the in-memory engine accept writes.
    pub fn mutable(mut self, on: bool) -> Self {
        self.0.mutable = on;
        self
    }

    /// Sets the versioned index's auto-seal threshold (clamped to ≥ 1;
    /// implies nothing on its own — only read when `mutable` is set).
    pub fn merge_threshold(mut self, rows: usize) -> Self {
        self.0.merge_threshold = rows.max(1);
        self
    }

    /// Produces the config, validated by [`EngineConfig::check`].
    ///
    /// # Errors
    ///
    /// The conflicts [`EngineConfig::check`] lists.
    pub fn build(self) -> Result<EngineConfig, String> {
        self.0.check()
    }
}

/// Parses the serving-side flags of `knmatch serve` into a
/// [`ServerConfig`](crate::ServerConfig): `--max-conns N` (default 64),
/// `--executors E` (reactor worker threads, `0` = one per core),
/// `--reactor <poll|epoll|auto>` (readiness backend, default `auto`:
/// epoll on Linux, `poll(2)` elsewhere), `--idle-timeout-ms N` (evict
/// connections idle for N ms, `0` = never, the default), and
/// `--max-inflight N` (shed queries with `ERR overloaded` once N are
/// queued or running, `0` = auto).
///
/// # Errors
///
/// Malformed numbers or backend names.
pub fn server_config_from_args(args: &[String]) -> Result<crate::ServerConfig, String> {
    let max_connections = parse_num(
        flag_value(args, "--max-conns").unwrap_or("64"),
        "--max-conns",
    )?;
    let executors = parse_num(
        flag_value(args, "--executors").unwrap_or("0"),
        "--executors",
    )?;
    let reactor = flag_value(args, "--reactor")
        .map(str::parse)
        .transpose()?
        .unwrap_or_default();
    let idle_ms = parse_num(
        flag_value(args, "--idle-timeout-ms").unwrap_or("0"),
        "--idle-timeout-ms",
    )?;
    let max_inflight = parse_num(
        flag_value(args, "--max-inflight").unwrap_or("0"),
        "--max-inflight",
    )?;
    Ok(crate::ServerConfig {
        max_connections,
        executors,
        reactor,
        idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms as u64)),
        max_inflight,
        ..crate::ServerConfig::default()
    })
}

/// The host's available parallelism (≥ 1) — the default for `--workers`
/// and `--shards auto`.
fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Looks up the value following `flag` (e.g. `--workers 4`).
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_num(s: &str, what: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{what}: expected a number, got '{s}'"))
}

impl EngineConfig {
    /// Starts a builder with every knob at its default.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// The four conflict rules between the fields. The builder returns
    /// its config through here and [`open`](Self::open) /
    /// [`build_in_memory`](Self::build_in_memory) call it again, so a
    /// struct literal (the fields are public) meets the same rules
    /// instead of having a field silently ignored.
    ///
    /// # Errors
    ///
    /// Planner with a disk or sharded backend, mutable with disk or with
    /// planner, or a non-default merge threshold without mutable.
    pub fn check(self) -> Result<EngineConfig, String> {
        if self.planner.is_some() && self.backend != Backend::Memory {
            return Err("--planner routes between the in-memory backends; \
                        it cannot be combined with --disk or --shards"
                .into());
        }
        if self.mutable && matches!(self.backend, Backend::Disk { .. }) {
            return Err("--mutable builds the in-memory versioned index; \
                        it cannot be combined with --disk"
                .into());
        }
        if self.mutable && self.planner.is_some() {
            return Err("--mutable serves the versioned index directly; \
                        it cannot be combined with --planner"
                .into());
        }
        if self.merge_threshold != DEFAULT_MERGE_THRESHOLD && !self.mutable {
            return Err("--merge-threshold only applies to --mutable".into());
        }
        Ok(self)
    }

    /// Parses the shared backend flags out of a CLI argument list:
    /// `--workers W`, `--shards <S|auto>`, `--disk`, `--pool-pages P`,
    /// `--verify <never|first-read|always>`,
    /// `--planner <auto|ad|vafile|scan|igrid>`, `--mutable`,
    /// `--merge-threshold N`. Unrelated flags are ignored (the caller
    /// owns the rest of its grammar). Flag parsing lands in an
    /// [`EngineConfigBuilder`], which owns the conflict rules.
    ///
    /// `--shards auto` means one shard per available CPU, and any shard
    /// count collapses to 1 on a single-CPU host (more runs only split
    /// the build's sorts, which one CPU runs back to back anyway).
    ///
    /// # Errors
    ///
    /// Malformed numbers or modes, `--shards` combined with `--disk`,
    /// `--pool-pages` / `--verify` without `--disk`,
    /// `--merge-threshold` without `--mutable`, `--planner` combined with
    /// `--disk` / `--shards` / `--mutable`, or `--mutable` combined with
    /// `--disk` (see [`check`](Self::check)). `--mutable`
    /// and `--shards` configure the same engine: `--shards` is its initial
    /// run count, `--mutable` makes it accept writes.
    pub fn from_args(args: &[String]) -> Result<EngineConfig, String> {
        let mut builder = EngineConfig::builder();
        if let Some(w) = flag_value(args, "--workers") {
            builder = builder.workers(parse_num(w, "--workers")?);
        }
        let disk = args.iter().any(|a| a == "--disk");
        let shards = flag_value(args, "--shards")
            .map(|s| match s {
                "auto" => Ok(available_cpus()),
                _ => parse_num(s, "--shards"),
            })
            .transpose()?
            // On one CPU a split layout buys nothing; collapse it.
            .map(|s| if available_cpus() == 1 { 1 } else { s });
        if disk && shards.is_some() {
            return Err("--shards lays out the in-memory run list; \
                        it cannot be combined with --disk"
                .into());
        }
        if let Some(mode) = flag_value(args, "--planner") {
            builder = builder.planner(mode.parse::<PlannerMode>()?);
        }
        if args.iter().any(|a| a == "--mutable") {
            builder = builder.mutable(true);
        }
        if let Some(rows) = flag_value(args, "--merge-threshold") {
            builder = builder.merge_threshold(parse_num(rows, "--merge-threshold")?);
        }
        if !disk {
            for flag in ["--pool-pages", "--verify"] {
                if args.iter().any(|a| a == flag) {
                    return Err(format!("{flag} only applies to --disk"));
                }
            }
        }
        if disk {
            let pool_pages = match flag_value(args, "--pool-pages") {
                Some(p) => parse_num(p, "--pool-pages")?.max(1),
                None => DEFAULT_POOL_PAGES,
            };
            let verify = match flag_value(args, "--verify") {
                None => VerifyMode::default(),
                Some("never") => VerifyMode::Never,
                Some("first-read") => VerifyMode::FirstRead,
                Some("always") => VerifyMode::Always,
                Some(other) => {
                    return Err(format!(
                        "--verify takes never|first-read|always, got '{other}'"
                    ))
                }
            };
            builder = builder.backend(Backend::Disk { pool_pages, verify });
        } else if let Some(s) = shards {
            builder = builder.backend(Backend::Sharded(s.max(1)));
        }
        builder.build()
    }

    /// One-line human description, e.g. `"disk (256 pool pages), 4 worker(s)"`.
    ///
    /// See also [`server_config_from_args`] for the serving-side flags.
    pub fn describe(&self) -> String {
        let mut backend = match (self.backend, self.planner) {
            (Backend::Memory, Some(mode)) => format!("planned ({mode}), in-memory"),
            (Backend::Memory, None) => "in-memory".to_string(),
            (Backend::Sharded(s), _) => format!("{s} shard(s), in-memory"),
            (Backend::Disk { pool_pages, .. }, _) => format!("disk ({pool_pages} pool pages)"),
        };
        if self.mutable {
            backend = format!(
                "mutable versioned (seal at {} rows), {backend}",
                self.merge_threshold
            );
        }
        format!("{backend}, {} worker(s)", self.workers)
    }

    /// Builds the configured engine over `path` — a CSV dataset or a
    /// `.knm` database file (sniffed by magic). The in-memory backends
    /// accept both (a database file's points are loaded into memory); the
    /// disk backend requires a database file.
    ///
    /// # Errors
    ///
    /// A field combination [`check`](Self::check) rejects, unreadable or
    /// unparseable input, or a CSV given to `--disk`.
    pub fn open(&self, path: &str) -> Result<AnyEngine, String> {
        self.check()?;
        let is_db = std::fs::File::open(path)
            .and_then(|mut f| {
                use std::io::Read as _;
                let mut head = [0u8; MAGIC.len()];
                // A file shorter than the magic is not a database file.
                Ok(f.read(&mut head)? == head.len() && &head == MAGIC)
            })
            .map_err(|e| format!("{path}: {e}"))?;
        match self.backend {
            Backend::Disk { pool_pages, verify } => {
                if !is_db {
                    return Err(format!(
                        "{path}: --disk needs a .knm database file (see `knmatch build`)"
                    ));
                }
                DiskDatabase::open_file_with(path, pool_pages, verify)
                    .map(|db| AnyEngine::Disk(db.into_engine(self.workers)))
                    .map_err(|e| e.to_string())
            }
            Backend::Memory | Backend::Sharded(_) => {
                let ds = if is_db {
                    DiskDatabase::open_file(path, DEFAULT_POOL_PAGES)
                        .map_err(|e| e.to_string())?
                        .to_dataset()
                        .map_err(|e| format!("{path}: {e}"))?
                } else {
                    knmatch_data::load_dataset(path).map_err(|e| format!("{path}: {e}"))?
                };
                Ok(self.build_in_memory(&ds))
            }
        }
    }

    /// Builds an in-memory engine over an already-loaded dataset
    /// (workload generators, tests). A `Disk` backend falls back to the
    /// plain in-memory engine — there is no file to read.
    ///
    /// # Panics
    ///
    /// With the rule's own message when [`check`](Self::check) rejects
    /// the field combination — a struct literal that skipped the builder.
    pub fn build_in_memory(&self, ds: &Dataset) -> AnyEngine {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
        if let Some(mode) = self.planner {
            return AnyEngine::Planned(PlannedEngine::with_workers(ds, self.workers, mode));
        }
        let runs = match self.backend {
            Backend::Sharded(s) => s,
            _ => 1,
        };
        AnyEngine::Runs {
            index: VersionedIndex::from_dataset(ds, runs, self.workers, self.merge_threshold)
                .expect("a dataset has at least one dimension"),
            mutable: self.mutable,
        }
    }
}

/// A [`BatchEngine`] over whichever backend [`EngineConfig`] built.
///
/// The server accept loop and the CLI batch printer are generic over
/// `E: BatchEngine`; this enum is the value they are instantiated with
/// when the backend is chosen at runtime by flags.
#[derive(Debug)]
pub enum AnyEngine {
    /// The cost-based per-query planner over the in-memory backends.
    Planned(PlannedEngine),
    /// The disk engine over a database file.
    Disk(DiskQueryEngine<FileStore>),
    /// The in-memory engine, a snapshot of sorted runs: one run unless
    /// `--shards` asks for more, read-only unless `--mutable`.
    Runs {
        /// The epoch-versioned index queries pin snapshots of.
        index: VersionedIndex,
        /// Whether [`BatchEngine::writer`] is exposed; read-only servers
        /// answer every write verb with `ERR query … immutable`.
        mutable: bool,
    },
}

impl AnyEngine {
    /// Points served by this engine (for the run-list engine: live
    /// points at the current epoch).
    pub fn cardinality(&self) -> usize {
        match self {
            AnyEngine::Planned(e) => e.columns().cardinality(),
            AnyEngine::Disk(e) => e.columns().cardinality(),
            AnyEngine::Runs { index, .. } => index.live(),
        }
    }

    /// Dimensionality of the served dataset.
    pub fn dims(&self) -> usize {
        match self {
            AnyEngine::Planned(e) => e.columns().dims(),
            AnyEngine::Disk(e) => e.columns().dims(),
            AnyEngine::Runs { index, .. } => index.dims(),
        }
    }

    /// Shared buffer-pool counters (disk backend only).
    pub fn pool_stats(&self) -> Option<IoStats> {
        match self {
            AnyEngine::Disk(e) => Some(e.pool_stats()),
            _ => None,
        }
    }

    /// Shared buffer-pool capacity (disk backend only).
    pub fn pool_pages(&self) -> Option<usize> {
        match self {
            AnyEngine::Disk(e) => Some(e.pool_pages()),
            _ => None,
        }
    }

    /// Runs the current snapshot reads — 1 for the default engine, the
    /// shard count of a `--shards` engine (run-list backend only).
    pub fn run_count(&self) -> Option<usize> {
        match self {
            AnyEngine::Runs { index, .. } => Some(index.snapshot().run_count()),
            _ => None,
        }
    }
}

/// The outcome of one [`AnyEngine`] query slot, preserving each backend's
/// extra cost detail behind the common [`BatchOutcome`] projection.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyOutcome {
    /// From the in-memory engines (run list, planner).
    Memory((BatchAnswer, AdStats)),
    /// From the disk engine.
    Disk(DiskBatchOutcome),
}

impl AnyOutcome {
    /// Modelled per-query page I/O (disk backend only).
    pub fn io(&self) -> Option<&IoStats> {
        match self {
            AnyOutcome::Disk(o) => Some(&o.io),
            AnyOutcome::Memory(_) => None,
        }
    }
}

impl BatchOutcome for AnyOutcome {
    fn answer(&self) -> &BatchAnswer {
        match self {
            AnyOutcome::Memory(o) => o.answer(),
            AnyOutcome::Disk(o) => o.answer(),
        }
    }

    fn ad_stats(&self) -> AdStats {
        match self {
            AnyOutcome::Memory(o) => o.ad_stats(),
            AnyOutcome::Disk(o) => o.ad_stats(),
        }
    }

    fn into_answer(self) -> BatchAnswer {
        match self {
            AnyOutcome::Memory(o) => o.into_answer(),
            AnyOutcome::Disk(o) => o.into_answer(),
        }
    }
}

impl BatchEngine for AnyEngine {
    type Outcome = AnyOutcome;

    fn workers(&self) -> usize {
        match self {
            AnyEngine::Planned(e) => e.workers(),
            AnyEngine::Disk(e) => e.workers(),
            AnyEngine::Runs { index, .. } => index.workers(),
        }
    }

    fn run_with(&self, queries: &[BatchQuery], opts: &BatchOptions) -> Vec<CoreResult<AnyOutcome>> {
        match self {
            AnyEngine::Planned(e) => e
                .run_with(queries, opts)
                .into_iter()
                .map(|r| r.map(AnyOutcome::Memory))
                .collect(),
            AnyEngine::Disk(e) => e
                .run_with(queries, opts)
                .into_iter()
                .map(|r| r.map(AnyOutcome::Disk))
                .collect(),
            AnyEngine::Runs { index, .. } => index
                .run_with(queries, opts)
                .into_iter()
                .map(|r| r.map(AnyOutcome::Memory))
                .collect(),
        }
    }

    fn plan_counts(&self) -> Option<PlanTally> {
        match self {
            AnyEngine::Planned(e) => e.plan_counts(),
            _ => None,
        }
    }

    fn writer(&self) -> Option<&dyn knmatch_core::VersionWriter> {
        match self {
            AnyEngine::Runs {
                index,
                mutable: true,
            } => Some(index),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::{QueryEngine, SortedColumns};
    use std::sync::Arc;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flag_grammar() {
        let c = EngineConfig::from_args(&argv("--workers 3")).unwrap();
        assert_eq!(c.workers, 3);
        assert_eq!(c.backend, Backend::Memory);

        let c = EngineConfig::from_args(&argv("--shards 4 --workers 2")).unwrap();
        let want_shards = if available_cpus() == 1 { 1 } else { 4 };
        assert_eq!(c.backend, Backend::Sharded(want_shards));

        let c = EngineConfig::from_args(&argv("--disk --pool-pages 64 --verify always")).unwrap();
        assert_eq!(
            c.backend,
            Backend::Disk {
                pool_pages: 64,
                verify: VerifyMode::Always
            }
        );

        let c = EngineConfig::from_args(&argv("--disk")).unwrap();
        assert_eq!(
            c.backend,
            Backend::Disk {
                pool_pages: DEFAULT_POOL_PAGES,
                verify: VerifyMode::FirstRead
            }
        );

        // `--shards` and `--mutable` configure one engine: the initial run
        // count, and whether it takes writes.
        let c = EngineConfig::from_args(&argv("--mutable --shards 3")).unwrap();
        let want_runs = if available_cpus() == 1 { 1 } else { 3 };
        assert!(c.mutable);
        assert_eq!(c.backend, Backend::Sharded(want_runs));
        let e = c.build_in_memory(&knmatch_core::paper::fig3_dataset());
        // What the `EPOCH` verb reports.
        let epoch = e.writer().expect("mutable").version_stats();
        assert_eq!((epoch.runs, epoch.live), (want_runs, 5));

        assert!(EngineConfig::from_args(&argv("--disk --shards 2")).is_err());
        assert!(EngineConfig::from_args(&argv("--mutable --disk")).is_err());
        assert!(EngineConfig::from_args(&argv("--pool-pages 9")).is_err());
        assert!(EngineConfig::from_args(&argv("--verify always")).is_err());
        assert!(EngineConfig::from_args(&argv("--disk --verify sometimes")).is_err());
        assert!(EngineConfig::from_args(&argv("--workers many")).is_err());
    }

    #[test]
    fn any_engine_matches_direct_engine() {
        let ds = knmatch_core::paper::fig3_dataset();
        let batch = vec![
            BatchQuery::KnMatch {
                query: vec![3.0, 7.0, 4.0],
                k: 2,
                n: 2,
            },
            BatchQuery::EpsMatch {
                query: vec![3.0, 7.0, 4.0],
                eps: 1.6,
                n: 2,
            },
        ];
        let direct = QueryEngine::with_workers(Arc::new(SortedColumns::build(&ds)), 2);
        let (want, want_stats): (Vec<_>, Vec<_>) = direct
            .run(&batch)
            .into_iter()
            .map(|r| r.unwrap())
            .map(|o| (Ok(o.answer().clone()), o.ad_stats()))
            .unzip();

        for cfg in [
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            EngineConfig {
                workers: 2,
                planner: Some(PlannerMode::Auto),
                ..EngineConfig::default()
            },
            EngineConfig {
                workers: 2,
                backend: Backend::Sharded(2),
                ..EngineConfig::default()
            },
            EngineConfig {
                workers: 2,
                mutable: true,
                ..EngineConfig::default()
            },
            EngineConfig {
                workers: 2,
                backend: Backend::Sharded(3),
                mutable: true,
                ..EngineConfig::default()
            },
        ] {
            let e = cfg.build_in_memory(&ds);
            // Read-only engines expose no writer, the default included.
            assert_eq!(e.writer().is_some(), cfg.mutable, "{cfg:?}");
            let outs = e.run(&batch);
            // The default engine (and its mutable twin) is one run, which
            // is plain AD: the reference's cost counters, not just answers.
            if cfg.backend == Backend::Memory && cfg.planner.is_none() {
                assert_eq!(e.run_count(), Some(1));
                let stats: Vec<_> = outs
                    .iter()
                    .map(|r| r.as_ref().unwrap().ad_stats())
                    .collect();
                assert_eq!(stats, want_stats, "mutable {}", cfg.mutable);
            }
            let got: Vec<_> = outs
                .into_iter()
                .map(|r| r.map(|o| o.into_answer()))
                .collect();
            assert_eq!(got, want, "backend {:?}", cfg.backend);
            assert_eq!(e.workers(), 2);
        }
    }

    #[test]
    fn describe_names_the_backend() {
        assert!(EngineConfig::default().describe().contains("in-memory"));
        let c = EngineConfig {
            workers: 2,
            backend: Backend::Disk {
                pool_pages: 64,
                verify: VerifyMode::FirstRead,
            },
            ..EngineConfig::default()
        };
        assert!(c.describe().contains("disk"));
        let c = EngineConfig {
            workers: 2,
            backend: Backend::Sharded(3),
            ..EngineConfig::default()
        };
        assert!(c.describe().contains("3 shard(s)"));
        let c = EngineConfig {
            planner: Some(PlannerMode::VaFile),
            ..EngineConfig::default()
        };
        assert!(c.describe().contains("planned (vafile)"));
        let c = EngineConfig {
            mutable: true,
            merge_threshold: 77,
            ..EngineConfig::default()
        };
        assert!(c.describe().contains("mutable") && c.describe().contains("77"));
        let c = EngineConfig {
            backend: Backend::Sharded(3),
            ..c
        };
        assert!(c.describe().contains("mutable") && c.describe().contains("3 shard(s)"));
    }

    #[test]
    fn planner_flag_grammar() {
        let c = EngineConfig::from_args(&argv("--planner auto --workers 2")).unwrap();
        assert_eq!(c.planner, Some(PlannerMode::Auto));
        assert_eq!(c.backend, Backend::Memory);

        let c = EngineConfig::from_args(&argv("--planner scan")).unwrap();
        assert_eq!(c.planner, Some(PlannerMode::Scan));

        assert!(EngineConfig::from_args(&argv("--planner fastest")).is_err());
        assert!(EngineConfig::from_args(&argv("--planner auto --disk")).is_err());
        assert!(EngineConfig::from_args(&argv("--planner auto --shards 2")).is_err());
    }

    #[test]
    fn serve_flag_grammar() {
        use crate::server::ReactorChoice;

        let cfg = server_config_from_args(&argv("--max-conns 128")).unwrap();
        assert_eq!(cfg.max_connections, 128);
        assert_eq!(cfg.reactor, ReactorChoice::Auto);

        let cfg = server_config_from_args(&argv("--reactor poll --executors 2")).unwrap();
        assert_eq!(cfg.reactor, ReactorChoice::Poll);
        assert_eq!(cfg.executors, 2);

        let cfg = server_config_from_args(&argv("--reactor epoll")).unwrap();
        assert_eq!(cfg.reactor, ReactorChoice::Epoll);
        let cfg = server_config_from_args(&argv("--reactor auto")).unwrap();
        assert_eq!(cfg.reactor, ReactorChoice::Auto);

        assert!(server_config_from_args(&argv("--reactor kqueue")).is_err());
        assert!(server_config_from_args(&argv("--executors many")).is_err());
    }

    #[test]
    fn builder_owns_the_conflict_rules() {
        let c = EngineConfig::builder()
            .workers(3)
            .mutable(true)
            .merge_threshold(16)
            .build()
            .unwrap();
        assert!(c.mutable);
        assert_eq!(c.merge_threshold, 16);
        assert_eq!(c.workers, 3);
        assert_eq!(c.backend, Backend::Memory);

        // Unset knobs keep their defaults.
        let c = EngineConfig::builder().build().unwrap();
        assert_eq!(c, EngineConfig::default());

        // Shards are the mutable index's initial runs…
        let c = EngineConfig::builder()
            .mutable(true)
            .backend(Backend::Sharded(2))
            .build()
            .unwrap();
        assert!(c.mutable);
        assert_eq!(c.backend, Backend::Sharded(2));
        // …but it stays an in-memory organisation of its own.
        assert!(EngineConfig::builder()
            .mutable(true)
            .backend(Backend::Disk {
                pool_pages: 8,
                verify: VerifyMode::Never,
            })
            .build()
            .is_err());
        assert!(EngineConfig::builder()
            .mutable(true)
            .planner(PlannerMode::Auto)
            .build()
            .is_err());
        // The threshold only means something on a mutable engine.
        assert!(EngineConfig::builder().merge_threshold(8).build().is_err());
    }

    /// The fields are public, so a config can skip the builder; each of
    /// the four rules must still stop it — `Err` from `check` and `open`,
    /// a panic carrying the same message from `build_in_memory`.
    #[test]
    fn literal_configs_meet_the_conflict_rules() {
        let base = EngineConfig::default();
        let (planner, mutable) = (Some(PlannerMode::Auto), true);
        let backend = Backend::Disk {
            pool_pages: 8,
            verify: VerifyMode::Never,
        };
        let sharded = Backend::Sharded(2);
        let cases = [
            (
                EngineConfig {
                    planner,
                    backend: sharded,
                    ..base
                },
                "--planner routes between the in-memory backends",
            ),
            (
                EngineConfig {
                    mutable,
                    backend,
                    ..base
                },
                "--mutable builds the in-memory versioned index",
            ),
            (
                EngineConfig {
                    mutable,
                    planner,
                    ..base
                },
                "--mutable serves the versioned index directly",
            ),
            (
                EngineConfig {
                    merge_threshold: 8,
                    ..base
                },
                "--merge-threshold only applies to --mutable",
            ),
        ];
        let ds = knmatch_core::paper::fig3_dataset();
        for (cfg, rule) in cases {
            assert!(cfg.check().unwrap_err().starts_with(rule), "{rule}");
            // The rules come before the file is even looked at.
            let err = cfg.open("/nonexistent/data.csv").unwrap_err();
            assert!(err.starts_with(rule), "{err}");
            let panic = std::panic::catch_unwind(|| cfg.build_in_memory(&ds)).unwrap_err();
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(message.starts_with(rule), "{message}");
        }
        assert_eq!(base.check(), Ok(base));
    }

    #[test]
    fn mutable_flag_grammar() {
        let c = EngineConfig::from_args(&argv("--mutable --merge-threshold 32")).unwrap();
        assert!(c.mutable);
        assert_eq!(c.merge_threshold, 32);

        let c = EngineConfig::from_args(&argv("--mutable")).unwrap();
        assert_eq!(c.merge_threshold, DEFAULT_MERGE_THRESHOLD);

        assert!(EngineConfig::from_args(&argv("--merge-threshold 32")).is_err());
        assert!(EngineConfig::from_args(&argv("--mutable --disk")).is_err());
        assert!(EngineConfig::from_args(&argv("--mutable --planner auto")).is_err());
        assert!(EngineConfig::from_args(&argv("--mutable --merge-threshold many")).is_err());
    }

    #[test]
    fn versioned_engine_exposes_a_writer() {
        let ds = knmatch_core::paper::fig3_dataset();
        let cfg = EngineConfig {
            workers: 2,
            mutable: true,
            ..EngineConfig::default()
        };
        let e = cfg.build_in_memory(&ds);
        assert_eq!(e.cardinality(), ds.len());
        assert_eq!(e.dims(), ds.dims());
        let w = e.writer().expect("mutable engine has a writer");
        let epoch = w.insert(100, &vec![1.0; ds.dims()]).unwrap();
        assert!(epoch > 0);
        assert_eq!(e.cardinality(), ds.len() + 1);
    }

    #[test]
    fn shards_auto_and_single_cpu_clamp() {
        let c = EngineConfig::from_args(&argv("--shards auto")).unwrap();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let expect = if cpus == 1 { 1 } else { cpus };
        assert_eq!(c.backend, Backend::Sharded(expect));
        assert!(EngineConfig::from_args(&argv("--shards several")).is_err());
    }

    #[test]
    fn planned_engine_reports_plan_counts() {
        let ds = knmatch_core::paper::fig3_dataset();
        let cfg = EngineConfig {
            workers: 1,
            planner: Some(PlannerMode::Auto),
            ..EngineConfig::default()
        };
        let e = cfg.build_in_memory(&ds);
        assert_eq!(e.plan_counts(), Some(PlanTally::default()));
        let batch = vec![BatchQuery::KnMatch {
            query: vec![3.0, 7.0, 4.0],
            k: 2,
            n: 2,
        }];
        for r in e.run(&batch) {
            r.unwrap();
        }
        assert_eq!(e.plan_counts().unwrap().total(), 1);
    }
}
