//! The four workloads: what each serves, what it asks, and why it
//! exists. Everything here is a pure function of the seed.

use std::collections::VecDeque;

use knmatch_core::{BatchQuery, Dataset};
use knmatch_data::rng::{seeded, Rng64};

/// Which engine a workload serves its data from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Plain in-memory AD (`Backend::Memory`, no planner).
    Plain,
    /// In-memory, routed per query by `planner(Auto)`.
    Planned,
    /// `Backend::Disk` over a file written by `DiskDatabase::create_file`.
    Disk { pool_pages: usize },
    /// `mutable(true)`: the epoch-versioned index, written while read.
    Mutable { merge_threshold: usize },
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub cardinality: usize,
    pub dims: usize,
    pub skewed: bool,
    pub queries: usize,
    pub engine: EngineKind,
    /// Reactor executor threads.
    pub executors: usize,
    /// Reader connections, one generator thread each.
    pub connections: usize,
    /// Single-query frames in flight per connection in the `qps` phase.
    pub window: usize,
    /// Paced writer rate (ops/s) on a second connection, if any.
    pub write_rate: Option<u32>,
    /// Pin the whole run to one core. Right where a request is a chain
    /// of hand-offs between generator, reactor and a single executor:
    /// there, which cores the scheduler picks decides the numbers. Not
    /// where two executors do milliseconds of computing in parallel and
    /// a wake-up is noise: pinned, those halve their throughput and
    /// measured less steadily than floating.
    pub one_core: bool,
}

/// Queries per text `BATCH` frame in the `qps_text_batch` phase.
pub const TEXT_BATCH: usize = 32;
/// Text `BATCH` frames in flight, summed over a workload's connections.
pub const TEXT_WINDOW: usize = 4;
/// Deleted keys the write stream lets accumulate before it stops
/// deleting — keeps the live count within this of the cardinality.
pub const MAX_DELETED: usize = 64;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "lowcost",
        why: "n=1 queries cost ~10 us in the engine, so wire parse, queueing, encode, writev \
              and planning dominate; an engine gain must show no change here",
        cardinality: 100_000,
        dims: 16,
        skewed: false,
        queries: 4096,
        engine: EngineKind::Plain,
        executors: 1,
        connections: 1,
        window: 32,
        write_rate: None,
        one_core: true,
    },
    Spec {
        name: "plan-mixed",
        why: "ms-scale KNM/FREQ/EPS mix under planner(auto): >=95% of time is AD/filter/scan \
              and the planner's choices decide it; a wire gain must show no change here",
        cardinality: 50_000,
        dims: 16,
        skewed: false,
        queries: 256,
        engine: EngineKind::Planned,
        executors: 2,
        connections: 2,
        window: 2,
        write_rate: None,
        one_core: false,
    },
    Spec {
        name: "disk-smallpool",
        why: "disk engine with a pool of 6.5% of the file: buffer pool, file store and \
              checksums do the work; the only workload larger than the program's own cache",
        cardinality: 200_000,
        dims: 16,
        skewed: true,
        queries: 2048,
        engine: EngineKind::Disk { pool_pages: 1024 },
        executors: 1,
        connections: 1,
        window: 8,
        write_rate: None,
        one_core: true,
    },
    Spec {
        name: "ingest-mixed",
        why: "reads beside a paced 1000 ops/s writer on one versioned index and one executor: \
              a read gain that costs writes (or the reverse) shows",
        cardinality: 50_000,
        dims: 16,
        skewed: false,
        queries: 2048,
        engine: EngineKind::Mutable {
            merge_threshold: 128,
        },
        executors: 1,
        connections: 1,
        window: 8,
        write_rate: Some(1000),
        one_core: true,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload shrunk to smoke-test size (c ≤ 2000).
    pub fn smoke(mut self) -> Spec {
        self.cardinality = self.cardinality.min(2000);
        self.queries = self.queries.min(128);
        self.engine = match self.engine {
            EngineKind::Disk { .. } => EngineKind::Disk { pool_pages: 16 },
            EngineKind::Mutable { .. } => EngineKind::Mutable {
                merge_threshold: 16,
            },
            other => other,
        };
        self
    }

    /// The data every connection is served from, in [0,1]^d.
    pub fn dataset(&self, seed: u64) -> Dataset {
        if self.skewed {
            knmatch_data::skewed(self.cardinality, self.dims, seed)
        } else {
            knmatch_data::uniform(self.cardinality, self.dims, seed)
        }
    }

    /// The query list: data points perturbed by ±0.01 per coordinate.
    pub fn queries(&self, ds: &Dataset, seed: u64) -> Vec<BatchQuery> {
        let mut rng = seeded(seed ^ 0x51_7E_A5_ED);
        let d = self.dims;
        assert!(d >= 6, "the planner mix needs n up to d/2 >= 3");
        (0..self.queries)
            .map(|i| {
                let pid = rng.range_usize(0..ds.len()) as u32;
                let query: Vec<f64> = ds
                    .point(pid)
                    .iter()
                    .map(|&v| (v + rng.range_f64(-0.01, 0.01)).clamp(0.0, 1.0))
                    .collect();
                match self.engine {
                    EngineKind::Plain => BatchQuery::KnMatch { query, k: 10, n: 1 },
                    EngineKind::Disk { .. } | EngineKind::Mutable { .. } => {
                        BatchQuery::KnMatch { query, k: 10, n: 2 }
                    }
                    // Parameters cycle through a fixed grid, so every
                    // seed asks the same mix and only the points differ:
                    // a seed that drew more wide-n queries would move
                    // every metric on its own.
                    EngineKind::Planned => {
                        let j = i / 4;
                        let k = [1, 10, 50][j % 3];
                        match i % 4 {
                            0 => BatchQuery::KnMatch {
                                query,
                                k,
                                n: 1 + j % d,
                            },
                            1 => BatchQuery::KnMatch {
                                query,
                                k,
                                n: 1 + j % (d / 2),
                            },
                            2 => {
                                let n0 = 1 + j % d;
                                let n1 = n0 + (j * 7) % (d - n0 + 1);
                                BatchQuery::Frequent { query, k, n0, n1 }
                            }
                            // n ≥ 3 keeps an ε=0.02 answer to at most a
                            // few percent of the points.
                            _ => BatchQuery::EpsMatch {
                                query,
                                eps: 0.02,
                                n: 3 + j % (d / 2 - 2),
                            },
                        }
                    }
                }
            })
            .collect()
    }
}

/// One write of the ingest stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// `INSERT` over a live key: replaces its point.
    Upsert { key: u32, point: Vec<f64> },
    /// `DELETE` of a live key.
    Delete { key: u32 },
    /// `INSERT` of the key deleted longest ago.
    Reinsert { key: u32, point: Vec<f64> },
}

/// The seeded write stream and the benchmark's shadow copy of the live
/// rows. 80 % upserts, 10 % deletes, 10 % re-inserts of the oldest
/// deleted key; a delete is swapped for an upsert once `MAX_DELETED`
/// keys are out, a re-insert when none is — so the live count stays
/// within `MAX_DELETED` of the cardinality and the run is stationary.
///
/// Ops are drawn one at a time ([`next_op`](Self::next_op)) and applied
/// to the shadow only once the server has acknowledged them
/// ([`apply`](Self::apply)); one writer connection with one op in flight
/// keeps the two in step.
#[derive(Debug)]
pub struct WriteStream {
    rng: Rng64,
    dims: usize,
    /// `rows[key]` is the live point under `key`, if any.
    rows: Vec<Option<Vec<f64>>>,
    live: Vec<u32>,
    /// `slot[key]` is `key`'s index in `live` (meaningless when deleted).
    slot: Vec<u32>,
    deleted: VecDeque<u32>,
}

impl WriteStream {
    pub fn new(ds: &Dataset, seed: u64) -> WriteStream {
        let c = ds.len();
        WriteStream {
            rng: seeded(seed ^ 0x003A_17E5),
            dims: ds.dims(),
            rows: (0..c as u32).map(|k| Some(ds.point(k).to_vec())).collect(),
            live: (0..c as u32).collect(),
            slot: (0..c as u32).collect(),
            deleted: VecDeque::new(),
        }
    }

    fn fresh_point(&mut self) -> Vec<f64> {
        (0..self.dims).map(|_| self.rng.next_f64()).collect()
    }

    fn random_live(&mut self) -> u32 {
        self.live[self.rng.range_usize(0..self.live.len())]
    }

    pub fn next_op(&mut self) -> WriteOp {
        let roll = self.rng.range_usize(0..10);
        if roll == 8 && self.deleted.len() < MAX_DELETED {
            return WriteOp::Delete {
                key: self.random_live(),
            };
        }
        if roll == 9 {
            if let Some(&key) = self.deleted.front() {
                return WriteOp::Reinsert {
                    key,
                    point: self.fresh_point(),
                };
            }
        }
        WriteOp::Upsert {
            key: self.random_live(),
            point: self.fresh_point(),
        }
    }

    /// Records an acknowledged op in the shadow copy.
    pub fn apply(&mut self, op: WriteOp) {
        match op {
            WriteOp::Upsert { key, point } => self.rows[key as usize] = Some(point),
            WriteOp::Delete { key } => {
                self.rows[key as usize] = None;
                let at = self.slot[key as usize] as usize;
                self.live.swap_remove(at);
                if let Some(&moved) = self.live.get(at) {
                    self.slot[moved as usize] = at as u32;
                }
                self.deleted.push_back(key);
            }
            WriteOp::Reinsert { key, point } => {
                let front = self.deleted.pop_front();
                debug_assert_eq!(front, Some(key));
                self.rows[key as usize] = Some(point);
                self.slot[key as usize] = self.live.len() as u32;
                self.live.push(key);
            }
        }
    }

    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The live `(key, point)` rows in ascending key order.
    pub fn live_rows(&self) -> Vec<(u32, &[f64])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(k, r)| r.as_deref().map(|p| (k as u32, p)))
            .collect()
    }
}

/// When op `i` of an open-loop stream at `rate` ops/s is due, in
/// nanoseconds after the stream's start.
pub fn due_ns(i: u64, rate: u32) -> u64 {
    i * 1_000_000_000 / u64::from(rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_schedule_is_evenly_spaced_and_exact_on_whole_seconds() {
        assert_eq!(due_ns(0, 1000), 0);
        assert_eq!(due_ns(1, 1000), 1_000_000);
        assert_eq!(due_ns(1000, 1000), 1_000_000_000);
        assert_eq!(due_ns(3, 3), 1_000_000_000);
        // No drift: op i is due at i/rate, not at a sum of rounded gaps.
        assert_eq!(due_ns(7 * 3 + 1, 3), 7_000_000_000 + 333_333_333);
    }

    #[test]
    fn same_seed_same_inputs() {
        let spec = Spec::by_name("plan-mixed").unwrap().smoke();
        let (a, b) = (spec.dataset(9), spec.dataset(9));
        assert_eq!(a, b);
        assert_eq!(spec.queries(&a, 9), spec.queries(&b, 9));
        assert_ne!(spec.queries(&a, 9), spec.queries(&a, 10));
        let (mut s, mut t) = (WriteStream::new(&a, 9), WriteStream::new(&a, 9));
        for _ in 0..500 {
            let (x, y) = (s.next_op(), t.next_op());
            assert_eq!(x, y);
            s.apply(x);
            t.apply(y);
        }
    }

    #[test]
    fn write_stream_stays_stationary_and_shadow_tracks_it() {
        let spec = Spec::by_name("ingest-mixed").unwrap().smoke();
        let ds = spec.dataset(3);
        let mut s = WriteStream::new(&ds, 3);
        let (mut upserts, mut deletes, mut reinserts) = (0, 0, 0);
        for _ in 0..20_000 {
            let op = s.next_op();
            match &op {
                WriteOp::Upsert { key, .. } => {
                    assert!(s.rows[*key as usize].is_some(), "upsert hits a live key");
                    upserts += 1;
                }
                WriteOp::Delete { key } => {
                    assert!(s.rows[*key as usize].is_some(), "delete hits a live key");
                    deletes += 1;
                }
                WriteOp::Reinsert { key, .. } => {
                    assert!(s.rows[*key as usize].is_none(), "re-insert hits a dead key");
                    reinserts += 1;
                }
            }
            s.apply(op);
            assert!(ds.len() - s.live_count() <= MAX_DELETED);
            assert_eq!(s.live_count(), s.live_rows().len());
        }
        assert!((15_000..17_500).contains(&upserts), "{upserts} upserts");
        assert!((1_500..2_500).contains(&deletes), "{deletes} deletes");
        assert!(
            (1_500..2_500).contains(&reinserts),
            "{reinserts} re-inserts"
        );
    }

    #[test]
    fn queries_are_valid_for_their_data() {
        for spec in SPECS {
            let spec = spec.smoke();
            let ds = spec.dataset(1);
            for q in spec.queries(&ds, 1) {
                let (query, ns) = match &q {
                    BatchQuery::KnMatch { query, k, n } => {
                        assert!((1..=ds.len()).contains(k));
                        (query, vec![*n])
                    }
                    BatchQuery::Frequent { query, k, n0, n1 } => {
                        assert!((1..=ds.len()).contains(k) && n0 <= n1);
                        (query, vec![*n0, *n1])
                    }
                    BatchQuery::EpsMatch { query, n, .. } => (query, vec![*n]),
                };
                assert_eq!(query.len(), spec.dims);
                assert!(query.iter().all(|v| (0.0..=1.0).contains(v)));
                assert!(ns.iter().all(|n| (1..=spec.dims).contains(n)));
            }
        }
    }
}
