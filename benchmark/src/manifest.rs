//! The benchmark's declared surface — command, workloads, metrics and
//! bounds — in one place. `BENCHMARK.json` at the repository root is
//! this table rendered (`knmatch-benchmark manifest`); a unit test
//! holds the two together.

use crate::json::{obj, Json};
use crate::workload::SPECS;

/// Seconds one run measures (`--seconds` as the driver passes it).
pub const RUN_SECONDS: u64 = 20;

pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the served system sees.
/// `bound` is the share of the parent's median by which it may worsen
/// before a change counts as a regression. Every bound sits at the
/// contract's ceiling of 0.25: on this shared two-core host identical
/// sets differ by up to 0.23 and the spread over ten seeds reaches
/// 0.23, a third of which no bound under the ceiling allows (see "A/A
/// evidence and the bounds" in README.md).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps_text_batch",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_query",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric, named `<layer>.<metric>` after the module it
/// measures. `exact` marks counts that must repeat bit for bit for a
/// fixed seed.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 65] = [
    layer("client.encode_us.bin", "us", Lower),
    layer("client.encode_us.text", "us", Lower),
    layer("client.decode_us.bin", "us", Lower),
    layer("client.decode_us.text", "us", Lower),
    layer("client.lat_p99_us", "us", Lower),
    layer("client.lat_max_us", "us", Lower),
    layer("protocol.parse_us.bin", "us", Lower),
    layer("protocol.parse_us.text", "us", Lower),
    layer("protocol.encode_us.bin", "us", Lower),
    layer("protocol.encode_us.text", "us", Lower),
    count("protocol.req_bytes", "B", Lower),
    count("protocol.resp_bytes", "B", Lower),
    count("protocol.allocs_per_query", "count", Lower),
    layer("reactor.residual_us", "us", Lower),
    layer("reactor.polls_per_query", "count", Lower),
    layer("reactor.events_per_poll", "count", Higher),
    layer("reactor.writev_per_query", "count", Lower),
    layer("reactor.pipeline_depth_max", "count", Higher),
    layer("reactor.allocs_per_query", "count", Lower),
    layer("reactor.wire_efficiency", "ratio", Higher),
    layer("planner.plan_us", "us", Lower),
    layer("planner.build_s", "s", Lower),
    count("planner.share_ad", "ratio", Higher),
    count("planner.share_vafile", "ratio", Higher),
    count("planner.share_scan", "ratio", Higher),
    layer("planner.regret", "ratio", Lower),
    layer("planner.misroute_ratio", "ratio", Lower),
    layer("planner.qps_planned", "1/s", Higher),
    layer("engine.exec_us", "us", Lower),
    count("engine.attrs_per_query", "count", Lower),
    count("engine.pops_per_query", "count", Lower),
    count("engine.locate_probes_per_query", "count", Lower),
    count("engine.retrieved_fraction", "ratio", Lower),
    layer("engine.ns_per_attr", "ns", Lower),
    layer("engine.direct_qps", "1/s", Higher),
    layer("engine.w2_speedup", "ratio", Higher),
    count("engine.allocs_per_query", "count", Lower),
    layer("columns.build_s", "s", Lower),
    count("storage.pages_per_query", "count", Lower),
    count("storage.seq_share", "ratio", Higher),
    layer("storage.pool_hit_ratio", "ratio", Higher),
    layer("storage.store_reads_per_query", "count", Lower),
    layer("storage.retries", "count", Lower),
    layer("storage.first_pass_ratio", "ratio", Lower),
    layer("storage.exec_over_memory", "ratio", Lower),
    layer("storage.create_s", "s", Lower),
    layer("storage.open_s", "s", Lower),
    count("storage.space_amp", "ratio", Lower),
    layer("versioned.insert_us", "us", Lower),
    layer("versioned.remove_us", "us", Lower),
    layer("versioned.seal_us", "us", Lower),
    layer("versioned.maintain_us", "us", Lower),
    layer("versioned.merges", "count", Higher),
    layer("versioned.runs_mean", "count", Lower),
    layer("versioned.runs_max", "count", Lower),
    layer("versioned.delta_mean", "count", Lower),
    layer("versioned.tombstones_max", "count", Lower),
    layer("versioned.read_amp", "ratio", Lower),
    layer("versioned.writer_late_ms", "ms", Lower),
    layer("versioned.write_ops_s", "1/s", Higher),
    layer("versioned.write_lat_p95_us", "us", Lower),
    layer("host.calib_before_ns", "ns", Lower),
    layer("host.calib_after_ns", "ns", Lower),
    count("host.nproc", "count", Higher),
    layer("host.trace_overhead_ratio", "ratio", Lower),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| obj([("name", Json::from(s.name)), ("why", Json::from(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        let mut names = BTreeSet::new();
        for s in SPECS {
            assert!(name_ok(s.name) && names.insert(s.name), "{}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        assert!((2..=8).contains(&SPECS.len()));
        for m in END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for m in PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
    }

    /// The committed `BENCHMARK.json` is this table, not a copy that
    /// can drift: regenerate it with `knmatch-benchmark manifest`.
    #[test]
    fn committed_benchmark_json_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&committed).expect("BENCHMARK.json parses"),
            benchmark_json()
        );
    }
}
