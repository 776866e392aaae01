//! The repository's benchmark: four served-query workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced
//! one. See `README.md` beside this package.
//!
//! ```text
//! knmatch-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//! knmatch-benchmark run --seed N [--seconds S] [--trace 0|1] [--smoke] [--out FILE]   # all four
//! knmatch-benchmark compare A.json B.json
//! knmatch-benchmark manifest                                    # prints BENCHMARK.json
//! ```

mod alloc;
mod compare;
mod e2e;
mod host;
mod json;
mod manifest;
mod oracle;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::{obj, Json};
use workload::{EngineKind, Spec, SPECS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  knmatch-benchmark run [--workload W] --seed N [--seconds S] [--trace 0|1 | --traced] [--smoke] [--out FILE]
  knmatch-benchmark compare A.json B.json
  knmatch-benchmark manifest
workloads: lowcost, plan-mixed, disk-smallpool, ingest-mixed (all four, one process each, when --workload is absent)";

/// The package directory inside whichever checkout built this binary;
/// every file the benchmark writes goes under its `out/`.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        seed: 42,
        seconds: 0.0,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => run.workload = Some(value()?),
            "--seed" => {
                run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => run.traced = true,
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    run.seconds = seconds.unwrap_or(if run.smoke {
        2.0
    } else {
        manifest::RUN_SECONDS as f64
    });
    Ok(run)
}

fn spec_json(spec: &Spec) -> Json {
    let engine = match spec.engine {
        EngineKind::Plain => "memory, plain AD".to_string(),
        EngineKind::Planned => "memory, planner(auto)".to_string(),
        EngineKind::Disk { pool_pages } => {
            format!("disk, pool_pages={pool_pages}, verify=first-read")
        }
        EngineKind::Mutable { merge_threshold } => {
            format!("mutable, merge_threshold={merge_threshold}")
        }
    };
    obj([
        ("cardinality", Json::from(spec.cardinality)),
        ("dims", Json::from(spec.dims)),
        (
            "data",
            Json::from(if spec.skewed { "skewed" } else { "uniform" }),
        ),
        ("queries", Json::from(spec.queries)),
        ("engine", Json::from(engine)),
        ("engine_workers", Json::from(1usize)),
        ("executors", Json::from(spec.executors)),
        ("connections", Json::from(spec.connections)),
        ("window", Json::from(spec.window)),
        ("one_core", Json::from(spec.one_core)),
        ("text_batch", Json::from(workload::TEXT_BATCH)),
        ("text_window", Json::from(workload::TEXT_WINDOW)),
        (
            "write_rate_ops_s",
            spec.write_rate
                .map_or(Json::Null, |r| Json::from(u64::from(r))),
        ),
    ])
}

/// Runs one workload in this process; returns the result document and
/// whether every output was correct.
fn run_one(spec: Spec, args: &RunArgs) -> Result<(Json, bool), String> {
    let out_dir = package_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spec = if args.smoke { spec.smoke() } else { spec };
    let mut ctx = e2e::Ctx::prepare(spec, args.seed, args.seconds, out_dir);
    if ctx.spec.one_core {
        // From here on every thread — generator, reactor, executor —
        // runs on one core (see `host::pin_to_last_cpu` for why).
        ctx.pinned = host::pin_to_last_cpu();
        if ctx.pinned.is_none() {
            eprintln!("could not pin to one CPU: threads float, timings will be noisier");
        }
    }
    let outcome = if args.traced {
        trace::run(&ctx)?
    } else {
        e2e::run(&ctx)?
    };

    let attempted: u64 = outcome.phases.iter().map(|p| p.sent).sum();
    let failed: u64 = outcome.phases.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && attempted > 0;
    if ctx.spec.name == "disk-smallpool" {
        println!("# disk-smallpool reads are served by the sandbox's page cache: its latencies are the sandbox's, not a device's");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    println!(
        "{:<40} {:>16.6} ratio   ({failed} of {attempted} operations)",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect(),
    );
    let doc = obj([
        ("schema", Json::from("knmatch-benchmark/1")),
        ("workload", Json::from(ctx.spec.name)),
        ("why", Json::from(ctx.spec.why)),
        ("traced", Json::from(args.traced)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        (
            "provenance",
            obj([
                (
                    "git_revision",
                    Json::from(host::git_revision(
                        package_dir().parent().unwrap_or(package_dir()),
                    )),
                ),
                ("rustc", Json::from(host::rustc_version())),
                ("nproc", Json::from(ctx.nproc)),
                (
                    "pinned_cpu",
                    ctx.pinned.map_or(Json::Null, |(cpu, _)| Json::from(cpu)),
                ),
                ("parameters", spec_json(&ctx.spec)),
            ]),
        ),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "fail_ratio",
            Json::from(failed as f64 / attempted.max(1) as f64),
        ),
        ("metrics", metrics),
        (
            "phases",
            Json::Arr(outcome.phases.iter().map(|p| p.to_json()).collect()),
        ),
        ("detail", outcome.detail),
    ]);
    Ok((doc, correct))
}

fn default_out(name: &str, args: &RunArgs) -> PathBuf {
    let kind = if args.traced { "traced" } else { "e2e" };
    package_dir()
        .join("out")
        .join(format!("result-{name}-seed{}-{kind}.json", args.seed))
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's contract: the last line of standard output is one JSON
/// object with exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(doc: &Json) -> String {
    obj(["correct", "attempted", "failed", "metrics"].map(|k| {
        (
            k,
            doc.get(k)
                .cloned()
                .expect("result documents carry this key"),
        )
    }))
    .render()
}

fn run_single(name: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let spec = Spec::by_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let (doc, correct) = run_one(spec, args)?;
    let path = args.out.clone().unwrap_or_else(|| default_out(name, args));
    write_doc(&path, &doc)?;
    eprintln!("wrote {}", path.display());
    println!("{}", result_line(&doc));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// All four workloads, each in a process of its own so that peak memory
/// and allocator state are per workload; their result documents are
/// gathered into one file.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut docs = Vec::new();
    let mut all_correct = true;
    for spec in SPECS {
        let part = default_out(spec.name, args);
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.smoke {
            cmd.arg("--smoke");
        }
        println!("## {}", spec.name);
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        docs.push(json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?);
    }
    let kind = if args.traced { "traced" } else { "e2e" };
    let path = args.out.clone().unwrap_or_else(|| {
        package_dir()
            .join("out")
            .join(format!("result-all-seed{}-{kind}.json", args.seed))
    });
    let doc = obj([
        ("schema", Json::from("knmatch-benchmark/1")),
        ("workloads", Json::Arr(docs)),
    ]);
    write_doc(&path, &doc)?;
    eprintln!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|run| match run.workload.clone() {
            Some(name) => run_single(&name, &run),
            None => run_all(&run),
        }),
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("manifest") => {
            print!("{}", manifest::benchmark_json().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
