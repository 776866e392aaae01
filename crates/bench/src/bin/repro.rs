//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p knmatch-bench --release --bin repro -- all
//! cargo run -p knmatch-bench --release --bin repro -- table4 fig11
//! cargo run -p knmatch-bench --release --bin repro -- --quick all
//! cargo run -p knmatch-bench --release --bin repro -- --quick --no-timing all
//! ```
//!
//! `--quick` runs every experiment at ~1/5 scale (minutes → seconds); the
//! default matches the paper's dataset sizes. Output is deterministic for
//! a given scale (seeded generators, counter-based cost model) except for
//! the `[name in X.Xs]` wall-clock lines, which `--no-timing` drops: that
//! output is what `results/repro_quick.txt` and `results/repro_full.txt`
//! hold, and `scripts/verify.sh` diffs the quick one against the tree.

use std::time::Instant;

use knmatch_bench::{run, run_efficiency_block, Scale, EXPERIMENTS};

fn main() {
    let mut scale = Scale::Full;
    let mut timing = true;
    let mut wanted: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" | "-q" => scale = Scale::Quick,
            "--no-timing" => timing = false,
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        print_help();
        return;
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    println!(
        "k-n-match reproduction — scale: {scale:?} (see EXPERIMENTS.md for the \
         paper-vs-measured record)\n"
    );
    // The four context-sharing efficiency figures run together when all are
    // requested, amortising one dataset/structure build.
    let eff_block: Vec<&str> = ["fig10", "fig11", "fig12", "fig15"]
        .into_iter()
        .filter(|f| wanted.iter().any(|w| w == f))
        .collect();
    let run_block_together = eff_block.len() > 1;

    for name in &wanted {
        if run_block_together && eff_block.contains(&name.as_str()) {
            continue;
        }
        run_one(name, scale, timing);
    }
    if run_block_together {
        let t = Instant::now();
        print!("{}", run_efficiency_block(scale, None));
        footer("figures 10/11/12/15", t, timing);
    }
}

/// Ends an experiment's report: its wall-clock line unless `timing` is
/// off, then a blank line.
fn footer(name: &str, started: Instant, timing: bool) {
    if timing {
        println!("[{name} in {:.1}s]", started.elapsed().as_secs_f64());
    }
    println!();
}

fn run_one(name: &str, scale: Scale, timing: bool) {
    let t = Instant::now();
    match run(name, scale) {
        Ok(report) => {
            print!("{report}");
            footer(name, t, timing);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn print_help() {
    println!("usage: repro [--quick] [--no-timing] <experiment>... | all");
    println!("experiments: {}", EXPERIMENTS.join(" "));
}
