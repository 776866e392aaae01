//! `compare A.json B.json`: two result files of the same benchmark
//! (single-workload or gathered), metric by metric against the bounds
//! in `manifest`. A is the base every ratio is taken against.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{parse, Json};
use crate::manifest::{Better, END_TO_END, PER_LAYER};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The within-run spread is wider than the bound: the two medians
    /// cannot be told apart at this bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the value got worse from `a` to `b` (negative
/// when it got better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `spread` is the wider of the two sides' (max − min) ÷ median over
/// slices, 0 for a metric measured once per run.
pub fn verdict(a: f64, b: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worsening(a, b, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(match doc.get("workloads").and_then(Json::as_arr) {
        Some(all) => all.to_vec(),
        None => vec![doc],
    })
}

fn metric(doc: &Json, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// (max − min) ÷ median of the per-slice (or per-set-up) values behind
/// a metric; 0 when the run measured it once.
fn spread(doc: &Json, name: &str) -> f64 {
    // Set-ups keep their times in one list; sliced metrics keep theirs
    // under the metric's own name.
    let values: Option<Vec<f64>> = doc
        .get("detail")
        .and_then(|d| match name {
            "setup_s" => d.get("setups_s"),
            _ => d.get(name).and_then(|m| m.get("slices")),
        })
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect());
    match values {
        Some(v) if v.len() > 1 => {
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (hi - lo) / median(&v)
        }
        _ => 0.0,
    }
}

fn key(doc: &Json) -> (String, bool) {
    (
        doc.get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        doc.get("traced") == Some(&Json::Bool(true)),
    )
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a_docs, b_docs) = (load(a_path)?, load(b_path)?);
    let mut regressed = 0;
    let mut compared = 0;
    for a in &a_docs {
        let Some(b) = b_docs.iter().find(|b| key(b) == key(a)) else {
            continue;
        };
        let (workload, traced) = key(a);
        if traced {
            println!("## {workload} (traced): counts that must repeat exactly");
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                if let (Some(x), Some(y)) = (metric(a, m.name), metric(b, m.name)) {
                    compared += 1;
                    let same = x.to_bits() == y.to_bits();
                    regressed += usize::from(!same);
                    println!(
                        "{:<34} {x:>16.6} {y:>16.6}  {}",
                        m.name,
                        if same { "identical" } else { "DIFFERS" }
                    );
                }
            }
            continue;
        }
        println!("## {workload}");
        println!(
            "{:<18} {:>14} {:>14} {:>8} {:>8} {:>7} {:>6}  verdict",
            "metric", "A", "B", "spreadA", "spreadB", "B/A", "bound"
        );
        for m in END_TO_END {
            let (Some(x), Some(y)) = (metric(a, m.name), metric(b, m.name)) else {
                continue;
            };
            compared += 1;
            let (sa, sb) = (spread(a, m.name), spread(b, m.name));
            let v = verdict(x, y, sa.max(sb), m.better, m.bound);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{:<18} {x:>14.4} {y:>14.4} {sa:>8.3} {sb:>8.3} {:>7.3} {:>6.2}  {}",
                m.name,
                y / x,
                m.bound,
                v.as_str()
            );
        }
        for side in [a, b] {
            if side.get("correct") != Some(&Json::Bool(true)) {
                regressed += 1;
                println!("fail_ratio: a run of {workload} reported incorrect outputs — regressed");
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no workload to compare".into());
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 112.0, Better::Lower) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 88.0, Better::Higher) - 0.12).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
        assert!(worsening(100.0, 110.0, Better::Higher) < 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            verdict(100.0, 105.0, 0.02, Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(100.0, 115.0, 0.02, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(100.0, 85.0, 0.02, Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(100.0, 150.0, 0.02, Better::Higher, 0.10),
            Verdict::Ok
        );
        // A spread wider than the bound decides nothing either way.
        assert_eq!(
            verdict(100.0, 115.0, 0.30, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, 0.30, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
