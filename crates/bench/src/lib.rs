//! # knmatch-bench
//!
//! The reproduction harness: paper-scale experiment drivers shared by the
//! `repro` binary and the Criterion benches. Every table and figure of the
//! paper's Section 5 maps to one experiment name (see DESIGN.md §4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use knmatch_eval::experiments as exp;

/// The `p`-quantile (`0.0..=1.0`, nearest-rank, rounding down) of
/// `samples`, in any order — the one percentile every bench binary
/// reports.
///
/// # Panics
///
/// When `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// `git describe --always --dirty` of the working directory — the revision
/// a committed `BENCH_*.json` was measured at — or `"unknown"` outside a
/// checkout.
pub fn git_rev() -> String {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output();
    match git {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().into(),
        _ => "unknown".into(),
    }
}

/// Scale of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's sizes: 100k-point uniform data, the 68,040-point
    /// Texture stand-in, 100 class-stripping queries.
    Full,
    /// ~1/5 scale for smoke runs and CI.
    Quick,
}

impl Scale {
    /// Uniform-dataset cardinality for Figures 10–12.
    pub fn uniform_card(self) -> usize {
        match self {
            Scale::Full => 100_000,
            Scale::Quick => 20_000,
        }
    }

    /// Texture stand-in cardinality.
    pub fn texture_card(self) -> usize {
        match self {
            Scale::Full => 68_040,
            Scale::Quick => 16_000,
        }
    }

    /// Class-stripping queries per dataset.
    pub fn queries(self) -> usize {
        match self {
            Scale::Full => 100,
            Scale::Quick => 25,
        }
    }

    /// Query points per efficiency measurement.
    pub fn eff_queries(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Quick => 3,
        }
    }

    /// Cardinality sweep of Figure 13(b).
    pub fn fig13_sizes(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![50_000, 100_000, 200_000, 300_000],
            Scale::Quick => vec![10_000, 20_000, 40_000],
        }
    }

    /// Dimensionality sweep of Figure 14.
    pub fn fig14_dims(self) -> Vec<usize> {
        vec![8, 16, 32, 48]
    }

    /// Figure 14's per-dataset cardinality.
    pub fn fig14_card(self) -> usize {
        match self {
            Scale::Full => 100_000,
            Scale::Quick => 20_000,
        }
    }
}

/// Master seed for every reproduction run (deterministic output).
pub const SEED: u64 = 42;

/// The experiments the harness can run, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "fig1", "fig2", "fig3", "table2", "table3", "table4", "fig8a", "fig8b", "fig9a", "fig9b",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "ext1", "ext2", "ext3", "ext4", "ext5",
    "ext6",
];

/// Runs one experiment by name at the given scale, returning its report.
///
/// The figure-10/11/12/15 contexts are rebuilt per call; use
/// [`run_efficiency_block`] to amortise the build over all four.
///
/// # Errors
///
/// Returns an error string for unknown experiment names.
pub fn run(name: &str, scale: Scale) -> Result<String, String> {
    match name {
        "fig1" => Ok(fig1_report()),
        "fig2" => Ok(fig2_report()),
        "fig3" => Ok(fig3_report()),
        "table2" => Ok(exp::table2(SEED).to_string()),
        "table3" => Ok(exp::table3(SEED).to_string()),
        "table4" => Ok(exp::table4(SEED, scale.queries()).to_string()),
        "fig8a" => Ok(exp::fig8a(SEED, scale.queries()).to_string()),
        "fig8b" => Ok(exp::fig8b(SEED, scale.queries()).to_string()),
        "fig9a" => Ok(exp::fig9a(SEED, scale.queries()).to_string()),
        "fig9b" => Ok(exp::fig9b(SEED, scale.queries()).to_string()),
        "fig10" | "fig11" | "fig12" | "fig15" => Ok(run_efficiency_block(scale, Some(name))),
        "fig13" => Ok(exp::fig13(
            scale.uniform_card(),
            &scale.fig13_sizes(),
            &[10, 20, 30, 40],
            scale.eff_queries(),
            SEED,
        )
        .to_string()),
        "fig14" => Ok(exp::fig14(
            scale.fig14_card(),
            &scale.fig14_dims(),
            scale.eff_queries(),
            SEED,
        )
        .to_string()),
        "ext1" => Ok(exp::ext_curse(
            scale.fig14_card() / 2,
            &[2, 4, 8, 16, 32, 48],
            scale.eff_queries(),
            SEED,
        )
        .to_string()),
        "ext2" => Ok(exp::ext_cost_model(
            scale.uniform_card() / 2,
            &[1.0, 2.5, 5.0, 10.0, 20.0],
            scale.eff_queries(),
            SEED,
        )
        .to_string()),
        "ext3" => Ok(exp::ext_va_bits(
            scale.uniform_card() / 2,
            &[2, 4, 6, 8],
            scale.eff_queries(),
            SEED,
        )
        .to_string()),
        "ext4" => Ok(exp::ext_methods(SEED, scale.queries()).to_string()),
        "ext5" => Ok(exp::ext_stride(SEED, scale.queries(), &[1, 2, 3, 4, 6, 8]).to_string()),
        "ext6" => {
            Ok(exp::ext_igrid_bins(SEED, scale.queries(), &[2, 4, 8, 17, 32, 64]).to_string())
        }
        other => Err(format!(
            "unknown experiment '{other}'; expected one of {EXPERIMENTS:?} or 'all'"
        )),
    }
}

/// Runs the context-sharing efficiency figures (10, 11, 12, 15) in one
/// build; `only` restricts the output to a single figure.
pub fn run_efficiency_block(scale: Scale, only: Option<&str>) -> String {
    let mut ctx = exp::eff_context(
        scale.uniform_card(),
        scale.texture_card(),
        scale.eff_queries(),
        SEED,
    );
    let mut out = String::new();
    let ks = [10usize, 20, 30];
    if only.is_none() || only == Some("fig10") {
        out.push_str(&exp::fig10(&mut ctx, &ks).to_string());
    }
    if only.is_none() || only == Some("fig11") {
        out.push_str(&exp::fig11(&mut ctx, &ks).to_string());
    }
    if only.is_none() || only == Some("fig12") {
        out.push_str(&exp::fig12(&mut ctx, &[8, 10, 12, 14, 16], 20).to_string());
    }
    if only.is_none() || only == Some("fig15") {
        out.push_str(&exp::fig15(&mut ctx, &[6, 8, 10, 12, 14, 16], 20).to_string());
    }
    out
}

/// The paper's Figure 1 walk-through as text.
fn fig1_report() -> String {
    use knmatch_core::{k_n_match_scan, k_nearest, paper, Euclidean};
    let ds = paper::fig1_dataset();
    let q = paper::fig1_query();
    let nn = k_nearest(&ds, &q, 1, &Euclidean).expect("static data");
    let mut out = String::from("Figure 1: the motivating 10-d database, query (1,...,1)\n");
    out.push_str(&format!(
        "  Euclidean NN: object {} (the all-20s object)\n",
        nn[0].pid + 1
    ));
    for (n, eps) in [(6usize, 0.0), (7, 0.2), (8, 0.4)] {
        let m = k_n_match_scan(&ds, &q, 1, n).expect("static data");
        out.push_str(&format!(
            "  {n}-match: object {} (eps = {:.1}; paper says eps = {eps})\n",
            m.ids()[0] + 1,
            m.epsilon()
        ));
    }
    out
}

/// The paper's Figure 2 relationships as text.
fn fig2_report() -> String {
    use knmatch_core::{k_n_match_scan, paper, skyline_wrt};
    let ds = paper::fig2_dataset();
    let q = paper::fig2_query();
    let name = |pid: u32| (b'A' + pid as u8) as char;
    let names = |ids: &[u32]| ids.iter().map(|&p| name(p)).collect::<String>();
    let mut out = String::from("Figure 2: the 2-d n-match example (points A-E)\n");
    let m1 = k_n_match_scan(&ds, &q, 1, 1).expect("static data");
    let m2 = k_n_match_scan(&ds, &q, 1, 2).expect("static data");
    let m31 = k_n_match_scan(&ds, &q, 3, 1).expect("static data");
    let m22 = k_n_match_scan(&ds, &q, 2, 2).expect("static data");
    let sky = skyline_wrt(&ds, &q).expect("static data");
    out.push_str(&format!("  1-match: {}\n", names(&m1.ids())));
    out.push_str(&format!("  2-match: {}\n", names(&m2.ids())));
    let mut ids = m31.ids();
    ids.sort_unstable();
    out.push_str(&format!("  3-1-match: {{{}}}\n", names(&ids)));
    let mut ids = m22.ids();
    ids.sort_unstable();
    out.push_str(&format!("  2-2-match: {{{}}}\n", names(&ids)));
    out.push_str(&format!("  skyline:   {{{}}}\n", names(&sky)));
    out
}

/// The paper's Figure 3/5 running example as text.
fn fig3_report() -> String {
    use knmatch_core::{k_n_match_ad, paper, SortedColumns};
    let ds = paper::fig3_dataset();
    let q = paper::fig3_query();
    let mut cols = SortedColumns::build(&ds);
    let (res, stats) = k_n_match_ad(&mut cols, &q, 2, 2).expect("static data");
    let ids: Vec<u32> = res.ids().iter().map(|p| p + 1).collect();
    format!(
        "Figure 3/5: AD running example - 2-2-match of (3.0, 7.0, 4.0)\n  \
         answer: points {ids:?} (paper: {{2, 3}}), eps = {}\n  \
         {} attributes retrieved, {} triples popped (paper's walk pops 5)\n",
        res.epsilon(),
        stats.attributes_retrieved,
        stats.heap_pops
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_reports_match_paper() {
        let f1 = fig1_report();
        assert!(f1.contains("Euclidean NN: object 4"));
        assert!(f1.contains("6-match: object 3"));
        let f2 = fig2_report();
        assert!(f2.contains("1-match: A"));
        assert!(f2.contains("2-match: B"));
        assert!(f2.contains("3-1-match: {ADE}"));
        assert!(f2.contains("2-2-match: {AB}"));
        assert!(f2.contains("skyline:   {ABC}"));
        let f3 = fig3_report();
        assert!(f3.contains("[3, 2]"), "{f3}");
        assert!(f3.contains("eps = 1.5"));
    }

    #[test]
    fn percentile_is_nearest_rank_over_unsorted_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn run_rejects_unknown() {
        assert!(run("fig99", Scale::Quick).is_err());
    }

    #[test]
    fn run_table2_quick() {
        let out = run("table2", Scale::Quick).unwrap();
        assert!(out.contains("Table 2"));
    }
}
