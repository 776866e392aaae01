//! Inner-loop kernels for the filter and scan hot paths.
//!
//! Everything here is plain safe `std` Rust written so LLVM's
//! autovectorizer reliably emits SIMD: branch-free straight-line bodies
//! over lanes the compiler can prove in-bounds. Where an explicit unroll
//! pays, the lane width is the only thing that varies per target — a
//! `#[cfg(target_feature)]` constant widens it when AVX2 (32 bytes per
//! vector) is compiled in, so a `-C target-cpu=native` build gets wider
//! stripes from the same source.
//!
//! Three kernel families live here:
//!
//! - [`abs_diffs`]: per-dimension absolute differences `|p_i − q_i|` of one
//!   row against the query — the refine/scan inner loop. It is the plain
//!   indexed loop: an 8-lane unroll and a runtime-dispatched AVX2
//!   intrinsic path were both measured against it and deleted (DESIGN.md
//!   §12 has the numbers);
//! - [`count_within`]: how many of those differences are within a
//!   threshold — the refine loop's pruning test, which lets a point that
//!   cannot rank skip the selection ([`nth_smallest`]) entirely;
//! - [`accumulate_band_hits`]: branchless per-point counting of dimensions
//!   whose quantised cell falls inside a query band — the rewritten VA-file
//!   approximation filter (see `knmatch-vafile`), which replaces the
//!   per-point float bound sort with one byte compare per attribute.
//!
//! [`accumulate_band_hits_scalar`] is the straightforward loop that kernel
//! replaced; it stays as the correctness oracle for the unit tests and as
//! the baseline the `planner_crossover` bench measures the speedup against.

use crate::MatchEntry;

/// Unroll width (in `u8` cells) of the band-count kernel. One AVX2 vector
/// holds 32 bytes; without AVX2 compiled in, 8 keeps the scalar pipeline
/// full without bloating the remainder loop.
#[cfg(target_feature = "avx2")]
const BYTE_LANES: usize = 16;
/// Unroll width (in `u8` cells) of the band-count kernel.
#[cfg(not(target_feature = "avx2"))]
const BYTE_LANES: usize = 8;

/// Writes `out[i] = |row[i] - query[i]|`. The length asserts up front let
/// the compiler drop the per-element bounds checks and vectorise the loop.
///
/// # Panics
///
/// Panics when the three slices differ in length.
pub fn abs_diffs(out: &mut [f64], row: &[f64], query: &[f64]) {
    assert_eq!(row.len(), query.len(), "row/query length mismatch");
    assert_eq!(out.len(), row.len(), "out/row length mismatch");
    for i in 0..row.len() {
        out[i] = (row[i] - query[i]).abs();
    }
}

/// `Σ [diffs_j ≤ t]`: how many values of `diffs` are at most `t`. The
/// body is a branch-free compare-and-add, so the loop vectorises like
/// [`abs_diffs`].
///
/// For NaN-free `diffs` and `t`, `count_within(diffs, t) >= n` holds
/// exactly when [`nth_smallest`]`(diffs, n) <= t`: the values `≤ t` are a
/// prefix of the sorted order. That is the refine loops' pruning test — a
/// point with fewer than `n` differences within the current k-th
/// n-match difference ranks strictly after it, so selecting its n-th
/// smallest would be wasted work.
pub fn count_within(diffs: &[f64], t: f64) -> usize {
    let mut within = 0usize;
    for &x in diffs {
        within += usize::from(x <= t);
    }
    within
}

/// For every point `i`, adds 1 to `counts[i]` when `cells[i]` lies in the
/// inclusive band `[lo, hi]` — one dimension's worth of the rewritten
/// VA-file filter, branch-free: in-band cells map to `[0, hi - lo]` under
/// a wrapping subtraction, so the test is a single unsigned compare per
/// byte and the whole loop vectorises to compare-and-subtract-mask.
///
/// `cells` is one dim-major column of quantised cell indices; callers
/// accumulate over dimensions and then threshold the counts (a point whose
/// count reaches `n` has an n-match-difference lower bound within the
/// query's threshold).
///
/// # Panics
///
/// Panics when `counts` and `cells` differ in length.
pub fn accumulate_band_hits(counts: &mut [u16], cells: &[u8], lo: u8, hi: u8) {
    assert_eq!(counts.len(), cells.len(), "counts/cells length mismatch");
    if lo > hi {
        return;
    }
    let span = hi - lo;
    let mut cs = counts.chunks_exact_mut(BYTE_LANES);
    let mut ks = cells.chunks_exact(BYTE_LANES);
    for (cs, ks) in (&mut cs).zip(&mut ks) {
        for j in 0..BYTE_LANES {
            cs[j] += u16::from(ks[j].wrapping_sub(lo) <= span);
        }
    }
    for (c, k) in cs.into_remainder().iter_mut().zip(ks.remainder()) {
        *c += u16::from(k.wrapping_sub(lo) <= span);
    }
}

/// The branchy per-cell loop [`accumulate_band_hits`] replaced (test
/// oracle and bench baseline).
///
/// # Panics
///
/// Panics when `counts` and `cells` differ in length.
pub fn accumulate_band_hits_scalar(counts: &mut [u16], cells: &[u8], lo: u8, hi: u8) {
    assert_eq!(counts.len(), cells.len(), "counts/cells length mismatch");
    for (c, &k) in counts.iter_mut().zip(cells) {
        if k >= lo && k <= hi {
            *c += 1;
        }
    }
}

/// The n-th smallest value of `buf` (1-based `n`), by in-place selection
/// under the canonical [`f64::total_cmp`] order. `buf` is reordered.
///
/// # Panics
///
/// Panics when `n` is 0 or exceeds `buf.len()`.
pub fn nth_smallest(buf: &mut [f64], n: usize) -> f64 {
    assert!(n >= 1 && n <= buf.len(), "n out of range");
    *buf.select_nth_unstable_by(n - 1, f64::total_cmp).1
}

/// Sorts `entries` into the canonical `(diff, pid)` answer order shared by
/// every exact backend (ascending difference, ties by ascending point id —
/// the PR-3 tie-break that makes answers a pure function of the data).
pub fn sort_canonical(entries: &mut [MatchEntry]) {
    entries.sort_unstable_by(|a, b| a.diff.total_cmp(&b.diff).then(a.pid.cmp(&b.pid)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn abs_diffs_matches_scalar_at_every_length() {
        for len in [0usize, 1, 5, 8, 9, 16, 31, 64, 100] {
            let row = pseudo(3, len);
            let q = pseudo(7, len);
            let mut got = vec![0.0; len];
            abs_diffs(&mut got, &row, &q);
            let want: Vec<f64> = row.iter().zip(&q).map(|(r, q)| (r - q).abs()).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn abs_diffs_bit_identical_on_special_values() {
        // Whatever vector code the loop compiles to must agree with
        // `f64::abs` bit-for-bit on every special value, padded out so a
        // vector body (not just a remainder loop) sees them.
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        let mut row = Vec::new();
        let mut q = Vec::new();
        for &a in &specials {
            for &b in &specials {
                row.push(a);
                q.push(b);
            }
        }
        let mut got = vec![0.0; row.len()];
        abs_diffs(&mut got, &row, &q);
        for i in 0..row.len() {
            assert_eq!(
                got[i].to_bits(),
                (row[i] - q[i]).abs().to_bits(),
                "slot {i}: |{} - {}|",
                row[i],
                q[i]
            );
        }
    }

    #[test]
    fn band_hits_match_scalar_at_every_length_and_band() {
        for len in [0usize, 1, 7, 8, 9, 40, 65] {
            let cells: Vec<u8> = (0..len).map(|i| ((i * 37 + 11) % 256) as u8).collect();
            for (lo, hi) in [(0u8, 255u8), (10, 10), (200, 100), (0, 0), (100, 180)] {
                let mut a = vec![0u16; len];
                let mut b = vec![0u16; len];
                accumulate_band_hits(&mut a, &cells, lo, hi);
                accumulate_band_hits_scalar(&mut b, &cells, lo, hi);
                assert_eq!(a, b, "len={len} band=({lo},{hi})");
            }
        }
    }

    #[test]
    fn band_hits_accumulate_across_calls() {
        let cells = vec![5u8, 100, 200];
        let mut counts = vec![0u16; 3];
        accumulate_band_hits(&mut counts, &cells, 0, 255);
        accumulate_band_hits(&mut counts, &cells, 0, 99);
        assert_eq!(counts, vec![2, 1, 1]);
    }

    #[test]
    fn nth_smallest_matches_full_sort() {
        let vals = pseudo(42, 33);
        for n in [1usize, 2, 17, 33] {
            let mut a = vals.clone();
            let got = nth_smallest(&mut a, n);
            let mut b = vals.clone();
            b.sort_unstable_by(f64::total_cmp);
            assert_eq!(got, b[n - 1], "n={n}");
        }
    }

    #[test]
    fn count_within_agrees_with_nth_smallest() {
        // `count_within(b, t) >= n` must be exactly `nth_smallest(b, n) <=
        // t` — the pruning test stands in for the selection it skips.
        let tiny = f64::MIN_POSITIVE;
        let buffers: Vec<Vec<f64>> = vec![
            pseudo(5, 16),
            pseudo(9, 7),
            // Tie-heavy: four distinct values.
            (0..16).map(|i| (i % 4) as f64 * 0.25).collect(),
            // Signed zeros beside small positives.
            vec![0.0, -0.0, 0.0, 1e-300, -0.0, 0.5, 0.0, -0.0],
            // Subnormals straddling the smallest normal.
            vec![
                tiny / 2.0,
                tiny,
                tiny / 4.0,
                0.0,
                tiny * 2.0,
                tiny / 2.0,
                5e-324,
            ],
        ];
        for b in &buffers {
            let mut thresholds: Vec<f64> = b.clone();
            thresholds.extend([-1.0, -0.0, 0.0, f64::INFINITY, 0.3, tiny / 3.0]);
            for &t in &thresholds {
                for n in 1..=b.len() {
                    let mut sel = b.clone();
                    assert_eq!(
                        count_within(b, t) >= n,
                        nth_smallest(&mut sel, n) <= t,
                        "b={b:?} t={t:e} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_sort_breaks_ties_by_pid() {
        let mut e = vec![
            MatchEntry { pid: 9, diff: 1.0 },
            MatchEntry { pid: 2, diff: 1.0 },
            MatchEntry { pid: 4, diff: 0.5 },
        ];
        sort_canonical(&mut e);
        assert_eq!(e.iter().map(|x| x.pid).collect::<Vec<_>>(), vec![4, 2, 9]);
    }
}
