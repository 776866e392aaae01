//! Inner-loop kernels for the filter and scan hot paths.
//!
//! Everything here is plain safe `std` Rust written so LLVM's
//! autovectorizer reliably emits SIMD: branch-free straight-line bodies
//! over lanes the compiler can prove in-bounds: plain loops over slices,
//! or over `[u8; 16]` arrays where a kernel works on one 128-bit vector at
//! a time. Nothing varies per target; a `-C target-cpu=native` build gets
//! wider vectors from the same source.
//!
//! Four kernel families live here:
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
//!   per-point float bound sort with one byte compare per attribute. The
//!   counts are bytes with saturating adds, so one 128-bit vector holds 16
//!   of them, and [`at_least_mask`] reads a [`RUN`] of 16 counts against
//!   the hit floor in one compare;
//! - [`sort_lanes`]: a byte sorting network ([`sorting_network`]) run on 16
//!   points at once, one `[u8; 16]` vector per dimension — the frequent
//!   filter's per-level test takes order statistics of per-dimension cell
//!   distances from it.
//!
//! [`accumulate_band_hits_scalar`] is the straightforward loop the band
//! kernel replaced; it stays as the correctness oracle for the unit tests.

use crate::MatchEntry;

/// Points per run of the band filter's candidate read: 16 byte counts are
/// one 128-bit vector.
pub const RUN: usize = 16;

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
/// byte, and the add saturates at 255, so the whole loop vectorises to
/// compare-and-saturating-add over 16 (32 with AVX2) counts per
/// instruction.
///
/// `cells` is one dim-major column of quantised cell indices; callers
/// accumulate over dimensions and then threshold the counts (a point whose
/// count reaches `n` has an n-match-difference lower bound within the
/// query's threshold). A count that saturates stays at 255, so a floor
/// clamped to 255 keeps every point whose true count reaches it: past
/// 255 dimensions the test keeps a superset.
///
/// # Panics
///
/// Panics when `counts` and `cells` differ in length.
pub fn accumulate_band_hits(counts: &mut [u8], cells: &[u8], lo: u8, hi: u8) {
    assert_eq!(counts.len(), cells.len(), "counts/cells length mismatch");
    if lo > hi {
        return;
    }
    let span = hi - lo;
    for (c, &k) in counts.iter_mut().zip(cells) {
        *c = c.saturating_add(u8::from(k.wrapping_sub(lo) <= span));
    }
}

/// The branchy per-cell loop [`accumulate_band_hits`] replaced (test
/// oracle).
///
/// # Panics
///
/// Panics when `counts` and `cells` differ in length.
pub fn accumulate_band_hits_scalar(counts: &mut [u8], cells: &[u8], lo: u8, hi: u8) {
    assert_eq!(counts.len(), cells.len(), "counts/cells length mismatch");
    for (c, &k) in counts.iter_mut().zip(cells) {
        if k >= lo && k <= hi && *c < u8::MAX {
            *c += 1;
        }
    }
}

/// Bit `i` set for every `run[i] >= floor`: which of a run's 16 points
/// reach the hit floor, from one byte compare and [`pack_lanes`]. A zero
/// mask skips the run.
pub fn at_least_mask(run: &[u8; RUN], floor: u8) -> u16 {
    let mut hit = [0u8; RUN];
    for (b, &h) in hit.iter_mut().zip(run) {
        *b = u8::from(h >= floor);
    }
    pack_lanes(&hit)
}

/// Packs 16 bytes that are each 0 or 1 into 16 bits, byte `i` to bit `i`:
/// a multiply gathers each half's 8 bytes into its top byte. Byte `i`
/// times the multiplier's byte `7 − i` lands on bit `56 + i`, and every
/// other product lands below bit 56 on a bit of its own, or past bit 63,
/// so nothing carries into the result.
pub fn pack_lanes(bits: &[u8; RUN]) -> u16 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let word = u128::from_le_bytes(*bits);
    let half = |h: u64| (h.wrapping_mul(GATHER) >> 56) as u16;
    half(word as u64) | half((word >> 64) as u64) << 8
}

/// The compare-exchanges `(i, j)`, `i < j`, of Batcher's merge-exchange
/// sort over `n` elements (Knuth, TAOCP 5.2.2, Algorithm M): applied in
/// order, they sort any `n` values. Any `n` works, not only powers of two;
/// 16 elements take 63 steps.
///
/// # Panics
///
/// Panics when `n > 256` (the indices are bytes).
pub fn sorting_network(n: usize) -> Vec<(u8, u8)> {
    assert!(n <= 256, "a byte network sorts at most 256 elements");
    let mut steps = Vec::new();
    if n < 2 {
        return steps;
    }
    let t = usize::BITS - (n - 1).leading_zeros();
    let mut p = 1usize << (t - 1);
    while p > 0 {
        let (mut q, mut r, mut d) = (1usize << (t - 1), 0usize, p);
        loop {
            for i in 0..n - d {
                if i & p == r {
                    steps.push((i as u8, (i + d) as u8));
                }
            }
            if q == p {
                break;
            }
            d = q - p;
            q >>= 1;
            r = p;
        }
        p >>= 1;
    }
    steps
}

/// Runs `network` ([`sorting_network`]) over `rows`, lane by lane: after
/// it, every lane `i` of `rows[0][i], rows[1][i], …` ascends. Each
/// compare-exchange is a saturating subtract, a subtract and an add over
/// 16 bytes (`min`/`max` compiled to a per-byte branch instead).
///
/// # Panics
///
/// Panics when a step indexes past `rows`.
pub fn sort_lanes(rows: &mut [[u8; RUN]], network: &[(u8, u8)]) {
    for &(i, j) in network {
        let (a, b) = (rows[i as usize], rows[j as usize]);
        let (mut lo, mut hi) = ([0u8; RUN], [0u8; RUN]);
        for l in 0..RUN {
            let t = a[l].saturating_sub(b[l]);
            lo[l] = a[l] - t;
            hi[l] = b[l] + t;
        }
        rows[i as usize] = lo;
        rows[j as usize] = hi;
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
                let mut a = vec![0u8; len];
                let mut b = vec![0u8; len];
                accumulate_band_hits(&mut a, &cells, lo, hi);
                accumulate_band_hits_scalar(&mut b, &cells, lo, hi);
                assert_eq!(a, b, "len={len} band=({lo},{hi})");
            }
        }
    }

    #[test]
    fn band_hits_accumulate_across_calls() {
        let cells = vec![5u8, 100, 200];
        let mut counts = vec![0u8; 3];
        accumulate_band_hits(&mut counts, &cells, 0, 255);
        accumulate_band_hits(&mut counts, &cells, 0, 99);
        assert_eq!(counts, vec![2, 1, 1]);
    }

    #[test]
    fn band_hits_saturate_at_255() {
        let cells: Vec<u8> = (0..40).map(|i| (i * 7) as u8).collect();
        let mut a = vec![250u8; cells.len()];
        let mut b = a.clone();
        // Six bands that hold every cell, then four that hold some: every
        // count reaches 255 on the sixth add and stays there.
        for dim in 0..10u8 {
            let hi = if dim < 6 { 255 } else { 255 - dim * 20 };
            accumulate_band_hits(&mut a, &cells, 0, hi);
            accumulate_band_hits_scalar(&mut b, &cells, 0, hi);
        }
        assert_eq!(a, b);
        assert!(a.iter().all(|&h| h == 255), "{a:?}");
    }

    #[test]
    fn lanes_pack_to_their_own_bits() {
        for mask in [0u16, 1, 0x8000, 0xffff, 0xa5c3, 0x0ff0, 0x1234] {
            let bits: [u8; RUN] = std::array::from_fn(|i| u8::from(mask >> i & 1 == 1));
            assert_eq!(pack_lanes(&bits), mask);
        }
    }

    #[test]
    fn run_mask_marks_the_counts_at_the_floor() {
        let run: [u8; RUN] = std::array::from_fn(|i| (i * 17) as u8);
        for floor in [0u8, 1, 17, 100, 254, 255] {
            let want = (0..RUN).fold(0u16, |m, i| m | (u16::from(run[i] >= floor) << i));
            assert_eq!(at_least_mask(&run, floor), want, "floor={floor}");
        }
        assert_eq!(at_least_mask(&[0; RUN], 1), 0);
    }

    #[test]
    fn byte_network_sorts_every_lane_at_every_width() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for n in [0usize, 1, 2, 3, 5, 8, 15, 16, 17, 31, 32, 33, 64] {
            let net = sorting_network(n);
            assert!(net.iter().all(|&(i, j)| i < j && (j as usize) < n));
            for round in 0..20 {
                // Few distinct values in half the rounds: ties and
                // duplicates in every lane, 0 and 255 included.
                let rows_in: Vec<[u8; RUN]> = (0..n)
                    .map(|_| {
                        std::array::from_fn(|_| match round % 2 {
                            0 => next() as u8,
                            _ => [0u8, 1, 254, 255][(next() % 4) as usize],
                        })
                    })
                    .collect();
                let mut rows = rows_in.clone();
                sort_lanes(&mut rows, &net);
                for lane in 0..RUN {
                    let mut want: Vec<u8> = rows_in.iter().map(|r| r[lane]).collect();
                    want.sort_unstable();
                    let got: Vec<u8> = rows.iter().map(|r| r[lane]).collect();
                    assert_eq!(got, want, "n={n} lane={lane}");
                }
            }
        }
        assert_eq!(sorting_network(16).len(), 63);
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
