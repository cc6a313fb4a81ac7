//! Percentiles, quartiles, output hashing and the seeded generator.

/// Percentiles tried, highest first, in per-mille. A timing is reported
/// at the highest one that leaves at least [`MIN_BEYOND`] samples above
/// it, so a tail figure is never read off fewer than ten samples.
const LADDER_PERMILLE: [u64; 9] = [999, 990, 980, 950, 900, 850, 800, 750, 500];

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: u64 = 10;

/// The highest ladder percentile (per-mille) with at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when no ladder
/// rung qualifies (fewer than 20 samples).
pub fn tail_permille(n: usize) -> u64 {
    let n = n as u64;
    LADDER_PERMILLE
        .iter()
        .copied()
        .find(|&pm| n - rank(n, pm) >= MIN_BEYOND)
        .unwrap_or(500)
}

/// Nearest-rank position (1-based) of per-mille `pm` among `n` samples.
fn rank(n: u64, pm: u64) -> u64 {
    (n * pm).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted samples; `NaN` when empty.
pub fn percentile(samples: &[f64], pm: u64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len() as u64, pm) as usize - 1]
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500)
}

/// A timing summary: median and the rule-chosen tail with its percentile.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_permille: u64,
}

impl Summary {
    /// Median, and the tail at the percentile the rule picks for this
    /// many samples.
    pub fn of(samples: &[f64]) -> Self {
        Self::at(samples, tail_permille(samples.len()))
    }

    /// Median, and the tail at per-mille `pm`.
    pub fn at(samples: &[f64], pm: u64) -> Self {
        Self {
            n: samples.len(),
            p50: median(samples),
            tail: percentile(samples, pm),
            tail_permille: pm,
        }
    }

    /// Samples ranked beyond the tail percentile.
    pub fn beyond(&self) -> usize {
        self.n
            .saturating_sub(rank(self.n as u64, self.tail_permille) as usize)
    }
}

/// The median of each `slice_s`-long slice of a `window_s`-long window,
/// averaged over the slices that hold samples. `samples` are `(offset in
/// seconds from the window start, value)`; the window is cut into whole
/// slices of equal length, as close to `slice_s` as fits.
///
/// On a shared host the speed of the box switches between phases that
/// last seconds. A pooled median jumps from one phase's latency to the
/// other's as their shares of the window cross a half; this statistic
/// moves in proportion to the shares, and each slice's median still
/// ignores that slice's outliers.
pub fn mean_of_slice_medians(samples: &[(f64, f64)], slice_s: f64, window_s: f64) -> f64 {
    let slices = (window_s / slice_s).round().max(1.0) as usize;
    let len = window_s / slices as f64;
    let mut by_slice = vec![Vec::new(); slices];
    for &(at, v) in samples {
        let i = ((at / len).floor().max(0.0) as usize).min(slices - 1);
        by_slice[i].push(v);
    }
    let medians: Vec<f64> = by_slice
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    if medians.is_empty() {
        return f64::NAN;
    }
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Quartiles `(q1, median, q3)` computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method),
/// so `compare` and the spread table agree with that tool.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len() as i64;
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let at = |i: i64| -> f64 {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    (at(1), at(2), at(3))
}

/// 64-bit hash over the f32 bit patterns of an output, one word per step.
/// Each step (`xor` the word in, multiply by an odd constant, xorshift)
/// is a bijection of the state for a fixed word, so any change to a
/// single word — one flipped bit included — always changes the final
/// hash.
pub fn hash_f32(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ data.len() as u64;
    for v in data {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// SplitMix64: the seeded stream behind every schedule and input choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(999), 980);
        assert_eq!(tail_permille(10_000), 999);
        assert_eq!(tail_permille(500), 980);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(90), 850);
        assert_eq!(tail_permille(60), 800);
        assert_eq!(tail_permille(45), 750);
        assert_eq!(tail_permille(19), 500);
        for n in [
            20usize, 40, 60, 67, 90, 99, 100, 199, 200, 499, 500, 999, 1000, 9999, 10_000,
        ] {
            let pm = tail_permille(n);
            let beyond = n as u64 - rank(n as u64, pm);
            assert!(beyond >= MIN_BEYOND, "n={n} pm={pm} beyond={beyond}");
            if let Some(&higher) = LADDER_PERMILLE.iter().rev().find(|&&p| p > pm) {
                let b = n as u64 - rank(n as u64, higher);
                assert!(b < MIN_BEYOND, "n={n}: {higher} also qualifies");
            }
        }
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 500).is_nan());
        let s = Summary::of(&v);
        assert_eq!((s.tail_permille, s.tail), (900, 90.0));
    }

    #[test]
    fn slice_medians_are_averaged_over_the_slices() {
        // Two slices of one second: medians 2 and 10, whatever the
        // outliers inside each.
        let samples = [
            (0.1, 1.0),
            (0.2, 2.0),
            (0.9, 50.0),
            (1.1, 9.0),
            (1.5, 10.0),
            (1.9, 11.0),
        ];
        assert_eq!(mean_of_slice_medians(&samples, 1.0, 2.0), 6.0);
        // A slower phase covering a quarter of the window moves the
        // statistic by a quarter of the gap, where a pooled median would
        // not move at all.
        let phases: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 0.1, if i < 10 { 9.0 } else { 6.0 }))
            .collect();
        assert!((mean_of_slice_medians(&phases, 1.0, 4.0) - 6.75).abs() < 1e-12);
        let pooled: Vec<f64> = phases.iter().map(|p| p.1).collect();
        assert_eq!(median(&pooled), 6.0);
        // Offsets at or past the window end count in the last slice, and
        // a window shorter than a slice is one slice.
        assert_eq!(mean_of_slice_medians(&[(2.0, 4.0)], 1.0, 2.0), 4.0);
        assert_eq!(
            mean_of_slice_medians(&[(0.2, 3.0), (0.4, 5.0), (0.6, 4.0)], 1.0, 0.7),
            4.0
        );
        assert!(mean_of_slice_medians(&[], 1.0, 2.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn hash_catches_a_single_flipped_bit() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32).sin()).collect();
        let h = hash_f32(&data);
        for (i, bit) in [(0usize, 0u32), (17, 31), (4095, 22), (2048, 7)] {
            let mut flipped = data.clone();
            flipped[i] = f32::from_bits(flipped[i].to_bits() ^ (1 << bit));
            assert_ne!(
                hash_f32(&flipped),
                h,
                "flip of bit {bit} in word {i} missed"
            );
        }
        assert_eq!(hash_f32(&data), h, "hash must be deterministic");
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = {
            let mut r = Rng::new(1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut r2 = Rng::new(2);
        assert_ne!(a[0], r2.next_u64());
        let mut r3 = Rng::new(3);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r3.unit())));
    }
}
