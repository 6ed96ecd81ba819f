//! # wsyn-datagen — seeded synthetic workloads for wavelet-synopsis
//! experiments
//!
//! The PODS 2004 paper defers its empirical study; its companion papers
//! (Garofalakis & Gibbons, SIGMOD'02/TODS'04; Vitter & Wang; Chakrabarti
//! et al.) evaluate wavelet synopses on skewed frequency vectors and
//! OLAP-style measure arrays. This crate generates seeded synthetic
//! stand-ins exercising the same regimes:
//!
//! * [`zipf`] — Zipfian frequency vectors (the classic selectivity
//!   workload), with configurable skew and value placement;
//! * [`gaussian_bumps`] — smooth multi-modal signals with optional noise
//!   (locally smooth data where wavelets shine);
//! * [`piecewise_constant`] — step signals (the adversarial case for L2
//!   thresholding under relative error: flat regions of small values);
//! * [`spikes`] — mostly-flat signals with a few large isolated spikes
//!   (sparse wavelet coefficients, the greedy-L2 worst case, and the
//!   shape where wavelets beat step-function histograms);
//! * [`cube_bumps`] — multi-dimensional Gaussian-bump hypercubes for the
//!   §3.2 schemes;
//! * quantization & padding helpers.
//!
//! All generators are deterministic given a seed (`StdRng::seed_from_u64`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Narrowing casts are linted in the solver crates only (DESIGN.md §8).
#![allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How Zipfian frequencies are placed over the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZipfPlacement {
    /// Largest frequency at index 0, monotonically decreasing (the
    /// textbook picture; smooth for wavelets).
    Decreasing,
    /// Frequencies assigned to random positions (seeded) — spiky, the hard
    /// case for thresholding.
    Shuffled,
}

/// A Zipfian frequency vector: `f_rank ∝ 1/rank^skew`, scaled so the
/// frequencies sum to (approximately) `total` and rounded to integers.
///
/// `skew = 0` is uniform; `skew ≈ 1` classic Zipf; larger is more skewed.
///
/// # Panics
/// Panics when `n == 0`.
pub fn zipf(n: usize, skew: f64, total: f64, placement: ZipfPlacement, seed: u64) -> Vec<f64> {
    assert!(n > 0, "empty domain");
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(skew)).collect();
    let sum: f64 = weights.iter().sum();
    let mut freqs: Vec<f64> = weights.iter().map(|w| (w / sum * total).round()).collect();
    if let ZipfPlacement::Shuffled = placement {
        let mut rng = StdRng::seed_from_u64(seed);
        freqs.shuffle(&mut rng);
    }
    freqs
}

/// A sum of `bumps` Gaussian bumps over `[0, n)` plus i.i.d. noise:
/// centers, amplitudes (in `amp_range`) and widths (in `width_range`,
/// as a fraction of `n`) are drawn from the seeded RNG;
/// `noise_sigma ≥ 0` adds Gaussian noise (Box–Muller).
///
/// # Panics
/// Panics when `n == 0` or a range is inverted.
pub fn gaussian_bumps(
    n: usize,
    bumps: usize,
    amp_range: (f64, f64),
    width_range: (f64, f64),
    noise_sigma: f64,
    seed: u64,
) -> Vec<f64> {
    assert!(n > 0, "empty domain");
    assert!(amp_range.0 <= amp_range.1 && width_range.0 <= width_range.1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0.0f64; n];
    for _ in 0..bumps {
        let center = rng.gen_range(0.0..n as f64);
        let amp = rng.gen_range(amp_range.0..=amp_range.1);
        let width = rng.gen_range(width_range.0..=width_range.1) * n as f64;
        for (i, v) in out.iter_mut().enumerate() {
            let z = (i as f64 - center) / width.max(1e-9);
            *v += amp * (-0.5 * z * z).exp();
        }
    }
    if noise_sigma > 0.0 {
        for v in &mut out {
            *v += noise_sigma * gauss(&mut rng);
        }
    }
    out
}

/// A piecewise-constant signal with `segments` random-length segments whose
/// levels are drawn uniformly from `value_range`, plus optional noise.
///
/// # Panics
/// Panics when `n == 0` or `segments == 0`.
pub fn piecewise_constant(
    n: usize,
    segments: usize,
    value_range: (f64, f64),
    noise_sigma: f64,
    seed: u64,
) -> Vec<f64> {
    assert!(n > 0 && segments > 0, "empty domain or zero segments");
    let mut rng = StdRng::seed_from_u64(seed);
    // Random segment boundaries.
    let mut cuts: Vec<usize> = (0..segments - 1).map(|_| rng.gen_range(0..n)).collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = vec![0.0f64; n];
    for w in cuts.windows(2) {
        let level = rng.gen_range(value_range.0..=value_range.1);
        for v in &mut out[w[0]..w[1]] {
            *v = level;
        }
    }
    if noise_sigma > 0.0 {
        for v in &mut out {
            *v += noise_sigma * gauss(&mut rng);
        }
    }
    out
}

/// A mostly-flat signal (uniform noise in `noise_range`) with `count`
/// large isolated spikes whose magnitudes are drawn from `spike_range`
/// and whose signs are coin flips. Each spike occupies a single cell,
/// so the wavelet transform is sparse while any step function must
/// spend two bucket boundaries per spike — the shape where the two
/// synopsis families diverge the most.
///
/// # Panics
/// Panics when `n == 0` or a range is inverted.
pub fn spikes(
    n: usize,
    count: usize,
    spike_range: (f64, f64),
    noise_range: (f64, f64),
    seed: u64,
) -> Vec<f64> {
    assert!(n > 0, "empty domain");
    assert!(spike_range.0 <= spike_range.1 && noise_range.0 <= noise_range.1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(noise_range.0..=noise_range.1))
        .collect();
    for _ in 0..count {
        let i = rng.gen_range(0..n);
        let sign = if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 };
        out[i] = sign * rng.gen_range(spike_range.0..=spike_range.1);
    }
    out
}

/// A `D`-dimensional hypercube (`side^d` cells, row-major) filled with
/// Gaussian bumps plus a constant base level — the multi-dimensional
/// workload for the §3.2 schemes.
///
/// # Panics
/// Panics when `side == 0` or `d == 0`.
pub fn cube_bumps(
    side: usize,
    d: usize,
    bumps: usize,
    amp_range: (f64, f64),
    base: f64,
    seed: u64,
) -> Vec<f64> {
    assert!(side > 0 && d > 0, "degenerate cube");
    let n: usize = side.pow(d as u32);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![base; n];
    let centers: Vec<(Vec<f64>, f64, f64)> = (0..bumps)
        .map(|_| {
            let c: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..side as f64)).collect();
            let amp = rng.gen_range(amp_range.0..=amp_range.1);
            let width = rng.gen_range(0.05..=0.3) * side as f64;
            (c, amp, width)
        })
        .collect();
    let mut coords = vec![0usize; d];
    for (idx, v) in out.iter_mut().enumerate() {
        // Delinearize (row-major, last dim fastest).
        let mut rem = idx;
        for k in (0..d).rev() {
            coords[k] = rem % side;
            rem /= side;
        }
        for (c, amp, width) in &centers {
            let z2: f64 = coords
                .iter()
                .zip(c)
                .map(|(&x, &cc)| {
                    let z = (x as f64 - cc) / width.max(1e-9);
                    z * z
                })
                .sum();
            *v += amp * (-0.5 * z2).exp();
        }
    }
    out
}

/// Rounds a float signal to `i64` values (for the integer-only `(1+ε)`
/// scheme of §3.2.2).
pub fn quantize_to_i64(data: &[f64]) -> Vec<i64> {
    data.iter().map(|&v| v.round() as i64).collect()
}

/// Pads a vector with `fill` up to the next power of two (the paper's
/// algorithms require power-of-two domains).
pub fn pad_to_pow2(mut data: Vec<f64>, fill: f64) -> Vec<f64> {
    let n = data.len().max(1);
    let target = n.next_power_of_two();
    data.resize(target, fill);
    data
}

/// A standard-normal sample via Box–Muller.
fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_decreasing_is_monotone_and_sums_to_total() {
        let f = zipf(64, 1.0, 10_000.0, ZipfPlacement::Decreasing, 0);
        assert_eq!(f.len(), 64);
        for w in f.windows(2) {
            assert!(w[0] >= w[1]);
        }
        let sum: f64 = f.iter().sum();
        assert!((sum - 10_000.0).abs() < 64.0, "sum {sum}"); // rounding slack
                                                             // Skew: the head dominates.
        assert!(f[0] > 10.0 * f[32]);
    }

    #[test]
    fn zipf_shuffled_is_permutation_of_decreasing() {
        let a = zipf(32, 0.8, 5_000.0, ZipfPlacement::Decreasing, 7);
        let mut b = zipf(32, 0.8, 5_000.0, ZipfPlacement::Shuffled, 7);
        b.sort_by(|x, y| y.total_cmp(x));
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let f = zipf(16, 0.0, 1600.0, ZipfPlacement::Decreasing, 0);
        assert!(f.iter().all(|&v| v == 100.0));
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(
            gaussian_bumps(128, 4, (10.0, 50.0), (0.02, 0.1), 1.0, 99),
            gaussian_bumps(128, 4, (10.0, 50.0), (0.02, 0.1), 1.0, 99)
        );
        assert_ne!(
            gaussian_bumps(128, 4, (10.0, 50.0), (0.02, 0.1), 1.0, 99),
            gaussian_bumps(128, 4, (10.0, 50.0), (0.02, 0.1), 1.0, 100)
        );
        assert_eq!(
            piecewise_constant(64, 6, (0.0, 100.0), 0.5, 3),
            piecewise_constant(64, 6, (0.0, 100.0), 0.5, 3)
        );
        assert_eq!(
            cube_bumps(8, 2, 3, (5.0, 20.0), 1.0, 11),
            cube_bumps(8, 2, 3, (5.0, 20.0), 1.0, 11)
        );
    }

    #[test]
    fn bumps_have_positive_mass_without_noise() {
        let b = gaussian_bumps(64, 3, (10.0, 20.0), (0.05, 0.1), 0.0, 5);
        assert!(b.iter().all(|&v| v >= 0.0));
        assert!(b.iter().any(|&v| v > 5.0));
    }

    #[test]
    fn piecewise_is_actually_piecewise() {
        let p = piecewise_constant(128, 5, (0.0, 10.0), 0.0, 2);
        // Number of value changes is at most segments - 1.
        let changes = p.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(changes <= 4, "{changes} changes");
    }

    #[test]
    fn spikes_are_sparse_and_large() {
        let s = spikes(256, 4, (60.0, 100.0), (-3.0, 3.0), 9);
        assert_eq!(s, spikes(256, 4, (60.0, 100.0), (-3.0, 3.0), 9));
        let big = s.iter().filter(|v| v.abs() >= 60.0).count();
        assert!((1..=4).contains(&big), "{big} spikes");
        assert!(s.iter().filter(|v| v.abs() <= 3.0).count() >= 250);
    }

    #[test]
    fn cube_bumps_shape() {
        let c = cube_bumps(4, 3, 2, (1.0, 2.0), 0.5, 1);
        assert_eq!(c.len(), 64);
        assert!(c.iter().all(|&v| v >= 0.5));
    }

    #[test]
    fn quantize_rounds() {
        assert_eq!(quantize_to_i64(&[1.4, -2.6, 0.5]), vec![1, -3, 1]);
    }

    #[test]
    fn pad_to_pow2_works() {
        assert_eq!(
            pad_to_pow2(vec![1.0, 2.0, 3.0], 0.0),
            vec![1.0, 2.0, 3.0, 0.0]
        );
        assert_eq!(pad_to_pow2(vec![1.0; 4], 9.9), vec![1.0; 4]);
        assert_eq!(pad_to_pow2(vec![], 2.0).len(), 1);
    }
}
