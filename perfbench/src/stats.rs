//! Sample summaries, the answers digest and the input seed stream.

/// Median of `samples` (mean of the middle pair for even counts);
/// `0.0` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail latency `(percentile, value)`: the highest percentile, up
/// to p75, that has at least ten samples beyond it. `None` with ten
/// samples or fewer.
///
/// The cap keeps the figure steady from run to run. Higher up, the
/// order statistics measure jumps of host speed (the slowest few of
/// thousands of short ops) or which inputs a seed drew (the wavelet
/// builds whose memo crosses a table resize, about one in seven), not
/// the program. [`extreme_tail`] gives the uncapped figure for the
/// report line.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let p75 = (n as f64 * 0.75).ceil() as usize - 1;
    rank(samples, (n - 11).min(p75))
}

/// The highest percentile that has at least ten samples beyond it,
/// uncapped: `(percentile, value)`.
#[must_use]
pub fn extreme_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    rank(samples, n - 11)
}

fn rank(samples: &[f64], at: usize) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let value = *v.get(at)?;
    Some((100.0 * (at + 1) as f64 / v.len() as f64, value))
}

/// FNV-1a over 64-bit words: a stable digest of every output bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds the bits of a float in.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Folds bytes in (length first, so concatenations differ).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Hex rendering.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: derives independent input seeds from the workload seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Milliseconds of a duration.
#[must_use]
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[1.0; 11]), Some((100.0 / 11.0, 1.0)));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(extreme_tail(&v), Some((100.0 * 50.0 / 60.0, 50.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 750.0)));
        assert_eq!(extreme_tail(&v), Some((99.0, 990.0)));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_sees_every_bit() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f64(1.0);
        b.f64(f64::from_bits(1.0f64.to_bits() ^ 1));
        assert_ne!(a, b);
    }
}
