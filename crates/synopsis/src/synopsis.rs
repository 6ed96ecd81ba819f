//! Wavelet synopses: sparse sets of retained coefficients (§2.3).
//!
//! A synopsis retains `B ≪ N` coefficients of the wavelet transform; the
//! rest are implicitly zero. [`Synopsis1d`] and [`SynopsisNd`] store the
//! retained `(position, value)` pairs together with enough shape
//! information to reconstruct approximate data.

use wsyn_haar::nd::{nonstandard, NdArray, NdShape};
use wsyn_haar::{transform, ErrorTree1d, ErrorTreeNd, HaarError};

use crate::metric::ErrorMetric;

/// A one-dimensional wavelet synopsis: retained `(index, coefficient)`
/// pairs over a domain of `n` values, sorted by index.
#[derive(Debug, Clone, PartialEq)]
pub struct Synopsis1d {
    n: usize,
    entries: Vec<(usize, f64)>,
}

impl Synopsis1d {
    /// Builds a synopsis from retained coefficient indices of an error tree.
    ///
    /// Duplicate indices are collapsed; indices are validated against `N`.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn from_indices(tree: &ErrorTree1d, indices: &[usize]) -> Self {
        let n = tree.n();
        let mut idx: Vec<usize> = indices.to_vec();
        idx.sort_unstable();
        idx.dedup();
        let entries = idx
            .into_iter()
            .map(|j| {
                assert!(j < n, "coefficient index {j} out of range (N = {n})");
                (j, tree.coeff(j))
            })
            .collect();
        Self { n, entries }
    }

    /// Builds a synopsis from explicit `(index, value)` pairs.
    ///
    /// # Errors
    /// [`HaarError::NotPowerOfTwo`] / [`HaarError::Empty`] on a bad domain
    /// size; panics on out-of-range indices.
    pub fn from_entries(n: usize, mut entries: Vec<(usize, f64)>) -> Result<Self, HaarError> {
        if n == 0 {
            return Err(HaarError::Empty);
        }
        if !wsyn_haar::is_pow2(n) {
            return Err(HaarError::NotPowerOfTwo { len: n });
        }
        entries.sort_unstable_by_key(|&(j, _)| j);
        entries.dedup_by_key(|&mut (j, _)| j);
        for &(j, _) in &entries {
            assert!(j < n, "coefficient index {j} out of range (N = {n})");
        }
        Ok(Self { n, entries })
    }

    /// Builds a synopsis from raw parts **without checking invariants**.
    /// For deserializers only: the caller must run [`Self::validate`]
    /// before using the synopsis — the other methods assume a
    /// power-of-two domain and strictly sorted, in-range entries.
    #[must_use]
    pub fn from_raw_parts(n: usize, entries: Vec<(usize, f64)>) -> Self {
        Self { n, entries }
    }

    /// Validates the structural invariants the constructors enforce:
    /// power-of-two domain, entries strictly sorted by index, indices in
    /// range. Call this after deserializing a synopsis from an untrusted
    /// source (deserializers bypass the constructors); without it,
    /// out-of-range indices panic in [`Self::reconstruct`] and unsorted
    /// entries silently break the binary searches.
    ///
    /// # Errors
    /// A human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("domain size is zero".into());
        }
        if !wsyn_haar::is_pow2(self.n) {
            return Err(format!("domain size {} is not a power of two", self.n));
        }
        for w in self.entries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!(
                    "entries not strictly sorted by index ({} then {})",
                    w[0].0, w[1].0
                ));
            }
        }
        if let Some(&(j, _)) = self.entries.last() {
            if j >= self.n {
                return Err(format!(
                    "coefficient index {j} out of range (N = {})",
                    self.n
                ));
            }
        }
        Ok(())
    }

    /// Domain size `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of retained coefficients (the synopsis "size" `B`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no coefficients are retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained `(index, value)` pairs, sorted by index.
    #[inline]
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Retained coefficient indices.
    pub fn indices(&self) -> Vec<usize> {
        self.entries.iter().map(|&(j, _)| j).collect()
    }

    /// Whether coefficient `j` is retained (binary search).
    pub fn retains(&self, j: usize) -> bool {
        self.entries.binary_search_by_key(&j, |&(i, _)| i).is_ok()
    }

    /// Reconstructs the full approximate data vector (dropped coefficients
    /// are zero). `O(N)` via the inverse transform.
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut coeffs = vec![0.0f64; self.n];
        for &(j, v) in &self.entries {
            coeffs[j] = v;
        }
        transform::inverse_in_place(&mut coeffs);
        coeffs
    }

    /// Maximum error of this synopsis against the original data.
    pub fn max_error(&self, data: &[f64], metric: ErrorMetric) -> f64 {
        metric.max_error(data, &self.reconstruct())
    }
}

/// A multi-dimensional wavelet synopsis over the nonstandard decomposition:
/// retained `(linear position, coefficient)` pairs plus the array shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisNd {
    shape: NdShape,
    entries: Vec<(usize, f64)>,
}

impl SynopsisNd {
    /// Builds a synopsis from retained linear coefficient positions of a
    /// multi-dimensional error tree.
    ///
    /// # Panics
    /// Panics when a position is out of range.
    pub fn from_positions(tree: &ErrorTreeNd, positions: &[usize]) -> Self {
        let shape = tree.coeffs().shape().clone();
        let n = shape.len();
        let mut pos: Vec<usize> = positions.to_vec();
        pos.sort_unstable();
        pos.dedup();
        let entries = pos
            .into_iter()
            .map(|p| {
                assert!(p < n, "coefficient position {p} out of range (N = {n})");
                (p, tree.coeffs().data()[p])
            })
            .collect();
        Self { shape, entries }
    }

    /// The array shape.
    #[inline]
    pub fn shape(&self) -> &NdShape {
        &self.shape
    }

    /// Number of retained coefficients.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no coefficients are retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained `(linear position, value)` pairs, sorted by position.
    #[inline]
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Retained positions.
    pub fn positions(&self) -> Vec<usize> {
        self.entries.iter().map(|&(p, _)| p).collect()
    }

    /// Whether the coefficient at linear position `p` is retained.
    pub fn retains(&self, p: usize) -> bool {
        self.entries.binary_search_by_key(&p, |&(i, _)| i).is_ok()
    }

    /// Reconstructs the approximate data array. `O(N)`.
    ///
    /// # Panics
    /// Never for synopses built by this crate (hypercube validated).
    pub fn reconstruct(&self) -> NdArray {
        let mut coeffs = NdArray::zeros(self.shape.clone());
        for &(p, v) in &self.entries {
            coeffs.data_mut()[p] = v;
        }
        #[allow(clippy::expect_used)]
        nonstandard::inverse_in_place(&mut coeffs)
            // The shape was validated hypercube when the synopsis was
            // built; the inverse transform cannot fail on it.
            .expect("synopsis shape is a validated hypercube");
        coeffs
    }

    /// Maximum error of this synopsis against the original (flat) data.
    pub fn max_error(&self, data: &[f64], metric: ErrorMetric) -> f64 {
        metric.max_error(data, self.reconstruct().data())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn full_synopsis_reconstructs_exactly() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let s = Synopsis1d::from_indices(&tree, &(0..8).collect::<Vec<_>>());
        assert_eq!(s.reconstruct(), EXAMPLE.to_vec());
        assert_eq!(s.max_error(&EXAMPLE, ErrorMetric::absolute()), 0.0);
    }

    #[test]
    fn empty_synopsis_reconstructs_zero() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let s = Synopsis1d::from_indices(&tree, &[]);
        assert!(s.is_empty());
        assert_eq!(s.reconstruct(), vec![0.0; 8]);
        assert_eq!(s.max_error(&EXAMPLE, ErrorMetric::absolute()), 5.0);
    }

    #[test]
    fn average_only_synopsis() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let s = Synopsis1d::from_indices(&tree, &[0]);
        assert_eq!(s.reconstruct(), vec![11.0 / 4.0; 8]);
    }

    #[test]
    fn retains_and_indices() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let s = Synopsis1d::from_indices(&tree, &[5, 1, 5, 0]);
        assert_eq!(s.indices(), vec![0, 1, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.retains(5));
        assert!(!s.retains(2));
    }

    #[test]
    fn from_entries_validates_domain() {
        assert!(Synopsis1d::from_entries(0, vec![]).is_err());
        assert!(Synopsis1d::from_entries(3, vec![]).is_err());
        let s = Synopsis1d::from_entries(4, vec![(2, 1.5), (0, 3.0)]).unwrap();
        assert_eq!(s.entries(), &[(0, 3.0), (2, 1.5)]);
    }

    #[test]
    fn validate_accepts_constructed_and_rejects_malformed() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let good = Synopsis1d::from_indices(&tree, &[0, 5, 2]);
        assert!(good.validate().is_ok());
        // Malformed states only reachable by bypassing the constructors
        // (e.g. serde deserialization of hand-edited JSON).
        let out_of_range = Synopsis1d {
            n: 8,
            entries: vec![(99, 5.0)],
        };
        assert!(out_of_range
            .validate()
            .unwrap_err()
            .contains("out of range"));
        let unsorted = Synopsis1d {
            n: 8,
            entries: vec![(5, 1.0), (2, 3.0)],
        };
        assert!(unsorted.validate().unwrap_err().contains("sorted"));
        let dup = Synopsis1d {
            n: 8,
            entries: vec![(2, 1.0), (2, 3.0)],
        };
        assert!(dup.validate().is_err());
        let bad_n = Synopsis1d {
            n: 6,
            entries: vec![],
        };
        assert!(bad_n.validate().unwrap_err().contains("power of two"));
    }

    #[test]
    fn nd_synopsis_roundtrip() {
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from(i % 5)).collect();
        let tree = ErrorTreeNd::from_data(&NdArray::new(shape, vals.clone()).unwrap()).unwrap();
        let all: Vec<usize> = (0..16).collect();
        let s = SynopsisNd::from_positions(&tree, &all);
        let recon = s.reconstruct();
        for (a, b) in recon.data().iter().zip(&vals) {
            assert!((a - b).abs() < 1e-12);
        }
        let s0 = SynopsisNd::from_positions(&tree, &[0]);
        assert_eq!(s0.len(), 1);
        let avg = tree.root_average();
        for &v in s0.reconstruct().data() {
            assert!((v - avg).abs() < 1e-12);
        }
    }
}
