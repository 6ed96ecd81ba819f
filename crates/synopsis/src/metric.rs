//! Maximum-error metrics (§3.1 of the paper).
//!
//! The paper's two target metrics for a reconstructed value `d̂_i`:
//!
//! * **relative error with sanity bound** `s`:
//!   `relErr_i = |d̂_i − d_i| / max{|d_i|, s}` — the sanity bound keeps tiny
//!   data values from unduly dominating the metric (footnote 2);
//! * **absolute error**: `absErr_i = |d̂_i − d_i|`.
//!
//! The thresholding objective is `max_i err_i` over the whole domain.

/// Target maximum-error metric for synopsis construction.
///
/// Deliberately **not** `#[non_exhaustive]`: solvers, the AQP bound
/// derivations, and the CLI all dispatch exhaustively on the metric, and
/// a wildcard arm that silently mis-serves a future metric would be a
/// correctness hazard (wrong guarantees, not a compile error). A new
/// metric is a semver-breaking addition on purpose — every dispatch
/// site must prove it handles the new objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorMetric {
    /// Maximum relative error with sanity bound `s > 0`.
    Relative {
        /// The sanity bound `s` (must be positive).
        sanity: f64,
    },
    /// Maximum absolute error.
    Absolute,
}

impl ErrorMetric {
    /// Relative error with sanity bound `s`.
    ///
    /// # Panics
    /// Panics when `sanity` is not strictly positive and finite (a
    /// non-positive sanity bound would divide by zero on zero data values).
    pub fn relative(sanity: f64) -> Self {
        assert!(
            sanity > 0.0 && sanity.is_finite(),
            "sanity bound must be positive and finite, got {sanity}"
        );
        ErrorMetric::Relative { sanity }
    }

    /// Absolute error.
    pub const fn absolute() -> Self {
        ErrorMetric::Absolute
    }

    /// Per-value denominator `r`: `max{|d|, s}` for relative error, `1`
    /// for absolute error.
    #[inline]
    pub fn denom(&self, d: f64) -> f64 {
        match *self {
            ErrorMetric::Relative { sanity } => d.abs().max(sanity),
            ErrorMetric::Absolute => 1.0,
        }
    }

    /// Error of a single approximate value.
    #[inline]
    pub fn error(&self, d: f64, d_hat: f64) -> f64 {
        (d_hat - d).abs() / self.denom(d)
    }

    /// Per-value errors for an approximation of `data`.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn errors(&self, data: &[f64], approx: &[f64]) -> Vec<f64> {
        assert_eq!(data.len(), approx.len(), "length mismatch");
        data.iter()
            .zip(approx)
            .map(|(&d, &a)| self.error(d, a))
            .collect()
    }

    /// The objective the paper minimizes: `max_i err_i`.
    ///
    /// # Panics
    /// Panics when lengths differ or data is empty.
    pub fn max_error(&self, data: &[f64], approx: &[f64]) -> f64 {
        assert!(!data.is_empty(), "empty data");
        self.errors(data, approx)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean error (reported alongside the maximum in experiments).
    ///
    /// # Panics
    /// Panics when lengths differ or data is empty.
    pub fn mean_error(&self, data: &[f64], approx: &[f64]) -> f64 {
        assert!(!data.is_empty(), "empty data");
        let errs = self.errors(data, approx);
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// The metric-spec grammar shared by the CLI's `--metric` flag, the
/// server protocol and the conformance corpus: `abs`, or `rel:<sanity>`
/// with a positive, finite sanity bound. Inverse of the [`Display`]
/// form.
///
/// [`Display`]: std::fmt::Display
impl std::str::FromStr for ErrorMetric {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        if spec == "abs" {
            return Ok(ErrorMetric::absolute());
        }
        if let Some(s) = spec.strip_prefix("rel:") {
            let sanity: f64 = s
                .parse()
                .map_err(|_| format!("bad sanity bound in metric '{spec}'"))?;
            if !(sanity > 0.0 && sanity.is_finite()) {
                return Err("sanity bound must be positive and finite".to_string());
            }
            return Ok(ErrorMetric::relative(sanity));
        }
        Err(format!(
            "unknown metric '{spec}' (expected 'abs' or 'rel:<sanity>')"
        ))
    }
}

/// The stable spec id, `abs` or `rel:<sanity>` — what
/// [`str::parse`] reads back.
impl std::fmt::Display for ErrorMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ErrorMetric::Relative { sanity } => write!(f, "rel:{sanity}"),
            ErrorMetric::Absolute => f.write_str("abs"),
        }
    }
}

/// Root-mean-squared (L2-average) error — the objective of conventional
/// thresholding (§2.3): `sqrt(Σ_i (d_i − d̂_i)² / N)`.
///
/// # Panics
/// Panics when lengths differ or data is empty.
pub fn rmse(data: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(data.len(), approx.len(), "length mismatch");
    assert!(!data.is_empty(), "empty data");
    let ss: f64 = data
        .iter()
        .zip(approx)
        .map(|(&d, &a)| (d - a) * (d - a))
        .sum();
    (ss / data.len() as f64).sqrt()
}

/// A quantile of the per-value error distribution (`q ∈ [0, 1]`), using the
/// nearest-rank method. Useful for experiment reports (e.g. the error
/// spread that motivates max-error metrics over L2).
///
/// # Panics
/// Panics on empty input or `q` outside `[0, 1]`.
pub fn error_quantile(mut errors: Vec<f64>, q: f64) -> f64 {
    assert!(!errors.is_empty(), "empty errors");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
    errors.sort_by(f64::total_cmp);
    // `q` is in [0, 1], so the rank is at most `errors.len()`.
    #[allow(clippy::cast_possible_truncation)]
    let rank = ((q * errors.len() as f64).ceil() as usize).clamp(1, errors.len());
    errors[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_uses_sanity_bound_for_small_values() {
        let m = ErrorMetric::relative(1.0);
        // |d| = 0.1 < s = 1.0, so the denominator is the sanity bound.
        assert_eq!(m.error(0.1, 0.6), 0.5);
        // |d| = 10 > s, so the denominator is |d|.
        assert_eq!(m.error(10.0, 5.0), 0.5);
        // Negative data uses |d|.
        assert_eq!(m.error(-10.0, -5.0), 0.5);
    }

    #[test]
    fn absolute_error_ignores_magnitude() {
        let m = ErrorMetric::absolute();
        assert_eq!(m.error(1000.0, 998.0), 2.0);
        assert_eq!(m.error(0.0, -2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "sanity bound")]
    fn zero_sanity_rejected() {
        let _ = ErrorMetric::relative(0.0);
    }

    #[test]
    fn spec_grammar() {
        let cases: [(&str, Result<ErrorMetric, &str>); 8] = [
            ("abs", Ok(ErrorMetric::Absolute)),
            ("rel:2.5", Ok(ErrorMetric::Relative { sanity: 2.5 })),
            ("rel:0", Err("sanity bound must be positive and finite")),
            ("rel:-1", Err("sanity bound must be positive and finite")),
            ("rel:nan", Err("sanity bound must be positive and finite")),
            ("rel:inf", Err("sanity bound must be positive and finite")),
            ("rel:", Err("bad sanity bound in metric 'rel:'")),
            (
                "l2",
                Err("unknown metric 'l2' (expected 'abs' or 'rel:<sanity>')"),
            ),
        ];
        for (spec, want) in cases {
            let got = spec.parse::<ErrorMetric>();
            assert_eq!(got, want.map_err(str::to_string), "{spec}");
            if let Ok(metric) = got {
                assert_eq!(metric.to_string(), spec, "round trip of {spec}");
            }
        }
    }

    #[test]
    fn max_and_mean() {
        let m = ErrorMetric::absolute();
        let data = [1.0, 2.0, 3.0];
        let approx = [1.0, 4.0, 2.0];
        assert_eq!(m.max_error(&data, &approx), 2.0);
        assert!((m.mean_error(&data, &approx) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_reconstruction_zero_error() {
        let data = [5.0, -3.0, 0.0, 7.5];
        for m in [ErrorMetric::relative(0.5), ErrorMetric::absolute()] {
            assert_eq!(m.max_error(&data, &data), 0.0);
        }
    }

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[0.0, 0.0], &[3.0, 4.0]), (12.5f64).sqrt());
        assert_eq!(rmse(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn quantiles() {
        let errs = vec![0.1, 0.5, 0.2, 0.9, 0.3];
        assert_eq!(error_quantile(errs.clone(), 1.0), 0.9);
        assert_eq!(error_quantile(errs.clone(), 0.5), 0.3);
        assert_eq!(error_quantile(errs, 0.0), 0.1);
    }
}
