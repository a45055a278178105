//! Point estimates with statistical quality measures (§6 "Evaluation
//! Metric").

use crate::stats::z_critical;

/// An unbiased estimate `τ̂` of a durability query answer together with an
/// estimated variance and the cost spent producing it.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// The point estimate `τ̂`.
    pub tau: f64,
    /// Estimated variance of `τ̂` (not of one path label).
    pub variance: f64,
    /// Number of independent root paths simulated (`N_0`).
    pub n_roots: u64,
    /// Total invocations of the simulation procedure `g`.
    pub steps: u64,
    /// Number of target-level hits observed (`N_m`).
    pub hits: u64,
}

impl Estimate {
    /// Standard error `√Var(τ̂)`.
    pub fn std_err(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }

    /// Half-width of the normal-approximation confidence interval at the
    /// given confidence level: `z_{α/2} · √Var` (§6 metric (1)).
    pub fn ci_half_width(&self, confidence: f64) -> f64 {
        z_critical(confidence) * self.std_err()
    }

    /// The confidence interval `[τ̂ - h, τ̂ + h]`, clamped to `[0, 1]`.
    pub fn ci(&self, confidence: f64) -> (f64, f64) {
        let h = self.ci_half_width(confidence);
        ((self.tau - h).max(0.0), (self.tau + h).min(1.0))
    }

    /// Relative error `√Var / μ` (§6 metric (2)). `truth` is the reference
    /// probability; pass the estimate itself when the truth is unknown
    /// (the practical fallback the paper describes). Returns `+∞` when the
    /// reference is zero.
    pub fn relative_error(&self, truth: f64) -> f64 {
        if truth <= 0.0 {
            f64::INFINITY
        } else {
            self.std_err() / truth
        }
    }

    /// Relative error against the estimate itself.
    pub fn self_relative_error(&self) -> f64 {
        self.relative_error(self.tau)
    }

    /// Average number of `g` invocations per root path.
    pub fn cost_per_root(&self) -> f64 {
        if self.n_roots == 0 {
            0.0
        } else {
            self.steps as f64 / self.n_roots as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(tau: f64, var: f64) -> Estimate {
        Estimate {
            tau,
            variance: var,
            n_roots: 100,
            steps: 5000,
            hits: 10,
        }
    }

    #[test]
    fn ci_widths() {
        let e = est(0.5, 0.0001);
        let h = e.ci_half_width(0.95);
        assert!((h - 1.96 * 0.01).abs() < 1e-3);
        let (lo, hi) = e.ci(0.95);
        assert!(lo < 0.5 && hi > 0.5);
        assert!((hi - lo - 2.0 * h).abs() < 1e-12);
    }

    #[test]
    fn ci_clamped_to_unit_interval() {
        let e = est(0.001, 0.01);
        let (lo, hi) = e.ci(0.95);
        assert_eq!(lo, 0.0);
        assert!(hi <= 1.0);
    }

    #[test]
    fn relative_error_cases() {
        let e = est(0.01, 1e-6);
        assert!((e.relative_error(0.01) - 0.1).abs() < 1e-9);
        assert!(e.relative_error(0.0).is_infinite());
        assert!((e.self_relative_error() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn negative_variance_guard() {
        // Tiny negative variance from floating-point cancellation must not
        // produce NaN standard errors.
        let e = est(0.5, -1e-18);
        assert_eq!(e.std_err(), 0.0);
    }

    #[test]
    fn cost_per_root() {
        let e = est(0.5, 0.0);
        assert!((e.cost_per_root() - 50.0).abs() < 1e-12);
        let z = Estimate { n_roots: 0, ..e };
        assert_eq!(z.cost_per_root(), 0.0);
    }
}
