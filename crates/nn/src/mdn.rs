//! Mixture Density Network head (Bishop 1994), as in the paper's
//! LSTM-RNN-MDN stock model (§6, model (3), Figure 5).
//!
//! A linear layer maps the LSTM hidden state to `3K` outputs per step:
//! mixture logits, means, and log standard deviations of a `K`-component
//! Gaussian mixture over the next (normalized) value. Training minimizes
//! the negative log-likelihood; sampling draws a component then a normal.

use crate::tensor::{softmax, Matrix};
use mlss_core::rng::SimRng;
use rand::RngExt;
use rand_distr::{Distribution, Normal};

/// Clamp for log-σ to keep sampling numerically sane.
const LOG_SIGMA_MIN: f64 = -7.0;
const LOG_SIGMA_MAX: f64 = 3.0;

/// The MDN head parameters.
#[derive(Debug, Clone)]
pub struct MdnHead {
    /// Projection, `3K × H`.
    pub w: Matrix,
    /// Bias, `3K`.
    pub b: Vec<f64>,
    /// Number of mixture components `K`.
    pub mixtures: usize,
    /// Hidden size `H`.
    pub hidden: usize,
}

/// Mixture parameters produced for one step.
#[derive(Debug, Clone)]
pub struct MixtureParams {
    /// Component weights (softmax of logits), length `K`.
    pub pi: Vec<f64>,
    /// Component means, length `K`.
    pub mu: Vec<f64>,
    /// Component standard deviations, length `K`.
    pub sigma: Vec<f64>,
}

/// Gradients for the head.
#[derive(Debug, Clone)]
pub struct MdnGrads {
    /// d/dW.
    pub w: Matrix,
    /// d/db.
    pub b: Vec<f64>,
}

impl MdnGrads {
    /// Zeroed gradients shaped like `head`.
    pub fn zeros_like(head: &MdnHead) -> Self {
        Self {
            w: Matrix::zeros(3 * head.mixtures, head.hidden),
            b: vec![0.0; 3 * head.mixtures],
        }
    }

    /// Reset to zero.
    pub fn zero(&mut self) {
        self.w.fill_zero();
        self.b.fill(0.0);
    }
}

impl MdnHead {
    /// Randomly initialized head with means spread over `±0.5` so the
    /// mixture starts diverse.
    pub fn new(hidden: usize, mixtures: usize, rng: &mut SimRng) -> Self {
        assert!(hidden >= 1 && mixtures >= 1);
        let scale = 1.0 / (hidden as f64).sqrt();
        let w = Matrix::from_fn(3 * mixtures, hidden, |_, _| {
            (rng.random::<f64>() * 2.0 - 1.0) * scale
        });
        let mut b = vec![0.0; 3 * mixtures];
        for (k, slot) in b[mixtures..2 * mixtures].iter_mut().enumerate() {
            *slot = (k as f64 / mixtures.max(1) as f64 - 0.5) * 1.0;
        }
        Self {
            w,
            b,
            mixtures,
            hidden,
        }
    }

    /// Forward: hidden state → mixture parameters. Also returns the raw
    /// activations needed by the backward pass.
    pub fn forward(&self, h: &[f64]) -> (MixtureParams, Vec<f64>) {
        assert_eq!(h.len(), self.hidden);
        let k = self.mixtures;
        let mut a = self.b.clone();
        self.w.gemv_acc(h, &mut a);
        let pi = softmax(&a[..k]);
        let mu = a[k..2 * k].to_vec();
        let sigma: Vec<f64> = a[2 * k..3 * k]
            .iter()
            .map(|&ls| ls.clamp(LOG_SIGMA_MIN, LOG_SIGMA_MAX).exp())
            .collect();
        (MixtureParams { pi, mu, sigma }, a)
    }

    /// Negative log-likelihood of observing `y` under the mixture.
    pub fn nll(params: &MixtureParams, y: f64) -> f64 {
        -log_likelihood(params, y)
    }

    /// Backward pass for the NLL at one step: accumulates parameter
    /// gradients into `grads` and returns `dL/dh`.
    pub fn backward(
        &self,
        h: &[f64],
        activations: &[f64],
        params: &MixtureParams,
        y: f64,
        grads: &mut MdnGrads,
    ) -> Vec<f64> {
        let k = self.mixtures;
        // Responsibilities γ_k ∝ π_k N(y; μ_k, σ_k).
        let gamma = responsibilities(params, y);

        let mut da = vec![0.0; 3 * k];
        for j in 0..k {
            // d NLL / d logit_j = π_j − γ_j.
            da[j] = params.pi[j] - gamma[j];
            // d NLL / d μ_j = γ_j (μ_j − y)/σ_j².
            let s2 = params.sigma[j] * params.sigma[j];
            da[k + j] = gamma[j] * (params.mu[j] - y) / s2;
            // d NLL / d logσ_j = γ_j (1 − (y−μ_j)²/σ_j²); zero where the
            // clamp saturated.
            let ls = activations[2 * k + j];
            if (LOG_SIGMA_MIN..=LOG_SIGMA_MAX).contains(&ls) {
                let zsq = (y - params.mu[j]) * (y - params.mu[j]) / s2;
                da[2 * k + j] = gamma[j] * (1.0 - zsq);
            }
        }

        grads.w.outer_acc(&da, h, 1.0);
        for (gb, d) in grads.b.iter_mut().zip(&da) {
            *gb += d;
        }
        let mut dh = vec![0.0; self.hidden];
        self.w.gemv_transpose_acc(&da, &mut dh);
        dh
    }

    /// Sample from the mixture.
    pub fn sample(params: &MixtureParams, rng: &mut SimRng) -> f64 {
        let mut u = rng.random::<f64>();
        let mut comp = params.pi.len() - 1;
        for (j, &p) in params.pi.iter().enumerate() {
            if u < p {
                comp = j;
                break;
            }
            u -= p;
        }
        let normal = Normal::new(params.mu[comp], params.sigma[comp]).expect("σ clamped positive");
        normal.sample(rng)
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        3 * self.mixtures * self.hidden + 3 * self.mixtures
    }

    /// Append parameters to a flat vector.
    pub fn write_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.w.data());
        out.extend_from_slice(&self.b);
    }

    /// Load parameters from a flat slice; returns the number consumed.
    pub fn read_params(&mut self, src: &[f64]) -> usize {
        let nw = self.w.data().len();
        let nb = self.b.len();
        self.w.data_mut().copy_from_slice(&src[..nw]);
        self.b.copy_from_slice(&src[nw..nw + nb]);
        nw + nb
    }

    /// Append gradients to a flat vector, mirroring `write_params`.
    pub fn write_grads(grads: &MdnGrads, out: &mut Vec<f64>) {
        out.extend_from_slice(grads.w.data());
        out.extend_from_slice(&grads.b);
    }
}

/// Log-likelihood `ln Σ_k π_k N(y; μ_k, σ_k)`, computed stably via
/// log-sum-exp.
pub fn log_likelihood(params: &MixtureParams, y: f64) -> f64 {
    let k = params.pi.len();
    let mut terms = Vec::with_capacity(k);
    for j in 0..k {
        let s = params.sigma[j];
        let z = (y - params.mu[j]) / s;
        let log_n = -0.5 * z * z - s.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
        terms.push(params.pi[j].max(1e-300).ln() + log_n);
    }
    let max = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max + terms.iter().map(|t| (t - max).exp()).sum::<f64>().ln()
}

/// Posterior responsibilities `γ_k`.
fn responsibilities(params: &MixtureParams, y: f64) -> Vec<f64> {
    let k = params.pi.len();
    let mut logs = Vec::with_capacity(k);
    for j in 0..k {
        let s = params.sigma[j];
        let z = (y - params.mu[j]) / s;
        logs.push(params.pi[j].max(1e-300).ln() - 0.5 * z * z - s.ln());
    }
    softmax(&logs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn forward_produces_valid_mixture() {
        let mut rng = rng_from_seed(1);
        let head = MdnHead::new(4, 3, &mut rng);
        let (p, _) = head.forward(&[0.1, -0.4, 0.2, 0.9]);
        assert!((p.pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.sigma.iter().all(|&s| s > 0.0));
        assert_eq!(p.mu.len(), 3);
    }

    #[test]
    fn nll_is_lower_near_means() {
        let p = MixtureParams {
            pi: vec![1.0],
            mu: vec![2.0],
            sigma: vec![0.5],
        };
        assert!(MdnHead::nll(&p, 2.0) < MdnHead::nll(&p, 4.0));
    }

    #[test]
    fn sampling_follows_mixture_weights() {
        let p = MixtureParams {
            pi: vec![0.9, 0.1],
            mu: vec![-10.0, 10.0],
            sigma: vec![0.1, 0.1],
        };
        let mut rng = rng_from_seed(5);
        let mut low = 0;
        for _ in 0..2000 {
            if MdnHead::sample(&p, &mut rng) < 0.0 {
                low += 1;
            }
        }
        let frac = low as f64 / 2000.0;
        assert!((frac - 0.9).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn gradient_check_nll() {
        let mut rng = rng_from_seed(7);
        let mut head = MdnHead::new(3, 2, &mut rng);
        let h = [0.3, -0.6, 0.8];
        let y = 0.4;

        let loss = |head: &MdnHead| -> f64 {
            let (p, _) = head.forward(&h);
            MdnHead::nll(&p, y)
        };

        let (p, a) = head.forward(&h);
        let mut grads = MdnGrads::zeros_like(&head);
        let dh = head.backward(&h, &a, &p, y, &mut grads);

        let mut flat_g = Vec::new();
        MdnHead::write_grads(&grads, &mut flat_g);
        let mut flat_p = Vec::new();
        head.write_params(&mut flat_p);

        let eps = 1e-6;
        for idx in 0..flat_p.len() {
            let orig = flat_p[idx];
            flat_p[idx] = orig + eps;
            head.read_params(&flat_p);
            let up = loss(&head);
            flat_p[idx] = orig - eps;
            head.read_params(&flat_p);
            let dn = loss(&head);
            flat_p[idx] = orig;
            head.read_params(&flat_p);
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - flat_g[idx]).abs() < 1e-6,
                "param {idx}: {numeric} vs {}",
                flat_g[idx]
            );
        }

        // dL/dh numeric check.
        let mut hh = h;
        let eps = 1e-6;
        hh[1] += eps;
        let up = {
            let (p, _) = head.forward(&hh);
            MdnHead::nll(&p, y)
        };
        hh[1] -= 2.0 * eps;
        let dn = {
            let (p, _) = head.forward(&hh);
            MdnHead::nll(&p, y)
        };
        let numeric = (up - dn) / (2.0 * eps);
        assert!((numeric - dh[1]).abs() < 1e-6);
    }

    #[test]
    fn log_likelihood_matches_single_gaussian() {
        let p = MixtureParams {
            pi: vec![1.0],
            mu: vec![0.0],
            sigma: vec![1.0],
        };
        let ll = log_likelihood(&p, 0.0);
        let expect = -0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((ll - expect).abs() < 1e-12);
    }
}
