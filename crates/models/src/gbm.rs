//! Geometric Brownian motion (§1 motivation; also the training-data
//! generator for the LSTM-MDN substrate).
//!
//! `S_{t+1} = S_t · exp((μ − σ²/2)Δ + σ√Δ · Z)`, the standard equity price
//! model. Besides serving as an examples substrate, [`synthetic_price_series`]
//! generates the seeded stand-in for the paper's Google 2015-2020 daily
//! closes used to train `mlss-nn` (DESIGN.md substitution 1).

use mlss_core::is::TiltableModel;
use mlss_core::model::{SimulationModel, Time};
use mlss_core::rng::SimRng;
use mlss_core::simd::{self, chacha, vmath};

/// Geometric Brownian motion with per-step drift/volatility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricBrownian {
    /// Initial price `S_0`.
    pub initial: f64,
    /// Annualized drift μ.
    pub drift: f64,
    /// Annualized volatility σ.
    pub volatility: f64,
    /// Step length Δ in years (1/252 for a trading day).
    pub dt: f64,
}

impl GeometricBrownian {
    /// New GBM; price, volatility and Δ must be positive.
    pub fn new(initial: f64, drift: f64, volatility: f64, dt: f64) -> Self {
        assert!(initial > 0.0 && initial.is_finite());
        assert!(volatility > 0.0 && volatility.is_finite());
        assert!(dt > 0.0 && dt.is_finite());
        assert!(drift.is_finite());
        Self {
            initial,
            drift,
            volatility,
            dt,
        }
    }

    /// Daily-stepped GBM calibrated to large-cap tech equity over
    /// 2015-2020 (μ ≈ 25%/yr, σ ≈ 28%/yr) starting at 525 — the synthetic
    /// stand-in for GOOG daily closes.
    pub fn goog_like() -> Self {
        Self::new(525.0, 0.25, 0.28, 1.0 / 252.0)
    }
}

impl GeometricBrownian {
    /// Per-step log-return drift `(μ − σ²/2)Δ` — the `a` in
    /// `S ← S·exp(a + b·Z)`.
    #[inline]
    fn log_drift(&self) -> f64 {
        (self.drift - 0.5 * self.volatility * self.volatility) * self.dt
    }

    /// Per-step diffusion coefficient `σ√Δ` — the `b` in
    /// `S ← S·exp(a + b·Z)`.
    #[inline]
    fn diffusion(&self) -> f64 {
        self.volatility * self.dt.sqrt()
    }

    /// The vectorized growth update shared by the plain and tilted batch
    /// kernels: gather two raw words per alive lane, run the shared
    /// normal transform and `exp` over the cohort, and fold per-lane
    /// post-processing (the tilt shift and log-weight) through `adjust`.
    #[inline]
    fn batch_growth(
        &self,
        lanes: &mut [f64],
        rngs: &mut [SimRng],
        alive: &[usize],
        mut adjust: impl FnMut(usize, f64) -> f64,
    ) {
        let a = self.log_drift();
        let b = self.diffusion();
        simd::with_scratch(|sc| {
            chacha::gather_u64(rngs, alive, 2, sc);
            sc.f1.clear();
            sc.f1.resize(alive.len(), 0.0);
            vmath::normal_from_words(&sc.words, &mut sc.f1);
            for (j, &i) in alive.iter().enumerate() {
                let z = adjust(i, sc.f1[j]);
                sc.f1[j] = a + b * z;
            }
            vmath::exp_slice(&mut sc.f1);
            for (j, &i) in alive.iter().enumerate() {
                lanes[i] *= sc.f1[j];
            }
        })
    }
}

impl SimulationModel for GeometricBrownian {
    type State = f64;

    fn initial_state(&self) -> f64 {
        self.initial
    }

    fn step(&self, state: &f64, _t: Time, rng: &mut SimRng) -> f64 {
        let z = vmath::normal01_draw(rng);
        state * vmath::exp(self.log_drift() + self.diffusion() * z)
    }

    /// Native batch kernel on the vectorized draw pipeline: two raw
    /// ChaCha words per lane (block refills computed multi-stream), the
    /// shared `vmath` normal transform and `exp` over the whole cohort.
    /// Scalar `step` and this kernel call the *same* `vmath` polynomial
    /// with the same per-lane operation order, so results are
    /// bit-identical at every width and on every backend. Small cohorts
    /// take the scalar loop (same draws, same bits).
    fn step_batch(&self, lanes: &mut [f64], ts: &[Time], rngs: &mut [SimRng], alive: &[usize]) {
        if alive.len() < simd::MIN_SIMD_COHORT {
            for &i in alive {
                lanes[i] = self.step(&lanes[i], ts[i], &mut rngs[i]);
            }
            return;
        }
        self.batch_growth(lanes, rngs, alive, |_, z| z);
    }

    /// SIMD-hot: wide cohorts keep the multi-stream ChaCha and chunked
    /// `vmath` passes full, so the `auto` width policy goes wide.
    fn kernel_class(&self) -> mlss_core::width::KernelClass {
        mlss_core::width::KernelClass::SimdHot
    }
}

impl TiltableModel for GeometricBrownian {
    /// Exponential tilt of the Brownian increment: the proposal draws
    /// `Z ~ N(θ, 1)`, pushing log-returns by `θ·σ√Δ` per step; the log
    /// likelihood-ratio increment is `θ²/2 − θZ`.
    fn step_tilted(&self, state: &f64, _t: Time, theta: f64, rng: &mut SimRng) -> (f64, f64) {
        let z = theta + vmath::normal01_draw(rng);
        let log_w = (0.5 * theta - z) * theta;
        (
            state * vmath::exp(self.log_drift() + self.diffusion() * z),
            log_w,
        )
    }

    /// Native tilted batch kernel: the plain vectorized pipeline with the
    /// mean shift and log-weight folded per lane — bit-identical to the
    /// scalar [`TiltableModel::step_tilted`] loop.
    fn step_tilted_batch(
        &self,
        lanes: &mut [f64],
        log_ws: &mut [f64],
        ts: &[Time],
        theta: f64,
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        if alive.len() < simd::MIN_SIMD_COHORT {
            for &i in alive {
                let (next, dlw) = self.step_tilted(&lanes[i], ts[i], theta, &mut rngs[i]);
                lanes[i] = next;
                log_ws[i] += dlw;
            }
            return;
        }
        self.batch_growth(lanes, rngs, alive, |i, z0| {
            let z = theta + z0;
            log_ws[i] += (0.5 * theta - z) * theta;
            z
        });
    }
}

/// Generate a synthetic daily price series of `days` closes (plus the
/// initial price) from the GOOG-like GBM — the training corpus for the
/// LSTM-MDN model.
pub fn synthetic_price_series(days: usize, rng: &mut SimRng) -> Vec<f64> {
    let gbm = GeometricBrownian::goog_like();
    let mut out = Vec::with_capacity(days + 1);
    let mut s = gbm.initial;
    out.push(s);
    for t in 1..=days {
        s = gbm.step(&s, t as Time, rng);
        out.push(s);
    }
    out
}

/// Score for price durability queries: the price itself.
pub fn price_score(state: &f64) -> f64 {
    *state
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::model::simulate_path;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn prices_stay_positive() {
        let g = GeometricBrownian::goog_like();
        let p = simulate_path(&g, 2000, &mut rng_from_seed(1));
        assert!(p.states.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn log_return_moments_match() {
        let g = GeometricBrownian::new(100.0, 0.1, 0.2, 1.0 / 252.0);
        let p = simulate_path(&g, 50_000, &mut rng_from_seed(2));
        let rets: Vec<f64> = p.states.windows(2).map(|w| (w[1] / w[0]).ln()).collect();
        let mean = mlss_core::stats::mean(&rets);
        let var = mlss_core::stats::sample_variance(&rets);
        let expect_mean = (0.1 - 0.02) * (1.0 / 252.0);
        let expect_var: f64 = 0.04 / 252.0;
        assert!((mean - expect_mean).abs() < 3.0 * (expect_var / 50_000.0).sqrt());
        assert!((var - expect_var).abs() / expect_var < 0.05);
    }

    #[test]
    fn synthetic_series_has_expected_shape() {
        let mut rng = rng_from_seed(2015);
        let series = synthetic_price_series(1259, &mut rng);
        assert_eq!(series.len(), 1260);
        assert!((series[0] - 525.0).abs() < 1e-9);
        assert!(series.iter().all(|&p| p > 100.0 && p < 10_000.0));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_price() {
        GeometricBrownian::new(0.0, 0.1, 0.2, 1.0);
    }
}
