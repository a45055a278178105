//! A single-layer LSTM cell with full forward and backward passes.
//!
//! Standard formulation (gate order `i, f, g, o` in the stacked weight
//! rows):
//!
//! ```text
//! z = W_x x + W_h h_prev + b              (4H)
//! i = σ(z_i)   f = σ(z_f)   g = tanh(z_g)   o = σ(z_o)
//! c = f ⊙ c_prev + i ⊙ g
//! h = o ⊙ tanh(c)
//! ```
//!
//! The backward pass is verified against numeric differentiation in the
//! crate's gradient-check tests.

use crate::tensor::{sigmoid, Matrix};
use mlss_core::rng::SimRng;
use rand::RngExt;

/// LSTM cell parameters.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Input weights, `4H × I`.
    pub wx: Matrix,
    /// Recurrent weights, `4H × H`.
    pub wh: Matrix,
    /// Bias, `4H`.
    pub b: Vec<f64>,
    /// Hidden size `H`.
    pub hidden: usize,
    /// Input size `I`.
    pub input: usize,
}

/// Per-step cache needed by the backward pass.
#[derive(Debug, Clone)]
pub struct LstmCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// Gradient accumulators mirroring [`LstmCell`].
#[derive(Debug, Clone)]
pub struct LstmGrads {
    /// d/dW_x.
    pub wx: Matrix,
    /// d/dW_h.
    pub wh: Matrix,
    /// d/db.
    pub b: Vec<f64>,
}

impl LstmGrads {
    /// Zeroed gradients shaped like `cell`.
    pub fn zeros_like(cell: &LstmCell) -> Self {
        Self {
            wx: Matrix::zeros(4 * cell.hidden, cell.input),
            wh: Matrix::zeros(4 * cell.hidden, cell.hidden),
            b: vec![0.0; 4 * cell.hidden],
        }
    }

    /// Reset to zero.
    pub fn zero(&mut self) {
        self.wx.fill_zero();
        self.wh.fill_zero();
        self.b.fill(0.0);
    }
}

impl LstmCell {
    /// Randomly initialized cell: uniform `±1/√H` weights, forget-gate
    /// bias +1 (the standard trick that keeps early memories alive).
    pub fn new(input: usize, hidden: usize, rng: &mut SimRng) -> Self {
        assert!(input >= 1 && hidden >= 1);
        let scale = 1.0 / (hidden as f64).sqrt();
        let mut init = |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |_, _| (rng.random::<f64>() * 2.0 - 1.0) * scale)
        };
        let wx = init(4 * hidden, input);
        let wh = init(4 * hidden, hidden);
        let mut b = vec![0.0; 4 * hidden];
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        Self {
            wx,
            wh,
            b,
            hidden,
            input,
        }
    }

    /// Forward one step. Returns `(h, c, cache)`.
    pub fn forward(
        &self,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
    ) -> (Vec<f64>, Vec<f64>, LstmCache) {
        let hsz = self.hidden;
        assert_eq!(x.len(), self.input);
        assert_eq!(h_prev.len(), hsz);
        assert_eq!(c_prev.len(), hsz);

        let mut z = self.b.clone();
        self.wx.gemv_acc(x, &mut z);
        self.wh.gemv_acc(h_prev, &mut z);

        let mut i = vec![0.0; hsz];
        let mut f = vec![0.0; hsz];
        let mut g = vec![0.0; hsz];
        let mut o = vec![0.0; hsz];
        for k in 0..hsz {
            i[k] = sigmoid(z[k]);
            f[k] = sigmoid(z[hsz + k]);
            g[k] = z[2 * hsz + k].tanh();
            o[k] = sigmoid(z[3 * hsz + k]);
        }
        let mut c = vec![0.0; hsz];
        let mut tanh_c = vec![0.0; hsz];
        let mut h = vec![0.0; hsz];
        for k in 0..hsz {
            c[k] = f[k] * c_prev[k] + i[k] * g[k];
            tanh_c[k] = c[k].tanh();
            h[k] = o[k] * tanh_c[k];
        }
        let cache = LstmCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (h, c, cache)
    }

    /// Batched inference: one forward step for `n` independent lanes held
    /// lane-major in flat buffers (`xs` is `n × I`, `hs`/`cs` are
    /// `n × H`, updated in place).
    ///
    /// Internally the cohort is transposed into **struct-of-arrays**
    /// layout (lane is the fastest-varying index), which turns both
    /// matrix products into loops whose inner dimension runs across
    /// lanes: one weight element is broadcast against `n` contiguous
    /// lane slots. Each lane's accumulator chain keeps the exact
    /// element order of the scalar [`LstmCell::forward_inference`] dot
    /// product — so results are bit-identical lane by lane — while the
    /// chains of different lanes are independent, letting the compiler
    /// vectorize and pipeline them (a scalar dot product is a single
    /// serial FP-add dependency chain and bounds the GEMV at FP-add
    /// latency; `n` interleaved chains fill the FMA pipeline instead).
    pub fn forward_inference_batch(&self, n: usize, xs: &[f64], hs: &mut [f64], cs: &mut [f64]) {
        let (hsz, isz) = (self.hidden, self.input);
        assert_eq!(xs.len(), n * isz, "xs must be n × input, lane-major");
        assert_eq!(hs.len(), n * hsz, "hs must be n × hidden, lane-major");
        assert_eq!(cs.len(), n * hsz, "cs must be n × hidden, lane-major");
        if n == 0 {
            return;
        }
        if n == 1 {
            // A one-lane cohort has no batch structure to exploit; the
            // scalar path *is* the reference, so delegate (bit-identity
            // is then definitional and the SoA transposes are skipped).
            let (h, c) = (&mut hs[..hsz], &mut cs[..hsz]);
            self.forward_inference(xs, h, c);
            return;
        }
        let g4 = 4 * hsz;

        // Gather into SoA (lane-fastest) buffers.
        let mut x_t = vec![0.0; isz * n];
        for k in 0..n {
            for i in 0..isz {
                x_t[i * n + k] = xs[k * isz + i];
            }
        }
        let mut h_t = vec![0.0; hsz * n];
        let mut c_t = vec![0.0; hsz * n];
        for k in 0..n {
            for j in 0..hsz {
                h_t[j * n + k] = hs[k * hsz + j];
                c_t[j * n + k] = cs[k * hsz + j];
            }
        }

        // z = b + Wx·x + Wh·h, computed over lane tiles: a tile of
        // `LANE_TILE` lanes consumes the whole weight matrix once while
        // its hidden slice stays L1-resident — one matrix pass per tile
        // instead of one per lane, which is where the large-H win comes
        // from. Within a lane, the two accumulator chains (input and
        // recurrent) keep the scalar path's element order and are summed
        // as (b + accX) + accH, so each lane is bit-identical to
        // `forward_inference`; across a tile the chains are independent,
        // which lets the compiler vectorize them.
        /// `acc[t] += Σ_j w[j] · src[j·stride + k0 + t]` with a
        /// compile-time tile width: accumulators live in registers and
        /// the inner loop vectorizes without reassociating any single
        /// lane's chain.
        #[inline(always)]
        fn mac_tile<const L: usize>(
            weights: &[f64],
            src: &[f64],
            stride: usize,
            k0: usize,
            acc: &mut [f64; L],
        ) {
            for (j, &w) in weights.iter().enumerate() {
                let row: &[f64; L] = src[j * stride + k0..j * stride + k0 + L]
                    .try_into()
                    .expect("tile in bounds");
                for t in 0..L {
                    acc[t] += w * row[t];
                }
            }
        }

        const LANE_TILE: usize = 8;
        let mut z_t = vec![0.0; g4 * n];
        for k0 in (0..n).step_by(LANE_TILE) {
            let tl = (n - k0).min(LANE_TILE);
            for r in 0..g4 {
                let wx_row = &self.wx.data()[r * isz..(r + 1) * isz];
                let wh_row = &self.wh.data()[r * hsz..(r + 1) * hsz];
                let b = self.b[r];
                if tl == LANE_TILE {
                    let mut accx = [0.0f64; LANE_TILE];
                    let mut acch = [0.0f64; LANE_TILE];
                    mac_tile(wx_row, &x_t, n, k0, &mut accx);
                    mac_tile(wh_row, &h_t, n, k0, &mut acch);
                    let zrow: &mut [f64; LANE_TILE] = (&mut z_t[r * n + k0..r * n + k0 + tl])
                        .try_into()
                        .expect("tile in bounds");
                    for t in 0..LANE_TILE {
                        zrow[t] = (b + accx[t]) + acch[t];
                    }
                } else {
                    // Ragged tail tile.
                    let mut accx = [0.0f64; LANE_TILE];
                    let mut acch = [0.0f64; LANE_TILE];
                    for (i, &w) in wx_row.iter().enumerate() {
                        let xrow = &x_t[i * n + k0..i * n + k0 + tl];
                        for t in 0..tl {
                            accx[t] += w * xrow[t];
                        }
                    }
                    for (j, &w) in wh_row.iter().enumerate() {
                        let hrow = &h_t[j * n + k0..j * n + k0 + tl];
                        for t in 0..tl {
                            acch[t] += w * hrow[t];
                        }
                    }
                    let zrow = &mut z_t[r * n + k0..r * n + k0 + tl];
                    for t in 0..tl {
                        zrow[t] = (b + accx[t]) + acch[t];
                    }
                }
            }
        }

        // Gates, elementwise over the SoA layout.
        for j in 0..hsz {
            for k in 0..n {
                let i_g = sigmoid(z_t[j * n + k]);
                let f_g = sigmoid(z_t[(hsz + j) * n + k]);
                let g_g = z_t[(2 * hsz + j) * n + k].tanh();
                let o_g = sigmoid(z_t[(3 * hsz + j) * n + k]);
                let c = f_g * c_t[j * n + k] + i_g * g_g;
                c_t[j * n + k] = c;
                h_t[j * n + k] = o_g * c.tanh();
            }
        }

        // Scatter back to the caller's lane-major layout.
        for k in 0..n {
            for j in 0..hsz {
                hs[k * hsz + j] = h_t[j * n + k];
                cs[k * hsz + j] = c_t[j * n + k];
            }
        }
    }

    /// Forward without building a cache (inference / sampling path).
    pub fn forward_inference(&self, x: &[f64], h: &mut [f64], c: &mut [f64]) {
        let hsz = self.hidden;
        let mut z = self.b.clone();
        self.wx.gemv_acc(x, &mut z);
        self.wh.gemv_acc(h, &mut z);
        for k in 0..hsz {
            let i = sigmoid(z[k]);
            let f = sigmoid(z[hsz + k]);
            let g = z[2 * hsz + k].tanh();
            let o = sigmoid(z[3 * hsz + k]);
            c[k] = f * c[k] + i * g;
            h[k] = o * c[k].tanh();
        }
    }

    /// Backward one step. `dh`/`dc` are gradients flowing into this step's
    /// outputs; gradients for parameters accumulate into `grads`; returns
    /// `(dx, dh_prev, dc_prev)`.
    pub fn backward(
        &self,
        cache: &LstmCache,
        dh: &[f64],
        dc_in: &[f64],
        grads: &mut LstmGrads,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let hsz = self.hidden;
        let mut dz = vec![0.0; 4 * hsz];
        let mut dc_prev = vec![0.0; hsz];
        for k in 0..hsz {
            let do_ = dh[k] * cache.tanh_c[k];
            let dc = dc_in[k] + dh[k] * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
            let di = dc * cache.g[k];
            let df = dc * cache.c_prev[k];
            let dg = dc * cache.i[k];
            dc_prev[k] = dc * cache.f[k];
            dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
            dz[hsz + k] = df * cache.f[k] * (1.0 - cache.f[k]);
            dz[2 * hsz + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
            dz[3 * hsz + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
        }

        grads.wx.outer_acc(&dz, &cache.x, 1.0);
        grads.wh.outer_acc(&dz, &cache.h_prev, 1.0);
        for (gb, d) in grads.b.iter_mut().zip(&dz) {
            *gb += d;
        }

        let mut dx = vec![0.0; self.input];
        self.wx.gemv_transpose_acc(&dz, &mut dx);
        let mut dh_prev = vec![0.0; hsz];
        self.wh.gemv_transpose_acc(&dz, &mut dh_prev);
        (dx, dh_prev, dc_prev)
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        4 * self.hidden * (self.input + self.hidden) + 4 * self.hidden
    }

    /// Copy parameters into a flat vector (for the optimizer).
    pub fn write_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.wx.data());
        out.extend_from_slice(self.wh.data());
        out.extend_from_slice(&self.b);
    }

    /// Load parameters from a flat slice; returns the number consumed.
    pub fn read_params(&mut self, src: &[f64]) -> usize {
        let nx = self.wx.data().len();
        let nh = self.wh.data().len();
        let nb = self.b.len();
        self.wx.data_mut().copy_from_slice(&src[..nx]);
        self.wh.data_mut().copy_from_slice(&src[nx..nx + nh]);
        self.b.copy_from_slice(&src[nx + nh..nx + nh + nb]);
        nx + nh + nb
    }

    /// Copy gradients into a flat vector, mirroring `write_params` order.
    pub fn write_grads(grads: &LstmGrads, out: &mut Vec<f64>) {
        out.extend_from_slice(grads.wx.data());
        out.extend_from_slice(grads.wh.data());
        out.extend_from_slice(&grads.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = rng_from_seed(1);
        let cell = LstmCell::new(2, 4, &mut rng);
        let x = [0.5, -0.3];
        let h0 = vec![0.0; 4];
        let c0 = vec![0.0; 4];
        let (h1, c1, _) = cell.forward(&x, &h0, &c0);
        let (h2, c2, _) = cell.forward(&x, &h0, &c0);
        assert_eq!(h1, h2);
        assert_eq!(c1, c2);
        assert_eq!(h1.len(), 4);
        assert!(h1.iter().all(|v| v.abs() <= 1.0), "h bounded by tanh×σ");
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = rng_from_seed(2);
        let cell = LstmCell::new(1, 5, &mut rng);
        let x = [0.7];
        let (h, c, _) = cell.forward(&x, &[0.0; 5], &[0.0; 5]);
        let mut hi = vec![0.0; 5];
        let mut ci = vec![0.0; 5];
        cell.forward_inference(&x, &mut hi, &mut ci);
        for k in 0..5 {
            assert!((h[k] - hi[k]).abs() < 1e-12);
            assert!((c[k] - ci[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = rng_from_seed(3);
        let cell = LstmCell::new(2, 3, &mut rng);
        let mut flat = Vec::new();
        cell.write_params(&mut flat);
        assert_eq!(flat.len(), cell.num_params());
        let mut other = LstmCell::new(2, 3, &mut rng);
        let consumed = other.read_params(&flat);
        assert_eq!(consumed, flat.len());
        let mut flat2 = Vec::new();
        other.write_params(&mut flat2);
        assert_eq!(flat, flat2);
    }

    /// Numeric gradient check of the full cell: d(sum h)/d(params).
    #[test]
    fn gradient_check_against_numeric() {
        let mut rng = rng_from_seed(4);
        let mut cell = LstmCell::new(2, 3, &mut rng);
        let x = [0.4, -0.9];
        let h0 = vec![0.1, -0.2, 0.3];
        let c0 = vec![0.05, 0.0, -0.1];

        // Loss: sum of h entries.
        let loss = |cell: &LstmCell| -> f64 {
            let (h, _, _) = cell.forward(&x, &h0, &c0);
            h.iter().sum()
        };

        // Analytic gradient.
        let (h, _, cache) = cell.forward(&x, &h0, &c0);
        let dh = vec![1.0; h.len()];
        let dc = vec![0.0; h.len()];
        let mut grads = LstmGrads::zeros_like(&cell);
        let (dx, dh_prev, dc_prev) = cell.backward(&cache, &dh, &dc, &mut grads);

        let mut flat_g = Vec::new();
        LstmCell::write_grads(&grads, &mut flat_g);
        let mut flat_p = Vec::new();
        cell.write_params(&mut flat_p);

        let eps = 1e-6;
        for idx in (0..flat_p.len()).step_by(7) {
            let orig = flat_p[idx];
            flat_p[idx] = orig + eps;
            cell.read_params(&flat_p);
            let up = loss(&cell);
            flat_p[idx] = orig - eps;
            cell.read_params(&flat_p);
            let down = loss(&cell);
            flat_p[idx] = orig;
            cell.read_params(&flat_p);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - flat_g[idx]).abs() < 1e-6,
                "param {idx}: numeric {numeric} vs analytic {}",
                flat_g[idx]
            );
        }

        // Input/hidden/cell gradients, numerically.
        let num_dx0 = {
            let mut xp = x;
            xp[0] += eps;
            let (hp, _, _) = cell.forward(&xp, &h0, &c0);
            let up: f64 = hp.iter().sum();
            xp[0] -= 2.0 * eps;
            let (hm, _, _) = cell.forward(&xp, &h0, &c0);
            let dn: f64 = hm.iter().sum();
            (up - dn) / (2.0 * eps)
        };
        assert!((num_dx0 - dx[0]).abs() < 1e-6);
        assert_eq!(dh_prev.len(), 3);
        assert_eq!(dc_prev.len(), 3);
    }
}
