//! Stacked (multi-layer) LSTM — the paper's network uses **two** stacked
//! recurrent layers (§6, model (3)); this module provides the general
//! `L ≥ 1` case with the same gradient-checked forward/backward
//! machinery as the single cell.

use crate::lstm::{LstmCache, LstmCell, LstmGrads};
use mlss_core::rng::SimRng;

/// A stack of LSTM layers; layer `l`'s hidden state feeds layer `l+1`.
#[derive(Debug, Clone)]
pub struct StackedLstm {
    /// The layers, bottom first.
    pub layers: Vec<LstmCell>,
}

/// Per-step caches for the whole stack.
#[derive(Debug, Clone)]
pub struct StackedCache {
    caches: Vec<LstmCache>,
}

/// Gradients for the whole stack.
#[derive(Debug, Clone)]
pub struct StackedGrads {
    /// Per-layer gradients, bottom first.
    pub layers: Vec<LstmGrads>,
}

impl StackedGrads {
    /// Zeroed gradients shaped like `stack`.
    pub fn zeros_like(stack: &StackedLstm) -> Self {
        Self {
            layers: stack.layers.iter().map(LstmGrads::zeros_like).collect(),
        }
    }

    /// Reset to zero.
    pub fn zero(&mut self) {
        for g in &mut self.layers {
            g.zero();
        }
    }
}

/// Hidden/cell state of the whole stack.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedState {
    /// Hidden vectors per layer.
    pub h: Vec<Vec<f64>>,
    /// Cell vectors per layer.
    pub c: Vec<Vec<f64>>,
}

impl StackedLstm {
    /// Build a stack: the first layer consumes `input` features, later
    /// layers consume the previous layer's `hidden` outputs.
    pub fn new(input: usize, hidden: usize, layers: usize, rng: &mut SimRng) -> Self {
        assert!(layers >= 1);
        let mut v = Vec::with_capacity(layers);
        v.push(LstmCell::new(input, hidden, rng));
        for _ in 1..layers {
            v.push(LstmCell::new(hidden, hidden, rng));
        }
        Self { layers: v }
    }

    /// Zero initial state.
    pub fn zero_state(&self) -> StackedState {
        StackedState {
            h: self.layers.iter().map(|l| vec![0.0; l.hidden]).collect(),
            c: self.layers.iter().map(|l| vec![0.0; l.hidden]).collect(),
        }
    }

    /// Hidden width of the top layer (the MDN's input).
    pub fn top_hidden(&self) -> usize {
        self.layers.last().expect("non-empty").hidden
    }

    /// Forward one step with caches; mutates `state`, returns the top
    /// hidden vector and the caches.
    pub fn forward(&self, x: &[f64], state: &mut StackedState) -> (Vec<f64>, StackedCache) {
        let mut input = x.to_vec();
        let mut caches = Vec::with_capacity(self.layers.len());
        for (l, cell) in self.layers.iter().enumerate() {
            let (h, c, cache) = cell.forward(&input, &state.h[l], &state.c[l]);
            state.h[l] = h.clone();
            state.c[l] = c;
            caches.push(cache);
            input = h;
        }
        (input, StackedCache { caches })
    }

    /// Batched inference-only forward: one step for a cohort of lanes.
    /// `xs` is lane-major `n × input`; each lane's state is updated in
    /// place. Per lane bit-identical to [`StackedLstm::forward_inference`];
    /// the recurrent products run through the batched cell kernel.
    pub fn forward_inference_batch(&self, xs: &[f64], states: &mut [StackedState]) {
        let n = states.len();
        assert_eq!(xs.len(), n * self.layers[0].input, "xs must be n × input");
        let mut input = xs.to_vec();
        for (l, cell) in self.layers.iter().enumerate() {
            let hsz = cell.hidden;
            let mut hs = vec![0.0; n * hsz];
            let mut cs = vec![0.0; n * hsz];
            for (k, st) in states.iter().enumerate() {
                hs[k * hsz..(k + 1) * hsz].copy_from_slice(&st.h[l]);
                cs[k * hsz..(k + 1) * hsz].copy_from_slice(&st.c[l]);
            }
            cell.forward_inference_batch(n, &input, &mut hs, &mut cs);
            for (k, st) in states.iter_mut().enumerate() {
                st.h[l].copy_from_slice(&hs[k * hsz..(k + 1) * hsz]);
                st.c[l].copy_from_slice(&cs[k * hsz..(k + 1) * hsz]);
            }
            input = hs;
        }
    }

    /// Inference-only forward (no caches).
    pub fn forward_inference(&self, x: &[f64], state: &mut StackedState) {
        let mut input = x.to_vec();
        for (l, cell) in self.layers.iter().enumerate() {
            // Reuse the single-cell inference path layer by layer.
            let mut h = state.h[l].clone();
            let mut c = state.c[l].clone();
            cell.forward_inference(&input, &mut h, &mut c);
            state.h[l] = h.clone();
            state.c[l] = c;
            input = h;
        }
    }

    /// Backward one step: `dh_top` is the gradient on the top hidden
    /// output; `dhs`/`dcs` carry recurrent gradients per layer (mutated
    /// in place to the previous step's gradients).
    pub fn backward(
        &self,
        cache: &StackedCache,
        dh_top: &[f64],
        dhs: &mut [Vec<f64>],
        dcs: &mut [Vec<f64>],
        grads: &mut StackedGrads,
    ) {
        let top = self.layers.len() - 1;
        // Gradient flowing down through the stack via dx.
        let mut dx_down: Vec<f64> = Vec::new();
        for l in (0..=top).rev() {
            let mut dh = dhs[l].clone();
            if l == top {
                for (a, b) in dh.iter_mut().zip(dh_top) {
                    *a += b;
                }
            } else {
                for (a, b) in dh.iter_mut().zip(&dx_down) {
                    *a += b;
                }
            }
            let (dx, dh_prev, dc_prev) =
                self.layers[l].backward(&cache.caches[l], &dh, &dcs[l], &mut grads.layers[l]);
            dhs[l] = dh_prev;
            dcs[l] = dc_prev;
            dx_down = dx;
        }
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Append all parameters to a flat vector (bottom layer first).
    pub fn write_params(&self, out: &mut Vec<f64>) {
        for l in &self.layers {
            l.write_params(out);
        }
    }

    /// Load parameters from a flat slice; returns values consumed.
    pub fn read_params(&mut self, src: &[f64]) -> usize {
        let mut used = 0;
        for l in &mut self.layers {
            used += l.read_params(&src[used..]);
        }
        used
    }

    /// Append all gradients, mirroring `write_params`.
    pub fn write_grads(grads: &StackedGrads, out: &mut Vec<f64>) {
        for g in &grads.layers {
            LstmCell::write_grads(g, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::rng::rng_from_seed;

    #[test]
    fn single_layer_stack_matches_cell() {
        let mut rng = rng_from_seed(1);
        let stack = StackedLstm::new(2, 4, 1, &mut rng);
        let x = [0.3, -0.7];
        let mut st = stack.zero_state();
        let (h_top, _) = stack.forward(&x, &mut st);
        let (h_cell, c_cell, _) = stack.layers[0].forward(&x, &[0.0; 4], &[0.0; 4]);
        assert_eq!(h_top, h_cell);
        assert_eq!(st.c[0], c_cell);
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = rng_from_seed(2);
        let stack = StackedLstm::new(1, 3, 2, &mut rng);
        let mut a = stack.zero_state();
        let mut b = stack.zero_state();
        for x in [0.5, -0.25, 0.1] {
            stack.forward(&[x], &mut a);
            stack.forward_inference(&[x], &mut b);
        }
        for l in 0..2 {
            for k in 0..3 {
                assert!((a.h[l][k] - b.h[l][k]).abs() < 1e-12);
                assert!((a.c[l][k] - b.c[l][k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn batched_inference_matches_scalar_per_lane() {
        let mut rng = rng_from_seed(11);
        let stack = StackedLstm::new(2, 5, 2, &mut rng);
        const W: usize = 4;
        let mut batch: Vec<StackedState> = (0..W).map(|_| stack.zero_state()).collect();
        let mut scalar = batch.clone();
        use rand::RngExt;
        let inputs: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..W * 2).map(|_| rng.random::<f64>() - 0.5).collect())
            .collect();
        for xs in &inputs {
            stack.forward_inference_batch(xs, &mut batch);
            for (k, st) in scalar.iter_mut().enumerate() {
                stack.forward_inference(&xs[k * 2..(k + 1) * 2], st);
            }
        }
        for k in 0..W {
            assert_eq!(batch[k], scalar[k], "lane {k} diverged");
        }
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = rng_from_seed(3);
        let stack = StackedLstm::new(2, 3, 2, &mut rng);
        let mut flat = Vec::new();
        stack.write_params(&mut flat);
        assert_eq!(flat.len(), stack.num_params());
        let mut other = StackedLstm::new(2, 3, 2, &mut rng);
        assert_eq!(other.read_params(&flat), flat.len());
        let mut flat2 = Vec::new();
        other.write_params(&mut flat2);
        assert_eq!(flat, flat2);
    }

    /// Gradient check of the two-layer stack over a 2-step unroll.
    #[test]
    fn stacked_gradient_check() {
        let mut rng = rng_from_seed(4);
        let mut stack = StackedLstm::new(1, 3, 2, &mut rng);
        let xs = [[0.4], [-0.6]];

        let loss = |stack: &StackedLstm| -> f64 {
            let mut st = stack.zero_state();
            let mut total = 0.0;
            for x in &xs {
                let (h, _) = stack.forward(x, &mut st);
                total += h.iter().sum::<f64>();
            }
            total
        };

        // Analytic gradient via BPTT.
        let mut st = stack.zero_state();
        let mut caches = Vec::new();
        for x in &xs {
            let (_, cache) = stack.forward(x, &mut st);
            caches.push(cache);
        }
        let mut grads = StackedGrads::zeros_like(&stack);
        let mut dhs = vec![vec![0.0; 3]; 2];
        let mut dcs = vec![vec![0.0; 3]; 2];
        let dh_top = vec![1.0; 3];
        for cache in caches.iter().rev() {
            stack.backward(cache, &dh_top, &mut dhs, &mut dcs, &mut grads);
        }

        let mut flat_g = Vec::new();
        StackedLstm::write_grads(&grads, &mut flat_g);
        let mut flat_p = Vec::new();
        stack.write_params(&mut flat_p);

        let eps = 1e-6;
        for idx in (0..flat_p.len()).step_by(11) {
            let orig = flat_p[idx];
            flat_p[idx] = orig + eps;
            stack.read_params(&flat_p);
            let up = loss(&stack);
            flat_p[idx] = orig - eps;
            stack.read_params(&flat_p);
            let dn = loss(&stack);
            flat_p[idx] = orig;
            stack.read_params(&flat_p);
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - flat_g[idx]).abs() < 1e-6,
                "param {idx}: numeric {numeric} vs analytic {}",
                flat_g[idx]
            );
        }
    }
}
