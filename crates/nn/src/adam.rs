//! The Adam optimizer (Kingma & Ba, 2014) — the paper trains with Adam at
//! learning rate 0.001 (§8.1).

use std::collections::HashMap;

/// Adam with per-tensor first/second-moment state, keyed by caller-chosen
/// tensor ids (stable across steps).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    t: u64,
    state: HashMap<u64, (Vec<f64>, Vec<f64>)>,
}

impl Adam {
    /// Paper defaults: lr 1e-3, betas (0.9, 0.999).
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// Begin a new optimization step (increments the bias-correction
    /// timestep). Call once per mini-batch, before `update`ing tensors.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Current timestep.
    pub fn timestep(&self) -> u64 {
        self.t
    }

    /// Apply one Adam update to a tensor identified by `key`.
    pub fn update(&mut self, key: u64, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        assert!(self.t > 0, "call begin_step() before update()");
        let (m, v) = self
            .state
            .entry(key)
            .or_insert_with(|| (vec![0.0; param.len()], vec![0.0; param.len()]));
        assert_eq!(m.len(), param.len(), "tensor size changed under key {key}");
        let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        // One zip over the four slices: no index is bounds-checked, so the
        // loop vectorizes; each element sees the same operations in the
        // same order as ever.
        let moments = m.iter_mut().zip(v.iter_mut());
        for ((p, &g), (m, v)) in param.iter_mut().zip(grad).zip(moments) {
            let g = g as f64;
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= (lr * m_hat / (v_hat.sqrt() + eps)) as f32;
        }
    }

    /// Drop all state (e.g. when starting a fine-tuning phase).
    pub fn reset(&mut self) {
        self.t = 0;
        self.state.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // minimize (x - 3)^2; grad = 2(x - 3).
        let mut x = [0.0f32];
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            opt.begin_step();
            let g = [2.0 * (x[0] - 3.0)];
            opt.update(1, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn first_step_size_is_lr() {
        // Adam's bias correction makes the first update ~= lr * sign(g).
        let mut x = [0.0f32];
        let mut opt = Adam::new(0.001);
        opt.begin_step();
        opt.update(1, &mut x, &[123.0]);
        assert!((x[0] + 0.001).abs() < 1e-6, "x = {}", x[0]);
    }

    #[test]
    fn separate_keys_have_separate_state() {
        let mut opt = Adam::new(0.01);
        let mut a = [0.0f32];
        let mut b = [0.0f32];
        for _ in 0..10 {
            opt.begin_step();
            opt.update(1, &mut a, &[1.0]);
            opt.update(2, &mut b, &[-1.0]);
        }
        assert!(a[0] < 0.0 && b[0] > 0.0);
        assert!((a[0] + b[0]).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn update_before_begin_panics() {
        let mut opt = Adam::new(0.01);
        let mut x = [0.0f32];
        opt.update(1, &mut x, &[1.0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Adam::new(0.01);
        let mut x = [0.0f32];
        opt.begin_step();
        opt.update(1, &mut x, &[1.0]);
        opt.reset();
        assert_eq!(opt.timestep(), 0);
    }
}
