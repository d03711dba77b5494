//! Gradient-descent optimizers and the paper's learning-rate schedule.
//!
//! The paper (§4) trains with plain per-sample SGD: the learning rate starts
//! at 1 and is multiplied by 0.1 for the reservoir parameters at epochs 5,
//! 10, 15 and 20, and for the output parameters at epochs 10, 15 and 20.
//! Momentum-SGD and Adam are provided as extensions for ablation.

use crate::backprop::Gradients;
use crate::model::DfrClassifier;
use crate::CoreError;
use dfr_linalg::Matrix;
use dfr_reservoir::nonlinearity::Nonlinearity;

/// A step-decay learning-rate schedule: `initial · factor^(#decays ≤ epoch)`.
///
/// # Example
///
/// ```
/// use dfr_core::optimizer::Schedule;
///
/// let s = Schedule::step_decay(1.0, &[5, 10, 15, 20], 0.1);
/// assert_eq!(s.lr(0), 1.0);
/// assert_eq!(s.lr(5), 0.1);
/// assert!((s.lr(24) - 1e-4).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    initial: f64,
    decay_epochs: Vec<usize>,
    factor: f64,
}

impl Schedule {
    /// Creates a step-decay schedule. `decay_epochs` are the (0-based)
    /// epochs at whose *start* the rate is multiplied by `factor`.
    pub fn step_decay(initial: f64, decay_epochs: &[usize], factor: f64) -> Self {
        let mut decay_epochs = decay_epochs.to_vec();
        decay_epochs.sort_unstable();
        Schedule {
            initial,
            decay_epochs,
            factor,
        }
    }

    /// A constant learning rate.
    pub fn constant(lr: f64) -> Self {
        Schedule::step_decay(lr, &[], 1.0)
    }

    /// The paper's reservoir-parameter schedule: 1.0, ×0.1 at 5/10/15/20.
    pub fn paper_reservoir() -> Self {
        Schedule::step_decay(1.0, &[5, 10, 15, 20], 0.1)
    }

    /// The paper's output-parameter schedule: 1.0, ×0.1 at 10/15/20.
    pub fn paper_output() -> Self {
        Schedule::step_decay(1.0, &[10, 15, 20], 0.1)
    }

    /// Learning rate for a (0-based) epoch.
    pub fn lr(&self, epoch: usize) -> f64 {
        let decays = self.decay_epochs.iter().filter(|&&e| e <= epoch).count();
        self.initial * self.factor.powi(decays as i32)
    }
}

/// Box constraints keeping the reservoir parameters in a numerically safe
/// region during optimization.
///
/// The defaults are the paper's grid-search ranges
/// (`A ∈ [10^−3.75, 10^−0.25]`, `B ∈ [10^−2.75, 10^−0.25]`), which the
/// authors chose "to be able to find the optimal parameters for all the
/// datasets"; projecting SGD iterates into the same box keeps the
/// comparison fair and prevents reservoir divergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamBounds {
    /// Inclusive range for `A`.
    pub a: (f64, f64),
    /// Inclusive range for `B`.
    pub b: (f64, f64),
}

impl Default for ParamBounds {
    fn default() -> Self {
        ParamBounds {
            a: (10f64.powf(-3.75), 10f64.powf(-0.25)),
            b: (10f64.powf(-2.75), 10f64.powf(-0.25)),
        }
    }
}

impl ParamBounds {
    /// Clamps `(a, b)` into the box.
    pub fn clamp(&self, a: f64, b: f64) -> (f64, f64) {
        (a.clamp(self.a.0, self.a.1), b.clamp(self.b.0, self.b.1))
    }
}

/// Plain stochastic gradient descent with separate reservoir/readout rates
/// — the paper's optimizer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sgd {
    /// Optional momentum coefficient (0 = the paper's plain SGD).
    pub momentum: f64,
    velocity: Option<Velocity>,
}

#[derive(Debug, Clone, PartialEq)]
struct Velocity {
    a: f64,
    b: f64,
    w_out: Matrix,
    bias: Vec<f64>,
}

impl Sgd {
    /// Plain SGD (no momentum), as in the paper.
    pub fn new() -> Self {
        Sgd::default()
    }

    /// SGD with momentum `mu` (extension).
    pub fn with_momentum(mu: f64) -> Self {
        Sgd {
            momentum: mu,
            velocity: None,
        }
    }

    /// Applies one update:
    /// reservoir parameters with `lr_reservoir`, readout with `lr_output`,
    /// then projects `(A, B)` into `bounds`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NumericalFailure`] if the update would make any
    /// parameter non-finite.
    pub fn step<N: Nonlinearity + Clone>(
        &mut self,
        model: &mut DfrClassifier<N>,
        grads: &Gradients,
        lr_reservoir: f64,
        lr_output: f64,
        bounds: &ParamBounds,
    ) -> Result<(), CoreError> {
        if !grads.is_finite() {
            return Err(CoreError::NumericalFailure {
                context: "sgd gradients",
            });
        }
        // Plain SGD applies the rank-1 readout gradient straight to
        // `W_out`, checking finiteness in the same pass; momentum keeps a
        // dense velocity and adds the same factors into it. No per-step
        // gradient clones on either path (the hot loop's allocation-free
        // contract).
        let velocity = if self.momentum > 0.0 {
            let (rows, cols) = grads.w_out.shape();
            let v = self.velocity.get_or_insert_with(|| Velocity {
                a: 0.0,
                b: 0.0,
                w_out: Matrix::zeros(rows, cols),
                bias: vec![0.0; grads.bias.len()],
            });
            v.a = self.momentum * v.a + grads.a;
            v.b = self.momentum * v.b + grads.b;
            grads.w_out.accumulate_into(self.momentum, &mut v.w_out)?;
            for (vb, &g) in v.bias.iter_mut().zip(&grads.bias) {
                *vb = self.momentum * *vb + g;
            }
            Some(&*v)
        } else {
            None
        };
        let (ga, gb, gbias) = match velocity {
            Some(v) => (v.a, v.b, &v.bias),
            None => (grads.a, grads.b, &grads.bias),
        };

        let (a0, b0) = (model.reservoir().a(), model.reservoir().b());
        let (a1, b1) = bounds.clamp(a0 - lr_reservoir * ga, b0 - lr_reservoir * gb);
        model.reservoir_mut().set_params(a1, b1)?;
        let finite = match velocity {
            Some(v) => {
                model.w_out_mut().axpy(-lr_output, &v.w_out)?;
                model.w_out().as_slice().iter().all(|w| w.is_finite())
            }
            None => grads.w_out.add_to(-lr_output, model.w_out_mut())?,
        };
        for (bv, g) in model.bias_mut().iter_mut().zip(gbias) {
            *bv -= lr_output * g;
        }
        if !finite {
            return Err(CoreError::NumericalFailure {
                context: "sgd readout update",
            });
        }
        Ok(())
    }
}

/// Adam optimizer (extension beyond the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// First-moment decay (default 0.9).
    pub beta1: f64,
    /// Second-moment decay (default 0.999).
    pub beta2: f64,
    /// Numerical-stability constant (default 1e−8).
    pub epsilon: f64,
    step: usize,
    m: Option<Velocity>,
    v: Option<Velocity>,
}

impl Default for Adam {
    fn default() -> Self {
        Adam {
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step: 0,
            m: None,
            v: None,
        }
    }
}

impl Adam {
    /// Creates an Adam optimizer with standard hyperparameters.
    pub fn new() -> Self {
        Adam::default()
    }

    /// Applies one Adam update with separate reservoir/readout rates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NumericalFailure`] on non-finite gradients.
    pub fn step<N: Nonlinearity + Clone>(
        &mut self,
        model: &mut DfrClassifier<N>,
        grads: &Gradients,
        lr_reservoir: f64,
        lr_output: f64,
        bounds: &ParamBounds,
    ) -> Result<(), CoreError> {
        if !grads.is_finite() {
            return Err(CoreError::NumericalFailure {
                context: "adam gradients",
            });
        }
        let (rows, cols) = grads.w_out.shape();
        let zero = || Velocity {
            a: 0.0,
            b: 0.0,
            w_out: Matrix::zeros(rows, cols),
            bias: vec![0.0; grads.bias.len()],
        };
        let m = self.m.get_or_insert_with(zero);
        let v = self.v.get_or_insert_with(zero);
        self.step += 1;
        let t = self.step as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);

        let update_scalar = |m: &mut f64, v: &mut f64, g: f64, b1: f64, b2: f64| {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
        };
        update_scalar(&mut m.a, &mut v.a, grads.a, self.beta1, self.beta2);
        update_scalar(&mut m.b, &mut v.b, grads.b, self.beta1, self.beta2);
        for c in 0..rows {
            for j in 0..cols {
                update_scalar(
                    &mut m.w_out[(c, j)],
                    &mut v.w_out[(c, j)],
                    grads.w_out.get(c, j),
                    self.beta1,
                    self.beta2,
                );
            }
        }
        for i in 0..grads.bias.len() {
            update_scalar(
                &mut m.bias[i],
                &mut v.bias[i],
                grads.bias[i],
                self.beta1,
                self.beta2,
            );
        }

        let adapt = |mh: f64, vh: f64, eps: f64| mh / bc1 / ((vh / bc2).sqrt() + eps);
        let (a0, b0) = (model.reservoir().a(), model.reservoir().b());
        let (a1, b1) = bounds.clamp(
            a0 - lr_reservoir * adapt(m.a, v.a, self.epsilon),
            b0 - lr_reservoir * adapt(m.b, v.b, self.epsilon),
        );
        model.reservoir_mut().set_params(a1, b1)?;
        for i in 0..rows * cols {
            model.w_out_mut().as_mut_slice()[i] -=
                lr_output * adapt(m.w_out.as_slice()[i], v.w_out.as_slice()[i], self.epsilon);
        }
        for i in 0..grads.bias.len() {
            model.bias_mut()[i] -= lr_output * adapt(m.bias[i], v.bias[i], self.epsilon);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backprop::{backprop, BackpropOptions};
    use dfr_linalg::Matrix;

    #[test]
    fn paper_schedules_match_section4() {
        let r = Schedule::paper_reservoir();
        // Epochs 0–4: 1; 5–9: 0.1; 10–14: 0.01; 15–19: 1e-3; 20–24: 1e-4.
        assert_eq!(r.lr(0), 1.0);
        assert_eq!(r.lr(4), 1.0);
        assert!((r.lr(5) - 0.1).abs() < 1e-15);
        assert!((r.lr(12) - 0.01).abs() < 1e-16);
        assert!((r.lr(19) - 1e-3).abs() < 1e-17);
        assert!((r.lr(24) - 1e-4).abs() < 1e-18);

        let o = Schedule::paper_output();
        assert_eq!(o.lr(9), 1.0);
        assert!((o.lr(10) - 0.1).abs() < 1e-15);
        assert!((o.lr(24) - 1e-3).abs() < 1e-17);
    }

    #[test]
    fn constant_schedule() {
        let s = Schedule::constant(0.3);
        assert_eq!(s.lr(0), 0.3);
        assert_eq!(s.lr(100), 0.3);
    }

    #[test]
    fn bounds_default_is_paper_grid_range() {
        let b = ParamBounds::default();
        assert!((b.a.0 - 10f64.powf(-3.75)).abs() < 1e-18);
        assert!((b.a.1 - 10f64.powf(-0.25)).abs() < 1e-15);
        let (a, bb) = b.clamp(5.0, -1.0);
        assert_eq!(a, b.a.1);
        assert_eq!(bb, b.b.0);
    }

    fn toy_setup() -> (DfrClassifier, Matrix, [f64; 2]) {
        let mut m = DfrClassifier::paper_default(3, 1, 2, 0).unwrap();
        m.reservoir_mut().set_params(0.2, 0.2).unwrap();
        for j in 0..m.feature_dim() {
            m.w_out_mut()[(0, j)] = 0.02 * (j as f64 - 5.0);
        }
        let u = Matrix::from_vec(5, 1, vec![0.5, -0.3, 0.8, 0.1, -0.6]).unwrap();
        (m, u, [1.0, 0.0])
    }

    #[test]
    fn sgd_step_decreases_loss() {
        let (mut m, u, d) = toy_setup();
        let cache = m.forward(&u).unwrap();
        let (loss0, g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        let mut sgd = Sgd::new();
        sgd.step(&mut m, &g, 0.01, 0.01, &ParamBounds::default())
            .unwrap();
        let loss1 = m.forward(&u).unwrap().loss(&d);
        assert!(loss1 < loss0, "loss {loss1} should drop below {loss0}");
    }

    #[test]
    fn sgd_rejects_nonfinite_gradients() {
        let (mut m, u, d) = toy_setup();
        let cache = m.forward(&u).unwrap();
        let (_, mut g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        g.a = f64::NAN;
        let mut sgd = Sgd::new();
        assert!(matches!(
            sgd.step(&mut m, &g, 0.1, 0.1, &ParamBounds::default()),
            Err(CoreError::NumericalFailure { .. })
        ));
    }

    #[test]
    fn sgd_clamps_into_bounds() {
        let (mut m, u, d) = toy_setup();
        let cache = m.forward(&u).unwrap();
        let (_, mut g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        g.a = 1e9; // enormous gradient
        let bounds = ParamBounds::default();
        let mut sgd = Sgd::new();
        sgd.step(&mut m, &g, 1.0, 0.0, &bounds).unwrap();
        assert_eq!(m.reservoir().a(), bounds.a.0);
    }

    #[test]
    fn momentum_accumulates() {
        let (m, u, d) = toy_setup();
        let cache = m.forward(&u).unwrap();
        let (_, g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        let mut plain = Sgd::new();
        let mut momentum = Sgd::with_momentum(0.9);
        let mut m1 = m.clone();
        let mut m2 = m.clone();
        // Two identical steps: with momentum the second step is larger.
        for _ in 0..2 {
            plain
                .step(&mut m1, &g, 0.001, 0.0, &ParamBounds::default())
                .unwrap();
            momentum
                .step(&mut m2, &g, 0.001, 0.0, &ParamBounds::default())
                .unwrap();
        }
        let d1 = (m.reservoir().a() - m1.reservoir().a()).abs();
        let d2 = (m.reservoir().a() - m2.reservoir().a()).abs();
        assert!(d2 > d1, "momentum displacement {d2} vs plain {d1}");
    }

    #[test]
    fn adam_step_decreases_loss() {
        let (mut m, u, d) = toy_setup();
        let cache = m.forward(&u).unwrap();
        let (loss0, g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        let mut adam = Adam::new();
        adam.step(&mut m, &g, 1e-3, 1e-2, &ParamBounds::default())
            .unwrap();
        let loss1 = m.forward(&u).unwrap().loss(&d);
        assert!(loss1 < loss0);
    }

    /// The dense readout gradient and the optimizer steps that consumed
    /// it before `∂L/∂W_out` was kept factored: the reference the rank-1
    /// path must reproduce bit for bit.
    mod dense {
        use super::*;
        use crate::backprop::Gradients;

        #[derive(Clone)]
        pub struct Grads {
            pub a: f64,
            pub b: f64,
            pub w_out: Matrix,
            pub bias: Vec<f64>,
        }

        /// Materialises `g·rᵀ` as the dense builder did: zero-filled,
        /// rows with `g_c == 0` left untouched. `g` must be unscaled.
        pub fn materialise(g: &Gradients) -> Grads {
            let (gf, r) = (g.w_out.g(), g.w_out.r());
            let mut w_out = Matrix::zeros(gf.len(), r.len());
            for (c, &gc) in gf.iter().enumerate() {
                if gc == 0.0 {
                    continue;
                }
                for (w, &rj) in w_out.row_mut(c).iter_mut().zip(r) {
                    *w = gc * rj;
                }
            }
            Grads {
                a: g.a,
                b: g.b,
                w_out,
                bias: g.bias.clone(),
            }
        }

        impl Grads {
            pub fn max_abs(&self) -> f64 {
                let mut m = self.a.abs().max(self.b.abs());
                m = m.max(self.w_out.max_abs());
                self.bias.iter().fold(m, |acc, g| acc.max(g.abs()))
            }

            pub fn is_finite(&self) -> bool {
                self.a.is_finite()
                    && self.b.is_finite()
                    && self.w_out.as_slice().iter().all(|g| g.is_finite())
                    && self.bias.iter().all(|g| g.is_finite())
            }

            pub fn scale(&mut self, factor: f64) {
                self.a *= factor;
                self.b *= factor;
                self.w_out.scale(factor);
                for g in &mut self.bias {
                    *g *= factor;
                }
            }
        }

        /// The dense `Sgd::step` (plain and momentum).
        pub fn sgd_step(
            momentum: f64,
            velocity: &mut Option<Grads>,
            model: &mut DfrClassifier,
            grads: &Grads,
            lr_reservoir: f64,
            lr_output: f64,
        ) -> Result<(), CoreError> {
            assert!(grads.is_finite());
            let eff = if momentum > 0.0 {
                let v = velocity.get_or_insert_with(|| Grads {
                    a: 0.0,
                    b: 0.0,
                    w_out: Matrix::zeros(grads.w_out.rows(), grads.w_out.cols()),
                    bias: vec![0.0; grads.bias.len()],
                });
                v.a = momentum * v.a + grads.a;
                v.b = momentum * v.b + grads.b;
                v.w_out.scale(momentum);
                v.w_out.axpy(1.0, &grads.w_out)?;
                for (vb, &g) in v.bias.iter_mut().zip(&grads.bias) {
                    *vb = momentum * *vb + g;
                }
                v.clone()
            } else {
                grads.clone()
            };
            let (a0, b0) = (model.reservoir().a(), model.reservoir().b());
            let (a1, b1) =
                ParamBounds::default().clamp(a0 - lr_reservoir * eff.a, b0 - lr_reservoir * eff.b);
            model.reservoir_mut().set_params(a1, b1)?;
            model.w_out_mut().axpy(-lr_output, &eff.w_out)?;
            for (bv, g) in model.bias_mut().iter_mut().zip(&eff.bias) {
                *bv -= lr_output * g;
            }
            assert!(model.w_out().as_slice().iter().all(|w| w.is_finite()));
            Ok(())
        }

        /// The dense `Adam::step` with default hyperparameters; `state`
        /// holds `(step, m, v)`.
        pub fn adam_step(
            state: &mut (usize, Option<Grads>, Option<Grads>),
            model: &mut DfrClassifier,
            grads: &Grads,
            lr_reservoir: f64,
            lr_output: f64,
        ) -> Result<(), CoreError> {
            let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
            let zero = || Grads {
                a: 0.0,
                b: 0.0,
                w_out: Matrix::zeros(grads.w_out.rows(), grads.w_out.cols()),
                bias: vec![0.0; grads.bias.len()],
            };
            let m = state.1.get_or_insert_with(zero);
            let v = state.2.get_or_insert_with(zero);
            state.0 += 1;
            let t = state.0 as i32;
            let (bc1, bc2) = (1.0 - f64::powi(beta1, t), 1.0 - f64::powi(beta2, t));
            let upd = |m: &mut f64, v: &mut f64, g: f64| {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
            };
            upd(&mut m.a, &mut v.a, grads.a);
            upd(&mut m.b, &mut v.b, grads.b);
            for i in 0..grads.w_out.as_slice().len() {
                upd(
                    &mut m.w_out.as_mut_slice()[i],
                    &mut v.w_out.as_mut_slice()[i],
                    grads.w_out.as_slice()[i],
                );
            }
            for i in 0..grads.bias.len() {
                upd(&mut m.bias[i], &mut v.bias[i], grads.bias[i]);
            }
            let adapt = |mh: f64, vh: f64| mh / bc1 / ((vh / bc2).sqrt() + eps);
            let (a0, b0) = (model.reservoir().a(), model.reservoir().b());
            let (a1, b1) = ParamBounds::default().clamp(
                a0 - lr_reservoir * adapt(m.a, v.a),
                b0 - lr_reservoir * adapt(m.b, v.b),
            );
            model.reservoir_mut().set_params(a1, b1)?;
            for i in 0..grads.w_out.as_slice().len() {
                model.w_out_mut().as_mut_slice()[i] -=
                    lr_output * adapt(m.w_out.as_slice()[i], v.w_out.as_slice()[i]);
            }
            for i in 0..grads.bias.len() {
                model.bias_mut()[i] -= lr_output * adapt(m.bias[i], v.bias[i]);
            }
            Ok(())
        }
    }

    /// Every trainable quantity of the SGD step, as bits.
    fn step_bits(m: &DfrClassifier) -> Vec<u64> {
        let mut bits = vec![m.reservoir().a().to_bits(), m.reservoir().b().to_bits()];
        bits.extend(m.w_out().as_slice().iter().map(|w| w.to_bits()));
        bits.extend(m.bias().iter().map(|w| w.to_bits()));
        bits
    }

    #[derive(Clone, Copy, Debug)]
    enum Opt {
        Plain,
        Momentum,
        Adam,
    }

    /// Runs `steps` forward/backward/update rounds through the factored
    /// optimizer and the dense reference side by side, asserting equal
    /// bits after every step (and equal clip norms where clipping).
    fn run_against_dense(opt: Opt, clip: Option<f64>, steps: usize) {
        let mut m = DfrClassifier::paper_default(5, 2, 4, 3).unwrap();
        m.reservoir_mut().set_params(0.2, 0.15).unwrap();
        for c in 0..4 {
            for j in 0..m.feature_dim() {
                m.w_out_mut()[(c, j)] = 0.03 * (((c * 7 + j) % 9) as f64 - 4.0);
            }
        }
        let mut reference = m.clone();
        let (mut sgd, mut adam) = match opt {
            Opt::Momentum => (Sgd::with_momentum(0.9), Adam::new()),
            _ => (Sgd::new(), Adam::new()),
        };
        let mut velocity = None;
        let mut adam_state = (0, None, None);
        for step in 0..steps {
            let data: Vec<f64> = (0..16)
                .map(|i| ((i * 5 + step * 3) as f64 * 0.37).sin())
                .collect();
            let u = Matrix::from_vec(8, 2, data).unwrap();
            let mut d = [0.0; 4];
            d[step % 4] = 1.0;
            let cache = m.forward(&u).unwrap();
            let (_, mut g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
            // The reference sees the same gradient, from the same model.
            assert_eq!(step_bits(&m), step_bits(&reference), "{opt:?} step {step}");
            let mut dense_g = dense::materialise(&g);
            assert_eq!(g.is_finite(), dense_g.is_finite());
            if let Some(clip) = clip {
                let (mf, md) = (g.max_abs(), dense_g.max_abs());
                assert_eq!(mf.to_bits(), md.to_bits(), "{opt:?} step {step} max_abs");
                if mf > clip {
                    g.scale(clip / mf);
                    dense_g.scale(clip / md);
                    assert_eq!(g.max_abs().to_bits(), dense_g.max_abs().to_bits());
                }
            }
            let (lr_res, lr_out) = (0.05, 0.3);
            let bounds = ParamBounds::default();
            match opt {
                Opt::Plain | Opt::Momentum => {
                    sgd.step(&mut m, &g, lr_res, lr_out, &bounds).unwrap();
                    dense::sgd_step(
                        sgd.momentum,
                        &mut velocity,
                        &mut reference,
                        &dense_g,
                        lr_res,
                        lr_out,
                    )
                    .unwrap();
                }
                Opt::Adam => {
                    adam.step(&mut m, &g, lr_res, lr_out, &bounds).unwrap();
                    dense::adam_step(&mut adam_state, &mut reference, &dense_g, lr_res, lr_out)
                        .unwrap();
                }
            }
            assert_eq!(step_bits(&m), step_bits(&reference), "{opt:?} step {step}");
        }
    }

    #[test]
    fn factored_step_matches_dense_reference_bitwise() {
        for opt in [Opt::Plain, Opt::Momentum, Opt::Adam] {
            run_against_dense(opt, None, 12);
            // A clip below the typical gradient norm scales most steps.
            run_against_dense(opt, Some(0.05), 12);
        }
    }

    #[test]
    fn zero_gradient_row_keeps_negative_zero_weights() {
        // Row 1 has g_c == 0 and sits over −0.0 weights; r has negative
        // entries, so `−lr·(0·r_j)` would be +0.0 and flip them.
        let mut m = DfrClassifier::paper_default(2, 1, 3, 0).unwrap();
        let nr = m.feature_dim();
        for j in 0..nr {
            m.w_out_mut()[(1, j)] = -0.0;
            m.w_out_mut()[(0, j)] = 0.1 * j as f64;
        }
        let r: Vec<f64> = (0..nr).map(|j| j as f64 - 2.5).collect();
        let mut g = Gradients::default();
        g.set_output_layer(&[0.25, 0.0, -0.25], &r);
        for opt in [Opt::Plain, Opt::Momentum, Opt::Adam] {
            let mut fm = m.clone();
            let mut reference = m.clone();
            let dense_g = dense::materialise(&g);
            let bounds = ParamBounds::default();
            match opt {
                Opt::Adam => {
                    Adam::new().step(&mut fm, &g, 0.0, 0.5, &bounds).unwrap();
                    dense::adam_step(&mut (0, None, None), &mut reference, &dense_g, 0.0, 0.5)
                        .unwrap();
                }
                _ => {
                    let mu = if matches!(opt, Opt::Momentum) {
                        0.9
                    } else {
                        0.0
                    };
                    let mut sgd = Sgd::with_momentum(mu);
                    let mut velocity = None;
                    for _ in 0..2 {
                        sgd.step(&mut fm, &g, 0.0, 0.5, &bounds).unwrap();
                        dense::sgd_step(mu, &mut velocity, &mut reference, &dense_g, 0.0, 0.5)
                            .unwrap();
                    }
                }
            }
            assert_eq!(step_bits(&fm), step_bits(&reference), "{opt:?}");
            assert!(
                fm.w_out()
                    .row(1)
                    .iter()
                    .all(|w| w.to_bits() == (-0.0f64).to_bits()),
                "{opt:?}: a zero gradient row must leave −0.0 weights alone"
            );
        }
    }

    #[test]
    fn finiteness_and_max_abs_match_dense_reference() {
        let big = f64::MAX.sqrt() * 4.0;
        let cases: [(&str, Vec<f64>, Vec<f64>); 7] = [
            ("finite", vec![0.5, 0.0, -2.0], vec![1.5, -3.0, 0.25, 0.0]),
            (
                "NaN g",
                vec![0.5, f64::NAN, -2.0],
                vec![1.5, -3.0, 0.25, 0.0],
            ),
            (
                "inf r",
                vec![0.5, 0.0, -2.0],
                vec![1.5, f64::INFINITY, 0.25, 0.0],
            ),
            (
                "NaN r",
                vec![0.5, 0.0, -2.0],
                vec![1.5, f64::NAN, 0.25, 0.0],
            ),
            (
                "inf r, zero g",
                vec![0.0, -0.0],
                vec![f64::NEG_INFINITY, 2.0],
            ),
            ("inf g, zero r", vec![f64::INFINITY, 1.0], vec![0.0, -0.0]),
            ("|g_c·r_j| > MAX", vec![big, 1.0], vec![0.5, -big]),
        ];
        for (what, gv, r) in cases {
            for scale in [None, Some(0.5), Some(1e-300)] {
                let mut g = Gradients::default();
                g.set_output_layer(&gv, &r);
                g.a = 0.125;
                g.b = -0.5;
                let mut dense_g = dense::materialise(&g);
                if let Some(s) = scale {
                    g.scale(s);
                    dense_g.scale(s);
                }
                assert_eq!(g.is_finite(), dense_g.is_finite(), "{what} {scale:?}");
                assert_eq!(
                    g.w_out.is_finite(),
                    dense_g.w_out.as_slice().iter().all(|w| w.is_finite()),
                    "{what} {scale:?}: readout is_finite"
                );
                assert_eq!(
                    g.w_out.max_abs().to_bits(),
                    dense_g.w_out.max_abs().to_bits(),
                    "{what} {scale:?}: readout max_abs"
                );
                assert_eq!(
                    g.max_abs().to_bits(),
                    dense_g.max_abs().to_bits(),
                    "{what} {scale:?}: max_abs"
                );
                let (rows, cols) = g.w_out.shape();
                for c in 0..rows {
                    for j in 0..cols {
                        assert_eq!(
                            g.w_out.get(c, j).to_bits(),
                            dense_g.w_out[(c, j)].to_bits(),
                            "{what} {scale:?}: entry ({c}, {j})"
                        );
                    }
                }
            }
        }
    }
}
