//! Hand-derived backpropagation through the DFR pipeline (paper §3).
//!
//! The gradient flows backwards through three stages:
//!
//! 1. **Output layer** (§3.1, Eqs. 16–17): softmax + cross-entropy give
//!    `∂L/∂logits = y − d`; then `∂L/∂b = g`, `∂L/∂W = g·rᵀ`,
//!    `∂L/∂r = Wᵀ·g`. `∂L/∂W` stays factored as `(g, r)` ([`RankOne`]):
//!    the `N_y × N_r` matrix is never built, and the optimizer applies it
//!    as a rank-1 update in one pass over `W`.
//! 2. **DPRR layer** (§3.2, Eqs. 20–23): each reservoir state value feeds
//!    multiple representation features — as the *left* factor of the
//!    products at time `k`, as the *right* factor at time `k+1`, and the
//!    bias block — so the backpropagated value (bpv) of `x(k)_n` has three
//!    terms (Eq. 23).
//! 3. **Reservoir layer** (§3.3, Eqs. 24–32): the recurrence
//!    `x(k)_n = A·f(j(k)_n + x(k−1)_n) + B·x(k)_{n−1}` is unrolled backwards
//!    over the flattened virtual-node sequence; `∂L/∂A` and `∂L/∂B`
//!    accumulate over all times (Eqs. 31–32).
//!
//! **Truncated backpropagation** (§3.4, Eqs. 33–36) keeps only the last
//! input step: the bpv loses its future term, the recursion runs only along
//! the `B`-chain of the final step, and the parameter gradients collapse to
//! single sums — ~`1/T` of the compute and only two stored reservoir
//! states. [`BackpropMode::Truncated`] generalises this to a window of the
//! last `W` steps (`W = 1` is the paper's method, `W = T` recovers the full
//! gradient exactly).

use crate::model::{DfrClassifier, ForwardCache};
use crate::workspace::BackpropWorkspace;
use crate::CoreError;
use dfr_linalg::activation::softmax_cross_entropy_grad_into;
use dfr_linalg::{LinalgError, Matrix};
use dfr_reservoir::nonlinearity::Nonlinearity;

/// Which backpropagation variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackpropMode {
    /// Exact gradients through the whole history (Eqs. 23, 30–32).
    Full,
    /// Truncated gradients using only the last `window` input steps
    /// (Eqs. 33–36 for `window = 1`, the paper's proposal).
    Truncated {
        /// Number of trailing input steps to backpropagate through (≥ 1).
        window: usize,
    },
}

impl BackpropMode {
    /// The paper's truncation: last step only.
    pub const PAPER_TRUNCATED: BackpropMode = BackpropMode::Truncated { window: 1 };

    /// Number of trailing input steps the mode touches for a series of
    /// length `t_len`.
    pub fn effective_window(self, t_len: usize) -> usize {
        match self {
            BackpropMode::Full => t_len,
            BackpropMode::Truncated { window } => window.clamp(1, t_len.max(1)),
        }
    }
}

impl Default for BackpropMode {
    /// The paper's lightweight proposal (`Truncated { window: 1 }`).
    fn default() -> Self {
        BackpropMode::PAPER_TRUNCATED
    }
}

/// Gradients of the loss with respect to every trainable quantity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gradients {
    /// `∂L/∂A` (Eq. 31 / 35).
    pub a: f64,
    /// `∂L/∂B` (Eq. 32 / 36).
    pub b: f64,
    /// `∂L/∂W_out = g·rᵀ` (`N_y × N_r`, Eq. 17), kept as its two factors.
    pub w_out: RankOne,
    /// `∂L/∂b` of the readout (Eq. 17).
    pub bias: Vec<f64>,
    /// `∂L/∂M` (`N_x × C`) — extension beyond the paper, present only when
    /// requested via [`BackpropOptions::mask_gradient`].
    pub mask: Option<Matrix>,
}

impl Gradients {
    /// Stage 1 of the backward pass (Eq. 17): `∂L/∂b = g` and
    /// `∂L/∂W_out = g·rᵀ` from the output-layer gradient `g = y − d` and
    /// the readout's input features `r`. Buffers are reused; any earlier
    /// [`Gradients::scale`] is cleared.
    pub fn set_output_layer(&mut self, g: &[f64], r: &[f64]) {
        self.bias.clear();
        self.bias.extend_from_slice(g);
        self.w_out.set(g, r);
    }

    /// Largest absolute gradient component (for clipping / diagnostics).
    pub fn max_abs(&self) -> f64 {
        let mut m = self.a.abs().max(self.b.abs());
        m = m.max(self.w_out.max_abs());
        m = self.bias.iter().fold(m, |acc, g| acc.max(g.abs()));
        if let Some(mask) = &self.mask {
            m = m.max(mask.max_abs());
        }
        m
    }

    /// Whether every component is finite.
    pub fn is_finite(&self) -> bool {
        self.a.is_finite()
            && self.b.is_finite()
            && self.w_out.is_finite()
            && self.bias.iter().all(|g| g.is_finite())
            && self
                .mask
                .as_ref()
                .map_or(true, |m| m.as_slice().iter().all(|g| g.is_finite()))
    }

    /// Scales every component in place (used by gradient clipping).
    pub fn scale(&mut self, factor: f64) {
        self.a *= factor;
        self.b *= factor;
        self.w_out.scale(factor);
        for g in &mut self.bias {
            *g *= factor;
        }
        if let Some(mask) = &mut self.mask {
            mask.scale(factor);
        }
    }
}

/// The rank-1 readout gradient `s·g·rᵀ` (Eq. 17), held as its factors:
/// `g` (length `N_y`), `r` (length `N_r`) and a scale `s` (1 until
/// [`RankOne::scale`]).
///
/// Only the update touches `N_y · N_r` elements; every check is
/// `O(N_y + N_r)`. Each operation reproduces, bit for bit, the dense
/// `N_y × N_r` matrix whose entry `(c, j)` is `(g_c·r_j)·s` — or `0·s`
/// where `g_c == 0`, a row the dense builder never wrote. Exactness of [`RankOne::max_abs`] and
/// [`RankOne::is_finite`] rests on rounding being monotone: the largest
/// `|(g_c·r_j)·s|` is `(max|g|·max|r|)·|s|`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOne {
    g: Vec<f64>,
    r: Vec<f64>,
    s: f64,
}

impl Default for RankOne {
    fn default() -> Self {
        RankOne {
            g: Vec::new(),
            r: Vec::new(),
            s: 1.0,
        }
    }
}

/// `max |x|` over the non-NaN elements, `0.0` for none — the fold of
/// [`Matrix::max_abs`].
fn max_abs_of(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

impl RankOne {
    /// Sets the factors to copies of `g` and `r` and the scale to 1
    /// (buffers reused).
    pub fn set(&mut self, g: &[f64], r: &[f64]) {
        self.g.clear();
        self.g.extend_from_slice(g);
        self.r.clear();
        self.r.extend_from_slice(r);
        self.s = 1.0;
    }

    /// The left factor `g` (one entry per class).
    pub fn g(&self) -> &[f64] {
        &self.g
    }

    /// The right factor `r` (one entry per feature).
    pub fn r(&self) -> &[f64] {
        &self.r
    }

    /// `(N_y, N_r)`, the shape of the matrix this represents.
    pub fn shape(&self) -> (usize, usize) {
        (self.g.len(), self.r.len())
    }

    /// Entry `(c, j)` of the represented matrix: `(g_c·r_j)·s`, and `0·s`
    /// in a row with `g_c == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `c` or `j` is out of range.
    #[inline]
    pub fn get(&self, c: usize, j: usize) -> f64 {
        entry(self.g[c], self.r[j], self.s)
    }

    /// Multiplies the represented matrix by `factor`. One call is exactly
    /// the dense `(g_c·r_j)·factor`; further calls multiply into the same
    /// scale, which may round differently from scaling twice.
    pub fn scale(&mut self, factor: f64) {
        self.s *= factor;
    }

    /// Largest absolute entry, or `0.0` for an empty matrix — equal to
    /// [`Matrix::max_abs`] of the dense form (NaN entries are skipped).
    pub fn max_abs(&self) -> f64 {
        let m = (max_abs_of(&self.g) * max_abs_of(&self.r)) * self.s.abs();
        // A NaN here means every non-NaN dense entry is zero (`∞·0`).
        if m.is_nan() {
            0.0
        } else {
            m
        }
    }

    /// Whether every entry is finite. Zero rows hold `0·s`; every other
    /// row is finite iff its `g_c` and all of `r` are, and the largest
    /// product does not overflow.
    pub fn is_finite(&self) -> bool {
        if self.g.is_empty() || self.r.is_empty() {
            return true;
        }
        if !self.s.is_finite() || !self.g.iter().all(|g| g.is_finite()) {
            return false;
        }
        let gm = max_abs_of(&self.g);
        gm == 0.0
            || (self.r.iter().all(|r| r.is_finite())
                && ((gm * max_abs_of(&self.r)) * self.s.abs()).is_finite())
    }

    /// `w += alpha·(s·g·rᵀ)` in one row-by-row pass
    /// ([`Matrix::add_outer`]), associated as [`Matrix::axpy`] computes it
    /// on the dense form: `w_cj += alpha·((g_c·r_j)·s)`, rows with
    /// `g_c == 0` skipped. Returns whether every element of `w` is finite
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `w`'s shape
    /// differs from [`RankOne::shape`].
    pub(crate) fn add_to(&self, alpha: f64, w: &mut Matrix) -> Result<bool, LinalgError> {
        w.add_outer(alpha, &self.g, &self.r, self.s)
    }

    /// `v = mu·v + s·g·rᵀ` elementwise on a dense accumulator — the dense
    /// `v.scale(mu); v.axpy(1.0, grad)` in one pass (momentum velocity).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v`'s shape
    /// differs from [`RankOne::shape`].
    pub(crate) fn accumulate_into(&self, mu: f64, v: &mut Matrix) -> Result<(), LinalgError> {
        check_shape(v, self.shape())?;
        for (c, &gc) in self.g.iter().enumerate() {
            for (v, &r) in v.row_mut(c).iter_mut().zip(&self.r) {
                *v = *v * mu + entry(gc, r, self.s);
            }
        }
        Ok(())
    }
}

/// One dense entry: `(g_c·r_j)·s`, or `0·s` where the dense builder left
/// the row zero.
#[inline]
fn entry(gc: f64, r: f64, s: f64) -> f64 {
    let x = if gc == 0.0 { 0.0 } else { gc * r };
    x * s
}

fn check_shape(m: &Matrix, shape: (usize, usize)) -> Result<(), LinalgError> {
    if m.shape() == shape {
        Ok(())
    } else {
        Err(LinalgError::ShapeMismatch {
            op: "axpy",
            lhs: m.shape(),
            rhs: shape,
        })
    }
}

/// Options for one backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BackpropOptions {
    /// Backpropagation variant.
    pub mode: BackpropMode,
    /// Also compute `∂L/∂M` (mask gradients — extension).
    pub mask_gradient: bool,
}

/// Runs one backward pass, returning `(loss, gradients)`.
///
/// `series` is the raw `T × C` input (needed only for mask gradients),
/// `cache` the matching forward pass (so `T ≥ 1`: every forward pass
/// rejects an empty series), `target` the one-hot label.
///
/// # Errors
///
/// Returns [`CoreError::Linalg`] on internal shape mismatches (unreachable
/// for caches produced by the same model).
///
/// # Panics
///
/// Panics if `target.len()` differs from the model's class count.
pub fn backprop<N: Nonlinearity + Clone>(
    model: &DfrClassifier<N>,
    series: &Matrix,
    cache: &ForwardCache,
    target: &[f64],
    options: &BackpropOptions,
) -> Result<(f64, Gradients), CoreError> {
    let mut ws = BackpropWorkspace::new();
    let loss = backprop_into(model, series, cache, target, options, &mut ws)?;
    Ok((loss, ws.into_gradients()))
}

/// [`backprop`] writing gradients and every intermediate into a reused
/// [`BackpropWorkspace`] — the allocation-free form the trainer's SGD loop
/// runs per sample. On success `ws.grads` holds the gradients; results are
/// bitwise identical to [`backprop`].
///
/// # Errors
///
/// Same as [`backprop`]; on error the workspace contents are unspecified.
///
/// # Panics
///
/// Panics if `target.len()` differs from the model's class count.
pub fn backprop_into<N: Nonlinearity + Clone>(
    model: &DfrClassifier<N>,
    series: &Matrix,
    cache: &ForwardCache,
    target: &[f64],
    options: &BackpropOptions,
    ws: &mut BackpropWorkspace,
) -> Result<f64, CoreError> {
    assert_eq!(
        target.len(),
        model.num_classes(),
        "target length must equal the class count"
    );
    let loss = cache.loss(target);
    let nx = model.nodes();
    let t_len = cache.run.len();
    let nr = model.feature_dim();
    let ny = model.num_classes();

    // ---- Stage 1: output layer (Eqs. 16–17) -----------------------------
    ws.g.resize(ny, 0.0);
    softmax_cross_entropy_grad_into(&cache.probs, target, &mut ws.g); // y − d
    ws.grads.set_output_layer(&ws.g, &cache.features);
    // ∂L/∂r = W_outᵀ · g. The model feeds the readout the DPRR scaled by
    // 1/T (see `DfrClassifier::forward_from_run`), so the gradient with
    // respect to the *raw* sums of Eqs. 18–19 — what the DPRR backward
    // stage below needs — carries the same 1/T factor.
    ws.dr.resize(nr, 0.0);
    model.w_out().t_matvec_into(&ws.g, &mut ws.dr)?;
    let scale = 1.0 / (t_len as f64);
    for d in &mut ws.dr {
        *d *= scale;
    }
    ws.grads.a = 0.0;
    ws.grads.b = 0.0;
    if options.mask_gradient {
        let mg = ws.grads.mask.get_or_insert_with(|| Matrix::zeros(0, 0));
        mg.resize(nx, series.cols());
        mg.fill_zero();
    } else {
        ws.grads.mask = None;
    }

    // Split ∂L/∂r into the product block (N_x × N_x) and the bias block.
    ws.dr_products.resize(nx, nx);
    ws.dr_products
        .as_mut_slice()
        .copy_from_slice(&ws.dr[..nx * nx]);
    let dr_sums = &ws.dr[nx * nx..];

    let window = options.mode.effective_window(t_len);
    let k_start = t_len - window; // first input step to backpropagate through
    let states = cache.run.states();
    let a = model.reservoir().a();
    let b = model.reservoir().b();
    let f = model.reservoir().nonlinearity();

    // ---- Stage 2: DPRR layer (Eq. 23 / Eq. 33) ---------------------------
    // bpv[k][n] for k in the window. Three terms:
    //   Σ_j x(k−1)_j · ∂L/∂r[n·Nx+j]   (x(k)_n as left product factor)
    //   Σ_i x(k+1)_i · ∂L/∂r[i·Nx+n]   (x(k)_n as right factor at k+1)
    //   ∂L/∂r[Nx²+n]                    (bias block)
    // The truncated mode simply has no k+1 for the last step (Eq. 33); for
    // inner window rows the future term is kept (it is available for free).
    ws.bpv.resize(window, nx);
    ws.bpv.fill_zero();
    ws.term.resize(nx, 0.0);
    for k in k_start..t_len {
        let row = k - k_start;
        if k > 0 {
            ws.dr_products
                .matvec_into(states.row(k - 1), &mut ws.term)?;
            ws.bpv.row_mut(row).copy_from_slice(&ws.term);
        }
        if k + 1 < t_len {
            ws.dr_products
                .t_matvec_into(states.row(k + 1), &mut ws.term)?;
            for (o, &t2) in ws.bpv.row_mut(row).iter_mut().zip(&ws.term) {
                *o += t2;
            }
        }
        for (o, &s) in ws.bpv.row_mut(row).iter_mut().zip(dr_sums) {
            *o += s;
        }
    }

    // ---- Stage 3: reservoir layer (Eqs. 24–32 / 34–36) -------------------
    // ∂L/∂s over the flattened node sequence of the window, iterated
    // backwards:  ds[t] = bpv[t] + B·ds[t+1] + A·f′(z_{t+Nx})·ds[t+Nx].
    ws.ds.resize(window, nx);
    ws.ds.fill_zero();
    let mut a_grad = 0.0;
    let mut b_grad = 0.0;
    for k in (k_start..t_len).rev() {
        let row = k - k_start;
        for n in (0..nx).rev() {
            let mut d = ws.bpv[(row, n)];
            // B-chain successor: flattened t+1 is (k, n+1), or (k+1, 0).
            if n + 1 < nx {
                d += b * ws.ds[(row, n + 1)];
            } else if k + 1 < t_len {
                d += b * ws.ds[(row + 1, 0)];
            }
            // f-path successor: same node, next input step (t + Nx).
            if k + 1 < t_len {
                let z_next = cache.run.preactivation(k + 1, n);
                d += a * f.derivative(z_next) * ws.ds[(row + 1, n)];
            }
            ws.ds[(row, n)] = d;

            let z = cache.run.preactivation(k, n);
            a_grad += f.eval(z) * d; // Eq. 31 / 35: ∂(A·f)/∂A = f(z)
            b_grad += cache.run.chain_predecessor(k, n) * d; // Eq. 32 / 36
            if let Some(mg) = &mut ws.grads.mask {
                // ∂L/∂j(k)_n = A·f′(z)·ds, and j(k)_n = Σ_c M[n][c]·u(k)_c.
                let dj = a * f.derivative(z) * d;
                if dj != 0.0 {
                    for (c, &u) in series.row(k).iter().enumerate() {
                        mg[(n, c)] += dj * u;
                    }
                }
            }
        }
    }
    ws.grads.a = a_grad;
    ws.grads.b = b_grad;
    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_reservoir::mask::Mask;
    use dfr_reservoir::modular::ModularDfr;
    use dfr_reservoir::nonlinearity::Tanh;

    /// A small model with non-trivial readout weights.
    fn model(nx: usize, channels: usize, ny: usize) -> DfrClassifier {
        let mut m = DfrClassifier::paper_default(nx, channels, ny, 3).unwrap();
        m.reservoir_mut().set_params(0.21, 0.17).unwrap();
        // Deterministic non-zero readout so ∂L/∂r ≠ 0.
        let nr = m.feature_dim();
        for c in 0..ny {
            for j in 0..nr {
                m.w_out_mut()[(c, j)] = 0.05 * (((c * nr + j) % 7) as f64 - 3.0);
            }
        }
        for (c, bv) in m.bias_mut().iter_mut().enumerate() {
            *bv = 0.1 * c as f64;
        }
        m
    }

    fn series(t: usize, c: usize) -> Matrix {
        let data: Vec<f64> = (0..t * c)
            .map(|i| ((i as f64) * 0.61).sin() * 0.8)
            .collect();
        Matrix::from_vec(t, c, data).unwrap()
    }

    fn loss_of<N: Nonlinearity + Clone>(m: &DfrClassifier<N>, u: &Matrix, d: &[f64]) -> f64 {
        m.forward(u).unwrap().loss(d)
    }

    /// Central finite difference of the loss with respect to a scalar
    /// reachable through a mutation closure.
    fn fd_param(
        m: &DfrClassifier,
        u: &Matrix,
        d: &[f64],
        mutate: impl Fn(&mut DfrClassifier, f64),
    ) -> f64 {
        let h = 1e-6;
        let mut mp = m.clone();
        mutate(&mut mp, h);
        let mut mm = m.clone();
        mutate(&mut mm, -h);
        (loss_of(&mp, u, d) - loss_of(&mm, u, d)) / (2.0 * h)
    }

    fn check_close(analytic: f64, numeric: f64, what: &str) {
        let tol = 1e-5 * (1.0 + numeric.abs());
        assert!(
            (analytic - numeric).abs() < tol,
            "{what}: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn full_gradient_matches_finite_differences() {
        let m = model(3, 2, 2);
        let u = series(6, 2);
        let d = [1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (loss, g) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: true,
            },
        )
        .unwrap();
        assert!((loss - cache.loss(&d)).abs() < 1e-12);

        // A and B.
        let num_a = fd_param(&m, &u, &d, |m, h| {
            let (a, b) = (m.reservoir().a(), m.reservoir().b());
            m.reservoir_mut().set_params(a + h, b).unwrap();
        });
        check_close(g.a, num_a, "dL/dA");
        let num_b = fd_param(&m, &u, &d, |m, h| {
            let (a, b) = (m.reservoir().a(), m.reservoir().b());
            m.reservoir_mut().set_params(a, b + h).unwrap();
        });
        check_close(g.b, num_b, "dL/dB");

        // A few readout weights and biases.
        for (c, j) in [(0usize, 0usize), (1, 5), (0, 11)] {
            let num = fd_param(&m, &u, &d, |m, h| {
                m.w_out_mut()[(c, j)] += h;
            });
            check_close(g.w_out.get(c, j), num, &format!("dL/dW[{c}][{j}]"));
        }
        for c in 0..2 {
            let num = fd_param(&m, &u, &d, |m, h| {
                m.bias_mut()[c] += h;
            });
            check_close(g.bias[c], num, &format!("dL/db[{c}]"));
        }

        // Mask entries.
        let mg = g.mask.as_ref().unwrap();
        for (n, c) in [(0usize, 0usize), (2, 1), (1, 0)] {
            let num = fd_param(&m, &u, &d, |m, h| {
                m.reservoir_mut().mask_mut().matrix_mut()[(n, c)] += h;
            });
            check_close(mg[(n, c)], num, &format!("dL/dM[{n}][{c}]"));
        }
    }

    #[test]
    fn full_gradient_matches_fd_with_tanh() {
        // Nonlinear f exercises the f′ cross-step term of Eq. 30.
        let mut m = DfrClassifier::new(
            ModularDfr::new(Mask::binary(3, 1, 5), 0.3, 0.25, Tanh).unwrap(),
            2,
        );
        let nr = m.feature_dim();
        for j in 0..nr {
            m.w_out_mut()[(0, j)] = 0.07 * ((j % 5) as f64 - 2.0);
            m.w_out_mut()[(1, j)] = -0.03 * ((j % 3) as f64);
        }
        let u = series(5, 1);
        let d = [0.0, 1.0];
        let cache = m.forward(&u).unwrap();
        let (_, g) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: false,
            },
        )
        .unwrap();
        let h = 1e-6;
        let loss_at = |a: f64, b: f64| {
            let mut mm = m.clone();
            mm.reservoir_mut().set_params(a, b).unwrap();
            mm.forward(&u).unwrap().loss(&d)
        };
        let (a0, b0) = (0.3, 0.25);
        let num_a = (loss_at(a0 + h, b0) - loss_at(a0 - h, b0)) / (2.0 * h);
        let num_b = (loss_at(a0, b0 + h) - loss_at(a0, b0 - h)) / (2.0 * h);
        check_close(g.a, num_a, "tanh dL/dA");
        check_close(g.b, num_b, "tanh dL/dB");
    }

    #[test]
    fn truncated_equals_full_for_t_equal_one() {
        let m = model(4, 2, 3);
        let u = series(1, 2);
        let d = [0.0, 1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (_, gf) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: true,
            },
        )
        .unwrap();
        let (_, gt) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::PAPER_TRUNCATED,
                mask_gradient: true,
            },
        )
        .unwrap();
        assert!((gf.a - gt.a).abs() < 1e-14);
        assert!((gf.b - gt.b).abs() < 1e-14);
        assert_eq!(gf.w_out, gt.w_out);
        assert_eq!(gf.bias, gt.bias);
        assert_eq!(gf.mask, gt.mask);
    }

    #[test]
    fn window_t_equals_full() {
        let m = model(3, 2, 2);
        let u = series(7, 2);
        let d = [1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (_, gf) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: false,
            },
        )
        .unwrap();
        let (_, gw) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Truncated { window: 7 },
                mask_gradient: false,
            },
        )
        .unwrap();
        assert!((gf.a - gw.a).abs() < 1e-12);
        assert!((gf.b - gw.b).abs() < 1e-12);
    }

    #[test]
    fn truncated_gradient_is_a_descent_direction() {
        // The paper's justification for truncation is that the last state
        // cumulatively reflects the past, so the truncated gradient still
        // points downhill. Verify on this fixed configuration: a small step
        // along −(∂L/∂A, ∂L/∂B)_truncated reduces the loss.
        let m = model(4, 1, 2);
        let u = series(40, 1);
        let d = [0.0, 1.0];
        let cache = m.forward(&u).unwrap();
        let trunc = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::PAPER_TRUNCATED,
                mask_gradient: false,
            },
        )
        .unwrap()
        .1;
        assert!(trunc.a != 0.0 || trunc.b != 0.0, "gradient must be nonzero");
        let norm = (trunc.a * trunc.a + trunc.b * trunc.b).sqrt();
        let step = 1e-5 / norm;
        let mut stepped = m.clone();
        stepped
            .reservoir_mut()
            .set_params(
                m.reservoir().a() - step * trunc.a,
                m.reservoir().b() - step * trunc.b,
            )
            .unwrap();
        let before = cache.loss(&d);
        let after = stepped.forward(&u).unwrap().loss(&d);
        assert!(after < before, "loss {after} should drop below {before}");
    }

    #[test]
    fn widening_window_converges_to_full() {
        let m = model(3, 1, 2);
        let u = series(20, 1);
        let d = [1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let full = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: false,
            },
        )
        .unwrap()
        .1;
        let mut prev_err = f64::INFINITY;
        for window in [1, 4, 10, 20] {
            let g = backprop(
                &m,
                &u,
                &cache,
                &d,
                &BackpropOptions {
                    mode: BackpropMode::Truncated { window },
                    mask_gradient: false,
                },
            )
            .unwrap()
            .1;
            let err = (g.a - full.a).abs() + (g.b - full.b).abs();
            assert!(
                err <= prev_err + 1e-12,
                "window {window}: error {err} after {prev_err}"
            );
            prev_err = err;
        }
        assert!(prev_err < 1e-12);
    }

    #[test]
    fn zero_readout_gives_zero_reservoir_gradient() {
        // With W_out = 0 the DPRR gradient is zero, so dA = dB = 0 — this is
        // the paper's initial state (first SGD step only moves the readout).
        let m = DfrClassifier::paper_default(4, 2, 3, 1).unwrap();
        let u = series(6, 2);
        let d = [1.0, 0.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (_, g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        assert_eq!(g.a, 0.0);
        assert_eq!(g.b, 0.0);
        assert!(g.w_out.max_abs() > 0.0, "readout gradient must be nonzero");
    }

    #[test]
    fn gradients_utilities() {
        let m = model(3, 2, 2);
        let u = series(5, 2);
        let d = [1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (_, mut g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        assert!(g.is_finite());
        let before = g.max_abs();
        g.scale(0.5);
        assert!((g.max_abs() - before * 0.5).abs() < 1e-12);
    }

    #[test]
    fn effective_window_clamps() {
        assert_eq!(BackpropMode::Full.effective_window(9), 9);
        assert_eq!(BackpropMode::Truncated { window: 3 }.effective_window(9), 3);
        assert_eq!(BackpropMode::Truncated { window: 0 }.effective_window(9), 1);
        assert_eq!(
            BackpropMode::Truncated { window: 99 }.effective_window(9),
            9
        );
    }
}
