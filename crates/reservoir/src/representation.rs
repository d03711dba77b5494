//! The dot-product reservoir representation (DPRR): fixed-length features
//! from a state history.
//!
//! Classification needs one feature vector per (variable-length) series, so
//! the `T × N_x` state history is reduced to a fixed-size *reservoir
//! representation* (paper §2.2). [`Dprr`] is the paper's choice — the
//! best known trade-off of accuracy and circuit size — and the only one
//! this workspace implements: every path that turns a series into readout
//! features (training forward, ridge feature matrices, the constant-memory
//! streaming pass, the frozen serving kernel) ends in
//! [`Dprr::normalized_into`] or, when the sums are accumulated online, in
//! [`Dprr::accumulate`] + [`Dprr::normalize`].
//!
//! The batch form is one packed GEMM, `X[1..T]ᵀ·X[0..T−1]`, through the
//! same runtime-dispatched microkernel as every other dense product
//! (`dfr_linalg::kernels`); the streaming form is its one-step rank-1
//! update. Both keep each element's `k`-ascending chain, so they agree
//! bitwise.

use crate::ReservoirError;
use dfr_linalg::{GemmWorkspace, Matrix};

/// The dot-product reservoir representation (paper Eqs. 10–11, 18–19).
///
/// With 0-based indices the `N_x(N_x+1)` features are
///
/// ```text
/// r[i·N_x + j] = Σ_{k=0}^{T−1} x(k)_i · x(k−1)_j     (x(−1) ≡ 0)
/// r[N_x² + i]  = Σ_{k=0}^{T−1} x(k)_i
/// ```
///
/// i.e. `r = vec(Σ_k x(k)·[x(k−1), 1]ᵀ)`.
///
/// # Example
///
/// ```
/// use dfr_linalg::{GemmWorkspace, Matrix};
/// use dfr_reservoir::representation::Dprr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let states = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let r = Dprr.features(&states);
/// // r[0] = x(0)_0·0 + x(1)_0·x(0)_0 = 3
/// assert_eq!(r[0], 3.0);
/// // bias block: column sums
/// assert_eq!(r[4], 4.0);
/// assert_eq!(r[5], 6.0);
/// // The readout sees the sums scaled by 1/T.
/// let mut scaled = vec![0.0; Dprr.dim(2)];
/// Dprr.normalized_into(&states, &mut scaled, &mut GemmWorkspace::new())?;
/// assert_eq!(scaled[4], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Dprr;

impl Dprr {
    /// Feature dimension `N_x(N_x+1)` for a reservoir of `nx` virtual nodes.
    pub fn dim(&self, nx: usize) -> usize {
        nx * (nx + 1)
    }

    /// Convenience wrapper around [`Dprr::features_into`] allocating the
    /// output vector.
    pub fn features(&self, states: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; self.dim(states.cols())];
        self.features_into(states, &mut out, &mut GemmWorkspace::new());
        out
    }

    /// The features the readout sees: the DPRR sums of `states` scaled by
    /// `1/T` ([`Dprr::normalize`]). Every batch feature path — the
    /// training forward pass, the ridge feature matrix and the frozen
    /// serving kernel — goes through this one function, so they agree
    /// bitwise. `ws` holds the packing panels of the product block; each
    /// path passes the one it already owns (a reservoir run's, a serving
    /// workspace's), so steady-state calls do not allocate.
    ///
    /// # Errors
    ///
    /// [`ReservoirError::EmptySeries`] for a 0-row history.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim(states.cols())`.
    pub fn normalized_into(
        &self,
        states: &Matrix,
        out: &mut [f64],
        ws: &mut GemmWorkspace,
    ) -> Result<(), ReservoirError> {
        self.features_into(states, out, ws);
        Dprr::normalize(out, states.rows())
    }

    /// Scales raw DPRR sums by `1/T` in place.
    ///
    /// The sums of paper Eqs. 18–19 are divided by the series length `T`
    /// before entering the readout. This is a pure per-sample rescaling —
    /// absorbed by `W_out` (and by the ridge refit), so the model class is
    /// unchanged — but it makes the feature scale, and therefore the
    /// paper's learning rate of 1.0, independent of `T` (which spans 28 to
    /// 1917 across the evaluation datasets).
    ///
    /// # Errors
    ///
    /// [`ReservoirError::EmptySeries`] if `t_len == 0`: a 0-row series has
    /// no trajectory and the `1/T` scaling is undefined, so every forward
    /// path — training, streaming and serving — rejects it here instead of
    /// emitting a bias-only prediction.
    pub fn normalize(features: &mut [f64], t_len: usize) -> Result<(), ReservoirError> {
        if t_len == 0 {
            return Err(ReservoirError::EmptySeries);
        }
        let scale = 1.0 / (t_len as f64);
        for f in features {
            *f *= scale;
        }
        Ok(())
    }

    /// One step of the DPRR accumulation: `products += x(k) ⊗ x(k−1)` and
    /// `sums += x(k)` on a raw `N_x(N_x+1)` feature buffer (products
    /// first, then sums). Rows with `x(k)_i == 0` skip the product update;
    /// for finite states the skip is bit-exact against the batch product
    /// of [`Dprr::features_into`], which adds those `±0.0` terms. A buffer
    /// fed one step at a time — the constant-memory streaming pass, which
    /// passes a zeroed `x_prev` for `k = 0` — so ends bitwise equal to the
    /// batch sums.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != N_x(N_x+1)` for `N_x = x_k.len()`.
    #[inline]
    pub fn accumulate(features: &mut [f64], x_prev: &[f64], x_k: &[f64]) {
        let nx = x_k.len();
        assert_eq!(
            features.len(),
            nx * (nx + 1),
            "DPRR buffer has wrong length"
        );
        let (products, sums) = features.split_at_mut(nx * nx);
        for (s, &xi) in sums.iter_mut().zip(x_k) {
            *s += xi;
        }
        for (i, &xi) in x_k.iter().enumerate() {
            if xi != 0.0 {
                rank1(&mut products[i * nx..(i + 1) * nx], x_prev, xi);
            }
        }
    }

    /// Writes the raw DPRR sums of a `T × N_x` state history into `out`,
    /// packing into the caller's GEMM workspace.
    ///
    /// The product block (Eq. 10 / 18) is one packed product over two
    /// shifted windows of `states`: `Σ_{k≥1} x(k) ⊗ x(k−1)` is
    /// `X[1..T]ᵀ·X[0..T−1]` ([`Matrix::t_matmul_rows_into`]), whose
    /// per-element chain is `k` ascending from `+0.0` — exactly the order
    /// of the stepwise [`Dprr::accumulate`]. The stepwise form skips rows
    /// with `x(k)_i == 0`; the product adds their `±0.0` terms instead,
    /// which is bit-exact for finite states: the accumulator starts at
    /// `+0.0`, and in round-to-nearest a sum is `−0.0` only when both
    /// terms are, so adding a zero never changes it. (Non-finite states
    /// never get here: the recurrence reports `Diverged` first.) The bias
    /// block (Eq. 11 / 19) is the column sums, `k` ascending.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim(states.cols())`.
    pub fn features_into(&self, states: &Matrix, out: &mut [f64], ws: &mut GemmWorkspace) {
        let nx = states.cols();
        let t_len = states.rows();
        assert_eq!(out.len(), self.dim(nx), "output buffer has wrong length");
        let (products, sums) = out.split_at_mut(nx * nx);
        let steps = t_len.saturating_sub(1);
        states
            .t_matmul_rows_into(t_len - steps..t_len, states, 0..steps, products, ws)
            .expect("both windows have `steps` rows of N_x columns");
        sums.fill(0.0);
        for k in 0..t_len {
            for (s, &xi) in sums.iter_mut().zip(states.row(k)) {
                *s += xi;
            }
        }
    }
}

/// Accumulates `row += c · x` one element-`+=` at a time.
#[inline]
fn rank1(row: &mut [f64], x: &[f64], c: f64) {
    for (r, &xj) in row.iter_mut().zip(x) {
        *r += c * xj;
    }
}

/// Builds the raw DPRR feature matrix for a batch of state histories (one
/// row per sample).
///
/// Samples are independent, so rows are computed in parallel over the
/// [`dfr_pool`] execution layer — each worker owns a contiguous band of
/// output rows and one GEMM workspace, and every row is produced by the
/// same per-sample kernel, making the result bit-identical at every thread
/// count.
pub fn feature_matrix(runs: &[Matrix]) -> Matrix {
    if runs.is_empty() {
        return Matrix::zeros(0, 0);
    }
    let dim = Dprr.dim(runs[0].cols());
    let mut out = Matrix::zeros(runs.len(), dim);
    if dim == 0 {
        return out;
    }
    dfr_pool::par_chunks_mut_with(out.as_mut_slice(), dim, GemmWorkspace::new, |i, row, ws| {
        Dprr.features_into(&runs[i], row, ws);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn states() -> Matrix {
        Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5], &[-0.5, 3.0]]).unwrap()
    }

    /// Naive reference implementation of the DPRR straight from Eqs. 18–19.
    fn dprr_reference(states: &Matrix) -> Vec<f64> {
        let nx = states.cols();
        let t_len = states.rows();
        let mut r = vec![0.0; nx * (nx + 1)];
        for i in 0..nx {
            for j in 0..nx {
                let mut acc = 0.0;
                for k in 1..t_len {
                    acc += states[(k, i)] * states[(k - 1, j)];
                }
                r[i * nx + j] = acc;
            }
        }
        for i in 0..nx {
            let mut acc = 0.0;
            for k in 0..t_len {
                acc += states[(k, i)];
            }
            r[nx * nx + i] = acc;
        }
        r
    }

    #[test]
    fn dprr_matches_reference() {
        let s = states();
        let fast = Dprr.features(&s);
        let slow = dprr_reference(&s);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dprr_dim() {
        assert_eq!(Dprr.dim(30), 930);
        assert_eq!(Dprr.dim(2), 6);
    }

    #[test]
    fn dprr_single_step_products_are_zero() {
        // With T = 1 there is no x(k−1), so the product block is all zero.
        let s = Matrix::from_rows(&[&[2.0, 3.0]]).unwrap();
        let r = Dprr.features(&s);
        assert!(r[..4].iter().all(|&v| v == 0.0));
        assert_eq!(&r[4..], &[2.0, 3.0]);
    }

    #[test]
    fn dprr_is_bilinear_in_scaling() {
        // Scaling states by c scales products by c² and sums by c.
        let s = states();
        let scaled = s.map(|x| 2.0 * x);
        let r = Dprr.features(&s);
        let r2 = Dprr.features(&scaled);
        let nx = 2;
        for idx in 0..nx * nx {
            assert!((r2[idx] - 4.0 * r[idx]).abs() < 1e-12);
        }
        for idx in nx * nx..r.len() {
            assert!((r2[idx] - 2.0 * r[idx]).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_history() {
        let empty = Matrix::zeros(0, 3);
        assert_eq!(Dprr.features(&empty), vec![0.0; 12]);
        let mut out = vec![0.0; 12];
        assert_eq!(
            Dprr.normalized_into(&empty, &mut out, &mut GemmWorkspace::new()),
            Err(ReservoirError::EmptySeries)
        );
    }

    /// A `t × nx` history mixing `+0.0` and `−0.0` entries, all-`+0.0`
    /// and all-`−0.0` rows, and values spread over several binades, so
    /// the product's added zero terms and ragged tiles are all exercised.
    fn zero_laced_states(t: usize, nx: usize) -> Matrix {
        let data = (0..t * nx)
            .map(|idx| {
                let (k, i) = (idx / nx, idx % nx);
                match (k % 11, k % 13, idx % 5, idx % 7) {
                    (4, ..) => 0.0,
                    (_, 6, ..) => -0.0,
                    (_, _, 2, _) => 0.0,
                    (_, _, _, 3) => -0.0,
                    _ => ((idx as f64) * 0.61).sin() * (1.0 + (i % 4) as f64 * 7.5),
                }
            })
            .collect();
        Matrix::from_vec(t, nx, data).unwrap()
    }

    #[test]
    fn gemm_dprr_equals_stepwise_accumulate_bitwise_on_every_kernel() {
        // The packed product drops the stepwise `x(k)_i == 0` row skip;
        // this pins that the dropped skip changes no bit for finite states.
        let first_diff = |a: &[f64], b: &[f64]| {
            assert_eq!(a.len(), b.len());
            a.iter()
                .zip(b)
                .position(|(x, y)| x.to_bits() != y.to_bits())
        };
        let nx = 30;
        for t in [0usize, 1, 2, 3, 4, 5, 31, 993] {
            let states = zero_laced_states(t, nx);
            let mut stepped = vec![0.0; Dprr.dim(nx)];
            let mut prev = vec![0.0; nx];
            for k in 0..t {
                Dprr::accumulate(&mut stepped, &prev, states.row(k));
                prev.copy_from_slice(states.row(k));
            }
            for kernel in dfr_linalg::kernels::available() {
                dfr_linalg::kernels::with_kernel(kernel.kind(), || {
                    let mut ws = GemmWorkspace::new();
                    let mut batch = vec![f64::NAN; Dprr.dim(nx)];
                    Dprr.features_into(&states, &mut batch, &mut ws);
                    let diff = first_diff(&batch, &stepped);
                    assert_eq!(
                        diff,
                        None,
                        "{} T={t}: first differing feature",
                        kernel.name()
                    );
                    let mut normalized = vec![0.0; Dprr.dim(nx)];
                    let result = Dprr.normalized_into(&states, &mut normalized, &mut ws);
                    let mut want = stepped.clone();
                    assert_eq!(result, Dprr::normalize(&mut want, t));
                    if t > 0 {
                        let diff = first_diff(&normalized, &want);
                        assert_eq!(diff, None, "{} T={t}: normalized", kernel.name());
                    }
                });
            }
        }
    }

    #[test]
    fn feature_matrix_shapes() {
        let runs = vec![states(), states()];
        let m = feature_matrix(&runs);
        assert_eq!(m.shape(), (2, 6));
        assert_eq!(m.row(0), m.row(1));
        let empty: Vec<Matrix> = vec![];
        assert_eq!(feature_matrix(&empty).shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_buffer_panics() {
        let mut buf = vec![0.0; 3];
        Dprr.features_into(&states(), &mut buf, &mut GemmWorkspace::new());
    }
}
