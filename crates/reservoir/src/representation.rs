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

use crate::ReservoirError;
use dfr_linalg::Matrix;

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
/// use dfr_linalg::Matrix;
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
/// Dprr.normalized_into(&states, &mut scaled)?;
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
        self.features_into(states, &mut out);
        out
    }

    /// The features the readout sees: the DPRR sums of `states` scaled by
    /// `1/T` ([`Dprr::normalize`]). Every batch feature path — the
    /// training forward pass, the ridge feature matrix and the frozen
    /// serving kernel — goes through this one function, so they agree
    /// bitwise.
    ///
    /// # Errors
    ///
    /// [`ReservoirError::EmptySeries`] for a 0-row history.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim(states.cols())`.
    pub fn normalized_into(&self, states: &Matrix, out: &mut [f64]) -> Result<(), ReservoirError> {
        self.features_into(states, out);
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
    /// first, then sums). Rows with `x(k)_i == 0` skip the product update
    /// exactly as [`Dprr::features_into`] does, so a buffer fed one step
    /// at a time — the constant-memory streaming pass, which passes a
    /// zeroed `x_prev` for `k = 0` — ends bitwise equal to the batch sums.
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

    /// Writes the raw DPRR sums of a `T × N_x` state history into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim(states.cols())`.
    pub fn features_into(&self, states: &Matrix, out: &mut [f64]) {
        let nx = states.cols();
        let t_len = states.rows();
        assert_eq!(out.len(), self.dim(nx), "output buffer has wrong length");
        out.fill(0.0);
        let (products, sums) = out.split_at_mut(nx * nx);
        let flat = states.as_slice();

        // The product block (Eq. 10 / 18) is the rank-1 accumulation
        // `products += x(k) ⊗ x(k−1)` over all steps (`x(−1) ≡ 0`), and its
        // cost is dominated by re-reading and re-writing the `N_x²`
        // accumulator once per step. Processing FOUR steps per sweep keeps
        // the accumulator element in a register across the four
        // contributions — ~4× less accumulator traffic — while each element
        // still receives its contributions one `+=` at a time in strictly
        // ascending `k`, so the result is bitwise identical to the
        // one-step-at-a-time loop ([`Dprr::accumulate`]). The bias block
        // (Eq. 11 / 19) is fused the same way. The `xi == 0` row skip is
        // preserved exactly (adding a `0·x` term is *not* a bitwise no-op
        // for −0.0), with mixed-zero groups falling back to narrower
        // sweeps.
        let mut k = 0;
        if t_len > 0 {
            // Step 0 contributes only to the bias block.
            for (s, &xi) in sums.iter_mut().zip(&flat[..nx]) {
                *s += xi;
            }
            k = 1;
        }
        while k + 4 <= t_len {
            let window = &flat[(k - 1) * nx..(k + 4) * nx];
            let (x0, c_rows) = window.split_at(nx); // x(k−1), then x(k)..x(k+3)
            for i in 0..nx {
                let c0 = c_rows[i];
                let c1 = c_rows[nx + i];
                let c2 = c_rows[2 * nx + i];
                let c3 = c_rows[3 * nx + i];
                let row = &mut products[i * nx..(i + 1) * nx];
                if c0 != 0.0 && c1 != 0.0 && c2 != 0.0 && c3 != 0.0 {
                    rank4(
                        row,
                        x0,
                        c0,
                        &c_rows[..nx],
                        c1,
                        &c_rows[nx..2 * nx],
                        c2,
                        &c_rows[2 * nx..3 * nx],
                        c3,
                    );
                } else {
                    // Narrow path: per-step updates with the exact skip.
                    for (step, &c) in [c0, c1, c2, c3].iter().enumerate() {
                        if c != 0.0 {
                            rank1(row, &window[step * nx..(step + 1) * nx], c);
                        }
                    }
                }
            }
            for (i, s) in sums.iter_mut().enumerate() {
                let mut v = *s;
                v += c_rows[i];
                v += c_rows[nx + i];
                v += c_rows[2 * nx + i];
                v += c_rows[3 * nx + i];
                *s = v;
            }
            k += 4;
        }
        while k < t_len {
            Dprr::accumulate(
                out,
                &flat[(k - 1) * nx..k * nx],
                &flat[k * nx..(k + 1) * nx],
            );
            k += 1;
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

/// Accumulates four rank-1 contributions in one sweep, keeping each
/// accumulator element in a register across the four `+=` operations (the
/// additions stay separate and ordered — no reassociation, so results are
/// bitwise identical to four [`rank1`] calls).
#[inline]
#[allow(clippy::too_many_arguments)]
fn rank4(
    row: &mut [f64],
    x0: &[f64],
    c0: f64,
    x1: &[f64],
    c1: f64,
    x2: &[f64],
    c2: f64,
    x3: &[f64],
    c3: f64,
) {
    let n = row.len();
    let (x0, x1, x2, x3) = (&x0[..n], &x1[..n], &x2[..n], &x3[..n]);
    for j in 0..n {
        let mut v = row[j];
        v += c0 * x0[j];
        v += c1 * x1[j];
        v += c2 * x2[j];
        v += c3 * x3[j];
        row[j] = v;
    }
}

/// Builds the raw DPRR feature matrix for a batch of state histories (one
/// row per sample).
///
/// Samples are independent, so rows are computed in parallel over the
/// [`dfr_pool`] execution layer — each worker owns a contiguous band of
/// output rows and every row is produced by the same per-sample kernel,
/// making the result bit-identical at every thread count.
pub fn feature_matrix(runs: &[Matrix]) -> Matrix {
    if runs.is_empty() {
        return Matrix::zeros(0, 0);
    }
    let dim = Dprr.dim(runs[0].cols());
    let mut out = Matrix::zeros(runs.len(), dim);
    if dim == 0 {
        return out;
    }
    dfr_pool::par_chunks_mut(out.as_mut_slice(), dim, |i, row| {
        Dprr.features_into(&runs[i], row);
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
            Dprr.normalized_into(&empty, &mut out),
            Err(ReservoirError::EmptySeries)
        );
    }

    #[test]
    fn step_accumulation_matches_batch_bitwise() {
        // Rows with zeros (and a −0.0) exercise the exact row skip; T runs
        // across the four-step sweep boundary and its ragged tails.
        let rows: Vec<[f64; 3]> = vec![
            [0.3, -0.0, 1.5],
            [0.0, 2.0, -0.7],
            [1.1, 0.4, 0.0],
            [-0.2, 0.9, 0.6],
            [0.5, 0.0, -1.3],
            [0.7, -0.8, 0.1],
            [0.0, 0.0, 0.0],
            [1.9, 0.2, -0.4],
            [-1.0, 0.3, 0.8],
        ];
        for t in 1..=rows.len() {
            let flat: Vec<f64> = rows[..t].iter().flatten().copied().collect();
            let states = Matrix::from_vec(t, 3, flat).unwrap();
            let mut stepped = vec![0.0; Dprr.dim(3)];
            let mut prev = [0.0; 3];
            for k in 0..t {
                Dprr::accumulate(&mut stepped, &prev, states.row(k));
                prev.copy_from_slice(states.row(k));
            }
            let batch = Dprr.features(&states);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&stepped), bits(&batch), "T={t}");
            let mut normalized = vec![0.0; Dprr.dim(3)];
            Dprr.normalized_into(&states, &mut normalized).unwrap();
            Dprr::normalize(&mut stepped, t).unwrap();
            assert_eq!(bits(&stepped), bits(&normalized), "T={t}");
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
        Dprr.features_into(&states(), &mut buf);
    }
}
