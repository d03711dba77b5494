//! One-sided Jacobi SVD — the last rung of the solver escalation.
//!
//! When Cholesky rejects a Gram system and QR finds a numerically zero
//! diagonal ([`LinalgError::Singular`]), the system is genuinely
//! rank-deficient and *no* unique solution exists. The SVD's minimum-norm
//! least-squares solve `x = V·Σ⁺·Uᵀ·b` is the principled answer: every
//! singular value at roundoff level (relative to the largest) is treated
//! as exactly zero, its direction is dropped from the solution, and the
//! result is always finite — the property the degenerate-stream sweep
//! relies on.
//!
//! The one-sided Jacobi method orthogonalises the columns of a working
//! copy of `A` with plane rotations while accumulating them into `V`;
//! at convergence the working columns are `U·Σ`. It is `O(n³)` per sweep
//! and needs several sweeps: at `n = 180` one factorisation takes tens to
//! hundreds of milliseconds where Cholesky takes under one — two orders
//! of magnitude — which is exactly why it sits *behind* the escalation
//! instead of replacing the fast path (numbers in `EXPERIMENTS.md` E8
//! and E10).

use crate::gemm::GemmWorkspace;
use crate::{LinalgError, Matrix};

/// Hard sweep budget. One-sided Jacobi converges quadratically once
/// rotations get small; well-posed inputs finish in well under 20 sweeps,
/// so exhausting this signals something structurally wrong.
const MAX_SWEEPS: usize = 60;

/// A thin singular value decomposition `A = U·Σ·Vᵀ` (`A` of shape `m×n`
/// with `m ≥ n`, `U` of shape `m×n`, `Σ` and `V` of order `n`).
///
/// # Example
///
/// ```
/// use dfr_linalg::{Matrix, svd::Svd};
///
/// # fn main() -> Result<(), dfr_linalg::LinalgError> {
/// // Rank-1 system: Cholesky/QR refuse it, the SVD solves it minimum-norm.
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]])?;
/// let b = Matrix::from_rows(&[&[2.0], &[2.0]])?;
/// let x = Svd::factor(&a)?.solve(&b)?;
/// assert!((x[(0, 0)] - 1.0).abs() < 1e-12 && (x[(1, 0)] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m×n`; columns of zero singular values are
    /// zero.
    u: Matrix,
    /// Right singular vectors, `n×n`.
    v: Matrix,
    /// Singular values (non-negative, unsorted — Jacobi order).
    sigma: Vec<f64>,
    /// `Uᵀ` working copy the sweep rotates, recycled across factorisations.
    ut: Matrix,
    /// `Vᵀ` working copy the sweep rotates, recycled across factorisations.
    vt: Matrix,
    /// `Uᵀb` scratch of [`Svd::solve_into`], recycled across solves.
    work: Matrix,
    /// Packing scratch for the solve's two microkernel products.
    gemm: GemmWorkspace,
}

/// Equality is the decomposition itself; solve scratch carries no identity.
impl PartialEq for Svd {
    fn eq(&self, other: &Self) -> bool {
        self.u == other.u && self.v == other.v && self.sigma == other.sigma
    }
}

/// The placeholder decomposition ([`Svd::empty`]).
impl Default for Svd {
    fn default() -> Self {
        Svd::empty()
    }
}

impl Svd {
    /// Decomposes an `m×n` matrix (`m ≥ n`) into `U·Σ·Vᵀ`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `a` has no rows or columns.
    /// * [`LinalgError::ShapeMismatch`] if `m < n`.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN/∞.
    /// * [`LinalgError::NoConvergence`] if the sweep budget is exhausted.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let mut out = Svd::empty();
        Svd::factor_into(a, &mut out)?;
        Ok(out)
    }

    /// A placeholder decomposition of dimension zero — the seed value for
    /// [`Svd::factor_into`] scratch reuse.
    pub fn empty() -> Self {
        Svd {
            u: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
            sigma: Vec::new(),
            ut: Matrix::zeros(0, 0),
            vt: Matrix::zeros(0, 0),
            work: Matrix::zeros(0, 0),
            gemm: GemmWorkspace::new(),
        }
    }

    /// [`Svd::factor`] writing into a caller-owned decomposition, reusing
    /// its storage — the allocation-free form the solver escalation
    /// refactors with.
    ///
    /// # Errors
    ///
    /// Same as [`Svd::factor`].
    pub fn factor_into(a: &Matrix, out: &mut Svd) -> Result<(), LinalgError> {
        let (m, n) = check_input(a)?;
        // The sweep runs on transposed working copies: row j of `ut`/`vt`
        // is column j of U/V, so every pair's dot products and rotations
        // are contiguous slice loops. Pair order, accumulation order over
        // i and the rotation arithmetic must stay those of the column walk
        // in the tests (`factor_into_reference`): the bits are pinned to it.
        a.transpose_into(&mut out.ut);
        out.vt.resize(n, n);
        out.vt.fill_zero();
        for j in 0..n {
            out.vt[(j, j)] = 1.0;
        }
        out.sigma.clear();
        out.sigma.resize(n, 0.0);
        let ut = out.ut.as_mut_slice();
        let vt = out.vt.as_mut_slice();
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = false;
            for p in 0..n {
                for q in p + 1..n {
                    let (up, uq) = row_pair(ut, m, p, q);
                    let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                    for (&x, &y) in up.iter().zip(uq.iter()) {
                        app += x * x;
                        aqq += y * y;
                        apq += x * y;
                    }
                    // Already orthogonal at working precision — skip. The
                    // relative threshold makes convergence scale-invariant.
                    if apq == 0.0 || apq.abs() <= f64::EPSILON * (app * aqq).sqrt() {
                        continue;
                    }
                    rotated = true;
                    // Rotation angle zeroing the (p, q) column inner
                    // product; the smaller root keeps |θ| ≤ π/4.
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    rotate(up, uq, c, s);
                    let (vp, vq) = row_pair(vt, n, p, q);
                    rotate(vp, vq, c, s);
                }
            }
            if !rotated {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(LinalgError::NoConvergence {
                op: "jacobi_svd",
                sweeps: MAX_SWEEPS,
            });
        }
        // Column norms are the singular values; normalise U's columns
        // (a zero column means a zero singular value — leave it zero).
        for (j, col) in ut.chunks_exact_mut(m).enumerate() {
            let mut norm2 = 0.0;
            for &val in col.iter() {
                norm2 += val * val;
            }
            let s = norm2.sqrt();
            out.sigma[j] = s;
            if s > 0.0 {
                let inv = 1.0 / s;
                for val in col.iter_mut() {
                    *val *= inv;
                }
            }
        }
        out.ut.transpose_into(&mut out.u);
        out.vt.transpose_into(&mut out.v);
        Ok(())
    }

    /// The singular values (non-negative, in Jacobi order, not sorted).
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// Numerical rank: the number of singular values above the default
    /// truncation tolerance `max(m, n)·ε·σ_max`.
    pub fn rank(&self) -> usize {
        let tol = self.tol();
        self.sigma.iter().filter(|&&s| s > tol).count()
    }

    /// Reciprocal condition number `σ_min / σ_max` (`0` for rank-deficient
    /// or empty decompositions) — the exact value the cheap Cholesky-side
    /// estimate approximates.
    pub fn rcond(&self) -> f64 {
        let max = self.sigma.iter().cloned().fold(0.0f64, f64::max);
        if max <= 0.0 {
            return 0.0;
        }
        let min = self.sigma.iter().cloned().fold(f64::INFINITY, f64::min);
        min / max
    }

    /// The default truncation tolerance: `max(m, n)·ε·σ_max`.
    fn tol(&self) -> f64 {
        let max = self.sigma.iter().cloned().fold(0.0f64, f64::max);
        self.u.rows().max(self.u.cols()) as f64 * f64::EPSILON * max
    }

    /// Minimum-norm least-squares solve `x = V·Σ⁺·Uᵀ·b`, allocating the
    /// output.
    ///
    /// # Errors
    ///
    /// Same as [`Svd::solve_into`].
    pub fn solve(&mut self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(0, 0);
        self.solve_into(b, &mut out)?;
        Ok(out)
    }

    /// [`Svd::solve`] writing into a caller-owned `n×q` output matrix —
    /// the allocation-free form.
    ///
    /// Singular values at or below `max(m, n)·ε·σ_max` are truncated to
    /// zero, so the result is finite for **any** rank — the guarantee the
    /// solver escalation terminates on.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != m`.
    pub fn solve_into(&mut self, b: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        let m = self.u.rows();
        let n = self.u.cols();
        if b.rows() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "svd_solve",
                lhs: (m, n),
                rhs: b.shape(),
            });
        }
        let tol = self.tol();
        let Svd {
            u,
            v,
            sigma,
            work,
            gemm,
            ..
        } = self;
        u.t_matmul_into(b, work, gemm)?;
        for (j, &s) in sigma.iter().enumerate() {
            if s > tol {
                let inv = 1.0 / s;
                for val in work.row_mut(j) {
                    *val *= inv;
                }
            } else {
                for val in work.row_mut(j) {
                    *val = 0.0;
                }
            }
        }
        v.matmul_into(work, out, gemm)
    }
}

/// Validates a decomposition input, returning its shape `(m, n)`.
fn check_input(a: &Matrix) -> Result<(usize, usize), LinalgError> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty { op: "jacobi_svd" });
    }
    if m < n {
        return Err(LinalgError::ShapeMismatch {
            op: "jacobi_svd",
            lhs: a.shape(),
            rhs: (n, n),
        });
    }
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite { op: "jacobi_svd" });
    }
    Ok((m, n))
}

/// Rows `p < q` of a row-major buffer with rows of length `len`, borrowed
/// mutably together.
fn row_pair(data: &mut [f64], len: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = data.split_at_mut(q * len);
    (&mut head[p * len..(p + 1) * len], &mut tail[..len])
}

/// Applies the plane rotation `(c, s)` to the row pair `(x, y)`.
fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xi, *yi);
        *xi = c * a - s * b;
        *yi = s * a + c * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The column-walking sweep `factor_into` ran before it moved onto
    /// transposed rows — the bitwise reference its output is pinned to.
    fn factor_into_reference(a: &Matrix, out: &mut Svd) -> Result<(), LinalgError> {
        let (m, n) = check_input(a)?;
        out.u.copy_from(a);
        out.v.resize(n, n);
        out.v.fill_zero();
        for j in 0..n {
            out.v[(j, j)] = 1.0;
        }
        out.sigma.clear();
        out.sigma.resize(n, 0.0);
        let u = &mut out.u;
        let v = &mut out.v;
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = false;
            for p in 0..n {
                for q in p + 1..n {
                    let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        app += up * up;
                        aqq += uq * uq;
                        apq += up * uq;
                    }
                    if apq == 0.0 || apq.abs() <= f64::EPSILON * (app * aqq).sqrt() {
                        continue;
                    }
                    rotated = true;
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        u[(i, p)] = c * up - s * uq;
                        u[(i, q)] = s * up + c * uq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp - s * vq;
                        v[(i, q)] = s * vp + c * vq;
                    }
                }
            }
            if !rotated {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(LinalgError::NoConvergence {
                op: "jacobi_svd",
                sweeps: MAX_SWEEPS,
            });
        }
        for j in 0..n {
            let mut norm2 = 0.0;
            for i in 0..m {
                let val = u[(i, j)];
                norm2 += val * val;
            }
            let s = norm2.sqrt();
            out.sigma[j] = s;
            if s > 0.0 {
                let inv = 1.0 / s;
                for i in 0..m {
                    u[(i, j)] *= inv;
                }
            }
        }
        Ok(())
    }

    /// A seeded `rows×cols` matrix with entries uniform in `[-scale, scale)`
    /// (splitmix64, so the inputs need no RNG dependency).
    fn seeded(rows: usize, cols: usize, seed: u64, scale: f64) -> Matrix {
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    fn assert_bits_eq(name: &str, what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{name} {what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            let (g, w) = (got[i], want[i]);
            panic!("{name} {what}: first bit difference at {i}: {g} vs {w}");
        }
    }

    /// `U`, `V`, `σ` and a solve of `a` equal the column-walking reference
    /// on `to_bits`.
    fn assert_matches_reference(name: &str, a: &Matrix, seed: u64) {
        let mut want = Svd::empty();
        factor_into_reference(a, &mut want).unwrap();
        // Stale scratch of another shape must not leak into the result.
        let mut got = Svd::factor(&seeded(7, 5, seed ^ 1, 1.0)).unwrap();
        Svd::factor_into(a, &mut got).unwrap();
        assert_bits_eq(name, "U", got.u.as_slice(), want.u.as_slice());
        assert_bits_eq(name, "V", got.v.as_slice(), want.v.as_slice());
        assert_bits_eq(name, "sigma", &got.sigma, &want.sigma);
        let b = seeded(a.rows(), 3, seed ^ 2, 1.0);
        let (mut x_got, mut x_want) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        got.solve_into(&b, &mut x_got).unwrap();
        want.solve_into(&b, &mut x_want).unwrap();
        assert_bits_eq(name, "solve", x_got.as_slice(), x_want.as_slice());
    }

    #[test]
    fn row_sweep_is_bitwise_the_column_walk() {
        // A Gram at the scale of the grid's A + B > 1 corner (~1e17).
        let x = seeded(60, 24, 11, 1.2e8);
        assert_matches_reference("gram_1e17", &x.gram_t(), 11);
        // Tall least-squares shape.
        assert_matches_reference("tall", &seeded(31, 12, 12, 1.0), 12);
        // Rank-deficient: a 20×20 Gram of rank 6.
        assert_matches_reference("rank_deficient", &seeded(6, 20, 13, 1.0).gram_t(), 13);
        // A zero column.
        let mut z = seeded(9, 9, 14, 1.0);
        for i in 0..9 {
            z[(i, 4)] = 0.0;
        }
        assert_matches_reference("zero_column", &z, 14);
        assert_matches_reference("one_by_one", &seeded(1, 1, 15, 3.0), 15);
    }

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 3.0], &[1.0, 3.0, 7.0]]).unwrap()
    }

    #[test]
    fn reconstructs_input() {
        let a = spd3();
        let svd = Svd::factor(&a).unwrap();
        // A = U·Σ·Vᵀ ⇒ A·V = U·Σ.
        let av = a.matmul(&svd.v).unwrap();
        for j in 0..3 {
            for i in 0..3 {
                let want = svd.u[(i, j)] * svd.sigma[j];
                assert!((av[(i, j)] - want).abs() < 1e-10);
            }
        }
        assert_eq!(svd.rank(), 3);
        assert!(svd.rcond() > 0.1); // well-conditioned test matrix
    }

    #[test]
    fn matches_cholesky_on_spd() {
        let a = spd3();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-2.0, 0.0], &[0.5, 3.0]]).unwrap();
        let chol = crate::cholesky::solve_spd(&a, &b).unwrap();
        let x = Svd::factor(&a).unwrap().solve(&b).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                let rel = (x[(i, j)] - chol[(i, j)]).abs() / chol[(i, j)].abs().max(1.0);
                assert!(rel < 1e-10, "({i},{j}): {} vs {}", x[(i, j)], chol[(i, j)]);
            }
        }
    }

    #[test]
    fn minimum_norm_on_rank_deficient() {
        // Rank 1: rows/columns all equal. The consistent RHS [2, 2] has the
        // minimum-norm solution [1, 1] (any [1+t, 1−t] solves it; t = 0
        // minimises the norm).
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0], &[2.0]]).unwrap();
        let mut svd = Svd::factor(&a).unwrap();
        assert_eq!(svd.rank(), 1);
        assert_eq!(svd.rcond(), 0.0);
        let x = svd.solve(&b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_solves_to_zero() {
        let a = Matrix::zeros(3, 3);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let x = Svd::factor(&a).unwrap().solve(&b).unwrap();
        for i in 0..3 {
            assert_eq!(x[(i, 0)], 0.0);
        }
    }

    #[test]
    fn solution_is_always_finite() {
        // Near-singular: duplicated column plus epsilon noise.
        let a = Matrix::from_rows(&[
            &[1.0, 1.0 + 1e-15, 0.5],
            &[2.0, 2.0, 1.0],
            &[3.0, 3.0 - 1e-15, 1.5],
        ])
        .unwrap();
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let x = Svd::factor(&a).unwrap().solve(&b).unwrap();
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn overdetermined_least_squares() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0], &[4.0], &[6.0]]).unwrap();
        let x = Svd::factor(&a).unwrap().solve(&b).unwrap();
        assert!((x[(0, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shape_empty_and_nonfinite_errors() {
        assert!(matches!(
            Svd::factor(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::Empty { .. }
        ));
        assert!(matches!(
            Svd::factor(&Matrix::zeros(2, 3)).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        let mut a = spd3();
        a[(0, 0)] = f64::INFINITY;
        assert!(matches!(
            Svd::factor(&a).unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
        let mut svd = Svd::factor(&spd3()).unwrap();
        assert!(svd.solve(&Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn into_forms_reuse_stale_scratch() {
        let a = spd3();
        let fresh = Svd::factor(&a).unwrap();
        let mut scratch =
            Svd::factor(&Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap()).unwrap();
        Svd::factor_into(&a, &mut scratch).unwrap();
        assert_eq!(scratch, fresh);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let alloc = scratch.solve(&b).unwrap();
        let mut out = Matrix::filled(1, 1, 9.0);
        scratch.solve_into(&b, &mut out).unwrap();
        assert_eq!(out, alloc);
    }
}
