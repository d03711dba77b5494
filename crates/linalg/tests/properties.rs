//! Property-based tests for the linear-algebra kernels.

use dfr_linalg::activation::{cross_entropy_from_logits, log_sum_exp, softmax};
use dfr_linalg::cholesky::Cholesky;
use dfr_linalg::gemm::{K_BLOCK, MR, NR, PAR_MIN_MADDS};
use dfr_linalg::kernels::{available, with_kernel, KernelKind};
use dfr_linalg::ridge::{ridge_fit_with, RidgeMode, RidgePlan};
use dfr_linalg::solver::{SolverKind, SolverPolicy, RCOND_MIN};
use dfr_linalg::svd::Svd;
use dfr_linalg::{dot, GemmWorkspace, LinalgError, Matrix};
use proptest::prelude::*;

/// Strategy for a matrix of the given shape with bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0_f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("sized correctly"))
}

/// Operand shape of the thread-count determinism property: `a` is
/// `BANDED_ROWS × BANDED_INNER`. Odd, so ragged against MR/NR/K_BLOCK, and
/// large enough that every product it takes — the half-counted Gram
/// triangles of both `a·aᵀ` and `aᵀ·a` included — clears
/// `PAR_MIN_MADDS`; the assertion fails the build if the threshold
/// outgrows them.
const BANDED_ROWS: usize = 167;
const BANDED_INNER: usize = 163;
const _: () = assert!(
    BANDED_ROWS * BANDED_ROWS * BANDED_INNER / 2 >= PAR_MIN_MADDS
        && BANDED_INNER * BANDED_INNER * BANDED_ROWS / 2 >= PAR_MIN_MADDS
        && BANDED_ROWS % 2 == 1
        && BANDED_INNER % 2 == 1
);

/// Reinterprets `entries` (length `2n·n`) as a `2n×n` design whose last
/// column is the sum of the others plus `eps` times an independent
/// direction — the Gram's condition number grows like `1/eps²`, crossing
/// from rcond-flagged to exactly rank-deficient as `eps → 0`.
fn dependent_design(entries: &[f64], n: usize, eps: f64) -> Matrix {
    let mut x = Matrix::from_vec(2 * n, n, entries.to_vec()).expect("sized correctly");
    for i in 0..2 * n {
        let mix: f64 = (0..n - 1).map(|j| x[(i, j)]).sum();
        let independent = x[(i, n - 1)];
        x[(i, n - 1)] = mix + eps * independent;
    }
    x
}

/// Strategy for an ill-conditioned `2n×n` design ([`dependent_design`]
/// over bounded random entries, `eps` baked in).
fn ill_conditioned_design(n: usize, eps: f64) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0_f64..3.0, 2 * n * n)
        .prop_map(move |v| dependent_design(&v, n, eps))
}

/// Deterministic dense fill, distinct per shape/seed, no exact zeros.
fn filled(rows: usize, cols: usize, seed: f64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (i as f64 * 0.7310 + seed).sin() + 0.01)
            .collect(),
    )
    .expect("sized correctly")
}

/// The naive reference product `A · B`: `i-k-j` loop, `k` ascending per
/// output element, no blocking, no skips — the order every packed kernel
/// must reproduce bit for bit.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k_dim, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for k in 0..k_dim {
            let av = a[(i, k)];
            for j in 0..n {
                out[(i, j)] += av * b[(k, j)];
            }
        }
    }
    out
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {g} vs {w}");
    }
}

/// Satellite coverage for ragged register tiles: every output dim around
/// the MR×NR tile (`1..=2·MR+1` × `1..=2·NR+1`) crossed with `k` around
/// the packing block (`1, K_BLOCK−1, K_BLOCK, K_BLOCK+1`), all five
/// product kernels, checked **bitwise** against the naive `i-k-j`
/// reference through both the allocating and the `_into` forms (one
/// workspace recycled across every shape, proving stale packing state
/// never leaks).
#[test]
fn packed_products_match_naive_reference_on_ragged_edges() {
    let mut ws = GemmWorkspace::new();
    let mut out = Matrix::zeros(0, 0);
    for m in 1..=2 * MR + 1 {
        for n in 1..=2 * NR + 1 {
            for k in [1, K_BLOCK - 1, K_BLOCK, K_BLOCK + 1] {
                let a = filled(m, k, 0.3);
                let b = filled(k, n, 1.7);
                let want = naive_matmul(&a, &b);
                assert_bits_eq(&a.matmul(&b).unwrap(), &want, "matmul");
                a.matmul_into(&b, &mut out, &mut ws).unwrap();
                assert_bits_eq(&out, &want, "matmul_into");

                let at = a.transpose();
                at.t_matmul_into(&b, &mut out, &mut ws).unwrap();
                assert_bits_eq(&out, &want, "t_matmul_into");

                let bt = b.transpose();
                a.matmul_t_into(&bt, &mut out, &mut ws).unwrap();
                assert_bits_eq(&out, &want, "matmul_t_into");

                // Gram kernels: square symmetric references. The naive
                // reference computes only the lower triangle (dot per
                // element for gram, k-ascending accumulation for gram_t)
                // and mirrors — exactly the documented contract.
                let x = filled(m, k, 2.9);
                let want_gram = naive_matmul(&x, &x.transpose());
                x.gram_into(&mut out, &mut ws);
                assert_bits_eq(&out, &want_gram, "gram_into");

                let want_gram_t = naive_matmul(&x.transpose(), &x);
                x.gram_t_into(&mut out, &mut ws);
                assert_bits_eq(&out, &want_gram_t, "gram_t_into");
            }
        }
    }
}

/// The §13 kernel-differential suite: every product, every available
/// kernel, pinned **bitwise** against the scalar kernel (itself
/// pinned against the naive `i-k-j` reference above) over output dims
/// `1..=9 × 1..=17` crossed with `k ∈ {1, 63, 64, 65}` — small enough to
/// exercise every ragged-tile mask, with `k` straddling the `K_BLOCK`
/// boundary. One workspace is recycled across every kernel and shape, so
/// stale panels packed by another kernel or shape are checked to never
/// leak.
#[test]
fn products_bit_identical_across_all_kernels() {
    let kernels = available();
    assert!(!kernels.is_empty());
    let mut ws = GemmWorkspace::new();
    let mut out = Matrix::zeros(0, 0);
    for m in 1..=9usize {
        for n in 1..=17usize {
            for k in [1usize, 63, 64, 65] {
                let a = filled(m, k, 0.9);
                let b = filled(k, n, 4.1);
                let x = filled(m, k, 7.3);
                let reference = with_kernel(KernelKind::Scalar, || {
                    (
                        a.matmul(&b).unwrap(),
                        a.transpose().t_matmul(&b).unwrap(),
                        a.matmul_t(&b.transpose()).unwrap(),
                        x.gram(),
                        x.gram_t(),
                    )
                });
                for kernel in &kernels {
                    with_kernel(kernel.kind(), || {
                        let name = kernel.name();
                        a.matmul_into(&b, &mut out, &mut ws).unwrap();
                        assert_bits_eq(&out, &reference.0, &format!("{name} matmul {m}x{k}x{n}"));
                        a.transpose().t_matmul_into(&b, &mut out, &mut ws).unwrap();
                        assert_bits_eq(&out, &reference.1, &format!("{name} t_matmul {m}x{k}x{n}"));
                        a.matmul_t_into(&b.transpose(), &mut out, &mut ws).unwrap();
                        assert_bits_eq(&out, &reference.2, &format!("{name} matmul_t {m}x{k}x{n}"));
                        x.gram_into(&mut out, &mut ws);
                        assert_bits_eq(&out, &reference.3, &format!("{name} gram {m}x{k}"));
                        x.gram_t_into(&mut out, &mut ws);
                        assert_bits_eq(&out, &reference.4, &format!("{name} gram_t {m}x{k}"));
                    });
                }
            }
        }
    }
}

/// The blocked Cholesky's trailing update runs through the dispatched
/// subtractive microkernel — factors (and the first failing pivot) must be
/// bitwise identical under every kernel, at sizes spanning the NB
/// panel boundary.
#[test]
fn cholesky_bit_identical_across_all_kernels() {
    for n in [1usize, 31, 33, 70, 101] {
        let m = filled(n, n, 5.5);
        let mut a = m.matmul_t(&m).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let reference = with_kernel(KernelKind::Scalar, || Cholesky::factor(&a).unwrap());
        for kernel in available() {
            let got = with_kernel(kernel.kind(), || Cholesky::factor(&a).unwrap());
            assert_bits_eq(
                got.factor_l(),
                reference.factor_l(),
                &format!("{} cholesky n={n}", kernel.name()),
            );
        }
    }
}

/// The borrowed row-range product `X[a]ᵀ·Y[b]` — the form the DPRR
/// product block runs through — pinned **bitwise** against the naive
/// reference on the explicitly sliced windows, under every kernel, for
/// shifted windows of one matrix (the DPRR shape) and of two, with empty
/// windows writing zeros and mismatched windows rejected.
#[test]
fn t_matmul_rows_into_matches_naive_on_windows_across_all_kernels() {
    fn rows_of(x: &Matrix, r: std::ops::Range<usize>) -> Matrix {
        let flat = r.clone().flat_map(|i| x.row(i).to_vec()).collect();
        Matrix::from_vec(r.len(), x.cols(), flat).expect("sized")
    }
    let mut ws = GemmWorkspace::new();
    for (t, m, n) in [
        (1usize, 3usize, 3usize),
        (2, 30, 30),
        (5, 9, 17),
        (66, 30, 30),
        (130, 5, 11),
    ] {
        let x = filled(t, m, 0.4);
        let y = filled(t + 3, n, 2.2);
        let steps = t - 1;
        let dprr_want = naive_matmul(&rows_of(&x, 1..t).transpose(), &rows_of(&x, 0..steps));
        let pair_want = naive_matmul(&x.transpose(), &rows_of(&y, 3..t + 3));
        let cases = [
            (1..t, &x, 0..steps, dprr_want),
            (0..t, &y, 3..t + 3, pair_want),
        ];
        for (a_rows, rhs, b_rows, want) in cases {
            for kernel in available() {
                with_kernel(kernel.kind(), || {
                    let mut out = vec![f64::NAN; want.len()];
                    x.t_matmul_rows_into(a_rows.clone(), rhs, b_rows.clone(), &mut out, &mut ws)
                        .unwrap();
                    let got = Matrix::from_vec(want.rows(), want.cols(), out).unwrap();
                    assert_bits_eq(&got, &want, &format!("{} t={t} {m}x{n}", kernel.name()));
                });
            }
        }
    }
    let x = filled(4, 3, 0.1);
    let mut out = vec![f64::NAN; 9];
    x.t_matmul_rows_into(2..2, &x, 0..0, &mut out, &mut ws)
        .unwrap();
    assert!(
        out.iter().all(|v| v.to_bits() == 0),
        "empty windows give +0.0"
    );
    assert!(matches!(
        x.t_matmul_rows_into(0..2, &x, 0..3, &mut out, &mut ws),
        Err(LinalgError::ShapeMismatch { .. })
    ));
    assert!(matches!(
        x.t_matmul_rows_into(0..2, &x, 1..3, &mut out[..8], &mut ws),
        Err(LinalgError::ShapeMismatch { .. })
    ));
}

/// Naive `Aᵀ·v`: `out_j` starts at `+0.0`, `i` ascending.
fn naive_t_matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.cols()];
    for (i, &vi) in v.iter().enumerate() {
        for (j, o) in out.iter_mut().enumerate() {
            *o += vi * a[(i, j)];
        }
    }
    out
}

/// Naive rank-1 update with the `g_c == 0` row skip; returns the
/// finiteness of every element afterwards.
fn naive_add_outer(w: &mut Matrix, alpha: f64, g: &[f64], r: &[f64], s: f64) -> bool {
    for (c, &gc) in g.iter().enumerate() {
        if gc != 0.0 {
            for (j, &rj) in r.iter().enumerate() {
                w[(c, j)] += alpha * ((gc * rj) * s);
            }
        }
    }
    w.as_slice().iter().all(|x| x.is_finite())
}

/// A vector with `+0.0`/`−0.0` entries and negatives, no pattern aligned
/// to the vector width.
fn zero_laced(len: usize, seed: f64) -> Vec<f64> {
    (0..len)
        .map(|i| match i % 7 {
            2 => 0.0,
            5 => -0.0,
            _ => (i as f64 * 0.913 + seed).sin() * 3.0,
        })
        .collect()
}

/// The two BLAS-2 passes of the per-sample SGD step, `Wᵀg`
/// ([`Matrix::t_matvec_into`]) and the rank-1 update
/// ([`Matrix::add_outer`]), under every kernel: bitwise equal to the
/// naive loops over ragged lengths (0, 1, 3 and the readout widths 930 and
/// 931 around the vector width), `g_c == 0` rows over `−0.0` weights,
/// and a finiteness flag that reports NaN, ∞ and products overflowing
/// `f64::MAX` wherever they land.
#[test]
fn blas2_passes_bit_identical_across_all_kernels() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for cols in [0usize, 1, 3, 930, 931] {
        for rows in [0usize, 1, 3, 7] {
            let mut w0 = Matrix::from_vec(rows, cols, zero_laced(rows * cols, 0.3)).unwrap();
            for c in 0..rows {
                for j in 0..cols {
                    if (c + j) % 3 == 0 {
                        w0[(c, j)] = -0.0;
                    }
                }
            }
            let v = zero_laced(rows, 1.1);
            // Row 0 (and every row ≡ 2 mod 7) has g_c == 0; the rest mix signs.
            let g: Vec<f64> = (0..rows)
                .map(|c| {
                    if c % 7 == 0 || c % 7 == 2 {
                        0.0
                    } else {
                        (c as f64 * 0.77).cos()
                    }
                })
                .collect();
            let r = zero_laced(cols, 2.5);
            let want_tmv = naive_t_matvec(&w0, &v);
            let mut want_w = w0.clone();
            let want_ok = naive_add_outer(&mut want_w, -0.05, &g, &r, 0.75);
            assert!(want_ok);
            for kernel in available() {
                with_kernel(kernel.kind(), || {
                    let what = format!("{} {rows}x{cols}", kernel.name());
                    let mut out = vec![f64::NAN; cols];
                    w0.t_matvec_into(&v, &mut out).unwrap();
                    assert_eq!(bits(&out), bits(&want_tmv), "{what} t_matvec");
                    let mut w = w0.clone();
                    assert!(w.add_outer(-0.05, &g, &r, 0.75).unwrap(), "{what} flag");
                    assert_bits_eq(&w, &want_w, &format!("{what} add_outer"));
                });
            }
        }
    }

    // The finiteness flag: (w, g, r, s, expected) cases on a 3×931 readout.
    let (rows, cols) = (3usize, 931usize);
    let base = Matrix::from_vec(rows, cols, zero_laced(rows * cols, 0.9)).unwrap();
    let g = vec![0.0, 0.5, -2.0];
    let r = zero_laced(cols, 0.2);
    let mut nan_in_zero_row = base.clone();
    nan_in_zero_row[(0, 930)] = f64::NAN;
    let mut inf_in_live_row = base.clone();
    inf_in_live_row[(2, 3)] = f64::NEG_INFINITY;
    let mut r_inf = r.clone();
    r_inf[929] = f64::INFINITY;
    let mut r_nan = r.clone();
    r_nan[0] = f64::NAN;
    let mut r_huge = r.clone();
    r_huge[930] = 1e300; // g·r = −2e300 is finite; ×s below overflows
    /// `(what, w, g, r, s, expected flag)`.
    type FlagCase<'a> = (&'a str, &'a Matrix, Vec<f64>, &'a [f64], f64, bool);
    let cases: Vec<FlagCase> = vec![
        ("finite", &base, g.clone(), &r, 1.0, true),
        (
            "NaN weight in a g_c == 0 row",
            &nan_in_zero_row,
            g.clone(),
            &r,
            1.0,
            false,
        ),
        (
            "−∞ weight in a live row",
            &inf_in_live_row,
            g.clone(),
            &r,
            1.0,
            false,
        ),
        ("∞ feature", &base, g.clone(), &r_inf, 1.0, false),
        ("NaN feature", &base, g.clone(), &r_nan, 1.0, false),
        (
            "NaN class factor",
            &base,
            vec![0.0, f64::NAN, 1.0],
            &r,
            1.0,
            false,
        ),
        (
            "|g·r| > f64::MAX",
            &base,
            vec![0.0, 1e200, 0.0],
            &r_huge,
            1.0,
            false,
        ),
        ("(g·r)·s overflows", &base, g.clone(), &r_huge, 1e10, false),
        (
            "∞ feature under zero rows only",
            &base,
            vec![0.0; 3],
            &r_inf,
            1.0,
            true,
        ),
    ];
    for (what, w0, g, r, s, want) in cases {
        let mut want_w = w0.clone();
        assert_eq!(
            naive_add_outer(&mut want_w, -1.0, &g, r, s),
            want,
            "{what}: reference"
        );
        for kernel in available() {
            with_kernel(kernel.kind(), || {
                let mut w = w0.clone();
                assert_eq!(
                    w.add_outer(-1.0, &g, r, s).unwrap(),
                    want,
                    "{} {what}",
                    kernel.name()
                );
                let got: Vec<u64> = bits(w.as_slice());
                assert_eq!(
                    got,
                    bits(want_w.as_slice()),
                    "{} {what}: weights",
                    kernel.name()
                );
            });
        }
    }
    let mut w = base.clone();
    assert!(matches!(
        w.add_outer(-1.0, &[1.0, 2.0], &r, 1.0),
        Err(LinalgError::ShapeMismatch { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in matrix(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(3, 4), b in matrix(5, 4)) {
        // (A Bᵀ)ᵀ = B Aᵀ
        let left = a.matmul_t(&b).unwrap().transpose();
        let right = b.matmul_t(&a).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn t_matmul_equals_explicit(a in matrix(4, 3), b in matrix(4, 2)) {
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn dot_bilinear(v in proptest::collection::vec(-5.0_f64..5.0, 6),
                    w in proptest::collection::vec(-5.0_f64..5.0, 6),
                    alpha in -3.0_f64..3.0) {
        let scaled: Vec<f64> = v.iter().map(|x| alpha * x).collect();
        prop_assert!((dot(&scaled, &w) - alpha * dot(&v, &w)).abs() < 1e-9);
    }

    #[test]
    fn cholesky_reconstructs_spd(m in matrix(4, 4)) {
        // A = M Mᵀ + I is always SPD.
        let mut a = m.matmul_t(&m).unwrap();
        for i in 0..4 { a[(i, i)] += 1.0; }
        let c = Cholesky::factor(&a).unwrap();
        let rec = c.factor_l().matmul_t(c.factor_l()).unwrap();
        for (x, y) in rec.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn cholesky_solve_is_inverse(m in matrix(4, 4),
                                 b in proptest::collection::vec(-5.0_f64..5.0, 4)) {
        let mut a = m.matmul_t(&m).unwrap();
        for i in 0..4 { a[(i, i)] += 1.0; }
        let x = Cholesky::factor(&a).unwrap().solve_vec(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (got, want) in back.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-7);
        }
    }

    #[test]
    fn ridge_primal_equals_dual(x in matrix(6, 4), y in matrix(6, 2),
                                beta in 1e-4_f64..10.0) {
        let wp = ridge_fit_with(&x, &y, beta, RidgeMode::Primal).unwrap();
        let wd = ridge_fit_with(&x, &y, beta, RidgeMode::Dual).unwrap();
        for (a, b) in wp.as_slice().iter().zip(wd.as_slice()) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    /// The single-Gram β-sweep plan reproduces standalone per-β fits bit
    /// for bit — in both formulations, with stale reused output buffers,
    /// at pool widths 1 / 2 / 8.
    #[test]
    fn ridge_plan_bit_identical_to_per_beta_fits(
        x in matrix(7, 5), y in matrix(7, 2),
        b1 in 1e-6_f64..10.0, b2 in 1e-6_f64..10.0,
    ) {
        for mode in [RidgeMode::Primal, RidgeMode::Dual, RidgeMode::Auto] {
            let mut w = Matrix::zeros(3, 3); // stale shape on purpose
            for threads in [1usize, 2, 8] {
                dfr_pool::with_threads(threads, || {
                    let mut plan = RidgePlan::with_mode(&x, &y, mode).unwrap();
                    for &beta in &[b1, b2] {
                        plan.solve_into(beta, &mut w).unwrap();
                        let standalone = ridge_fit_with(&x, &y, beta, mode).unwrap();
                        assert_eq!(w.shape(), standalone.shape());
                        for (a, b) in w.as_slice().iter().zip(standalone.as_slice()) {
                            assert_eq!(a.to_bits(), b.to_bits(),
                                "mode {mode:?} beta {beta} threads {threads}");
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn softmax_normalised_and_shift_invariant(
        logits in proptest::collection::vec(-50.0_f64..50.0, 1..8),
        shift in -100.0_f64..100.0,
    ) {
        let p = softmax(&logits);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let shifted: Vec<f64> = logits.iter().map(|x| x + shift).collect();
        let q = softmax(&shifted);
        for (a, b) in p.iter().zip(&q) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn log_sum_exp_bounds(logits in proptest::collection::vec(-50.0_f64..50.0, 1..8)) {
        // max ≤ lse ≤ max + ln(n)
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = log_sum_exp(&logits);
        prop_assert!(lse >= max - 1e-12);
        prop_assert!(lse <= max + (logits.len() as f64).ln() + 1e-12);
    }

    /// The execution-layer determinism contract (DESIGN.md §8): every
    /// parallel product is bit-identical to its serial result at thread
    /// counts 1, 2 and 8. Operands are sized past the serial threshold so
    /// bands genuinely form, with ragged dims (not multiples of MR/NR/
    /// K_BLOCK) so MR-rounded bands and masked edge tiles are exercised.
    #[test]
    fn products_bit_identical_across_thread_counts(
        a in matrix(BANDED_ROWS, BANDED_INNER),
        b in matrix(BANDED_INNER, BANDED_ROWS),
    ) {
        let serial = dfr_pool::with_threads(1, || (
            a.matmul(&b).unwrap(),
            a.t_matmul(&a).unwrap(),
            a.matmul_t(&a).unwrap(),
            a.gram(),
            a.gram_t(),
        ));
        for threads in [2usize, 8] {
            let parallel = dfr_pool::with_threads(threads, || (
                a.matmul(&b).unwrap(),
                a.t_matmul(&a).unwrap(),
                a.matmul_t(&a).unwrap(),
                a.gram(),
                a.gram_t(),
            ));
            prop_assert_eq!(&parallel, &serial, "threads={}", threads);
        }
    }

    /// The blocked right-looking Cholesky (NB-panel factor + microkernel
    /// trailing update) is bitwise equal to the unblocked left-looking
    /// reference, including the first-failing-pivot index, at sizes
    /// spanning the panel boundary.
    #[test]
    fn blocked_cholesky_matches_unblocked_reference(seed in 0.0_f64..100.0) {
        /// The pre-PR unblocked left-looking loop, kept as the reference.
        fn reference_factor(a: &Matrix) -> Result<Matrix, ()> {
            let n = a.rows();
            let mut l = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = a[(i, j)];
                    for k in 0..j {
                        sum -= l[(i, k)] * l[(j, k)];
                    }
                    if i == j {
                        if sum <= 0.0 || !sum.is_finite() {
                            return Err(());
                        }
                        l[(i, j)] = sum.sqrt();
                    } else {
                        l[(i, j)] = sum / l[(j, j)];
                    }
                }
            }
            Ok(l)
        }
        // 1 / NB−1 / NB / NB+1 / several panels with a ragged tail.
        for n in [1usize, 31, 32, 33, 70, 101] {
            let m = filled(n, n, seed);
            let mut a = m.matmul_t(&m).unwrap();
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            let want = reference_factor(&a).expect("SPD by construction");
            let got = Cholesky::factor(&a).unwrap();
            assert_bits_eq(got.factor_l(), &want, "cholesky factor");
        }
    }

    #[test]
    fn cross_entropy_nonnegative(
        logits in proptest::collection::vec(-20.0_f64..20.0, 2..6),
        class in 0usize..6,
    ) {
        let k = class % logits.len();
        let mut d = vec![0.0; logits.len()];
        d[k] = 1.0;
        prop_assert!(cross_entropy_from_logits(&logits, &d) >= -1e-12);
    }
}

// ---- Solver-escalation properties (DESIGN.md §15) -----------------------
//
// Fewer cases than the block above: each case factors a Gram up to three
// ways (Cholesky, QR, Jacobi SVD), so 16 cases already cover every
// escalation rung many times over.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole guarantee: on an *exactly* rank-deficient system at
    /// `β = 0`, the `Auto` policy escalates past Cholesky and still
    /// returns a finite solution of the (consistent) normal equations.
    #[test]
    fn auto_policy_survives_exact_rank_deficiency(
        x in ill_conditioned_design(6, 0.0),
        t in proptest::collection::vec(-2.0_f64..2.0, 6),
    ) {
        // A consistent RHS (`y = X t`) keeps the singular normal
        // equations solvable, so "finite and small residual" is the
        // honest success criterion.
        let tm = Matrix::from_vec(6, 1, t).expect("sized correctly");
        let y = x.matmul(&tm).unwrap();
        let mut plan = RidgePlan::with_mode(&x, &y, RidgeMode::Primal).unwrap();
        let mut w = Matrix::zeros(0, 0);
        plan.solve_into_with(0.0, &mut w, SolverPolicy::Auto).unwrap();
        prop_assert!(w.as_slice().iter().all(|v| v.is_finite()));

        let report = plan.last_report();
        prop_assert!(report.is_ok(), "{report:?}");
        prop_assert!(report.escalated, "singular Gram must escalate: {report:?}");
        prop_assert!(report.used != Some(SolverKind::Cholesky), "{report:?}");

        // Residual of the normal equations `(XᵀX) w = Xᵀy`.
        let gram = x.t_matmul(&x).unwrap();
        let rhs = x.t_matmul(&y).unwrap();
        let pred = gram.matmul(&w).unwrap();
        let denom = rhs.as_slice().iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (p, r) in pred.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((p - r).abs() <= 1e-7 * denom, "{p} vs {r}");
        }
    }

    /// On healthy (regularised, full-rank) systems the backends are
    /// interchangeable: `Auto` rides the Cholesky path **bit for bit**
    /// without escalating and records a comfortable rcond, while the
    /// pinned QR/SVD factorisations agree to rounding — the property-based
    /// form of the solver-differential suites.
    #[test]
    fn solver_backends_agree_on_well_conditioned_systems(
        x in matrix(12, 5), y in matrix(12, 3),
        beta in 1e-3_f64..1.0,
    ) {
        let mut plan = RidgePlan::with_mode(&x, &y, RidgeMode::Primal).unwrap();
        let mut reference = Matrix::zeros(0, 0);
        plan.solve_into_with(beta, &mut reference,
            SolverPolicy::Fixed(SolverKind::Cholesky)).unwrap();

        let mut w = Matrix::zeros(0, 0);
        plan.solve_into_with(beta, &mut w, SolverPolicy::Auto).unwrap();
        for (a, b) in w.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "auto diverged from cholesky");
        }
        let report = plan.last_report();
        prop_assert!(!report.escalated, "{report:?}");
        prop_assert_eq!(report.used, Some(SolverKind::Cholesky));
        let rcond = report.rcond.expect("cholesky succeeded under auto");
        prop_assert!(rcond > RCOND_MIN && rcond <= 1.0, "rcond {rcond:e}");

        for kind in [SolverKind::Qr, SolverKind::Svd] {
            plan.solve_into_with(beta, &mut w, SolverPolicy::Fixed(kind)).unwrap();
            for (a, b) in w.as_slice().iter().zip(reference.as_slice()) {
                prop_assert!((a - b).abs() <= 1e-7 * (1.0 + b.abs()),
                    "{kind:?}: {a} vs {b}");
            }
        }
    }

    /// The SVD rung's contract: on an exactly dependent design it loses
    /// rank, and its truncated solve is *minimum-norm* — no larger than
    /// the known solution `t` the RHS was built from.
    #[test]
    fn svd_solution_is_minimum_norm(
        x in ill_conditioned_design(5, 0.0),
        t in proptest::collection::vec(-2.0_f64..2.0, 5),
    ) {
        let tm = Matrix::from_vec(5, 1, t).expect("sized correctly");
        let y = x.matmul(&tm).unwrap();
        let gram = x.t_matmul(&x).unwrap();
        let rhs = x.t_matmul(&y).unwrap();
        let mut svd = Svd::factor(&gram).unwrap();
        prop_assert!(svd.rank() < 5,
            "exact dependence must lose rank: σ = {:?}", svd.sigma());
        let w = svd.solve(&rhs).unwrap();
        let norm = |m: &Matrix| m.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
        // `t` also solves the consistent normal equations, so the
        // truncated pseudoinverse solution can never be longer.
        prop_assert!(norm(&w) <= norm(&tm) + 1e-8 * (1.0 + norm(&tm)),
            "{} vs {}", norm(&w), norm(&tm));
    }

    /// The condition diagnostics: an `ε`-dependent column with
    /// `ε ∈ [1e-14, 1e-8]` must be caught — either Cholesky rejects the
    /// Gram outright, or the Hager/xLACON rcond estimate lands orders of
    /// magnitude below a healthy system's.
    #[test]
    fn rcond_estimate_flags_near_dependence(
        entries in proptest::collection::vec(-3.0_f64..3.0, 50),
        exp in 8.0_f64..14.0,
    ) {
        let x = dependent_design(&entries, 5, 10f64.powf(-exp));
        let gram = x.t_matmul(&x).unwrap();
        match Cholesky::factor(&gram) {
            Err(_) => {} // outright rejection is the other escalation trigger
            Ok(c) => {
                let rcond = c.rcond_1_est(gram.norm_1(), &mut Vec::new());
                prop_assert!(rcond < 1e-9, "ε = 1e-{exp:.1}: rcond {rcond:e}");
            }
        }
    }

    /// Poisoned inputs are terminal, never escalated: no factorisation can
    /// repair a NaN/Inf system, so `Auto` must surface
    /// [`LinalgError::NonFinite`] instead of burning QR + SVD sweeps to
    /// manufacture garbage — the linalg half of the serving layer's
    /// `BadInput` quarantine.
    #[test]
    fn poisoned_inputs_are_terminal_not_escalated(
        x in matrix(8, 4), y in matrix(8, 2),
        poison_row in 0usize..8, poison_col in 0usize..4,
        use_nan in proptest::bool::ANY,
    ) {
        let mut bad = x;
        bad[(poison_row, poison_col)] = if use_nan { f64::NAN } else { f64::INFINITY };
        let mut plan = RidgePlan::with_mode(&bad, &y, RidgeMode::Primal).unwrap();
        let mut w = Matrix::zeros(0, 0);
        let err = plan.solve_into_with(1e-2, &mut w, SolverPolicy::Auto).unwrap_err();
        prop_assert!(matches!(err, LinalgError::NonFinite { .. }), "{err:?}");
        let report = plan.last_report();
        prop_assert!(!report.is_ok(), "{report:?}");
        prop_assert!(report.used.is_none(), "{report:?}");
    }
}
