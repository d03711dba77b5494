//! Ridge-regression readout with the paper's β selection.
//!
//! After backpropagation fixes the reservoir parameters, the paper retrains
//! the output layer with ridge regression on one-hot targets, trying
//! `β ∈ {10⁻⁶, 10⁻⁴, 10⁻², 10⁰}` and keeping "the one with the smallest
//! loss L" (the cross-entropy of Eq. 15 evaluated on the training split).
//! Grid search uses the identical procedure, so the two methods differ only
//! in how `A` and `B` are found.

use crate::CoreError;
use dfr_linalg::activation::{cross_entropy_from_logits, softmax_in_place};
use dfr_linalg::ridge::{augment_ones_into, RidgePlan, RidgeScratch};
use dfr_linalg::solver::SolverReport;
use dfr_linalg::{GemmWorkspace, LinalgError, Matrix};

/// The paper's β candidates.
pub const PAPER_BETAS: [f64; 4] = [1e-6, 1e-4, 1e-2, 1.0];

/// A fitted readout: weights (`N_y × N_r`), bias, the β that won and the
/// training loss it achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedReadout {
    /// Readout weights, `N_y × N_r`.
    pub w_out: Matrix,
    /// Readout bias, length `N_y`.
    pub bias: Vec<f64>,
    /// The selected regularisation parameter.
    pub beta: f64,
    /// Mean training cross-entropy with the selected β.
    pub train_loss: f64,
}

/// Fits the readout by ridge regression, selecting β by training loss.
///
/// `features` is `n × N_r` (one sample per row), `targets` is the one-hot
/// `n × N_y` matrix.
///
/// # Errors
///
/// * [`CoreError::InvalidConfig`] if `betas` is empty.
/// * [`CoreError::Linalg`] if every β fails to fit (e.g. non-finite
///   features after reservoir divergence) — the first failure is returned.
///
/// # Example
///
/// ```
/// use dfr_core::readout::{fit_readout, PAPER_BETAS};
/// use dfr_linalg::Matrix;
///
/// # fn main() -> Result<(), dfr_core::CoreError> {
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
/// let y = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]])?;
/// let fit = fit_readout(&x, &y, &PAPER_BETAS)?;
/// assert!(PAPER_BETAS.contains(&fit.beta));
/// # Ok(())
/// # }
/// ```
pub fn fit_readout(
    features: &Matrix,
    targets: &Matrix,
    betas: &[f64],
) -> Result<FittedReadout, CoreError> {
    fit_readout_with(features, targets, betas, &mut ReadoutScratch::new())
}

/// Every reusable buffer of one readout fit: the intercept-augmented
/// system, the ridge plan's scratch (Gram, factorisation, GEMM packing
/// panels) and the batched-logits matrix of the loss/accuracy passes.
///
/// Grid search fits a readout for thousands of `(A, B)` cells against
/// same-shaped systems, so each pool worker owns one `ReadoutScratch` and
/// [`fit_readout_with`] recycles it across that worker's cells.
#[derive(Debug, Clone, Default)]
pub struct ReadoutScratch {
    /// Intercept-augmented feature matrix `[X, 1]`.
    aug: Matrix,
    /// Augmented ridge solution `(p + 1) x q`.
    w_aug: Matrix,
    /// Ridge-plan buffers (Gram system, solver factorisations, packing
    /// panels).
    ridge: RidgeScratch,
    /// Batched logits of the loss/accuracy passes (`n x q`).
    logits: Matrix,
    /// Packing panels for the batched logits product.
    gemm: GemmWorkspace,
    /// Per-β solver outcomes of the most recent sweep (capacity reused
    /// across fits, so the sweep stays allocation-free after warm-up).
    reports: Vec<SolverReport>,
}

impl ReadoutScratch {
    /// Empty scratch; every buffer is sized lazily on first use.
    pub fn new() -> Self {
        ReadoutScratch::default()
    }

    /// One [`SolverReport`] per β candidate of the most recent
    /// [`fit_readout_with`] sweep, in candidate order — including failed
    /// candidates (their `error` field carries the reason they were
    /// skipped), so one bad corner is visible instead of silently absent.
    pub fn solver_reports(&self) -> &[SolverReport] {
        &self.reports
    }
}

/// [`fit_readout`] against caller-owned scratch — bitwise identical
/// results, allocation-recycling across fits (`DESIGN.md` §9).
///
/// # Errors
///
/// Same as [`fit_readout`].
pub fn fit_readout_with(
    features: &Matrix,
    targets: &Matrix,
    betas: &[f64],
    ws: &mut ReadoutScratch,
) -> Result<FittedReadout, CoreError> {
    if betas.is_empty() {
        return Err(CoreError::InvalidConfig {
            field: "betas",
            detail: "at least one regularisation candidate is required".into(),
        });
    }
    // The intercept-augmented system and its Gram matrix (the dominant
    // O(n²p) cost of a fit) depend only on the data, not on β: build them
    // exactly once and sweep every candidate through the prepared plan,
    // which per β only re-adds βI and refactors. Results per β are bitwise
    // identical to a standalone `ridge_fit_intercept` call.
    augment_ones_into(features, &mut ws.aug);
    let ReadoutScratch {
        aug,
        w_aug,
        ridge,
        logits,
        gemm,
        reports,
    } = ws;
    reports.clear();
    // Plan-construction failures (shape/emptiness) are β-independent:
    // every candidate would fail with this same error, so fail fast.
    let mut plan =
        RidgePlan::with_mode_in(aug, targets, dfr_linalg::ridge::RidgeMode::Auto, ridge)?;
    let p = features.cols();
    let mut best: Option<FittedReadout> = None;
    let mut first_err: Option<CoreError> = None;
    for &beta in betas {
        let outcome = try_fit(&mut plan, w_aug, p, features, targets, beta, logits, gemm);
        // Skip-and-report: the failing candidate's report (solver used,
        // rcond, terminal error) is kept alongside the winners', so a bad
        // β corner is visible in the sweep record instead of fatal to it.
        let mut report = plan.last_report().clone();
        report.beta = beta;
        match outcome {
            // A candidate with a non-finite training loss can never be
            // "the smallest loss" — NaN in particular would otherwise
            // survive as an early `best` (NaN never compares `<`).
            // `try_fit` converts those to errors; guard here too so the
            // selection stays correct under any future fit path.
            Ok(candidate) if candidate.train_loss.is_finite() => {
                if best
                    .as_ref()
                    .map_or(true, |b| candidate.train_loss < b.train_loss)
                {
                    best = Some(candidate);
                }
            }
            Ok(_) => {
                if report.error.is_none() {
                    report.error = Some(LinalgError::NonFinite { op: "readout_loss" });
                }
                if first_err.is_none() {
                    first_err = Some(CoreError::NumericalFailure {
                        context: "ridge readout loss",
                    });
                }
            }
            Err(e) => {
                if report.error.is_none() {
                    report.error = Some(match &e {
                        CoreError::Linalg(le) => le.clone(),
                        _ => LinalgError::NonFinite { op: "readout_loss" },
                    });
                }
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        reports.push(report);
    }
    best.ok_or_else(|| {
        first_err.unwrap_or(CoreError::NumericalFailure {
            context: "ridge readout",
        })
    })
}

#[allow(clippy::too_many_arguments)]
fn try_fit(
    plan: &mut RidgePlan<'_>,
    w_aug: &mut Matrix,
    p: usize,
    features: &Matrix,
    targets: &Matrix,
    beta: f64,
    logits: &mut Matrix,
    gemm: &mut GemmWorkspace,
) -> Result<FittedReadout, CoreError> {
    plan.solve_into(beta, w_aug)?;
    // ridge returns W as (N_r + 1) × N_y; the readout convention is
    // N_y × N_r plus a separate bias row.
    let q = w_aug.cols();
    let mut w_out = Matrix::zeros(q, p);
    for i in 0..p {
        for (c, &v) in w_aug.row(i).iter().enumerate() {
            w_out[(c, i)] = v;
        }
    }
    let bias = w_aug.row(p).to_vec();
    batched_logits(features, &w_out, &bias, logits, gemm)?;
    let mut total = 0.0;
    for i in 0..features.rows() {
        total += cross_entropy_from_logits(logits.row(i), targets.row(i));
    }
    let train_loss = total / features.rows() as f64;
    if !train_loss.is_finite() {
        return Err(CoreError::NumericalFailure {
            context: "ridge readout loss",
        });
    }
    Ok(FittedReadout {
        w_out,
        bias,
        beta,
        train_loss,
    })
}

/// All-sample logits `X·W_outᵀ + 1·biasᵀ` in one microkernel product —
/// per row bitwise identical to a `matvec` + bias loop.
fn batched_logits(
    features: &Matrix,
    w_out: &Matrix,
    bias: &[f64],
    logits: &mut Matrix,
    gemm: &mut GemmWorkspace,
) -> Result<(), CoreError> {
    features.matmul_t_into(w_out, logits, gemm)?;
    for i in 0..logits.rows() {
        for (l, b) in logits.row_mut(i).iter_mut().zip(bias) {
            *l += b;
        }
    }
    Ok(())
}

/// Mean softmax cross-entropy of a linear readout over a feature matrix.
///
/// All samples' logits are computed in one batched microkernel product
/// (bitwise equal, row for row, to the per-sample `matvec` loop this
/// replaced).
///
/// # Errors
///
/// Returns [`CoreError::Linalg`] on shape mismatches.
pub fn mean_cross_entropy(
    features: &Matrix,
    w_out: &Matrix,
    bias: &[f64],
    targets: &Matrix,
) -> Result<f64, CoreError> {
    let n = features.rows();
    if n == 0 {
        return Ok(0.0);
    }
    let mut logits = Matrix::zeros(0, 0);
    batched_logits(
        features,
        w_out,
        bias,
        &mut logits,
        &mut GemmWorkspace::new(),
    )?;
    let mut total = 0.0;
    for i in 0..n {
        total += cross_entropy_from_logits(logits.row(i), targets.row(i));
    }
    Ok(total / n as f64)
}

/// Accuracy of a linear readout over a feature matrix with integer labels.
///
/// Batched like [`mean_cross_entropy`]; see [`readout_accuracy_with`] for
/// the scratch-recycling form.
///
/// # Errors
///
/// Returns [`CoreError::Linalg`] on shape mismatches.
pub fn readout_accuracy(
    features: &Matrix,
    w_out: &Matrix,
    bias: &[f64],
    labels: &[usize],
) -> Result<f64, CoreError> {
    readout_accuracy_with(features, w_out, bias, labels, &mut ReadoutScratch::new())
}

/// [`readout_accuracy`] against caller-owned scratch (the batched logits
/// land in the scratch's buffers) — the form grid search recycles across
/// cells.
///
/// # Errors
///
/// Returns [`CoreError::Linalg`] on shape mismatches.
pub fn readout_accuracy_with(
    features: &Matrix,
    w_out: &Matrix,
    bias: &[f64],
    labels: &[usize],
    ws: &mut ReadoutScratch,
) -> Result<f64, CoreError> {
    let n = features.rows();
    assert_eq!(labels.len(), n, "readout_accuracy: length mismatch");
    if n == 0 {
        return Ok(0.0);
    }
    batched_logits(features, w_out, bias, &mut ws.logits, &mut ws.gemm)?;
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let logits = ws.logits.row_mut(i);
        softmax_in_place(logits);
        if dfr_linalg::stats::argmax(logits) == Some(label) {
            correct += 1;
        }
    }
    Ok(correct as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable features: class = index of the larger coordinate.
    fn separable() -> (Matrix, Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            &[2.0, 0.1],
            &[1.5, -0.2],
            &[0.0, 1.8],
            &[-0.3, 2.2],
            &[1.9, 0.4],
            &[0.2, 1.1],
        ])
        .unwrap();
        let labels = vec![0, 0, 1, 1, 0, 1];
        let mut y = Matrix::zeros(6, 2);
        for (i, &l) in labels.iter().enumerate() {
            y[(i, l)] = 1.0;
        }
        (x, y, labels)
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let (x, y, labels) = separable();
        let fit = fit_readout(&x, &y, &PAPER_BETAS).unwrap();
        let acc = readout_accuracy(&x, &fit.w_out, &fit.bias, &labels).unwrap();
        assert_eq!(acc, 1.0);
        assert!(fit.train_loss < 2.0_f64.ln()); // better than uniform
    }

    #[test]
    fn selects_smallest_loss_beta() {
        let (x, y, _) = separable();
        // With clean separable data the least-regularised fit has the
        // smallest training loss.
        let fit = fit_readout(&x, &y, &PAPER_BETAS).unwrap();
        assert_eq!(fit.beta, 1e-6);
        // Restricting to a single beta returns that beta.
        let only = fit_readout(&x, &y, &[1.0]).unwrap();
        assert_eq!(only.beta, 1.0);
        assert!(only.train_loss >= fit.train_loss);
    }

    #[test]
    fn nonfinite_candidates_fall_through_to_error() {
        // Features large enough that the Gram overflows to infinity: every
        // β candidate fails (non-positive-definite / non-finite loss), and
        // fit_readout must surface an error instead of keeping a candidate
        // whose NaN loss would win the `<` selection by arriving first.
        let x = Matrix::filled(4, 2, 1e200);
        let mut y = Matrix::zeros(4, 2);
        for i in 0..4 {
            y[(i, i % 2)] = 1.0;
        }
        let err = fit_readout(&x, &y, &PAPER_BETAS).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Linalg(_) | CoreError::NumericalFailure { .. }
        ));
    }

    #[test]
    fn sweep_matches_standalone_intercept_fits_bitwise() {
        let (x, y, _) = separable();
        for &beta in &PAPER_BETAS {
            let fit = fit_readout(&x, &y, &[beta]).unwrap();
            let (w, b) = dfr_linalg::ridge::ridge_fit_intercept(&x, &y, beta).unwrap();
            let standalone = w.transpose();
            for (a, e) in fit.w_out.as_slice().iter().zip(standalone.as_slice()) {
                assert_eq!(a.to_bits(), e.to_bits(), "beta {beta}");
            }
            for (a, e) in fit.bias.iter().zip(&b) {
                assert_eq!(a.to_bits(), e.to_bits(), "beta {beta}");
            }
        }
    }

    #[test]
    fn sweep_surfaces_per_candidate_reports() {
        let (x, y, _) = separable();
        let mut ws = ReadoutScratch::new();
        fit_readout_with(&x, &y, &PAPER_BETAS, &mut ws).unwrap();
        let reports = ws.solver_reports();
        assert_eq!(reports.len(), PAPER_BETAS.len());
        for (r, &beta) in reports.iter().zip(&PAPER_BETAS) {
            assert_eq!(r.beta, beta);
            assert!(r.is_ok(), "beta {beta}: {r:?}");
            assert!(!r.escalated);
        }
    }

    #[test]
    fn failing_candidate_is_skipped_and_reported() {
        use dfr_linalg::solver::{with_solver, SolverKind, SolverPolicy};
        // Duplicated feature column: with the intercept column the
        // augmented Gram is rank 2 of 3 — singular at β = 0.
        let x = Matrix::from_rows(&[
            &[2.0, 2.0],
            &[1.5, 1.5],
            &[0.0, 0.0],
            &[-0.3, -0.3],
            &[1.9, 1.9],
            &[0.2, 0.2],
        ])
        .unwrap();
        let mut y = Matrix::zeros(6, 2);
        for (i, l) in [0, 0, 1, 1, 0, 1].iter().enumerate() {
            y[(i, *l)] = 1.0;
        }
        let betas = [0.0, 1e-2];
        // Escalation disabled: the singular β = 0 candidate fails, is
        // skipped, and its failure is visible in the sweep record.
        let mut ws = ReadoutScratch::new();
        let fit = with_solver(SolverPolicy::Fixed(SolverKind::Cholesky), || {
            fit_readout_with(&x, &y, &betas, &mut ws)
        })
        .unwrap();
        assert_eq!(fit.beta, 1e-2);
        let reports = ws.solver_reports();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].error.is_some());
        assert!(!reports[0].is_ok());
        assert!(reports[1].is_ok());
        // Escalation enabled: the same candidate is rescued by the SVD's
        // minimum-norm solve and the sweep keeps both candidates.
        let fit = with_solver(SolverPolicy::Auto, || {
            fit_readout_with(&x, &y, &betas, &mut ws)
        })
        .unwrap();
        assert!(fit.train_loss.is_finite());
        let reports = ws.solver_reports();
        assert!(reports[0].is_ok(), "{:?}", reports[0]);
        assert!(reports[0].escalated);
        assert_eq!(reports[0].used, Some(SolverKind::Svd));
    }

    #[test]
    fn empty_betas_is_config_error() {
        let (x, y, _) = separable();
        assert!(matches!(
            fit_readout(&x, &y, &[]).unwrap_err(),
            CoreError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn readout_shapes() {
        let (x, y, _) = separable();
        let fit = fit_readout(&x, &y, &PAPER_BETAS).unwrap();
        assert_eq!(fit.w_out.shape(), (2, 2));
        assert_eq!(fit.bias.len(), 2);
    }

    #[test]
    fn mean_cross_entropy_of_empty_is_zero() {
        let x = Matrix::zeros(0, 3);
        let y = Matrix::zeros(0, 2);
        let w = Matrix::zeros(2, 3);
        assert_eq!(mean_cross_entropy(&x, &w, &[0.0; 2], &y).unwrap(), 0.0);
        assert_eq!(readout_accuracy(&x, &w, &[0.0; 2], &[]).unwrap(), 0.0);
    }
}
