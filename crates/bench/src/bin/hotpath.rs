//! Before/after wall-clock measurement of the training hot path.
//!
//! ```text
//! cargo run --release -p dfr-bench --bin hotpath [-- --datasets ARAB \
//!     --epochs 25 --scale 1.0 --seed 0 --repeat 2 --threads 1]
//! ```
//!
//! **Methodology** (also summarised in `EXPERIMENTS.md`): the "legacy"
//! column preserves the pre-PR implementation verbatim inside this binary
//! — the index-addressed reservoir recurrence, a freshly allocated state
//! matrix and forward cache per sample, the allocating backward pass
//! (fresh `bpv`/`ds`/`dr` per call, per-sample `masked.clone()`; its
//! readout gradient is the factored `Gradients` form `Sgd::step` takes),
//! a gradient clone before the SGD step (the old optimizer cloned
//! internally), a readout sweep running one full ridge fit per β
//! candidate, and — since the GEMM PR — the **scalar dense kernels** those
//! stages originally ran on (row-by-row `dot` matvec/mask-apply, `i-k-j`
//! Gram/product loops with zero-skip branches, unblocked Cholesky), frozen
//! here as `legacy_*` functions. The "workspace" column is today's
//! [`train`]: `TrainWorkspace` recycling, single-Gram β sweep, and the
//! register-tiled packed microkernel path underneath. Both paths must
//! produce bitwise-identical trained models and selected β — asserted
//! before anything is recorded.
//!
//! Per-path wall-clock is the minimum over `--repeat` runs. For the
//! recorded single-core measurement run with `--threads 1`.

use dfr_bench::{
    apply_threads, json_array, json_f64, json_object, json_str, prepared_dataset, row,
    write_results, Args,
};
use dfr_core::backprop::Gradients;
use dfr_core::optimizer::Sgd;
use dfr_core::readout::FittedReadout;
use dfr_core::trainer::{train, TrainOptions};
use dfr_core::{CoreError, DfrClassifier};
use dfr_data::Dataset;
use dfr_linalg::activation::{
    cross_entropy, cross_entropy_from_logits, softmax, softmax_cross_entropy_grad,
};
use dfr_linalg::{dot, LinalgError, Matrix};
use dfr_reservoir::modular::DIVERGENCE_LIMIT;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

// ---- Frozen pre-PR scalar linalg kernels -------------------------------
//
// These preserve the dense kernels as they were before the register-tiled
// microkernel family, so the legacy column measures the true pre-PR
// implementation end to end. All are bit-identical to today's kernels by
// the §8 contract — the whole-model identity assert below re-proves it on
// every run.

/// Pre-PR matvec: one sequential `dot` chain per row.
fn legacy_matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..m.rows()).map(|i| dot(m.row(i), v)).collect()
}

/// Pre-PR transposed matvec: `i` ascending with the `vi == 0.0` zero-skip.
fn legacy_t_matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; m.cols()];
    for (i, &vi) in v.iter().enumerate() {
        if vi == 0.0 {
            continue;
        }
        for (o, &x) in out.iter_mut().zip(m.row(i)) {
            *o += vi * x;
        }
    }
    out
}

/// Pre-PR mask application: row-by-row `dot` against each mask row.
fn legacy_mask_apply(mask: &Matrix, series: &Matrix) -> Matrix {
    let (t, nx) = (series.rows(), mask.rows());
    let mut out = Matrix::zeros(t, nx);
    for k in 0..t {
        let u = series.row(k);
        for n in 0..nx {
            out[(k, n)] = dot(mask.row(n), u);
        }
    }
    out
}

/// Pre-PR `gram` kernel: lower-triangle `dot` per element, mirrored.
fn legacy_gram(x: &Matrix) -> Matrix {
    let n = x.rows();
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = dot(x.row(i), x.row(j));
            out[(i, j)] = v;
            out[(j, i)] = v;
        }
    }
    out
}

/// Pre-PR `gram_t` kernel: sample rows outer, `xi == 0.0` zero-skip.
fn legacy_gram_t(x: &Matrix) -> Matrix {
    let p = x.cols();
    let mut out = Matrix::zeros(p, p);
    for k in 0..x.rows() {
        let xrow = x.row(k);
        for (i, orow) in out.as_mut_slice().chunks_mut(p).enumerate() {
            let xi = xrow[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &xj) in orow[..=i].iter_mut().zip(xrow) {
                *o += xi * xj;
            }
        }
    }
    for i in 0..p {
        for j in i + 1..p {
            let v = out[(j, i)];
            out[(i, j)] = v;
        }
    }
    out
}

/// Pre-PR `t_matmul` kernel: `k` outer with the `l == 0.0` zero-skip.
fn legacy_t_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (m, n) = (lhs.cols(), rhs.cols());
    let mut out = Matrix::zeros(m, n);
    for k in 0..lhs.rows() {
        let lrow = lhs.row(k);
        let rrow = rhs.row(k);
        for (bi, orow) in out.as_mut_slice().chunks_mut(n).enumerate() {
            let l = lrow[bi];
            if l == 0.0 {
                continue;
            }
            for (o, &r) in orow.iter_mut().zip(rrow) {
                *o += l * r;
            }
        }
    }
    out
}

/// Pre-PR unblocked left-looking Cholesky factor (lower triangle).
fn legacy_cholesky_factor(a: &Matrix) -> Result<Matrix, LinalgError> {
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
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Pre-PR row-wise forward/back substitution against a Cholesky factor.
fn legacy_cholesky_solve(l: &Matrix, b: &Matrix) -> Matrix {
    let n = l.rows();
    let q = b.cols();
    let mut out = b.clone();
    for i in 0..n {
        for k in 0..i {
            let lik = l[(i, k)];
            let (done, rest) = out.as_mut_slice().split_at_mut(i * q);
            let yk = &done[k * q..(k + 1) * q];
            for (yi, &v) in rest[..q].iter_mut().zip(yk) {
                *yi -= lik * v;
            }
        }
        let lii = l[(i, i)];
        for yi in out.row_mut(i) {
            *yi /= lii;
        }
    }
    for i in (0..n).rev() {
        for k in i + 1..n {
            let lki = l[(k, i)];
            let (head, tail) = out.as_mut_slice().split_at_mut(k * q);
            let xk = &tail[..q];
            for (xi, &v) in head[i * q..(i + 1) * q].iter_mut().zip(xk) {
                *xi -= lki * v;
            }
        }
        let lii = l[(i, i)];
        for xi in out.row_mut(i) {
            *xi /= lii;
        }
    }
    out
}

/// Pre-PR intercept ridge fit on the frozen scalar kernels: augment with a
/// constant-1 feature, build the Gram for the shape-chosen formulation,
/// factor, substitute. Returns `(W, bias)`.
fn legacy_ridge_fit_intercept(
    x: &Matrix,
    y: &Matrix,
    beta: f64,
) -> Result<(Matrix, Vec<f64>), LinalgError> {
    let n = x.rows();
    let p = x.cols();
    let mut aug = Matrix::zeros(n, p + 1);
    for i in 0..n {
        let row = aug.row_mut(i);
        row[..p].copy_from_slice(x.row(i));
        row[p] = 1.0;
    }
    let use_primal = aug.cols() <= aug.rows();
    let w_aug = if use_primal {
        let mut sys = legacy_gram_t(&aug);
        for i in 0..sys.rows() {
            sys[(i, i)] += beta;
        }
        let l = legacy_cholesky_factor(&sys)?;
        legacy_cholesky_solve(&l, &legacy_t_matmul(&aug, y))
    } else {
        let mut sys = legacy_gram(&aug);
        for i in 0..sys.rows() {
            sys[(i, i)] += beta;
        }
        let l = legacy_cholesky_factor(&sys)?;
        let alpha = legacy_cholesky_solve(&l, y);
        legacy_t_matmul(&aug, &alpha)
    };
    let q = w_aug.cols();
    let mut w = Matrix::zeros(p, q);
    for i in 0..p {
        w.row_mut(i).copy_from_slice(w_aug.row(i));
    }
    Ok((w, w_aug.row(p).to_vec()))
}

/// Pre-PR mean cross-entropy: per-sample `dot`-matvec plus bias.
fn legacy_mean_cross_entropy(
    features: &Matrix,
    w_out: &Matrix,
    bias: &[f64],
    targets: &Matrix,
) -> f64 {
    let n = features.rows();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        let mut logits = legacy_matvec(w_out, features.row(i));
        for (l, b) in logits.iter_mut().zip(bias) {
            *l += b;
        }
        total += cross_entropy_from_logits(&logits, targets.row(i));
    }
    total / n as f64
}

/// Pre-PR reservoir recurrence: index-addressed element access, state
/// matrix allocated per call. Returns `None` on divergence.
fn legacy_drive(a: f64, b: f64, masked: &Matrix) -> Option<Matrix> {
    let t_len = masked.rows();
    let nx = masked.cols();
    let mut states = Matrix::zeros(t_len, nx);
    let mut prev_chain = 0.0;
    for k in 0..t_len {
        for n in 0..nx {
            let delayed = if k == 0 { 0.0 } else { states[(k - 1, n)] };
            let z = masked[(k, n)] + delayed;
            // The paper's evaluation setting is linear f, so f(z) = z.
            let s = a * z + b * prev_chain;
            if !s.is_finite() || s.abs() > DIVERGENCE_LIMIT {
                return None;
            }
            states[(k, n)] = s;
            prev_chain = s;
        }
    }
    Some(states)
}

/// Pre-PR DPRR kernel: one rank-1 accumulator sweep per timestep (the
/// current kernel is one packed GEMM over two shifted state windows).
fn legacy_dprr(states: &Matrix) -> Vec<f64> {
    let nx = states.cols();
    let t_len = states.rows();
    let mut out = vec![0.0; nx * (nx + 1)];
    let (products, sums) = out.split_at_mut(nx * nx);
    for k in 0..t_len {
        let x_k = states.row(k);
        for (s, &xi) in sums.iter_mut().zip(x_k) {
            *s += xi;
        }
        if k == 0 {
            continue;
        }
        let x_prev = states.row(k - 1);
        for (i, &xi) in x_k.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = &mut products[i * nx..(i + 1) * nx];
            for (r, &xj) in row.iter_mut().zip(x_prev) {
                *r += xi * xj;
            }
        }
    }
    out
}

/// Pre-PR forward tail: allocating DPRR features, logits, probabilities.
fn legacy_forward(
    model: &DfrClassifier,
    states: &Matrix,
) -> Result<(Vec<f64>, Vec<f64>), CoreError> {
    let mut features = legacy_dprr(states);
    let scale = 1.0 / (states.rows().max(1) as f64);
    for f in &mut features {
        *f *= scale;
    }
    let mut logits = legacy_matvec(model.w_out(), &features);
    for (l, b) in logits.iter_mut().zip(model.bias()) {
        *l += b;
    }
    let probs = softmax(&logits);
    Ok((features, probs))
}

/// Pre-PR truncated backward pass (window = 1), transcribed from the old
/// `backprop`: every intermediate freshly allocated, index-addressed state
/// reads. Returns `(loss, gradients)`.
fn legacy_backprop(
    model: &DfrClassifier,
    masked: &Matrix,
    states: &Matrix,
    features: &[f64],
    probs: &[f64],
    target: &[f64],
) -> Result<(f64, Gradients), CoreError> {
    let loss = cross_entropy(probs, target);
    let nx = model.nodes();
    let t_len = states.rows();
    let g = softmax_cross_entropy_grad(probs, target);
    // The output layer's gradients take the one form `Sgd::step` accepts:
    // ∂L/∂b = g and the rank-1 ∂L/∂W = g·rᵀ as its factors.
    let mut grads = Gradients::default();
    grads.set_output_layer(&g, features);
    let mut dr = legacy_t_matvec(model.w_out(), &g);
    let scale = 1.0 / (t_len.max(1) as f64);
    for d in &mut dr {
        *d *= scale;
    }
    if t_len == 0 {
        return Ok((loss, grads));
    }
    let dr_products = Matrix::from_vec(nx, nx, dr[..nx * nx].to_vec())?;
    let dr_sums = &dr[nx * nx..];
    let window = 1usize; // the paper's truncation
    let k_start = t_len - window;
    let a = model.reservoir().a();
    let b = model.reservoir().b();
    let mut bpv = Matrix::zeros(window, nx);
    for k in k_start..t_len {
        let row = k - k_start;
        if k > 0 {
            let term1 = legacy_matvec(&dr_products, states.row(k - 1));
            bpv.row_mut(row).copy_from_slice(&term1);
        }
        if k + 1 < t_len {
            let term2 = legacy_t_matvec(&dr_products, states.row(k + 1));
            for (o, t2) in bpv.row_mut(row).iter_mut().zip(term2) {
                *o += t2;
            }
        }
        for (o, &s) in bpv.row_mut(row).iter_mut().zip(dr_sums) {
            *o += s;
        }
    }
    let mut ds = Matrix::zeros(window, nx);
    let mut a_grad = 0.0;
    let mut b_grad = 0.0;
    for k in (k_start..t_len).rev() {
        let row = k - k_start;
        for n in (0..nx).rev() {
            let mut d = bpv[(row, n)];
            if n + 1 < nx {
                d += b * ds[(row, n + 1)];
            } else if k + 1 < t_len {
                d += b * ds[(row + 1, 0)];
            }
            if k + 1 < t_len {
                let delayed = states[(k, n)];
                let z_next = masked[(k + 1, n)] + delayed;
                // linear f: f'(z) = 1
                let _ = z_next;
                d += a * ds[(row + 1, n)];
            }
            ds[(row, n)] = d;
            let delayed = if k == 0 { 0.0 } else { states[(k - 1, n)] };
            let z = masked[(k, n)] + delayed;
            a_grad += z * d; // linear f: f(z) = z
            let chain_prev = if n > 0 {
                states[(k, n - 1)]
            } else if k > 0 {
                states[(k - 1, nx - 1)]
            } else {
                0.0
            };
            b_grad += chain_prev * d;
        }
    }
    grads.a = a_grad;
    grads.b = b_grad;
    Ok((loss, grads))
}

/// The pre-PR training loop, preserved verbatim for measurement.
fn legacy_train(ds: &Dataset, options: &TrainOptions) -> Result<(DfrClassifier, f64), CoreError> {
    let mut model = DfrClassifier::paper_default(
        options.nodes,
        ds.channels(),
        ds.num_classes(),
        options.mask_seed,
    )?;
    model
        .reservoir_mut()
        .set_params(options.init.0, options.init.1)?;
    let masked: Vec<Matrix> = ds
        .train()
        .iter()
        .map(|s| legacy_mask_apply(model.reservoir().mask().matrix(), &s.series))
        .collect();
    let targets = ds.one_hot_train();
    let mut sgd = Sgd::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(options.shuffle_seed);
    let mut order: Vec<usize> = (0..ds.train().len()).collect();
    for epoch in 0..options.epochs {
        let lr_res = options.reservoir_schedule.lr(epoch);
        let lr_out = options.output_schedule.lr(epoch);
        order.shuffle(&mut rng);
        for &i in &order {
            // Pre-PR shape: clone the cached drive, allocate fresh state
            // and cache matrices per sample.
            let cloned = masked[i].clone();
            let Some(states) = legacy_drive(model.reservoir().a(), model.reservoir().b(), &cloned)
            else {
                recover(&mut model, options)?;
                continue;
            };
            let (features, probs) = legacy_forward(&model, &states)?;
            let (_, mut grads) =
                legacy_backprop(&model, &cloned, &states, &features, &probs, targets.row(i))?;
            if !grads.is_finite() {
                recover(&mut model, options)?;
                continue;
            }
            if let Some(clip) = options.grad_clip {
                let m = grads.max_abs();
                if m > clip {
                    grads.scale(clip / m);
                }
            }
            // The pre-PR optimizer cloned the gradient buffers internally.
            let grads = grads.clone();
            sgd.step(&mut model, &grads, lr_res, lr_out, &options.bounds)?;
        }
    }
    // Pre-PR feature assembly: per-sample masked/state/row allocations,
    // rows appended one by one.
    let mut features = Matrix::zeros(0, 0);
    for s in ds.train() {
        let masked = legacy_mask_apply(model.reservoir().mask().matrix(), &s.series);
        let states = legacy_drive(model.reservoir().a(), model.reservoir().b(), &masked).ok_or(
            CoreError::NumericalFailure {
                context: "legacy ridge features",
            },
        )?;
        let mut row = legacy_dprr(&states);
        let scale = 1.0 / (states.rows().max(1) as f64);
        for f in &mut row {
            *f *= scale;
        }
        features.push_row(&row)?;
    }
    // Pre-PR readout sweep: one full ridge fit per β candidate.
    let mut best: Option<FittedReadout> = None;
    for &beta in &options.betas {
        let Ok((w, bias)) = legacy_ridge_fit_intercept(&features, &targets, beta) else {
            continue;
        };
        let w_out = w.transpose();
        let train_loss = legacy_mean_cross_entropy(&features, &w_out, &bias, &targets);
        if !train_loss.is_finite() {
            continue;
        }
        if best
            .as_ref()
            .map_or(true, |b: &FittedReadout| train_loss < b.train_loss)
        {
            best = Some(FittedReadout {
                w_out,
                bias,
                beta,
                train_loss,
            });
        }
    }
    let fit = best.ok_or(CoreError::NumericalFailure {
        context: "legacy ridge readout",
    })?;
    let beta = fit.beta;
    model.set_readout(fit.w_out, fit.bias)?;
    Ok((model, beta))
}

fn recover(model: &mut DfrClassifier, options: &TrainOptions) -> Result<(), CoreError> {
    let (a, b) = (model.reservoir().a(), model.reservoir().b());
    let (ia, ib) = options.init;
    model
        .reservoir_mut()
        .set_params(0.5 * (a + ia), 0.5 * (b + ib))?;
    Ok(())
}

fn main() {
    let args = Args::from_env();
    let scale = args.get_f64("scale", 1.0);
    let seed = args.get_usize("seed", 0) as u64;
    let epochs = args.get_usize("epochs", 25);
    let repeat = args.get_usize("repeat", 2).max(1);
    let datasets = args.datasets();
    let threads = apply_threads(&args);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let options = TrainOptions {
        epochs,
        ..TrainOptions::calibrated()
    };

    let widths = [7, 11, 13, 9, 6];
    println!("Hot-path wall-clock: legacy (allocating) vs workspace training ({threads} threads)");
    println!(
        "{}",
        row(
            &[
                "dataset".into(),
                "legacy(s)".into(),
                "workspace(s)".into(),
                "speedup".into(),
                "ident".into(),
            ],
            &widths,
        )
    );

    let mut json_rows = Vec::new();
    let mut csv = String::from("dataset,epochs,legacy_s,workspace_s,speedup,identical,threads\n");
    for which in datasets {
        let ds = prepared_dataset(which, seed, scale);
        let mut legacy_s = f64::INFINITY;
        let mut workspace_s = f64::INFINITY;
        let mut legacy_model = None;
        let mut report = None;
        for _ in 0..repeat {
            let t0 = Instant::now();
            let r = train(&ds, &options).expect("workspace training failed");
            workspace_s = workspace_s.min(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let l = legacy_train(&ds, &options).expect("legacy training failed");
            legacy_s = legacy_s.min(t1.elapsed().as_secs_f64());
            legacy_model = Some(l);
            report = Some(r);
        }
        let (legacy_model, legacy_beta) = legacy_model.expect("repeat >= 1");
        let report = report.expect("repeat >= 1");
        // §8 contract: the refactored loop is a pure perf change.
        let identical = legacy_model == report.model && legacy_beta == report.beta;
        assert!(
            identical,
            "{}: legacy and workspace paths diverged (beta {} vs {})",
            which.code(),
            legacy_beta,
            report.beta
        );
        let speedup = legacy_s / workspace_s.max(1e-12);
        println!(
            "{}",
            row(
                &[
                    which.code().into(),
                    format!("{legacy_s:.3}"),
                    format!("{workspace_s:.3}"),
                    format!("{speedup:.2}x"),
                    "yes".into(),
                ],
                &widths,
            )
        );
        csv.push_str(&format!(
            "{},{},{:.4},{:.4},{:.3},{},{}\n",
            which.code(),
            epochs,
            legacy_s,
            workspace_s,
            speedup,
            identical,
            threads
        ));
        json_rows.push(json_object(&[
            ("dataset", json_str(which.code())),
            ("epochs", epochs.to_string()),
            ("legacy_s", json_f64(legacy_s)),
            ("workspace_s", json_f64(workspace_s)),
            ("speedup", json_f64(speedup)),
            ("identical", identical.to_string()),
            ("repeat", repeat.to_string()),
            ("threads", threads.to_string()),
            ("available_cores", cores.to_string()),
            (
                "methodology",
                json_str(
                    "legacy = pre-PR implementation frozen in this binary (indexed \
                     recurrence, one-step DPRR sweeps, per-sample allocations/clones, \
                     per-beta Gram, scalar dense kernels: dot matvec/mask-apply, \
                     zero-skip i-k-j products, unblocked Cholesky); workspace = train() \
                     with TrainWorkspace + RidgePlan + packed GEMM microkernels; \
                     min wall-clock over `repeat` runs; bitwise model identity asserted",
                ),
            ),
        ]));
    }
    let path = write_results("BENCH_hotpath.csv", &csv);
    let json_path = write_results("BENCH_hotpath.json", &json_array(&json_rows));
    println!("\nwrote {} and {}", path.display(), json_path.display());
}
