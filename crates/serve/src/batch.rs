//! Batch scheduling and the zero-allocation predict path.

use crate::frozen::FrozenModel;
use crate::ServeError;
use dfr_linalg::activation::{dense_bias_softmax_into, dense_bias_softmax_rows_into};
use dfr_linalg::stats::argmax;
use dfr_linalg::{GemmWorkspace, Matrix};
use dfr_reservoir::modular::run_frozen_into;
use dfr_reservoir::nonlinearity::Linear;
use dfr_reservoir::representation::Dprr;
use dfr_reservoir::ReservoirError;
use std::ops::Range;

/// Below this many rows the batch readout takes the per-sample matvec
/// epilogue instead of the GEMM one: packing the readout weight panels
/// costs `N_y · N_r` element moves per call, which only pays once a batch
/// has at least a GEMM tile's worth of rows to spread it over. Both
/// epilogues are pinned bitwise equal to the naive k-ascending dot, so the
/// switch is invisible in the results.
const GEMM_EPILOGUE_MIN_ROWS: usize = 8;

/// Groups incoming samples into bounded, GEMM-friendly batches.
///
/// A batch is a contiguous index range of at most
/// [`max_batch`](BatchPlan::max_batch) samples: the feature matrix, logits
/// and probabilities of one batch are materialised at once (so the readout
/// runs as a single GEMM over the whole batch), while memory stays bounded
/// by the batch size however many requests one call carries. The default of
/// 64 is a multiple of both GEMM tile edges (`MR = 4` rows, `NR = 8`
/// columns) and deep enough to amortise packing the readout weights.
///
/// The grouping is a pure function of `(n, max_batch)` — scheduling never
/// depends on thread count or timing, which keeps batched results
/// reproducible.
///
/// # Example
///
/// ```
/// use dfr_serve::BatchPlan;
///
/// let plan = BatchPlan::new(4);
/// let groups: Vec<_> = plan.batches(10).collect();
/// assert_eq!(groups, vec![0..4, 4..8, 8..10]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    max_batch: usize,
}

impl BatchPlan {
    /// A plan with the given maximum batch size (clamped to at least 1).
    pub fn new(max_batch: usize) -> Self {
        BatchPlan {
            max_batch: max_batch.max(1),
        }
    }

    /// The largest number of samples materialised at once.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The contiguous sample ranges a call with `n` samples is split into.
    pub fn batches(&self, n: usize) -> Batches {
        Batches {
            next: 0,
            n,
            max_batch: self.max_batch,
        }
    }
}

impl Default for BatchPlan {
    fn default() -> Self {
        BatchPlan::new(64)
    }
}

/// Iterator over the batch ranges of a [`BatchPlan`] (allocation-free).
#[derive(Debug, Clone)]
pub struct Batches {
    next: usize,
    n: usize,
    max_batch: usize,
}

impl Iterator for Batches {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.next >= self.n {
            return None;
        }
        let start = self.next;
        let end = (start + self.max_batch).min(self.n);
        self.next = end;
        Some(start..end)
    }
}

/// One worker's scratch for the per-sample half of serving: normalization
/// and mask buffers, reservoir states, and the small per-sample feature /
/// logit / probability vectors ([`FrozenModel::predict_one`] uses those;
/// the batch path writes features straight into the batch matrix).
///
/// Grows to the workload's high-water mark on first use and is recycled
/// afterwards — the workspace-buffer convention of `DESIGN.md` §9.
#[derive(Debug, Clone, Default)]
pub struct ServeWorkspace {
    /// GEMM packing panels for the mask product.
    gemm: GemmWorkspace,
    /// `(x − mean) / std` transformed input (used only with normalization).
    normalized: Matrix,
    /// Masked drive `T × N_x`.
    masked: Matrix,
    /// Reservoir state history `T × N_x`.
    states: Matrix,
    /// Per-sample DPRR features (length `N_r`).
    features: Vec<f64>,
    /// Per-sample readout pre-activations (length `N_y`).
    logits: Vec<f64>,
    /// Per-sample class probabilities (length `N_y`).
    probs: Vec<f64>,
}

impl ServeWorkspace {
    /// Empty workspace; every buffer is sized lazily on first use.
    pub fn new() -> Self {
        ServeWorkspace::default()
    }

    /// Class probabilities of the last successful
    /// [`FrozenModel::predict_one`] call.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

/// Everything one serving loop owns across [`predict_batch_into`] calls:
/// per-worker workspaces, the batch feature/logit/probability matrices,
/// band bookkeeping and the output buffers. After the first call at the
/// workload's high-water mark (longest series, largest batch), subsequent
/// calls allocate **nothing** — pinned by the `count-allocs` regression
/// test in `dfr-bench`.
///
/// [`predict_batch_into`]: FrozenModel::predict_batch_into
#[derive(Debug, Clone, Default)]
pub struct ServeState {
    /// One persistent workspace per fan-out band.
    workers: Vec<ServeWorkspace>,
    /// Per-band slice lengths (elements) of the current batch split.
    part_lens: Vec<usize>,
    /// Per-band starting row of the current batch split.
    row_offsets: Vec<usize>,
    /// Feature rows of the current batch (`batch × N_r`).
    features: Matrix,
    /// Readout pre-activations of the current batch (`batch × N_y`).
    batch_logits: Matrix,
    /// Probabilities of the current batch (`batch × N_y`).
    batch_probs: Matrix,
    /// GEMM packing panels for the batched readout.
    gemm: GemmWorkspace,
    /// Probabilities of every sample of the call (`n × N_y`).
    probs: Matrix,
    /// Predicted class per sample of the call.
    predictions: Vec<usize>,
}

impl ServeState {
    /// Empty state; every buffer is sized lazily on first use.
    pub fn new() -> Self {
        ServeState::default()
    }

    /// Predicted classes of the last successful batch call, in input order.
    pub fn predictions(&self) -> &[usize] {
        &self.predictions
    }

    /// Class probabilities of the last successful batch call (`n × N_y`,
    /// one row per sample, **in input order**).
    ///
    /// The ordering is independent of the batch plan: each group epilogue
    /// writes *group-local* rows (`batch_probs`), and the copy-out loop
    /// maps group-local row `r` to global row `range.start + r` — so
    /// ragged final groups, and small groups taking the per-sample matvec
    /// epilogue instead of the GEMM one, land in exactly the same rows.
    /// Pinned by the `ragged_final_groups_keep_input_order` property test.
    pub fn probabilities(&self) -> &Matrix {
        &self.probs
    }
}

impl FrozenModel {
    /// Predicts a whole batch of series, in input order (crate-internal:
    /// the public surface is [`ServeSession`](crate::ServeSession), which
    /// owns the `state` this form threads explicitly).
    ///
    /// The per-sample half (normalize → mask product → frozen reservoir
    /// recurrence → DPRR features) fans out over [`dfr_pool`] in contiguous
    /// bands with one persistent [`ServeWorkspace`] per band; the readout
    /// half runs once per [`BatchPlan`] group as a single GEMM +
    /// bias + softmax epilogue. Every row's arithmetic is the training-side
    /// per-sample kernel sequence, so predictions **and probabilities** are
    /// bitwise identical to calling
    /// [`DfrClassifier::predict`](dfr_core::DfrClassifier::predict) per
    /// sample — at every thread count and every batch size (`DESIGN.md`
    /// §11).
    ///
    /// Results land in `state` ([`ServeState::predictions`],
    /// [`ServeState::probabilities`]); on error their contents are
    /// unspecified. Allocation-free once `state` is warm.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sample`] carrying the **lowest** failing sample index
    /// (channel mismatch or reservoir divergence), independent of thread
    /// scheduling.
    pub(crate) fn predict_batch_into(
        &self,
        series: &[Matrix],
        plan: &BatchPlan,
        state: &mut ServeState,
    ) -> Result<(), ServeError> {
        let n = series.len();
        let ny = self.num_classes();
        let nr = self.feature_dim();
        state.predictions.resize(n, 0);
        state.probs.resize(n, ny);
        if n == 0 {
            return Ok(());
        }
        // Band count for the per-sample fan-out. Fixed before the loop so
        // every batch of the call uses the same split; results do not
        // depend on it (each row is computed independently).
        let width = dfr_pool::max_threads();
        for range in plan.batches(n) {
            let bn = range.len();
            state.features.resize(bn, nr);
            dfr_pool::band_lens_into(bn, width, &mut state.part_lens);
            state.row_offsets.clear();
            let mut acc = 0;
            for l in state.part_lens.iter_mut() {
                state.row_offsets.push(acc);
                acc += *l;
                *l *= nr;
            }
            if state.workers.len() < state.part_lens.len() {
                state
                    .workers
                    .resize_with(state.part_lens.len(), ServeWorkspace::new);
            }
            {
                let ServeState {
                    workers,
                    part_lens,
                    row_offsets,
                    features,
                    ..
                } = &mut *state;
                let row_offsets: &[usize] = row_offsets;
                dfr_pool::par_try_parts_zip_mut(
                    features.as_mut_slice(),
                    part_lens,
                    workers,
                    |pi, band, ws| -> Result<(), ServeError> {
                        let ServeWorkspace {
                            gemm,
                            normalized,
                            masked,
                            states,
                            ..
                        } = ws;
                        let base = range.start + row_offsets[pi];
                        for (r, row) in band.chunks_exact_mut(nr).enumerate() {
                            let index = base + r;
                            self.sample_features(
                                &series[index],
                                gemm,
                                normalized,
                                masked,
                                states,
                                row,
                            )
                            .map_err(|source| ServeError::Sample { index, source })?;
                        }
                        Ok(())
                    },
                )?;
            }
            let ServeState {
                features,
                batch_logits,
                batch_probs,
                gemm,
                probs,
                predictions,
                ..
            } = &mut *state;
            if bn < GEMM_EPILOGUE_MIN_ROWS {
                // Tiny batch: the GEMM epilogue would re-pack the readout
                // weights for a handful of rows; the per-sample lockstep
                // matvec epilogue is cheaper and — both being pinned
                // bitwise equal to the naive k-ascending dot — produces
                // the identical bits.
                batch_logits.resize(bn, ny);
                batch_probs.resize(bn, ny);
                for r in 0..bn {
                    dense_bias_softmax_into(
                        &self.w_out,
                        features.row(r),
                        &self.bias,
                        batch_logits.row_mut(r),
                        batch_probs.row_mut(r),
                    )?;
                }
            } else {
                dense_bias_softmax_rows_into(
                    &self.w_out,
                    features,
                    &self.bias,
                    batch_logits,
                    batch_probs,
                    gemm,
                )?;
            }
            for (r, i) in range.enumerate() {
                let row = batch_probs.row(r);
                probs.row_mut(i).copy_from_slice(row);
                predictions[i] = argmax(row).expect("at least one class");
            }
        }
        Ok(())
    }

    /// One-shot convenience: predicts `series` with a fresh default-plan
    /// session and returns the classes. Serving loops should hold a
    /// [`ServeSession`](crate::ServeSession) instead, which keeps its
    /// workspaces warm across calls.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sample`] carrying the lowest failing sample index.
    pub fn predict_batch(&self, series: &[Matrix]) -> Result<Vec<usize>, ServeError> {
        let mut state = ServeState::new();
        self.predict_batch_into(series, &BatchPlan::default(), &mut state)?;
        Ok(state.predictions)
    }

    /// Predicts a single series against a caller-owned workspace — the
    /// per-sample serving form backing
    /// [`ServeSession::predict_one`](crate::ServeSession::predict_one),
    /// bitwise identical to both the batch path and the training-side
    /// [`DfrClassifier::predict`](dfr_core::DfrClassifier::predict).
    /// Probabilities stay readable via [`ServeWorkspace::probs`].
    /// Allocation-free once `ws` is warm.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sample`] (index 0) on channel mismatch or reservoir
    /// divergence.
    pub(crate) fn predict_one(
        &self,
        series: &Matrix,
        ws: &mut ServeWorkspace,
    ) -> Result<usize, ServeError> {
        let nr = self.feature_dim();
        let ny = self.num_classes();
        ws.features.resize(nr, 0.0);
        ws.logits.resize(ny, 0.0);
        ws.probs.resize(ny, 0.0);
        let ServeWorkspace {
            gemm,
            normalized,
            masked,
            states,
            features,
            logits,
            probs,
        } = ws;
        self.sample_features(series, gemm, normalized, masked, states, features)
            .map_err(|source| ServeError::Sample { index: 0, source })?;
        dense_bias_softmax_into(&self.w_out, features, &self.bias, logits, probs)?;
        Ok(argmax(probs).expect("at least one class"))
    }

    /// The shared per-sample kernel sequence: optional normalization, mask
    /// product (GEMM), frozen reservoir recurrence, and the DPRR feature
    /// tail every forward path shares ([`Dprr::normalized_into`]). Writes
    /// the `N_r` features into `out`.
    fn sample_features(
        &self,
        series: &Matrix,
        gemm: &mut GemmWorkspace,
        normalized: &mut Matrix,
        masked: &mut Matrix,
        states: &mut Matrix,
        out: &mut [f64],
    ) -> Result<(), ReservoirError> {
        if series.cols() != self.channels() {
            return Err(ReservoirError::ChannelMismatch {
                mask_channels: self.channels(),
                input_channels: series.cols(),
            });
        }
        let input = match &self.norm {
            Some((means, stds)) => {
                normalized.resize(series.rows(), series.cols());
                for i in 0..series.rows() {
                    for (c, dst) in normalized.row_mut(i).iter_mut().enumerate() {
                        // Same expression as the training-side
                        // Standardizer, so raw traffic matches training on
                        // pre-standardized data bitwise.
                        *dst = (series[(i, c)] - means[c]) / stds[c];
                    }
                }
                &*normalized
            }
            None => series,
        };
        input
            .matmul_t_into(&self.mask, masked, gemm)
            .expect("channel count checked above");
        run_frozen_into(self.a, self.b, &Linear, masked, states)?;
        // Rejects a 0-row series with `EmptySeries`, like every other
        // forward path (the network framing layer already refuses to
        // decode one, so in-process callers are the audience here).
        Dprr.normalized_into(states, out, gemm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_core::DfrClassifier;

    fn frozen() -> (DfrClassifier, FrozenModel) {
        let mut m = DfrClassifier::paper_default(6, 2, 3, 2).unwrap();
        m.reservoir_mut().set_params(0.08, 0.15).unwrap();
        for j in 0..m.feature_dim() {
            m.w_out_mut()[(j % 3, j)] = 0.03 * ((j % 13) as f64 - 6.0);
        }
        m.bias_mut().copy_from_slice(&[0.1, -0.2, 0.05]);
        let f = FrozenModel::freeze(&m);
        (m, f)
    }

    fn workload(n: usize) -> Vec<Matrix> {
        (0..n)
            .map(|i| {
                let t = 3 + (i * 7) % 20; // ragged lengths
                Matrix::from_vec(
                    t,
                    2,
                    (0..t * 2).map(|k| ((k + i) as f64 * 0.37).sin()).collect(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn plan_covers_input_in_order() {
        let plan = BatchPlan::new(8);
        assert_eq!(plan.max_batch(), 8);
        let groups: Vec<_> = plan.batches(17).collect();
        assert_eq!(groups, vec![0..8, 8..16, 16..17]);
        assert_eq!(plan.batches(0).count(), 0);
        assert_eq!(BatchPlan::new(0).max_batch(), 1); // clamped
        assert_eq!(BatchPlan::default().max_batch(), 64);
    }

    #[test]
    fn batch_matches_per_sample_predict_bitwise() {
        let (model, frozen) = frozen();
        let series = workload(11);
        let mut state = ServeState::new();
        for max_batch in [1usize, 3, 64] {
            frozen
                .predict_batch_into(&series, &BatchPlan::new(max_batch), &mut state)
                .unwrap();
            for (i, s) in series.iter().enumerate() {
                let cache = model.forward(s).unwrap();
                assert_eq!(
                    state.predictions()[i],
                    cache.prediction(),
                    "max_batch={max_batch} sample {i}"
                );
                for (j, p) in cache.probs.iter().enumerate() {
                    assert_eq!(
                        state.probabilities()[(i, j)].to_bits(),
                        p.to_bits(),
                        "max_batch={max_batch} sample {i} class {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_one_matches_batch() {
        let (_, frozen) = frozen();
        let series = workload(5);
        let preds = frozen.predict_batch(&series).unwrap();
        let mut ws = ServeWorkspace::new();
        for (i, s) in series.iter().enumerate() {
            assert_eq!(frozen.predict_one(s, &mut ws).unwrap(), preds[i]);
            assert_eq!(ws.probs().len(), 3);
        }
    }

    #[test]
    fn empty_batch_is_ok() {
        let (_, frozen) = frozen();
        let mut state = ServeState::new();
        frozen
            .predict_batch_into(&[], &BatchPlan::default(), &mut state)
            .unwrap();
        assert!(state.predictions().is_empty());
    }

    #[test]
    fn lowest_failing_sample_is_reported() {
        let (_, frozen) = frozen();
        let mut series = workload(9);
        // Channel mismatch at two indices — the lowest must win at any
        // thread count.
        series[7] = Matrix::zeros(4, 3);
        series[4] = Matrix::zeros(4, 3);
        for threads in [1usize, 2, 8] {
            let err =
                dfr_pool::with_threads(threads, || frozen.predict_batch(&series).unwrap_err());
            match err {
                ServeError::Sample { index, source } => {
                    assert_eq!(index, 4, "threads={threads}");
                    assert!(matches!(source, ReservoirError::ChannelMismatch { .. }));
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn empty_series_sample_is_typed_rejection() {
        // t_len = 0 is a client bug, not a bias-only prediction; t_len = 1
        // is the boundary that must keep serving.
        let (model, frozen) = frozen();
        let mut ws = ServeWorkspace::new();
        let err = frozen
            .predict_one(&Matrix::zeros(0, 2), &mut ws)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Sample {
                    index: 0,
                    source: ReservoirError::EmptySeries
                }
            ),
            "{err:?}"
        );
        let mut series = workload(6);
        series[3] = Matrix::zeros(0, 2);
        let err = frozen.predict_batch(&series).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Sample {
                index: 3,
                source: ReservoirError::EmptySeries
            }
        ));
        let one_step = Matrix::from_vec(1, 2, vec![0.4, -0.3]).unwrap();
        let pred = frozen.predict_one(&one_step, &mut ws).unwrap();
        assert_eq!(pred, model.forward(&one_step).unwrap().prediction());
    }

    #[test]
    fn normalization_matches_manual_standardization() {
        let (model, frozen) = frozen();
        let means = vec![0.2, -0.1];
        let stds = vec![1.3, 0.8];
        let serving = frozen
            .with_normalization(means.clone(), stds.clone())
            .unwrap();
        let raw = workload(6);
        let standardized: Vec<Matrix> = raw
            .iter()
            .map(|s| {
                let mut m = s.clone();
                for i in 0..m.rows() {
                    for c in 0..m.cols() {
                        m[(i, c)] = (m[(i, c)] - means[c]) / stds[c];
                    }
                }
                m
            })
            .collect();
        let mut state = ServeState::new();
        serving
            .predict_batch_into(&raw, &BatchPlan::default(), &mut state)
            .unwrap();
        for (i, s) in standardized.iter().enumerate() {
            let cache = model.forward(s).unwrap();
            assert_eq!(state.predictions()[i], cache.prediction(), "sample {i}");
            for (j, p) in cache.probs.iter().enumerate() {
                assert_eq!(state.probabilities()[(i, j)].to_bits(), p.to_bits());
            }
        }
    }

    #[test]
    fn state_reuse_across_shrinking_calls_is_exact() {
        let (model, frozen) = frozen();
        let series = workload(20);
        let mut state = ServeState::new();
        let plan = BatchPlan::new(7);
        // Warm on the full workload, then serve shrinking prefixes out of
        // the same (now stale-oversized) state.
        frozen
            .predict_batch_into(&series, &plan, &mut state)
            .unwrap();
        for n in [13usize, 1, 20] {
            frozen
                .predict_batch_into(&series[..n], &plan, &mut state)
                .unwrap();
            assert_eq!(state.predictions().len(), n);
            for (i, s) in series[..n].iter().enumerate() {
                assert_eq!(
                    state.predictions()[i],
                    model.predict(s).unwrap(),
                    "n={n} i={i}"
                );
            }
        }
    }
}
