//! `train_bp`: the paper's "bp" column — `trainer::train` with
//! `TrainOptions::calibrated()`, serially, on the ARAB, AUS and NET
//! stand-ins.
//!
//! The traced run replays `train()`'s loop through the crates' public
//! functions (`Mask::apply`, `forward_masked_into`, `backprop_into`,
//! `Sgd::step`, `features_for`, `fit_readout_with`) with a span around
//! each call, and checks that the replay freezes to the same digest.

use crate::stats::{mean, median, mix};
use crate::trace::{self, Trace};
use crate::{Config, Outcome};
use dfr_core::backprop::{backprop_into, BackpropOptions};
use dfr_core::optimizer::Sgd;
use dfr_core::readout::fit_readout_with;
use dfr_core::trainer::{evaluate, features_for, train, TrainOptions};
use dfr_core::{CoreError, DfrClassifier, TrainWorkspace};
use dfr_data::{normalize, paper_dataset_with, Dataset, DatasetSpec, PaperDataset};
use dfr_serve::FrozenModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const SUITE: [(PaperDataset, &str); 3] = [
    (PaperDataset::Arab, "ARAB"),
    (PaperDataset::Aus, "AUS"),
    (PaperDataset::Net, "NET"),
];

/// The quickstart model trained at its fixed seeds freezes to this digest
/// (the repository's golden model) with this test accuracy.
const CANARY_DIGEST: u64 = 0x2120_8443_4f6f_1347;
const CANARY_TEST_ACC: f64 = 1.0;

pub struct Inputs {
    datasets: Vec<Dataset>,
}

pub fn setup(cfg: &Config) -> Result<Inputs, String> {
    let datasets = SUITE
        .iter()
        .enumerate()
        .map(|(k, &(which, _))| {
            let mut ds = paper_dataset_with(which, mix(cfg.seed, 1 + k as u64));
            normalize::standardize(&mut ds);
            ds
        })
        .collect();
    Ok(Inputs { datasets })
}

fn digest(model: &DfrClassifier) -> u64 {
    FrozenModel::freeze(model).content_digest()
}

/// The quickstart pipeline of the golden test: its digest and test
/// accuracy must equal the values the repository pins.
pub fn canary() -> Result<(u64, f64), CoreError> {
    let mut ds = DatasetSpec::new("quickstart", 3, 60, 2, 60, 60, 0.6).build(0);
    let st = normalize::standardize(&mut ds);
    let report = train(&ds, &TrainOptions::calibrated())?;
    let frozen = FrozenModel::freeze(&report.model)
        .with_normalization(st.means().to_vec(), st.stds().to_vec())
        .expect("channel counts match");
    Ok((frozen.content_digest(), report.test_accuracy))
}

/// Whether a canary result equals the repository's pinned golden values.
fn matches_golden(digest: u64, test_accuracy: f64) -> bool {
    digest == CANARY_DIGEST && test_accuracy.to_bits() == CANARY_TEST_ACC.to_bits()
}

/// What one replayed `train()` produced.
struct Replay {
    digest: u64,
    test_accuracy: f64,
    steps: u64,
    skipped: u64,
}

/// `train()`'s loop, call for call, with a span around each layer call.
/// Divergence recovery is `train()`'s private `recover_params` for a fixed
/// mask: `(A, B)` move halfway back to the initial point.
fn replay(ds: &Dataset, o: &TrainOptions, tr: &mut Trace, id: u64) -> Result<Replay, CoreError> {
    tr.enter("core.train", id);
    let mut model =
        DfrClassifier::paper_default(o.nodes, ds.channels(), ds.num_classes(), o.mask_seed)?;
    model.reservoir_mut().set_params(o.init.0, o.init.1)?;
    let masked: Vec<_> = ds
        .train()
        .iter()
        .map(|s| {
            tr.time("reservoir.mask", id, || {
                model.reservoir().mask().apply(&s.series)
            })
        })
        .collect();
    let targets = ds.one_hot_train();
    let bp_options = BackpropOptions {
        mode: o.mode,
        mask_gradient: false,
    };
    let mut sgd = Sgd::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(o.shuffle_seed);
    let mut order: Vec<usize> = (0..ds.train().len()).collect();
    let mut ws = TrainWorkspace::new();
    let (mut steps, mut skipped) = (0, 0);
    let recover = |model: &mut DfrClassifier| {
        let (a, b) = (model.reservoir().a(), model.reservoir().b());
        model
            .reservoir_mut()
            .set_params(0.5 * (a + o.init.0), 0.5 * (b + o.init.1))
    };
    for epoch in 0..o.epochs {
        let (lr_res, lr_out) = (o.reservoir_schedule.lr(epoch), o.output_schedule.lr(epoch));
        order.shuffle(&mut rng);
        for &i in &order {
            let fwd = tr.time("core.forward", id, || {
                model.forward_masked_into(&masked[i], &mut ws.cache)
            });
            match fwd {
                Ok(()) => {}
                Err(CoreError::Reservoir(dfr_reservoir::ReservoirError::Diverged { .. })) => {
                    recover(&mut model)?;
                    skipped += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
            let TrainWorkspace { cache, bp, .. } = &mut ws;
            let series = &ds.train()[i].series;
            tr.time("core.backprop", id, || {
                backprop_into(&model, series, cache, targets.row(i), &bp_options, bp)
            })?;
            let grads = &mut bp.grads;
            if !grads.is_finite() {
                recover(&mut model)?;
                skipped += 1;
                continue;
            }
            if let Some(clip) = o.grad_clip {
                let m = grads.max_abs();
                if m > clip {
                    grads.scale(clip / m);
                }
            }
            tr.time("core.sgd_step", id, || {
                sgd.step(&mut model, grads, lr_res, lr_out, &o.bounds)
            })?;
            steps += 1;
        }
    }
    let features = tr.time("core.features", id, || {
        features_for(&model, ds.train().iter().map(|s| &s.series))
    })?;
    let fit = tr.time("core.readout_fit", id, || {
        fit_readout_with(&features, &targets, &o.betas, &mut ws.readout)
    })?;
    model.set_readout(fit.w_out, fit.bias)?;
    let test_accuracy = tr.time("core.evaluate", id, || evaluate(&model, ds))?;
    tr.exit();
    Ok(Replay {
        digest: digest(&model),
        test_accuracy,
        steps,
        skipped,
    })
}

pub fn run(inp: &Inputs, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let opts = TrainOptions::calibrated();
    let n = inp.datasets.len();
    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });

    // ---- untraced: whole tunes of the suite until the budget is spent ------
    let mut suites = Vec::new();
    let mut per_ds: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut digests: Vec<Option<u64>> = vec![None; n];
    let mut accs = vec![f64::NAN; n];
    let (mut sgd_s, mut ridge_s, mut steps) = (0.0, 0.0, 0u64);
    let mut deterministic = true;
    let start = Instant::now();
    while suites.is_empty() || start.elapsed() < budget {
        let mut suite = 0.0;
        for (k, ds) in inp.datasets.iter().enumerate() {
            out.attempted += 1;
            let t0 = Instant::now();
            let report = match train(ds, &opts) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.check(&format!("train_{}", SUITE[k].1), false, e.to_string());
                    continue;
                }
            };
            let dt = t0.elapsed().as_secs_f64();
            suite += dt;
            per_ds[k].push(dt);
            sgd_s += report.sgd_seconds;
            ridge_s += report.ridge_seconds;
            steps += (opts.epochs * ds.train().len()) as u64;
            let d = digest(&report.model);
            deterministic &= *digests[k].get_or_insert(d) == d
                && (accs[k].is_nan() || accs[k].to_bits() == report.test_accuracy.to_bits());
            accs[k] = report.test_accuracy;
        }
        suites.push(suite);
    }
    let total: f64 = per_ds.iter().flatten().sum();
    let wait = median(&suites);
    out.gated.insert("wait_p50_ms", wait * 1e3);
    out.gated.insert("rate_per_s", steps as f64 / total);
    out.gated.insert("good_share", mean(&accs));
    out.detail("tune_s", wait, "s", Some(suites.len()));
    out.detail("test_acc", mean(&accs), "share", None);
    for (k, &(_, code)) in SUITE.iter().enumerate() {
        out.detail(
            &format!("tune_s.{code}"),
            median(&per_ds[k]),
            "s",
            Some(per_ds[k].len()),
        );
        out.detail(&format!("test_acc.{code}"), accs[k], "share", None);
    }
    out.detail(
        "sgd_share_of_tune",
        sgd_s / (sgd_s + ridge_s),
        "share",
        None,
    );
    out.ledger("train_calls", out.attempted);
    out.ledger("train_errors", out.failed);
    out.ledger("sgd_steps_attempted", steps);

    // ---- output checks ------------------------------------------------------
    let frozen: Vec<String> = digests
        .iter()
        .map(|d| format!("{:#018x}", d.unwrap_or(0)))
        .collect();
    out.check(
        "train_deterministic",
        deterministic,
        format!(
            "every repeat froze to the same digest and accuracy: {}",
            frozen.join(" ")
        ),
    );
    for (k, ds) in inp.datasets.iter().enumerate() {
        let floor = ds.majority_baseline();
        out.check(
            &format!("test_acc_above_majority.{}", SUITE[k].1),
            accs[k] > floor && accs[k] <= 1.0,
            format!("{:.4} vs majority {floor:.4}", accs[k]),
        );
    }
    match canary() {
        Ok((d, acc)) => out.check(
            "canary_matches_golden",
            matches_golden(d, acc),
            format!("quickstart digest {d:#018x}, test acc {acc}"),
        ),
        Err(e) => out.check("canary_matches_golden", false, e.to_string()),
    }
    if !cfg.trace {
        return Ok(());
    }

    // ---- traced: replay whole suites with spans -----------------------------
    let mut tr = Trace::new(Instant::now(), "train");
    let mut traced_suites = Vec::new();
    let (mut r_steps, mut r_skipped) = (0u64, 0u64);
    let start = Instant::now();
    while traced_suites.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        for (k, ds) in inp.datasets.iter().enumerate() {
            let r = replay(ds, &opts, &mut tr, k as u64).map_err(|e| e.to_string())?;
            if traced_suites.is_empty() {
                r_steps += r.steps;
                r_skipped += r.skipped;
                out.check(
                    &format!("replay_matches_train.{}", SUITE[k].1),
                    Some(r.digest) == digests[k] && r.test_accuracy.to_bits() == accs[k].to_bits(),
                    format!("replayed digest {:#018x}", r.digest),
                );
            }
        }
        traced_suites.push(t0.elapsed().as_secs_f64());
    }
    let reps = traced_suites.len() as f64;
    let traces = [&tr];
    for (metric, span) in [
        ("reservoir.mask.busy_s", "reservoir.mask"),
        ("core.forward.busy_s", "core.forward"),
        ("core.backprop.busy_s", "core.backprop"),
        ("core.sgd_step.busy_s", "core.sgd_step"),
        ("core.features.busy_s", "core.features"),
        ("core.readout_fit.busy_s", "core.readout_fit"),
    ] {
        out.layers.insert(metric, trace::busy(&traces, span) / reps);
    }
    out.layers.insert("core.sgd.steps", r_steps as f64);
    out.layers.insert("core.sgd.skipped", r_skipped as f64);
    out.layers.insert(
        "core.sgd.useful_share",
        r_steps as f64 / (r_steps + r_skipped).max(1) as f64,
    );
    out.ledger("sgd_steps_taken", r_steps);
    out.ledger("sgd_divergence_skips", r_skipped);
    out.finish_trace(vec![tr], median(&traced_suites) / wait - 1.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_check_passes_and_fails_on_a_corrupted_output() {
        let (d, acc) = canary().expect("quickstart trains");
        assert!(matches_golden(d, acc));
        assert!(!matches_golden(d ^ 1, acc));
        assert!(!matches_golden(d, f64::from_bits(acc.to_bits() ^ 1)));
    }
}
