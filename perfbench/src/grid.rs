//! `grid_search`: the paper's "gs" column — `grid::grid_search` on the
//! ARAB and LIB stand-ins over a fixed division schedule `g = 1..G` with
//! an unreachable target, so every search evaluates `Σ g²` cells.
//!
//! ARAB cells stay on Cholesky or diverge early; LIB's `A + B > 1` corner
//! (present at every `g ≥ 2`) escalates every β to SVD. The traced run
//! replays each cell through `features_for_into`, `fit_readout_with`
//! (reading `solver_reports()`) and `readout_accuracy_with`, fanned out
//! over the pool the way `grid_search` does, and checks every replayed
//! cell against `evaluate_point` bit for bit.

use crate::stats::{mean, median, mix};
use crate::trace::Trace;
use crate::{Config, Outcome};
use dfr_core::grid::{evaluate_point, grid_points, grid_search, GridOptions, GridPoint};
use dfr_core::readout::{fit_readout_with, readout_accuracy_with, ReadoutScratch};
use dfr_core::trainer::features_for_into;
use dfr_core::{CoreError, DfrClassifier};
use dfr_data::{normalize, paper_dataset_with, Dataset, PaperDataset};
use dfr_linalg::solver::SolverKind;
use dfr_linalg::Matrix;
use dfr_reservoir::ReservoirError;
use std::time::{Duration, Instant};

/// Dataset, code and division count `G`. Sized so that neither dataset
/// takes under a quarter of a search of the suite.
const SUITE: [(PaperDataset, &str, usize); 2] = [
    (PaperDataset::Arab, "ARAB", 6),
    (PaperDataset::Lib, "LIB", 2),
];

/// Above any reachable accuracy: the schedule always runs to `G`.
const TARGET: f64 = 2.0;

pub struct Inputs {
    datasets: Vec<Dataset>,
}

pub fn setup(cfg: &Config) -> Result<Inputs, String> {
    let datasets = SUITE
        .iter()
        .enumerate()
        .map(|(k, &(which, ..))| {
            let mut ds = paper_dataset_with(which, mix(cfg.seed, 11 + k as u64));
            normalize::standardize(&mut ds);
            ds
        })
        .collect();
    Ok(Inputs { datasets })
}

fn options(divisions: usize) -> GridOptions {
    GridOptions {
        max_divisions: divisions,
        ..GridOptions::default()
    }
}

fn same_bits(x: &GridPoint, y: &GridPoint) -> bool {
    [
        (x.a, y.a),
        (x.b, y.b),
        (x.beta, y.beta),
        (x.train_loss, y.train_loss),
        (x.test_accuracy, y.test_accuracy),
    ]
    .iter()
    .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// One replayed cell with its layer timings (ns since the run epoch).
#[derive(Clone)]
struct Cell {
    point: GridPoint,
    diverged: bool,
    fit_failed: bool,
    escalated: bool,
    qr: u64,
    svd: u64,
    span: (u64, u64),
    features: [(u64, u64); 2],
    fit: (u64, u64),
    accuracy: (u64, u64),
}

/// Point-invariant state of one pool worker, as `grid_search` keeps it.
#[derive(Clone)]
struct Worker {
    model: DfrClassifier,
    targets: Matrix,
    labels: Vec<usize>,
    train_f: Matrix,
    test_f: Matrix,
    readout: ReadoutScratch,
}

impl Worker {
    fn new(ds: &Dataset, o: &GridOptions) -> Result<Self, CoreError> {
        Ok(Worker {
            model: DfrClassifier::paper_default(
                o.nodes,
                ds.channels(),
                ds.num_classes(),
                o.mask_seed,
            )?,
            targets: ds.one_hot_train(),
            labels: ds.test().iter().map(|s| s.label).collect(),
            train_f: Matrix::zeros(0, 0),
            test_f: Matrix::zeros(0, 0),
            readout: ReadoutScratch::new(),
        })
    }
}

/// `evaluate_point`, call for call, with each layer call timed.
fn replay_cell(
    ds: &Dataset,
    o: &GridOptions,
    (a, b): (f64, f64),
    w: &mut Worker,
    epoch: Instant,
) -> Result<Cell, CoreError> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let start = now();
    let mut cell = Cell {
        point: GridPoint {
            a,
            b,
            beta: f64::NAN,
            train_loss: f64::INFINITY,
            test_accuracy: 0.0,
        },
        diverged: false,
        fit_failed: false,
        escalated: false,
        qr: 0,
        svd: 0,
        span: (start, start),
        features: [(start, start); 2],
        fit: (start, start),
        accuracy: (start, start),
    };
    let finish = |mut cell: Cell| {
        cell.span.1 = now();
        Ok(cell)
    };
    w.model.reservoir_mut().set_params(a, b)?;
    let diverged = |r: Result<(), CoreError>| match r {
        Ok(()) => Ok(false),
        Err(CoreError::Reservoir(ReservoirError::Diverged { .. })) => Ok(true),
        Err(e) => Err(e),
    };
    let t = now();
    let r = features_for_into(
        &w.model,
        ds.train().iter().map(|s| &s.series),
        &mut w.train_f,
    );
    cell.features[0] = (t, now());
    if diverged(r)? {
        cell.diverged = true;
        return finish(cell);
    }
    let t = now();
    let fit = fit_readout_with(&w.train_f, &w.targets, &o.betas, &mut w.readout);
    cell.fit = (t, now());
    for r in w.readout.solver_reports() {
        cell.escalated |= r.escalated;
        cell.qr += u64::from(r.used == Some(SolverKind::Qr));
        cell.svd += u64::from(r.used == Some(SolverKind::Svd));
    }
    let fit = match fit {
        Ok(f) => f,
        Err(CoreError::Linalg(_)) | Err(CoreError::NumericalFailure { .. }) => {
            cell.fit_failed = true;
            return finish(cell);
        }
        Err(e) => return Err(e),
    };
    let t = now();
    let r = features_for_into(&w.model, ds.test().iter().map(|s| &s.series), &mut w.test_f);
    cell.features[1] = (t, now());
    if diverged(r)? {
        cell.diverged = true;
        return finish(cell);
    }
    let t = now();
    let acc = readout_accuracy_with(&w.test_f, &fit.w_out, &fit.bias, &w.labels, &mut w.readout)?;
    cell.accuracy = (t, now());
    cell.point = GridPoint {
        a,
        b,
        beta: fit.beta,
        train_loss: fit.train_loss,
        test_accuracy: acc,
    };
    finish(cell)
}

/// Every cell of divisions `1..=g`, level by level, each level fanned out
/// in contiguous runs over the pool as `grid_search` does.
fn replay_search(ds: &Dataset, g: usize, epoch: Instant) -> Result<Vec<(usize, Cell)>, CoreError> {
    let o = options(g);
    let proto = Worker::new(ds, &o)?;
    let mut all = Vec::new();
    for divisions in 1..=g {
        let a_points = grid_points(o.a_log10_range, divisions);
        let b_points = grid_points(o.b_log10_range, divisions);
        let cells: Vec<(f64, f64)> = a_points
            .iter()
            .flat_map(|&a| b_points.iter().map(move |&b| (a, b)))
            .collect();
        let mut slots: Vec<Option<(usize, Cell)>> = vec![None; cells.len()];
        let run_len = cells.len().div_ceil(dfr_pool::max_threads().max(1));
        dfr_pool::par_try_chunks_mut_with(
            &mut slots,
            run_len,
            || proto.clone(),
            |run, slots, w| -> Result<(), CoreError> {
                for (slot, &ab) in slots.iter_mut().zip(&cells[run * run_len..]) {
                    *slot = Some((run, replay_cell(ds, &o, ab, w, epoch)?));
                }
                Ok(())
            },
        )?;
        all.extend(slots.into_iter().map(|s| s.expect("every cell replayed")));
    }
    Ok(all)
}

pub fn run(inp: &Inputs, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let n = inp.datasets.len();
    let cells_per_search: Vec<usize> = SUITE
        .iter()
        .map(|s| (1..=s.2).map(|g| g * g).sum())
        .collect();

    // ---- untraced: whole searches of the suite until the budget is spent ---
    let mut suites = Vec::new();
    let mut per_ds: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut best: Vec<Option<GridPoint>> = vec![None; n];
    let (mut cells, mut deterministic, mut complete) = (0u64, true, true);
    let start = Instant::now();
    while suites.is_empty() || start.elapsed() < budget {
        let mut suite = 0.0;
        for (k, ds) in inp.datasets.iter().enumerate() {
            out.attempted += cells_per_search[k] as u64;
            let t0 = Instant::now();
            let report = grid_search(ds, &options(SUITE[k].2), TARGET);
            let dt = t0.elapsed().as_secs_f64();
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    out.failed += cells_per_search[k] as u64;
                    out.check(&format!("grid_search.{}", SUITE[k].1), false, e.to_string());
                    continue;
                }
            };
            suite += dt;
            per_ds[k].push(dt);
            cells += report.evaluations as u64;
            complete &= report.evaluations == cells_per_search[k] && !report.reached_target;
            deterministic &= same_bits(best[k].get_or_insert(report.best), &report.best);
        }
        suites.push(suite);
    }
    let total: f64 = per_ds.iter().flatten().sum();
    let accs: Vec<f64> = best
        .iter()
        .map(|b| b.map_or(f64::NAN, |p| p.test_accuracy))
        .collect();
    let wait = median(&suites);
    out.gated.insert("wait_p50_ms", wait * 1e3);
    out.gated.insert("rate_per_s", cells as f64 / total);
    out.gated.insert("good_share", mean(&accs));
    out.detail("tune_s", wait, "s", Some(suites.len()));
    out.detail("test_acc", mean(&accs), "share", None);
    for (k, &(_, code, g)) in SUITE.iter().enumerate() {
        out.detail(
            &format!("tune_s.{code}.G{g}"),
            median(&per_ds[k]),
            "s",
            Some(per_ds[k].len()),
        );
        out.detail(&format!("test_acc.{code}"), accs[k], "share", None);
    }
    out.ledger("cells_evaluated", cells);

    // ---- output checks ------------------------------------------------------
    out.check(
        "schedule_complete",
        complete,
        "every search evaluated Σ g² cells without reaching the target",
    );
    out.check(
        "search_deterministic",
        deterministic,
        "every repeat of a dataset found the same best cell, bit for bit",
    );
    for (k, ds) in inp.datasets.iter().enumerate() {
        let Some(b) = best[k] else { continue };
        let oracle =
            evaluate_point(ds, &options(SUITE[k].2), b.a, b.b).map_err(|e| e.to_string())?;
        out.check(
            &format!("best_cell_equals_evaluate_point.{}", SUITE[k].1),
            same_bits(&b, &oracle),
            format!("A={:.4} B={:.4} acc={:.4}", b.a, b.b, b.test_accuracy),
        );
    }
    if !cfg.trace {
        return Ok(());
    }

    // ---- traced: replay every cell with its layer calls timed ---------------
    let epoch = Instant::now();
    let threads = dfr_pool::max_threads().max(1);
    let mut traced_suites = Vec::new();
    let mut first: Vec<Vec<(usize, Cell)>> = Vec::new();
    let start = Instant::now();
    while traced_suites.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        let mut suite = Vec::new();
        for (k, ds) in inp.datasets.iter().enumerate() {
            suite.push(replay_search(ds, SUITE[k].2, epoch).map_err(|e| e.to_string())?);
        }
        traced_suites.push(t0.elapsed().as_secs_f64());
        if first.is_empty() {
            first = suite;
        }
    }
    let mut all_equal = true;
    for (k, ds) in inp.datasets.iter().enumerate() {
        let o = options(SUITE[k].2);
        for (_, c) in &first[k] {
            let oracle = evaluate_point(ds, &o, c.point.a, c.point.b).map_err(|e| e.to_string())?;
            all_equal &= same_bits(&c.point, &oracle);
        }
    }
    out.check(
        "replayed_cells_equal_evaluate_point",
        all_equal,
        format!(
            "{} cells compared bit for bit",
            first.iter().map(Vec::len).sum::<usize>()
        ),
    );

    let cells: Vec<&Cell> = first.iter().flatten().map(|(_, c)| c).collect();
    let secs = |(s, e): (u64, u64)| (e - s) as f64 * 1e-9;
    let count = |f: &dyn Fn(&Cell) -> bool| cells.iter().filter(|c| f(c)).count() as f64;
    let diverged = count(&|c| c.diverged);
    let fit_failed = count(&|c| c.fit_failed);
    let escalated = count(&|c| c.escalated);
    let n_cells = cells.len() as f64;
    let busy: f64 = cells.iter().map(|c| secs(c.span)).sum();
    out.layers.insert("grid.cells", n_cells);
    out.layers.insert("grid.cells_diverged", diverged);
    out.layers.insert("grid.cells_escalated", escalated);
    out.layers.insert(
        "grid.useful_share",
        (n_cells - diverged - fit_failed) / n_cells,
    );
    out.layers.insert(
        "core.features.busy_s",
        cells
            .iter()
            .map(|c| secs(c.features[0]) + secs(c.features[1]))
            .sum(),
    );
    out.layers.insert(
        "linalg.ridge.busy_s.cholesky",
        cells
            .iter()
            .filter(|c| !c.escalated)
            .map(|c| secs(c.fit))
            .sum(),
    );
    out.layers.insert(
        "linalg.ridge.busy_s.escalated",
        cells
            .iter()
            .filter(|c| c.escalated)
            .map(|c| secs(c.fit))
            .sum(),
    );
    out.layers.insert(
        "linalg.solver.escalations.qr",
        cells.iter().map(|c| c.qr).sum::<u64>() as f64,
    );
    out.layers.insert(
        "linalg.solver.escalations.svd",
        cells.iter().map(|c| c.svd).sum::<u64>() as f64,
    );
    out.layers.insert(
        "core.accuracy.busy_s",
        cells.iter().map(|c| secs(c.accuracy)).sum(),
    );
    out.layers
        .insert("pool.efficiency", busy / (threads as f64 * wait));
    out.ledger("cells_diverged", diverged as u64);
    out.ledger("cells_fit_failed", fit_failed as u64);
    out.ledger("cells_escalated", escalated as u64);

    // Spans of the first traced suite: one trace per pool worker, each
    // cell with its layer calls as children.
    let mut traces: Vec<Trace> = (0..threads).map(|_| Trace::new(epoch, "grid")).collect();
    for (k, level) in first.iter().enumerate() {
        for (run, c) in level {
            let tr = &mut traces[*run % threads];
            let id = k as u64;
            let p = tr.record("grid.cell", id, c.span, None);
            for f in c.features.iter().filter(|f| f.1 > f.0) {
                tr.record("core.features", id, *f, Some(p));
            }
            if c.fit.1 > c.fit.0 {
                tr.record("linalg.ridge", id, c.fit, Some(p));
            }
            if c.accuracy.1 > c.accuracy.0 {
                tr.record("core.accuracy", id, c.accuracy, Some(p));
            }
        }
    }
    out.finish_trace(traces, median(&traced_suites) / wait - 1.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_data::DatasetSpec;

    #[test]
    fn replayed_cell_equals_evaluate_point_and_a_corrupted_cell_does_not() {
        let mut ds = DatasetSpec::new("grid-selftest", 3, 24, 2, 30, 30, 0.4).build(3);
        normalize::standardize(&mut ds);
        let o = GridOptions {
            nodes: 6,
            ..options(2)
        };
        let mut w = Worker::new(&ds, &o).expect("valid options");
        for (a, b) in [(0.01, 0.05), (0.5623, 0.5623)] {
            let cell = replay_cell(&ds, &o, (a, b), &mut w, Instant::now()).expect("replays");
            let oracle = evaluate_point(&ds, &o, a, b).expect("evaluates");
            assert!(same_bits(&cell.point, &oracle));
            let mut bad = cell.point;
            bad.train_loss = f64::from_bits(bad.train_loss.to_bits() ^ 1);
            assert!(!same_bits(&bad, &oracle));
        }
    }
}
