//! Parallel-vs-serial wall-clock benchmark of the `dfr-pool` execution
//! layer across the workspace's hot paths, feeding the perf trajectory in
//! `results/BENCH_parallel.json`.
//!
//! ```text
//! cargo run --release -p dfr-bench --bin parallel_bench \
//!     [-- --threads 1,2,4 --repeats 3 --scale 0.15 --divisions 6]
//! ```
//!
//! Four benches cover the four parallelised layers:
//!
//! * `matmul_192` — the cache-blocked row-banded product (`dfr-linalg`),
//! * `ridge_dual_930` — the parallel Gram kernel at the DPRR feature
//!   width (`dfr-linalg::ridge`),
//! * `dprr_features_96` — per-sample DPRR feature extraction
//!   (`dfr-reservoir`),
//! * `fig6_landscape` — the grid-search accuracy landscape
//!   (`dfr-core::grid`), the dominant cost of the `fig6` binary.
//!
//! Every bench is first run at 1 thread, then at each requested width;
//! `speedup` is serial mean over parallel mean. Results at every width are
//! asserted bit-identical to the serial run before timings are recorded,
//! so the file doubles as a determinism check on real workloads. Speedups
//! above 1 require actual cores: on a single-core host every width
//! measures ≈ 1.0×, and the JSON records that honestly (the
//! `available_cores` field says what the host offered).

use dfr_bench::{
    json_array, json_f64, json_object, json_str, prepared_dataset, write_results, Args,
};
use dfr_core::grid::{landscape, GridOptions};
use dfr_linalg::ridge::{ridge_fit_with, RidgeMode};
use dfr_linalg::Matrix;
use dfr_reservoir::representation::feature_matrix;
use std::time::Instant;

/// Mean wall-clock seconds of `f` over `repeats` runs (after one warm-up),
/// plus the result of the last run for determinism checks.
fn time<R>(repeats: usize, f: impl Fn() -> R) -> (f64, R) {
    let mut result = f();
    let start = Instant::now();
    for _ in 0..repeats {
        result = f();
    }
    (start.elapsed().as_secs_f64() / repeats as f64, result)
}

fn main() {
    let args = Args::from_env();
    // `--repeats 0` would record ~0 ns means into the perf trajectory.
    let repeats = args.get_usize("repeats", 3).max(1);
    let scale = args.get_f64("scale", 0.15);
    let divisions = args.get_usize("divisions", 6);
    let seed = args.get_usize("seed", 0) as u64;
    let widths: Vec<usize> = args
        .get("threads")
        .unwrap_or("1,2,4")
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&t| t > 0)
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Bench inputs, prepared once outside the timed regions.
    let n = 192;
    let a = Matrix::from_vec(n, n, (0..n * n).map(|i| (i as f64 * 0.37).sin()).collect())
        .expect("sized");
    let b = Matrix::from_vec(n, n, (0..n * n).map(|i| (i as f64 * 0.11).cos()).collect())
        .expect("sized");
    let x = Matrix::from_vec(
        150,
        930,
        (0..150 * 930).map(|i| (i as f64 * 0.13).sin()).collect(),
    )
    .expect("sized");
    let mut y = Matrix::zeros(150, 10);
    for i in 0..150 {
        y[(i, i % 10)] = 1.0;
    }
    let runs: Vec<Matrix> = (0..96)
        .map(|s| {
            Matrix::from_vec(
                40,
                30,
                (0..40 * 30)
                    .map(|i| ((i + s * 7) as f64 * 0.23).sin())
                    .collect(),
            )
            .expect("sized")
        })
        .collect();
    let ds = prepared_dataset(dfr_data::PaperDataset::Char, seed, scale);
    let grid_options = GridOptions {
        nodes: 20,
        ..GridOptions::default()
    };

    type Bench<'a> = (&'a str, Box<dyn Fn() -> Vec<f64> + 'a>);
    let benches: Vec<Bench> = vec![
        (
            "matmul_192",
            Box::new(|| a.matmul(&b).expect("shapes agree").into_vec()),
        ),
        (
            "ridge_dual_930",
            Box::new(|| {
                ridge_fit_with(&x, &y, 1e-4, RidgeMode::Dual)
                    .expect("spd")
                    .into_vec()
            }),
        ),
        (
            "dprr_features_96",
            Box::new(|| feature_matrix(&runs).into_vec()),
        ),
        (
            "fig6_landscape",
            Box::new(|| {
                landscape(&ds, &grid_options, divisions)
                    .expect("landscape")
                    .into_vec()
            }),
        ),
    ];

    println!("parallel_bench — serial baseline vs pool fan-out ({cores} cores available)");
    let mut json_rows = Vec::new();
    for (name, bench) in &benches {
        let (serial_mean, serial_result) = dfr_pool::with_threads(1, || time(repeats, bench));
        println!("{name:<20} threads 1  {:.4}s (baseline)", serial_mean);
        json_rows.push(json_object(&[
            ("bench", json_str(name)),
            ("threads", "1".to_string()),
            ("mean_ns", json_f64(serial_mean * 1e9)),
            ("speedup", json_f64(1.0)),
            ("available_cores", cores.to_string()),
        ]));
        for &t in &widths {
            if t == 1 {
                continue;
            }
            let (mean, result) = dfr_pool::with_threads(t, || time(repeats, bench));
            assert_eq!(
                result, serial_result,
                "{name}: parallel result at {t} threads differs from serial"
            );
            let speedup = serial_mean / mean.max(1e-12);
            println!("{name:<20} threads {t}  {mean:.4}s ({speedup:.2}x)");
            json_rows.push(json_object(&[
                ("bench", json_str(name)),
                ("threads", t.to_string()),
                ("mean_ns", json_f64(mean * 1e9)),
                ("speedup", json_f64(speedup)),
                ("available_cores", cores.to_string()),
            ]));
        }
    }
    let path = write_results("BENCH_parallel.json", &json_array(&json_rows));
    println!("\nwrote {}", path.display());
}
