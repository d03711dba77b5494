//! End-to-end and per-layer benchmark of the DFR workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_bp|grid_search|serve_open|serve_publish> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every output is checked; a report of
//! every metric by name, unit and sample count, the attempt/failure
//! ledger and the provenance is printed first, and the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `perfbench/README.md` maps each metric to the paths it
//! measures.

mod grid;
mod publish;
mod serve_open;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

/// End-to-end metrics: every run with `--trace 0` prints each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wait_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("good_share", "share"),
];

/// Per-layer metrics: every run with `--trace 1` prints each of them; a
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    // train_bp (per tune of the dataset suite)
    ("reservoir.mask.busy_s", "s"),
    ("core.forward.busy_s", "s"),
    ("core.backprop.busy_s", "s"),
    ("core.sgd_step.busy_s", "s"),
    ("core.features.busy_s", "s"),
    ("core.readout_fit.busy_s", "s"),
    ("core.sgd.steps", "count"),
    ("core.sgd.skipped", "count"),
    ("core.sgd.useful_share", "share"),
    // grid_search (per search of the dataset suite)
    ("grid.cells", "count"),
    ("grid.cells_diverged", "count"),
    ("grid.cells_escalated", "count"),
    ("grid.useful_share", "share"),
    ("linalg.ridge.busy_s.cholesky", "s"),
    ("linalg.ridge.busy_s.escalated", "s"),
    ("linalg.solver.escalations.qr", "count"),
    ("linalg.solver.escalations.svd", "count"),
    ("core.accuracy.busy_s", "s"),
    ("pool.efficiency", "share"),
    // serve_open, per phase
    ("frame.encode.busy_us.low", "us"),
    ("frame.decode.busy_us.low", "us"),
    ("serve.predict_batch.busy_us.low", "us"),
    ("server.batches.low", "count"),
    ("server.mean_fill.low", "count"),
    ("server.rejected.busy.low", "count"),
    ("server.rejected.malformed.low", "count"),
    ("server.rejected.unknown_digest.low", "count"),
    ("server.rejected.predict_failed.low", "count"),
    ("server.rejected.shutting_down.low", "count"),
    ("server.rejected.internal.low", "count"),
    ("server.rejected.bad_input.low", "count"),
    ("gen.late_p99_us.low", "us"),
    ("server.unattributed_us.low", "us"),
    ("frame.encode.busy_us.high", "us"),
    ("frame.decode.busy_us.high", "us"),
    ("serve.predict_batch.busy_us.high", "us"),
    ("server.batches.high", "count"),
    ("server.mean_fill.high", "count"),
    ("server.rejected.busy.high", "count"),
    ("server.rejected.malformed.high", "count"),
    ("server.rejected.unknown_digest.high", "count"),
    ("server.rejected.predict_failed.high", "count"),
    ("server.rejected.shutting_down.high", "count"),
    ("server.rejected.internal.high", "count"),
    ("server.rejected.bad_input.high", "count"),
    ("gen.late_p99_us.high", "us"),
    ("server.unattributed_us.high", "us"),
    // serve_publish
    ("core.online.forward.busy_us", "us"),
    ("core.online.absorb.busy_us", "us"),
    ("core.online.refit.busy_ms", "ms"),
    ("serve.freeze.busy_ms", "ms"),
    ("server.registry.publish.busy_us", "us"),
    ("server.swap_wait_ms", "ms"),
    ("server.publishes", "count"),
    ("server.digests_served", "count"),
    // every workload: self time per layer over the traced part of the run
    ("layer.linalg.self_s", "s"),
    ("layer.reservoir.self_s", "s"),
    ("layer.core.self_s", "s"),
    ("layer.serve.self_s", "s"),
    ("layer.server.self_s", "s"),
    ("layer.pool.self_s", "s"),
    ("layer.bench.self_s", "s"),
    ("trace.overhead_share", "share"),
];

/// Set-ups per run: at least `SETUP_REPEATS.0`, and more while their
/// total stays under `SETUP_SECONDS`, up to `SETUP_REPEATS.1`, so that a
/// cheap set-up is sampled often enough; `setup_s` is their median.
const SETUP_REPEATS: (usize, usize) = (3, 15);
const SETUP_SECONDS: f64 = 1.0;

/// Environment knobs that would change the program under test; the
/// benchmark refuses to run with any of them set so that every record
/// measures the shipped defaults.
const PINNED_ENV: [&str; 4] = ["DFR_THREADS", "DFR_KERNEL", "DFR_SOLVER", "DFR_FAULTS"];

/// One run's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A named number with its unit and, for order statistics, the sample
/// count behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// Everything a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// The workload's values of the end-to-end metrics other than
    /// `setup_s` and `peak_rss_mb`.
    pub gated: BTreeMap<&'static str, f64>,
    /// The workload's own end-to-end figures under their own names.
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    pub ledger: Vec<(String, u64)>,
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub traces: Vec<Trace>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn ledger(&mut self, name: &str, count: u64) {
        self.ledger.push((name.to_string(), count));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// Adds the per-layer self times of `traces` and the tracing overhead
    /// (traced over untraced end-to-end figure, minus one), and keeps the
    /// spans for writing.
    pub fn finish_trace(&mut self, traces: Vec<Trace>, overhead: f64) {
        let refs: Vec<&Trace> = traces.iter().collect();
        for (layer, secs) in trace::self_time(&refs) {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| *n == format!("layer.{layer}.self_s"))
                .expect("every layer has a self-time metric");
            self.layers.insert(name, secs);
        }
        self.layers.insert("trace.overhead_share", overhead);
        self.traces.extend(traces);
    }
}

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Paths inside the checkout, resolved against this package's directory.
pub fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel)
}

fn out_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(file)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (`f64`'s shortest
/// round-trip form); non-finite values cannot be written and read 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn run(workload: &str, cfg: &Config) -> Result<(Outcome, Vec<f64>), String> {
    macro_rules! drive {
        ($m:ident) => {{
            let mut setups: Vec<f64> = Vec::new();
            let mut inputs = None;
            while setups.len() < SETUP_REPEATS.0
                || (setups.len() < SETUP_REPEATS.1 && setups.iter().sum::<f64>() < SETUP_SECONDS)
            {
                drop(inputs.take());
                let t0 = Instant::now();
                inputs = Some($m::setup(cfg)?);
                setups.push(t0.elapsed().as_secs_f64());
            }
            let inputs = inputs.expect("at least one set-up");
            let mut out = Outcome::default();
            $m::run(&inputs, cfg, &mut out)?;
            drop(inputs);
            Ok((out, setups))
        }};
    }
    match workload {
        "train_bp" => drive!(train),
        "grid_search" => drive!(grid),
        "serve_open" => drive!(serve_open),
        "serve_publish" => drive!(publish),
        other => Err(format!(
            "unknown workload {other:?} (train_bp, grid_search, serve_open, serve_publish)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        arg(&args, "--workload"),
        arg(&args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        arg(&args, "--seconds").and_then(|s| s.parse::<f64>().ok()),
        arg(&args, "--trace").and_then(|s| s.parse::<u8>().ok()),
    ) else {
        eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        return ExitCode::from(2);
    };
    if seconds.is_nan() || seconds <= 0.0 || trace > 1 {
        eprintln!("--seconds must be positive and --trace 0 or 1");
        return ExitCode::from(2);
    }
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some_and(|v| !v.is_empty()))
        .collect();
    if !set.is_empty() {
        eprintln!("refusing to run with {set:?} set: the benchmark measures the defaults");
        return ExitCode::from(2);
    }
    let cfg = Config {
        seed,
        seconds,
        trace: trace == 1,
    };
    let provenance = [
        ("workload", workload.clone()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("git_rev", git_rev()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("pool_width", dfr_pool::max_threads().to_string()),
        ("kernel", dfr_linalg::kernels::active().name().to_string()),
        ("solver", dfr_linalg::solver::active().name().to_string()),
    ];

    let (out, setups) = match run(&workload, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let setup_s = stats::median(&setups);
    let peak_rss_mb = stats::peak_rss_mb();

    // ---- human-readable report -------------------------------------------
    let mut report = String::new();
    for (k, v) in &provenance {
        let _ = writeln!(report, "# {k} = {v}");
    }
    let _ = writeln!(report, "setup_s = {setup_s:.6} s (n={})", setups.len());
    let _ = writeln!(report, "peak_rss_mb = {peak_rss_mb:.1} MB");
    for m in &out.detail {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        let _ = writeln!(report, "{} = {:.6} {}{n}", m.name, m.value, m.unit);
    }
    for (k, v) in &out.ledger {
        let _ = writeln!(report, "ledger.{k} = {v}");
    }
    for (name, ok, detail) in &out.checks {
        let verdict = if *ok { "ok" } else { "FAILED" };
        let _ = writeln!(report, "check.{name} = {verdict} ({detail})");
    }
    for (k, v) in &out.layers {
        let _ = writeln!(report, "layer {k} = {v:.6}");
    }
    print!("{report}");

    // ---- record + spans under perfbench/out/ ------------------------------
    let stem = format!("{workload}-s{seed}-t{trace}");
    let mut record = String::from("{");
    for (k, v) in &provenance {
        let _ = write!(record, "{}: {}, ", json_str(k), json_str(v));
    }
    let _ = write!(
        record,
        "\"setups_s\": [{}], \"peak_rss_mb\": {}, \"detail\": {{",
        setups
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(", "),
        json_num(peak_rss_mb)
    );
    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples.map_or("null".into(), |n| n.to_string())
            )
        })
        .collect();
    let ledger: Vec<String> = out
        .ledger
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(k, ok, d)| format!("{}: [{ok}, {}]", json_str(k), json_str(d)))
        .collect();
    let _ = write!(
        record,
        "{}}}, \"ledger\": {{{}}}, \"checks\": {{{}}}}}",
        detail.join(", "),
        ledger.join(", "),
        checks.join(", ")
    );
    let _ = std::fs::create_dir_all(out_path(""));
    if let Err(e) = std::fs::write(out_path(&format!("{stem}.json")), record) {
        eprintln!("perfbench: cannot write record: {e}");
    }
    if cfg.trace {
        let traces: Vec<&Trace> = out.traces.iter().collect();
        if let Err(e) = trace::write(&out_path(&format!("{stem}-spans.tsv")), &traces) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }

    // ---- the result line -----------------------------------------------
    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    if cfg.trace {
        for (name, unit) in PER_LAYER {
            values.push((name, unit, out.layers.get(name).copied().unwrap_or(0.0)));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => setup_s,
                "peak_rss_mb" => peak_rss_mb,
                _ => out.gated.get(name).copied().unwrap_or(f64::NAN),
            };
            values.push((name, unit, v));
        }
    }
    let mut correct = out.correct();
    if let Some((name, ..)) = values.iter().find(|(_, _, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} was not measured");
        correct = false;
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let text = std::fs::read_to_string(repo_path("BENCHMARK.json")).expect("BENCHMARK.json");
        for (section, table) in [
            ("\"end_to_end\"", &END_TO_END[..]),
            ("\"per_layer\"", &PER_LAYER[..]),
        ] {
            let start = text.find(section).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            let body = &body[..end];
            let named = body.matches("\"name\"").count();
            assert_eq!(named, table.len(), "{section} entry count");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
