//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! A span carries its name, start, end, parent (the span open on the same
//! thread when it started) and a request or sample id. Each thread owns
//! one [`Trace`]; nothing is shared or allocated per span beyond the
//! vector push, and the spans are written out once the run has ended.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's spans, timed against a run-wide epoch.
pub struct Trace {
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(epoch: Instant, thread: &'static str) -> Self {
        Trace {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, id: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].secs()
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let r = f();
        self.exit();
        r
    }

    /// Records an already-finished span (timed where no `Trace` could be
    /// borrowed, e.g. inside a pool worker) under `parent`, or under the
    /// innermost open span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.or(self.open.last().copied()),
            id,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The crate a span name belongs to (its first dotted component, with the
/// server's `frame`/`gen` stages folded into their owners).
pub fn layer(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "linalg" => "linalg",
        "reservoir" => "reservoir",
        "core" | "grid" => "core",
        "serve" => "serve",
        "server" | "frame" => "server",
        "pool" => "pool",
        _ => "bench",
    }
}

/// Every layer [`layer`] can name, in report order.
pub const LAYERS: [&str; 7] = [
    "linalg",
    "reservoir",
    "core",
    "serve",
    "server",
    "pool",
    "bench",
];

/// Summed duration of every span named `name`, in seconds.
pub fn busy(traces: &[&Trace], name: &str) -> f64 {
    traces
        .iter()
        .flat_map(|t| t.spans())
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Self time per layer: each span's duration minus the part its children
/// cover, summed by [`layer`].
pub fn self_time(traces: &[&Trace]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for t in traces {
        let mut own: Vec<f64> = t.spans().iter().map(Span::secs).collect();
        for s in t.spans() {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        for (s, secs) in t.spans().iter().zip(own) {
            *out.entry(layer(s.name)).or_default() += secs;
        }
    }
    out
}

/// Writes every span as one tab-separated line
/// (`thread name start_ns end_ns parent id`).
pub fn write(path: &Path, traces: &[&Trace]) -> std::io::Result<()> {
    let mut text = String::from("thread\tname\tstart_ns\tend_ns\tparent\tid\n");
    for t in traces {
        for s in t.spans() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{}",
                t.thread, s.name, s.start_ns, s.end_ns, parent, s.id
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(Instant::now(), "t");
        t.record("core.outer", 0, (0, 1_000), None);
        t.enter("core.parent", 0);
        t.exit();
        // Rewrite the parent span by hand so the arithmetic is exact.
        t.spans[1] = Span {
            name: "core.parent",
            start_ns: 0,
            end_ns: 1_000_000_000,
            parent: None,
            id: 0,
        };
        t.spans.push(Span {
            name: "linalg.child",
            start_ns: 0,
            end_ns: 250_000_000,
            parent: Some(1),
            id: 0,
        });
        let st = self_time(&[&t]);
        assert!((st["core"] - (0.75 + 1e-6)).abs() < 1e-12);
        assert!((st["linalg"] - 0.25).abs() < 1e-12);
        assert_eq!(busy(&[&t], "linalg.child"), 0.25);
        assert_eq!(layer("frame.decode"), "server");
        assert_eq!(layer("gen.late"), "bench");
    }
}
