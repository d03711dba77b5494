//! `serve_publish`: writes beside reads. One closed-loop `Client` reads
//! the golden model's series pool from a `Server` while one thread drives
//! an `OnlinePublisher` (forgetting factor 0.97, `PublisherConfig::default()`)
//! over a gradual drifting stream into the same registry, so absorb,
//! refit, freeze, publish and the batch-boundary hot-swap all run under
//! live reads.
//!
//! Every reply is checked against an oracle built, lazily, from the model
//! registered under the digest it was stamped with, and that digest must
//! be the golden model's or one the publisher published. The traced run
//! replays the publisher through `StreamingForward::run_into`,
//! `OnlineRidge::absorb_label`, `refit_into`, `FrozenModel::freeze` and
//! `ModelRegistry::publish`, and checks that it publishes the same digest
//! sequence as `OnlinePublisher`.

use crate::serve_open::{load_golden, series_pool, start_server, Oracle, GOLDEN_DIGEST, LIMIT_US};
use crate::stats::{median, mix, tail};
use crate::trace::{self, Trace};
use crate::{Config, Outcome};
use dfr_core::online::OnlineRidge;
use dfr_core::streaming::{StreamingCache, StreamingForward};
use dfr_core::DfrClassifier;
use dfr_data::{drifting_stream, DatasetSpec, DriftKind, Sample};
use dfr_linalg::Matrix;
use dfr_serve::FrozenModel;
use dfr_server::frame::Response;
use dfr_server::{Client, ModelRegistry, OnlinePublisher, PublisherConfig, Server, Status};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BETA: f64 = 1e-4;
const FORGET: f64 = 0.97;

/// Drifting-stream samples generated per second of run: more than the
/// publisher can absorb, so it never runs dry.
const STREAM_PER_SECOND: f64 = 600.0;

pub struct Inputs {
    server: Server,
    model: DfrClassifier,
    pool: Vec<Matrix>,
    stream: Arc<Vec<Sample>>,
}

pub fn setup(cfg: &Config) -> Result<Inputs, String> {
    let golden = load_golden()?;
    let model = golden.thaw().map_err(|e| e.to_string())?;
    let pool = series_pool(cfg.seed);
    let spec = DatasetSpec::new("quickstart", 3, 60, 2, 0, 0, 0.6);
    let size = (cfg.seconds * STREAM_PER_SECOND).ceil() as usize + 64;
    let stream = drifting_stream(&spec, DriftKind::Gradual, mix(cfg.seed, 300), size)
        .map_err(|e| e.to_string())?;
    let server = start_server(golden)?;
    Ok(Inputs {
        server,
        model,
        pool,
        stream: Arc::new(stream),
    })
}

/// One read: completion time (ns since the run epoch), round trip (µs),
/// pool index and the reply (`None` on a transport error).
struct Read {
    at_ns: u64,
    rtt_us: f64,
    index: usize,
    reply: Option<Response>,
}

/// One publish: the start of the absorb that made it due, the digest,
/// whether the refit left the Cholesky fast path and, when replayed, the
/// refit/freeze/publish times in ms.
struct Publish {
    due_ns: u64,
    digest: u64,
    escalated: bool,
    stages_ms: Option<[f64; 3]>,
}

/// Replayed layer calls: name, sample id, (start, end) ns since the epoch.
type Spans = Vec<(&'static str, u64, (u64, u64))>;

/// The publisher thread's progress, shared so that it can be read while
/// the thread is still inside a refit.
#[derive(Default)]
struct Writer {
    publishes: Vec<Publish>,
    absorbs: u64,
    absorb_errors: u64,
    refit_errors: u64,
    absorb_s: f64,
    spans: Spans,
    finished: bool,
}

/// The publisher's state rebuilt from the crates' public calls; mirrors
/// `OnlinePublisher::absorb` / `maybe_publish` / `publish_now`.
struct Replay {
    model: DfrClassifier,
    forward: StreamingForward,
    cache: StreamingCache,
    learner: OnlineRidge,
    w_out: Matrix,
    bias: Vec<f64>,
    pending: usize,
}

impl Replay {
    fn new(model: DfrClassifier) -> Result<Self, String> {
        let (q, p) = (model.num_classes(), model.feature_dim());
        Ok(Replay {
            learner: OnlineRidge::with_forgetting(p, q, BETA, FORGET).map_err(|e| e.to_string())?,
            forward: StreamingForward::paper(),
            cache: StreamingCache::empty(),
            w_out: Matrix::zeros(q, p),
            bias: vec![0.0; q],
            pending: 0,
            model,
        })
    }
}

enum Learner {
    Shipped(Box<OnlinePublisher>),
    Replayed(Box<Replay>),
}

/// Runs `f` and records its span.
fn timed<R>(
    spans: &mut Spans,
    epoch: Instant,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = epoch.elapsed().as_nanos() as u64;
    let r = f();
    spans.push((name, id, (start, epoch.elapsed().as_nanos() as u64)));
    r
}

impl Learner {
    /// Absorbs one sample; returns whether it succeeded.
    fn absorb(&mut self, s: &Sample, id: u64, spans: &mut Spans, epoch: Instant) -> bool {
        match self {
            Learner::Shipped(p) => p.absorb(&s.series, s.label).is_ok(),
            Learner::Replayed(r) => {
                let Replay {
                    model,
                    forward,
                    cache,
                    learner,
                    ..
                } = &mut **r;
                let ok = timed(spans, epoch, "core.online.forward", id, || {
                    forward.run_into(model, &s.series, cache)
                })
                .is_ok()
                    && timed(spans, epoch, "core.online.absorb", id, || {
                        learner.absorb_label(&cache.features, s.label)
                    })
                    .is_ok();
                r.pending += usize::from(ok);
                ok
            }
        }
    }

    /// Publishes when due (`Ok(None)` when not); `due_ns` is the start of
    /// the absorb that made it due.
    fn maybe_publish(
        &mut self,
        registry: &ModelRegistry,
        (id, due_ns): (u64, u64),
        spans: &mut Spans,
        epoch: Instant,
    ) -> Result<Option<Publish>, ()> {
        match self {
            Learner::Shipped(p) => match p.maybe_publish() {
                Ok(Some(digest)) => Ok(Some(Publish {
                    due_ns,
                    digest,
                    escalated: p.learner().last_report().escalated,
                    stages_ms: None,
                })),
                Ok(None) => Ok(None),
                Err(_) => Err(()),
            },
            Learner::Replayed(r) => {
                if r.pending < PublisherConfig::default().publish_every.max(1) {
                    return Ok(None);
                }
                let ms = |s: &(&str, u64, (u64, u64))| (s.2 .1 - s.2 .0) as f64 * 1e-6;
                let Replay {
                    model,
                    learner,
                    w_out,
                    bias,
                    ..
                } = &mut **r;
                timed(spans, epoch, "core.online.refit", id, || {
                    learner.refit_into(w_out, bias)
                })
                .map_err(|_| ())?;
                let refit_ms = ms(spans.last().expect("just recorded"));
                model.w_out_mut().copy_from(w_out);
                model.bias_mut().copy_from_slice(bias);
                let frozen = timed(spans, epoch, "serve.freeze", id, || {
                    FrozenModel::freeze(model)
                });
                let freeze_ms = ms(spans.last().expect("just recorded"));
                let digest = timed(spans, epoch, "server.registry.publish", id, || {
                    registry.publish(frozen)
                });
                let publish_ms = ms(spans.last().expect("just recorded"));
                r.pending = 0;
                Ok(Some(Publish {
                    due_ns,
                    digest,
                    escalated: r.learner.last_report().escalated,
                    stages_ms: Some([refit_ms, freeze_ms, publish_ms]),
                }))
            }
        }
    }
}

/// The publisher thread: absorbs the stream and publishes when due until
/// `stop` is raised, reporting into `shared` after every sample.
fn drive(
    mut learner: Learner,
    stream: Arc<Vec<Sample>>,
    registry: Arc<ModelRegistry>,
    shared: Arc<(Mutex<Writer>, AtomicBool)>,
    epoch: Instant,
) {
    let (writer, stop) = &*shared;
    let mut spans = Vec::new();
    for (k, sample) in stream.iter().enumerate() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let id = k as u64;
        let due = epoch.elapsed().as_nanos() as u64;
        let ok = learner.absorb(sample, id, &mut spans, epoch);
        let absorb_s = (epoch.elapsed().as_nanos() as u64 - due) as f64 * 1e-9;
        let published = if ok {
            learner.maybe_publish(&registry, (id, due), &mut spans, epoch)
        } else {
            Ok(None)
        };
        let mut w = writer.lock().expect("publisher progress lock");
        w.absorbs += 1;
        w.absorb_s += absorb_s;
        w.absorb_errors += u64::from(!ok);
        match published {
            Ok(Some(publish)) => w.publishes.push(publish),
            Ok(None) => {}
            Err(()) => w.refit_errors += 1,
        }
        w.spans.append(&mut spans);
    }
    writer.lock().expect("publisher progress lock").finished = true;
}

/// How long the publisher may take to finish its current sample once the
/// run's budget is spent; a publisher still inside a refit after that is
/// left running and ends with the process.
const GRACE: Duration = Duration::from_secs(3);

/// Reads and publishes side by side for `secs`.
fn run_mixed(inp: &Inputs, secs: f64, learner: Learner) -> Result<(Vec<Read>, Writer), String> {
    let epoch = Instant::now();
    let shared = Arc::new((Mutex::new(Writer::default()), AtomicBool::new(false)));
    let publisher = {
        let (stream, registry, shared) = (
            Arc::clone(&inp.stream),
            Arc::clone(inp.server.registry()),
            Arc::clone(&shared),
        );
        std::thread::Builder::new()
            .name("publisher".into())
            .spawn(move || drive(learner, stream, registry, shared, epoch))
            .map_err(|e| e.to_string())?
    };
    let mut client = Client::connect(inp.server.local_addr()).map_err(|e| e.to_string())?;
    client
        .set_io_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let budget = Duration::from_secs_f64(secs);
    let mut reads = Vec::new();
    let mut i = 0;
    while epoch.elapsed() < budget {
        let index = i % inp.pool.len();
        let t0 = Instant::now();
        let reply = client.request(&inp.pool[index], 0).ok();
        let t1 = Instant::now();
        let failed = reply.is_none();
        reads.push(Read {
            at_ns: t1.duration_since(epoch).as_nanos() as u64,
            rtt_us: (t1 - t0).as_secs_f64() * 1e6,
            index,
            reply,
        });
        if failed {
            break;
        }
        i += 1;
    }
    shared.1.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + GRACE;
    while !publisher.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    if publisher.is_finished() {
        publisher
            .join()
            .map_err(|_| "publisher thread panicked".to_string())?;
    }
    let mut w = shared.0.lock().expect("publisher progress lock");
    Ok((reads, std::mem::take(&mut *w)))
}

/// Publish lag per publish that some read observed: first reply stamped
/// with the digest minus the start of the absorb that made it due (ms).
fn lags(reads: &[Read], writer: &Writer) -> Vec<(usize, f64)> {
    let mut first: BTreeMap<u64, u64> = BTreeMap::new();
    for r in reads {
        if let Some(resp) = &r.reply {
            first.entry(resp.digest).or_insert(r.at_ns);
        }
    }
    writer
        .publishes
        .iter()
        .enumerate()
        .filter_map(|(k, p)| {
            first
                .get(&p.digest)
                .map(|&at| (k, at.saturating_sub(p.due_ns) as f64 * 1e-6))
        })
        .collect()
}

/// Checks every reply against the model registered under its digest,
/// which must be the golden model's or one in `published`.
fn check_replies(
    inp: &Inputs,
    reads: &[Read],
    published: &BTreeSet<u64>,
    out: &mut Outcome,
    tag: &str,
) {
    let registry = inp.server.registry();
    let mut oracles: BTreeMap<u64, Option<Oracle>> = BTreeMap::new();
    let (mut ok, mut mismatched, mut unknown) = (0u64, 0u64, 0u64);
    for r in reads {
        let Some(resp) = r.reply.as_ref().filter(|x| x.status == Status::Ok) else {
            continue;
        };
        ok += 1;
        if resp.digest != GOLDEN_DIGEST && !published.contains(&resp.digest) {
            unknown += 1;
            continue;
        }
        let oracle = oracles.entry(resp.digest).or_insert_with(|| {
            registry
                .get(resp.digest)
                .and_then(|m| Oracle::new(&m, &inp.pool).ok())
        });
        if !oracle.as_ref().is_some_and(|o| o.matches(r.index, resp)) {
            mismatched += 1;
        }
    }
    out.check(
        &format!("replies_match_digest_oracle{tag}"),
        mismatched == 0,
        format!(
            "{ok} Ok replies over {} digests, {mismatched} differ",
            oracles.len()
        ),
    );
    out.check(
        &format!("served_digests_were_published{tag}"),
        unknown == 0,
        format!("{unknown} replies stamped with a digest nobody published"),
    );
}

pub fn run(inp: &Inputs, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let shipped = OnlinePublisher::with_forgetting(
        inp.model.clone(),
        BETA,
        FORGET,
        Arc::clone(inp.server.registry()),
        PublisherConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let (reads, writer) = run_mixed(inp, secs, Learner::Shipped(Box::new(shipped)))?;
    let mut published: BTreeSet<u64> = writer.publishes.iter().map(|p| p.digest).collect();

    let rtts: Vec<f64> = reads.iter().map(|r| r.rtt_us).collect();
    let ok_reads: Vec<&Read> = reads
        .iter()
        .filter(|r| r.reply.as_ref().is_some_and(|x| x.status == Status::Ok))
        .collect();
    let within = ok_reads.iter().filter(|r| r.rtt_us <= LIMIT_US).count();
    let lag: Vec<f64> = lags(&reads, &writer).into_iter().map(|l| l.1).collect();
    let served: BTreeSet<u64> = ok_reads
        .iter()
        .filter_map(|r| r.reply.as_ref().map(|x| x.digest))
        .collect();
    let (label, tail_us) = tail(&rtts);
    out.gated.insert("wait_p50_ms", median(&lag));
    out.gated.insert("rate_per_s", reads.len() as f64 / secs);
    out.gated
        .insert("good_share", within as f64 / reads.len().max(1) as f64);
    out.detail("rtt_p50_us", median(&rtts), "us", Some(rtts.len()));
    out.detail(&format!("rtt_{label}_us"), tail_us, "us", Some(rtts.len()));
    out.detail(
        "reads_per_s",
        reads.len() as f64 / secs,
        "1/s",
        Some(reads.len()),
    );
    out.detail("publish_lag_ms", median(&lag), "ms", Some(lag.len()));
    out.detail(
        "publish_lag_max_ms",
        lag.iter().copied().fold(f64::NAN, f64::max),
        "ms",
        Some(lag.len()),
    );
    out.detail(
        "absorb_per_s",
        writer.absorbs as f64 / secs,
        "1/s",
        Some(writer.absorbs as usize),
    );
    out.detail(
        "absorb_busy_us",
        writer.absorb_s * 1e6 / writer.absorbs.max(1) as f64,
        "us",
        None,
    );
    out.ledger("reads", reads.len() as u64);
    out.ledger("reads_ok", ok_reads.len() as u64);
    let mut statuses: BTreeMap<String, u64> = BTreeMap::new();
    for r in &reads {
        let key = r
            .reply
            .as_ref()
            .map_or("transport_error".to_string(), |x| x.status.to_string());
        *statuses.entry(key).or_default() += 1;
    }
    for (k, v) in statuses.into_iter().filter(|(k, _)| k != "ok") {
        out.ledger(&format!("reads.{k}"), v);
    }
    out.ledger("absorbs", writer.absorbs);
    out.ledger("absorb_errors", writer.absorb_errors);
    out.ledger("publishes", writer.publishes.len() as u64);
    out.ledger("refit_errors", writer.refit_errors);
    out.ledger(
        "refits_escalated",
        writer.publishes.iter().filter(|p| p.escalated).count() as u64,
    );
    out.ledger("publisher_left_in_refit", u64::from(!writer.finished));
    out.ledger("digests_served", served.len() as u64);
    out.ledger(
        "publishes_never_served",
        (writer.publishes.len() - lag.len()) as u64,
    );
    out.attempted = reads.len() as u64 + writer.absorbs;
    out.failed = (reads.len() - ok_reads.len()) as u64 + writer.absorb_errors + writer.refit_errors;
    check_replies(inp, &reads, &published, out, "");
    out.check(
        "publisher_published",
        !writer.publishes.is_empty() && !lag.is_empty(),
        format!(
            "{} publishes, {} observed by reads",
            writer.publishes.len(),
            lag.len()
        ),
    );
    if !cfg.trace {
        return Ok(());
    }

    // ---- traced: the same stream through the replayed publisher ------------
    let replay = Replay::new(inp.model.clone())?;
    let (t_reads, t_writer) = run_mixed(inp, secs, Learner::Replayed(Box::new(replay)))?;
    let mut tr = Trace::new(Instant::now(), "publisher");
    for &(name, id, span) in &t_writer.spans {
        tr.record(name, id, span, None);
    }
    published.extend(t_writer.publishes.iter().map(|p| p.digest));
    check_replies(inp, &t_reads, &published, out, ".traced");
    let shipped_seq: Vec<u64> = writer.publishes.iter().map(|p| p.digest).collect();
    let replay_seq: Vec<u64> = t_writer.publishes.iter().map(|p| p.digest).collect();
    let common = shipped_seq.len().min(replay_seq.len());
    out.check(
        "replayed_digest_sequence_matches",
        common > 0 && shipped_seq[..common] == replay_seq[..common],
        format!("{common} publishes compared in order"),
    );
    let t_lags = lags(&t_reads, &t_writer);
    let swap_wait: Vec<f64> = t_lags
        .iter()
        .filter_map(|&(k, lag)| {
            t_writer.publishes[k]
                .stages_ms
                .map(|s| lag - s.iter().sum::<f64>())
        })
        .collect();
    let traces = [&tr];
    let per = |name: &str, scale: f64, n: u64| trace::busy(&traces, name) * scale / n.max(1) as f64;
    let n_pub = t_writer.publishes.len() as u64;
    out.layers.insert(
        "core.online.forward.busy_us",
        per("core.online.forward", 1e6, t_writer.absorbs),
    );
    out.layers.insert(
        "core.online.absorb.busy_us",
        per("core.online.absorb", 1e6, t_writer.absorbs),
    );
    out.layers.insert(
        "core.online.refit.busy_ms",
        per("core.online.refit", 1e3, n_pub),
    );
    out.layers
        .insert("serve.freeze.busy_ms", per("serve.freeze", 1e3, n_pub));
    out.layers.insert(
        "server.registry.publish.busy_us",
        per("server.registry.publish", 1e6, n_pub),
    );
    out.layers.insert("server.swap_wait_ms", median(&swap_wait));
    out.layers.insert("server.publishes", n_pub as f64);
    let t_served: BTreeSet<u64> = t_reads
        .iter()
        .filter_map(|r| r.reply.as_ref().map(|x| x.digest))
        .collect();
    out.layers
        .insert("server.digests_served", t_served.len() as f64);
    let t_lag: Vec<f64> = t_lags.iter().map(|l| l.1).collect();
    out.detail(
        "traced.publish_lag_ms",
        median(&t_lag),
        "ms",
        Some(t_lag.len()),
    );
    out.finish_trace(vec![tr], median(&t_lag) / median(&lag) - 1.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_checks_fail_on_a_corrupted_or_unpublished_reply() {
        let cfg = Config {
            seed: 2,
            seconds: 0.1,
            trace: false,
        };
        let inp = setup(&cfg).expect("set-up");
        let golden = inp.server.registry().active();
        let oracle = Oracle::new(&golden, &inp.pool[..1]).expect("oracle");
        let (class, probs) = oracle.expected[0].clone();
        let read = |reply: Response| Read {
            at_ns: 0,
            rtt_us: 0.0,
            index: 0,
            reply: Some(reply),
        };
        let good = Response::ok(1, GOLDEN_DIGEST, class as usize, probs);
        let verdicts = |reads: &[Read]| {
            let mut out = Outcome::default();
            check_replies(&inp, reads, &BTreeSet::new(), &mut out, "");
            out.correct()
        };
        assert!(verdicts(&[read(good.clone())]));
        let mut bad = good.clone();
        bad.probabilities[1] = f64::from_bits(bad.probabilities[1].to_bits() ^ 1);
        assert!(!verdicts(&[read(bad)]));
        let mut stranger = good;
        stranger.digest = 7;
        assert!(!verdicts(&[read(stranger)]));
    }
}
