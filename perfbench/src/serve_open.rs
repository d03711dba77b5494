//! `serve_open`: open-loop Poisson load over one pipelined loopback
//! connection to a `Server` with `ServerConfig::default()` (faults pinned
//! off) serving the golden model on ragged series `T = 20..=120`.
//!
//! One sender thread encodes each request with `frame::encode_request`
//! and writes it at its scheduled time; one receiver thread reads frames
//! with `read_frame`, decodes them and checks every reply bit for bit
//! against an in-process `ServeSession` oracle. Each round trip is timed
//! from the request's *scheduled* send time, so a stalled generator or
//! server charges every request queued behind it. Two phases run back to
//! back: `low` (the coalescer's wait sets latency) and `high` (near the
//! two-core capacity, where batches fill).

use crate::stats::{median, mix, quantile, tail, SplitMix};
use crate::trace::Trace;
use crate::{repo_path, Config, Outcome};
use dfr_data::DatasetSpec;
use dfr_linalg::Matrix;
use dfr_serve::{FrozenModel, ServeSession};
use dfr_server::frame::{
    decode_request, decode_response, encode_request, encode_response, read_frame, Request, Response,
};
use dfr_server::{
    FaultPlan, ModelRegistry, Server, ServerConfig, StatsSnapshot, Status, DEFAULT_MAX_BODY,
};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Content digest of `tests/data/golden_frozen.bin`.
pub const GOLDEN_DIGEST: u64 = 0x2120_8443_4f6f_1347;

/// Latency limit of the goodput metrics: an `Ok` reply counts only if it
/// arrives within this long of its scheduled send time.
pub const LIMIT_US: f64 = 5_000.0;

/// Phases: name, offered rate (requests/s) and share of the run.
const PHASES: [(&str, f64, f64); 2] = [("low", 500.0, 0.35), ("high", 8_000.0, 0.65)];

/// Untimed warm-up before the first phase.
const WARMUP: (f64, f64) = (500.0, 0.3);

/// Series per length in the pool (lengths 20..=120).
const PER_LENGTH: usize = 5;

/// How long the receiver waits for a missing reply before counting it as
/// never answered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(3);

pub fn load_golden() -> Result<FrozenModel, String> {
    let path = repo_path("tests/data/golden_frozen.bin");
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let model = FrozenModel::from_bytes(&bytes).map_err(|e| e.to_string())?;
    if model.content_digest() != GOLDEN_DIGEST {
        return Err(format!(
            "golden model digest {:#018x}",
            model.content_digest()
        ));
    }
    Ok(model)
}

/// The server under test: the shipped defaults with fault injection
/// pinned off (the default would read `DFR_FAULTS`).
pub fn start_server(model: FrozenModel) -> Result<Server, String> {
    let config = ServerConfig {
        faults: FaultPlan::none(),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", Arc::new(ModelRegistry::new(model)), config)
        .map_err(|e| e.to_string())
}

/// Ragged quickstart-distribution series, `PER_LENGTH` at each length
/// `T = 20..=120`, in a seeded order.
pub fn series_pool(seed: u64) -> Vec<Matrix> {
    let mut pool = Vec::new();
    for t in 20..=120 {
        let ds = DatasetSpec::new("quickstart", 3, t, 2, PER_LENGTH, 1, 0.6)
            .build(mix(seed, 100 + t as u64));
        pool.extend(ds.train().iter().map(|s| s.series.clone()));
    }
    let mut rng = SplitMix::new(mix(seed, 99));
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    pool
}

/// What a correct server answers for each pool series under `model`.
pub struct Oracle {
    digest: u64,
    pub expected: Vec<(u32, Vec<f64>)>,
}

impl Oracle {
    pub fn new(model: &FrozenModel, pool: &[Matrix]) -> Result<Self, String> {
        let mut session = ServeSession::builder(model.clone()).build();
        let expected = pool
            .iter()
            .map(|x| {
                let p = session.predict_one(x).map_err(|e| e.to_string())?;
                Ok((p.class() as u32, p.probabilities().to_vec()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Oracle {
            digest: model.content_digest(),
            expected,
        })
    }

    /// Whether `resp` is the `Ok` reply this model gives for pool entry
    /// `i`, bit for bit.
    pub fn matches(&self, i: usize, resp: &Response) -> bool {
        let (class, probs) = &self.expected[i];
        resp.status == Status::Ok
            && resp.digest == self.digest
            && resp.class == *class
            && resp.probabilities.len() == probs.len()
            && resp
                .probabilities
                .iter()
                .zip(probs)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

pub struct Inputs {
    server: Server,
    golden: FrozenModel,
    pool: Vec<Matrix>,
    oracle: Oracle,
    seed: u64,
}

pub fn setup(cfg: &Config) -> Result<Inputs, String> {
    let golden = load_golden()?;
    let pool = series_pool(cfg.seed);
    let oracle = Oracle::new(&golden, &pool)?;
    let server = start_server(golden.clone())?;
    Ok(Inputs {
        server,
        golden,
        pool,
        oracle,
        seed: cfg.seed,
    })
}

/// Poisson arrival offsets (ns from the phase start) at `rate` for `secs`.
fn schedule(seed: u64, rate: f64, secs: f64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= secs {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// The outcome of one phase.
struct Phase {
    name: &'static str,
    secs: f64,
    scheduled: usize,
    sent: usize,
    /// Round trip from the scheduled send time, per answered request (µs).
    rtt_us: Vec<f64>,
    ok: u64,
    ok_within_limit: u64,
    statuses: [u64; 8],
    mismatched: u64,
    unanswered: u64,
    late_us: Vec<f64>,
    stats: (StatsSnapshot, StatsSnapshot),
    encode_s: f64,
    decode_s: f64,
}

impl Phase {
    fn p50(&self) -> f64 {
        median(&self.rtt_us)
    }

    fn goodput(&self) -> f64 {
        self.ok_within_limit as f64 / self.secs
    }

    fn batches(&self) -> u64 {
        self.stats.1.batches - self.stats.0.batches
    }

    fn mean_fill(&self) -> f64 {
        (self.stats.1.served - self.stats.0.served) as f64 / self.batches().max(1) as f64
    }
}

/// The server's typed rejection counters over a phase, by status name.
fn rejected(p: &Phase) -> [(&'static str, u64); 7] {
    let (a, b) = (&p.stats.0, &p.stats.1);
    [
        ("busy", b.rejected_busy - a.rejected_busy),
        ("malformed", b.malformed - a.malformed),
        ("unknown_digest", b.unknown_digest - a.unknown_digest),
        ("predict_failed", b.predict_failures - a.predict_failures),
        ("shutting_down", b.shutdown_rejected - a.shutdown_rejected),
        ("internal", b.quarantined - a.quarantined),
        ("bad_input", b.bad_input - a.bad_input),
    ]
}

/// Sends one phase's schedule over `stream` and reads every reply.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    inp: &Inputs,
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    next_id: &mut u64,
    (name, rate, secs): (&'static str, f64, f64),
    seed: u64,
    traces: Option<&mut Vec<Trace>>,
) -> Phase {
    let sched = schedule(seed, rate, secs);
    let n = sched.len();
    let base = *next_id;
    *next_id += n as u64;
    let pool = &inp.pool;
    let before = inp.server.stats();
    let traced = traces.is_some();
    let t0 = Instant::now();
    let mut tx = Trace::new(t0, "sender");
    let mut rx = Trace::new(t0, "receiver");
    let ((late_us, encode_s), (recv, decode_s)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut buf = Vec::new();
            let mut late = Vec::with_capacity(n);
            let mut encode_s = 0.0;
            let mut w = stream;
            for (i, &at) in sched.iter().enumerate() {
                let now = t0.elapsed().as_nanos() as u64;
                if now < at {
                    std::thread::sleep(Duration::from_nanos(at - now));
                }
                let id = base + i as u64;
                let req = Request {
                    request_id: id,
                    digest_pin: 0,
                    series: pool[id as usize % pool.len()].clone(),
                };
                let sent = t0.elapsed().as_nanos() as u64;
                late.push(sent.saturating_sub(at) as f64 * 1e-3);
                if traced {
                    tx.enter("frame.encode", id);
                    encode_request(&req, &mut buf);
                    encode_s += tx.exit();
                } else {
                    encode_request(&req, &mut buf);
                }
                if w.write_all(&buf).is_err() {
                    break;
                }
            }
            (late, encode_s)
        });
        let receiver = s.spawn(|| {
            let mut recv: Vec<Option<(u64, Response)>> = vec![None; n];
            let mut buf = Vec::new();
            let mut decode_s = 0.0;
            let mut got = 0;
            while got < n {
                let Ok(Some(body)) = read_frame(reader, &mut buf, DEFAULT_MAX_BODY) else {
                    break;
                };
                let at = t0.elapsed().as_nanos() as u64;
                let resp = if traced {
                    rx.enter("frame.decode", 0);
                    let r = decode_response(body);
                    decode_s += rx.exit();
                    r
                } else {
                    decode_response(body)
                };
                let Ok(resp) = resp else { break };
                let Some(slot) = resp
                    .request_id
                    .checked_sub(base)
                    .and_then(|i| recv.get_mut(i as usize))
                else {
                    break;
                };
                if slot.is_none() {
                    got += 1;
                }
                *slot = Some((at, resp));
            }
            (recv, decode_s)
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let after = inp.server.stats();
    let mut p = Phase {
        name,
        secs,
        scheduled: n,
        sent: late_us.len(),
        rtt_us: Vec::with_capacity(n),
        ok: 0,
        ok_within_limit: 0,
        statuses: [0; 8],
        mismatched: 0,
        unanswered: 0,
        late_us,
        stats: (before, after),
        encode_s,
        decode_s,
    };
    for (i, r) in recv.iter().enumerate() {
        let Some((at, resp)) = r else {
            p.unanswered += 1;
            continue;
        };
        let id = base + i as u64;
        let rtt = at.saturating_sub(sched[i]) as f64 * 1e-3;
        p.rtt_us.push(rtt);
        p.statuses[resp.status.code() as usize] += 1;
        if resp.status == Status::Ok {
            p.ok += 1;
            if inp.oracle.matches(id as usize % pool.len(), resp) {
                p.ok_within_limit += u64::from(rtt <= LIMIT_US);
            } else {
                p.mismatched += 1;
            }
        }
    }
    if let Some(traces) = traces {
        traces.push(tx);
        traces.push(rx);
    }
    p
}

/// Runs the warm-up and both phases over one connection.
fn run_load(
    inp: &Inputs,
    secs: f64,
    seed: u64,
    mut traces: Option<&mut Vec<Trace>>,
) -> Result<Vec<Phase>, String> {
    let stream = TcpStream::connect(inp.server.local_addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader =
        BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
    let mut next_id = 1;
    let warm = ("warmup", WARMUP.0, WARMUP.1);
    run_phase(
        inp,
        &stream,
        &mut reader,
        &mut next_id,
        warm,
        mix(seed, 200),
        None,
    );
    let mut phases = Vec::new();
    for (k, &(name, rate, share)) in PHASES.iter().enumerate() {
        let spec = (name, rate, secs * share);
        let t = traces.as_deref_mut();
        phases.push(run_phase(
            inp,
            &stream,
            &mut reader,
            &mut next_id,
            spec,
            mix(seed, 201 + k as u64),
            t,
        ));
    }
    Ok(phases)
}

/// Per-request compute of `ServeSession::predict_batch` at batches of
/// `fill` pool series, in µs (median of five timed sweeps).
fn predict_batch_us(inp: &Inputs, fill: usize, tr: &mut Trace) -> Result<f64, String> {
    let fill = fill.clamp(1, 64);
    let mut session = ServeSession::builder(inp.golden.clone())
        .max_batch(64)
        .build();
    let batches: Vec<&[Matrix]> = inp.pool.chunks_exact(fill).collect();
    let mut per_request = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for b in &batches {
            tr.enter("serve.predict_batch", b.len() as u64);
            session.predict_batch(b).map_err(|e| e.to_string())?;
            tr.exit();
        }
        per_request.push(t0.elapsed().as_secs_f64() * 1e6 / (batches.len() * fill) as f64);
    }
    Ok(median(&per_request))
}

/// The server's half of the codec per request, in µs: `decode_request`
/// of a request frame body plus `encode_response` of its reply.
fn server_codec_us(inp: &Inputs, tr: &mut Trace) -> (f64, f64) {
    let mut frame = Vec::new();
    let mut reply = Vec::new();
    let (mut dec, mut enc) = (0.0, 0.0);
    for (i, x) in inp.pool.iter().enumerate() {
        let req = Request {
            request_id: i as u64,
            digest_pin: 0,
            series: x.clone(),
        };
        encode_request(&req, &mut frame);
        tr.enter("frame.decode", i as u64);
        let req = decode_request(&frame[4..]).expect("own frame decodes");
        dec += tr.exit();
        let (class, probs) = &inp.oracle.expected[i];
        let resp = Response::ok(
            req.request_id,
            GOLDEN_DIGEST,
            *class as usize,
            probs.clone(),
        );
        tr.enter("frame.encode", i as u64);
        encode_response(&resp, &mut reply);
        enc += tr.exit();
    }
    let n = inp.pool.len() as f64;
    (dec * 1e6 / n, enc * 1e6 / n)
}

fn report(out: &mut Outcome, phases: &[Phase]) {
    for p in phases {
        let (label, tail_us) = tail(&p.rtt_us);
        out.detail(
            &format!("rtt_p50_us.{}", p.name),
            p.p50(),
            "us",
            Some(p.rtt_us.len()),
        );
        out.detail(
            &format!("rtt_{label}_us.{}", p.name),
            tail_us,
            "us",
            Some(p.rtt_us.len()),
        );
        out.detail(
            &format!("goodput_rps.{}", p.name),
            p.goodput(),
            "1/s",
            Some(p.sent),
        );
        out.detail(
            &format!("offered_rps.{}", p.name),
            p.sent as f64 / p.secs,
            "1/s",
            None,
        );
        out.detail(
            &format!("gen.late_p99_us.{}", p.name),
            quantile(&p.late_us, 0.99),
            "us",
            Some(p.late_us.len()),
        );
        out.detail(
            &format!("server.mean_fill.{}", p.name),
            p.mean_fill(),
            "count",
            Some(p.batches() as usize),
        );
        out.ledger(&format!("{}.sent", p.name), p.sent as u64);
        out.ledger(&format!("{}.ok", p.name), p.ok);
        for (code, &count) in p.statuses.iter().enumerate().skip(1) {
            if count > 0 {
                let status = Status::from_code(code as u16).expect("counted codes are valid");
                out.ledger(&format!("{}.status.{status}", p.name), count);
            }
        }
        out.ledger(&format!("{}.never_answered", p.name), p.unanswered);
        out.ledger(&format!("{}.mismatched", p.name), p.mismatched);
        out.attempted += p.sent as u64;
        out.failed += p.sent as u64 - p.ok;
    }
}

/// Most the generator may fall behind its schedule, as a share of the
/// phase. Round trips are timed from the schedule, so a shorter stall is
/// charged to the requests behind it and reported; a generator further
/// behind did not offer the phase's load, and the run is rejected.
const MAX_BEHIND: f64 = 0.01;

/// Whether the generator offered the phase's load: it sent every
/// scheduled request and never fell behind by more than `MAX_BEHIND` of
/// the phase.
fn on_schedule(late_us: &[f64], sent: usize, scheduled: usize, secs: f64) -> bool {
    let behind = late_us.iter().copied().fold(0.0, f64::max);
    sent == scheduled && behind <= MAX_BEHIND * secs * 1e6
}

fn check(out: &mut Outcome, phases: &[Phase]) {
    for p in phases {
        out.check(
            &format!("replies_match_oracle.{}", p.name),
            p.mismatched == 0,
            format!(
                "{} Ok replies compared bit for bit, {} differ",
                p.ok, p.mismatched
            ),
        );
        let late = p.late_us.iter().copied().fold(0.0, f64::max);
        out.check(
            &format!("generator_on_schedule.{}", p.name),
            on_schedule(&p.late_us, p.sent, p.scheduled, p.secs),
            format!(
                "sent {} of {}; most behind {:.1} ms, limit {:.1} ms",
                p.sent,
                p.scheduled,
                late * 1e-3,
                MAX_BEHIND * p.secs * 1e3
            ),
        );
    }
}

pub fn run(inp: &Inputs, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let phases = run_load(inp, secs, inp.seed, None)?;
    report(out, &phases);
    check(out, &phases);
    let (low, high) = (&phases[0], &phases[1]);
    out.gated.insert("wait_p50_ms", low.p50() * 1e-3);
    out.gated.insert("rate_per_s", high.goodput());
    out.gated.insert(
        "good_share",
        high.ok_within_limit as f64 / high.sent.max(1) as f64,
    );
    out.detail("goodput_limit_us", LIMIT_US, "us", None);
    if !cfg.trace {
        return Ok(());
    }

    let mut traces = Vec::new();
    let traced = run_load(inp, secs, inp.seed, Some(&mut traces))?;
    check(out, &traced);
    let mut micro = Trace::new(Instant::now(), "micro");
    let (server_dec, server_enc) = server_codec_us(inp, &mut micro);
    for p in &traced {
        let answered = p.rtt_us.len().max(1) as f64;
        let encode = p.encode_s * 1e6 / p.sent.max(1) as f64 + server_enc;
        let decode = p.decode_s * 1e6 / answered + server_dec;
        let fill = p.mean_fill();
        let per_request = predict_batch_us(inp, fill.round() as usize, &mut micro)?;
        let metric = |stem: &str| -> &'static str {
            let name = format!("{stem}.{}", p.name);
            crate::PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| *n == name)
                .expect("per-phase metric is listed")
        };
        out.layers.insert(metric("frame.encode.busy_us"), encode);
        out.layers.insert(metric("frame.decode.busy_us"), decode);
        out.layers
            .insert(metric("serve.predict_batch.busy_us"), per_request);
        out.layers
            .insert(metric("server.batches"), p.batches() as f64);
        out.layers.insert(metric("server.mean_fill"), fill);
        for (status, count) in rejected(p) {
            out.layers
                .insert(metric(&format!("server.rejected.{status}")), count as f64);
        }
        out.layers
            .insert(metric("gen.late_p99_us"), quantile(&p.late_us, 0.99));
        // A request waits for its whole batch: compute is the batch's.
        let unattributed = p.p50() - encode - decode - per_request * fill.max(1.0);
        out.layers
            .insert(metric("server.unattributed_us"), unattributed);
        out.detail(
            &format!("traced.rtt_p50_us.{}", p.name),
            p.p50(),
            "us",
            Some(p.rtt_us.len()),
        );
    }
    traces.push(micro);
    out.finish_trace(traces, traced[0].p50() / phases[0].p50() - 1.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_the_served_reply_and_rejects_corrupted_ones() {
        let golden = load_golden().expect("golden model");
        let pool: Vec<Matrix> = series_pool(5).into_iter().take(8).collect();
        let oracle = Oracle::new(&golden, &pool).expect("oracle");
        let (class, probs) = oracle.expected[3].clone();
        let good = Response::ok(9, GOLDEN_DIGEST, class as usize, probs);
        assert!(oracle.matches(3, &good));
        let mut bad = good.clone();
        bad.probabilities[0] = f64::from_bits(bad.probabilities[0].to_bits() ^ 1);
        assert!(!oracle.matches(3, &bad));
        let mut bad = good.clone();
        bad.digest ^= 1;
        assert!(!oracle.matches(3, &bad));
        assert!(!oracle.matches(3, &Response::reject(9, Status::Busy, 1)));
    }

    #[test]
    fn generator_check_rejects_a_late_or_short_schedule() {
        let mut late = vec![100.0; 1000];
        late[500] = 9_000.0;
        assert!(on_schedule(&late, 1000, 1000, 1.0));
        assert!(!on_schedule(&late, 999, 1000, 1.0));
        late[999] = 11_000.0;
        assert!(!on_schedule(&late, 1000, 1000, 1.0));
    }

    #[test]
    fn poisson_schedule_is_seeded() {
        let a = schedule(1, 1000.0, 2.0);
        assert_eq!(a, schedule(1, 1000.0, 2.0));
        assert_ne!(a, schedule(2, 1000.0, 2.0));
        assert!((1800..2200).contains(&a.len()));
    }
}
