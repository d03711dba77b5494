//! One DPRR feature path: the constant-memory streaming forward, the
//! materialising training forward and the frozen serving kernel must
//! produce the same bits, and reject the same inputs.
//!
//! The streaming pass (`dfr_core::streaming`) is what the online publisher
//! runs on live traffic; the serving session answers that traffic. Any
//! bitwise drift between them is train/serve feature skew, so every
//! comparison here is on `to_bits`, never a tolerance.

use dfr::core::streaming::{StreamingCache, StreamingForward};
use dfr::core::trainer::features_for;
use dfr::core::{CoreError, DfrClassifier};
use dfr::data::{drifting_stream, DatasetSpec, DriftKind};
use dfr::linalg::Matrix;
use dfr::reservoir::ReservoirError;
use dfr::serve::{FrozenModel, ServeError, ServeSession};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A classifier with non-trivial reservoir gains and readout.
fn model(nx: usize, channels: usize, classes: usize, seed: u64) -> DfrClassifier {
    let mut m = DfrClassifier::paper_default(nx, channels, classes, seed).expect("model");
    m.reservoir_mut().set_params(0.07, 0.2).expect("params");
    let nr = m.feature_dim();
    for c in 0..classes {
        for j in 0..nr {
            m.w_out_mut()[(c, j)] = 0.3 * ((c * nr + j) as f64 * 0.37).sin();
        }
        m.bias_mut()[c] = 0.1 * c as f64 - 0.05;
    }
    m
}

/// A `t × channels` series with exact zeros (and a −0.0) mixed in, so the
/// DPRR row skip and the signed-zero behaviour of every kernel are hit.
fn series(t: usize, channels: usize, phase: f64) -> Matrix {
    let data = (0..t * channels)
        .map(|i| match i % 7 {
            3 => 0.0,
            5 => -0.0,
            _ => ((i as f64) * 0.53 + phase).sin(),
        })
        .collect();
    Matrix::from_vec(t, channels, data).expect("sized")
}

/// Streaming features, logits and probabilities equal the training
/// forward pass; the streamed probabilities equal the frozen model's.
fn assert_one_path(
    m: &DfrClassifier,
    session: &mut ServeSession,
    cache: &mut StreamingCache,
    u: &Matrix,
    what: &str,
) {
    let standard = m.forward(u).expect("forward");
    for window in [1usize, 3] {
        StreamingForward::new(window)
            .expect("window")
            .run_into(m, u, cache)
            .expect("streaming");
        assert_eq!(
            bits(&cache.features),
            bits(&standard.features),
            "{what} w={window}: features"
        );
        assert_eq!(
            bits(&cache.logits),
            bits(&standard.logits),
            "{what} w={window}: logits"
        );
        assert_eq!(
            bits(&cache.probs),
            bits(&standard.probs),
            "{what} w={window}: probs"
        );
    }
    let served = session.predict_one(u).expect("serve");
    assert_eq!(
        bits(served.probabilities()),
        bits(&cache.probs),
        "{what}: served probs"
    );
    assert_eq!(served.class(), standard.prediction(), "{what}: class");
}

#[test]
fn streaming_forward_equals_training_and_serving_bitwise() {
    for (nx, channels, classes) in [(5usize, 1usize, 2usize), (10, 2, 3), (30, 13, 4)] {
        let m = model(nx, channels, classes, nx as u64);
        let mut session = ServeSession::builder(FrozenModel::freeze(&m)).build();
        let mut cache = StreamingCache::empty();
        for t in 1..=2 * nx {
            let u = series(t, channels, nx as f64);
            assert_one_path(
                &m,
                &mut session,
                &mut cache,
                &u,
                &format!("nx={nx} C={channels} T={t}"),
            );
        }
    }
}

#[test]
fn streaming_forward_equals_serving_on_drifting_stream() {
    // The online publisher's traffic: the quickstart shape under gradual
    // drift.
    let spec = DatasetSpec::new("quickstart", 3, 60, 2, 0, 0, 0.6);
    let stream = drifting_stream(&spec, DriftKind::Gradual, 11, 12).expect("stream");
    let m = model(10, 2, 3, 4);
    let mut session = ServeSession::builder(FrozenModel::freeze(&m)).build();
    let mut cache = StreamingCache::empty();
    for (i, sample) in stream.iter().enumerate() {
        assert_one_path(
            &m,
            &mut session,
            &mut cache,
            &sample.series,
            &format!("sample {i}"),
        );
    }
}

#[test]
fn empty_series_is_rejected_by_every_forward_path() {
    let m = model(5, 2, 3, 1);
    let empty = Matrix::zeros(0, 2);
    let is_empty = |e: &CoreError| matches!(e, CoreError::Reservoir(ReservoirError::EmptySeries));

    let err = m.forward(&empty).unwrap_err();
    assert!(is_empty(&err), "forward: {err}");
    let err = m.predict(&empty).unwrap_err();
    assert!(is_empty(&err), "predict: {err}");
    let err = features_for(&m, [&empty]).unwrap_err();
    assert!(is_empty(&err), "features_for: {err}");
    let err = StreamingForward::paper().run(&m, &empty).unwrap_err();
    assert!(is_empty(&err), "streaming: {err}");

    let mut session = ServeSession::builder(FrozenModel::freeze(&m)).build();
    let err = session.predict_one(&empty).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Sample {
                index: 0,
                source: ReservoirError::EmptySeries
            }
        ),
        "serve: {err}"
    );
}
