//! The frozen model: every parameter a prediction needs, in a versioned,
//! digestible wire format.

use crate::ServeError;
use dfr_core::DfrClassifier;
use dfr_linalg::Matrix;
use dfr_reservoir::representation::Dprr;

/// Version of the serialized layout. Bumped whenever the byte layout
/// changes; [`FrozenModel::from_bytes`] rejects other versions.
pub const FORMAT_VERSION: u32 = 1;

/// Magic prefix of the wire format.
const MAGIC: [u8; 4] = *b"DFRZ";

/// Flag bit: per-channel normalization constants are present.
const FLAG_NORM: u32 = 1;

/// A trained DFR classifier frozen for serving: input mask, reservoir
/// gains `(A, B)`, readout weights and bias, and (optionally) the
/// per-channel standardization constants fitted on the training split —
/// everything [`predict_batch_into`](FrozenModel::predict_batch_into)
/// needs, and nothing training-only.
///
/// The model serializes to one contiguous, versioned byte layout
/// ([`FrozenModel::to_bytes`], documented in `DESIGN.md` §11) whose
/// FNV-1a-64 content digest ([`FrozenModel::content_digest`]) pins the
/// exact bit pattern of every parameter: two frozen models predict
/// bitwise identically **iff** their digests match, which is what the
/// golden snapshot test in `tests/golden.rs` leans on.
///
/// Freezing is restricted to the paper's evaluation configuration
/// (linear `f`): a nonlinearity tag would need a format-version bump.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenModel {
    /// Nonlinear-path gain `A`.
    pub(crate) a: f64,
    /// Delay-line leak `B`.
    pub(crate) b: f64,
    /// Input mask, `N_x × C`.
    pub(crate) mask: Matrix,
    /// Readout weights, `N_y × N_x (N_x + 1)`.
    pub(crate) w_out: Matrix,
    /// Readout bias, length `N_y`.
    pub(crate) bias: Vec<f64>,
    /// Per-channel `(means, stds)` applied to raw input before masking.
    pub(crate) norm: Option<(Vec<f64>, Vec<f64>)>,
    /// FNV-1a-64 over the serialized payload (everything but the trailing
    /// digest itself), fixed at construction.
    digest: u64,
}

impl FrozenModel {
    /// Extracts a frozen model from a trained classifier (no
    /// normalization constants — inputs are served as-is; see
    /// [`FrozenModel::with_normalization`]).
    pub fn freeze(model: &DfrClassifier) -> Self {
        FrozenModel::assemble(
            model.reservoir().a(),
            model.reservoir().b(),
            model.reservoir().mask().matrix().clone(),
            model.w_out().clone(),
            model.bias().to_vec(),
            None,
        )
    }

    /// Attaches per-channel standardization constants (the training-split
    /// statistics of `dfr_data::normalize::Standardizer`): incoming raw
    /// series are transformed elementwise as `(x − mean) / std` before
    /// masking — the exact expression the training pipeline applies, so
    /// serving raw traffic matches training on pre-standardized data
    /// bitwise.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Normalization`] if `means`/`stds` do not both
    /// have one entry per input channel.
    pub fn with_normalization(self, means: Vec<f64>, stds: Vec<f64>) -> Result<Self, ServeError> {
        let channels = self.channels();
        if means.len() != channels || stds.len() != channels {
            return Err(ServeError::Normalization {
                expected: channels,
                found: if means.len() != channels {
                    means.len()
                } else {
                    stds.len()
                },
            });
        }
        Ok(FrozenModel::assemble(
            self.a,
            self.b,
            self.mask,
            self.w_out,
            self.bias,
            Some((means, stds)),
        ))
    }

    /// Builds the struct and fixes its content digest.
    fn assemble(
        a: f64,
        b: f64,
        mask: Matrix,
        w_out: Matrix,
        bias: Vec<f64>,
        norm: Option<(Vec<f64>, Vec<f64>)>,
    ) -> Self {
        let mut frozen = FrozenModel {
            a,
            b,
            mask,
            w_out,
            bias,
            norm,
            digest: 0,
        };
        frozen.digest = fnv1a64(&frozen.payload_bytes());
        frozen
    }

    /// Number of virtual nodes `N_x`.
    pub fn nodes(&self) -> usize {
        self.mask.rows()
    }

    /// Number of input channels `C`.
    pub fn channels(&self) -> usize {
        self.mask.cols()
    }

    /// Number of classes `N_y`.
    pub fn num_classes(&self) -> usize {
        self.bias.len()
    }

    /// DPRR feature dimension `N_r = N_x (N_x + 1)`.
    pub fn feature_dim(&self) -> usize {
        Dprr.dim(self.nodes())
    }

    /// The reservoir gain `A`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// The delay-line leak `B`.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Per-channel `(means, stds)` applied before masking, if attached.
    pub fn normalization(&self) -> Option<(&[f64], &[f64])> {
        self.norm
            .as_ref()
            .map(|(m, s)| (m.as_slice(), s.as_slice()))
    }

    /// FNV-1a-64 digest of the serialized payload. Two frozen models
    /// predict bitwise identically iff their digests are equal.
    pub fn content_digest(&self) -> u64 {
        self.digest
    }

    /// Thaws the frozen parameters back into a trainable classifier
    /// (normalization constants, which [`DfrClassifier`] does not model,
    /// are dropped: the thawed classifier expects pre-normalized input).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] if the parameters do not form a valid
    /// classifier (possible only for hand-built byte streams).
    pub fn thaw(&self) -> Result<DfrClassifier, ServeError> {
        Ok(DfrClassifier::from_parts(
            self.mask.clone(),
            self.a,
            self.b,
            self.w_out.clone(),
            self.bias.to_vec(),
        )?)
    }

    /// Serializes to the versioned wire format (`DESIGN.md` §11):
    ///
    /// ```text
    /// magic "DFRZ" · u32 version · u32 flags · u32 N_x · u32 C · u32 N_y
    /// f64 A · f64 B · mask (N_x·C) · w_out (N_y·N_r) · bias (N_y)
    /// [means (C) · stds (C)]           — iff flags bit 0
    /// u64 digest                       — FNV-1a-64 of everything above
    /// ```
    ///
    /// All integers and floats little-endian; matrices row-major.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = self.payload_bytes();
        bytes.extend_from_slice(&self.digest.to_le_bytes());
        bytes
    }

    /// The serialized stream minus the trailing digest.
    fn payload_bytes(&self) -> Vec<u8> {
        let nx = self.nodes();
        let c = self.channels();
        let ny = self.num_classes();
        let floats =
            2 + nx * c + ny * self.feature_dim() + ny + self.norm.as_ref().map_or(0, |_| 2 * c);
        let mut bytes = Vec::with_capacity(24 + 8 * floats);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let flags = if self.norm.is_some() { FLAG_NORM } else { 0 };
        bytes.extend_from_slice(&flags.to_le_bytes());
        bytes.extend_from_slice(&(nx as u32).to_le_bytes());
        bytes.extend_from_slice(&(c as u32).to_le_bytes());
        bytes.extend_from_slice(&(ny as u32).to_le_bytes());
        let mut push = |v: f64| bytes.extend_from_slice(&v.to_le_bytes());
        push(self.a);
        push(self.b);
        for &v in self.mask.as_slice() {
            push(v);
        }
        for &v in self.w_out.as_slice() {
            push(v);
        }
        for &v in &self.bias {
            push(v);
        }
        if let Some((means, stds)) = &self.norm {
            for &v in means {
                push(v);
            }
            for &v in stds {
                push(v);
            }
        }
        bytes
    }

    /// Deserializes a frozen model, verifying magic, version, element
    /// counts and the trailing content digest.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Format`] for wrong magic/version or inconsistent
    ///   lengths.
    /// * [`ServeError::Digest`] if the payload does not hash to the stored
    ///   digest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let fail = |detail: &str| ServeError::Format {
            detail: detail.to_string(),
        };
        if bytes.len() < 24 + 8 {
            return Err(fail("stream shorter than the fixed header"));
        }
        if bytes[..4] != MAGIC {
            return Err(fail("bad magic (expected \"DFRZ\")"));
        }
        let u32_at =
            |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let version = u32_at(4);
        if version != FORMAT_VERSION {
            return Err(ServeError::Format {
                detail: format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
            });
        }
        let flags = u32_at(8);
        if flags & !FLAG_NORM != 0 {
            return Err(ServeError::Format {
                detail: format!("unknown flag bits {:#x}", flags & !FLAG_NORM),
            });
        }
        let nx = u32_at(12) as usize;
        let c = u32_at(16) as usize;
        let ny = u32_at(20) as usize;
        if nx == 0 || c == 0 || ny == 0 {
            return Err(fail("zero-sized dimension"));
        }
        // Sanity cap so size arithmetic below cannot overflow on a
        // hand-built header (2²⁰ nodes is far beyond any DFR).
        if nx > 1 << 20 || c > 1 << 20 || ny > 1 << 20 {
            return Err(fail("dimension exceeds the 2^20 sanity cap"));
        }
        let nr = nx * (nx + 1);
        let has_norm = flags & FLAG_NORM != 0;
        let floats = 2 + nx * c + ny * nr + ny + if has_norm { 2 * c } else { 0 };
        let expected_len = 24 + 8 * floats + 8;
        if bytes.len() != expected_len {
            return Err(ServeError::Format {
                detail: format!(
                    "stream is {} bytes, header implies {expected_len}",
                    bytes.len()
                ),
            });
        }
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        let computed = fnv1a64(&bytes[..bytes.len() - 8]);
        if stored != computed {
            return Err(ServeError::Digest { stored, computed });
        }
        // Non-finite quarantine (`DESIGN.md` §15): the digest pins bytes,
        // not sanity — a stream whose parameters carry NaN/inf hashes
        // consistently yet would poison every prediction served from it.
        // Reject it here so a corrupted-at-rest model can never be
        // published.
        if let Some(i) = bytes[24..bytes.len() - 8]
            .chunks_exact(8)
            .map(|ch| f64::from_le_bytes(ch.try_into().expect("8 bytes")))
            .position(|v| !v.is_finite())
        {
            return Err(ServeError::Format {
                detail: format!("non-finite parameter at float index {i}"),
            });
        }
        let mut floats = bytes[24..bytes.len() - 8]
            .chunks_exact(8)
            .map(|ch| f64::from_le_bytes(ch.try_into().expect("8 bytes")));
        let mut take = |n: usize| -> Vec<f64> { floats.by_ref().take(n).collect() };
        let a = take(1)[0];
        let b = take(1)[0];
        let mask = Matrix::from_vec(nx, c, take(nx * c)).expect("sized above");
        let w_out = Matrix::from_vec(ny, nr, take(ny * nr)).expect("sized above");
        let bias = take(ny);
        let norm = has_norm.then(|| (take(c), take(c)));
        let frozen = FrozenModel::assemble(a, b, mask, w_out, bias, norm);
        debug_assert_eq!(frozen.digest, stored, "digest is over the payload bits");
        Ok(frozen)
    }

    /// Describes the **first divergent field** between two frozen models
    /// (field name, flat index where applicable, and both values with
    /// their bit patterns), or `None` when they are identical. The golden
    /// snapshot test uses this to turn a digest mismatch into an
    /// actionable diff.
    pub fn diff(&self, other: &FrozenModel) -> Option<String> {
        fn dims(m: &FrozenModel) -> [usize; 3] {
            [m.nodes(), m.channels(), m.num_classes()]
        }
        if dims(self) != dims(other) {
            return Some(format!(
                "dimensions (N_x, C, N_y): {:?} vs {:?}",
                dims(self),
                dims(other)
            ));
        }
        let scalar = |name: &str, x: f64, y: f64| {
            (x.to_bits() != y.to_bits()).then(|| {
                format!(
                    "{name}: {x:?} ({:#018x}) vs {y:?} ({:#018x})",
                    x.to_bits(),
                    y.to_bits()
                )
            })
        };
        let slice = |name: &str, xs: &[f64], ys: &[f64]| {
            if xs.len() != ys.len() {
                return Some(format!("{name}: {} vs {} elements", xs.len(), ys.len()));
            }
            xs.iter()
                .zip(ys)
                .position(|(x, y)| x.to_bits() != y.to_bits())
                .map(|i| {
                    format!(
                        "{name}[{i}]: {:?} ({:#018x}) vs {:?} ({:#018x})",
                        xs[i],
                        xs[i].to_bits(),
                        ys[i],
                        ys[i].to_bits()
                    )
                })
        };
        scalar("A", self.a, other.a)
            .or_else(|| scalar("B", self.b, other.b))
            .or_else(|| slice("mask", self.mask.as_slice(), other.mask.as_slice()))
            .or_else(|| slice("w_out", self.w_out.as_slice(), other.w_out.as_slice()))
            .or_else(|| slice("bias", &self.bias, &other.bias))
            .or_else(|| match (&self.norm, &other.norm) {
                (None, None) => None,
                (Some(_), None) | (None, Some(_)) => {
                    Some("normalization: present vs absent".to_string())
                }
                (Some((m1, s1)), Some((m2, s2))) => {
                    slice("norm.means", m1, m2).or_else(|| slice("norm.stds", s1, s2))
                }
            })
    }
}

/// FNV-1a 64-bit hash — dependency-free, stable across platforms, and
/// sensitive to every byte (which is all a bit-identity pin needs; this is
/// an integrity digest, not a cryptographic one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DfrClassifier {
        let mut m = DfrClassifier::paper_default(4, 2, 3, 1).unwrap();
        m.reservoir_mut().set_params(0.05, 0.2).unwrap();
        for j in 0..m.feature_dim() {
            m.w_out_mut()[(j % 3, j)] = 0.01 * (j as f64 + 1.0);
        }
        m.bias_mut()[1] = -0.25;
        m
    }

    #[test]
    fn freeze_captures_parameters() {
        let m = model();
        let f = FrozenModel::freeze(&m);
        assert_eq!(f.nodes(), 4);
        assert_eq!(f.channels(), 2);
        assert_eq!(f.num_classes(), 3);
        assert_eq!(f.feature_dim(), 20);
        assert_eq!(f.a(), 0.05);
        assert_eq!(f.b(), 0.2);
        assert!(f.normalization().is_none());
        assert_eq!(f.thaw().unwrap(), m);
    }

    #[test]
    fn round_trip_preserves_digest_and_bits() {
        let f = FrozenModel::freeze(&model());
        let bytes = f.to_bytes();
        let g = FrozenModel::from_bytes(&bytes).unwrap();
        assert_eq!(g, f);
        assert_eq!(g.content_digest(), f.content_digest());
        assert_eq!(g.to_bytes(), bytes);
        assert_eq!(f.diff(&g), None);
    }

    #[test]
    fn round_trip_with_normalization() {
        let f = FrozenModel::freeze(&model())
            .with_normalization(vec![0.1, -0.3], vec![1.5, 0.7])
            .unwrap();
        let g = FrozenModel::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g, f);
        let (means, stds) = g.normalization().unwrap();
        assert_eq!(means, &[0.1, -0.3]);
        assert_eq!(stds, &[1.5, 0.7]);
    }

    #[test]
    fn normalization_validates_channel_count() {
        let f = FrozenModel::freeze(&model());
        assert!(matches!(
            f.clone().with_normalization(vec![0.0; 3], vec![1.0; 2]),
            Err(ServeError::Normalization {
                expected: 2,
                found: 3
            })
        ));
        assert!(f.with_normalization(vec![0.0; 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn digest_tracks_every_parameter() {
        let m = model();
        let base = FrozenModel::freeze(&m).content_digest();
        let mut m2 = m.clone();
        m2.bias_mut()[0] += 1e-300; // smallest visible change
        assert_ne!(FrozenModel::freeze(&m2).content_digest(), base);
        let mut m3 = m.clone();
        m3.reservoir_mut().set_params(0.05, 0.2000000001).unwrap();
        assert_ne!(FrozenModel::freeze(&m3).content_digest(), base);
        assert_eq!(FrozenModel::freeze(&m.clone()).content_digest(), base);
    }

    #[test]
    fn corrupted_streams_are_rejected() {
        let f = FrozenModel::freeze(&model());
        let good = f.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            FrozenModel::from_bytes(&bad_magic),
            Err(ServeError::Format { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            FrozenModel::from_bytes(&bad_version),
            Err(ServeError::Format { .. })
        ));

        let mut flipped = good.clone();
        let mid = good.len() / 2;
        flipped[mid] ^= 1;
        assert!(matches!(
            FrozenModel::from_bytes(&flipped),
            Err(ServeError::Digest { .. })
        ));

        assert!(matches!(
            FrozenModel::from_bytes(&good[..good.len() - 3]),
            Err(ServeError::Format { .. })
        ));
        assert!(FrozenModel::from_bytes(&[]).is_err());
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        let mut m = model();
        m.w_out_mut()[(1, 3)] = f64::NAN;
        let bytes = FrozenModel::freeze(&m).to_bytes();
        // The digest is over the raw bytes, so it still verifies — the
        // quarantine has to catch the poisoned parameter explicitly.
        let err = FrozenModel::from_bytes(&bytes).unwrap_err();
        match err {
            ServeError::Format { detail } => {
                assert!(detail.contains("non-finite"), "unexpected detail: {detail}")
            }
            other => panic!("expected Format, got {other:?}"),
        }

        let mut m2 = model();
        m2.bias_mut()[0] = f64::INFINITY;
        assert!(matches!(
            FrozenModel::from_bytes(&FrozenModel::freeze(&m2).to_bytes()),
            Err(ServeError::Format { .. })
        ));
    }

    #[test]
    fn diff_reports_first_divergent_field() {
        let m = model();
        let f = FrozenModel::freeze(&m);
        let mut m2 = m.clone();
        m2.w_out_mut()[(0, 5)] += 1.0;
        let g = FrozenModel::freeze(&m2);
        let d = f.diff(&g).unwrap();
        assert!(d.starts_with("w_out[5]"), "unexpected diff: {d}");

        let mut m3 = m.clone();
        m3.reservoir_mut().set_params(0.06, 0.2).unwrap();
        let d = f.diff(&FrozenModel::freeze(&m3)).unwrap();
        assert!(d.starts_with("A:"), "unexpected diff: {d}");

        let with_norm = f
            .clone()
            .with_normalization(vec![0.0; 2], vec![1.0; 2])
            .unwrap();
        let d = f.diff(&with_norm).unwrap();
        assert!(d.contains("normalization"), "unexpected diff: {d}");
    }
}
