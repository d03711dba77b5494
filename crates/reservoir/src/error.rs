use std::error::Error;
use std::fmt;

/// Errors produced by reservoir construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReservoirError {
    /// The input series' channel count does not match the mask.
    ChannelMismatch {
        /// Channels the mask was built for.
        mask_channels: usize,
        /// Channels of the offending input.
        input_channels: usize,
    },
    /// A structural parameter was zero or out of range.
    InvalidParameter {
        /// Which parameter was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The reservoir state diverged to a non-finite value.
    Diverged {
        /// Input step at which the divergence was detected.
        step: usize,
    },
    /// The input series has no time steps: there is no trajectory to run
    /// and the `1/T` feature normalisation is undefined, so every forward
    /// path (training, streaming, serving) rejects 0-row inputs with this
    /// typed error from [`crate::representation::Dprr::normalize`] instead
    /// of emitting a bias-only prediction.
    EmptySeries,
}

impl fmt::Display for ReservoirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReservoirError::ChannelMismatch {
                mask_channels,
                input_channels,
            } => write!(
                f,
                "input has {input_channels} channels but mask expects {mask_channels}"
            ),
            ReservoirError::InvalidParameter { name, value } => {
                write!(f, "invalid reservoir parameter {name} = {value}")
            }
            ReservoirError::Diverged { step } => {
                write!(f, "reservoir state diverged at input step {step}")
            }
            ReservoirError::EmptySeries => {
                write!(f, "input series has no time steps")
            }
        }
    }
}

impl Error for ReservoirError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(
            ReservoirError::ChannelMismatch {
                mask_channels: 3,
                input_channels: 2
            }
            .to_string(),
            "input has 2 channels but mask expects 3"
        );
        assert_eq!(
            ReservoirError::InvalidParameter {
                name: "theta",
                value: -1.0
            }
            .to_string(),
            "invalid reservoir parameter theta = -1"
        );
        assert_eq!(
            ReservoirError::Diverged { step: 9 }.to_string(),
            "reservoir state diverged at input step 9"
        );
        assert_eq!(
            ReservoirError::EmptySeries.to_string(),
            "input series has no time steps"
        );
    }
}
