//! Error type of the top-level methodology crate.

use cfd_dsp::error::DspError;
use cfd_mapping::error::MappingError;
use montium_sim::error::MontiumError;
use std::error::Error;
use std::fmt;
use tiled_soc::error::SocError;

/// Errors produced by the two-step methodology and the sensing pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CfdError {
    /// An error from the DSP substrate.
    Dsp(DspError),
    /// An error from the Step-1 mapping engine.
    Mapping(MappingError),
    /// An error from the Montium tile simulator.
    Montium(MontiumError),
    /// An error from the tiled-SoC substrate.
    Soc(SocError),
    /// An invalid top-level parameter combination.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Description of the violated constraint.
        message: String,
    },
    /// A backend computed a NaN or infinite test statistic (non-finite
    /// input samples): it cannot be thresholded, so the decision is
    /// refused rather than read as "vacant".
    NonFiniteStatistic {
        /// Label of the backend that computed it.
        backend: &'static str,
        /// The statistic.
        statistic: f64,
    },
    /// A streamed hop holds a NaN or infinite sample; the hop is refused
    /// before it reaches the sensor's state.
    NonFiniteSample {
        /// Position of the first non-finite sample within the hop.
        index: usize,
    },
    /// A scheduler worker has stopped (its thread returned or panicked),
    /// so its shard accepts no more hops or parks. The worker's panic, if
    /// any, is re-raised by `SensingScheduler::join`.
    WorkerStopped {
        /// The stopped worker's shard index.
        shard: usize,
    },
}

impl fmt::Display for CfdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfdError::Dsp(e) => write!(f, "dsp: {e}"),
            CfdError::Mapping(e) => write!(f, "mapping: {e}"),
            CfdError::Montium(e) => write!(f, "montium: {e}"),
            CfdError::Soc(e) => write!(f, "soc: {e}"),
            CfdError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            CfdError::NonFiniteStatistic { backend, statistic } => {
                write!(
                    f,
                    "`{backend}` computed a non-finite statistic ({statistic})"
                )
            }
            CfdError::NonFiniteSample { index } => {
                write!(f, "sample {index} of the hop is not finite")
            }
            CfdError::WorkerStopped { shard } => {
                write!(f, "the worker of shard {shard} has stopped")
            }
        }
    }
}

impl Error for CfdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CfdError::Dsp(e) => Some(e),
            CfdError::Mapping(e) => Some(e),
            CfdError::Montium(e) => Some(e),
            CfdError::Soc(e) => Some(e),
            CfdError::InvalidParameter { .. }
            | CfdError::NonFiniteStatistic { .. }
            | CfdError::NonFiniteSample { .. }
            | CfdError::WorkerStopped { .. } => None,
        }
    }
}

impl From<DspError> for CfdError {
    fn from(e: DspError) -> Self {
        CfdError::Dsp(e)
    }
}

impl From<MappingError> for CfdError {
    fn from(e: MappingError) -> Self {
        CfdError::Mapping(e)
    }
}

impl From<MontiumError> for CfdError {
    fn from(e: MontiumError) -> Self {
        CfdError::Montium(e)
    }
}

impl From<SocError> for CfdError {
    fn from(e: SocError) -> Self {
        CfdError::Soc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CfdError = DspError::NotPowerOfTwo { length: 7 }.into();
        assert!(e.to_string().contains("dsp"));
        assert!(e.source().is_some());
        let e: CfdError = MappingError::InvalidParameter {
            name: "cores",
            message: "zero".into(),
        }
        .into();
        assert!(e.to_string().contains("mapping"));
        let e: CfdError = MontiumError::NoSuchBank { bank: 12 }.into();
        assert!(e.to_string().contains("montium"));
        let e: CfdError = SocError::InvalidConfiguration {
            message: "bad".into(),
        }
        .into();
        assert!(e.to_string().contains("soc"));
        let e = CfdError::InvalidParameter {
            name: "blocks",
            message: "must be positive".into(),
        };
        assert!(e.to_string().contains("blocks"));
        assert!(e.source().is_none());
        let e = CfdError::NonFiniteSample { index: 3 };
        assert!(e.to_string().contains("sample 3"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Error + Send + Sync>() {}
        check::<CfdError>();
    }
}
