//! Error type for the tiled-SoC substrate.

use cfd_dsp::error::DspError;
use cfd_mapping::error::MappingError;
use montium_sim::error::MontiumError;
use std::error::Error;
use std::fmt;

/// Errors produced while building or running the tiled SoC.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SocError {
    /// A tile reported an error.
    Tile {
        /// The tile index.
        tile: usize,
        /// The underlying tile error.
        source: MontiumError,
    },
    /// The Step-1 mapping could not be constructed.
    Mapping(MappingError),
    /// A DSP-level error (signal too short, bad FFT length, ...).
    Dsp(DspError),
    /// The platform configuration is invalid.
    InvalidConfiguration {
        /// Description of the problem.
        message: String,
    },
    /// A run could not proceed on the platform's current state (switching
    /// between the simulated and the analytic path without a reset).
    ExecutionFailure {
        /// Description of the failure.
        message: String,
    },
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::Tile { tile, source } => write!(f, "tile {tile}: {source}"),
            SocError::Mapping(e) => write!(f, "mapping error: {e}"),
            SocError::Dsp(e) => write!(f, "dsp error: {e}"),
            SocError::InvalidConfiguration { message } => {
                write!(f, "invalid SoC configuration: {message}")
            }
            SocError::ExecutionFailure { message } => write!(f, "execution failure: {message}"),
        }
    }
}

impl Error for SocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SocError::Tile { source, .. } => Some(source),
            SocError::Mapping(e) => Some(e),
            SocError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MappingError> for SocError {
    fn from(e: MappingError) -> Self {
        SocError::Mapping(e)
    }
}

impl From<DspError> for SocError {
    fn from(e: DspError) -> Self {
        SocError::Dsp(e)
    }
}

/// Attaches a tile index to a Montium error.
pub fn tile_error(tile: usize, source: MontiumError) -> SocError {
    SocError::Tile { tile, source }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = tile_error(2, MontiumError::NoSuchBank { bank: 11 });
        assert!(e.to_string().contains("tile 2"));
        assert!(e.source().is_some());
        let e: SocError = MappingError::InvalidParameter {
            name: "cores",
            message: "zero".into(),
        }
        .into();
        assert!(e.to_string().contains("mapping"));
        let e: SocError = DspError::NotPowerOfTwo { length: 12 }.into();
        assert!(e.to_string().contains("power of two"));
        let e = SocError::InvalidConfiguration {
            message: "no tiles".into(),
        };
        assert!(e.to_string().contains("no tiles"));
        assert!(e.source().is_none());
        let e = SocError::ExecutionFailure {
            message: "worker died".into(),
        };
        assert!(e.to_string().contains("worker died"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Error + Send + Sync>() {}
        check::<SocError>();
    }
}
