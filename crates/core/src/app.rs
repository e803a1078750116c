//! The CFD application and the target platform, as the paper parameterises
//! them.

use crate::error::CfdError;
use cfd_dsp::scf::ScfParams;
use montium_sim::MontiumConfig;
use serde::{Deserialize, Serialize};
use tiled_soc::config::{ExecutionMode, SocConfig};

/// The Cyclostationary-Feature-Detection application: which DSCF to compute
/// and over how many integration steps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CfdApplication {
    /// FFT length `K` (the paper analyses 256-point spectra).
    pub fft_len: usize,
    /// Grid half-width `M`: frequencies and offsets span `-M..=M`
    /// (the paper uses 63, i.e. a 127×127 DSCF).
    pub max_offset: usize,
    /// Number of integration steps `N` accumulated per sensing decision.
    pub num_blocks: usize,
}

impl CfdApplication {
    /// Creates an application description.
    ///
    /// # Errors
    ///
    /// Returns [`CfdError::InvalidParameter`] if the grid does not fit the
    /// spectrum or any count is zero.
    pub fn new(fft_len: usize, max_offset: usize, num_blocks: usize) -> Result<Self, CfdError> {
        if !fft_len.is_power_of_two() {
            return Err(CfdError::InvalidParameter {
                name: "fft_len",
                message: format!("must be a power of two, got {fft_len}"),
            });
        }
        // `checked_mul` first: on 32-bit-ish inputs near usize::MAX the
        // doubled width must surface as a structured error, not wrap
        // around into a bogus comparison (or a debug-build panic).
        let doubled = max_offset
            .checked_mul(2)
            .ok_or(CfdError::InvalidParameter {
                name: "max_offset",
                message: format!("2*max_offset overflows usize (max_offset = {max_offset})"),
            })?;
        if doubled >= fft_len {
            return Err(CfdError::InvalidParameter {
                name: "max_offset",
                message: format!(
                    "2*max_offset ({doubled}) must be smaller than fft_len ({fft_len})"
                ),
            });
        }
        if num_blocks == 0 {
            return Err(CfdError::InvalidParameter {
                name: "num_blocks",
                message: "must be at least 1".into(),
            });
        }
        Ok(CfdApplication {
            fft_len,
            max_offset,
            num_blocks,
        })
    }

    /// The paper's application: 256-point spectra, 127×127 DSCF, one
    /// integration step.
    pub fn paper() -> Self {
        CfdApplication {
            fft_len: 256,
            max_offset: 63,
            num_blocks: 1,
        }
    }

    /// The paper's application with `num_blocks` integration steps.
    pub fn paper_with_blocks(num_blocks: usize) -> Self {
        CfdApplication {
            num_blocks,
            ..CfdApplication::paper()
        }
    }

    /// Number of points per DSCF axis, `P = F = 2M+1`.
    pub fn grid_size(&self) -> usize {
        2 * self.max_offset + 1
    }

    /// Number of samples consumed per sensing decision.
    pub fn samples_needed(&self) -> usize {
        self.fft_len * self.num_blocks
    }

    /// The equivalent golden-model DSCF parameters (non-overlapping blocks,
    /// rectangular window — the paper's configuration).
    ///
    /// # Errors
    ///
    /// Never fails for an application built through [`CfdApplication::new`];
    /// the `Result` mirrors [`ScfParams::new`].
    pub fn scf_params(&self) -> Result<ScfParams, CfdError> {
        Ok(ScfParams::new(
            self.fft_len,
            self.max_offset,
            self.num_blocks,
        )?)
    }
}

/// The target platform: how many Montium tiles, at what clock, executed how.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Number of Montium tiles.
    pub cores: usize,
    /// Per-tile configuration.
    pub tile: MontiumConfig,
    /// Simulation execution mode.
    pub mode: ExecutionMode,
}

impl Platform {
    /// The AAF platform of the paper: 4 Montium tiles at 100 MHz.
    ///
    /// The execution mode defaults to [`ExecutionMode::Analytic`] — the
    /// fast path that produces the same `SocRun` (bit-identical DSCF,
    /// equal cycle/transfer counters) without per-cycle simulation, which
    /// is what Monte-Carlo sweeps want. Use
    /// `.with_mode(ExecutionMode::Lockstep)` for the
    /// cycle-accurate golden-reference simulation.
    pub fn paper() -> Self {
        Platform {
            cores: 4,
            tile: MontiumConfig::paper(),
            mode: ExecutionMode::Analytic,
        }
    }

    /// A platform with a different number of cores (everything else as in
    /// the paper) — used for the Section 5 scaling study.
    pub fn with_cores(cores: usize) -> Self {
        Platform {
            cores,
            ..Platform::paper()
        }
    }

    /// Sets the execution mode.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The equivalent SoC configuration.
    pub fn soc_config(&self) -> SocConfig {
        SocConfig::paper()
            .with_tiles(self.cores)
            .with_tile_config(self.tile.clone())
            .with_mode(self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_application_parameters() {
        let app = CfdApplication::paper();
        assert_eq!(app.fft_len, 256);
        assert_eq!(app.grid_size(), 127);
        assert_eq!(app.samples_needed(), 256);
        let params = app.scf_params().unwrap();
        assert_eq!(params.grid_size(), 127);
        let app4 = CfdApplication::paper_with_blocks(4);
        assert_eq!(app4.samples_needed(), 1024);
    }

    #[test]
    fn application_validation() {
        assert!(CfdApplication::new(100, 10, 1).is_err());
        assert!(CfdApplication::new(64, 32, 1).is_err());
        assert!(CfdApplication::new(64, 31, 0).is_err());
        assert!(CfdApplication::new(64, 31, 2).is_ok());
    }

    #[test]
    fn platform_conversion() {
        let platform = Platform::paper();
        assert_eq!(platform.cores, 4);
        let soc = platform.soc_config();
        assert_eq!(soc.num_tiles, 4);
        assert!((soc.total_power_mw() - 200.0).abs() < 1e-9);
        let p8 = Platform::with_cores(8).with_mode(ExecutionMode::Lockstep);
        assert_eq!(p8.soc_config().num_tiles, 8);
        assert_eq!(p8.mode, ExecutionMode::Lockstep);
    }

    #[test]
    fn application_overflow_is_a_structured_error() {
        // Near-usize::MAX offsets must surface as InvalidParameter, not
        // wrap around or panic in debug builds.
        let err = CfdApplication::new(256, usize::MAX / 2 + 1, 1).unwrap_err();
        assert!(matches!(err, CfdError::InvalidParameter { name, .. } if name == "max_offset"));
    }
}
