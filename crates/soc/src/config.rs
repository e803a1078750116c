//! Configuration of the tiled SoC (the AAF "Digital Reconfigurable Baseband
//! Processing Fabric").

use montium_sim::MontiumConfig;
use serde::{Deserialize, Serialize};

/// How the SoC executes its tiles: the cycle-accurate simulation or its
/// closed-form fast path. The two modes produce the same `SocRun` for the
/// full-precision datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// All tiles advance one frequency step at a time in a single thread
    /// (deterministic; the cycle-accurate golden reference).
    #[default]
    Lockstep,
    /// The fast path: no per-cycle simulation. The DSCF the folded tiles
    /// compute comes from the shared `cfd-dsp` engine and the cycle,
    /// transfer and source counters come from the closed-form model derived
    /// from the task sets at configure time. For the full-precision
    /// datapath it produces the same `SocRun` — bit-identical DSCF, equal
    /// counters — as the lockstep simulation (pinned by
    /// `tests/soc_fast_path.rs`); the default for Monte-Carlo sweeps. A
    /// Q15 platform is refused at construction: the 16-bit accumulator
    /// quantisation exists only in the cycle-accurate simulation.
    Analytic,
}

/// Configuration of the whole platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocConfig {
    /// Number of Montium tiles (the AAF platform has 4).
    pub num_tiles: usize,
    /// Per-tile configuration.
    pub tile: MontiumConfig,
    /// Execution mode of the simulation.
    pub mode: ExecutionMode,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            num_tiles: 4,
            tile: MontiumConfig::paper(),
            mode: ExecutionMode::Lockstep,
        }
    }
}

impl SocConfig {
    /// The paper's platform: 4 Montium tiles at 100 MHz.
    pub fn paper() -> Self {
        SocConfig::default()
    }

    /// Sets the number of tiles.
    pub fn with_tiles(mut self, num_tiles: usize) -> Self {
        self.num_tiles = num_tiles;
        self
    }

    /// Sets the execution mode.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the per-tile configuration.
    pub fn with_tile_config(mut self, tile: MontiumConfig) -> Self {
        self.tile = tile;
        self
    }

    /// Total silicon area of the platform in mm² (2 mm² per tile for the
    /// paper's constants).
    pub fn total_area_mm2(&self) -> f64 {
        self.num_tiles as f64 * self.tile.area_mm2
    }

    /// Total typical power of the platform in mW (200 mW for 4 tiles at
    /// 100 MHz).
    pub fn total_power_mw(&self) -> f64 {
        self.num_tiles as f64 * self.tile.power_mw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_figures() {
        let config = SocConfig::paper();
        assert_eq!(config.num_tiles, 4);
        assert_eq!(config.mode, ExecutionMode::Lockstep);
        assert!((config.total_area_mm2() - 8.0).abs() < 1e-12);
        assert!((config.total_power_mw() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn builder_modifiers() {
        let config = SocConfig::paper()
            .with_tiles(8)
            .with_mode(ExecutionMode::Analytic)
            .with_tile_config(MontiumConfig::paper().with_clock_mhz(50.0));
        assert_eq!(config.num_tiles, 8);
        assert_eq!(config.mode, ExecutionMode::Analytic);
        assert!((config.total_power_mw() - 8.0 * 25.0).abs() < 1e-9);
        assert!((config.total_area_mm2() - 16.0).abs() < 1e-12);
    }
}
