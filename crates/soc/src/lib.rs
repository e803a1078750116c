//! # `tiled-soc` — the AAF tiled System-on-Chip substrate
//!
//! The paper maps CFD onto the AAF project's Digital Reconfigurable Baseband
//! Processing Fabric: a tiled SoC with four Montium cores. This crate builds
//! that platform out of the `montium-sim` tiles:
//!
//! * [`config`] — platform configuration (tile count, clock, execution mode:
//!   the cycle-accurate lockstep simulation or the analytic fast path);
//! * [`link`] — the inter-tile streams of the lockstep simulation;
//! * [`tile`] — one tile: a Montium core plus its folded task set;
//! * [`soc`] — the platform itself: distributes the folded DSCF over the
//!   tiles, runs whole integration steps with explicit boundary traffic, and
//!   gathers the distributed result into one DSCF matrix;
//! * [`power`] — the Section 5 roll-up (area, power, analysed bandwidth).
//!
//! The distributed result is validated against the golden-model DSCF of
//! [`cfd_dsp`]; the critical-path cycle count reproduces Table 1 and the
//! ≈140 µs / ≈915 kHz / 8 mm² / 200 mW evaluation figures.
//!
//! ## Example
//!
//! ```
//! use tiled_soc::prelude::*;
//! use cfd_dsp::signal::awgn;
//!
//! # fn main() -> Result<(), tiled_soc::error::SocError> {
//! // A small platform: 15x15 DSCF over 32-point spectra on 4 tiles.
//! let mut soc = TiledSoc::new(SocConfig::paper().with_tiles(4), 7, 32)?;
//! let run = soc.run(&awgn(64, 1.0, 1), 2)?;
//! assert_eq!(run.blocks, 2);
//! assert_eq!(run.scf.grid_size(), 15);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod error;
pub mod link;
pub mod power;
pub mod soc;
pub mod tile;

pub use config::{ExecutionMode, SocConfig};
pub use error::SocError;
pub use power::PlatformMetrics;
pub use soc::{SocRun, TiledSoc};
pub use tile::{Tile, TileCycleBreakdown};

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::config::{ExecutionMode, SocConfig};
    pub use crate::error::SocError;
    pub use crate::link::{QueueLink, StreamWord};
    pub use crate::power::PlatformMetrics;
    pub use crate::soc::{SocRun, TiledSoc};
    pub use crate::tile::{Tile, TileCycleBreakdown};
}
