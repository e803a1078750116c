//! # `cfd-dsp` — DSP substrate for Cyclostationary Feature Detection
//!
//! This crate is the signal-processing foundation of the reproduction of
//! *"Cyclostationary Feature Detection on a tiled-SoC"* (Kokkeler, Smit,
//! Krol, Kuper — DATE 2007). It provides, entirely from scratch:
//!
//! * complex and Q15 fixed-point arithmetic ([`complex`], [`fixed`]),
//! * the block DFT/FFT of eq. 2 ([`fft`], [`window`]),
//! * cognitive-radio signal generators — modulated licensed-user signals and
//!   AWGN channels ([`signal`]),
//! * the Discrete Spectral Correlation Function of eq. 3 and its golden-model
//!   evaluation ([`scf`]),
//! * the energy-detector baseline and the cyclostationary feature detector
//!   ([`detector`]), and Monte-Carlo detection metrics ([`metrics`]).
//!
//! Everything downstream — the array-processor mapping (`cfd-mapping`), the
//! Montium tile simulator (`montium-sim`), the tiled SoC (`tiled-soc`) and
//! the two-step methodology (`cfd-core`) — validates its results against the
//! golden models in this crate.
//!
//! ## Quick example
//!
//! ```
//! use cfd_dsp::prelude::*;
//!
//! # fn main() -> Result<(), cfd_dsp::error::DspError> {
//! // A BPSK licensed user at 0 dB SNR, observed for 64 blocks of 32 samples.
//! let params = ScfParams::new(32, 7, 64)?;
//! let observation = SignalBuilder::new(params.samples_needed())
//!     .modulation(SymbolModulation::Bpsk)
//!     .samples_per_symbol(4)
//!     .snr_db(0.0)
//!     .seed(8)
//!     .build()?;
//!
//! // The same noise without the licensed user.
//! let vacant = SignalBuilder::new(params.samples_needed())
//!     .noise_only()
//!     .seed(8)
//!     .build()?;
//!
//! // Evaluate the DSCF (eq. 3) and look for cyclic features: the user's
//! // symbol rate lifts the feature statistic over its noise alone, which
//! // stays below the threshold. (At 0 dB the 0.35 threshold sits near the
//! // occupied statistic's median, so it flags only about half of such
//! // observations; `cfd_scenario::eval::calibrate_cfd_threshold` sets a
//! // threshold from a false-alarm target instead.)
//! let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1)?;
//! let occupied = detector.detect_from_scf(&dscf_reference(&observation.samples, &params)?);
//! let vacant = detector.detect_from_scf(&dscf_reference(&vacant.samples, &params)?);
//! assert!(!vacant.decision.is_signal());
//! assert!(occupied.statistic > vacant.statistic);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod complex;
pub mod detector;
pub mod error;
pub mod fft;
pub mod fixed;
pub mod metrics;
pub mod scf;
pub mod signal;
mod tier;
pub mod window;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::complex::{Cplx, CplxQ15};
    pub use crate::detector::{
        CyclostationaryDetector, DetectionOutcome, Detector, DetectorFactory, EnergyDetector,
        Verdict,
    };
    pub use crate::error::DspError;
    pub use crate::fft::{fft, fft_in_place, ifft, ifft_in_place, FftPlan};
    pub use crate::fixed::Q15;
    pub use crate::metrics::{OperatingPoint, RocCurve, Scenario};
    pub use crate::scf::{dscf_from_spectra, dscf_reference, ScfEngine, ScfMatrix, ScfParams};
    pub use crate::signal::{
        awgn, complex_tone, frequency_shift, modulated_signal, ModulatedSignalSpec, Observation,
        SignalBuilder, SymbolModulation,
    };
    pub use crate::window::Window;
}

pub use complex::Cplx;
pub use error::DspError;
pub use scf::{ScfMatrix, ScfParams};
