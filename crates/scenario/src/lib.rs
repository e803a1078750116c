//! # `cfd-scenario` — the radio-scenario engine
//!
//! The paper motivates cyclostationary feature detection with a cognitive
//! radio that must find vacant spectrum under realistic impairments. This
//! crate generates those workloads and evaluates the repository's detectors
//! over them end-to-end:
//!
//! * [`signal`] — licensed-user signal models with genuine cyclostationary
//!   signatures: BPSK/QPSK pulse trains with configurable symbol rate and
//!   carrier offset, an OFDM-like pilot signal, and the vacant band;
//! * [`channel`] — composable channel impairments: AWGN at a target SNR,
//!   carrier/LO frequency offset, two-ray multipath, Q15 ADC quantisation
//!   (reusing `cfd-dsp::fixed`), impulsive noise, frequency-selective
//!   Rayleigh fading, log-normal shadowing, and an adjacent-channel
//!   interferer;
//! * [`scenario`] — named presets, the deterministic Monte-Carlo trial
//!   runner, and SNR retargeting with common random numbers;
//! * [`eval`] — the parallel batched sweep engine producing Pd/Pfa ROC
//!   tables over **any** roster of `cfd_core::backend::SensingBackend`s —
//!   the energy detector, the golden-model cyclostationary detector, the
//!   full tiled-SoC sensing path of `cfd-core`, or a detector defined
//!   outside this workspace: sweeps are described and launched by
//!   [`SweepBuilder`], backends are described by
//!   `cfd_core::backend::BackendRecipe`s, every worker builds its own
//!   replicas (the SoC path opens one `SensingSession` per worker), and
//!   `(snr_point, trial)` cells run from one queue — on the calling thread
//!   for one worker, over a crossbeam channel for more — bit-identical for
//!   every worker count thanks to common random numbers;
//! * [`cooperative`] — cooperative sensing against a *live* primary user:
//!   [`CooperativeSweep`] drives any backend (including a whole
//!   `cfd_core::fusion::FusionCenter` fleet) along a Markov on/off
//!   occupancy trace and reports detection delay and
//!   interference-to-primary alongside Pd/Pfa;
//! * [`service_traffic`] — many-channel traffic synthesis for the
//!   `cfd_core::service` scheduler: one preset scenario per channel with
//!   Markov-style activity bursts, emitted as an interleaved slot-major
//!   hop/park event stream.
//!
//! ## Example: a ROC table under noise-floor uncertainty
//!
//! ```
//! use cfd_scenario::prelude::*;
//! use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
//! use cfd_dsp::scf::ScfParams;
//!
//! # fn main() -> Result<(), cfd_scenario::error::ScenarioError> {
//! let params = ScfParams::new(32, 7, 64)?;
//! // BPSK licensed user over AWGN; the actual noise floor is 1 dB above
//! // what the detectors assume.
//! let scenario = RadioScenario::preset("bpsk-awgn", params.samples_needed())
//!     .expect("built-in preset")
//!     .with_seed(1)
//!     .with_noise_power(1.26);
//!
//! let threshold = calibrate_cfd_threshold(&params, 1, 0.1, 20, 7)?;
//! let table = SweepBuilder::new(&scenario)
//!     .sweep(SnrSweep::new(vec![0.0, 5.0], 10)?)
//!     .backend(EnergyDetector::new(1.0, 0.1, params.samples_needed())?)
//!     .backend(CyclostationaryDetector::new(params, threshold, 1)?)
//!     .run()?;
//! println!("{}", table.render());
//!
//! // The energy detector false-alarms under the 1 dB calibration error;
//! // the scale-invariant CFD statistic does not.
//! assert!(table.row("energy", 5.0).unwrap().pfa > 0.5);
//! assert!(table.row("cfd", 5.0).unwrap().pfa < 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod cooperative;
pub mod error;
pub mod eval;
pub mod scenario;
pub mod service_traffic;
pub mod signal;

pub use channel::{ChannelPipeline, ChannelStage};
pub use cooperative::{CooperativeReport, CooperativeSweep};
pub use error::ScenarioError;
pub use eval::{RocRow, RocTable, SnrSweep, SweepBuilder};
pub use scenario::{Hypothesis, RadioScenario, ScenarioObservation};
pub use service_traffic::{ActivityModel, ServiceTraffic, TrafficEvent};
pub use signal::SignalModel;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::channel::{ChannelPipeline, ChannelStage};
    pub use crate::cooperative::{CooperativeReport, CooperativeSweep};
    pub use crate::error::ScenarioError;
    pub use crate::eval::{calibrate_cfd_threshold, RocRow, RocTable, SnrSweep, SweepBuilder};
    pub use crate::scenario::{Hypothesis, RadioScenario, ScenarioObservation};
    pub use crate::service_traffic::{ActivityModel, ServiceTraffic, TrafficEvent};
    pub use crate::signal::SignalModel;
    pub use cfd_core::backend::{
        BackendRecipe, Decision, Observation, SensingBackend, SessionRecipe,
    };
}
