//! # `cfd-core` — the two-step CFD-on-tiled-SoC methodology
//!
//! This crate is the top of the reproduction of *"Cyclostationary Feature
//! Detection on a tiled-SoC"* (Kokkeler, Smit, Krol, Kuper — DATE 2007). It
//! ties the substrates together into the paper's actual contribution:
//!
//! * [`app`] — the CFD application (`K`-point spectra, `(2M+1)²` DSCF, `N`
//!   integration steps) and the target platform (number of Montium tiles);
//! * [`methodology`] — the two-step mapping: Step 1 derives the folded
//!   multi-core architecture (via `cfd-mapping`), Step 2 derives the
//!   per-core cycle budget (via the `montium-sim` cycle model) and the
//!   platform metrics;
//! * [`report`] — the Table 1 reproduction and the Section 5 evaluation /
//!   scaling study;
//! * [`sensing`] — end-to-end spectrum sensing on the simulated tiled SoC
//!   (`tiled-soc`): the one platform backend, [`SensingSession`];
//! * [`backend`] — the unified sensing API: one [`Observation`] in, one
//!   [`Decision`] out, through the open [`SensingBackend`] trait that any
//!   detector (including third-party ones) implements to join sweeps;
//! * [`stream`] — bounded-latency streaming decisions over an unbounded
//!   sample stream (the O(grid) incremental sliding-window DSCF);
//! * [`service`] — sensing as a service: a [`SensingScheduler`]
//!   multiplexing many concurrent band subscriptions over a pooled worker
//!   fleet with bounded ingress and explicit backpressure.
//!
//! ## Example: the paper's headline result
//!
//! ```
//! use cfd_core::prelude::*;
//!
//! # fn main() -> Result<(), cfd_core::error::CfdError> {
//! let report = TwoStepMapping::analyse(&CfdApplication::paper(), &Platform::paper())?;
//! // A 256-point spectrum and a 127x127 DSCF in ~140 us on 4 Montium cores.
//! assert_eq!(report.step2.cycles.total(), 13_996);
//! assert!((report.step2.time_per_block_us - 139.96).abs() < 1e-9);
//! let table1 = Table1Report::from_cycles(&report.step2.cycles);
//! assert!(table1.matches(&Table1Report::paper_reference()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod backend;
pub mod error;
pub mod fusion;
pub mod methodology;
pub mod report;
pub mod sensing;
pub mod service;
pub mod stream;

pub use app::{CfdApplication, Platform};
pub use backend::{BackendRecipe, Decision, Observation, SensingBackend, SessionRecipe};
pub use error::CfdError;
pub use fusion::{FusionCenter, FusionRule, MemberChannel};
pub use methodology::{MappingReport, Step1Report, Step2Report, TwoStepMapping};
pub use report::{EvaluationReport, EvaluationRow, Table1Report, Table1Row};
pub use sensing::SensingSession;
pub use service::{
    Backpressure, ChannelSubscription, DecisionSink, SensingScheduler, ServiceConfig, ServiceReport,
};
pub use stream::{StreamingConfig, StreamingSensor};

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::app::{CfdApplication, Platform};
    pub use crate::backend::{BackendRecipe, Decision, Observation, SensingBackend, SessionRecipe};
    pub use crate::error::CfdError;
    pub use crate::fusion::{FusionCenter, FusionRule, MemberChannel};
    pub use crate::methodology::{MappingReport, Step1Report, Step2Report, TwoStepMapping};
    pub use crate::report::{EvaluationReport, EvaluationRow, Table1Report, Table1Row};
    pub use crate::sensing::SensingSession;
    pub use crate::service::{
        Backpressure, ChannelSubscription, DecisionSink, SensingScheduler, ServiceConfig,
        ServiceReport,
    };
    pub use crate::stream::{StreamingConfig, StreamingSensor};
}
