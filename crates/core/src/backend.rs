//! The unified sensing API: one [`Observation`] in, one [`Decision`] out,
//! through the open [`SensingBackend`] trait.
//!
//! The paper's point — and the reason Cabric et al. survey *several*
//! sensing options — is that different detectors and platforms must be
//! compared under the same observations. This module is the single surface
//! for that comparison:
//!
//! * [`Observation`] owns one observation's raw samples and lazily
//!   computes/caches its block spectra (eq. 2) and integrated DSCF (eq. 3)
//!   per [`ScfParams`], so every backend deciding on the same observation
//!   shares one FFT + correlation pass. Buffers persist across trials:
//!   steady-state reuse performs no allocation.
//! * [`Decision`] is the one structured result: a [`Verdict`], the scalar
//!   statistic and threshold behind it, and (for platform-backed paths)
//!   optional [`PlatformMetrics`].
//! * [`SensingBackend`] is the open trait every detector implements —
//!   [`EnergyDetector`], [`CyclostationaryDetector`] and the tiled-SoC
//!   [`SensingSession`] all do, and so can any third-party detector,
//!   which then participates in `cfd-scenario`'s parallel ROC sweeps
//!   without touching any of these crates.
//! * [`BackendRecipe`] is the shareable description from which each sweep
//!   worker builds its own backend replica; every `Clone + Sync` backend
//!   is automatically its own recipe, and [`SessionRecipe`] opens a fresh
//!   [`SensingSession`] per worker.
//!
//! # Example: a custom backend through the unified surface
//!
//! ```
//! use cfd_core::backend::{Decision, Observation, SensingBackend};
//! use cfd_core::error::CfdError;
//! use cfd_dsp::detector::Verdict;
//! use cfd_dsp::signal::awgn;
//!
//! /// A toy detector: thresholds the mean magnitude of the samples.
//! #[derive(Debug, Clone)]
//! struct MeanMagnitude {
//!     threshold: f64,
//! }
//!
//! impl SensingBackend for MeanMagnitude {
//!     fn label(&self) -> String {
//!         "mean-magnitude".into()
//!     }
//!
//!     fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
//!         let samples = observation.samples();
//!         let statistic =
//!             samples.iter().map(|x| x.abs()).sum::<f64>() / samples.len().max(1) as f64;
//!         Ok(Decision::new(statistic, self.threshold))
//!     }
//! }
//!
//! # fn main() -> Result<(), CfdError> {
//! let mut backend = MeanMagnitude { threshold: 0.5 };
//! let mut observation = Observation::from_samples(awgn(1024, 4.0, 7));
//! let decision = backend.decide(&mut observation)?;
//! assert_eq!(decision.verdict, Verdict::SignalPresent);
//! # Ok(())
//! # }
//! ```

use crate::app::{CfdApplication, Platform};
use crate::error::CfdError;
use crate::sensing::SensingSession;
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::{
    CyclostationaryDetector, DetectionOutcome, Detector, EnergyDetector, Verdict,
};
use cfd_dsp::scf::{ScfEngine, ScfMatrix, ScfParams};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::OnceLock;
use tiled_soc::power::PlatformMetrics;

/// Cached handles to the [`Observation`] cache instruments and the software
/// backends' decide histograms, registered in the global
/// [`cfd_telemetry::registry`] once. The counters are always live (relaxed
/// atomics), which is what lets the once-per-trial spectra contract be
/// pinned by counter deltas without enabling telemetry; the histograms
/// record only while timing is enabled.
struct ObservationInstruments {
    spectra_computations: cfd_telemetry::Counter,
    spectra_cache_hits: cfd_telemetry::Counter,
    spectra_cache_misses: cfd_telemetry::Counter,
    scf_cache_hits: cfd_telemetry::Counter,
    scf_cache_misses: cfd_telemetry::Counter,
    decide_energy_ns: cfd_telemetry::Histogram,
    decide_cfd_ns: cfd_telemetry::Histogram,
}

fn instruments() -> &'static ObservationInstruments {
    static INSTRUMENTS: OnceLock<ObservationInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| ObservationInstruments {
        spectra_computations: cfd_telemetry::counter("core.observation.spectra_computations"),
        spectra_cache_hits: cfd_telemetry::counter("core.observation.spectra_cache_hits"),
        spectra_cache_misses: cfd_telemetry::counter("core.observation.spectra_cache_misses"),
        scf_cache_hits: cfd_telemetry::counter("core.observation.scf_cache_hits"),
        scf_cache_misses: cfd_telemetry::counter("core.observation.scf_cache_misses"),
        decide_energy_ns: cfd_telemetry::histogram("core.decide.energy_ns"),
        decide_cfd_ns: cfd_telemetry::histogram("core.decide.cfd_ns"),
    })
}

/// One per-[`ScfParams`] cache slot: the block spectra, the DSCF matrix
/// and its cyclic-domain profile, plus validity flags for the current
/// samples. The allocations persist across observations; only the flags
/// are reset.
#[derive(Debug)]
struct CachedSpectra {
    params: ScfParams,
    spectra: Vec<Vec<Cplx>>,
    spectra_valid: bool,
    scf: ScfMatrix,
    scf_valid: bool,
    profile: Vec<f64>,
    profile_valid: bool,
    /// A matrix was requested from this slot during the current
    /// observation.
    scf_requested: bool,
    /// A matrix was requested during the previous observation, so a
    /// profile miss materialises the matrix alongside the profile (one
    /// accumulation serves both the profile reader and the matrix reader).
    materialize: bool,
}

/// One observation: the raw samples plus lazily computed, cached block
/// spectra (eq. 2) and the integrated DSCF matrix (eq. 3), keyed by
/// [`ScfParams`].
///
/// Every [`SensingBackend`] deciding on the same observation shares the
/// caches: a roster with several cyclostationary detectors at the same
/// parameters computes the spectra **and** the DSCF once (thresholds and
/// guard zones only affect the final statistic, not the matrix), and
/// detectors at different parameters each get their own slot. Computation
/// goes through the requesting backend's own [`ScfEngine`], so the shared
/// results are bit-identical to what that backend's raw-sample path would
/// compute internally.
///
/// The buffers — samples, spectra, matrices — persist across
/// [`Observation::load`] / [`Observation::set_samples`] calls, so reusing
/// one `Observation` across the trials of a sweep performs no steady-state
/// allocation.
///
/// A [`StreamingSensor`](crate::stream::StreamingSensor) keeps its whole
/// retained stream in the observation's buffer and presents each hop's
/// window as a view into it, so a streamed decision copies no samples;
/// [`Observation::samples`] and the spectra always cover exactly the
/// current observation.
///
/// # Examples
///
/// ```
/// use cfd_core::backend::Observation;
/// use cfd_dsp::scf::{ScfEngine, ScfParams};
/// use cfd_dsp::signal::awgn;
///
/// # fn main() -> Result<(), cfd_core::error::CfdError> {
/// let params = ScfParams::new(32, 7, 8)?;
/// let engine = ScfEngine::new(params.clone())?;
/// let mut observation = Observation::new();
/// observation.load(&awgn(params.samples_needed(), 1.0, 1));
/// // First request computes the spectra; the second is served from cache.
/// assert_eq!(observation.computed(), 0);
/// assert_eq!(observation.spectra_for(&engine)?.len(), 8);
/// assert_eq!(observation.computed(), 1);
/// let scf = observation.scf_for(&engine)?;
/// assert_eq!(scf.grid_size(), 15);
/// assert_eq!(observation.computed(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Observation {
    /// The owned sample buffer; the observation is `samples[view]`.
    samples: Vec<Cplx>,
    view: Range<usize>,
    entries: Vec<CachedSpectra>,
    scf_requests: u64,
}

impl Observation {
    /// An empty observation; load samples with [`Observation::load`] or
    /// [`Observation::set_samples`] before deciding on it.
    pub fn new() -> Self {
        Observation::default()
    }

    /// An observation owning `samples`.
    pub fn from_samples(samples: Vec<Cplx>) -> Self {
        Observation {
            view: 0..samples.len(),
            samples,
            entries: Vec::new(),
            scf_requests: 0,
        }
    }

    /// Starts a new observation by copying `samples` into the owned buffer
    /// (reusing its allocation) and invalidating the cached spectra
    /// without freeing them.
    pub fn load(&mut self, samples: &[Cplx]) {
        self.samples.clear();
        self.samples.extend_from_slice(samples);
        self.view_window(0..samples.len());
    }

    /// Starts a new observation by taking ownership of `samples` (no copy)
    /// and invalidating the cached spectra without freeing them.
    pub fn set_samples(&mut self, samples: Vec<Cplx>) {
        self.samples = samples;
        self.view_window(0..self.samples.len());
    }

    /// The raw observation samples.
    pub fn samples(&self) -> &[Cplx] {
        &self.samples[self.view.clone()]
    }

    /// The whole owned sample buffer, for a producer that keeps its stream
    /// in it. Whatever it writes is not an observation until
    /// [`Observation::view_window`] says which part is, so the view is
    /// emptied here.
    pub(crate) fn buffer_mut(&mut self) -> &mut Vec<Cplx> {
        self.view = 0..0;
        &mut self.samples
    }

    /// The whole owned sample buffer (see [`Observation::buffer_mut`]).
    pub(crate) fn buffer(&self) -> &[Cplx] {
        &self.samples
    }

    /// Starts a new observation over `range` of the owned buffer, without
    /// copying, and invalidates the cached spectra without freeing them.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the buffer.
    pub(crate) fn view_window(&mut self, range: Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= self.samples.len(),
            "observation view {range:?} outside a {}-sample buffer",
            self.samples.len()
        );
        self.view = range;
        self.invalidate();
    }

    /// Marks every cached result stale (buffers are kept).
    fn invalidate(&mut self) {
        for entry in &mut self.entries {
            entry.spectra_valid = false;
            entry.scf_valid = false;
            entry.profile_valid = false;
            entry.materialize = entry.scf_requested;
            entry.scf_requested = false;
        }
    }

    /// Index of the cache slot for `params`, creating an empty (invalid)
    /// slot on first sight.
    fn slot_index(&mut self, params: &ScfParams) -> usize {
        match self
            .entries
            .iter()
            .position(|entry| &entry.params == params)
        {
            Some(index) => index,
            None => {
                self.entries.push(CachedSpectra {
                    params: params.clone(),
                    spectra: Vec::new(),
                    spectra_valid: false,
                    scf: ScfMatrix::zeros(params.max_offset),
                    scf_valid: false,
                    profile: Vec::new(),
                    profile_valid: false,
                    scf_requested: false,
                    materialize: false,
                });
                self.entries.len() - 1
            }
        }
    }

    /// Index of the cache slot for `engine`'s parameters with valid
    /// spectra for the current samples, computing (and counting) them on
    /// first request.
    fn entry_index(&mut self, engine: &ScfEngine) -> Result<usize, CfdError> {
        let index = self.slot_index(engine.params());
        let entry = &mut self.entries[index];
        let instruments = instruments();
        if entry.spectra_valid {
            instruments.spectra_cache_hits.increment();
        } else {
            instruments.spectra_cache_misses.increment();
            engine.compute_spectra_into(&self.samples[self.view.clone()], &mut entry.spectra)?;
            entry.spectra_valid = true;
            instruments.spectra_computations.increment();
        }
        Ok(index)
    }

    /// The block spectra (eq. 2) for `engine`'s parameters, computed at
    /// most once per observation and reused afterwards.
    ///
    /// # Errors
    ///
    /// Propagates spectra computation errors (e.g. too few samples).
    pub fn spectra_for(&mut self, engine: &ScfEngine) -> Result<&[Vec<Cplx>], CfdError> {
        let index = self.entry_index(engine)?;
        Ok(&self.entries[index].spectra)
    }

    /// The integrated DSCF matrix (eq. 3) for `engine`'s parameters,
    /// computed (from the cached spectra, into the cached matrix) at most
    /// once per observation and shared by every backend at the same
    /// parameters. Computing the matrix also fills the slot's cyclic
    /// profile from the same bands.
    ///
    /// # Errors
    ///
    /// Propagates spectra computation errors (e.g. too few samples).
    pub fn scf_for(&mut self, engine: &ScfEngine) -> Result<&ScfMatrix, CfdError> {
        // A valid matrix — computed here earlier, or installed by a
        // streaming producer via [`Observation::install_scf`] — is served
        // without touching the spectra: they are an input of the matrix,
        // not a prerequisite for serving it.
        self.scf_requests += 1;
        let index = self.slot_index(engine.params());
        self.entries[index].scf_requested = true;
        if self.entries[index].scf_valid {
            instruments().scf_cache_hits.increment();
            return Ok(&self.entries[index].scf);
        }
        self.materialize(engine)?;
        Ok(&self.entries[index].scf)
    }

    /// Computes the slot's matrix from its spectra — and, from the same
    /// bands, its profile if that is not valid yet — counting one matrix
    /// miss.
    fn materialize(&mut self, engine: &ScfEngine) -> Result<(), CfdError> {
        let index = self.entry_index(engine)?;
        let CachedSpectra {
            spectra,
            scf,
            scf_valid,
            profile,
            profile_valid,
            ..
        } = &mut self.entries[index];
        instruments().scf_cache_misses.increment();
        if *profile_valid {
            engine.dscf_from_spectra_into(spectra, scf);
        } else {
            engine.dscf_and_profile_from_spectra_into(spectra, scf, profile);
            *profile_valid = true;
        }
        *scf_valid = true;
        Ok(())
    }

    /// The cyclic-domain profile ([`ScfMatrix::cyclic_profile`]) of the
    /// DSCF for `engine`'s parameters, computed (and cached) at most once
    /// per observation, from the cheapest source available:
    ///
    /// 1. a profile already in the slot — installed by a streaming
    ///    producer via [`Observation::install_cyclic_profile`], or filled
    ///    alongside the matrix by [`Observation::scf_for`] — is served
    ///    as-is;
    /// 2. a valid matrix is scanned once;
    /// 3. otherwise the profile is folded straight out of the DSCF bands
    ///    computed from the cached spectra
    ///    ([`ScfEngine::cyclic_profile_from_spectra_into`]); no matrix is
    ///    written, so this counts no matrix hit or miss and leaves
    ///    [`Observation::scf_requests`] alone.
    ///
    /// If the previous observation served a matrix from this slot, step 3
    /// materialises the matrix alongside the profile instead, so a roster
    /// mixing profile readers and matrix readers accumulates the DSCF once
    /// per observation.
    ///
    /// All three sources give the same bits.
    ///
    /// # Errors
    ///
    /// Propagates spectra computation errors (e.g. too few samples).
    pub fn cyclic_profile_for(&mut self, engine: &ScfEngine) -> Result<&[f64], CfdError> {
        let index = self.slot_index(engine.params());
        let entry = &mut self.entries[index];
        if !entry.profile_valid {
            if entry.scf_valid {
                entry.scf.cyclic_profile_into(&mut entry.profile);
                entry.profile_valid = true;
            } else if entry.materialize {
                self.materialize(engine)?;
            } else {
                let index = self.entry_index(engine)?;
                let entry = &mut self.entries[index];
                engine.cyclic_profile_from_spectra_into(&entry.spectra, &mut entry.profile);
                entry.profile_valid = true;
            }
        }
        Ok(&self.entries[index].profile)
    }

    /// Installs an externally integrated DSCF for `params` into the cached
    /// matrix slot: `fill` writes the matrix, and the filled slot is marked
    /// valid, so a subsequent [`Observation::scf_for`] at the same
    /// parameters serves the installed matrix without computing anything.
    /// Unlike [`Observation::load`], nothing is invalidated here — a
    /// streaming producer first points the observation at the window's
    /// samples (which invalidates every slot; the window is a view of the
    /// producer's retained stream, not a copy), then composes the results
    /// it already has: the matrix, the profile
    /// ([`Observation::install_cyclic_profile`]), or both.
    ///
    /// This is the hand-off point of the streaming layer
    /// ([`StreamingSensor`](crate::stream::StreamingSensor)): the sliding
    /// window integrates incrementally and presents each hop's finished
    /// results to its backend through the same `Observation` surface the
    /// batch path uses.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns; on error the slot stays invalid.
    pub fn install_scf<E>(
        &mut self,
        params: &ScfParams,
        fill: impl FnOnce(&mut ScfMatrix) -> Result<(), E>,
    ) -> Result<(), E> {
        let index = self.slot_index(params);
        let entry = &mut self.entries[index];
        fill(&mut entry.scf)?;
        entry.scf_valid = true;
        Ok(())
    }

    /// Installs an externally computed cyclic-domain profile for `params`
    /// (sibling of [`Observation::install_scf`]): `fill` writes the
    /// profile, and a subsequent [`Observation::cyclic_profile_for`] at the
    /// same parameters serves it without touching the matrix or spectra.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns; on error the slot stays invalid.
    pub fn install_cyclic_profile<E>(
        &mut self,
        params: &ScfParams,
        fill: impl FnOnce(&mut Vec<f64>) -> Result<(), E>,
    ) -> Result<(), E> {
        let index = self.slot_index(params);
        let entry = &mut self.entries[index];
        fill(&mut entry.profile)?;
        entry.profile_valid = true;
        Ok(())
    }

    /// How many times [`Observation::scf_for`] has been called on this
    /// observation (hits and misses alike), over its whole lifetime.
    ///
    /// The streaming layer diffs this across a backend's decision to learn
    /// whether the backend actually reads the full matrix — backends that
    /// decide from the installed profile alone never trigger a matrix
    /// materialisation on later hops. A per-observation counter (unlike the
    /// global registry counters) is immune to concurrent observations on
    /// other threads.
    pub fn scf_requests(&self) -> u64 {
        self.scf_requests
    }

    /// How many distinct spectra sets are currently computed for this
    /// observation.
    pub fn computed(&self) -> usize {
        self.entries
            .iter()
            .filter(|entry| entry.spectra_valid)
            .count()
    }
}

/// The one structured result of a sensing decision: the [`Verdict`], the
/// scalar statistic and threshold behind it, and — for platform-backed
/// backends — optional [`PlatformMetrics`].
///
/// This replaces the previous mix of `bool` (sweep decisions),
/// [`DetectionOutcome`] (detector-level results) and per-platform report
/// types at the [`SensingBackend`] surface.
///
/// # Examples
///
/// ```
/// use cfd_core::backend::Decision;
/// use cfd_dsp::detector::Verdict;
///
/// let decision = Decision::new(0.62, 0.35);
/// assert_eq!(decision.verdict, Verdict::SignalPresent);
/// assert!(decision.is_signal());
/// assert!(decision.metrics.is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// The binary verdict ("band occupied?").
    pub verdict: Verdict,
    /// The scalar test statistic that was compared against the threshold.
    pub statistic: f64,
    /// The threshold used.
    pub threshold: f64,
    /// Platform metrics of the decision, for backends that run on a
    /// simulated platform (`None` for the software golden models).
    pub metrics: Option<PlatformMetrics>,
}

impl Decision {
    /// A decision from a statistic/threshold pair; the verdict is
    /// `statistic > threshold`, the rule of every detector in this
    /// repository ([`DetectionOutcome::new`]).
    pub fn new(statistic: f64, threshold: f64) -> Self {
        Decision::from_outcome(DetectionOutcome::new(statistic, threshold))
    }

    /// Wraps a detector-level [`DetectionOutcome`], preserving its verdict
    /// bit for bit.
    pub fn from_outcome(outcome: DetectionOutcome) -> Self {
        Decision {
            verdict: outcome.decision,
            statistic: outcome.statistic,
            threshold: outcome.threshold,
            metrics: None,
        }
    }

    /// Attaches platform metrics.
    pub fn with_metrics(mut self, metrics: PlatformMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Passes a decision with a finite statistic through and refuses a
    /// NaN or infinite one with [`CfdError::NonFiniteStatistic`]: it
    /// cannot be compared with a threshold, and `NaN > threshold` would
    /// otherwise read as "vacant". One check per decision.
    pub(crate) fn finite(self, backend: &'static str) -> Result<Self, CfdError> {
        if self.statistic.is_finite() {
            Ok(self)
        } else {
            Err(CfdError::NonFiniteStatistic {
                backend,
                statistic: self.statistic,
            })
        }
    }

    /// Convenience: whether the band was declared occupied.
    pub fn is_signal(&self) -> bool {
        self.verdict.is_signal()
    }
}

/// The open trait unifying every sensing path: one [`Observation`] in, one
/// [`Decision`] out.
///
/// Implemented by [`EnergyDetector`], [`CyclostationaryDetector`] and the
/// tiled-SoC [`SensingSession`] — and by any third-party detector, which
/// then plugs into `cfd-scenario`'s `SweepBuilder` (via [`BackendRecipe`])
/// without touching any crate of this workspace.
///
/// Implementations that evaluate block spectra or the DSCF should fetch
/// them through [`Observation::spectra_for`] / [`Observation::scf_for`]
/// with their own [`ScfEngine`]: the observation caches the result per
/// [`ScfParams`], so every backend of a roster shares one FFT +
/// correlation pass per trial.
pub trait SensingBackend {
    /// Stable label for result tables (e.g. ROC rows). Backends of the
    /// same kind should return the same label; sweep drivers disambiguate
    /// duplicates.
    fn label(&self) -> String {
        "backend".into()
    }

    /// Takes one sensing decision on the observation.
    ///
    /// # Errors
    ///
    /// Propagates detector and platform errors (e.g. too few samples).
    /// The backends of this crate refuse a non-finite statistic (NaN or
    /// infinite input) with [`CfdError::NonFiniteStatistic`] instead of
    /// thresholding it.
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError>;

    /// Takes one decision per observation, in order. The provided
    /// implementation simply iterates [`SensingBackend::decide`]; a
    /// [`SensingSession`] streams the batch through its once-configured
    /// platform this way.
    ///
    /// # Errors
    ///
    /// Propagates the first failing decision's error.
    fn decide_batch(
        &mut self,
        observations: &mut [Observation],
    ) -> Result<Vec<Decision>, CfdError> {
        observations
            .iter_mut()
            .map(|observation| self.decide(observation))
            .collect()
    }
}

/// A boxed backend is a backend: lets generic consumers like
/// [`StreamingSensor`](crate::stream::StreamingSensor) wrap the
/// `Box<dyn SensingBackend>` replicas that [`BackendRecipe::build`]
/// produces without a dedicated dynamic code path.
impl<B: SensingBackend + ?Sized> SensingBackend for Box<B> {
    fn label(&self) -> String {
        (**self).label()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        (**self).decide(observation)
    }

    fn decide_batch(
        &mut self,
        observations: &mut [Observation],
    ) -> Result<Vec<Decision>, CfdError> {
        (**self).decide_batch(observations)
    }
}

impl SensingBackend for EnergyDetector {
    fn label(&self) -> String {
        "energy".into()
    }

    /// The energy statistic is time-domain power: the decision reads the
    /// raw samples and never touches the spectra caches.
    ///
    /// The decision is timed into the `core.decide.energy_ns` histogram
    /// while telemetry is enabled.
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let _span = instruments().decide_energy_ns.start_timer();
        Decision::from_outcome(self.detect(observation.samples())?).finite("energy")
    }
}

impl SensingBackend for CyclostationaryDetector {
    fn label(&self) -> String {
        "cfd".into()
    }

    /// Decides from the observation's cached cyclic-domain profile for
    /// this detector's [`ScfParams`] — derived (once per observation) from
    /// the shared DSCF, or served directly when a streaming producer
    /// installed it. The feature statistic depends on the matrix only
    /// through the profile, so decisions are bit-identical to
    /// [`Detector::detect`] on the raw samples: the engine's spectra and
    /// matrix paths are the ones `detect` uses internally.
    ///
    /// The decision is timed into the `core.decide.cfd_ns` histogram while
    /// telemetry is enabled.
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let _span = instruments().decide_cfd_ns.start_timer();
        let profile = observation.cyclic_profile_for(self.engine())?;
        Decision::from_outcome(self.detect_from_profile(profile)).finite("cfd")
    }
}

/// A shareable recipe from which every sweep worker builds its own
/// [`SensingBackend`] replica.
///
/// Backends are stateful (the platform-backed ones own whole simulated
/// SoCs), so a single instance would force every decision of a parallel
/// sweep through one `&mut` borrow. A recipe is the `Sync` description the
/// workers share; replicas built from the same recipe must produce
/// identical decisions for identical observations, so any partition of a
/// trial set over replicas yields the same counts as one backend run
/// serially.
///
/// Every `Clone + Sync` backend is automatically its own recipe (a clone
/// is a full replica for the configuration-only golden models); platform
/// sessions are built by [`SessionRecipe`].
pub trait BackendRecipe: Sync {
    /// Stable label for result tables (matches the built replica's
    /// [`SensingBackend::label`]).
    fn label(&self) -> String;

    /// Builds one independent replica.
    ///
    /// Replicas are `Send` so consumers may build them on one thread and
    /// run them on another (the fusion layer caches member replicas inside
    /// a backend that must itself stay shareable).
    ///
    /// # Errors
    ///
    /// Propagates construction errors of the underlying backend.
    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError>;
}

/// Every cloneable, shareable backend is its own recipe: a clone is a
/// fully independent replica because such backends carry only
/// configuration, no per-observation state.
impl<B> BackendRecipe for B
where
    B: SensingBackend + Clone + Send + Sync + 'static,
{
    fn label(&self) -> String {
        SensingBackend::label(self)
    }

    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError> {
        Ok(Box::new(self.clone()))
    }
}

/// Recipe opening a fresh [`SensingSession`] (one platform configuration,
/// amortised over every decision of the replica's lifetime) per worker —
/// the platform counterpart of the `Clone` blanket recipe.
///
/// # Examples
///
/// ```
/// use cfd_core::app::{CfdApplication, Platform};
/// use cfd_core::backend::{BackendRecipe, SessionRecipe};
///
/// # fn main() -> Result<(), cfd_core::error::CfdError> {
/// let recipe = SessionRecipe::new(
///     CfdApplication::new(32, 7, 16)?,
///     &Platform::paper(),
///     0.35,
///     1,
/// );
/// assert_eq!(recipe.label(), "cfd-soc");
/// let _replica = recipe.build()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SessionRecipe {
    /// The DSCF application to map onto the platform.
    pub application: CfdApplication,
    /// The platform to simulate.
    pub platform: Platform,
    /// Detector threshold on the normalised feature statistic.
    pub threshold: f64,
    /// Guard zone half-width around `a = 0`.
    pub guard_offsets: usize,
}

impl SessionRecipe {
    /// Creates a session recipe. Construction is validated when a replica
    /// is built (the platform is not simulated until then).
    pub fn new(
        application: CfdApplication,
        platform: &Platform,
        threshold: f64,
        guard_offsets: usize,
    ) -> Self {
        SessionRecipe {
            application,
            platform: platform.clone(),
            threshold,
            guard_offsets,
        }
    }
}

impl BackendRecipe for SessionRecipe {
    fn label(&self) -> String {
        "cfd-soc".into()
    }

    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError> {
        Ok(Box::new(SensingSession::new(
            self.application.clone(),
            &self.platform,
            self.threshold,
            self.guard_offsets,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::scf::dscf_reference;
    use cfd_dsp::signal::{awgn, SignalBuilder, SymbolModulation};

    fn busy(params: &ScfParams, snr_db: f64, seed: u64) -> Vec<Cplx> {
        SignalBuilder::new(params.samples_needed())
            .modulation(SymbolModulation::Bpsk)
            .samples_per_symbol(4)
            .snr_db(snr_db)
            .seed(seed)
            .build()
            .unwrap()
            .samples
    }

    #[test]
    fn observation_caches_spectra_and_scf_per_params() {
        // Cache behaviour is asserted through the per-instance
        // `computed()` count only: the global `spectra_computations()`
        // counter is incremented by sibling tests running in parallel, so
        // exact-delta assertions on it belong to the isolated
        // `tests/shared_spectra.rs` binary.
        let params_a = ScfParams::new(32, 7, 8).unwrap();
        let params_b = ScfParams::new(32, 5, 8).unwrap();
        let engine_a = ScfEngine::new(params_a.clone()).unwrap();
        let engine_b = ScfEngine::new(params_b).unwrap();
        let mut observation = Observation::from_samples(busy(&params_a, 3.0, 1));

        assert_eq!(observation.computed(), 0);
        observation.spectra_for(&engine_a).unwrap();
        observation.scf_for(&engine_a).unwrap();
        observation.spectra_for(&engine_a).unwrap();
        assert_eq!(observation.computed(), 1);
        observation.scf_for(&engine_b).unwrap();
        assert_eq!(observation.computed(), 2);

        // New samples keep the buffers but invalidate the caches.
        observation.load(&busy(&params_a, 3.0, 2));
        assert_eq!(observation.computed(), 0);
        observation.scf_for(&engine_a).unwrap();
        assert_eq!(observation.computed(), 1);
    }

    #[test]
    fn observation_scf_matches_the_reference() {
        let params = ScfParams::new(32, 7, 8).unwrap();
        let engine = ScfEngine::new(params.clone()).unwrap();
        let samples = busy(&params, 3.0, 5);
        let mut observation = Observation::from_samples(samples.clone());
        let reference = dscf_reference(&samples, &params).unwrap();
        assert_eq!(
            observation
                .scf_for(&engine)
                .unwrap()
                .max_abs_difference(&reference),
            0.0
        );
    }

    /// The three profile tiers agree bit for bit: a fresh profile folded
    /// straight from the spectra (no matrix request), the profile filled
    /// alongside a computed matrix, and a scan of that matrix — in either
    /// call order, and on the materialising observation that follows a
    /// matrix request.
    #[test]
    fn fused_profile_matches_the_matrix_scan_in_either_order() {
        let params = ScfParams::new(64, 15, 6).unwrap().with_stride(48);
        let engine = ScfEngine::new(params.clone()).unwrap();
        let bits = |profile: &[f64]| profile.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for seed in 0..3 {
            let samples = busy(&params, 0.0, 30 + seed);
            let scanned = dscf_reference(&samples, &params).unwrap().cyclic_profile();

            // Profile first: fused, no matrix served, then the matrix.
            let mut observation = Observation::from_samples(samples.clone());
            let fused = bits(observation.cyclic_profile_for(&engine).unwrap());
            assert_eq!(
                observation.scf_requests(),
                0,
                "the fused tier serves no matrix"
            );
            assert_eq!(fused, bits(&scanned));
            let matrix = observation.scf_for(&engine).unwrap().cyclic_profile();
            assert_eq!(bits(&matrix), fused);
            assert_eq!(
                bits(observation.cyclic_profile_for(&engine).unwrap()),
                fused
            );

            // Matrix first: its pass fills the profile slot too.
            let mut observation = Observation::from_samples(samples.clone());
            let matrix = observation.scf_for(&engine).unwrap().cyclic_profile();
            assert_eq!(bits(&matrix), fused);
            assert_eq!(
                bits(observation.cyclic_profile_for(&engine).unwrap()),
                fused
            );
            assert_eq!(observation.scf_requests(), 1);

            // The next observation materialises on its profile miss, and a
            // matrix-free one after that drops back to the fused tier.
            for _ in 0..2 {
                observation.load(&samples);
                assert_eq!(
                    bits(observation.cyclic_profile_for(&engine).unwrap()),
                    fused
                );
            }
            assert_eq!(observation.scf_requests(), 1);
        }
    }

    #[test]
    fn observation_propagates_short_sample_errors() {
        let params = ScfParams::new(32, 7, 8).unwrap();
        let engine = ScfEngine::new(params).unwrap();
        let mut observation = Observation::from_samples(awgn(16, 1.0, 1));
        assert!(observation.spectra_for(&engine).is_err());
    }

    #[test]
    fn decision_constructors_agree_with_the_detector_convention() {
        let decision = Decision::new(0.5, 0.5);
        assert_eq!(decision.verdict, Verdict::NoiseOnly);
        assert!(!decision.is_signal());
        let outcome = DetectionOutcome::new(0.5, 0.5);
        assert_eq!(outcome.statistic, 0.5);
        assert_eq!(outcome.decision, Verdict::NoiseOnly);
        assert_eq!(Decision::from_outcome(outcome), decision);
        assert!(Decision::new(0.75, 0.5).is_signal());
        // A detector's outcome is the rule applied to its statistic and
        // threshold, and the backend decides exactly that.
        let params = ScfParams::new(32, 7, 16).unwrap();
        let samples = busy(&params, 3.0, 7);
        let mut energy = EnergyDetector::new(1.0, 0.05, samples.len()).unwrap();
        let detected = energy.detect(&samples).unwrap();
        assert_eq!(
            detected,
            DetectionOutcome::new(detected.statistic, detected.threshold)
        );
        let decided = energy
            .decide(&mut Observation::from_samples(samples))
            .unwrap();
        assert_eq!(decided, Decision::from_outcome(detected));
    }

    #[test]
    fn software_backends_decide_identically_to_their_detector_paths() {
        let params = ScfParams::new(32, 7, 16).unwrap();
        let samples = busy(&params, 3.0, 7);
        let mut observation = Observation::from_samples(samples.clone());

        let mut energy = EnergyDetector::new(1.0, 0.05, samples.len()).unwrap();
        let energy_decision = energy.decide(&mut observation).unwrap();
        assert_eq!(
            energy_decision,
            Decision::from_outcome(energy.detect(&samples).unwrap())
        );
        assert_eq!(SensingBackend::label(&energy), "energy");
        assert!(energy_decision.metrics.is_none());

        let mut cfd = CyclostationaryDetector::new(params, 0.35, 1).unwrap();
        let cfd_decision = cfd.decide(&mut observation).unwrap();
        assert_eq!(
            cfd_decision,
            Decision::from_outcome(cfd.detect(&samples).unwrap())
        );
        assert_eq!(SensingBackend::label(&cfd), "cfd");
    }

    #[test]
    fn software_backends_refuse_non_finite_statistics() {
        // One NaN or infinite sample must never threshold to "vacant".
        let params = ScfParams::new(32, 7, 16).unwrap();
        for poison in [f64::NAN, f64::INFINITY] {
            let mut samples = busy(&params, 3.0, 7);
            samples[10] = Cplx::new(poison, 0.0);
            let mut observation = Observation::from_samples(samples.clone());
            let mut energy = EnergyDetector::new(1.0, 0.05, samples.len()).unwrap();
            assert!(matches!(
                energy.decide(&mut observation),
                Err(CfdError::NonFiniteStatistic {
                    backend: "energy",
                    ..
                })
            ));
            let mut cfd = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
            assert!(matches!(
                cfd.decide(&mut observation),
                Err(CfdError::NonFiniteStatistic { backend: "cfd", .. })
            ));
        }
    }

    #[test]
    fn clone_backends_are_their_own_recipes() {
        let params = ScfParams::new(32, 7, 8).unwrap();
        let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let recipe: &dyn BackendRecipe = &detector;
        assert_eq!(recipe.label(), "cfd");
        let mut replica = recipe.build().unwrap();
        let mut observation = Observation::from_samples(busy(&params, 5.0, 3));
        let decision = replica.decide(&mut observation).unwrap();
        let mut original = detector.clone();
        assert_eq!(
            decision,
            SensingBackend::decide(&mut original, &mut observation).unwrap()
        );
    }

    #[test]
    fn provided_decide_batch_iterates_decide() {
        let params = ScfParams::new(32, 7, 8).unwrap();
        let mut detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let mut observations: Vec<Observation> = (0..3)
            .map(|seed| Observation::from_samples(busy(&params, 0.0, 20 + seed)))
            .collect();
        let batch = detector.decide_batch(&mut observations).unwrap();
        assert_eq!(batch.len(), 3);
        for (observation, decision) in observations.iter_mut().zip(&batch) {
            assert_eq!(
                &SensingBackend::decide(&mut detector, observation).unwrap(),
                decision
            );
        }
    }
}
