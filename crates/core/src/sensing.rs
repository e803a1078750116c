//! End-to-end spectrum sensing on the simulated platform.
//!
//! This is the cognitive-radio use the paper motivates in its introduction:
//! decide whether a licensed user occupies a band by computing the DSCF of
//! the received samples — here on the simulated tiled SoC rather than a
//! golden model — and thresholding its cyclic features. An energy-detector
//! baseline (the simpler alternative of Cabric et al. \[7\]) is provided for
//! comparison.

use crate::app::{CfdApplication, Platform};
use crate::backend::{Decision, Observation, SensingBackend};
use crate::error::CfdError;
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::{
    CyclostationaryDetector, DetectionOutcome, Detector, EnergyDetector, Verdict,
};
use cfd_dsp::scf::ScfMatrix;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use tiled_soc::config::ExecutionMode;
use tiled_soc::error::SocError;
use tiled_soc::power::PlatformMetrics;
use tiled_soc::soc::{SocRun, TiledSoc};
use tiled_soc::tile::TileCycleBreakdown;

/// The `core.decide.cfd_soc_ns` histogram, resolved once; it records only
/// while telemetry is enabled.
fn decide_ns() -> &'static cfd_telemetry::Histogram {
    static DECIDE_NS: OnceLock<cfd_telemetry::Histogram> = OnceLock::new();
    DECIDE_NS.get_or_init(|| cfd_telemetry::histogram("core.decide.cfd_soc_ns"))
}

/// The result of one sensing decision taken on the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensingReport {
    /// The detector outcome (statistic, threshold, decision).
    pub outcome: DetectionOutcome,
    /// The DSCF computed by the platform.
    pub scf: ScfMatrix,
    /// Per-tile cycle breakdowns for the whole observation.
    pub per_tile_cycles: Vec<TileCycleBreakdown>,
    /// Words exchanged between tiles during the observation.
    pub inter_tile_transfers: u64,
    /// Platform metrics for one integration step.
    pub metrics: PlatformMetrics,
    /// Sensing latency for the whole observation in µs (all integration
    /// steps on the critical tile).
    pub latency_us: f64,
}

impl SensingReport {
    /// Convenience: whether the band was declared occupied.
    pub fn occupied(&self) -> bool {
        self.outcome.decision == Verdict::SignalPresent
    }
}

/// A spectrum sensor: the CFD application mapped onto a simulated tiled SoC
/// plus a cyclostationary detector thresholding the result.
#[derive(Debug)]
pub struct SpectrumSensor {
    application: CfdApplication,
    soc: TiledSoc,
    detector: CyclostationaryDetector,
}

impl SpectrumSensor {
    /// Builds a sensor for `application` on `platform`, with the given
    /// detector threshold on the normalised cyclic-feature statistic and a
    /// guard zone of `guard_offsets` around `a = 0`.
    ///
    /// # Errors
    ///
    /// Propagates application, platform and detector construction errors.
    pub fn new(
        application: CfdApplication,
        platform: &Platform,
        threshold: f64,
        guard_offsets: usize,
    ) -> Result<Self, CfdError> {
        let soc = TiledSoc::new(
            platform.soc_config(),
            application.max_offset,
            application.fft_len,
        )?;
        let detector =
            CyclostationaryDetector::new(application.scf_params()?, threshold, guard_offsets)?;
        Ok(SpectrumSensor {
            application,
            soc,
            detector,
        })
    }

    /// The paper's sensor: 127×127 DSCF over 256-point spectra on 4 Montium
    /// tiles, with `num_blocks` integration steps per decision.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn paper(num_blocks: usize, threshold: f64) -> Result<Self, CfdError> {
        SpectrumSensor::new(
            CfdApplication::paper_with_blocks(num_blocks),
            &Platform::paper(),
            threshold,
            2,
        )
    }

    /// The application this sensor runs.
    pub fn application(&self) -> &CfdApplication {
        &self.application
    }

    /// Number of samples consumed per decision.
    pub fn samples_per_decision(&self) -> usize {
        self.application.samples_needed()
    }

    /// The DSCF engine of this sensor's detector — its parameters are
    /// exactly the application's [`CfdApplication::scf_params`], so the
    /// sensor's [`SensingBackend`] decisions read the DSCF an
    /// [`Observation`] caches for every backend at those parameters.
    pub fn engine(&self) -> &cfd_dsp::scf::ScfEngine {
        self.detector.engine()
    }

    /// Whether this sensor's platform produces the same decisions from
    /// the software-computed spectra and DSCF as from raw samples: true
    /// for the analytic fast path (which `TiledSoc` only constructs for the
    /// full-precision datapath — Analytic + Q15 is refused up front). The
    /// simulating modes compute their spectra on-tile by design, so they
    /// read raw samples. The Q15 check is defensive should that
    /// construction rule ever be relaxed.
    pub fn shares_software_spectra(&self) -> bool {
        self.soc.config().mode == ExecutionMode::Analytic && !self.soc.config().tile.quantize_q15
    }

    /// Scenario-driven fast entry point: one decision from externally
    /// computed block spectra (eq. 2, non-overlapping rectangular-window
    /// blocks — the spectra an [`Observation`] already cached for the
    /// software CFD replicas), fed straight into the platform's spectra-fed
    /// correlator. Decisions are identical to
    /// [`SpectrumSensor::decide`] on the raw samples when
    /// [`SpectrumSensor::shares_software_spectra`] holds.
    ///
    /// # Errors
    ///
    /// Propagates platform errors (e.g. block spectra shorter than the FFT
    /// length).
    pub fn decide_from_spectra(
        &mut self,
        spectra: &[Vec<Cplx>],
    ) -> Result<DetectionOutcome, CfdError> {
        self.soc.reset();
        let run = self.soc.run_from_spectra(spectra)?;
        Ok(self.detector.detect_from_scf(&run.scf))
    }

    /// Scenario-driven entry point: takes one decision on the simulated
    /// platform and returns only the detector outcome, skipping the
    /// report assembly of [`SpectrumSensor::sense`]. This is the hot path
    /// for Monte-Carlo sweeps (`cfd-scenario`) that need thousands of
    /// decisions and no per-decision metrics.
    ///
    /// # Errors
    ///
    /// Propagates platform errors (e.g. too few samples).
    pub fn decide(&mut self, samples: &[Cplx]) -> Result<DetectionOutcome, CfdError> {
        self.soc.reset();
        let run = self.soc.run(samples, self.application.num_blocks)?;
        Ok(self.detector.detect_from_scf(&run.scf))
    }

    /// Takes one sensing decision over `samples`
    /// (`samples_per_decision()` samples are consumed).
    ///
    /// # Errors
    ///
    /// Propagates platform errors (e.g. too few samples).
    pub fn sense(&mut self, samples: &[Cplx]) -> Result<SensingReport, CfdError> {
        self.soc.reset();
        let run = self.soc.run(samples, self.application.num_blocks)?;
        let outcome = self.detector.detect_from_scf(&run.scf);
        let metrics = self.soc.metrics(&run);
        let latency_us = metrics.time_per_block_us * self.application.num_blocks as f64;
        Ok(SensingReport {
            outcome,
            scf: run.scf,
            per_tile_cycles: run.per_tile_cycles,
            inter_tile_transfers: run.inter_tile_transfers,
            metrics,
            latency_us,
        })
    }
}

impl SensingBackend for SpectrumSensor {
    fn label(&self) -> String {
        "cfd-soc".into()
    }

    /// One decision through the unified surface: an analytic
    /// full-precision platform thresholds the observation's cached
    /// cyclic profile (one FFT and one DSCF per trial for the whole
    /// roster; a cache hit when a software CFD at the same parameters
    /// decided first), a simulating or Q15 platform computes its own
    /// on-tile spectra from the raw samples. Either way the decision is
    /// identical to [`SpectrumSensor::decide`] on the raw samples.
    ///
    /// # Errors
    ///
    /// Platform and observation errors, and
    /// [`CfdError::NonFiniteStatistic`] for non-finite input.
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let _span = decide_ns().start_timer();
        let outcome = if self.shares_software_spectra() {
            let profile = observation.cyclic_profile_for(self.engine())?;
            self.detector.detect_from_profile(profile)
        } else {
            SpectrumSensor::decide(self, observation.samples())?
        };
        Decision::from_outcome(outcome).finite("cfd-soc")
    }
}

/// The platform cost of one batch streamed through a [`SensingSession`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionBatch {
    /// One detector outcome per observation, in input order.
    pub outcomes: Vec<DetectionOutcome>,
    /// Integration steps processed over the whole batch.
    pub blocks: usize,
    /// Critical-path cycles accumulated over the whole batch.
    pub critical_cycles: u64,
    /// Platform metrics at the batch's average per-block rate.
    pub metrics: PlatformMetrics,
    /// Total platform time spent on the batch in µs.
    pub elapsed_us: f64,
}

impl SessionBatch {
    /// Convenience: the boolean decisions ("band occupied?") in input order.
    pub fn decisions(&self) -> Vec<bool> {
        self.outcomes
            .iter()
            .map(|o| o.decision.is_signal())
            .collect()
    }
}

/// A sensing session: the `TiledSoc` is configured **once** and batches of
/// observations are then streamed through it.
///
/// This is the streaming counterpart of [`SpectrumSensor::sense`]. Where a
/// naive sweep driver would rebuild (and thus reconfigure) the platform per
/// decision, a session amortises the one-time sequencer configuration over
/// every decision of its lifetime — the execution model the paper's
/// hardware actually has, where the Montium programs are loaded once and
/// samples stream through. [`SensingSession::configurations`] exposes the
/// underlying counter so callers can assert the contract.
#[derive(Debug)]
pub struct SensingSession {
    sensor: SpectrumSensor,
    /// Reused [`SocRun`] (DSCF matrix + per-tile breakdowns) of platform
    /// runs, so a session's steady-state decisions allocate nothing per
    /// run. Allocated by the first run: decisions taken from an
    /// observation's shared DSCF never need one.
    scratch: Option<SocRun>,
    decisions: u64,
    total_blocks: u64,
    total_critical_cycles: u64,
}

impl SensingSession {
    /// Opens a session over a freshly built sensor (one platform
    /// configuration).
    ///
    /// # Errors
    ///
    /// Propagates [`SpectrumSensor::new`] construction errors.
    pub fn new(
        application: CfdApplication,
        platform: &Platform,
        threshold: f64,
        guard_offsets: usize,
    ) -> Result<Self, CfdError> {
        Ok(SensingSession::from_sensor(SpectrumSensor::new(
            application,
            platform,
            threshold,
            guard_offsets,
        )?))
    }

    /// Wraps an existing sensor (its construction-time configuration counts
    /// as this session's one configuration).
    pub fn from_sensor(sensor: SpectrumSensor) -> Self {
        SensingSession {
            sensor,
            scratch: None,
            decisions: 0,
            total_blocks: 0,
            total_critical_cycles: 0,
        }
    }

    /// The sensor this session streams through.
    pub fn sensor(&self) -> &SpectrumSensor {
        &self.sensor
    }

    /// Number of samples each observation must provide.
    pub fn samples_per_decision(&self) -> usize {
        self.sensor.samples_per_decision()
    }

    /// Decisions taken over the session's lifetime.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// How many times the underlying platform has been configured. Stays at
    /// 1 for the whole session regardless of how many batches stream
    /// through — the invariant the batched sweep engine relies on.
    pub fn configurations(&self) -> u64 {
        self.sensor.soc.configurations()
    }

    /// The DSCF engine keying this session's shareable block spectra (see
    /// [`SpectrumSensor::engine`]).
    pub fn engine(&self) -> &cfd_dsp::scf::ScfEngine {
        self.sensor.engine()
    }

    /// Whether shared software spectra reproduce this session's raw-sample
    /// decisions (see [`SpectrumSensor::shares_software_spectra`]).
    pub fn shares_software_spectra(&self) -> bool {
        self.sensor.shares_software_spectra()
    }

    /// Books one processed decision of `blocks` integration steps and
    /// `cycles` critical-path cycles into the session totals.
    fn book(&mut self, blocks: usize, cycles: u64) {
        self.decisions += 1;
        self.total_blocks += blocks as u64;
        self.total_critical_cycles += cycles;
    }

    /// One platform run into the reused scratch [`SocRun`], booked and
    /// thresholded — shared by the raw-sample and spectra-fed paths, which
    /// differ only in how `fill` runs the platform. Returns the outcome
    /// and the critical-path cycles of this decision.
    fn decide_run(
        &mut self,
        fill: impl FnOnce(&mut TiledSoc, &mut SocRun) -> Result<(), SocError>,
    ) -> Result<(DetectionOutcome, u64), CfdError> {
        let sensor = &mut self.sensor;
        let scratch = self.scratch.get_or_insert_with(|| sensor.soc.empty_run());
        sensor.soc.reset();
        fill(&mut sensor.soc, scratch)?;
        let (blocks, cycles) = (scratch.blocks, scratch.max_tile_cycles());
        let outcome = sensor.detector.detect_from_scf(&scratch.scf);
        self.book(blocks, cycles);
        Ok((outcome, cycles))
    }

    /// One decision on raw samples plus its session accounting, shared by
    /// [`SensingSession::decide`] and [`SensingSession::decide_batch`].
    fn decide_one(&mut self, samples: &[Cplx]) -> Result<(DetectionOutcome, u64), CfdError> {
        let num_blocks = self.sensor.application.num_blocks;
        self.decide_run(|soc, run| soc.run_into(samples, num_blocks, run))
    }

    /// One decision from externally computed block spectra, streamed
    /// through the platform's spectra-fed fast path with the same session
    /// accounting as [`SensingSession::decide`] (see
    /// [`SpectrumSensor::decide_from_spectra`]).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn decide_from_spectra(
        &mut self,
        spectra: &[Vec<Cplx>],
    ) -> Result<DetectionOutcome, CfdError> {
        Ok(self
            .decide_run(|soc, run| soc.run_from_spectra_into(spectra, run))?
            .0)
    }

    /// Streams one batch of observations through the platform and returns
    /// the outcomes plus the platform metrics accumulated over the batch.
    ///
    /// # Errors
    ///
    /// Propagates platform errors (e.g. too few samples). On a mid-batch
    /// failure the earlier observations' outcomes are discarded but stay
    /// counted in the session totals (they were processed); the session
    /// remains usable.
    pub fn decide_batch(&mut self, observations: &[&[Cplx]]) -> Result<SessionBatch, CfdError> {
        let mut outcomes = Vec::with_capacity(observations.len());
        let mut critical_cycles = 0u64;
        for &samples in observations {
            let (outcome, cycles) = self.decide_one(samples)?;
            outcomes.push(outcome);
            critical_cycles += cycles;
        }
        let blocks = observations.len() * self.sensor.application.num_blocks;
        let config = self.sensor.soc.config();
        let cycles_per_block = critical_cycles.checked_div(blocks as u64).unwrap_or(0);
        let metrics =
            PlatformMetrics::new(config, cycles_per_block, self.sensor.application.fft_len);
        Ok(SessionBatch {
            outcomes,
            blocks,
            critical_cycles,
            // Exact, not `time_per_block_us * blocks`: the per-block rate
            // in `metrics` is integer-truncated, the total must not be.
            elapsed_us: critical_cycles as f64 / config.tile.clock_mhz,
            metrics,
        })
    }

    /// Takes a single decision (a one-observation batch without the report
    /// allocation) — the unit the sweep engine's work queue dispatches.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn decide(&mut self, samples: &[Cplx]) -> Result<DetectionOutcome, CfdError> {
        Ok(self.decide_one(samples)?.0)
    }

    /// Platform metrics accumulated over the whole session so far (average
    /// per-block rate over every batch streamed).
    pub fn session_metrics(&self) -> PlatformMetrics {
        let cycles_per_block = self
            .total_critical_cycles
            .checked_div(self.total_blocks)
            .unwrap_or(0);
        PlatformMetrics::new(
            self.sensor.soc.config(),
            cycles_per_block,
            self.sensor.application.fft_len,
        )
    }
}

impl SensingBackend for SensingSession {
    fn label(&self) -> String {
        "cfd-soc".into()
    }

    /// One decision plus the usual session accounting (the decision counts
    /// toward [`SensingSession::decisions`] and the session totals). Like
    /// [`SpectrumSensor`]'s backend impl, an analytic full-precision
    /// platform thresholds the observation's cached cyclic profile and
    /// books the closed-form platform cost
    /// ([`TiledSoc::critical_cycles`]) — the same totals a platform run
    /// would have booked. The returned decision carries the session's
    /// accumulated [`PlatformMetrics`].
    ///
    /// # Errors
    ///
    /// Platform and observation errors, and
    /// [`CfdError::NonFiniteStatistic`] for non-finite input.
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let _span = decide_ns().start_timer();
        let outcome = if self.shares_software_spectra() {
            let blocks = self.sensor.application.num_blocks;
            let profile = observation.cyclic_profile_for(self.sensor.engine())?;
            let outcome = self.sensor.detector.detect_from_profile(profile);
            self.book(blocks, self.sensor.soc.critical_cycles(blocks));
            outcome
        } else {
            SensingSession::decide(self, observation.samples())?
        };
        Decision::from_outcome(outcome)
            .with_metrics(self.session_metrics())
            .finite("cfd-soc")
    }
}

/// Runs the energy-detector baseline over the same observation, calibrated
/// for the given (assumed) noise power and false-alarm target.
///
/// # Errors
///
/// Propagates detector errors.
pub fn energy_detector_baseline(
    samples: &[Cplx],
    assumed_noise_power: f64,
    false_alarm: f64,
) -> Result<DetectionOutcome, CfdError> {
    let detector = EnergyDetector::new(assumed_noise_power, false_alarm, samples.len().max(1))?;
    Ok(detector.detect(samples)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::signal::{SignalBuilder, SymbolModulation};

    fn sensor() -> SpectrumSensor {
        // A small, fast configuration: 15x15 DSCF over 32-point spectra on
        // 4 tiles, 48 integration steps.
        SpectrumSensor::new(
            CfdApplication::new(32, 7, 64).unwrap(),
            &Platform::paper(),
            0.35,
            1,
        )
        .unwrap()
    }

    fn observation(present: bool, snr_db: f64, len: usize, seed: u64) -> Vec<Cplx> {
        let mut builder = SignalBuilder::new(len)
            .modulation(SymbolModulation::Bpsk)
            .samples_per_symbol(4)
            .seed(seed);
        if present {
            builder = builder.snr_db(snr_db);
        } else {
            builder = builder.noise_only();
        }
        builder.build().unwrap().samples
    }

    #[test]
    fn sensor_detects_a_licensed_user_and_clears_an_empty_band() {
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        assert_eq!(n, 32 * 64);
        let busy = observation(true, 5.0, n, 3);
        let idle = observation(false, 0.0, n, 4);
        let busy_report = sensor.sense(&busy).unwrap();
        let idle_report = sensor.sense(&idle).unwrap();
        assert!(
            busy_report.occupied(),
            "statistic {}",
            busy_report.outcome.statistic
        );
        assert!(
            !idle_report.occupied(),
            "statistic {}",
            idle_report.outcome.statistic
        );
        assert!(busy_report.outcome.statistic > idle_report.outcome.statistic);
        assert!(busy_report.latency_us > 0.0);
        assert_eq!(busy_report.per_tile_cycles.len(), 4);
        assert!(busy_report.inter_tile_transfers > 0);
    }

    #[test]
    fn sensing_statistic_matches_golden_model_detector() {
        // The statistic computed from the SoC-produced DSCF must equal the
        // statistic the golden-model detector computes from the raw samples.
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        let samples = observation(true, 3.0, n, 7);
        let report = sensor.sense(&samples).unwrap();
        let golden =
            CyclostationaryDetector::new(sensor.application().scf_params().unwrap(), 0.35, 1)
                .unwrap();
        let golden_statistic = golden.statistic(&samples).unwrap();
        assert!(
            (report.outcome.statistic - golden_statistic).abs() < 1e-9,
            "{} vs {golden_statistic}",
            report.outcome.statistic
        );
    }

    #[test]
    fn energy_baseline_collapses_under_noise_uncertainty_but_cfd_does_not() {
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        // Idle band, but the actual noise is 1 dB stronger than assumed.
        let idle: Vec<Cplx> = observation(false, 0.0, n, 4)
            .into_iter()
            .map(|x| x * 1.26f64.sqrt())
            .collect();
        let energy = energy_detector_baseline(&idle, 1.0, 0.05).unwrap();
        let cfd = sensor.sense(&idle).unwrap();
        assert!(
            energy.decision.is_signal(),
            "energy detector should false-alarm"
        );
        assert!(!cfd.occupied(), "CFD should not false-alarm");
    }

    #[test]
    fn session_configures_once_and_streams_batches() {
        let mut session = SensingSession::from_sensor(sensor());
        let n = session.samples_per_decision();
        let observations: Vec<Vec<Cplx>> = (0..6)
            .map(|i| observation(i % 2 == 0, 5.0, n, 100 + i as u64))
            .collect();
        let refs: Vec<&[Cplx]> = observations.iter().map(Vec::as_slice).collect();
        // Two batches through one session: still exactly one configuration.
        let first = session.decide_batch(&refs[..4]).unwrap();
        let second = session.decide_batch(&refs[4..]).unwrap();
        assert_eq!(session.configurations(), 1);
        assert_eq!(session.decisions(), 6);
        assert_eq!(first.outcomes.len(), 4);
        assert_eq!(second.outcomes.len(), 2);
        assert_eq!(first.blocks, 4 * 64);
        assert!(first.critical_cycles > 0);
        assert!(first.elapsed_us > 0.0);
        assert!(session.session_metrics().time_per_block_us > 0.0);
        // The decision shorthand mirrors the outcomes one-to-one.
        let expected: Vec<bool> = first
            .outcomes
            .iter()
            .map(|o| o.decision.is_signal())
            .collect();
        assert_eq!(first.decisions(), expected);
    }

    #[test]
    fn session_decisions_match_the_sensor_path() {
        // A batch through the session must reproduce per-observation
        // `SpectrumSensor::decide` exactly: batching changes the schedule,
        // not the arithmetic.
        let mut session = SensingSession::from_sensor(sensor());
        let mut reference = sensor();
        let n = session.samples_per_decision();
        let observations: Vec<Vec<Cplx>> = (0..4)
            .map(|i| observation(i % 2 == 0, 2.0, n, 31 + i as u64))
            .collect();
        let refs: Vec<&[Cplx]> = observations.iter().map(Vec::as_slice).collect();
        let batch = session.decide_batch(&refs).unwrap();
        for (obs, outcome) in observations.iter().zip(&batch.outcomes) {
            assert_eq!(&reference.decide(obs).unwrap(), outcome);
        }
        // Single decisions keep the session accounting consistent too.
        let single = session.decide(&observations[0]).unwrap();
        assert_eq!(single, batch.outcomes[0]);
        assert_eq!(session.decisions(), 5);
        assert_eq!(session.configurations(), 1);
    }

    #[test]
    fn spectra_fed_decisions_match_raw_sample_decisions() {
        // The spectra-fed fast path must reproduce the raw-sample decision
        // (and its statistic) exactly: same DSCF, same cycle accounting.
        let mut via_samples = SensingSession::from_sensor(sensor());
        let mut via_spectra = SensingSession::from_sensor(sensor());
        assert!(via_spectra.shares_software_spectra());
        let engine = via_spectra.engine().clone();
        let n = via_samples.samples_per_decision();
        for trial in 0..3u64 {
            let samples = observation(trial % 2 == 0, 3.0, n, 50 + trial);
            let spectra = engine.compute_spectra(&samples).unwrap();
            let a = via_samples.decide(&samples).unwrap();
            let b = via_spectra.decide_from_spectra(&spectra).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(via_samples.decisions(), via_spectra.decisions());
        assert_eq!(via_samples.session_metrics(), via_spectra.session_metrics());
        assert_eq!(via_spectra.configurations(), 1);
    }

    #[test]
    fn analytic_sensor_matches_the_lockstep_golden_reference() {
        // Platform::paper() now defaults to the analytic fast path; the
        // cycle-accurate simulation stays available behind with_mode and
        // must report the identical statistic, metrics and counters.
        let application = CfdApplication::new(32, 7, 16).unwrap();
        let mut fast =
            SpectrumSensor::new(application.clone(), &Platform::paper(), 0.35, 1).unwrap();
        let mut golden = SpectrumSensor::new(
            application,
            &Platform::paper().with_mode(tiled_soc::config::ExecutionMode::Lockstep),
            0.35,
            1,
        )
        .unwrap();
        assert!(fast.shares_software_spectra());
        assert!(!golden.shares_software_spectra());
        let samples = observation(true, 4.0, fast.samples_per_decision(), 9);
        let fast_report = fast.sense(&samples).unwrap();
        let golden_report = golden.sense(&samples).unwrap();
        assert_eq!(fast_report.outcome, golden_report.outcome);
        assert_eq!(fast_report.per_tile_cycles, golden_report.per_tile_cycles);
        assert_eq!(
            fast_report.inter_tile_transfers,
            golden_report.inter_tile_transfers
        );
        assert_eq!(fast_report.metrics, golden_report.metrics);
        assert_eq!(fast_report.scf.max_abs_difference(&golden_report.scf), 0.0);
    }

    #[test]
    fn analytic_session_decides_from_the_observation_cache() {
        let application = CfdApplication::paper_with_blocks(2);
        let mut fast =
            SensingSession::new(application.clone(), &Platform::paper(), 0.35, 2).unwrap();
        let mut golden = SensingSession::new(
            application,
            &Platform::paper().with_mode(ExecutionMode::Lockstep),
            0.35,
            2,
        )
        .unwrap();
        let n = fast.samples_per_decision();

        // The session thresholds whatever profile the observation holds:
        // a known installed profile decides exactly like the detector on
        // it, and no matrix is requested.
        let params = fast.engine().params().clone();
        let installed: Vec<f64> = (0..params.grid_size())
            .map(|i| 1.0 + (i % 7) as f64)
            .collect();
        let mut cached = Observation::from_samples(observation(true, 3.0, n, 20));
        cached
            .install_cyclic_profile(&params, |profile| {
                profile.clone_from(&installed);
                Ok::<_, CfdError>(())
            })
            .unwrap();
        let decision = SensingBackend::decide(&mut fast, &mut cached).unwrap();
        let detector = CyclostationaryDetector::new(params, 0.35, 2).unwrap();
        assert_eq!(decision.outcome(), detector.detect_from_profile(&installed));
        assert_eq!(cached.scf_requests(), 0);

        // On real observations the cached path is bit-identical to the
        // cycle-accurate session on raw samples, platform metrics included.
        for trial in 0..3u64 {
            let samples = observation(trial % 2 == 0, 3.0, n, 21 + trial);
            let a =
                SensingBackend::decide(&mut fast, &mut Observation::from_samples(samples.clone()))
                    .unwrap();
            let b = SensingBackend::decide(&mut golden, &mut Observation::from_samples(samples))
                .unwrap();
            assert_eq!(a, b);
            let metrics = a.metrics.expect("platform-backed decisions carry metrics");
            assert_eq!(
                (metrics.time_per_block_us * golden.sensor().soc.config().tile.clock_mhz).round(),
                13_996.0
            );
        }
        assert_eq!(fast.decisions(), golden.decisions() + 1);
        assert_eq!(fast.session_metrics(), golden.session_metrics());
        assert_eq!(fast.configurations(), 1);
    }

    #[test]
    fn non_finite_samples_are_refused_not_read_as_vacant() {
        let application = CfdApplication::new(32, 7, 4).unwrap();
        let lockstep = Platform::paper().with_mode(ExecutionMode::Lockstep);
        let mut backends: Vec<Box<dyn SensingBackend>> = vec![
            Box::new(sensor()),
            Box::new(SensingSession::from_sensor(sensor())),
            Box::new(SensingSession::new(application, &lockstep, 0.35, 1).unwrap()),
        ];
        for backend in &mut backends {
            let mut samples = observation(false, 0.0, 32 * 64, 4);
            samples[3] = Cplx::new(f64::NAN, 0.0);
            let result = backend.decide(&mut Observation::from_samples(samples));
            assert!(
                matches!(
                    result,
                    Err(CfdError::NonFiniteStatistic {
                        backend: "cfd-soc",
                        ..
                    })
                ),
                "{result:?}"
            );
        }
    }

    #[test]
    fn session_survives_a_failed_batch() {
        let mut session = SensingSession::from_sensor(sensor());
        let n = session.samples_per_decision();
        let short = observation(true, 5.0, 100, 3);
        assert!(session.decide_batch(&[&short]).is_err());
        let good = observation(true, 5.0, n, 3);
        let batch = session.decide_batch(&[good.as_slice()]).unwrap();
        assert_eq!(batch.outcomes.len(), 1);
        assert_eq!(session.configurations(), 1);
    }

    #[test]
    fn sense_rejects_short_observations() {
        let mut sensor = sensor();
        let samples = observation(true, 5.0, 100, 3);
        assert!(sensor.sense(&samples).is_err());
    }

    #[test]
    fn paper_sensor_reports_the_140us_latency_per_step() {
        let mut sensor = SpectrumSensor::paper(1, 0.35).unwrap();
        let samples = observation(true, 10.0, 256, 11);
        let report = sensor.sense(&samples).unwrap();
        assert!((report.metrics.time_per_block_us - 139.96).abs() < 1e-9);
        assert!((report.latency_us - 139.96).abs() < 1e-9);
        assert!((report.metrics.analysed_bandwidth_khz - 915.0).abs() < 1.0);
    }
}
