//! End-to-end spectrum sensing on the simulated platform.
//!
//! This is the cognitive-radio use the paper motivates in its introduction:
//! decide whether a licensed user occupies a band by computing the DSCF of
//! the received samples — here on the simulated tiled SoC rather than a
//! golden model — and thresholding its cyclic features. The
//! energy-detector baseline (the simpler alternative of Cabric et al.
//! \[7\]) is `cfd_dsp`'s [`EnergyDetector`](cfd_dsp::detector::EnergyDetector),
//! itself a [`SensingBackend`].

use crate::app::{CfdApplication, Platform};
use crate::backend::{Decision, Observation, SensingBackend};
use crate::error::CfdError;
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::{CyclostationaryDetector, DetectionOutcome};
use std::sync::OnceLock;
use tiled_soc::config::ExecutionMode;
use tiled_soc::power::PlatformMetrics;
use tiled_soc::soc::{SocRun, TiledSoc};

/// The `core.decide.cfd_soc_ns` histogram, resolved once; it records only
/// while telemetry is enabled.
fn decide_ns() -> &'static cfd_telemetry::Histogram {
    static DECIDE_NS: OnceLock<cfd_telemetry::Histogram> = OnceLock::new();
    DECIDE_NS.get_or_init(|| cfd_telemetry::histogram("core.decide.cfd_soc_ns"))
}

/// A sensing session: the CFD application mapped onto a simulated tiled
/// SoC, configured **once**, plus a cyclostationary detector thresholding
/// every observation streamed through it.
///
/// A session amortises the one-time sequencer configuration over every
/// decision of its lifetime — the execution model the paper's hardware
/// actually has, where the Montium programs are loaded once and samples
/// stream through. [`SensingSession::configurations`] exposes the
/// underlying counter so callers can assert the contract. Decisions are
/// taken through [`SensingBackend`] (observations, with spectra sharing)
/// or [`SensingSession::run`] (raw samples, returning the platform's own
/// result).
#[derive(Debug)]
pub struct SensingSession {
    application: CfdApplication,
    soc: TiledSoc,
    detector: CyclostationaryDetector,
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
    /// Opens a session for `application` on `platform` (one platform
    /// configuration), with the given detector threshold on the normalised
    /// cyclic-feature statistic and a guard zone of `guard_offsets` around
    /// `a = 0`.
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
        Ok(SensingSession {
            application,
            soc,
            detector,
            scratch: None,
            decisions: 0,
            total_blocks: 0,
            total_critical_cycles: 0,
        })
    }

    /// The paper's session: 127×127 DSCF over 256-point spectra on 4
    /// Montium tiles, with `num_blocks` integration steps per decision.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn paper(num_blocks: usize, threshold: f64) -> Result<Self, CfdError> {
        SensingSession::new(
            CfdApplication::paper_with_blocks(num_blocks),
            &Platform::paper(),
            threshold,
            2,
        )
    }

    /// The application this session runs.
    pub fn application(&self) -> &CfdApplication {
        &self.application
    }

    /// Number of samples each observation must provide.
    pub fn samples_per_decision(&self) -> usize {
        self.application.samples_needed()
    }

    /// Decisions taken over the session's lifetime.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Integration steps processed over the session's lifetime.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Critical-path cycles accumulated over the session's lifetime.
    pub fn total_critical_cycles(&self) -> u64 {
        self.total_critical_cycles
    }

    /// How many times the underlying platform has been configured. Stays at
    /// 1 for the whole session regardless of how many observations stream
    /// through — the invariant the batched sweep engine relies on.
    pub fn configurations(&self) -> u64 {
        self.soc.configurations()
    }

    /// The DSCF engine of this session's detector — its parameters are
    /// exactly the application's [`CfdApplication::scf_params`], so the
    /// session's [`SensingBackend`] decisions read the DSCF an
    /// [`Observation`] caches for every backend at those parameters.
    pub fn engine(&self) -> &cfd_dsp::scf::ScfEngine {
        self.detector.engine()
    }

    /// Whether this session's platform produces the same decisions from
    /// the software-computed spectra and DSCF as from raw samples: true
    /// for the analytic fast path (which `TiledSoc` only constructs for the
    /// full-precision datapath — Analytic + Q15 is refused up front). The
    /// simulating modes compute their spectra on-tile by design, so they
    /// read raw samples. The Q15 check is defensive should that
    /// construction rule ever be relaxed.
    pub fn shares_software_spectra(&self) -> bool {
        self.soc.config().mode == ExecutionMode::Analytic && !self.soc.config().tile.quantize_q15
    }

    /// Books one processed decision of `blocks` integration steps and
    /// `cycles` critical-path cycles into the session totals.
    fn book(&mut self, blocks: usize, cycles: u64) {
        self.decisions += 1;
        self.total_blocks += blocks as u64;
        self.total_critical_cycles += cycles;
    }

    /// The booked `outcome` as a [`Decision`] carrying the session's
    /// accumulated [`PlatformMetrics`]; a non-finite statistic is refused.
    fn finish(&self, outcome: DetectionOutcome) -> Result<Decision, CfdError> {
        Decision::from_outcome(outcome)
            .with_metrics(self.session_metrics())
            .finite("cfd-soc")
    }

    /// One decision on raw samples (`samples_per_decision()` are
    /// consumed): runs the platform into the session's reused [`SocRun`],
    /// books it into the session totals and thresholds its DSCF. Returns
    /// the decision together with the platform's own result — the DSCF
    /// matrix, the per-tile cycle breakdowns and the inter-tile transfers.
    ///
    /// # Errors
    ///
    /// Propagates platform errors (e.g. too few samples), and refuses a
    /// non-finite statistic with [`CfdError::NonFiniteStatistic`]. The
    /// session stays usable after an error.
    pub fn run(&mut self, samples: &[Cplx]) -> Result<(Decision, &SocRun), CfdError> {
        let mut run = self.scratch.take().unwrap_or_else(|| self.soc.empty_run());
        self.soc.reset();
        self.soc
            .run_into(samples, self.application.num_blocks, &mut run)?;
        self.book(run.blocks, run.max_tile_cycles());
        let decision = self.finish(self.detector.detect_from_scf(&run.scf));
        let run = self.scratch.insert(run);
        Ok((decision?, run))
    }

    /// Platform metrics accumulated over the whole session so far (average
    /// per-block rate over every decision taken).
    pub fn session_metrics(&self) -> PlatformMetrics {
        let cycles_per_block = self
            .total_critical_cycles
            .checked_div(self.total_blocks)
            .unwrap_or(0);
        PlatformMetrics::new(
            self.soc.config(),
            cycles_per_block,
            self.application.fft_len,
        )
    }
}

impl SensingBackend for SensingSession {
    fn label(&self) -> String {
        "cfd-soc".into()
    }

    /// One decision plus the usual session accounting. An analytic
    /// full-precision platform thresholds the observation's cached cyclic
    /// profile (one FFT and one DSCF per trial for the whole roster; a
    /// cache hit when a software CFD at the same parameters decided first)
    /// and books the closed-form platform cost
    /// ([`TiledSoc::critical_cycles`]) — the same totals a platform run
    /// would have booked. A simulating or Q15 platform computes its own
    /// on-tile spectra from the raw samples through
    /// [`SensingSession::run`]. Either way the decision is identical to
    /// [`SensingSession::run`] on the raw samples and carries the
    /// session's accumulated [`PlatformMetrics`].
    ///
    /// # Errors
    ///
    /// Platform and observation errors, and
    /// [`CfdError::NonFiniteStatistic`] for non-finite input.
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let _span = decide_ns().start_timer();
        if !self.shares_software_spectra() {
            return Ok(self.run(observation.samples())?.0);
        }
        let blocks = self.application.num_blocks;
        let profile = observation.cyclic_profile_for(self.detector.engine())?;
        let outcome = self.detector.detect_from_profile(profile);
        self.book(blocks, self.soc.critical_cycles(blocks));
        self.finish(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::detector::{Detector, EnergyDetector};
    use cfd_dsp::signal::{SignalBuilder, SymbolModulation};

    fn sensor() -> SensingSession {
        // A small, fast configuration: 15x15 DSCF over 32-point spectra on
        // 4 tiles, 64 integration steps.
        SensingSession::new(
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

    fn observations(samples: &[Vec<Cplx>]) -> Vec<Observation> {
        samples
            .iter()
            .map(|s| Observation::from_samples(s.clone()))
            .collect()
    }

    #[test]
    fn sensor_detects_a_licensed_user_and_clears_an_empty_band() {
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        assert_eq!(n, 32 * 64);
        let busy = observation(true, 5.0, n, 3);
        let idle = observation(false, 0.0, n, 4);
        let (busy_decision, busy_run) = sensor.run(&busy).unwrap();
        let busy_run = busy_run.clone();
        let (idle_decision, _) = sensor.run(&idle).unwrap();
        assert!(
            busy_decision.is_signal(),
            "statistic {}",
            busy_decision.statistic
        );
        assert!(
            !idle_decision.is_signal(),
            "statistic {}",
            idle_decision.statistic
        );
        assert!(busy_decision.statistic > idle_decision.statistic);
        assert!(busy_run.max_tile_cycles() > 0);
        assert_eq!(busy_run.per_tile_cycles.len(), 4);
        assert!(busy_run.inter_tile_transfers > 0);
    }

    #[test]
    fn sensing_statistic_matches_golden_model_detector() {
        // The statistic computed from the SoC-produced DSCF must equal the
        // statistic the golden-model detector computes from the raw samples.
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        let samples = observation(true, 3.0, n, 7);
        let golden =
            CyclostationaryDetector::new(sensor.application().scf_params().unwrap(), 0.35, 1)
                .unwrap();
        let (decision, _) = sensor.run(&samples).unwrap();
        let golden_statistic = golden.statistic(&samples).unwrap();
        assert!(
            (decision.statistic - golden_statistic).abs() < 1e-9,
            "{} vs {golden_statistic}",
            decision.statistic
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
        let energy = EnergyDetector::new(1.0, 0.05, idle.len())
            .unwrap()
            .detect(&idle)
            .unwrap();
        let (cfd, _) = sensor.run(&idle).unwrap();
        assert!(
            energy.decision.is_signal(),
            "energy detector should false-alarm"
        );
        assert!(!cfd.is_signal(), "CFD should not false-alarm");
    }

    #[test]
    fn session_configures_once_and_streams_batches() {
        let mut session = sensor();
        let n = session.samples_per_decision();
        let samples: Vec<Vec<Cplx>> = (0..6)
            .map(|i| observation(i % 2 == 0, 5.0, n, 100 + i as u64))
            .collect();
        let mut batch = observations(&samples);
        // Two batches through one session: still exactly one configuration.
        let first = session.decide_batch(&mut batch[..4]).unwrap();
        assert_eq!(session.total_blocks(), 4 * 64);
        assert!(session.total_critical_cycles() > 0);
        assert!(session.session_metrics().time_per_block_us > 0.0);
        let second = session.decide_batch(&mut batch[4..]).unwrap();
        assert_eq!(session.configurations(), 1);
        assert_eq!(session.decisions(), 6);
        assert_eq!(first.len(), 4);
        assert_eq!(second.len(), 2);
        assert_eq!(session.total_blocks(), 6 * 64);
        // Every decision carries the session's platform metrics.
        for decision in first.iter().chain(&second) {
            assert_eq!(decision.metrics, Some(session.session_metrics()));
        }
    }

    #[test]
    fn session_decisions_match_the_sensor_path() {
        // A batch through the session must reproduce per-observation
        // platform runs exactly: batching and spectra sharing change the
        // schedule, not the arithmetic.
        let mut session = sensor();
        let mut reference = sensor();
        let n = session.samples_per_decision();
        let samples: Vec<Vec<Cplx>> = (0..4)
            .map(|i| observation(i % 2 == 0, 2.0, n, 31 + i as u64))
            .collect();
        let batch = session.decide_batch(&mut observations(&samples)).unwrap();
        for (obs, decision) in samples.iter().zip(&batch) {
            assert_eq!(&reference.run(obs).unwrap().0, decision);
        }
        // Single decisions keep the session accounting consistent too.
        let single = SensingBackend::decide(
            &mut session,
            &mut Observation::from_samples(samples[0].clone()),
        )
        .unwrap();
        assert_eq!(single, batch[0]);
        assert_eq!(session.decisions(), 5);
        assert_eq!(session.configurations(), 1);
    }

    #[test]
    fn spectra_fed_decisions_match_raw_sample_decisions() {
        // Deciding from an observation whose block spectra are already
        // cached must reproduce the raw-sample platform run (and its
        // statistic) exactly: same DSCF, same cycle accounting.
        let mut via_samples = sensor();
        let mut via_spectra = sensor();
        assert!(via_spectra.shares_software_spectra());
        let engine = via_spectra.engine().clone();
        let n = via_samples.samples_per_decision();
        for trial in 0..3u64 {
            let samples = observation(trial % 2 == 0, 3.0, n, 50 + trial);
            let mut cached = Observation::from_samples(samples.clone());
            cached.spectra_for(&engine).unwrap();
            let (a, _) = via_samples.run(&samples).unwrap();
            let b = SensingBackend::decide(&mut via_spectra, &mut cached).unwrap();
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
            SensingSession::new(application.clone(), &Platform::paper(), 0.35, 1).unwrap();
        let mut golden = SensingSession::new(
            application,
            &Platform::paper().with_mode(ExecutionMode::Lockstep),
            0.35,
            1,
        )
        .unwrap();
        assert!(fast.shares_software_spectra());
        assert!(!golden.shares_software_spectra());
        let samples = observation(true, 4.0, fast.samples_per_decision(), 9);
        let (fast_decision, fast_run) = fast.run(&samples).unwrap();
        let (golden_decision, golden_run) = golden.run(&samples).unwrap();
        assert_eq!(fast_decision, golden_decision);
        assert_eq!(fast_run.per_tile_cycles, golden_run.per_tile_cycles);
        assert_eq!(
            fast_run.inter_tile_transfers,
            golden_run.inter_tile_transfers
        );
        assert_eq!(fast_decision.metrics, golden_decision.metrics);
        assert_eq!(fast_run.scf.max_abs_difference(&golden_run.scf), 0.0);
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
                (metrics.time_per_block_us * golden.soc.config().tile.clock_mhz).round(),
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
            Box::new(SensingSession::new(application, &lockstep, 0.35, 1).unwrap()),
        ];
        let mut samples = observation(false, 0.0, 32 * 64, 4);
        samples[3] = Cplx::new(f64::NAN, 0.0);
        let refused = |result: &Result<Decision, CfdError>| {
            matches!(
                result,
                Err(CfdError::NonFiniteStatistic {
                    backend: "cfd-soc",
                    ..
                })
            )
        };
        for backend in &mut backends {
            let result = backend.decide(&mut Observation::from_samples(samples.clone()));
            assert!(refused(&result), "{result:?}");
        }
        // The raw-sample entry point refuses it too.
        let result = sensor().run(&samples).map(|(decision, _)| decision);
        assert!(refused(&result), "{result:?}");
    }

    #[test]
    fn session_survives_a_failed_batch() {
        let mut session = sensor();
        let n = session.samples_per_decision();
        let short = observation(true, 5.0, 100, 3);
        assert!(session
            .decide_batch(&mut [Observation::from_samples(short)])
            .is_err());
        let good = observation(true, 5.0, n, 3);
        let batch = session
            .decide_batch(&mut [Observation::from_samples(good)])
            .unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(session.configurations(), 1);
    }

    #[test]
    fn sense_rejects_short_observations() {
        let mut sensor = sensor();
        let samples = observation(true, 5.0, 100, 3);
        assert!(sensor.run(&samples).is_err());
    }

    #[test]
    fn paper_sensor_reports_the_140us_latency_per_step() {
        let mut session = SensingSession::paper(1, 0.35).unwrap();
        let clock_mhz = Platform::paper().tile.clock_mhz;
        let samples = observation(true, 10.0, 256, 11);
        let (decision, run) = session.run(&samples).unwrap();
        let metrics = decision.metrics.expect("platform runs carry metrics");
        let latency_us = run.max_tile_cycles() as f64 / clock_mhz;
        assert!((metrics.time_per_block_us - 139.96).abs() < 1e-9);
        assert!((latency_us - 139.96).abs() < 1e-9);
        assert!((metrics.analysed_bandwidth_khz - 915.0).abs() < 1.0);
    }
}
