//! Spectrum-sensing detectors.
//!
//! Section 1 of the paper positions Cyclostationary Feature Detection (CFD)
//! as "the most promising but computationally intensive alternative" among
//! the spectrum-sensing options of Cabric et al. \[7\], the simplest of which
//! is the energy detector. Section 2 describes CFD as "a combination of an
//! energy detector and a single correlator block".
//!
//! This module implements both:
//!
//! * [`EnergyDetector`] — the baseline: compares the average received power
//!   against a threshold derived from the noise floor.
//! * [`CyclostationaryDetector`] — the paper's application: evaluates the
//!   DSCF and thresholds the strongest cyclic feature (offset `a ≠ 0`)
//!   relative to the `a = 0` ridge, which makes the statistic insensitive to
//!   the absolute noise level (the classic robustness argument for CFD).

use crate::complex::Cplx;
use crate::error::DspError;
use crate::scf::{ScfEngine, ScfMatrix, ScfParams};
use crate::signal::signal_power;

/// The binary verdict of a detection decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Verdict {
    /// The band is declared occupied by a licensed user.
    SignalPresent,
    /// The band is declared vacant.
    NoiseOnly,
}

impl Verdict {
    /// Convenience conversion to a boolean ("signal present?").
    pub fn is_signal(self) -> bool {
        matches!(self, Verdict::SignalPresent)
    }
}

/// The result of running a detector on one observation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DetectionOutcome {
    /// The scalar test statistic that was compared against the threshold.
    pub statistic: f64,
    /// The threshold used.
    pub threshold: f64,
    /// The resulting decision.
    pub decision: Verdict,
}

impl DetectionOutcome {
    /// The outcome of comparing `statistic` with `threshold`: the band is
    /// declared occupied iff `statistic > threshold`. This is the one
    /// decision rule of every detector and sensing backend in the
    /// workspace.
    ///
    /// Transitional: `DetectionOutcome` is planned to merge into a single
    /// `Decision { verdict, statistic, threshold }` type in this module,
    /// and this rule will move into that type's constructor.
    pub fn new(statistic: f64, threshold: f64) -> Self {
        DetectionOutcome {
            statistic,
            threshold,
            decision: if statistic > threshold {
                Verdict::SignalPresent
            } else {
                Verdict::NoiseOnly
            },
        }
    }
}

/// A recipe for building independent detector replicas.
///
/// Detectors are stateful objects (thresholds, calibration, and — for the
/// platform-backed paths — whole simulated SoCs), so a single instance
/// forces every decision through one `&mut` borrow and serialises
/// Monte-Carlo sweeps. A factory is the shareable description from which
/// each worker thread builds its own replica; replicas built from the same
/// factory must produce identical decisions for identical observations, so
/// any partition of a trial set over replicas yields the same counts as a
/// single detector run serially.
pub trait DetectorFactory {
    /// The detector type this factory builds.
    type Built: Detector;

    /// Builds one independent replica.
    ///
    /// # Errors
    ///
    /// Propagates construction errors of the underlying detector.
    fn build_detector(&self) -> Result<Self::Built, DspError>;
}

/// Every cloneable detector is its own factory: a clone is a fully
/// independent replica because the golden-model detectors carry only
/// configuration, no per-observation state.
impl<D: Detector + Clone> DetectorFactory for D {
    type Built = D;

    fn build_detector(&self) -> Result<D, DspError> {
        Ok(self.clone())
    }
}

/// Trait implemented by spectrum-sensing detectors.
pub trait Detector {
    /// Computes the detector's scalar test statistic for an observation.
    ///
    /// # Errors
    ///
    /// Returns a [`DspError`] if the observation is too short or otherwise
    /// unusable for this detector.
    fn statistic(&self, samples: &[Cplx]) -> Result<f64, DspError>;

    /// The decision threshold.
    fn threshold(&self) -> f64;

    /// Runs the full detection: statistic, comparison, decision.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Detector::statistic`].
    fn detect(&self, samples: &[Cplx]) -> Result<DetectionOutcome, DspError> {
        Ok(DetectionOutcome::new(
            self.statistic(samples)?,
            self.threshold(),
        ))
    }
}

/// Baseline energy detector.
///
/// The statistic is the average received power normalised by the assumed
/// noise power; the threshold is set from the target false-alarm rate using
/// the Gaussian approximation of the chi-square statistic (valid for the
/// thousands-of-samples observations used here).
///
/// # Examples
///
/// ```
/// use cfd_dsp::detector::{Detector, EnergyDetector};
/// use cfd_dsp::signal::SignalBuilder;
///
/// # fn main() -> Result<(), cfd_dsp::error::DspError> {
/// let detector = EnergyDetector::new(1.0, 0.01, 4096)?;
/// let busy = SignalBuilder::new(4096).snr_db(3.0).seed(1).build()?;
/// assert!(detector.detect(&busy.samples)?.decision.is_signal());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnergyDetector {
    noise_power: f64,
    threshold: f64,
    num_samples: usize,
}

impl EnergyDetector {
    /// Creates an energy detector calibrated for observations of
    /// `num_samples` samples with known `noise_power`, targeting the given
    /// false-alarm probability.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the noise power is not
    /// positive, the false-alarm probability is not in `(0, 1)`, or
    /// `num_samples` is zero.
    pub fn new(noise_power: f64, false_alarm: f64, num_samples: usize) -> Result<Self, DspError> {
        if !(noise_power.is_finite() && noise_power > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "noise_power",
                message: format!("must be positive and finite, got {noise_power}"),
            });
        }
        if !(false_alarm > 0.0 && false_alarm < 1.0) {
            return Err(DspError::InvalidParameter {
                name: "false_alarm",
                message: format!("must be in (0, 1), got {false_alarm}"),
            });
        }
        if num_samples == 0 {
            return Err(DspError::InvalidParameter {
                name: "num_samples",
                message: "must be at least 1".into(),
            });
        }
        // Under H0 the normalised statistic has mean 1 and std 1/sqrt(N)
        // (complex samples: |x|^2/sigma^2 is Exp(1), variance 1).
        let threshold = 1.0 + inverse_q(false_alarm) / (num_samples as f64).sqrt();
        Ok(EnergyDetector {
            noise_power,
            threshold,
            num_samples,
        })
    }

    /// Creates an energy detector with an explicitly chosen threshold on the
    /// normalised power statistic.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the noise power is not
    /// positive and finite.
    pub fn with_threshold(noise_power: f64, threshold: f64) -> Result<Self, DspError> {
        if !(noise_power.is_finite() && noise_power > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "noise_power",
                message: format!("must be positive and finite, got {noise_power}"),
            });
        }
        Ok(EnergyDetector {
            noise_power,
            threshold,
            num_samples: 0,
        })
    }

    /// The noise power the detector was calibrated with.
    pub fn noise_power(&self) -> f64 {
        self.noise_power
    }

    /// Number of samples the threshold was calibrated for (0 when the
    /// threshold was set explicitly).
    pub fn calibrated_samples(&self) -> usize {
        self.num_samples
    }
}

impl Detector for EnergyDetector {
    fn statistic(&self, samples: &[Cplx]) -> Result<f64, DspError> {
        if samples.is_empty() {
            return Err(DspError::InsufficientSamples {
                needed: 1,
                available: 0,
            });
        }
        Ok(signal_power(samples) / self.noise_power)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// Cyclostationary feature detector operating on the DSCF.
///
/// The statistic is the strongest cyclic feature outside an exclusion zone
/// around `a = 0`, normalised by the strength of the `a = 0` ridge:
///
/// ```text
/// stat = max_{|a| > guard} max_f |S_f^a|  /  max_f |S_f^0|
/// ```
///
/// Because both numerator and denominator scale with the received power, the
/// statistic does not depend on the absolute noise level — the property that
/// makes CFD attractive when the noise floor is uncertain.
///
/// The detector owns an [`ScfEngine`], whose FFT plan and window
/// coefficients come from the thread's geometry caches: a detector, or a
/// clone of one (a sweep worker's replica), shares them and copies no
/// table, and every decision reuses them (the engine is bit-identical to
/// the eq.-3 golden model).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CyclostationaryDetector {
    engine: ScfEngine,
    threshold: f64,
    guard_offsets: usize,
}

impl CyclostationaryDetector {
    /// Creates a CFD detector with the given DSCF parameters and threshold
    /// on the normalised feature strength.
    ///
    /// `guard_offsets` excludes offsets `|a| <= guard_offsets` from the
    /// feature search (the `a = 0` ridge and its leakage).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the parameters are invalid
    /// or the guard zone swallows the whole grid.
    pub fn new(params: ScfParams, threshold: f64, guard_offsets: usize) -> Result<Self, DspError> {
        params.validate()?;
        if guard_offsets >= params.max_offset {
            return Err(DspError::InvalidParameter {
                name: "guard_offsets",
                message: format!(
                    "guard ({guard_offsets}) must be smaller than max_offset ({})",
                    params.max_offset
                ),
            });
        }
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "threshold",
                message: format!("must be positive and finite, got {threshold}"),
            });
        }
        Ok(CyclostationaryDetector {
            engine: ScfEngine::new(params)?,
            threshold,
            guard_offsets,
        })
    }

    /// The DSCF parameters this detector evaluates.
    pub fn params(&self) -> &ScfParams {
        self.engine.params()
    }

    /// The precomputed DSCF engine this detector evaluates with. Sweep
    /// drivers use it to compute block spectra once per observation and
    /// share them across detector replicas.
    pub fn engine(&self) -> &ScfEngine {
        &self.engine
    }

    /// The guard zone half-width around `a = 0`.
    pub fn guard_offsets(&self) -> usize {
        self.guard_offsets
    }

    /// Computes the normalised feature statistic from an already-computed
    /// DSCF matrix (e.g. one produced by the tiled-SoC simulation).
    pub fn statistic_from_scf(&self, scf: &ScfMatrix) -> f64 {
        feature_statistic(scf, self.guard_offsets)
    }

    /// Runs the decision on an already-computed DSCF matrix.
    pub fn detect_from_scf(&self, scf: &ScfMatrix) -> DetectionOutcome {
        DetectionOutcome::new(self.statistic_from_scf(scf), self.threshold)
    }

    /// Computes the normalised feature statistic from an already-computed
    /// cyclic-domain profile ([`ScfMatrix::cyclic_profile`] layout). The
    /// statistic depends on the DSCF only through its profile, so this is
    /// bit-identical to [`CyclostationaryDetector::statistic_from_scf`] on
    /// the matrix the profile was scanned from.
    pub fn statistic_from_profile(&self, profile: &[f64]) -> f64 {
        feature_statistic_from_profile(profile, self.guard_offsets)
    }

    /// Runs the decision on an already-computed cyclic-domain profile —
    /// the streaming fast path, which never materialises the full matrix.
    pub fn detect_from_profile(&self, profile: &[f64]) -> DetectionOutcome {
        DetectionOutcome::new(self.statistic_from_profile(profile), self.threshold)
    }

    /// Runs the decision on precomputed block spectra (eq. 2), e.g. the
    /// shared spectra a sweep engine computed once per trial. Decisions are
    /// identical to [`Detector::detect`] on the raw samples: both fold the
    /// cyclic profile straight out of the engine's DSCF bands
    /// ([`ScfEngine::cyclic_profile_from_spectra_into`]), bit-identical to
    /// scanning the materialised matrix.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `params().fft_len`.
    pub fn detect_from_spectra(&self, spectra: &[Vec<Cplx>]) -> DetectionOutcome {
        let mut profile = Vec::new();
        self.engine
            .cyclic_profile_from_spectra_into(spectra, &mut profile);
        self.detect_from_profile(&profile)
    }
}

impl Detector for CyclostationaryDetector {
    fn statistic(&self, samples: &[Cplx]) -> Result<f64, DspError> {
        let spectra = self.engine.compute_spectra(samples)?;
        Ok(self.detect_from_spectra(&spectra).statistic)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// The normalised cyclic-feature statistic used by
/// [`CyclostationaryDetector`]: strongest feature outside the guard zone,
/// divided by the strength of the `a = 0` ridge.
pub fn feature_statistic(scf: &ScfMatrix, guard_offsets: usize) -> f64 {
    feature_statistic_from_profile(&scf.cyclic_profile(), guard_offsets)
}

/// [`feature_statistic`] on a precomputed cyclic-domain profile
/// ([`ScfMatrix::cyclic_profile`] layout: `2M + 1` entries, offset `a` at
/// index `a + M`). A NaN anywhere in the profile gives a NaN statistic.
///
/// # Panics
///
/// Panics if `profile` has an even length (no centre `a = 0` element).
pub fn feature_statistic_from_profile(profile: &[f64], guard_offsets: usize) -> f64 {
    assert!(
        profile.len() % 2 == 1,
        "cyclic profile must have odd length (2M + 1)"
    );
    let m = (profile.len() / 2) as i32;
    // NaN propagates (no `f64::max`, which drops it): a non-finite profile
    // must give a non-finite statistic, never a small finite one.
    let ridge = profile[m as usize];
    let ridge = if ridge < f64::MIN_POSITIVE {
        f64::MIN_POSITIVE
    } else {
        ridge
    };
    let mut best = 0.0f64;
    for (i, &value) in profile.iter().enumerate() {
        let a = i as i32 - m;
        if a.unsigned_abs() as usize > guard_offsets && (value > best || value.is_nan()) {
            best = value;
        }
    }
    best / ridge
}

/// The approximate inverse of the Gaussian Q-function
/// (`Q(x) = P[N(0,1) > x]`), accurate to about 4.5e-4 over `(0, 0.5]`
/// (Abramowitz & Stegun 26.2.23). Used to set energy-detector thresholds.
pub fn inverse_q(probability: f64) -> f64 {
    assert!(
        probability > 0.0 && probability < 1.0,
        "probability must be in (0, 1)"
    );
    if probability == 0.5 {
        return 0.0;
    }
    if probability > 0.5 {
        return -inverse_q(1.0 - probability);
    }
    let t = (-2.0 * probability.ln()).sqrt();
    let numerator = 2.30753 + 0.27061 * t;
    let denominator = 1.0 + 0.99229 * t + 0.04481 * t * t;
    t - numerator / denominator
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::dscf_reference;
    use crate::signal::{SignalBuilder, SymbolModulation};

    fn busy_observation(snr_db: f64, len: usize, seed: u64) -> Vec<Cplx> {
        SignalBuilder::new(len)
            .modulation(SymbolModulation::Bpsk)
            .samples_per_symbol(4)
            .snr_db(snr_db)
            .seed(seed)
            .build()
            .unwrap()
            .samples
    }

    fn idle_observation(len: usize, seed: u64) -> Vec<Cplx> {
        SignalBuilder::new(len)
            .noise_only()
            .seed(seed)
            .build()
            .unwrap()
            .samples
    }

    #[test]
    fn inverse_q_matches_known_values() {
        // Q(1.2816) ≈ 0.10, Q(2.3263) ≈ 0.01, Q(0) = 0.5.
        assert!((inverse_q(0.10) - 1.2816).abs() < 5e-3);
        assert!((inverse_q(0.01) - 2.3263).abs() < 5e-3);
        assert!(inverse_q(0.5).abs() < 5e-3);
        assert!((inverse_q(0.9) + inverse_q(0.1)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn inverse_q_rejects_out_of_range() {
        inverse_q(0.0);
    }

    #[test]
    fn energy_detector_validates_parameters() {
        assert!(EnergyDetector::new(0.0, 0.1, 100).is_err());
        assert!(EnergyDetector::new(1.0, 0.0, 100).is_err());
        assert!(EnergyDetector::new(1.0, 1.0, 100).is_err());
        assert!(EnergyDetector::new(1.0, 0.1, 0).is_err());
        assert!(EnergyDetector::with_threshold(-1.0, 1.0).is_err());
        let d = EnergyDetector::new(2.0, 0.1, 100).unwrap();
        assert_eq!(d.noise_power(), 2.0);
        assert_eq!(d.calibrated_samples(), 100);
    }

    #[test]
    fn energy_detector_detects_strong_signal_and_not_noise() {
        let d = EnergyDetector::new(1.0, 0.01, 4096).unwrap();
        let busy = busy_observation(5.0, 4096, 1);
        let idle = idle_observation(4096, 2);
        assert!(d.detect(&busy).unwrap().decision.is_signal());
        assert!(!d.detect(&idle).unwrap().decision.is_signal());
        assert!(d.detect(&[]).is_err());
    }

    #[test]
    fn energy_detector_false_alarm_rate_is_roughly_calibrated() {
        let pfa_target = 0.05;
        let n = 2048;
        let d = EnergyDetector::new(1.0, pfa_target, n).unwrap();
        let trials = 400;
        let mut false_alarms = 0;
        for seed in 0..trials {
            let idle = idle_observation(n, 1000 + seed);
            if d.detect(&idle).unwrap().decision.is_signal() {
                false_alarms += 1;
            }
        }
        let pfa = false_alarms as f64 / trials as f64;
        assert!(pfa < 0.15, "pfa = {pfa}");
    }

    #[test]
    fn cfd_detector_validates_parameters() {
        let params = ScfParams::new(32, 7, 16).unwrap();
        assert!(CyclostationaryDetector::new(params.clone(), 0.3, 7).is_err());
        assert!(CyclostationaryDetector::new(params.clone(), 0.0, 1).is_err());
        assert!(CyclostationaryDetector::new(params.clone(), f64::NAN, 1).is_err());
        let d = CyclostationaryDetector::new(params, 0.3, 1).unwrap();
        assert_eq!(d.guard_offsets(), 1);
        assert_eq!(d.params().fft_len, 32);
    }

    #[test]
    fn cfd_detects_cyclostationary_signal_and_rejects_noise() {
        let params = ScfParams::new(32, 7, 64).unwrap();
        let d = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let busy = busy_observation(5.0, params.samples_needed(), 3);
        let idle = idle_observation(params.samples_needed(), 4);
        let busy_out = d.detect(&busy).unwrap();
        let idle_out = d.detect(&idle).unwrap();
        assert!(
            busy_out.decision.is_signal(),
            "statistic {}",
            busy_out.statistic
        );
        assert!(
            !idle_out.decision.is_signal(),
            "statistic {}",
            idle_out.statistic
        );
        assert!(busy_out.statistic > idle_out.statistic);
    }

    #[test]
    fn cfd_statistic_is_scale_invariant() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let d = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let busy = busy_observation(3.0, params.samples_needed(), 5);
        let scaled: Vec<Cplx> = busy.iter().map(|&x| x * 7.5).collect();
        let s1 = d.statistic(&busy).unwrap();
        let s2 = d.statistic(&scaled).unwrap();
        assert!((s1 - s2).abs() < 1e-9, "{s1} vs {s2}");
    }

    #[test]
    fn detect_from_scf_matches_detect_from_samples() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let d = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let busy = busy_observation(3.0, params.samples_needed(), 6);
        let scf = dscf_reference(&busy, &params).unwrap();
        let from_scf = d.detect_from_scf(&scf);
        let from_samples = d.detect(&busy).unwrap();
        assert_eq!(from_scf, from_samples);
    }

    #[test]
    fn detect_from_spectra_matches_detect_from_samples() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let d = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        for seed in [7u64, 8, 9] {
            let busy = busy_observation(0.0, params.samples_needed(), seed);
            let spectra = d.engine().compute_spectra(&busy).unwrap();
            let from_samples = d.detect(&busy).unwrap();
            assert_eq!(d.detect_from_spectra(&spectra), from_samples);
            // And both equal the decision on the materialised matrix.
            let scf = d.engine().compute(&busy).unwrap();
            assert_eq!(d.detect_from_scf(&scf), from_samples);
        }
    }

    #[test]
    fn non_finite_profiles_give_non_finite_statistics() {
        let profile = [0.1, 0.2, 1.0, 0.3, 0.1];
        assert!((feature_statistic_from_profile(&profile, 0) - 0.3).abs() < 1e-15);
        // A NaN ridge is not floored, and a NaN feature is not max-ed
        // away by a larger one after it.
        let nan_ridge = [0.1, 0.2, f64::NAN, 0.3, 0.1];
        assert!(feature_statistic_from_profile(&nan_ridge, 0).is_nan());
        let nan_feature = [f64::NAN, 0.2, 1.0, 0.3, 0.9];
        assert!(feature_statistic_from_profile(&nan_feature, 0).is_nan());
        // The matrix scan keeps a NaN cell even when a larger one follows.
        let mut scf = ScfMatrix::zeros(2);
        scf.set(-2, 1, Cplx::new(f64::NAN, 0.0));
        scf.set(2, 1, Cplx::new(5.0, 0.0));
        scf.set(0, 0, Cplx::new(1.0, 0.0));
        let profile = scf.cyclic_profile();
        assert!(profile[3].is_nan());
        assert_eq!(profile[2], 1.0);
        assert!(feature_statistic(&scf, 0).is_nan());
    }

    #[test]
    fn decision_helpers() {
        assert!(Verdict::SignalPresent.is_signal());
        assert!(!Verdict::NoiseOnly.is_signal());
    }

    #[test]
    fn cloneable_detectors_are_their_own_factories() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let cfd = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let energy = EnergyDetector::new(1.0, 0.05, params.samples_needed()).unwrap();
        let busy = busy_observation(3.0, params.samples_needed(), 5);
        // Replicas decide identically to the factory instance.
        let cfd_replica = cfd.build_detector().unwrap();
        let energy_replica = energy.build_detector().unwrap();
        assert_eq!(
            cfd.detect(&busy).unwrap(),
            cfd_replica.detect(&busy).unwrap()
        );
        assert_eq!(
            energy.detect(&busy).unwrap(),
            energy_replica.detect(&busy).unwrap()
        );
    }
}
