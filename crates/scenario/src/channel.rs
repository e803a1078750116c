//! Composable channel impairments.
//!
//! A [`ChannelPipeline`] is an ordered list of [`ChannelStage`]s applied to
//! the clean licensed-user signal: multipath, oscillator offset, additive
//! noise at a target SNR, and ADC quantisation (reusing the Q15 format of
//! `cfd-dsp::fixed`, the same datapath width as the Montium tiles). The
//! pipeline is deterministic per `(pipeline, seed)` pair: each noisy stage
//! derives its own sub-seed, so trials reproduce exactly.

use crate::error::ScenarioError;
use cfd_dsp::complex::Cplx;
use cfd_dsp::fixed::Q15;
use cfd_dsp::signal::{
    frequency_shift, normalise_power, signal_power, standard_normal, GaussianNoise,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One impairment in a channel pipeline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ChannelStage {
    /// Additive white Gaussian noise with a fixed noise floor.
    ///
    /// If the incoming signal is non-zero it is first scaled so that the
    /// signal-to-noise ratio after this stage equals `snr_db` (the
    /// convention of `cfd-dsp::SignalBuilder`: the noise floor is the
    /// reference, the signal adapts). A vacant band just receives the
    /// noise floor.
    Awgn {
        /// Target signal-to-noise ratio in dB.
        snr_db: f64,
        /// Noise power (the H0 observation power).
        noise_power: f64,
    },
    /// Carrier/local-oscillator frequency offset.
    CarrierOffset {
        /// Offset in cycles/sample.
        normalised: f64,
        /// Initial phase in radians.
        phase: f64,
    },
    /// Two-ray multipath: a delayed, attenuated, phase-rotated echo is
    /// added and the result renormalised to the incoming power, so the
    /// stage changes the *shape* of the signal but not its energy budget.
    TwoRay {
        /// Echo delay in samples.
        delay_samples: usize,
        /// Echo amplitude relative to the direct ray, in `[0, 1]`.
        relative_gain: f64,
        /// Echo phase rotation in radians.
        phase: f64,
    },
    /// ADC quantisation: each I/Q component is clipped to
    /// `[-full_scale, full_scale)` and rounded to the 16-bit Q15 grid —
    /// the paper's tile datapath width.
    Quantize {
        /// The converter's full-scale amplitude.
        full_scale: f64,
    },
    /// Frequency-selective Rayleigh fading: the observation is convolved
    /// with a tapped delay line whose tap gains are independent complex
    /// Gaussians under an exponential power-delay profile (unit expected
    /// energy, so the *average* power budget is preserved while any one
    /// realisation may sit in a deep frequency notch).
    ///
    /// The stage is receiver-referenced: it is meant to sit *after* the
    /// [`ChannelStage::Awgn`] stage (which renormalises any earlier gain
    /// away by design) and models the fade hitting the already-noisy
    /// observation, after which the thermal floor is topped back up to
    /// `noise_power` with fresh white noise — the signal fades, the
    /// receiver's noise calibration does not.
    RayleighFading {
        /// Number of Rayleigh-faded taps (≥ 1); tap `t` arrives
        /// `t * tap_spacing` samples after the first.
        taps: usize,
        /// Delay between consecutive taps in samples (≥ 1). Larger
        /// spacings put the spectral notches closer together.
        tap_spacing: usize,
        /// Exponential power-delay-profile decay per tap, in dB (≥ 0).
        decay_db: f64,
        /// The receiver's thermal floor, restored after the fade.
        noise_power: f64,
    },
    /// Log-normal shadowing: a per-realisation obstruction loss of
    /// `-|N(0, sigma_db²)|` dB applied to the whole observation, with
    /// the thermal floor topped back up to `noise_power` afterwards (the
    /// shadow attenuates the signal in the air; the receiver's own noise
    /// is not attenuated). The loss is half-normal — attenuation-only,
    /// referenced to the unobstructed link: an up-fade would require
    /// *removing* receiver noise, which a receiver-referenced overlay
    /// cannot do, so the dB draw is folded instead of clipped (clipping
    /// would make half of all realisations exactly fade-free).
    ///
    /// Like [`ChannelStage::RayleighFading`] this is receiver-referenced
    /// and belongs *after* the [`ChannelStage::Awgn`] stage.
    LogNormalShadowing {
        /// Standard deviation of the dB-domain Gaussian; 4–12 dB are
        /// typical outdoor values.
        sigma_db: f64,
        /// The receiver's thermal floor, restored after the shadow.
        noise_power: f64,
    },
    /// An adjacent-channel interferer: an independent QPSK-like
    /// transmission centred `offset` cycles/sample away is added at
    /// `power`. Placed after the [`ChannelStage::Awgn`] stage so the
    /// interferer is not counted into the licensed user's SNR budget (and
    /// pollutes vacant bands too) — the classic trap for an energy
    /// detector, while cyclic features at the licensed signal's symbol
    /// rate survive.
    AdjacentChannelInterferer {
        /// Interferer centre-frequency offset in cycles/sample.
        offset: f64,
        /// Interferer power at the receiver.
        power: f64,
        /// Interferer symbol length in samples (≥ 1); sets *its* cyclic
        /// signature apart from the licensed user's.
        samples_per_symbol: usize,
    },
    /// Bernoulli–Gaussian impulsive noise: each sample independently
    /// receives a strong complex-Gaussian impulse with probability
    /// `probability` (the classic model for ignition/switching noise in
    /// the TV bands cognitive radios scavenge). The average added power is
    /// `probability * impulse_power`, but it arrives in rare, huge bursts —
    /// exactly the interference that inflates an energy statistic while
    /// leaving cyclic features almost untouched.
    ImpulsiveNoise {
        /// Per-sample impulse probability in `[0, 1]`.
        probability: f64,
        /// Power (complex variance) of one impulse; typically 10–30 dB
        /// above the thermal floor.
        impulse_power: f64,
    },
}

impl ChannelStage {
    /// Validates the stage parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for non-finite SNRs,
    /// non-positive noise power or full scale, or an echo gain outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            ChannelStage::Awgn {
                snr_db,
                noise_power,
            } => {
                if !snr_db.is_finite() {
                    return Err(ScenarioError::InvalidParameter {
                        name: "snr_db",
                        message: format!("must be finite, got {snr_db}"),
                    });
                }
                if !(noise_power.is_finite() && *noise_power > 0.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "noise_power",
                        message: format!("must be positive and finite, got {noise_power}"),
                    });
                }
                Ok(())
            }
            ChannelStage::CarrierOffset { normalised, phase } => {
                if !(normalised.is_finite() && phase.is_finite()) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "carrier_offset",
                        message: "offset and phase must be finite".into(),
                    });
                }
                Ok(())
            }
            ChannelStage::TwoRay {
                relative_gain,
                phase,
                ..
            } => {
                if !(*relative_gain >= 0.0 && *relative_gain <= 1.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "relative_gain",
                        message: format!("must be in [0, 1], got {relative_gain}"),
                    });
                }
                if !phase.is_finite() {
                    return Err(ScenarioError::InvalidParameter {
                        name: "phase",
                        message: format!("must be finite, got {phase}"),
                    });
                }
                Ok(())
            }
            ChannelStage::Quantize { full_scale } => {
                if !(full_scale.is_finite() && *full_scale > 0.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "full_scale",
                        message: format!("must be positive and finite, got {full_scale}"),
                    });
                }
                Ok(())
            }
            ChannelStage::RayleighFading {
                taps,
                tap_spacing,
                decay_db,
                noise_power,
            } => {
                if *taps == 0 {
                    return Err(ScenarioError::InvalidParameter {
                        name: "taps",
                        message: "must be at least 1".into(),
                    });
                }
                if *tap_spacing == 0 {
                    return Err(ScenarioError::InvalidParameter {
                        name: "tap_spacing",
                        message: "must be at least 1".into(),
                    });
                }
                if !(decay_db.is_finite() && *decay_db >= 0.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "decay_db",
                        message: format!("must be non-negative and finite, got {decay_db}"),
                    });
                }
                if !(noise_power.is_finite() && *noise_power > 0.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "noise_power",
                        message: format!("must be positive and finite, got {noise_power}"),
                    });
                }
                Ok(())
            }
            ChannelStage::LogNormalShadowing {
                sigma_db,
                noise_power,
            } => {
                if !(sigma_db.is_finite() && *sigma_db >= 0.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "sigma_db",
                        message: format!("must be non-negative and finite, got {sigma_db}"),
                    });
                }
                if !(noise_power.is_finite() && *noise_power > 0.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "noise_power",
                        message: format!("must be positive and finite, got {noise_power}"),
                    });
                }
                Ok(())
            }
            ChannelStage::AdjacentChannelInterferer {
                offset,
                power,
                samples_per_symbol,
            } => {
                if !(offset.is_finite() && offset.abs() <= 0.5) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "offset",
                        message: format!("must be finite and within [-0.5, 0.5], got {offset}"),
                    });
                }
                if !(power.is_finite() && *power > 0.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "power",
                        message: format!("must be positive and finite, got {power}"),
                    });
                }
                if *samples_per_symbol == 0 {
                    return Err(ScenarioError::InvalidParameter {
                        name: "samples_per_symbol",
                        message: "must be at least 1".into(),
                    });
                }
                Ok(())
            }
            ChannelStage::ImpulsiveNoise {
                probability,
                impulse_power,
            } => {
                if !(*probability >= 0.0 && *probability <= 1.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "probability",
                        message: format!("must be in [0, 1], got {probability}"),
                    });
                }
                if !(impulse_power.is_finite() && *impulse_power > 0.0) {
                    return Err(ScenarioError::InvalidParameter {
                        name: "impulse_power",
                        message: format!("must be positive and finite, got {impulse_power}"),
                    });
                }
                Ok(())
            }
        }
    }

    fn apply(&self, mut samples: Vec<Cplx>, seed: u64) -> Vec<Cplx> {
        match self {
            ChannelStage::Awgn {
                snr_db,
                noise_power,
            } => {
                let power = signal_power(&samples);
                let noise = GaussianNoise::new(*noise_power, seed);
                let gain = awgn_gain(power, (*snr_db, *noise_power));
                for (s, w) in samples.iter_mut().zip(noise) {
                    *s = *s * gain + w;
                }
                samples
            }
            ChannelStage::CarrierOffset { normalised, phase } => {
                frequency_shift(&samples, *normalised, *phase)
            }
            ChannelStage::TwoRay {
                delay_samples,
                relative_gain,
                phase,
            } => {
                let power_in = signal_power(&samples);
                if power_in == 0.0 {
                    return samples;
                }
                let echo_gain = Cplx::from_polar(*relative_gain, *phase);
                let faded: Vec<Cplx> = (0..samples.len())
                    .map(|t| {
                        let direct = samples[t];
                        let echo = if t >= *delay_samples {
                            samples[t - delay_samples] * echo_gain
                        } else {
                            Cplx::ZERO
                        };
                        direct + echo
                    })
                    .collect();
                normalise_power(&faded, power_in)
            }
            ChannelStage::Quantize { full_scale } => samples
                .iter()
                .map(|&x| {
                    let q = |v: f64| Q15::from_f64(v / full_scale).to_f64() * full_scale;
                    Cplx::new(q(x.re), q(x.im))
                })
                .collect(),
            ChannelStage::RayleighFading {
                taps,
                tap_spacing,
                decay_db,
                noise_power,
            } => {
                // Tap gains: independent CN(0, p_t) under an exponential
                // power-delay profile normalised to unit expected energy.
                let weights: Vec<f64> = (0..*taps)
                    .map(|t| 10f64.powf(-(t as f64) * decay_db / 10.0))
                    .collect();
                let weight_sum: f64 = weights.iter().sum();
                let gains: Vec<Cplx> = GaussianNoise::new(1.0, mix_seed(seed, 0xFA0E_0021))
                    .zip(weights.iter())
                    .map(|(g, &w)| g * (w / weight_sum).sqrt())
                    .collect();
                let mut faded: Vec<Cplx> = (0..samples.len())
                    .map(|t| {
                        gains
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| t >= k * tap_spacing)
                            .map(|(k, &h)| samples[t - k * tap_spacing] * h)
                            .fold(Cplx::ZERO, |acc, x| acc + x)
                    })
                    .collect();
                // The fade also attenuated (and coloured) the receiver
                // noise that rode in on the samples; top the thermal floor
                // back up to nominal with fresh white noise.
                let energy: f64 = gains.iter().map(|h| h.norm_sqr()).sum();
                let topup = ((1.0 - energy) * noise_power).max(0.0);
                if topup > 0.0 {
                    let floor = GaussianNoise::new(topup, mix_seed(seed, 0xFA0E_0022));
                    for (s, w) in faded.iter_mut().zip(floor) {
                        *s += w;
                    }
                }
                faded
            }
            ChannelStage::LogNormalShadowing {
                sigma_db,
                noise_power,
            } => {
                // One dB-domain Gaussian draw per realisation, folded to
                // attenuation (see the variant docs for why).
                let normal =
                    standard_normal(&mut StdRng::seed_from_u64(mix_seed(seed, 0x5AAD_0057)));
                let shadow_db = -(normal * sigma_db).abs();
                let gain = 10f64.powf(shadow_db / 20.0);
                let topup = (1.0 - gain * gain) * noise_power;
                let floor = GaussianNoise::new(topup, mix_seed(seed, 0x5AAD_0058));
                for (s, w) in samples.iter_mut().zip(floor) {
                    *s = *s * gain + w;
                }
                samples
            }
            ChannelStage::AdjacentChannelInterferer {
                offset,
                power,
                samples_per_symbol,
            } => {
                // An independent QPSK neighbour: random Gray symbols held
                // for samples_per_symbol, mixed up to the offset.
                let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0xAD1A_CE17));
                let symbols = samples.len().div_ceil(*samples_per_symbol);
                let amplitude = power.sqrt();
                let mut interferer = Vec::with_capacity(samples.len());
                for _ in 0..symbols {
                    let phase =
                        std::f64::consts::FRAC_PI_4 * (2 * rng.gen_range(0..4u8) + 1) as f64;
                    let symbol = Cplx::from_polar(amplitude, phase);
                    for _ in 0..*samples_per_symbol {
                        if interferer.len() < samples.len() {
                            interferer.push(symbol);
                        }
                    }
                }
                let shifted = frequency_shift(&interferer, *offset, 0.0);
                samples
                    .iter()
                    .zip(shifted.iter())
                    .map(|(&s, &i)| s + i)
                    .collect()
            }
            ChannelStage::ImpulsiveNoise {
                probability,
                impulse_power,
            } => {
                // Independent sub-streams for the Bernoulli mask and the
                // impulse amplitudes, both derived from the stage seed.
                // Amplitudes are drawn only for the ~probability fraction
                // of samples that are actually hit.
                let mut mask = StdRng::seed_from_u64(mix_seed(seed, 0xBE52_0011));
                let hits: Vec<usize> = (0..samples.len())
                    .filter(|_| mask.gen_bool(*probability))
                    .collect();
                let impulses = GaussianNoise::new(*impulse_power, mix_seed(seed, 0x1A4B_5C6D));
                for (&t, impulse) in hits.iter().zip(impulses) {
                    samples[t] += impulse;
                }
                samples
            }
        }
    }
}

/// The [`ChannelStage::Awgn`] combine over stored `noise`, written into
/// `out` in one pass: `out[t] = s[t]·gain + w[t]` — the per-SNR combine of
/// a [`TrialDraw`](crate::scenario::TrialDraw). `out` is cleared first
/// (its allocation reused) and gets one sample per noise sample. The
/// expression and [`awgn_gain`] are the stage's own, so the bits are
/// those of the stage's in-place combine.
pub(crate) fn add_awgn(
    signal: impl Iterator<Item = Cplx>,
    power: f64,
    awgn: (f64, f64),
    noise: &[Cplx],
    out: &mut Vec<Cplx>,
) {
    let gain = awgn_gain(power, awgn);
    out.clear();
    out.extend(signal.zip(noise).map(|(s, &w)| s * gain + w));
}

/// The gain of the [`ChannelStage::Awgn`] combine `s·gain + w`: it scales
/// a signal of average power `power` to `snr_db` over the `noise_power`
/// floor, and is 1 for a zero-power signal, which just receives the noise
/// floor. The one gain behind the stage and [`add_awgn`].
fn awgn_gain(power: f64, (snr_db, noise_power): (f64, f64)) -> f64 {
    if power > 0.0 {
        let target = noise_power * 10f64.powf(snr_db / 10.0);
        (target / power).sqrt()
    } else {
        1.0
    }
}

/// An ordered list of channel stages.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ChannelPipeline {
    /// The stages, applied first-to-last.
    pub stages: Vec<ChannelStage>,
}

impl ChannelPipeline {
    /// Creates a pipeline from stages.
    pub fn new(stages: Vec<ChannelStage>) -> Self {
        ChannelPipeline { stages }
    }

    /// The classic clean-channel baseline: AWGN at `snr_db` over a unit
    /// noise floor.
    pub fn awgn(snr_db: f64) -> Self {
        ChannelPipeline::new(vec![ChannelStage::Awgn {
            snr_db,
            noise_power: 1.0,
        }])
    }

    /// Validates every stage and requires at least one noise stage (a
    /// noiseless "channel" makes detection trivially deterministic and is
    /// almost always a configuration mistake).
    ///
    /// # Errors
    ///
    /// Propagates stage validation failures; reports a missing AWGN stage.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        for stage in &self.stages {
            stage.validate()?;
        }
        if !self
            .stages
            .iter()
            .any(|s| matches!(s, ChannelStage::Awgn { .. }))
        {
            return Err(ScenarioError::InvalidParameter {
                name: "stages",
                message: "pipeline needs at least one Awgn stage".into(),
            });
        }
        Ok(())
    }

    /// Applies all stages. Deterministic per `(self, seed)`: stage `i`
    /// mixes `i` into its sub-seed, so reordering stages changes the noise
    /// realisation but repeated runs do not.
    ///
    /// # Errors
    ///
    /// Propagates [`ChannelPipeline::validate`] failures.
    pub fn apply(&self, samples: Vec<Cplx>, seed: u64) -> Result<Vec<Cplx>, ScenarioError> {
        self.validate()?;
        Ok(self.apply_stages(0..self.stages.len(), samples, seed))
    }

    /// Applies the stages in `range`, each with its pipeline sub-seed
    /// `mix_seed(seed, index)` — so a pipeline run in pieces draws exactly
    /// what one [`ChannelPipeline::apply`] pass draws. No validation.
    pub(crate) fn apply_stages(
        &self,
        range: std::ops::Range<usize>,
        samples: Vec<Cplx>,
        seed: u64,
    ) -> Vec<Cplx> {
        let mut current = samples;
        for index in range {
            current = self.stages[index].apply(current, mix_seed(seed, index as u64));
        }
        current
    }

    /// Applies all stages like [`ChannelPipeline::apply`], but without
    /// requiring an AWGN stage: this is for impairment *overlays* applied
    /// to an already-noisy observation — e.g. the per-sensor shadowing /
    /// fading realisations of a cooperative fleet, where the thermal floor
    /// was added once upstream and each sensor only adds its own local
    /// distortion on top.
    ///
    /// # Errors
    ///
    /// Propagates per-stage validation failures.
    pub fn impair(&self, samples: Vec<Cplx>, seed: u64) -> Result<Vec<Cplx>, ScenarioError> {
        for stage in &self.stages {
            stage.validate()?;
        }
        Ok(self.apply_stages(0..self.stages.len(), samples, seed))
    }

    /// A copy of the pipeline with every AWGN stage retargeted to
    /// `snr_db` — the lever the SNR sweep layer pulls.
    pub fn with_snr(&self, snr_db: f64) -> Self {
        let stages = self
            .stages
            .iter()
            .map(|stage| match stage {
                ChannelStage::Awgn { noise_power, .. } => ChannelStage::Awgn {
                    snr_db,
                    noise_power: *noise_power,
                },
                other => other.clone(),
            })
            .collect();
        ChannelPipeline { stages }
    }

    /// A copy with every AWGN noise floor set to `noise_power` (models a
    /// noise floor the detectors were *not* calibrated for).
    pub fn with_noise_power(&self, noise_power: f64) -> Self {
        let stages = self
            .stages
            .iter()
            .map(|stage| match stage {
                ChannelStage::Awgn { snr_db, .. } => ChannelStage::Awgn {
                    snr_db: *snr_db,
                    noise_power,
                },
                other => other.clone(),
            })
            .collect();
        ChannelPipeline { stages }
    }

    /// The SNR the first AWGN stage targets, if any.
    pub fn snr_db(&self) -> Option<f64> {
        self.first_awgn().map(|(_, snr_db, _)| snr_db)
    }

    /// The noise floor of the first AWGN stage, if any.
    pub fn noise_power(&self) -> Option<f64> {
        self.first_awgn().map(|(_, _, noise_power)| noise_power)
    }

    /// The index, SNR target and noise floor of the first AWGN stage.
    pub(crate) fn first_awgn(&self) -> Option<(usize, f64, f64)> {
        self.stages
            .iter()
            .enumerate()
            .find_map(|(index, stage)| match stage {
                ChannelStage::Awgn {
                    snr_db,
                    noise_power,
                } => Some((index, *snr_db, *noise_power)),
                _ => None,
            })
    }
}

/// SplitMix64-style seed mixing so every (trial, stage) pair gets an
/// independent stream.
pub(crate) fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalModel;

    fn bpsk(len: usize, seed: u64) -> Vec<Cplx> {
        SignalModel::bpsk().generate(len, seed).unwrap()
    }

    #[test]
    fn awgn_stage_hits_target_snr() {
        let clean = bpsk(65_536, 1);
        let channel = ChannelPipeline::awgn(3.0);
        let noisy = channel.apply(clean, 42).unwrap();
        // Total power = noise (1.0) + signal (10^0.3 ~ 2.0).
        let p = signal_power(&noisy);
        assert!((p - 3.0).abs() < 0.2, "p = {p}");
    }

    #[test]
    fn awgn_stage_gives_vacant_band_the_noise_floor() {
        let vacant = vec![Cplx::ZERO; 65_536];
        let noisy = ChannelPipeline::awgn(10.0).apply(vacant, 7).unwrap();
        let p = signal_power(&noisy);
        assert!((p - 1.0).abs() < 0.1, "p = {p}");
    }

    #[test]
    fn pipeline_is_deterministic_per_seed() {
        let channel = ChannelPipeline::new(vec![
            ChannelStage::TwoRay {
                delay_samples: 3,
                relative_gain: 0.5,
                phase: 1.0,
            },
            ChannelStage::CarrierOffset {
                normalised: 0.01,
                phase: 0.0,
            },
            ChannelStage::Awgn {
                snr_db: 0.0,
                noise_power: 1.0,
            },
            ChannelStage::Quantize { full_scale: 4.0 },
        ]);
        let a = channel.apply(bpsk(1024, 3), 9).unwrap();
        let b = channel.apply(bpsk(1024, 3), 9).unwrap();
        let c = channel.apply(bpsk(1024, 3), 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn two_ray_preserves_power_and_mixes_echo() {
        let clean = bpsk(4096, 5);
        let p_in = signal_power(&clean);
        let stage = ChannelStage::TwoRay {
            delay_samples: 2,
            relative_gain: 0.8,
            phase: 0.7,
        };
        let faded = stage.apply(clean.clone(), 0);
        assert!((signal_power(&faded) - p_in).abs() < 1e-9);
        assert_ne!(faded, clean);
        // The echo of sample 0 shows up at sample 2.
        let expected = clean[2] + clean[0] * Cplx::from_polar(0.8, 0.7);
        let gain = (p_in
            / signal_power(&{
                let echo_gain = Cplx::from_polar(0.8, 0.7);
                (0..clean.len())
                    .map(|t| {
                        clean[t]
                            + if t >= 2 {
                                clean[t - 2] * echo_gain
                            } else {
                                Cplx::ZERO
                            }
                    })
                    .collect::<Vec<_>>()
            }))
        .sqrt();
        assert!((faded[2] - expected * gain).abs() < 1e-9);
    }

    #[test]
    fn quantize_snaps_to_q15_grid_and_clips() {
        let stage = ChannelStage::Quantize { full_scale: 2.0 };
        let samples = vec![Cplx::new(0.7, -0.3), Cplx::new(5.0, -5.0)];
        let out = stage.apply(samples, 0);
        // In-range values move by at most one LSB (2.0 / 32768).
        assert!((out[0].re - 0.7).abs() <= 2.0 / 32768.0);
        assert!((out[0].im + 0.3).abs() <= 2.0 / 32768.0);
        // Out-of-range values clip to full scale.
        assert!(out[1].re <= 2.0 && out[1].re > 1.99);
        assert!(out[1].im >= -2.0 && out[1].im < -1.99);
    }

    #[test]
    fn impulsive_noise_adds_rare_strong_bursts() {
        let floor = vec![Cplx::ZERO; 65_536];
        let pipeline = ChannelPipeline::new(vec![
            ChannelStage::Awgn {
                snr_db: 0.0,
                noise_power: 1.0,
            },
            ChannelStage::ImpulsiveNoise {
                probability: 0.02,
                impulse_power: 100.0,
            },
        ]);
        let noisy = pipeline.apply(floor, 11).unwrap();
        // Average power: 1.0 thermal + 0.02 * 100 impulsive = 3.0.
        let p = signal_power(&noisy);
        assert!((p - 3.0).abs() < 0.4, "p = {p}");
        // The power arrives in bursts: only a few percent of the samples
        // exceed 5x the thermal floor's RMS.
        let bursts = noisy.iter().filter(|x| x.abs() > 5.0).count();
        let fraction = bursts as f64 / noisy.len() as f64;
        assert!(
            fraction > 0.005 && fraction < 0.04,
            "burst fraction = {fraction}"
        );
        // Deterministic per seed.
        let again = ChannelPipeline::new(vec![
            ChannelStage::Awgn {
                snr_db: 0.0,
                noise_power: 1.0,
            },
            ChannelStage::ImpulsiveNoise {
                probability: 0.02,
                impulse_power: 100.0,
            },
        ])
        .apply(vec![Cplx::ZERO; 65_536], 11)
        .unwrap();
        assert_eq!(noisy, again);
    }

    #[test]
    fn rayleigh_fading_preserves_average_power_and_fades_realisations() {
        let stage = ChannelStage::RayleighFading {
            taps: 3,
            tap_spacing: 2,
            decay_db: 3.0,
            noise_power: 1.0,
        };
        // Over many independent realisations of a noisy observation the
        // average output power matches the input budget (signal fades,
        // floor topped back up), while individual realisations vary.
        let mut powers = Vec::new();
        for trial in 0..48 {
            let noisy = ChannelPipeline::awgn(10.0)
                .apply(bpsk(2048, trial), mix_seed(99, trial))
                .unwrap();
            let p_in = signal_power(&noisy);
            let faded = stage.apply(noisy, mix_seed(7, trial));
            powers.push(signal_power(&faded) / p_in);
        }
        let mean: f64 = powers.iter().sum::<f64>() / powers.len() as f64;
        assert!((mean - 1.0).abs() < 0.25, "mean relative power = {mean}");
        let spread = powers.iter().cloned().fold(f64::MIN, f64::max)
            - powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.2, "fades should vary, spread = {spread}");
        // Deterministic per seed.
        let noisy = ChannelPipeline::awgn(10.0).apply(bpsk(512, 1), 3).unwrap();
        assert_eq!(
            stage.apply(noisy.clone(), 11),
            stage.apply(noisy.clone(), 11)
        );
        assert_ne!(stage.apply(noisy.clone(), 11), stage.apply(noisy, 12));
    }

    #[test]
    fn shadowing_attenuates_signal_but_keeps_the_floor() {
        let stage = ChannelStage::LogNormalShadowing {
            sigma_db: 8.0,
            noise_power: 1.0,
        };
        // A vacant band keeps its thermal floor through the shadow: the
        // stage models an obstruction between transmitter and receiver,
        // not inside the receiver.
        let floor = ChannelPipeline::awgn(0.0)
            .apply(vec![Cplx::ZERO; 65_536], 5)
            .unwrap();
        let shadowed = stage.apply(floor, 21);
        let p = signal_power(&shadowed);
        assert!((p - 1.0).abs() < 0.1, "floor power = {p}");
        // A strong signal is attenuated in at least some realisations,
        // and never amplified beyond its input power (0 dB clip).
        let strong = ChannelPipeline::awgn(20.0).apply(bpsk(4096, 2), 6).unwrap();
        let p_in = signal_power(&strong);
        let mut attenuated = 0;
        for trial in 0..32 {
            let out = stage.apply(strong.clone(), mix_seed(40, trial));
            let ratio = signal_power(&out) / p_in;
            assert!(ratio < 1.1, "ratio = {ratio}");
            if ratio < 0.5 {
                attenuated += 1;
            }
        }
        assert!(attenuated > 3, "deep shadows = {attenuated}/32");
    }

    #[test]
    fn adjacent_interferer_adds_power_off_centre() {
        let stage = ChannelStage::AdjacentChannelInterferer {
            offset: 0.35,
            power: 2.0,
            samples_per_symbol: 4,
        };
        let floor = ChannelPipeline::awgn(0.0)
            .apply(vec![Cplx::ZERO; 16_384], 9)
            .unwrap();
        let polluted = stage.apply(floor.clone(), 13);
        // Total power = 1.0 thermal + 2.0 interferer.
        let p = signal_power(&polluted);
        assert!((p - 3.0).abs() < 0.3, "p = {p}");
        // Deterministic per seed and actually different from the input.
        assert_eq!(stage.apply(floor.clone(), 13), polluted);
        assert_ne!(stage.apply(floor, 14), polluted);
    }

    #[test]
    fn impair_applies_overlays_without_an_awgn_stage() {
        let overlay = ChannelPipeline::new(vec![ChannelStage::LogNormalShadowing {
            sigma_db: 6.0,
            noise_power: 1.0,
        }]);
        // apply() refuses (no AWGN stage), impair() runs.
        assert!(overlay.apply(bpsk(256, 1), 3).is_err());
        let a = overlay.impair(bpsk(256, 1), 3).unwrap();
        let b = overlay.impair(bpsk(256, 1), 3).unwrap();
        assert_eq!(a, b);
        // Still validates the stages themselves.
        let bad = ChannelPipeline::new(vec![ChannelStage::LogNormalShadowing {
            sigma_db: -1.0,
            noise_power: 1.0,
        }]);
        assert!(bad.impair(bpsk(256, 1), 3).is_err());
    }

    #[test]
    fn new_stage_validation_rejects_bad_parameters() {
        assert!(ChannelStage::RayleighFading {
            taps: 0,
            tap_spacing: 1,
            decay_db: 3.0,
            noise_power: 1.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::RayleighFading {
            taps: 2,
            tap_spacing: 0,
            decay_db: 3.0,
            noise_power: 1.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::RayleighFading {
            taps: 2,
            tap_spacing: 1,
            decay_db: -1.0,
            noise_power: 1.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::LogNormalShadowing {
            sigma_db: f64::NAN,
            noise_power: 1.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::LogNormalShadowing {
            sigma_db: 6.0,
            noise_power: 0.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::AdjacentChannelInterferer {
            offset: 0.7,
            power: 1.0,
            samples_per_symbol: 4
        }
        .validate()
        .is_err());
        assert!(ChannelStage::AdjacentChannelInterferer {
            offset: 0.3,
            power: 0.0,
            samples_per_symbol: 4
        }
        .validate()
        .is_err());
        assert!(ChannelStage::AdjacentChannelInterferer {
            offset: 0.3,
            power: 1.0,
            samples_per_symbol: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn impulsive_noise_validation() {
        assert!(ChannelStage::ImpulsiveNoise {
            probability: -0.1,
            impulse_power: 10.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::ImpulsiveNoise {
            probability: 1.5,
            impulse_power: 10.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::ImpulsiveNoise {
            probability: 0.1,
            impulse_power: 0.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::ImpulsiveNoise {
            probability: 0.1,
            impulse_power: f64::NAN
        }
        .validate()
        .is_err());
        assert!(ChannelStage::ImpulsiveNoise {
            probability: 0.1,
            impulse_power: 10.0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn with_snr_and_noise_power_rewrite_awgn_stages_only() {
        let channel = ChannelPipeline::new(vec![
            ChannelStage::CarrierOffset {
                normalised: 0.01,
                phase: 0.0,
            },
            ChannelStage::Awgn {
                snr_db: 0.0,
                noise_power: 1.0,
            },
        ]);
        let retargeted = channel.with_snr(-5.0).with_noise_power(1.26);
        assert_eq!(retargeted.snr_db(), Some(-5.0));
        assert_eq!(retargeted.noise_power(), Some(1.26));
        assert_eq!(retargeted.stages[0], channel.stages[0]);
    }

    #[test]
    fn validation_rejects_bad_stages_and_noiseless_pipelines() {
        assert!(ChannelPipeline::new(vec![]).validate().is_err());
        assert!(
            ChannelPipeline::new(vec![ChannelStage::Quantize { full_scale: 1.0 }])
                .validate()
                .is_err()
        );
        assert!(ChannelStage::Awgn {
            snr_db: f64::NAN,
            noise_power: 1.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::Awgn {
            snr_db: 0.0,
            noise_power: 0.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::TwoRay {
            delay_samples: 1,
            relative_gain: 1.5,
            phase: 0.0
        }
        .validate()
        .is_err());
        assert!(ChannelStage::Quantize { full_scale: -1.0 }
            .validate()
            .is_err());
        assert!(ChannelStage::CarrierOffset {
            normalised: f64::INFINITY,
            phase: 0.0
        }
        .validate()
        .is_err());
    }
}
