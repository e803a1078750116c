//! Named radio scenarios and the Monte-Carlo trial runner.
//!
//! A [`RadioScenario`] pairs a licensed-user [`SignalModel`] with a
//! [`ChannelPipeline`] and an observation length, and turns `(hypothesis,
//! trial)` pairs into reproducible observations: trial `i` under H1 uses
//! the same channel-noise realisation as trial `i` under a different SNR
//! (common random numbers), which keeps SNR sweeps smooth and makes
//! detection probabilities monotone in SNR rather than jittered by
//! independent noise draws.
//!
//! Common random numbers are structural: a trial's clean signal (after the
//! channel stages before the first [`ChannelStage::Awgn`] stage, which no
//! SNR retarget touches) and that stage's noise are drawn once into a
//! [`TrialDraw`] ([`RadioScenario::draw_trial`]); each observation of the
//! trial — H0, or H1 at any SNR — is then one `s·gain + w` combine plus the
//! pipeline's remaining stages ([`RadioScenario::observe_drawn`]).
//! [`RadioScenario::observe`] is one draw and one combine, so the sweep
//! engine, which draws each trial once for all its SNR points, produces
//! exactly the samples `observe` does.

use crate::channel::{add_awgn, mix_seed, ChannelPipeline, ChannelStage};
use crate::error::ScenarioError;
use crate::signal::SignalModel;
use cfd_dsp::complex::Cplx;
use cfd_dsp::signal::{awgn_into, signal_power};

/// Which hypothesis an observation is drawn under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Hypothesis {
    /// H0: the band is vacant; the observation is channel noise only.
    Vacant,
    /// H1: the licensed user transmits through the channel.
    Occupied,
}

/// One generated observation plus its ground truth.
#[derive(Debug, Clone)]
pub struct ScenarioObservation {
    /// The received samples.
    pub samples: Vec<Cplx>,
    /// Ground truth: was the licensed user transmitting?
    pub occupied: bool,
    /// The Monte-Carlo trial index this observation belongs to.
    pub trial: usize,
    /// The SNR (dB) the channel targeted, `None` for vacant observations.
    pub snr_db: Option<f64>,
}

/// The SNR-independent randomness of one Monte-Carlo trial, drawn once by
/// [`RadioScenario::draw_trial`] and combined into any number of
/// observations by [`RadioScenario::observe_drawn`].
///
/// Trial `i`'s signal and channel seeds depend on the trial index alone,
/// and [`ChannelPipeline::with_snr`] rewrites only the
/// [`ChannelStage::Awgn`] stages. So neither the signal after the stages
/// before the first `Awgn` stage nor that stage's noise depends on the SNR
/// point, and the noise does not depend on the hypothesis either. The draw
/// holds both; its signal and noise buffers are reused from draw to draw.
///
/// # Examples
///
/// ```
/// use cfd_scenario::prelude::*;
///
/// # fn main() -> Result<(), ScenarioError> {
/// let scenario = RadioScenario::preset("qpsk-offset", 256).expect("built-in preset");
/// let mut draw = TrialDraw::default();
/// let mut samples = Vec::new();
/// scenario.draw_trial(Hypothesis::Occupied, 3, &mut draw)?;
/// for snr_db in [-6.0, 0.0, 6.0] {
///     let at_snr = scenario.at_snr(snr_db);
///     at_snr.observe_drawn(&draw, Hypothesis::Occupied, &mut samples)?;
///     assert_eq!(samples, at_snr.observe(Hypothesis::Occupied, 3)?.samples);
/// }
/// scenario.observe_drawn(&draw, Hypothesis::Vacant, &mut samples)?;
/// assert_eq!(samples, scenario.observe(Hypothesis::Vacant, 3)?.samples);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrialDraw {
    /// Base seed of the drawing scenario.
    seed: u64,
    /// The trial's pipeline seed; stage `i` runs on `mix_seed(channel_seed, i)`.
    channel_seed: u64,
    /// Index of the first `Awgn` stage.
    awgn_stage: usize,
    /// That stage's noise floor.
    noise_power: f64,
    /// The licensed-user signal after the pre-`Awgn` stages; its buffer
    /// is kept from draw to draw.
    signal: Prefixed,
    /// Whether `signal` holds this draw's signal (`false` for a
    /// vacant-only draw).
    occupied: bool,
    /// The vacant band after the pre-`Awgn` stages; `None` when there are
    /// none, so it is silent.
    vacant: Option<Prefixed>,
    /// The first `Awgn` stage's noise, `observation_len` samples.
    noise: Vec<Cplx>,
}

/// Samples after the pre-`Awgn` stages, with their average power.
#[derive(Debug, Clone, Default)]
struct Prefixed {
    samples: Vec<Cplx>,
    power: f64,
}

impl Prefixed {
    fn new(samples: Vec<Cplx>) -> Self {
        Prefixed {
            power: signal_power(&samples),
            samples,
        }
    }
}

/// A named, fully specified sensing workload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RadioScenario {
    /// Human-readable preset name.
    pub name: String,
    /// What the licensed user transmits under H1.
    pub signal: SignalModel,
    /// The impairments between transmitter and detector.
    pub channel: ChannelPipeline,
    /// Observation length in samples.
    pub observation_len: usize,
    /// Base seed; all trial observations derive from it deterministically.
    pub seed: u64,
}

impl RadioScenario {
    /// Creates a scenario after validating its parts.
    ///
    /// # Errors
    ///
    /// Propagates signal/channel validation failures; rejects a zero
    /// observation length.
    pub fn new(
        name: impl Into<String>,
        signal: SignalModel,
        channel: ChannelPipeline,
        observation_len: usize,
    ) -> Result<Self, ScenarioError> {
        if observation_len == 0 {
            return Err(ScenarioError::InvalidParameter {
                name: "observation_len",
                message: "must be at least 1".into(),
            });
        }
        signal.validate()?;
        channel.validate()?;
        Ok(RadioScenario {
            name: name.into(),
            signal,
            channel,
            observation_len,
            seed: 0,
        })
    }

    /// Sets the base seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A copy of the scenario with every AWGN stage retargeted to
    /// `snr_db`. The base seed is kept, so sweeps reuse the same noise
    /// realisations per trial (common random numbers).
    pub fn at_snr(&self, snr_db: f64) -> Self {
        RadioScenario {
            channel: self.channel.with_snr(snr_db),
            ..self.clone()
        }
    }

    /// A copy with the actual channel noise floor changed — detectors
    /// calibrated for the nominal floor now operate under a model error,
    /// the regime the paper motivates CFD with.
    pub fn with_noise_power(&self, noise_power: f64) -> Self {
        RadioScenario {
            channel: self.channel.with_noise_power(noise_power),
            ..self.clone()
        }
    }

    /// Generates the observation for `(hypothesis, trial)`.
    ///
    /// Deterministic: the same scenario, hypothesis and trial always
    /// produce the same samples. The channel noise of trial `i` does not
    /// depend on the SNR target, only the signal scaling does.
    ///
    /// # Errors
    ///
    /// Propagates signal-generation and channel errors.
    pub fn observe(
        &self,
        hypothesis: Hypothesis,
        trial: usize,
    ) -> Result<ScenarioObservation, ScenarioError> {
        let occupied = hypothesis == Hypothesis::Occupied;
        let mut draw = TrialDraw::default();
        self.draw_trial(hypothesis, trial, &mut draw)?;
        let mut samples = Vec::with_capacity(self.observation_len);
        self.observe_drawn(&draw, hypothesis, &mut samples)?;
        Ok(ScenarioObservation {
            samples,
            occupied,
            trial,
            snr_db: if occupied {
                self.channel.snr_db()
            } else {
                None
            },
        })
    }

    /// Draws trial `trial`'s SNR-independent randomness into `draw`,
    /// reusing its buffers: the channel noise of the first
    /// [`ChannelStage::Awgn`] stage and, for [`Hypothesis::Occupied`], the
    /// licensed-user signal ([`SignalModel::generate_into`]) passed
    /// through the stages before it. A vacant draw skips signal
    /// generation; an occupied draw serves both hypotheses.
    ///
    /// # Errors
    ///
    /// Propagates channel validation and signal-generation errors; `draw`
    /// is left unchanged on error.
    pub fn draw_trial(
        &self,
        hypothesis: Hypothesis,
        trial: usize,
        draw: &mut TrialDraw,
    ) -> Result<(), ScenarioError> {
        let (awgn_stage, _, noise_power) = self.validated_awgn_stage()?;
        // H0 and H1 share channel randomness per trial; the signal seed is
        // salted separately so symbols and noise are independent.
        let channel_seed = mix_seed(self.seed, 0x0C0F_FEE0 ^ trial as u64);
        let occupied = hypothesis == Hypothesis::Occupied;
        if occupied {
            let signal_seed = mix_seed(self.seed, 0x51C4_A1B0 ^ trial as u64);
            // Writes nothing on error, so the draw is still unchanged.
            self.signal.generate_into(
                &mut draw.signal.samples,
                self.observation_len,
                signal_seed,
            )?;
        }
        let prefix = |samples| {
            Prefixed::new(
                self.channel
                    .apply_stages(0..awgn_stage, samples, channel_seed),
            )
        };
        if occupied {
            draw.signal = prefix(std::mem::take(&mut draw.signal.samples));
        }
        draw.occupied = occupied;
        draw.vacant = (awgn_stage > 0).then(|| prefix(vec![Cplx::ZERO; self.observation_len]));
        draw.noise.resize(self.observation_len, Cplx::ZERO);
        awgn_into(
            &mut draw.noise,
            noise_power,
            mix_seed(channel_seed, awgn_stage as u64),
        );
        draw.seed = self.seed;
        draw.channel_seed = channel_seed;
        draw.awgn_stage = awgn_stage;
        draw.noise_power = noise_power;
        Ok(())
    }

    /// Writes the observation of a drawn trial under `hypothesis` into
    /// `out` (reusing its allocation): the first [`ChannelStage::Awgn`]
    /// stage's `s·gain + w` at this scenario's SNR — a vacant band's zero
    /// signal has gain 1 — written straight into `out` in one pass over
    /// the drawn signal and noise, then the remaining stages. Bit for bit
    /// what [`RadioScenario::observe`] returns for the same trial. A
    /// reusable [`Observation`](cfd_core::backend::Observation) lends its
    /// own buffer as `out` through
    /// [`Observation::load_with`](cfd_core::backend::Observation::load_with),
    /// so the observation is written once and never copied.
    ///
    /// `draw` must come from [`RadioScenario::draw_trial`] on this
    /// scenario or on one it is an [`RadioScenario::at_snr`] copy of
    /// (checked as far as seed, length and noise floor go).
    ///
    /// # Errors
    ///
    /// Propagates channel validation errors; rejects a draw from another
    /// scenario and an occupied observation of a vacant-only draw.
    pub fn observe_drawn(
        &self,
        draw: &TrialDraw,
        hypothesis: Hypothesis,
        out: &mut Vec<Cplx>,
    ) -> Result<(), ScenarioError> {
        let (awgn_stage, snr_db, noise_power) = self.validated_awgn_stage()?;
        if (
            draw.seed,
            draw.noise.len(),
            draw.awgn_stage,
            draw.noise_power,
        ) != (self.seed, self.observation_len, awgn_stage, noise_power)
        {
            return Err(ScenarioError::InvalidParameter {
                name: "draw",
                message: format!(
                    "the draw does not belong to scenario `{}` (draw it with this \
                     scenario or the one it was retargeted from)",
                    self.name
                ),
            });
        }
        let prefixed = match hypothesis {
            Hypothesis::Occupied if !draw.occupied => {
                return Err(ScenarioError::InvalidParameter {
                    name: "hypothesis",
                    message: "a vacant draw holds no signal; draw the trial as occupied".into(),
                })
            }
            Hypothesis::Occupied => Some(&draw.signal),
            Hypothesis::Vacant => draw.vacant.as_ref(),
        };
        let awgn = (snr_db, noise_power);
        match prefixed {
            Some(prefixed) => add_awgn(
                prefixed.samples.iter().copied(),
                prefixed.power,
                awgn,
                &draw.noise,
                out,
            ),
            None => add_awgn(std::iter::repeat(Cplx::ZERO), 0.0, awgn, &draw.noise, out),
        }
        let rest = awgn_stage + 1..self.channel.stages.len();
        *out = self
            .channel
            .apply_stages(rest, std::mem::take(out), draw.channel_seed);
        Ok(())
    }

    /// Validates the channel and returns the index, SNR target and noise
    /// floor of its first [`ChannelStage::Awgn`] stage.
    fn validated_awgn_stage(&self) -> Result<(usize, f64, f64), ScenarioError> {
        self.channel.validate()?;
        Ok(self
            .channel
            .first_awgn()
            .expect("a valid pipeline holds an Awgn stage"))
    }

    /// Generates `trials` observation pairs `(H1, H0)`.
    ///
    /// # Errors
    ///
    /// Propagates [`RadioScenario::observe`] errors.
    pub fn observe_trials(
        &self,
        trials: usize,
    ) -> Result<Vec<(ScenarioObservation, ScenarioObservation)>, ScenarioError> {
        (0..trials)
            .map(|trial| {
                Ok((
                    self.observe(Hypothesis::Occupied, trial)?,
                    self.observe(Hypothesis::Vacant, trial)?,
                ))
            })
            .collect()
    }

    /// The names of all built-in presets, usable with
    /// [`RadioScenario::preset`].
    pub fn preset_names() -> &'static [&'static str] {
        &[
            "bpsk-awgn",
            "qpsk-offset",
            "bpsk-two-ray",
            "ofdm-pilot",
            "bpsk-adc",
            "bpsk-impulsive",
            "bpsk-rayleigh-shadowed",
            "ofdm-adjacent-interferer",
        ]
    }

    /// Builds a named preset sized for `observation_len` samples, at a
    /// default 0 dB SNR (retarget with [`RadioScenario::at_snr`]).
    ///
    /// Returns `None` for an unknown name.
    pub fn preset(name: &str, observation_len: usize) -> Option<Self> {
        let scenario = match name {
            // The paper's baseline workload: baseband BPSK over AWGN.
            "bpsk-awgn" => RadioScenario::new(
                name,
                SignalModel::bpsk(),
                ChannelPipeline::awgn(0.0),
                observation_len,
            ),
            // QPSK with a local-oscillator offset of 1% of the sample rate.
            "qpsk-offset" => RadioScenario::new(
                name,
                SignalModel::qpsk(),
                ChannelPipeline::new(vec![
                    ChannelStage::CarrierOffset {
                        normalised: 0.01,
                        phase: 0.3,
                    },
                    ChannelStage::Awgn {
                        snr_db: 0.0,
                        noise_power: 1.0,
                    },
                ]),
                observation_len,
            ),
            // BPSK through a two-ray channel (echo at 3 samples, -6 dB).
            "bpsk-two-ray" => RadioScenario::new(
                name,
                SignalModel::bpsk(),
                ChannelPipeline::new(vec![
                    ChannelStage::TwoRay {
                        delay_samples: 3,
                        relative_gain: 0.5,
                        phase: 2.2,
                    },
                    ChannelStage::Awgn {
                        snr_db: 0.0,
                        noise_power: 1.0,
                    },
                ]),
                observation_len,
            ),
            // OFDM-like licensed user with pilots and a cyclic prefix.
            "ofdm-pilot" => RadioScenario::new(
                name,
                SignalModel::OfdmPilot {
                    subcarriers: 16,
                    cyclic_prefix: 4,
                    pilot_spacing: 4,
                },
                ChannelPipeline::awgn(0.0),
                observation_len,
            ),
            // BPSK under Bernoulli–Gaussian impulsive noise: 2% of the
            // samples receive a 20 dB burst on top of the thermal floor —
            // the man-made interference regime of the TV bands, where the
            // energy statistic inflates but cyclic features survive.
            "bpsk-impulsive" => RadioScenario::new(
                name,
                SignalModel::bpsk(),
                ChannelPipeline::new(vec![
                    ChannelStage::Awgn {
                        snr_db: 0.0,
                        noise_power: 1.0,
                    },
                    ChannelStage::ImpulsiveNoise {
                        probability: 0.02,
                        impulse_power: 100.0,
                    },
                ]),
                observation_len,
            ),
            // BPSK sensed through a 16-bit ADC with 12 dB of headroom.
            "bpsk-adc" => RadioScenario::new(
                name,
                SignalModel::bpsk(),
                ChannelPipeline::new(vec![
                    ChannelStage::Awgn {
                        snr_db: 0.0,
                        noise_power: 1.0,
                    },
                    ChannelStage::Quantize { full_scale: 4.0 },
                ]),
                observation_len,
            ),
            // BPSK behind a 3-tap Rayleigh channel and 6 dB log-normal
            // shadowing — the low-SNR obstruction regime that motivates
            // cooperative sensing: any one realisation may sit in a deep
            // fade while the fleet as a whole still sees the signal.
            "bpsk-rayleigh-shadowed" => RadioScenario::new(
                name,
                SignalModel::bpsk(),
                ChannelPipeline::new(vec![
                    ChannelStage::Awgn {
                        snr_db: 0.0,
                        noise_power: 1.0,
                    },
                    ChannelStage::RayleighFading {
                        taps: 3,
                        tap_spacing: 2,
                        decay_db: 3.0,
                        noise_power: 1.0,
                    },
                    ChannelStage::LogNormalShadowing {
                        sigma_db: 6.0,
                        noise_power: 1.0,
                    },
                ]),
                observation_len,
            ),
            // The OFDM licensed user next to a strong QPSK neighbour 0.35
            // cycles/sample away: the interferer triples the received
            // power (fooling an energy statistic) but carries a different
            // cyclic signature.
            "ofdm-adjacent-interferer" => RadioScenario::new(
                name,
                SignalModel::OfdmPilot {
                    subcarriers: 16,
                    cyclic_prefix: 4,
                    pilot_spacing: 4,
                },
                ChannelPipeline::new(vec![
                    ChannelStage::Awgn {
                        snr_db: 0.0,
                        noise_power: 1.0,
                    },
                    ChannelStage::AdjacentChannelInterferer {
                        offset: 0.35,
                        power: 2.0,
                        samples_per_symbol: 4,
                    },
                ]),
                observation_len,
            ),
            _ => return None,
        };
        Some(scenario.expect("presets are valid by construction"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::signal::signal_power;

    fn scenario() -> RadioScenario {
        RadioScenario::preset("bpsk-awgn", 2048)
            .unwrap()
            .with_seed(7)
    }

    #[test]
    fn all_presets_build_and_observe() {
        for name in RadioScenario::preset_names() {
            let s = RadioScenario::preset(name, 512).expect(name);
            assert_eq!(&s.name, name);
            let h1 = s.observe(Hypothesis::Occupied, 0).unwrap();
            let h0 = s.observe(Hypothesis::Vacant, 0).unwrap();
            assert_eq!(h1.samples.len(), 512);
            assert!(h1.occupied);
            assert!(!h0.occupied);
            assert_eq!(h1.snr_db, Some(0.0));
            assert_eq!(h0.snr_db, None);
        }
        assert!(RadioScenario::preset("no-such-preset", 512).is_none());
    }

    #[test]
    fn observations_are_reproducible_and_trials_differ() {
        let s = scenario();
        let a = s.observe(Hypothesis::Occupied, 3).unwrap();
        let b = s.observe(Hypothesis::Occupied, 3).unwrap();
        let c = s.observe(Hypothesis::Occupied, 4).unwrap();
        assert_eq!(a.samples, b.samples);
        assert_ne!(a.samples, c.samples);
        let d = s.with_seed(8).observe(Hypothesis::Occupied, 3).unwrap();
        assert_ne!(a.samples, d.samples);
    }

    #[test]
    fn snr_retargeting_reuses_noise_realisations() {
        let s = scenario();
        let low = s.at_snr(-20.0).observe(Hypothesis::Vacant, 1).unwrap();
        let high = s.at_snr(20.0).observe(Hypothesis::Vacant, 1).unwrap();
        // Vacant-band observations are pure channel noise, which must not
        // depend on the SNR target at all.
        assert_eq!(low.samples, high.samples);
    }

    #[test]
    fn occupied_observation_carries_signal_power() {
        let s = scenario().at_snr(10.0);
        let h1 = s.observe(Hypothesis::Occupied, 0).unwrap();
        let h0 = s.observe(Hypothesis::Vacant, 0).unwrap();
        let p1 = signal_power(&h1.samples);
        let p0 = signal_power(&h0.samples);
        assert!(p1 > 5.0 * p0, "p1 = {p1}, p0 = {p0}");
    }

    #[test]
    fn with_noise_power_raises_the_floor() {
        let s = scenario().with_noise_power(4.0);
        let h0 = s.observe(Hypothesis::Vacant, 0).unwrap();
        let p0 = signal_power(&h0.samples);
        assert!((p0 - 4.0).abs() < 0.5, "p0 = {p0}");
    }

    #[test]
    fn observe_trials_produces_pairs() {
        let pairs = scenario().observe_trials(5).unwrap();
        assert_eq!(pairs.len(), 5);
        for (i, (h1, h0)) in pairs.iter().enumerate() {
            assert_eq!(h1.trial, i);
            assert_eq!(h0.trial, i);
            assert!(h1.occupied && !h0.occupied);
        }
    }

    #[test]
    fn observe_matches_the_whole_pipeline_reference() {
        // `observe` runs the pipeline in pieces around its first Awgn
        // stage; it must draw exactly what one `ChannelPipeline::apply`
        // pass over the clean signal (or silence) draws — also when a
        // stage before the Awgn stage is audible in a vacant band and when
        // a second Awgn stage follows.
        let mut scenarios: Vec<RadioScenario> = RadioScenario::preset_names()
            .iter()
            .map(|name| RadioScenario::preset(name, 200).unwrap())
            .collect();
        scenarios.push(
            RadioScenario::new(
                "interferer-first",
                SignalModel::qpsk(),
                ChannelPipeline::new(vec![
                    ChannelStage::AdjacentChannelInterferer {
                        offset: 0.3,
                        power: 0.5,
                        samples_per_symbol: 3,
                    },
                    ChannelStage::Awgn {
                        snr_db: 2.0,
                        noise_power: 1.5,
                    },
                    ChannelStage::Awgn {
                        snr_db: -4.0,
                        noise_power: 0.5,
                    },
                    ChannelStage::Quantize { full_scale: 4.0 },
                ]),
                200,
            )
            .unwrap(),
        );
        for scenario in &scenarios {
            let scenario = scenario.at_snr(-3.0).with_seed(13);
            for trial in 0..3usize {
                let channel_seed = mix_seed(scenario.seed, 0x0C0F_FEE0 ^ trial as u64);
                let signal_seed = mix_seed(scenario.seed, 0x51C4_A1B0 ^ trial as u64);
                let clean = scenario.signal.generate(200, signal_seed).unwrap();
                let cases = [
                    (Hypothesis::Occupied, clean),
                    (Hypothesis::Vacant, vec![Cplx::ZERO; 200]),
                ];
                for (hypothesis, clean) in cases {
                    let reference = scenario.channel.apply(clean, channel_seed).unwrap();
                    let observed = scenario.observe(hypothesis, trial).unwrap().samples;
                    let bits = |samples: &[Cplx]| -> Vec<(u64, u64)> {
                        samples
                            .iter()
                            .map(|x| (x.re.to_bits(), x.im.to_bits()))
                            .collect()
                    };
                    assert_eq!(
                        bits(&observed),
                        bits(&reference),
                        "{} {hypothesis:?} trial {trial}",
                        scenario.name
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        assert!(
            RadioScenario::new("bad", SignalModel::bpsk(), ChannelPipeline::awgn(0.0), 0).is_err()
        );
        assert!(
            RadioScenario::new("bad", SignalModel::bpsk(), ChannelPipeline::new(vec![]), 64)
                .is_err()
        );
    }
}
