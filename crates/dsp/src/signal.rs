//! Signal generators for the cognitive-radio spectrum-sensing scenario.
//!
//! Cyclostationary feature detection exploits "the periodicity that
//! especially communication signals exhibit" (Section 1 of the paper):
//! digitally modulated signals such as BPSK/QPSK carry hidden periodicities
//! at multiples of their symbol rate and (for real carriers) at twice the
//! carrier frequency, which show up as non-zero cyclic frequencies `a` in
//! the spectral correlation function while stationary noise does not.
//!
//! This module generates the licensed-user waveforms and channel impairments
//! used by the examples, tests and benches:
//!
//! * [`complex_tone`], [`real_carrier`] — deterministic carriers,
//! * [`SymbolModulation`] + [`modulated_signal`] — BPSK/QPSK/AM pulse-train
//!   signals with a configurable symbol length,
//! * [`awgn`], [`awgn_into`] — complex additive white Gaussian noise,
//! * [`SignalBuilder`] — composes signal plus noise at a prescribed SNR.

use crate::complex::Cplx;
use crate::error::DspError;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Generates a unit-amplitude complex exponential `exp(j·2π·f·t/fs)`.
///
/// `frequency` and `sample_rate` are in the same unit (e.g. Hz).
pub fn complex_tone(len: usize, frequency: f64, sample_rate: f64, phase: f64) -> Vec<Cplx> {
    (0..len)
        .map(|t| Cplx::cis(2.0 * PI * frequency * t as f64 / sample_rate + phase))
        .collect()
}

/// Generates a real cosine carrier (as a complex signal with zero imaginary
/// part). Real carriers produce conjugate cyclostationarity at `±2·f_c`.
pub fn real_carrier(len: usize, frequency: f64, sample_rate: f64, phase: f64) -> Vec<Cplx> {
    (0..len)
        .map(|t| {
            Cplx::new(
                (2.0 * PI * frequency * t as f64 / sample_rate + phase).cos(),
                0.0,
            )
        })
        .collect()
}

/// Digital modulation formats for the licensed-user signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SymbolModulation {
    /// Binary phase-shift keying: symbols in `{+1, -1}`.
    Bpsk,
    /// Quadrature phase-shift keying: symbols in `{±1 ± j}/√2`.
    Qpsk,
    /// On-off keying / amplitude modulation: symbols in `{0, 1}`.
    Ook,
}

impl SymbolModulation {
    /// Draws one random symbol of this constellation.
    pub fn random_symbol<R: Rng + ?Sized>(self, rng: &mut R) -> Cplx {
        match self {
            SymbolModulation::Bpsk => {
                if rng.gen::<bool>() {
                    Cplx::ONE
                } else {
                    -Cplx::ONE
                }
            }
            SymbolModulation::Qpsk => {
                let re = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                let im = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                Cplx::new(re, im) / std::f64::consts::SQRT_2
            }
            SymbolModulation::Ook => {
                if rng.gen::<bool>() {
                    Cplx::ONE
                } else {
                    Cplx::ZERO
                }
            }
        }
    }
}

/// Parameters of a pulse-train modulated signal.
///
/// The signal is `s[t] = A · c[floor(t / symbol_len)] · exp(j·2π·f_c·t/fs)`
/// with independent random symbols `c[·]`. The rectangular symbol pulse makes
/// the signal cyclostationary with cycle frequency `fs / symbol_len` (and its
/// harmonics).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModulatedSignalSpec {
    /// Modulation format.
    pub modulation: SymbolModulation,
    /// Samples per symbol (the cyclic period in samples).
    pub samples_per_symbol: usize,
    /// Carrier frequency (same unit as `sample_rate`).
    pub carrier_frequency: f64,
    /// Sampling frequency.
    pub sample_rate: f64,
    /// Amplitude of the signal.
    pub amplitude: f64,
}

impl Default for ModulatedSignalSpec {
    fn default() -> Self {
        ModulatedSignalSpec {
            modulation: SymbolModulation::Bpsk,
            samples_per_symbol: 8,
            carrier_frequency: 0.0,
            sample_rate: 1.0,
            amplitude: 1.0,
        }
    }
}

/// Generates a modulated pulse-train signal per `spec`.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `samples_per_symbol` is zero or
/// the amplitude/sample-rate are not positive finite numbers.
pub fn modulated_signal(
    len: usize,
    spec: &ModulatedSignalSpec,
    seed: u64,
) -> Result<Vec<Cplx>, DspError> {
    if spec.samples_per_symbol == 0 {
        return Err(DspError::InvalidParameter {
            name: "samples_per_symbol",
            message: "must be at least 1".into(),
        });
    }
    if !(spec.sample_rate.is_finite() && spec.sample_rate > 0.0) {
        return Err(DspError::InvalidParameter {
            name: "sample_rate",
            message: format!("must be positive and finite, got {}", spec.sample_rate),
        });
    }
    if !(spec.amplitude.is_finite() && spec.amplitude >= 0.0) {
        return Err(DspError::InvalidParameter {
            name: "amplitude",
            message: format!("must be non-negative and finite, got {}", spec.amplitude),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n_symbols = len.div_ceil(spec.samples_per_symbol);
    let symbols: Vec<Cplx> = (0..n_symbols)
        .map(|_| spec.modulation.random_symbol(&mut rng))
        .collect();
    Ok((0..len)
        .map(|t| {
            let symbol = symbols[t / spec.samples_per_symbol];
            let carrier =
                Cplx::cis(2.0 * PI * spec.carrier_frequency * t as f64 / spec.sample_rate);
            symbol * carrier * spec.amplitude
        })
        .collect())
}

/// Generates complex additive white Gaussian noise with total (complex)
/// variance `variance` — i.e. each of the real and imaginary parts has
/// variance `variance / 2`. Allocates the result; [`awgn_into`] writes the
/// same samples into a caller buffer.
pub fn awgn(len: usize, variance: f64, seed: u64) -> Vec<Cplx> {
    let mut noise = vec![Cplx::ZERO; len];
    awgn_into(&mut noise, variance, seed);
    noise
}

/// Fills `out` with the first `out.len()` samples of [`awgn`]`(_, variance,
/// seed)`, bit for bit, without allocating.
pub fn awgn_into(out: &mut [Cplx], variance: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let std_dev = (variance / 2.0).max(0.0).sqrt();
    let normal = GaussianPair { std_dev };
    for sample in out {
        *sample = normal.sample(&mut rng);
    }
}

/// Samples a complex Gaussian with independent real/imaginary parts using
/// the Box–Muller transform (keeps the dependency surface to `rand` only).
#[derive(Debug, Clone, Copy)]
struct GaussianPair {
    std_dev: f64,
}

impl Distribution<Cplx> for GaussianPair {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Cplx {
        // Box–Muller: two uniforms -> two independent standard normals.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let radius = (-2.0 * u1.ln()).sqrt();
        let angle = 2.0 * PI * u2;
        Cplx::new(
            self.std_dev * radius * angle.cos(),
            self.std_dev * radius * angle.sin(),
        )
    }
}

/// Mixes `signal` with a complex exponential: `y[t] = x[t]·exp(j·(2π·f·t + φ))`
/// with `f` in cycles/sample. Models a carrier/local-oscillator frequency
/// offset between transmitter and receiver.
pub fn frequency_shift(signal: &[Cplx], normalised_frequency: f64, phase: f64) -> Vec<Cplx> {
    signal
        .iter()
        .enumerate()
        .map(|(t, &x)| x * Cplx::cis(2.0 * PI * normalised_frequency * t as f64 + phase))
        .collect()
}

/// Average power (mean squared magnitude) of a signal.
pub fn signal_power(signal: &[Cplx]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    signal.iter().map(|x| x.norm_sqr()).sum::<f64>() / signal.len() as f64
}

/// Scales `signal` so its average power becomes `target_power`.
///
/// A zero-power signal is returned unchanged.
pub fn normalise_power(signal: &[Cplx], target_power: f64) -> Vec<Cplx> {
    let p = signal_power(signal);
    if p == 0.0 {
        return signal.to_vec();
    }
    let gain = (target_power / p).sqrt();
    signal.iter().map(|&x| x * gain).collect()
}

/// Composes a licensed-user signal plus AWGN at a prescribed SNR.
///
/// This is the scenario the paper's introduction motivates: a cognitive
/// radio must decide whether a licensed user occupies the band, at SNRs
/// where an energy detector becomes unreliable.
///
/// # Examples
///
/// ```
/// use cfd_dsp::signal::{SignalBuilder, SymbolModulation};
///
/// # fn main() -> Result<(), cfd_dsp::error::DspError> {
/// let observation = SignalBuilder::new(4096)
///     .modulation(SymbolModulation::Bpsk)
///     .samples_per_symbol(8)
///     .snr_db(0.0)
///     .seed(42)
///     .build()?;
/// assert_eq!(observation.samples.len(), 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SignalBuilder {
    len: usize,
    spec: ModulatedSignalSpec,
    snr_db: Option<f64>,
    signal_present: bool,
    noise_power: f64,
    seed: u64,
}

/// The result of [`SignalBuilder::build`]: the observed samples plus ground
/// truth about what was generated.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The noisy observed samples.
    pub samples: Vec<Cplx>,
    /// Whether a licensed-user signal is present (ground truth).
    pub signal_present: bool,
    /// The SNR (dB) actually realised, `None` for noise-only observations.
    pub snr_db: Option<f64>,
    /// The cyclic frequency (in DFT bins of a `block_len`-point spectrum this
    /// corresponds to `block_len / samples_per_symbol`) at which the symbol
    ///-rate feature is expected, expressed in normalised frequency (cycles
    /// per sample).
    pub symbol_rate_normalised: f64,
}

impl SignalBuilder {
    /// Creates a builder for an observation of `len` samples.
    pub fn new(len: usize) -> Self {
        SignalBuilder {
            len,
            spec: ModulatedSignalSpec::default(),
            snr_db: Some(10.0),
            signal_present: true,
            noise_power: 1.0,
            seed: 0,
        }
    }

    /// Sets the modulation format (default BPSK).
    pub fn modulation(mut self, modulation: SymbolModulation) -> Self {
        self.spec.modulation = modulation;
        self
    }

    /// Sets the symbol length in samples (default 8).
    pub fn samples_per_symbol(mut self, samples: usize) -> Self {
        self.spec.samples_per_symbol = samples;
        self
    }

    /// Sets the carrier frequency in cycles/sample (default 0, baseband).
    pub fn carrier_frequency(mut self, normalised_frequency: f64) -> Self {
        self.spec.carrier_frequency = normalised_frequency;
        self.spec.sample_rate = 1.0;
        self
    }

    /// Sets the signal-to-noise ratio in dB (default 10 dB).
    pub fn snr_db(mut self, snr_db: f64) -> Self {
        self.snr_db = Some(snr_db);
        self
    }

    /// Makes the observation noise-only (hypothesis H0).
    pub fn noise_only(mut self) -> Self {
        self.signal_present = false;
        self
    }

    /// Sets the noise power (default 1.0).
    pub fn noise_power(mut self, power: f64) -> Self {
        self.noise_power = power;
        self
    }

    /// Sets the RNG seed (default 0); the same seed reproduces the same
    /// observation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the observation.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for nonsensical parameters
    /// (zero symbol length, non-finite SNR or noise power).
    pub fn build(&self) -> Result<Observation, DspError> {
        if !(self.noise_power.is_finite() && self.noise_power >= 0.0) {
            return Err(DspError::InvalidParameter {
                name: "noise_power",
                message: format!("must be non-negative and finite, got {}", self.noise_power),
            });
        }
        let noise = awgn(
            self.len,
            self.noise_power,
            self.seed.wrapping_add(0x9E37_79B9),
        );
        if !self.signal_present {
            return Ok(Observation {
                samples: noise,
                signal_present: false,
                snr_db: None,
                symbol_rate_normalised: 0.0,
            });
        }
        let snr_db = self.snr_db.unwrap_or(10.0);
        if !snr_db.is_finite() {
            return Err(DspError::InvalidParameter {
                name: "snr_db",
                message: format!("must be finite, got {snr_db}"),
            });
        }
        let target_signal_power = self.noise_power * 10f64.powf(snr_db / 10.0);
        let clean = modulated_signal(self.len, &self.spec, self.seed)?;
        let clean = normalise_power(&clean, target_signal_power);
        let samples: Vec<Cplx> = clean
            .iter()
            .zip(noise.iter())
            .map(|(&s, &w)| s + w)
            .collect();
        Ok(Observation {
            samples,
            signal_present: true,
            snr_db: Some(snr_db),
            symbol_rate_normalised: 1.0 / self.spec.samples_per_symbol as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_tone_has_unit_magnitude_and_right_frequency() {
        let n = 64;
        let tone = complex_tone(n, 4.0, 64.0, 0.0);
        assert_eq!(tone.len(), n);
        for &x in &tone {
            assert!((x.abs() - 1.0).abs() < 1e-12);
        }
        // One full cycle every 16 samples.
        assert!((tone[0] - tone[16]).abs() < 1e-12);
    }

    #[test]
    fn real_carrier_is_real() {
        let c = real_carrier(32, 3.0, 32.0, 0.5);
        assert!(c.iter().all(|x| x.im == 0.0));
        assert!(c.iter().any(|x| x.re < 0.0));
    }

    #[test]
    fn modulated_signal_is_reproducible_and_piecewise_constant() {
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let a = modulated_signal(64, &spec, 7).unwrap();
        let b = modulated_signal(64, &spec, 7).unwrap();
        assert_eq!(a, b);
        // Within a symbol the baseband BPSK signal is constant.
        for s in 0..16 {
            for k in 1..4 {
                assert_eq!(a[4 * s], a[4 * s + k]);
            }
        }
        // Different seeds give different symbol sequences (overwhelmingly likely).
        let c = modulated_signal(64, &spec, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn modulated_signal_rejects_bad_parameters() {
        let mut spec = ModulatedSignalSpec {
            samples_per_symbol: 0,
            ..Default::default()
        };
        assert!(modulated_signal(16, &spec, 0).is_err());
        spec.samples_per_symbol = 4;
        spec.sample_rate = 0.0;
        assert!(modulated_signal(16, &spec, 0).is_err());
        spec.sample_rate = 1.0;
        spec.amplitude = f64::NAN;
        assert!(modulated_signal(16, &spec, 0).is_err());
    }

    #[test]
    fn qpsk_and_ook_symbols_are_from_their_constellations() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let q = SymbolModulation::Qpsk.random_symbol(&mut rng);
            assert!((q.abs() - 1.0).abs() < 1e-12);
            let o = SymbolModulation::Ook.random_symbol(&mut rng);
            assert!(o == Cplx::ZERO || o == Cplx::ONE);
            let b = SymbolModulation::Bpsk.random_symbol(&mut rng);
            assert!(b == Cplx::ONE || b == -Cplx::ONE);
        }
    }

    #[test]
    fn awgn_power_matches_requested_variance() {
        let noise = awgn(100_000, 2.0, 11);
        let p = signal_power(&noise);
        assert!((p - 2.0).abs() < 0.1, "p = {p}");
        // Mean close to zero.
        let mean: Cplx = noise.iter().copied().sum::<Cplx>() / noise.len() as f64;
        assert!(mean.abs() < 0.05);
    }

    #[test]
    fn awgn_is_reproducible_per_seed() {
        assert_eq!(awgn(16, 1.0, 5), awgn(16, 1.0, 5));
        assert_ne!(awgn(16, 1.0, 5), awgn(16, 1.0, 6));
    }

    #[test]
    fn awgn_into_is_bitwise_equal_to_awgn() {
        let bits = |noise: &[Cplx]| -> Vec<(u64, u64)> {
            noise
                .iter()
                .map(|x| (x.re.to_bits(), x.im.to_bits()))
                .collect()
        };
        for len in [0usize, 1, 7, 2048] {
            for seed in [0u64, 1, 5, 0xDEAD_BEEF, u64::MAX] {
                for variance in [1.0, 2.5] {
                    // A dirty buffer: every sample must be overwritten.
                    let mut out = vec![Cplx::new(f64::NAN, 3.0); len];
                    awgn_into(&mut out, variance, seed);
                    assert_eq!(
                        bits(&out),
                        bits(&awgn(len, variance, seed)),
                        "len {len}, seed {seed}, variance {variance}"
                    );
                }
            }
        }
    }

    #[test]
    fn normalise_power_hits_target() {
        let tone = complex_tone(256, 3.0, 256.0, 0.0);
        let scaled = normalise_power(&tone, 0.25);
        assert!((signal_power(&scaled) - 0.25).abs() < 1e-12);
        // Zero signal is returned unchanged.
        let zeros = vec![Cplx::ZERO; 8];
        assert_eq!(normalise_power(&zeros, 1.0), zeros);
        assert_eq!(signal_power(&[]), 0.0);
    }

    #[test]
    fn builder_realises_requested_snr() {
        let obs = SignalBuilder::new(65_536)
            .snr_db(3.0)
            .noise_power(1.0)
            .seed(123)
            .build()
            .unwrap();
        assert!(obs.signal_present);
        // Total power should be close to noise (1.0) + signal (10^0.3 ≈ 2.0).
        let p = signal_power(&obs.samples);
        assert!((p - 3.0).abs() < 0.2, "p = {p}");
        assert!((obs.symbol_rate_normalised - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn builder_noise_only_has_no_signal() {
        let obs = SignalBuilder::new(8192)
            .noise_only()
            .seed(4)
            .build()
            .unwrap();
        assert!(!obs.signal_present);
        assert!(obs.snr_db.is_none());
        let p = signal_power(&obs.samples);
        assert!((p - 1.0).abs() < 0.1);
    }

    #[test]
    fn builder_rejects_invalid_inputs() {
        assert!(SignalBuilder::new(16).noise_power(-1.0).build().is_err());
        assert!(SignalBuilder::new(16)
            .snr_db(f64::INFINITY)
            .build()
            .is_err());
        assert!(SignalBuilder::new(16)
            .samples_per_symbol(0)
            .build()
            .is_err());
    }
}
