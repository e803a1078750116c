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
//! * [`SymbolModulation`] + [`modulated_signal`] / [`modulated_signal_into`]
//!   — BPSK/QPSK/AM pulse-train signals with a configurable symbol length,
//!   generated a symbol at a time,
//! * [`GaussianNoise`], [`awgn`], [`awgn_into`] — complex additive white
//!   Gaussian noise, and [`standard_normal`] for a single real draw,
//! * [`SignalBuilder`] — composes signal plus noise at a prescribed SNR.
//!
//! Every Gaussian draw comes from one 256-layer ziggurat (Marsaglia &
//! Tsang, "The Ziggurat Method for Generating Random Variables", J. Stat.
//! Softw. 5(8), 2000), with the layer index and the uniform taken from
//! disjoint bits of one 64-bit word (Doornik, "An Improved Ziggurat Method
//! to Generate Normal Random Samples", 2005). It is plain scalar code: no
//! SIMD-tier dispatch and no fused multiply-add, so a seeded realisation
//! does not depend on the host's vector tier. The platform `exp` and `ln`
//! are called only on the rare wedge and tail branches.

use crate::complex::Cplx;
use crate::error::DspError;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::f64::consts::PI;
use std::sync::OnceLock;

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

/// Generates a modulated pulse-train signal per `spec`: allocates the
/// result of [`modulated_signal_into`].
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
    let mut out = Vec::with_capacity(len);
    modulated_signal_into(&mut out, len, spec, seed)?;
    Ok(out)
}

/// Writes `len` samples of the pulse train of `spec` into `out` (resized
/// to `len`, its allocation reused).
///
/// The signal is generated a symbol at a time: symbol `i` is drawn from
/// `StdRng::seed_from_u64(seed)` when its run of `samples_per_symbol`
/// samples starts (the last run may end early at `len`), so the draws
/// come in the order of a per-sample `t / samples_per_symbol` walk. Every
/// sample is `symbol · carrier(t) · amplitude` with the carrier
/// `cis(2π·f_c·t/fs)`. A zero carrier's phase is the same signed zero at
/// every `t`, so a carrier-free spec evaluates one `cis` and one product
/// per symbol and fills its run with it: the per-sample expression, bit
/// for bit.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `samples_per_symbol` is zero or
/// the amplitude/sample-rate are not positive finite numbers. The
/// parameters are checked before anything is written, so `out` is
/// unchanged on error.
pub fn modulated_signal_into(
    out: &mut Vec<Cplx>,
    len: usize,
    spec: &ModulatedSignalSpec,
    seed: u64,
) -> Result<(), DspError> {
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
    let carrier =
        |t: usize| Cplx::cis(2.0 * PI * spec.carrier_frequency * t as f64 / spec.sample_rate);
    let baseband = (spec.carrier_frequency == 0.0).then(|| carrier(0));
    // Every sample is overwritten, so a reused buffer is only resized.
    out.resize(len, Cplx::ZERO);
    let runs = out.chunks_mut(spec.samples_per_symbol);
    for (start, run) in (0..).step_by(spec.samples_per_symbol).zip(runs) {
        let symbol = spec.modulation.random_symbol(&mut rng);
        match baseband {
            Some(baseband) => run.fill(symbol * baseband * spec.amplitude),
            None => {
                for (t, sample) in (start..).zip(run) {
                    *sample = symbol * carrier(t) * spec.amplitude;
                }
            }
        }
    }
    Ok(())
}

/// Generates complex additive white Gaussian noise with total (complex)
/// variance `variance` — i.e. each of the real and imaginary parts has
/// variance `variance / 2`. Allocates the result; [`awgn_into`] writes the
/// same samples into a caller buffer. The samples are the first `len`
/// items of [`GaussianNoise::new`]`(variance, seed)`: ziggurat draws (see
/// the module docs), so a realisation is the same on every SIMD tier.
///
/// # Panics
///
/// Panics if `variance` is negative or not finite.
pub fn awgn(len: usize, variance: f64, seed: u64) -> Vec<Cplx> {
    let mut noise = vec![Cplx::ZERO; len];
    awgn_into(&mut noise, variance, seed);
    noise
}

/// Fills `out` with the first `out.len()` samples of [`awgn`]`(_, variance,
/// seed)`, bit for bit, without allocating.
///
/// # Panics
///
/// Panics if `variance` is negative or not finite.
pub fn awgn_into(out: &mut [Cplx], variance: f64, seed: u64) {
    for (sample, noise) in out.iter_mut().zip(GaussianNoise::new(variance, seed)) {
        *sample = noise;
    }
}

/// An endless stream of complex Gaussian samples with total variance
/// `variance`, seeded by `seed`: the one noise source behind [`awgn`],
/// [`awgn_into`] and the channel overlays that add noise in place.
///
/// The real and imaginary parts of each sample are two successive
/// [`standard_normal`] draws from `StdRng::seed_from_u64(seed)`, scaled by
/// `sqrt(variance / 2)`.
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    rng: StdRng,
    std_dev: f64,
    tables: &'static ZigguratTables,
}

impl GaussianNoise {
    /// Creates the stream.
    ///
    /// # Panics
    ///
    /// Panics if `variance` is negative or not finite: a NaN or negative
    /// noise power is a caller bug, not a noiseless floor.
    pub fn new(variance: f64, seed: u64) -> Self {
        assert!(
            variance.is_finite() && variance >= 0.0,
            "noise variance must be finite and non-negative, got {variance}"
        );
        GaussianNoise {
            rng: StdRng::seed_from_u64(seed),
            std_dev: (variance / 2.0).sqrt(),
            tables: ziggurat_tables(),
        }
    }
}

impl Iterator for GaussianNoise {
    type Item = Cplx;

    #[inline]
    fn next(&mut self) -> Option<Cplx> {
        let re = ziggurat_normal(self.tables, &mut self.rng);
        let im = ziggurat_normal(self.tables, &mut self.rng);
        Some(Cplx::new(self.std_dev * re, self.std_dev * im))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Draws one standard normal (zero mean, unit variance) from `rng` with
/// the ziggurat of [`GaussianNoise`]. About 98.5% of draws return after
/// one `next_u64` and one multiply-compare; the rest take the wedge or
/// tail branch.
pub fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    ziggurat_normal(ziggurat_tables(), rng)
}

/// Number of ziggurat layers; the low 8 bits of a draw pick one.
const ZIGGURAT_LAYERS: usize = 256;
/// Where the base layer's rectangle ends and the tail begins.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// The area of every layer under `exp(-x²/2)`, the base layer's tail
/// included.
const ZIGGURAT_V: f64 = 0.004_928_673_233_99;

/// Layer edges `x[0] > x[1] = R > … > x[255] > x[256] = 0`, where `x[0] =
/// V / f(R)` is the base layer's virtual width, and the density `f(x) =
/// exp(-x²/2)` at each edge.
#[derive(Debug)]
struct ZigguratTables {
    x: [f64; ZIGGURAT_LAYERS + 1],
    f: [f64; ZIGGURAT_LAYERS + 1],
}

fn ziggurat_tables() -> &'static ZigguratTables {
    static TABLES: OnceLock<ZigguratTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = ZIGGURAT_V / density(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        // Each layer `[x[i+1], x[i]]` encloses area V: x[i]·(f(x[i+1]) −
        // f(x[i])) = V. The top layer closes on x[256] = 0.
        for i in 1..ZIGGURAT_LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIGGURAT_V / x[i] + density(x[i])).ln()).sqrt();
        }
        ZigguratTables {
            x,
            f: x.map(density),
        }
    })
}

/// The top 52 bits of `bits` as a uniform in the open interval (-1, 1),
/// symmetric about 0.
#[inline]
fn symmetric_uniform(bits: u64) -> f64 {
    ((bits >> 12) as f64 + 0.5) * (1.0 / (1u64 << 51) as f64) - 1.0
}

/// The top 52 bits of `bits` as a uniform in the open interval (0, 1).
#[inline]
fn open_unit(bits: u64) -> f64 {
    ((bits >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

/// One ziggurat draw: the low 8 bits of a word pick a layer, its top 52
/// bits a uniform point across it. A point inside the layer's core
/// rectangle is returned at once; a point in the wedge is accepted
/// against the density with one extra uniform; a point past `R` in the
/// base layer is replaced by a tail draw (Marsaglia's 1964 exponential
/// method).
#[inline]
fn ziggurat_normal<R: RngCore + ?Sized>(tables: &ZigguratTables, rng: &mut R) -> f64 {
    loop {
        let bits = rng.next_u64();
        let layer = (bits & 0xFF) as usize;
        let u = symmetric_uniform(bits);
        let x = u * tables.x[layer];
        if x.abs() < tables.x[layer + 1] {
            return x;
        }
        if layer == 0 {
            return normal_tail(rng, u < 0.0);
        }
        let (f_outer, f_inner) = (tables.f[layer], tables.f[layer + 1]);
        if f_outer + (f_inner - f_outer) * open_unit(rng.next_u64()) < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// A draw from the normal tail beyond `R` (negated if `negative`):
/// Marsaglia's method, with `x = ln(u₁)/R` and `y = ln(u₂)` until
/// `-2y ≥ x²`.
#[cold]
fn normal_tail<R: RngCore + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let x = open_unit(rng.next_u64()).ln() / ZIGGURAT_R;
        let y = open_unit(rng.next_u64()).ln();
        if -2.0 * y >= x * x {
            let magnitude = ZIGGURAT_R - x;
            return if negative { -magnitude } else { magnitude };
        }
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
    let mut scaled = signal.to_vec();
    normalise_power_in_place(&mut scaled, target_power);
    scaled
}

/// [`normalise_power`] in place: every sample becomes `x · gain` with
/// `gain = sqrt(target_power / power)`. A zero-power signal is left as it
/// is.
pub fn normalise_power_in_place(signal: &mut [Cplx], target_power: f64) {
    let p = signal_power(signal);
    if p == 0.0 {
        return;
    }
    let gain = (target_power / p).sqrt();
    for x in signal.iter_mut() {
        *x = *x * gain;
    }
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

    /// A zero carrier is hoisted out of the sample loop: the output keeps
    /// the bits of the per-sample `cis` expression for `+0.0`, `−0.0` (whose
    /// phase is `−0.0`, so the carrier is `1 − 0j`) and a non-zero carrier.
    #[test]
    fn modulated_signal_is_bitwise_equal_to_the_per_sample_carrier() {
        let bits = |x: &[Cplx]| -> Vec<(u64, u64)> {
            x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
        };
        for carrier_frequency in [0.0, -0.0, 0.13] {
            for modulation in [SymbolModulation::Bpsk, SymbolModulation::Qpsk] {
                let spec = ModulatedSignalSpec {
                    modulation,
                    samples_per_symbol: 3,
                    carrier_frequency,
                    amplitude: 0.7,
                    ..Default::default()
                };
                let got = modulated_signal(100, &spec, 21).unwrap();
                let mut rng = StdRng::seed_from_u64(21);
                let symbols: Vec<Cplx> = (0..34)
                    .map(|_| modulation.random_symbol(&mut rng))
                    .collect();
                let want: Vec<Cplx> = (0..100)
                    .map(|t| {
                        let phase = 2.0 * PI * carrier_frequency * t as f64 / spec.sample_rate;
                        symbols[t / 3] * Cplx::cis(phase) * spec.amplitude
                    })
                    .collect();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "carrier {carrier_frequency}, {modulation:?}"
                );
            }
        }
    }

    /// The symbol-rate walk against the per-sample definition it
    /// replaced: every symbol drawn up front, then each sample
    /// `symbols[t / samples_per_symbol] · carrier · amplitude` with the
    /// zero carrier hoisted. Bit for bit, over every constellation, symbol
    /// lengths that do and do not divide `len`, an empty signal, signed
    /// zero and non-zero carriers, and a dirty, longer reused buffer.
    #[test]
    fn symbol_rate_synthesis_matches_the_per_sample_definition() {
        let bits = |x: &[Cplx]| -> Vec<(u64, u64)> {
            x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
        };
        let per_sample = |len: usize, spec: &ModulatedSignalSpec, seed: u64| -> Vec<Cplx> {
            let mut rng = StdRng::seed_from_u64(seed);
            let symbols: Vec<Cplx> = (0..len.div_ceil(spec.samples_per_symbol))
                .map(|_| spec.modulation.random_symbol(&mut rng))
                .collect();
            let carrier = |t: usize| {
                Cplx::cis(2.0 * PI * spec.carrier_frequency * t as f64 / spec.sample_rate)
            };
            let baseband = (spec.carrier_frequency == 0.0).then(|| carrier(0));
            (0..len)
                .map(|t| {
                    let symbol = symbols[t / spec.samples_per_symbol];
                    symbol * baseband.unwrap_or_else(|| carrier(t)) * spec.amplitude
                })
                .collect()
        };
        let mut reused = vec![Cplx::new(f64::NAN, -7.0); 300];
        for modulation in [
            SymbolModulation::Bpsk,
            SymbolModulation::Qpsk,
            SymbolModulation::Ook,
        ] {
            for samples_per_symbol in [1, 3, 4, 8] {
                for carrier_frequency in [0.0, -0.0, 0.13] {
                    let spec = ModulatedSignalSpec {
                        modulation,
                        samples_per_symbol,
                        carrier_frequency,
                        amplitude: 0.5,
                        ..Default::default()
                    };
                    // 0, a whole number of symbols for 1 and 3, and one
                    // ending mid-symbol for 4 and 8 (and 3).
                    for len in [0, 99, 250] {
                        let case = format!("{modulation:?} sps {samples_per_symbol} f {carrier_frequency} len {len}");
                        let want = per_sample(len, &spec, 17);
                        let got = modulated_signal(len, &spec, 17).unwrap();
                        assert_eq!(bits(&got), bits(&want), "{case}");
                        modulated_signal_into(&mut reused, len, &spec, 17).unwrap();
                        assert_eq!(bits(&reused), bits(&want), "reused buffer, {case}");
                        reused.resize(300, Cplx::new(f64::NAN, -7.0));
                    }
                }
            }
        }
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
        let mut untouched = vec![Cplx::ONE; 3];
        assert!(modulated_signal_into(&mut untouched, 16, &spec, 0).is_err());
        assert_eq!(untouched, vec![Cplx::ONE; 3]);
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

    /// `count` standard-normal draws: the real and imaginary parts of
    /// unit-component-variance complex noise, in stream order.
    fn standard_draws(count: usize, seed: u64) -> impl Iterator<Item = f64> {
        GaussianNoise::new(2.0, seed)
            .take(count.div_ceil(2))
            .flat_map(|z| [z.re, z.im])
            .take(count)
    }

    /// The standard normal CDF, via the Chebyshev-fitted `erfc` of
    /// Numerical Recipes (fractional error below 1.2e-7).
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ]
        .iter()
        .rev()
        .fold(0.0, |acc, &c| c + t * acc);
        let erfc = t * (-z * z + poly).exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn ziggurat_layers_close_at_the_top() {
        let tables = ziggurat_tables();
        let top = ZIGGURAT_LAYERS - 1;
        assert_eq!(tables.x[ZIGGURAT_LAYERS], 0.0);
        assert_eq!(tables.x[1], ZIGGURAT_R);
        assert!(tables.x.windows(2).all(|pair| pair[0] > pair[1]));
        let top_area = tables.x[top] * (tables.f[top + 1] - tables.f[top]);
        assert!(
            (top_area - ZIGGURAT_V).abs() < 1e-9 * ZIGGURAT_V,
            "top layer area {top_area}, every layer should enclose {ZIGGURAT_V}"
        );
    }

    #[test]
    fn ziggurat_moments_match_the_standard_normal() {
        let n = 2_000_000;
        let (mut s1, mut s2, mut s4, mut lag1) = (0.0, 0.0, 0.0, 0.0);
        let mut previous = 0.0;
        for x in standard_draws(n, 0x2166) {
            let x2 = x * x;
            s1 += x;
            s2 += x2;
            s4 += x2 * x2;
            lag1 += previous * x;
            previous = x;
        }
        let mean = s1 / n as f64;
        let variance = s2 / n as f64 - mean * mean;
        let kurtosis = (s4 / n as f64) / (variance * variance);
        // Successive draws (so also a sample's real and imaginary parts)
        // are uncorrelated: sigma of this estimate is 1/sqrt(n) ≈ 7e-4.
        let serial = lag1 / n as f64;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((variance - 1.0).abs() < 0.01, "variance {variance}");
        assert!((kurtosis - 3.0).abs() < 0.05, "kurtosis {kurtosis}");
        assert!(serial.abs() < 0.005, "lag-1 correlation {serial}");
    }

    #[test]
    fn ziggurat_tail_mass_matches_the_normal_beyond_r() {
        let n = 4_000_000;
        let beyond = standard_draws(n, 0x7A11)
            .filter(|x| x.abs() > ZIGGURAT_R)
            .count();
        let expected = 2.0 * (1.0 - normal_cdf(ZIGGURAT_R)) * n as f64;
        assert!((expected / n as f64 - 2.58e-4).abs() < 1e-6);
        assert!(
            (beyond as f64 - expected).abs() < 0.2 * expected,
            "{beyond} draws beyond R, expected {expected:.0}"
        );
    }

    #[test]
    fn ziggurat_passes_a_chi_squared_test_against_the_normal_cdf() {
        // 40 bins of width 0.2 across [-4, 4] plus the two tails: 41
        // degrees of freedom, whose 0.999 quantile is about 74.8.
        let n = 2_000_000;
        let edges: Vec<f64> = (0..=40).map(|k| -4.0 + 0.2 * k as f64).collect();
        let mut counts = [0usize; 42];
        for x in standard_draws(n, 0xC41) {
            counts[edges.partition_point(|&edge| edge <= x)] += 1;
        }
        let mut cdf = vec![0.0];
        cdf.extend(edges.iter().map(|&edge| normal_cdf(edge)));
        cdf.push(1.0);
        let chi2: f64 = counts
            .iter()
            .zip(cdf.windows(2))
            .map(|(&count, bin)| {
                let expected = (bin[1] - bin[0]) * n as f64;
                (count as f64 - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 74.8, "chi-squared {chi2} over 41 degrees of freedom");
    }

    /// The realisation itself is pinned at its own layer: the first eight
    /// samples of `awgn(8, 2.0, 0x5EED)`, bit for bit.
    #[test]
    fn awgn_realisation_is_pinned() {
        const EXPECTED: [(u64, u64); 8] = [
            (0x3FF6_7C6B_A3D9_5EF0, 0x3FFE_51FA_1610_210B),
            (0x3FF7_1764_45D5_9885, 0x4009_37C6_C85F_58FE),
            (0x3FF1_B253_1C11_7A1C, 0x3FB2_8989_10A9_D00E),
            (0xBFDE_E859_6EB7_F8DF, 0xBFD9_970E_021A_499E),
            (0x3FCA_7389_3AA3_076C, 0x3FF2_A2BF_5EB7_4BA6),
            (0xC000_0BE5_696D_FA97, 0x3FE7_7F55_F6C4_D305),
            (0x3FCD_876C_C5DD_45AD, 0xBFF6_36DA_0C5F_AAE0),
            (0x3FDA_02E4_9A63_80D2, 0xBFEA_0DEC_EE3B_0498),
        ];
        let bits: Vec<(u64, u64)> = awgn(8, 2.0, 0x5EED)
            .iter()
            .map(|x| (x.re.to_bits(), x.im.to_bits()))
            .collect();
        assert_eq!(bits, EXPECTED);
    }

    #[test]
    #[should_panic(expected = "noise variance must be finite and non-negative")]
    fn awgn_into_refuses_a_nan_variance() {
        awgn_into(&mut [Cplx::ZERO; 4], f64::NAN, 1);
    }

    #[test]
    #[should_panic(expected = "noise variance must be finite and non-negative")]
    fn awgn_into_refuses_a_negative_variance() {
        awgn_into(&mut [Cplx::ZERO; 4], -1.0, 1);
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
