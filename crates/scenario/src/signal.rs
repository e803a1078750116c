//! Licensed-user signal models with genuine cyclostationary signatures.
//!
//! The detectors in `cfd-dsp` exploit the hidden periodicities of digitally
//! modulated signals; this module generates the signals a cognitive radio
//! would actually meet in a band:
//!
//! * [`SignalModel::Vacant`] — hypothesis H0, nothing transmitted;
//! * [`SignalModel::Linear`] — BPSK/QPSK/OOK pulse trains with configurable
//!   symbol rate and carrier offset (cyclic frequency = symbol rate);
//! * [`SignalModel::OfdmPilot`] — an OFDM-like multicarrier signal with a
//!   cyclic prefix and fixed pilot subcarriers, whose repetition structure
//!   produces features at the OFDM symbol rate.
//!
//! All models generate unit average power; the channel pipeline
//! ([`crate::channel`]) is responsible for scaling, impairments and noise.

use crate::error::ScenarioError;
use cfd_dsp::complex::Cplx;
use cfd_dsp::fft::ifft;
use cfd_dsp::signal::{
    modulated_signal_into, normalise_power_in_place, ModulatedSignalSpec, SymbolModulation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A model of what the licensed user transmits.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SignalModel {
    /// Nothing is transmitted (hypothesis H0); the observation is whatever
    /// the channel adds.
    Vacant,
    /// A linearly modulated pulse train.
    Linear {
        /// Constellation of the symbols.
        modulation: SymbolModulation,
        /// Symbol length in samples — the cyclic period of the signal.
        samples_per_symbol: usize,
        /// Carrier offset in cycles/sample (0 = baseband).
        carrier_offset: f64,
    },
    /// An OFDM-like multicarrier signal: QPSK data subcarriers, fixed
    /// pilots every `pilot_spacing`-th subcarrier, and a cyclic prefix.
    OfdmPilot {
        /// Number of subcarriers (must be a power of two for the IFFT).
        subcarriers: usize,
        /// Cyclic-prefix length in samples (must be smaller than
        /// `subcarriers`).
        cyclic_prefix: usize,
        /// A pilot sits on every `pilot_spacing`-th subcarrier.
        pilot_spacing: usize,
    },
}

impl SignalModel {
    /// A baseband BPSK licensed user with the repo-wide default symbol
    /// length of 4 samples.
    pub fn bpsk() -> Self {
        SignalModel::Linear {
            modulation: SymbolModulation::Bpsk,
            samples_per_symbol: 4,
            carrier_offset: 0.0,
        }
    }

    /// A QPSK licensed user with the default symbol length.
    pub fn qpsk() -> Self {
        SignalModel::Linear {
            modulation: SymbolModulation::Qpsk,
            samples_per_symbol: 4,
            carrier_offset: 0.0,
        }
    }

    /// Whether this model transmits anything (ground truth for H1).
    pub fn is_present(&self) -> bool {
        !matches!(self, SignalModel::Vacant)
    }

    /// The cyclic frequency (cycles/sample) at which the strongest
    /// symbol-rate feature is expected, or 0 for a vacant band.
    pub fn symbol_rate_normalised(&self) -> f64 {
        match self {
            SignalModel::Vacant => 0.0,
            SignalModel::Linear {
                samples_per_symbol, ..
            } => 1.0 / (*samples_per_symbol).max(1) as f64,
            SignalModel::OfdmPilot {
                subcarriers,
                cyclic_prefix,
                ..
            } => 1.0 / (subcarriers + cyclic_prefix).max(1) as f64,
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for zero symbol lengths,
    /// non-power-of-two subcarrier counts, oversized cyclic prefixes or a
    /// pilot spacing that leaves no pilots.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            SignalModel::Vacant => Ok(()),
            SignalModel::Linear {
                samples_per_symbol,
                carrier_offset,
                ..
            } => {
                if *samples_per_symbol == 0 {
                    return Err(ScenarioError::InvalidParameter {
                        name: "samples_per_symbol",
                        message: "must be at least 1".into(),
                    });
                }
                if !carrier_offset.is_finite() {
                    return Err(ScenarioError::InvalidParameter {
                        name: "carrier_offset",
                        message: format!("must be finite, got {carrier_offset}"),
                    });
                }
                Ok(())
            }
            SignalModel::OfdmPilot {
                subcarriers,
                cyclic_prefix,
                pilot_spacing,
            } => {
                if *subcarriers < 4 || !subcarriers.is_power_of_two() {
                    return Err(ScenarioError::InvalidParameter {
                        name: "subcarriers",
                        message: format!("must be a power of two >= 4, got {subcarriers}"),
                    });
                }
                if cyclic_prefix >= subcarriers {
                    return Err(ScenarioError::InvalidParameter {
                        name: "cyclic_prefix",
                        message: format!(
                            "must be shorter than the {subcarriers} subcarriers, got {cyclic_prefix}"
                        ),
                    });
                }
                if *pilot_spacing == 0 || pilot_spacing >= subcarriers {
                    return Err(ScenarioError::InvalidParameter {
                        name: "pilot_spacing",
                        message: format!("must be in 1..{subcarriers}, got {pilot_spacing}"),
                    });
                }
                Ok(())
            }
        }
    }

    /// Generates `len` samples of the clean (noiseless) signal at unit
    /// average power. The same `seed` reproduces the same waveform.
    /// Allocates the result of [`SignalModel::generate_into`].
    ///
    /// # Errors
    ///
    /// Propagates [`SignalModel::validate`] failures.
    pub fn generate(&self, len: usize, seed: u64) -> Result<Vec<Cplx>, ScenarioError> {
        let mut samples = Vec::with_capacity(len);
        self.generate_into(&mut samples, len, seed)?;
        Ok(samples)
    }

    /// Writes [`SignalModel::generate`]'s `len` samples into `out`,
    /// reusing its allocation: a linear model is synthesised a symbol at a
    /// time ([`modulated_signal_into`]) and normalised to unit power in
    /// place ([`normalise_power_in_place`]), so a trial loop that keeps
    /// its buffer allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`SignalModel::validate`] failures. The model is
    /// validated before anything is written, so `out` is unchanged on
    /// error.
    pub fn generate_into(
        &self,
        out: &mut Vec<Cplx>,
        len: usize,
        seed: u64,
    ) -> Result<(), ScenarioError> {
        self.validate()?;
        match self {
            SignalModel::Vacant => {
                out.clear();
                out.resize(len, Cplx::ZERO);
            }
            SignalModel::Linear {
                modulation,
                samples_per_symbol,
                carrier_offset,
            } => {
                let spec = ModulatedSignalSpec {
                    modulation: *modulation,
                    samples_per_symbol: *samples_per_symbol,
                    carrier_frequency: *carrier_offset,
                    sample_rate: 1.0,
                    amplitude: 1.0,
                };
                modulated_signal_into(out, len, &spec, seed)?;
                normalise_power_in_place(out, 1.0);
            }
            SignalModel::OfdmPilot {
                subcarriers,
                cyclic_prefix,
                pilot_spacing,
            } => {
                ofdm_pilot_signal(out, len, *subcarriers, *cyclic_prefix, *pilot_spacing, seed)?;
                normalise_power_in_place(out, 1.0);
            }
        }
        Ok(())
    }
}

/// Writes an OFDM-like signal of `len` samples into `samples`: per OFDM
/// symbol, QPSK data subcarriers with a fixed unit pilot on every
/// `pilot_spacing`-th subcarrier, converted to time domain and extended
/// with a cyclic prefix.
fn ofdm_pilot_signal(
    samples: &mut Vec<Cplx>,
    len: usize,
    subcarriers: usize,
    cyclic_prefix: usize,
    pilot_spacing: usize,
    seed: u64,
) -> Result<(), ScenarioError> {
    let mut rng = StdRng::seed_from_u64(seed);
    samples.clear();
    while samples.len() < len {
        let freq: Vec<Cplx> = (0..subcarriers)
            .map(|k| {
                if k % pilot_spacing == 0 {
                    // Fixed pilot: identical in every OFDM symbol, the
                    // backbone of the cyclostationary signature.
                    Cplx::ONE
                } else {
                    SymbolModulation::Qpsk.random_symbol(&mut rng)
                }
            })
            .collect();
        let time = ifft(&freq)?;
        // Cyclic prefix: the tail of the symbol repeated in front.
        samples.extend_from_slice(&time[subcarriers - cyclic_prefix..]);
        samples.extend_from_slice(&time);
    }
    samples.truncate(len);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::signal::signal_power;

    #[test]
    fn vacant_band_is_silent() {
        let s = SignalModel::Vacant.generate(64, 1).unwrap();
        assert!(s.iter().all(|&x| x == Cplx::ZERO));
        assert!(!SignalModel::Vacant.is_present());
        assert_eq!(SignalModel::Vacant.symbol_rate_normalised(), 0.0);
    }

    #[test]
    fn linear_models_have_unit_power_and_reproduce() {
        for model in [SignalModel::bpsk(), SignalModel::qpsk()] {
            let a = model.generate(4096, 7).unwrap();
            let b = model.generate(4096, 7).unwrap();
            assert_eq!(a, b);
            assert!((signal_power(&a) - 1.0).abs() < 1e-9);
            assert!(model.is_present());
            assert!((model.symbol_rate_normalised() - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn carrier_offset_rotates_the_signal() {
        let baseband = SignalModel::bpsk().generate(256, 3).unwrap();
        let offset = SignalModel::Linear {
            modulation: SymbolModulation::Bpsk,
            samples_per_symbol: 4,
            carrier_offset: 0.1,
        }
        .generate(256, 3)
        .unwrap();
        assert_ne!(baseband, offset);
        // Same magnitude envelope, rotated phase.
        for (a, b) in baseband.iter().zip(offset.iter()) {
            assert!((a.abs() - b.abs()).abs() < 1e-9);
        }
    }

    #[test]
    fn ofdm_pilot_has_unit_power_and_cyclic_prefix_structure() {
        let model = SignalModel::OfdmPilot {
            subcarriers: 16,
            cyclic_prefix: 4,
            pilot_spacing: 4,
        };
        let s = model.generate(400, 11).unwrap();
        assert_eq!(s.len(), 400);
        assert!((signal_power(&s) - 1.0).abs() < 1e-9);
        // The first 4 samples repeat the symbol tail: s[0..4] == s[16..20].
        for t in 0..4 {
            assert!((s[t] - s[t + 16]).abs() < 1e-9);
        }
        assert!((model.symbol_rate_normalised() - 1.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(SignalModel::Linear {
            modulation: SymbolModulation::Bpsk,
            samples_per_symbol: 0,
            carrier_offset: 0.0,
        }
        .validate()
        .is_err());
        assert!(SignalModel::Linear {
            modulation: SymbolModulation::Bpsk,
            samples_per_symbol: 4,
            carrier_offset: f64::NAN,
        }
        .validate()
        .is_err());
        assert!(SignalModel::OfdmPilot {
            subcarriers: 12,
            cyclic_prefix: 2,
            pilot_spacing: 4,
        }
        .validate()
        .is_err());
        assert!(SignalModel::OfdmPilot {
            subcarriers: 16,
            cyclic_prefix: 16,
            pilot_spacing: 4,
        }
        .validate()
        .is_err());
        assert!(SignalModel::OfdmPilot {
            subcarriers: 16,
            cyclic_prefix: 4,
            pilot_spacing: 0,
        }
        .validate()
        .is_err());
    }
}
