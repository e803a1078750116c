//! Property-based tests over the scenario engine: SNR accuracy of the AWGN
//! channel, seeded reproducibility of Monte-Carlo trials, monotonicity of
//! the energy detector's detection probability in SNR, bit-exact
//! equivalence of the parallel sweep engine with its serial reference and
//! of the sweep's trial-major draw with `observe`, and a golden pin of the
//! realisations themselves.

use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::ScfParams;
use cfd_dsp::signal::signal_power;
use cfd_scenario::prelude::*;
use proptest::prelude::*;

/// The IEEE-754 bits of every sample, so `-0.0`/`+0.0` and NaN payloads
/// count as different.
fn bits(samples: &[Cplx]) -> Vec<(u64, u64)> {
    samples
        .iter()
        .map(|x| (x.re.to_bits(), x.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The AWGN stage realises the requested SNR: a busy observation's
    /// power approaches `noise + noise * 10^(snr/10)` for long
    /// observations, for any SNR target and seed.
    #[test]
    fn awgn_channel_hits_requested_snr(snr_db in -5.0f64..10.0, seed in 0u64..1000) {
        let scenario = RadioScenario::preset("bpsk-awgn", 65_536)
            .expect("built-in preset")
            .with_seed(seed)
            .at_snr(snr_db);
        let h1 = scenario.observe(Hypothesis::Occupied, 0).unwrap();
        let expected = 1.0 + 10f64.powf(snr_db / 10.0);
        let measured = signal_power(&h1.samples);
        // 5% relative tolerance: the noise realisation contributes
        // O(1/sqrt(N)) fluctuation at N = 65536.
        prop_assert!(
            (measured - expected).abs() < 0.05 * expected,
            "snr {snr_db} dB: measured {measured}, expected {expected}"
        );
    }

    /// Trials are reproducible per (scenario, seed, trial) and independent
    /// across trials and seeds — for every preset.
    #[test]
    fn trials_reproduce_per_seed(seed in 0u64..1000, trial in 0usize..50) {
        for preset in RadioScenario::preset_names() {
            let scenario = RadioScenario::preset(preset, 256)
                .expect("built-in preset")
                .with_seed(seed);
            let a = scenario.observe(Hypothesis::Occupied, trial).unwrap();
            let b = scenario.observe(Hypothesis::Occupied, trial).unwrap();
            prop_assert_eq!(&a.samples, &b.samples, "preset {}", preset);
            let next_trial = scenario.observe(Hypothesis::Occupied, trial + 1).unwrap();
            prop_assert_ne!(&a.samples, &next_trial.samples, "preset {}", preset);
            let other_seed = scenario
                .with_seed(seed ^ 0xDEAD_BEEF)
                .observe(Hypothesis::Occupied, trial)
                .unwrap();
            prop_assert_ne!(&a.samples, &other_seed.samples, "preset {}", preset);
        }
    }

    /// Because SNR sweeps reuse the same noise realisations per trial
    /// (common random numbers), the energy detector's detection
    /// probability is monotone non-decreasing in SNR, up to one trial of
    /// slack: per trial the statistic is `g²·Σ|s|² + 2g·Re⟨s,w⟩ + Σ|w|²`,
    /// and a negative signal–noise cross term can make a single trial
    /// detect at a lower SNR but not a higher one.
    #[test]
    fn energy_detector_pd_is_monotone_in_snr(seed in 0u64..1000) {
        let len = 1024usize;
        let scenario = RadioScenario::preset("bpsk-awgn", len)
            .expect("built-in preset")
            .with_seed(seed);
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::linspace(-18.0, 6.0, 5, 30).unwrap())
            .backend(EnergyDetector::new(1.0, 0.05, len).unwrap())
            .run()
            .unwrap();
        let series = table.pd_series("energy");
        prop_assert_eq!(series.len(), 5);
        // Two trials of slack out of 30: each trial's negative cross term
        // can independently flip one adjacent-SNR comparison.
        let slack = 2.0 / 30.0 + 1e-12;
        for window in series.windows(2) {
            prop_assert!(
                window[1].1 >= window[0].1 - slack,
                "Pd dropped from {} (at {} dB) to {} (at {} dB)",
                window[0].1,
                window[0].0,
                window[1].1,
                window[1].0
            );
        }
        // The sweep spans chance to certainty.
        prop_assert!(series[4].1 > 0.9, "Pd at 6 dB = {}", series[4].1);
    }

    /// The sweep engine's trial-major draw is `observe`, bit for bit: for
    /// every preset — pre-AWGN stages (`qpsk-offset`'s carrier offset,
    /// `bpsk-two-ray`'s echo) and post-AWGN stages (impulsive noise, ADC,
    /// Rayleigh fading plus shadowing, the interferer) included — one draw
    /// of a trial, combined at each point of a random SNR list holding a
    /// duplicated point, equals `at_snr(snr).observe(Occupied, trial)`,
    /// and its vacant combine equals `observe(Vacant, trial)`. One draw
    /// buffer is reused across presets; a vacant-only draw reproduces H0
    /// too and refuses an H1 combine.
    #[test]
    fn trial_draw_matches_observe_for_every_preset(
        seed in 0u64..1000,
        trial in 0usize..64,
        snrs in prop::collection::vec(-20.0f64..20.0, 1..5),
        duplicate in 0usize..8,
    ) {
        let mut snrs = snrs;
        snrs.push(snrs[duplicate % snrs.len()]);
        let mut draw = TrialDraw::default();
        let mut samples = Vec::new();
        for preset in RadioScenario::preset_names() {
            let scenario = RadioScenario::preset(preset, 300)
                .expect("built-in preset")
                .with_seed(seed);
            scenario.draw_trial(Hypothesis::Occupied, trial, &mut draw).unwrap();
            for &snr in &snrs {
                let at_snr = scenario.at_snr(snr);
                at_snr.observe_drawn(&draw, Hypothesis::Occupied, &mut samples).unwrap();
                let observed = at_snr.observe(Hypothesis::Occupied, trial).unwrap();
                prop_assert_eq!(
                    bits(&samples),
                    bits(&observed.samples),
                    "preset {} at {} dB",
                    preset,
                    snr
                );
            }
            let vacant = bits(&scenario.observe(Hypothesis::Vacant, trial).unwrap().samples);
            scenario.observe_drawn(&draw, Hypothesis::Vacant, &mut samples).unwrap();
            prop_assert_eq!(&bits(&samples), &vacant, "preset {} vacant", preset);
            scenario.draw_trial(Hypothesis::Vacant, trial, &mut draw).unwrap();
            scenario.observe_drawn(&draw, Hypothesis::Vacant, &mut samples).unwrap();
            prop_assert_eq!(&bits(&samples), &vacant, "preset {} vacant-only", preset);
            prop_assert!(scenario
                .observe_drawn(&draw, Hypothesis::Occupied, &mut samples)
                .is_err());
        }
    }

    /// Determinism under common random numbers survives the thread pool:
    /// for every preset, any worker count and any base seed, the parallel
    /// sweep produces a `RocTable` identical to the serial reference —
    /// same rows, same Pd/Pfa, bit for bit.
    #[test]
    fn parallel_sweep_equals_serial_for_every_preset(
        seed in 0u64..1000,
        workers in 2usize..6,
    ) {
        let params = ScfParams::new(32, 7, 8).unwrap();
        let len = params.samples_needed();
        let sweep = SnrSweep::new(vec![-5.0, 5.0], 6).unwrap();
        for preset in RadioScenario::preset_names() {
            let scenario = RadioScenario::preset(preset, len)
                .expect("built-in preset")
                .with_seed(seed);
            let run = |workers: usize| {
                SweepBuilder::new(&scenario)
                    .sweep(sweep.clone())
                    .backend(EnergyDetector::new(1.0, 0.1, len).unwrap())
                    .backend(CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap())
                    .workers(workers)
                    .run()
                    .unwrap()
            };
            prop_assert_eq!(
                &run(1),
                &run(workers),
                "preset {} diverged with {} workers",
                preset,
                workers
            );
        }
    }
}

/// FNV-1a over the IEEE-754 bits of every sample, real part first.
fn fingerprint(samples: &[Cplx]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for (re, im) in bits(samples) {
        for word in [re, im] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    hash
}

/// The noise and signal realisations behind every seeded table in the
/// repository, pinned bit for bit: for each preset, H0 and H1 at −8 dB and
/// +3 dB over trials 0–3 at seed 0x5EED, one fingerprint per
/// `(preset, condition)` folding the four trials in order. A change to any
/// generator, seed derivation or channel stage moves a fingerprint; such a
/// change must re-pin this table explicitly.
#[test]
fn observe_realisations_are_pinned() {
    const EXPECTED: [(&str, [u64; 3]); 8] = [
        (
            "bpsk-awgn",
            [
                0xD89E_7357_04DE_4941,
                0xE818_226D_5F11_8BDE,
                0x1581_6654_F2D9_FEA4,
            ],
        ),
        (
            "qpsk-offset",
            [
                0x6AE4_4F9C_B459_867C,
                0x3025_0965_8D5D_9527,
                0x44F7_8321_BFB9_9F0C,
            ],
        ),
        (
            "bpsk-two-ray",
            [
                0x6AE4_4F9C_B459_867C,
                0xFA59_4CAB_A06D_0434,
                0x002A_C462_C5B4_75A1,
            ],
        ),
        (
            "ofdm-pilot",
            [
                0xD89E_7357_04DE_4941,
                0x75F6_375F_F156_B31A,
                0x05A7_60AD_527E_AE49,
            ],
        ),
        (
            "bpsk-adc",
            [
                0x0E94_542A_CDCA_89B1,
                0x1AED_13AD_6745_9886,
                0x7800_E8FE_5EA2_5FA3,
            ],
        ),
        (
            "bpsk-impulsive",
            [
                0x9743_AE6E_52AB_C1A7,
                0x0624_4897_43BA_EBCC,
                0x1F17_A593_AECA_6A61,
            ],
        ),
        (
            "bpsk-rayleigh-shadowed",
            [
                0xF0EF_A999_F085_D5DC,
                0xDCD0_C983_6BB4_E598,
                0xC39D_D268_F613_C538,
            ],
        ),
        (
            "ofdm-adjacent-interferer",
            [
                0xCB6E_3E3B_6665_A8BB,
                0x0459_EF6A_DA54_1826,
                0x2328_E7D5_994B_0CE1,
            ],
        ),
    ];
    assert_eq!(
        EXPECTED.map(|(name, _)| name).as_slice(),
        RadioScenario::preset_names()
    );
    let measured = EXPECTED.map(|(name, _)| {
        let scenario = RadioScenario::preset(name, 300)
            .expect("built-in preset")
            .with_seed(0x5EED);
        let fold = |source: &RadioScenario, hypothesis: Hypothesis| {
            (0..4).fold(0u64, |acc, trial| {
                let samples = source.observe(hypothesis, trial).unwrap().samples;
                acc.rotate_left(17) ^ fingerprint(&samples)
            })
        };
        (
            name,
            [
                fold(&scenario, Hypothesis::Vacant),
                fold(&scenario.at_snr(-8.0), Hypothesis::Occupied),
                fold(&scenario.at_snr(3.0), Hypothesis::Occupied),
            ],
        )
    });
    assert_eq!(measured, EXPECTED, "measured: {measured:#018x?}");
}
