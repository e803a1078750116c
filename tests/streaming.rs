//! Pins the incremental sliding-window DSCF (PR 8) against the batch
//! engine:
//!
//! * **per-hop parity** — over random `fft_len × max_offset × window ×
//!   hop × refresh-interval` geometries (including `hop == block`,
//!   `hop < block` overlap and the `window == 1` edge), every matrix a
//!   [`StreamingSensor`] installs is within 1e-12 of the batch
//!   [`ScfEngine`] over exactly the same window of samples, and
//!   **bitwise** equal on exact-refresh hops (`hop index % R == 0`);
//! * **decision identity** — a [`CyclostationaryDetector`] driven through
//!   `StreamingSensor` produces the same statistic as the same detector
//!   deciding batchwise on the same windows (bit-identical at refresh
//!   hops), and an [`EnergyDetector`] — which never looks at the DSCF —
//!   decides bit-identically at every hop;
//! * **adaptive materialisation** — the sensor finalises the full matrix
//!   only for backends that actually read it; profile-deciding backends
//!   drop to the O(grid/2) fast path after the first decision;
//! * **non-finite input** — a hop holding a NaN or infinite sample is
//!   refused before it reaches the sensor state, and the clean hops after
//!   it decide bit-identically to a sensor that never saw it.

use cfd_core::backend::{Decision, Observation, SensingBackend};
use cfd_core::error::CfdError;
use cfd_core::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::{ScfEngine, ScfMatrix, ScfParams};
use cfd_dsp::signal::{awgn, SignalBuilder, SymbolModulation};
use proptest::prelude::*;

/// A backend that captures each hop's window samples and installed DSCF,
/// so the streamed matrices can be checked against batch recomputation.
struct MatrixProbe {
    engine: ScfEngine,
    captured: Vec<(Vec<Cplx>, ScfMatrix)>,
}

impl MatrixProbe {
    fn new(params: ScfParams) -> Self {
        MatrixProbe {
            engine: ScfEngine::new(params).unwrap(),
            captured: Vec::new(),
        }
    }
}

impl SensingBackend for MatrixProbe {
    fn label(&self) -> String {
        "matrix-probe".into()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let samples = observation.samples().to_vec();
        let scf = observation.scf_for(&self.engine)?.clone();
        self.captured.push((samples, scf));
        Ok(Decision::new(0.0, 1.0))
    }
}

/// Builds a probing sensor, streams `signal` through it and returns the
/// per-hop captures.
fn stream_captures(
    params: &ScfParams,
    refresh: usize,
    signal: &[Cplx],
) -> Vec<(Vec<Cplx>, ScfMatrix)> {
    let config = StreamingConfig::new(params.clone()).with_refresh_interval(refresh);
    let mut sensor = StreamingSensor::new(config, MatrixProbe::new(params.clone())).unwrap();
    sensor.push(signal).unwrap();
    let hops = sensor.decisions_emitted();
    assert_eq!(
        sensor.incremental_hops() + sensor.exact_refreshes(),
        hops,
        "every decision is either incremental or an exact refresh"
    );
    let expected_refreshes = (0..hops).filter(|d| d % refresh as u64 == 0).count() as u64;
    assert_eq!(sensor.exact_refreshes(), expected_refreshes);
    let captured = std::mem::take(&mut sensor.backend_mut().captured);
    assert_eq!(captured.len() as u64, hops);
    captured
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every streamed matrix vs the batch engine over the same window:
    /// ≤ 1e-12 on rolling hops (the fused slide retire), bitwise on
    /// exact-refresh hops.
    #[test]
    fn streaming_matches_batch_at_every_hop(
        seed in 0u64..1000,
        fft_pow in 4u32..7,
        offset_raw in 1usize..1000,
        window in 1usize..10,
        hop_raw in 1usize..1000,
        refresh in 1usize..9,
    ) {
        let fft_len = 1usize << fft_pow;
        let max_offset = 1 + offset_raw % (fft_len / 2 - 1);
        let hop = 1 + hop_raw % fft_len; // covers hop < block and hop == block
        let params = ScfParams::new(fft_len, max_offset, window)
            .unwrap()
            .with_stride(hop);
        // Enough stream for two full refresh cycles plus change.
        let decisions = 2 * refresh + 3;
        let blocks = window + decisions - 1;
        let signal = awgn((blocks - 1) * hop + fft_len, 1.0, seed);
        let engine = ScfEngine::new(params.clone()).unwrap();
        let mut batch = ScfMatrix::zeros(max_offset);

        let captures = stream_captures(&params, refresh, &signal);
        prop_assert_eq!(captures.len(), decisions);
        for (d, (samples, streamed)) in captures.iter().enumerate() {
            // The installed window is exactly the d-th hop's samples.
            let expected = &signal[d * hop..d * hop + params.samples_needed()];
            prop_assert_eq!(samples.as_slice(), expected);
            engine.compute_into(expected, &mut batch).unwrap();
            if d % refresh == 0 {
                prop_assert_eq!(
                    streamed.as_slice(), batch.as_slice(),
                    "refresh hop {} must be bitwise", d
                );
            } else {
                let drift = streamed.max_abs_difference(&batch);
                prop_assert!(drift <= 1e-12, "hop {d}: drift {drift:e} exceeds 1e-12");
            }
        }
    }

    /// A CFD backend streamed hop-by-hop decides like the same backend
    /// deciding batchwise on each window: bit-identical statistic at
    /// refresh hops, ≤ 1e-9 in between, and the verdict agrees whenever
    /// the statistic is not within drift of the threshold.
    #[test]
    fn streaming_decisions_match_the_batch_detector(
        seed in 0u64..1000,
        fft_pow in 4u32..7,
        offset_raw in 1usize..1000,
        window in 2usize..9,
        hop_raw in 1usize..1000,
        refresh in 1usize..7,
    ) {
        let fft_len = 1usize << fft_pow;
        let max_offset = 2 + offset_raw % (fft_len / 2 - 2);
        let hop = 1 + hop_raw % fft_len;
        let params = ScfParams::new(fft_len, max_offset, window)
            .unwrap()
            .with_stride(hop);
        let threshold = 0.35;
        let decisions = 2 * refresh + 2;
        let blocks = window + decisions - 1;
        let signal = awgn((blocks - 1) * hop + fft_len, 1.0, seed);

        let config = StreamingConfig::new(params.clone()).with_refresh_interval(refresh);
        let cfd = CyclostationaryDetector::new(params.clone(), threshold, 1).unwrap();
        let mut sensor = StreamingSensor::new(config, cfd).unwrap();
        let streamed = sensor.push(&signal).unwrap();
        prop_assert_eq!(streamed.len(), decisions);

        let mut batch_backend =
            CyclostationaryDetector::new(params.clone(), threshold, 1).unwrap();
        let mut observation = Observation::new();
        for (d, decision) in streamed.iter().enumerate() {
            let win = &signal[d * hop..d * hop + params.samples_needed()];
            observation.load(win);
            let batch = batch_backend.decide(&mut observation).unwrap();
            prop_assert_eq!(decision.threshold, batch.threshold);
            if d % refresh == 0 {
                prop_assert_eq!(
                    decision.statistic.to_bits(), batch.statistic.to_bits(),
                    "refresh hop {} statistic must be bit-identical", d
                );
                prop_assert_eq!(decision.verdict, batch.verdict);
            } else {
                let drift = (decision.statistic - batch.statistic).abs();
                prop_assert!(
                    drift <= 1e-9,
                    "hop {d}: statistic drift {drift:e}"
                );
                if (batch.statistic - threshold).abs() > 1e-6 {
                    prop_assert_eq!(decision.verdict, batch.verdict);
                }
            }
        }
    }
}

/// The sensor materialises the full matrix only while its backend reads
/// it: a matrix-probing backend keeps the flag on, the stock CFD detector
/// (deciding from the installed profile) drops it after the first
/// decision, and a reset restores the conservative default.
#[test]
fn matrix_materialization_adapts_to_the_backend() {
    let params = ScfParams::new(32, 7, 4).unwrap();
    // 6 blocks at the back-to-back stride -> 3 decisions.
    let signal = awgn(6 * 32, 1.0, 5);
    let config = StreamingConfig::new(params.clone()).with_refresh_interval(usize::MAX);

    let mut probing =
        StreamingSensor::new(config.clone(), MatrixProbe::new(params.clone())).unwrap();
    assert!(probing.materializes_matrix());
    probing.push(&signal).unwrap();
    assert_eq!(probing.decisions_emitted(), 3);
    assert!(
        probing.materializes_matrix(),
        "a matrix-reading backend keeps materialisation on"
    );

    let cfd = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let mut sensor = StreamingSensor::new(config, cfd).unwrap();
    assert!(sensor.materializes_matrix());
    sensor.push(&signal).unwrap();
    assert_eq!(sensor.decisions_emitted(), 3);
    assert!(
        !sensor.materializes_matrix(),
        "a profile-deciding backend drops to the fast path"
    );
    sensor.reset();
    assert!(sensor.materializes_matrix());
}

/// An energy detector never reads the DSCF — through the streaming
/// surface it must decide bit-identically to batch at every hop, refresh
/// or not (the installed window samples are verbatim).
#[test]
fn energy_decisions_are_identical_through_the_stream() {
    let params = ScfParams::new(32, 7, 8).unwrap().with_stride(24);
    let len = params.samples_needed();
    // 12 blocks at stride 24 with window 8 -> 5 decisions.
    let signal = awgn(11 * 24 + 32, 1.0, 17);
    let energy = EnergyDetector::new(1.0, 0.1, len).unwrap();
    let config = StreamingConfig::new(params.clone()).with_refresh_interval(4);
    let mut sensor = StreamingSensor::new(config, energy.clone()).unwrap();
    let streamed = sensor.push(&signal).unwrap();
    assert_eq!(streamed.len(), 5);

    let mut batch_backend = energy;
    let mut observation = Observation::new();
    for (d, decision) in streamed.iter().enumerate() {
        observation.load(&signal[d * 24..d * 24 + len]);
        let batch = batch_backend.decide(&mut observation).unwrap();
        assert_eq!(decision, &batch, "hop {d}");
    }
}

/// A hop holding a NaN or infinite sample is refused at the boundary with
/// a structured error before it reaches the tape: the sensor state is left
/// untouched, so the clean hops that follow decide bit-identically to a
/// sensor that never saw the bad hop (before, one NaN poisoned the rolling
/// accumulator until the next exact refresh). Under a `SensingScheduler`
/// the same error quarantines the channel through the ordinary error path.
#[test]
fn non_finite_hops_are_refused_without_touching_the_stream() {
    let params = ScfParams::new(32, 7, 4).unwrap();
    // A refresh interval past the run keeps every later hop incremental:
    // the rolling accumulator is what a poisoned hop would have hit.
    let config = StreamingConfig::new(params.clone()).with_refresh_interval(1000);
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let hops: Vec<Vec<Cplx>> = (0..10).map(|seed| awgn(32, 1.0, 40 + seed)).collect();

    let mut clean = StreamingSensor::new(config.clone(), detector.clone()).unwrap();
    let mut guarded = StreamingSensor::new(config.clone(), detector.clone()).unwrap();
    let mut expected = Vec::new();
    let mut got = Vec::new();
    for (i, hop) in hops.iter().enumerate() {
        if i == 5 {
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bad = hop.clone();
                bad[17] = Cplx::new(0.0, poison);
                let before = guarded.blocks_ingested();
                assert_eq!(
                    guarded.push_into(&bad, &mut got),
                    Err(CfdError::NonFiniteSample { index: 17 })
                );
                assert_eq!(guarded.blocks_ingested(), before);
            }
        }
        clean.push_into(hop, &mut expected).unwrap();
        guarded.push_into(hop, &mut got).unwrap();
    }
    assert_eq!(got.len(), 7);
    assert_eq!(guarded.incremental_hops(), 6);
    for (hop, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g.statistic.to_bits(), e.statistic.to_bits(), "hop {hop}");
        assert_eq!(g.verdict, e.verdict, "hop {hop}");
    }

    // Scheduled: the bad hop quarantines its channel; the other channel
    // keeps deciding.
    let log = cfd_core::service::DecisionLog::new();
    let mut builder = cfd_core::SensingScheduler::builder(cfd_core::ServiceConfig::new(1));
    for channel in 0..2u64 {
        builder = builder.subscribe(cfd_core::ChannelSubscription::new(
            channel,
            config.clone(),
            detector.clone(),
            log.clone(),
        ));
    }
    let scheduler = builder.spawn().unwrap();
    let mut bad = hops[0].clone();
    bad[3] = Cplx::new(f64::NAN, 0.0);
    scheduler.push(0, &bad).unwrap();
    for hop in &hops {
        scheduler.push(0, hop).unwrap();
        scheduler.push(1, hop).unwrap();
    }
    assert_eq!(
        scheduler.join(),
        Err(CfdError::NonFiniteSample { index: 3 })
    );
    assert_eq!(log.len(), 7, "only the clean channel decides");
}

/// FNV-1a over the bits of every decision's statistic, in order.
fn statistic_hash(decisions: &[Decision]) -> u64 {
    decisions
        .iter()
        .flat_map(|decision| decision.statistic.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The streamed statistics of the service geometry (64-point FFT, ±15,
/// 32 blocks, a refresh every 64 hops) are pinned bit for
/// bit: 300 decisions over a BPSK burst in noise, fed one hop per push,
/// hash to a recorded value. It was first recorded before the incremental
/// hop was fused, re-recorded when the noise moved to the ziggurat
/// generator with the DSCF, FFT and streaming code unchanged, and again
/// when the FFT became radix-4 with the noise, DSCF and streaming code
/// unchanged. Any change to the per-hop arithmetic — FFT, retire, add,
/// profile fold, phase frames — moves the hash.
#[test]
fn streamed_statistics_are_pinned() {
    let params = ScfParams::new(64, 15, 32).unwrap();
    let config = StreamingConfig::new(params.clone()).with_refresh_interval(64);
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let mut sensor = StreamingSensor::new(config, detector).unwrap();
    let decisions = 300;
    let blocks = params.num_blocks + decisions - 1;
    let signal = SignalBuilder::new(blocks * params.block_stride)
        .modulation(SymbolModulation::Bpsk)
        .samples_per_symbol(4)
        .snr_db(-3.0)
        .seed(0x5E4F)
        .build()
        .unwrap()
        .samples;
    let mut streamed = Vec::new();
    for hop in signal.chunks(params.block_stride) {
        sensor.push_into(hop, &mut streamed).unwrap();
    }
    assert_eq!(streamed.len(), decisions);
    assert_eq!(sensor.exact_refreshes(), 5);
    assert_eq!(statistic_hash(&streamed), 0x2ed7_36ab_e351_0f78);
}

/// A backend that captures what it reads on every hop: the observation's
/// samples and the block spectra computed from them.
struct WindowProbe {
    engine: ScfEngine,
    captured: Vec<(Vec<Cplx>, Vec<Vec<Cplx>>)>,
}

impl SensingBackend for WindowProbe {
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let samples = observation.samples().to_vec();
        let spectra = observation.spectra_for(&self.engine)?.to_vec();
        self.captured.push((samples, spectra));
        Ok(Decision::new(0.0, 1.0))
    }
}

/// The window a streamed decision presents is a view of the sensor's
/// sample tape, not a copy, so it must survive everything the tape does
/// between hops: pushes of 1, 7, one hop and three hops plus 5 samples
/// (which cross many tape compactions), a `park` mid-window and a `reset`
/// mid-window. On every hop the backend's samples equal the batch window
/// verbatim and the spectra it computes from them are bit-equal to
/// `compute_spectra` on that window.
#[test]
fn window_view_survives_ragged_pushes() {
    let params = ScfParams::new(32, 7, 4).unwrap().with_stride(24);
    let hop = params.block_stride;
    let needed = params.samples_needed();
    let engine = ScfEngine::new(params.clone()).unwrap();
    let sizes = [1, 7, hop, 3 * hop + 5];
    let config = StreamingConfig::new(params.clone()).with_refresh_interval(5);
    let probe = WindowProbe {
        engine: engine.clone(),
        captured: Vec::new(),
    };
    let mut sensor = StreamingSensor::new(config, probe).unwrap();
    // Three stream segments: the first ends in a park, the second in
    // a reset, each mid-window; every segment restarts at sample 0.
    for (segment, seed) in [61u64, 62, 63].into_iter().enumerate() {
        let signal = awgn(needed + 40 * hop + 11, 1.0, seed);
        let mut fed = 0;
        for size in sizes.iter().cycle() {
            let end = (fed + size).min(signal.len());
            sensor.push(&signal[fed..end]).unwrap();
            fed = end;
            if fed == signal.len() {
                break;
            }
        }
        let captured = std::mem::take(&mut sensor.backend_mut().captured);
        assert_eq!(captured.len(), 41, "segment {segment}");
        for (d, (samples, spectra)) in captured.iter().enumerate() {
            let window = &signal[d * hop..d * hop + needed];
            assert_eq!(samples.as_slice(), window, "segment {segment}, hop {d}");
            let batch = engine.compute_spectra(window).unwrap();
            for (streamed, batch) in spectra.iter().zip(&batch) {
                let bits = |block: &[Cplx]| {
                    block
                        .iter()
                        .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(streamed), bits(batch), "segment {segment}, hop {d}");
            }
            assert_eq!(spectra.len(), batch.len());
        }
        // End the segment mid-window: half a window more, then forget.
        sensor.push(&awgn(needed / 2, 1.0, seed + 10)).unwrap();
        sensor.backend_mut().captured.clear();
        if segment == 0 {
            sensor.park();
        } else {
            sensor.reset();
        }
    }
}

/// The spectrum ring is one slab of `W + 1` slots, and a park keeps its
/// stale contents, so a re-warm must never read a slot it has not yet
/// rewritten. For every park phase `j` in `0..=W+1` blocks, after a first
/// burst that has filled every slot, a sensor parked mid-stream and
/// re-warmed decides bit-identically to a fresh sensor fed the same
/// post-park stream — at the back-to-back hop and an overlapping one, and
/// with refresh intervals of 1, 3 and one longer than the window.
#[test]
fn park_at_every_ring_phase_matches_a_fresh_sensor() {
    let window = 4;
    for hop in [32, 24] {
        let params = ScfParams::new(32, 7, window).unwrap().with_stride(hop);
        let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        // The samples of the first `blocks` blocks of a stream.
        let samples_for = |blocks: usize| match blocks {
            0 => 0,
            b => (b - 1) * hop + params.fft_len,
        };
        for refresh in [1, 3, window + 2] {
            let config = StreamingConfig::new(params.clone()).with_refresh_interval(refresh);
            // Past the first window, through two refresh cycles and more
            // than one wrap of the ring.
            let after = awgn(samples_for(window + 2 * refresh + window + 3), 1.0, 91);
            let mut fresh = StreamingSensor::new(config.clone(), detector.clone()).unwrap();
            let expected = fresh.push(&after).unwrap();
            assert_eq!(expected.len(), 2 * refresh + window + 4);
            for j in 0..=window + 1 {
                let mut parked = StreamingSensor::new(config.clone(), detector.clone()).unwrap();
                parked
                    .push(&awgn(samples_for(3 * (window + 1)), 1.0, 89))
                    .unwrap();
                parked.park();
                // `j` blocks into the new stream, plus a partial block.
                parked
                    .push(&awgn(samples_for(j) + hop / 2, 1.0, 90 + j as u64))
                    .unwrap();
                assert_eq!(parked.blocks_ingested(), j as u64);
                parked.park();
                let got = parked.push(&after).unwrap();
                assert_eq!(got.len(), expected.len(), "hop {hop}, R {refresh}, j {j}");
                for (d, (g, e)) in got.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        g.statistic.to_bits(),
                        e.statistic.to_bits(),
                        "hop {hop}, R {refresh}, park after {j} blocks: decision {d}"
                    );
                    assert_eq!(g.verdict, e.verdict);
                }
            }
        }
    }
}
