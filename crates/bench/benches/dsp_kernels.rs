//! Criterion bench of the DSP substrate: FFT sizes, the reference DSCF
//! (eq. 3) and the Section 2 cost relation between them (the DSCF costs
//! `¼K²` complex multiplications versus `½K·log2 K` for the FFT — 16× for
//! K = 256), plus the `dscf_kernel` group comparing the eq.-3 golden model
//! against the table-driven, symmetry-halved [`ScfEngine`] at the paper's
//! 127×127 scale, the `fft_plan`, `setup` and `block_spectrum` groups
//! timing plan construction, the set-up of engines, replicas and sensors
//! that share cached plans, and one eq.-2 spectrum (window, FFT,
//! rotation), and the
//! `signal` group timing the ziggurat noise source and the symbol-rate
//! pulse train that feed every seeded observation.

use cfd_core::backend::BackendRecipe;
use cfd_core::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::fft::{block_spectrum_into, fft, FftPlan};
use cfd_dsp::scf::{dscf_reference, OperandPlanes, ScfEngine, ScfMatrix, ScfParams};
use cfd_dsp::signal::{awgn, awgn_into, modulated_signal_into, ModulatedSignalSpec};
use cfd_dsp::window::Window;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tiled_soc::config::{ExecutionMode, SocConfig};
use tiled_soc::soc::TiledSoc;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for size in [64usize, 256, 1024] {
        let signal = awgn(size, 1.0, size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| fft(&signal).unwrap());
        });
    }
    group.finish();
}

fn bench_dscf(c: &mut Criterion) {
    let mut group = c.benchmark_group("dscf_reference");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    // The cost grows with the square of the grid size; the 127x127 paper
    // grid is included to expose the 16x-over-FFT relation of Section 2.
    for (fft_len, max_offset) in [(64usize, 15usize), (128, 31), (256, 63)] {
        let params = ScfParams::new(fft_len, max_offset, 1).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 77);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}x{}", 2 * max_offset + 1, 2 * max_offset + 1)),
            &params,
            |b, params| {
                b.iter(|| dscf_reference(&signal, params).unwrap());
            },
        );
    }
    group.finish();
}

/// Headline comparison for the fast-DSCF rework: the eq.-3 reference vs
/// the [`ScfEngine`] on the identical workload — the paper's 127×127 grid
/// over 256-point spectra, 8 integration steps. The engine precomputes the
/// FFT plan, window and `centred_bin` index tables, computes only the
/// `a ≥ 0` half (mirroring the rest by conjugation), and — in the
/// `engine_into` row — reuses one matrix allocation across iterations the
/// way a Monte-Carlo sweep does. Output is bit-identical to the reference.
///
/// Register-resident row-kernel record (2-vCPU AVX-512 Xeon, medians of 3
/// alternated runs of the split-row kernel's bench binary and this one):
/// `profile_from_spectra_127x127_8blocks` 71.7 → 44.1 µs,
/// `engine_into_127x127_8blocks` 105.2 → 76.3 µs,
/// `engine_into_511x511_8blocks` 1 288 → 1 205 µs and
/// `engine_into_1023x1023_8blocks` 5 004 → 4 781 µs. Separate processes
/// on this shared host swing by tens of percent, so the steadier measure
/// is one process linking both kernels with the calls alternated: there
/// the profile pass at 127×127×8 runs 1.53× faster on the AVX-512 tier
/// and 1.25× on the AVX2 tier (faster in 31 of 31 pairs). Every row is
/// one unit-stride run over padded operand planes and each accumulator
/// is loaded and stored once per pass; the rate is still well above what
/// the 16 flops per cell and block cost at two vector FP ports, and the
/// operand loads are the likely remainder (each row's window starts one
/// bin later, so most wide loads straddle a cache line).
///
/// Register-fold record (same host and method, against the kernel that
/// stored every band and folded it in a separate baseline-SSE2 pass):
/// `profile_from_spectra_127x127_8blocks` 46.1 → 32.1 µs,
/// `profile_from_spectra_127x127_1block` 20.3 → 5.4 µs and
/// `profile_from_accumulator_127x127` 10.0 → 2.6 µs; the matrix rows are
/// within noise. In the one-process A/B the profile pass runs 1.32×
/// (8 blocks) and 3.2× (1 block) faster on the AVX-512 tier and 1.19×
/// and 2.0× on the AVX2 tier, faster in 11 of 11 pairs each.
///
/// Copy-speed staging record (same host, medians of 3 alternated runs;
/// the "before" rows ran the sensor's former sequence on the parent
/// kernel — re-phased copies of the spectra, then the unphased pass):
/// `slide_block_31x31` 1.30 → 1.07 µs and
/// `accumulate_window_64x15_32blocks` 19.5 → 12.0 µs. The
/// `profile_from_spectra_127x127_8blocks` medians read 31.1 → 31.5 µs
/// across processes; in one process linking both kernels, calls
/// alternated, the profile pass ran 1.25× and 1.29× faster (11 of 11
/// pairs in each of two runs) and the refresh 1.58× and 1.71×.
///
/// Plane-store record (same host, medians of 3 alternated runs; the
/// "before" binary ran the parent's calls for the new rows:
/// `compute_spectra_into` then `cyclic_profile_from_spectra_into`, and
/// the allocating `modulated_signal`):
/// `profile_from_samples_127x127_8blocks` 28.5 → 26.7 µs,
/// `block_spectrum/256_unrotated` 815 → 794 ns and
/// `signal/modulated_signal_bpsk_2048` 9.01 → 4.90 µs. `fft/64` read
/// 254 → 215 ns and `slide_block_31x31` 714 → 632 ns across processes;
/// in one process linking both crates, calls alternated, the FFT and
/// block-spectrum rows at 64 and 256 points stayed within ±2% with
/// swings either way, and the profile from samples ran 1.046–1.063×
/// faster (bits equal).
fn bench_dscf_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("dscf_kernel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let params = ScfParams::paper_256_with_blocks(8);
    let signal = awgn(params.samples_needed(), 1.0, 2007);
    let engine = ScfEngine::new(params.clone()).unwrap();

    group.bench_function("reference_127x127_8blocks", |b| {
        b.iter(|| dscf_reference(&signal, &params).unwrap());
    });
    group.bench_function("engine_127x127_8blocks", |b| {
        b.iter(|| engine.compute(&signal).unwrap());
    });
    group.bench_function("engine_into_127x127_8blocks", |b| {
        let mut scratch = ScfMatrix::zeros(params.max_offset);
        b.iter(|| engine.compute_into(&signal, &mut scratch).unwrap());
    });
    // The roc and fusion hot path on its own: the cyclic profile folded
    // straight out of precomputed spectra — no FFT, no matrix. The 1-block
    // row is where the profile fold weighed most before it moved into the
    // row kernel's registers.
    // The same decision from the samples, as `Observation` runs it: the
    // FFT writes each block straight into the operand planes, and the
    // profile pass reads them.
    group.bench_function("profile_from_samples_127x127_8blocks", |b| {
        let (mut planes, mut profile) = (OperandPlanes::default(), Vec::new());
        b.iter(|| {
            engine.stage_spectra_into(&signal, &mut planes).unwrap();
            engine.integrate_planes_into(&planes, None, Some(&mut profile));
            profile[0]
        });
    });
    let spectra = engine.compute_spectra(&signal).unwrap();
    for (label, blocks) in [("8blocks", 8), ("1block", 1)] {
        let spectra = &spectra[..blocks];
        group.bench_function(format!("profile_from_spectra_127x127_{label}"), |b| {
            let mut profile = Vec::new();
            b.iter(|| {
                engine.cyclic_profile_from_spectra_into(spectra, &mut profile);
                profile[0]
            });
        });
    }
    // The streaming exact-refresh decision: the profile folded off a
    // finished window accumulator, loaded once and never stored.
    let mut acc = engine.accumulator();
    engine.accumulate_window(&spectra, &mut acc);
    group.bench_function("profile_from_accumulator_127x127", |b| {
        let mut profile = Vec::new();
        b.iter(|| {
            engine.cyclic_profile_from_accumulator(&acc, spectra.len(), &mut profile);
            profile[0]
        });
    });
    // The streaming service's geometry (64-point blocks, 31×31 grid, a
    // 32-block window, hop = K): one incremental hop's fused slide of two
    // raw ring spectra, and one exact refresh re-accumulating the window
    // from the raw ring with window-relative starts. Both stage each
    // spectrum with its eq.-2 phase, as the sensor does; a hop of K makes
    // every phase the identity, so staging copies and multiplies nothing.
    let service = ScfParams::new(64, 15, 32).unwrap();
    let engine = ScfEngine::new(service.clone()).unwrap();
    let stride = service.block_stride;
    let signal = awgn(service.samples_needed() + stride, 1.0, 6415);
    let ring: Vec<Vec<Cplx>> = (0..=service.num_blocks)
        .map(|b| {
            let mut raw = Vec::new();
            let block = &signal[b * stride..];
            engine.block_spectrum_into(block, 0, &mut raw).unwrap();
            raw
        })
        .collect();
    let window = || (0..service.num_blocks).map(|j| (ring[j].as_slice(), j * stride));
    let mut acc = engine.accumulator();
    engine.accumulate_phased_window(window(), &mut acc);
    group.bench_function("slide_block_31x31", |b| {
        let mut profile = Vec::new();
        let (outgoing, incoming) = ((ring[0].as_slice(), 0), (ring[32].as_slice(), 32 * stride));
        b.iter(|| {
            engine.slide_block(outgoing, incoming, &mut acc, 32, &mut profile);
            profile[0]
        });
    });
    group.bench_function("accumulate_window_64x15_32blocks", |b| {
        b.iter(|| engine.accumulate_phased_window(window(), &mut acc));
    });
    // Wideband grids past the paper's scale (ROADMAP item 2): 511×511 over
    // 1024-point spectra and 1023×1023 over 2048-point spectra, 8
    // integration steps each (the accumulate-heavy regime the unit-stride
    // rework targets). The eq.-3 reference is benched at 511×511 for
    // context but omitted at 1023×1023, where it would dominate the bench
    // wall-clock; bit-identity at both scales (and at random ones) is
    // pinned by tests/unit_stride.rs instead. Here the row kernel gains
    // least (1.13× on AVX-512, 1.05× on AVX2, in-process pairs at
    // 511×511): a whole row's operand windows over 8 blocks no longer stay
    // in L1 from one row to the next (a prototype walking rows in strips
    // of 64 offsets measured 1.53× and 1.27× there), and the DRAM-bound
    // finalize of the P×P output adds on top.
    for (label, fft_len, max_offset) in [("511x511", 1024usize, 255usize), ("1023x1023", 2048, 511)]
    {
        let params = ScfParams::new(fft_len, max_offset, 8).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, fft_len as u64);
        let engine = ScfEngine::new(params.clone()).unwrap();
        if max_offset < 256 {
            group.bench_function(format!("reference_{label}_8blocks"), |b| {
                b.iter(|| dscf_reference(&signal, &params).unwrap());
            });
        }
        group.bench_function(format!("engine_into_{label}_8blocks"), |b| {
            let mut scratch = ScfMatrix::zeros(params.max_offset);
            b.iter(|| engine.compute_into(&signal, &mut scratch).unwrap());
        });
    }
    group.finish();
}

/// The tiled-SoC block rate at the paper's platform scale (4 tiles,
/// 256-point spectra, 127×127 DSCF, 8 integration steps per run): the
/// cycle-accurate lockstep simulation vs the analytic fast path from raw
/// samples (shared-plan FFT front-end + table-driven correlation) vs the
/// spectra-fed entry point (`run_from_spectra` on precomputed spectra —
/// the correlator cost in isolation, the way sweep rosters drive it).
/// All three produce the same `SocRun` bit for bit; the quotient of the
/// first two rows is the platform-path speedup the sweep engine inherits
/// (the acceptance bar is ≥ 5×).
fn bench_soc_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("soc_block");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let blocks = 8usize;
    let signal = awgn(blocks * 256, 1.0, 4242);

    group.bench_function("lockstep_127x127_8blocks", |b| {
        let mut soc = TiledSoc::new(
            SocConfig::paper().with_mode(ExecutionMode::Lockstep),
            63,
            256,
        )
        .unwrap();
        let mut run = soc.empty_run();
        b.iter(|| {
            soc.reset();
            soc.run_into(&signal, blocks, &mut run).unwrap();
        });
    });
    group.bench_function("analytic_127x127_8blocks", |b| {
        let mut soc = TiledSoc::new(
            SocConfig::paper().with_mode(ExecutionMode::Analytic),
            63,
            256,
        )
        .unwrap();
        let mut run = soc.empty_run();
        b.iter(|| {
            soc.reset();
            soc.run_into(&signal, blocks, &mut run).unwrap();
        });
    });
    group.bench_function("analytic_from_spectra_127x127_8blocks", |b| {
        let engine = ScfEngine::new(ScfParams::paper_256_with_blocks(blocks)).unwrap();
        let spectra = engine.compute_spectra(&signal).unwrap();
        let mut soc = TiledSoc::new(
            SocConfig::paper().with_mode(ExecutionMode::Analytic),
            63,
            256,
        )
        .unwrap();
        let mut run = soc.empty_run();
        b.iter(|| {
            soc.reset();
            soc.run_from_spectra_into(&spectra, &mut run).unwrap();
        });
    });
    // Wideband platform scales (ROADMAP item 2), 4 tiles, 8 integration
    // steps. The lockstep simulation is omitted here: its per-cycle walk at
    // 511² is two orders slower than the analytic path and the equality of
    // the two is already pinned at random scales by tests/soc_fast_path.rs.
    // The paper's 1K-word tile memories only hold the 127×127 slice, so the
    // wideband platforms provision each memory at 64K words (the per-tile
    // accumulator slab is `T·F` complex entries across M01–M08).
    //
    // Unit-stride record (PR 7, this container, back-to-back
    // min-of-batches at 511×511/8 blocks): `analytic_from_spectra` went
    // from 4997 µs (PR-5 per-point gather) to 2465 µs, `analytic` (raw
    // samples) from 5078 µs to 2599 µs — ~2× end to end, with blocks 1–4
    // fusing into one register-blocked pass so the ratio grows with
    // integration depth. Both the old and new paths end at the same
    // DRAM-bound P×F gather, which bounds the end-to-end ratio well below
    // the accumulate-phase ratio on this 1-core VM.
    for (label, fft_len, max_offset) in [("511x511", 1024usize, 255usize), ("1023x1023", 2048, 511)]
    {
        let tile = montium_sim::MontiumConfig {
            words_per_memory: 65536,
            ..montium_sim::MontiumConfig::paper()
        };
        let config = SocConfig::paper()
            .with_tile_config(tile)
            .with_mode(ExecutionMode::Analytic);
        let params = ScfParams::new(fft_len, max_offset, 8).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 4242);
        let engine = ScfEngine::new(params).unwrap();
        let spectra = engine.compute_spectra(&signal).unwrap();
        group.bench_function(format!("analytic_{label}_8blocks"), |b| {
            let mut soc = TiledSoc::new(config.clone(), max_offset, fft_len).unwrap();
            let mut run = soc.empty_run();
            b.iter(|| {
                soc.reset();
                soc.run_into(&signal, 8, &mut run).unwrap();
            });
        });
        group.bench_function(format!("analytic_from_spectra_{label}_8blocks"), |b| {
            let mut soc = TiledSoc::new(config.clone(), max_offset, fft_len).unwrap();
            let mut run = soc.empty_run();
            b.iter(|| {
                soc.reset();
                soc.run_from_spectra_into(&spectra, &mut run).unwrap();
            });
        });
    }
    group.finish();
}

/// Planned vs planless FFT at the paper's block size: the planless entry
/// points rebuild nothing (they wrap a cached plan), so this measures the
/// residual cost of the per-call cache lookup against a held plan.
fn bench_fft_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_plan");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let n = 256;
    let signal = awgn(n, 1.0, 256);
    let plan = FftPlan::new(n).unwrap();
    group.bench_function("cached_plan_wrapper_256", |b| {
        let mut buf = signal.clone();
        b.iter(|| {
            buf.copy_from_slice(&signal);
            cfd_dsp::fft::fft_in_place(&mut buf).unwrap();
        });
    });
    group.bench_function("held_plan_256", |b| {
        let mut buf = signal.clone();
        b.iter(|| {
            buf.copy_from_slice(&signal);
            plan.forward_in_place(&mut buf).unwrap();
        });
    });
    // Plan construction: the first engine or planless call of a length
    // on a thread builds one into the thread's cache; every later one
    // shares it (the `setup` rows).
    group.bench_function("new_256", |b| b.iter(|| FftPlan::new(n).unwrap()));
    group.finish();
}

/// Set-up of what the workloads build per channel, worker or member, on
/// a thread whose plan and window caches are warm: an engine at the
/// paper's block size, a CFD replica (what a sweep worker builds per
/// roster entry) and a sensor at the service's streamed geometry (what a
/// scheduler subscription builds, its backend clone included).
///
/// Shared-tables record (2-vCPU AVX-512 Xeon, shared host; medians of 3
/// alternated runs of the parent's bench binary, which ran these rows
/// against its own code, and this one):
/// `scf_engine_new_256` 5 940 → 79 ns,
/// `cfd_replica_build_256` 319 → 44 ns and
/// `streaming_sensor_new_64x15x32` 2 068 → 129 ns. The parent's engine
/// built its plan and window and its sensor zeroed two accumulators;
/// `fft_plan/cached_plan_wrapper_256` (an `Arc` now, an `Rc` before)
/// read 826 → 754 ns.
fn bench_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("setup");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let params = ScfParams::paper_256_with_blocks(8);
    group.bench_function("scf_engine_new_256", |b| {
        b.iter(|| ScfEngine::new(params.clone()).unwrap());
    });
    let detector = CyclostationaryDetector::new(params, 0.35, 1).unwrap();
    group.bench_function("cfd_replica_build_256", |b| {
        b.iter(|| BackendRecipe::build(&detector).unwrap());
    });
    let streamed = ScfParams::new(64, 15, 32).unwrap();
    let config = StreamingConfig::new(streamed.clone());
    let backend = CyclostationaryDetector::new(streamed, 0.35, 1).unwrap();
    group.bench_function("streaming_sensor_new_64x15x32", |b| {
        b.iter(|| StreamingSensor::new(config.clone(), backend.clone()).unwrap());
    });
    group.finish();
}

/// One eq.-2 block spectrum: Hann window, 256-point FFT and the
/// absolute-time phase rotation, into a reused buffer. The `256` row
/// starts at sample 100, not a multiple of the block length, so its
/// rotation runs; the `256_unrotated` row starts at 0, as every block of
/// the benchmark workloads does (their strides are whole blocks). The
/// `64` row is the service's per-hop transform: a streaming sensor's
/// engine at the service geometry (64 points, rectangular window, ±15,
/// 32 blocks) writing one raw spectrum straight into a ring slot.
///
/// Ring-slot record (2-vCPU AVX-512 Xeon, medians of 3 alternated runs;
/// the "before" binary ran the parent's per-hop call, the engine's `Vec`
/// form into the sensor's spare spectrum): `block_spectrum/64` 220 →
/// 212 ns (runs 220/189/262 against 212/208/340), level within this
/// host's spread; the slot form only drops the buffer's length check
/// and resize.
fn bench_block_spectrum(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_spectrum");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let n = 256;
    let signal = awgn(2 * n, 1.0, 257);
    let service = ScfEngine::new(ScfParams::new(64, 15, 32).unwrap()).unwrap();
    let mut slot = vec![Cplx::ZERO; 64];
    group.bench_function(BenchmarkId::from_parameter(64), |b| {
        b.iter(|| {
            service
                .block_spectrum_into_slice(&signal[..64], 0, &mut slot)
                .unwrap();
            slot[0]
        });
    });
    let plan = FftPlan::new(n).unwrap();
    let window = Window::Hann.coefficients(n);
    let mut out = Vec::with_capacity(n);
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        b.iter(|| {
            block_spectrum_into(&signal, 100, &plan, &window, &mut out).unwrap();
            out[0]
        });
    });
    group.bench_function(format!("{n}_unrotated"), |b| {
        b.iter(|| {
            block_spectrum_into(&signal, 0, &plan, &window, &mut out).unwrap();
            out[0]
        });
    });
    group.finish();
}

/// The sample sources of one 2048-sample observation (a `roc-sweep-paper`
/// trial or a `fusion-coop` member observation): `awgn_into`, the
/// Gaussian noise, and `modulated_signal_into`, the baseband BPSK pulse
/// train (4 samples per symbol) synthesised a symbol at a time. Both
/// write into a reused buffer. The rows report ns per call; divide by
/// 2048 for ns per complex sample.
fn bench_signal(c: &mut Criterion) {
    let mut group = c.benchmark_group("signal");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut noise = vec![Cplx::ZERO; 2048];
    let mut seed = 0u64;
    group.bench_function("awgn_into_2048", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            awgn_into(&mut noise, 1.0, seed);
            noise[0]
        });
    });
    let spec = ModulatedSignalSpec {
        samples_per_symbol: 4,
        ..Default::default()
    };
    let mut signal = Vec::new();
    group.bench_function("modulated_signal_bpsk_2048", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            modulated_signal_into(&mut signal, 2048, &spec, seed).unwrap();
            signal[0]
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_dscf,
    bench_dscf_kernel,
    bench_soc_block,
    bench_fft_plan,
    bench_setup,
    bench_block_spectrum,
    bench_signal
);
criterion_main!(benches);
