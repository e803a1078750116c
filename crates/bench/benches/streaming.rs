//! Criterion bench of the incremental sliding-window DSCF (PR 8): the
//! steady-state cost of one streamed decision through a
//! [`StreamingSensor`] versus the batch path re-deciding every window
//! from scratch, at the paper's 127×127/8 scale and the wideband
//! 511×511/8 scale.
//!
//! Three rows per scale:
//!
//! * `batch_*` — the batch [`CyclostationaryDetector`] deciding on one
//!   full window (window FFTs + window accumulate passes + finalize),
//!   the cost a non-streaming caller pays per hop;
//! * `incremental_*` — a warm sensor pushed exactly one hop of samples
//!   (1 FFT + the fused slide retire/add/profile pass), the rolling fast
//!   path. The refresh interval is pushed out of the measured horizon so
//!   every iteration takes the incremental branch;
//! * `refresh_*` — the same warm sensor with `R = 1`, so every hop pays
//!   the exact re-accumulation: the bounded worst case a caller sees
//!   once per refresh interval.
//!
//! The `incremental / batch` quotient is the headline of the PR (the
//! acceptance bar is ≥ 4× at 127×127/8); the measured numbers are
//! recorded in README.md. Full measured runs are a manual step (`cargo
//! bench -p cfd-bench --bench streaming`); the repository benchmark's
//! `service-1024ch` workload is what CI compares against the parent
//! commit.
//!
//! Two more groups:
//!
//! * `streaming_retire` — `slide_*`: the incremental hop's fused slide
//!   retire on one warm sensor, at the service grid (31×31/32) and the
//!   paper grid (127×127/8).
//! * `streaming_service` — `service_geometry_1024ch`: 1024 warm sensors
//!   at the service geometry (64-point FFT, ±15, 32 blocks, default
//!   refresh interval), pushed one hop each in round-robin
//!   order. Each sensor's state is cache-cold when its hop arrives, as in
//!   a many-channel service; the single-sensor rows above cannot see that
//!   cost.

use cfd_core::backend::{Observation, SensingBackend};
use cfd_core::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfParams;
use cfd_dsp::signal::awgn;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// The benched geometries: the paper's grid and the wideband scale, both
/// at 8 integration steps with the default back-to-back hop.
const SCALES: [(&str, usize, usize); 2] = [("127x127", 256, 63), ("511x511", 1024, 255)];

/// A warm sensor one hop away from its next decision, and one hop of
/// samples to push per iteration.
fn warm_sensor(
    config: StreamingConfig,
) -> (
    StreamingSensor<CyclostationaryDetector>,
    Vec<cfd_dsp::complex::Cplx>,
) {
    let params = config.params.clone();
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let mut sensor = StreamingSensor::new(config, detector).unwrap();
    // Warm-up: a full window primes the ring and emits the d = 0 decision
    // (always an exact refresh), leaving every measured hop in steady state.
    sensor.push(&awgn(params.samples_needed(), 1.0, 8)).unwrap();
    assert_eq!(sensor.decisions_emitted(), 1);
    let hop = awgn(params.block_stride, 1.0, 9);
    (sensor, hop)
}

fn bench_streaming_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_decide");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (label, fft_len, max_offset) in SCALES {
        let params = ScfParams::new(fft_len, max_offset, 8).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 8);

        group.bench_function(format!("batch_{label}_8blocks"), |b| {
            let mut detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
            let mut observation = Observation::new();
            b.iter(|| {
                observation.load(&signal);
                detector.decide(&mut observation).unwrap()
            });
        });

        group.bench_function(format!("incremental_{label}_8blocks"), |b| {
            let config = StreamingConfig::new(params.clone()).with_refresh_interval(usize::MAX);
            let (mut sensor, hop) = warm_sensor(config);
            let mut out = Vec::with_capacity(1);
            b.iter(|| {
                out.clear();
                sensor.push_into(&hop, &mut out).unwrap();
                debug_assert_eq!(out.len(), 1);
            });
        });

        group.bench_function(format!("refresh_{label}_8blocks"), |b| {
            let config = StreamingConfig::new(params.clone()).with_refresh_interval(1);
            let (mut sensor, hop) = warm_sensor(config);
            let mut out = Vec::with_capacity(1);
            b.iter(|| {
                out.clear();
                sensor.push_into(&hop, &mut out).unwrap();
                debug_assert_eq!(out.len(), 1);
            });
        });
    }
    group.finish();
}

/// The retire geometries: the service grid (31×31, 32 blocks) and the
/// paper grid (127×127, 8 blocks).
const RETIRE_SCALES: [(&str, usize, usize, usize); 2] =
    [("31x31", 64, 15, 32), ("127x127", 256, 63, 8)];

fn bench_retire_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_retire");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (label, fft_len, max_offset, blocks) in RETIRE_SCALES {
        let params = ScfParams::new(fft_len, max_offset, blocks).unwrap();
        group.bench_function(format!("slide_{label}_{blocks}blocks"), |b| {
            let config = StreamingConfig::new(params.clone()).with_refresh_interval(usize::MAX);
            let (mut sensor, hop) = warm_sensor(config);
            let mut out = Vec::with_capacity(1);
            b.iter(|| {
                out.clear();
                sensor.push_into(&hop, &mut out).unwrap();
            });
        });
    }
    group.finish();
}

/// Contiguous-ring record (2-vCPU AVX-512 Xeon, shared host, medians of 3
/// alternated runs of the parent's bench binary and this one): with the
/// spectrum ring one `(W+1)·K` slab, block `i` transformed straight into
/// slot `i mod (W+1)` and the outgoing block read from the next slot,
/// `service_geometry_1024ch` went 4 256 → 3 724 ns per hop (runs
/// 4 741/3 801/4 256 against 4 044/3 724/3 630). This row drives the
/// sensors serially, so it sees the slab but not the scheduler's
/// next-hop prefetch.
fn bench_service_geometry(c: &mut Criterion) {
    const CHANNELS: usize = 1024;
    let mut group = c.benchmark_group("streaming_service");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let params = ScfParams::new(64, 15, 32).unwrap();
    let config = StreamingConfig::new(params.clone());
    // Built once: the harness calls the body many times, and every call
    // keeps cycling through the same warm fleet.
    let mut sensors: Vec<_> = (0..CHANNELS)
        .map(|_| warm_sensor(config.clone()).0)
        .collect();
    let hop = awgn(params.block_stride, 1.0, 9);
    let mut next = 0;
    let mut out = Vec::with_capacity(1);
    group.bench_function(format!("service_geometry_{CHANNELS}ch"), |b| {
        b.iter(|| {
            out.clear();
            sensors[next].push_into(&hop, &mut out).unwrap();
            next = (next + 1) % CHANNELS;
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_streaming_decide,
    bench_retire_strategies,
    bench_service_geometry
);
criterion_main!(benches);
