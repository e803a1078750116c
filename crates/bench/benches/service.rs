//! Criterion bench of the many-channel sensing service (PR 9): decision
//! throughput of a [`SensingScheduler`] multiplexing M subscribed bands
//! over a pooled worker fleet, versus the naive per-decision baseline
//! that re-runs a batch detector over each channel's full window on
//! every hop.
//!
//! Rows per channel count M ∈ {64, 1024, 4096}:
//!
//! * `naive_{M}ch` — one batch [`CyclostationaryDetector`] replica per
//!   channel, the whole 32-block window re-decided from raw samples per
//!   hop (window FFTs + window accumulate passes per decision);
//! * `scheduler_{M}ch_{W}w` — the scheduler with W ∈ {1, 4} workers,
//!   each channel pinned to a warm [`StreamingSensor`] replica (one
//!   FFT plus one fused add/retire pass per decision). The timed
//!   region is the full service lifetime: spawn, push every hop, join.
//!
//! The `naive / scheduler` quotient at 1024 channels is the headline of
//! the PR (acceptance bar ≥ 2× at one worker). The speedup comes from
//! streaming state reuse, not parallelism — on the single-core CI host
//! the 4-worker rows measure scheduling overhead (expect ≈ the 1-worker
//! rows); on a multi-core host they should additionally approach the
//! core count. Both paths live in the private `driver` module; full
//! measured runs are a manual step (`cargo bench -p cfd-bench --bench
//! service`), while the repository benchmark's `service-1024ch` workload
//! is what CI compares against the parent commit.
//!
//! [`SensingScheduler`]: cfd_core::service::SensingScheduler
//! [`StreamingSensor`]: cfd_core::stream::StreamingSensor
//! [`CyclostationaryDetector`]: cfd_dsp::detector::CyclostationaryDetector

#[path = "service/driver.rs"]
mod driver;

use criterion::{criterion_group, criterion_main, Criterion};
use driver::{run_naive, run_scheduler, service_workload};
use std::time::Duration;

/// The benched subscription counts: a rack of bands, the paper's
/// "thousands of channels" regime, and a 4× overload of it.
const CHANNEL_COUNTS: [usize; 3] = [64, 1024, 4096];

/// Worker fleet sizes: serial (the state-reuse speedup in isolation)
/// and a small pool (adds multi-core scaling where cores exist).
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for channels in CHANNEL_COUNTS {
        let events = service_workload(channels);

        group.bench_function(format!("naive_{channels}ch"), |b| {
            b.iter(|| run_naive(channels, &events));
        });

        for workers in WORKER_COUNTS {
            group.bench_function(format!("scheduler_{channels}ch_{workers}w"), |b| {
                b.iter(|| run_scheduler(channels, &events, workers));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
