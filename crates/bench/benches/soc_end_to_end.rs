//! Criterion bench of the end-to-end flow: one full sensing decision
//! (signal → FFT → DSCF on the simulated tiled SoC → cyclic-feature
//! decision) and one full paper-sized integration step on the 4-tile
//! platform.

use cfd_core::prelude::*;
use cfd_dsp::signal::{awgn, SignalBuilder, SymbolModulation};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tiled_soc::soc::TiledSoc;

fn bench_soc(c: &mut Criterion) {
    let mut group = c.benchmark_group("soc_end_to_end");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    // One paper-sized integration step (256-point FFT, 127x127 DSCF) on the
    // 4-tile platform.
    let block = awgn(256, 1.0, 11);
    group.bench_function("paper_integration_step_4_tiles", |b| {
        b.iter(|| {
            let mut soc = TiledSoc::paper().unwrap();
            soc.run(&block, 1).unwrap()
        });
    });

    // A complete sensing decision on a compact configuration.
    let application = CfdApplication::new(32, 7, 32).unwrap();
    let observation = SignalBuilder::new(application.samples_needed())
        .modulation(SymbolModulation::Bpsk)
        .samples_per_symbol(4)
        .snr_db(3.0)
        .seed(1)
        .build()
        .unwrap()
        .samples;
    group.bench_function("sensing_decision_15x15_32_blocks", |b| {
        let mut session =
            SensingSession::new(application.clone(), &Platform::paper(), 0.35, 1).unwrap();
        b.iter(|| session.run(&observation).unwrap().0);
    });

    group.finish();
}

criterion_group!(benches, bench_soc);
criterion_main!(benches);
