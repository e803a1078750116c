//! Criterion bench behind the Section 5 scaling claim: simulated platform
//! execution for different numbers of tiles (the analysed-bandwidth scaling
//! is reported by the `section5_evaluation` binary; this bench measures the
//! simulation cost as the platform grows).

use cfd_dsp::signal::awgn;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tiled_soc::config::SocConfig;
use tiled_soc::soc::TiledSoc;

fn bench_platform_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("platform_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    // A moderate problem so the sweep stays fast: 31x31 DSCF over 64-point
    // spectra, 2 blocks.
    let signal = awgn(128, 1.0, 9);
    for tiles in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("lockstep_tiles", tiles),
            &tiles,
            |b, &tiles| {
                b.iter(|| {
                    let mut soc =
                        TiledSoc::new(SocConfig::paper().with_tiles(tiles), 15, 64).unwrap();
                    soc.run(&signal, 2).unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_platform_scaling);
criterion_main!(benches);
