//! Reproduces the **Section 5 evaluation**: latency per integration step,
//! analysed bandwidth, chip area and power of the 4-Montium platform, plus
//! the linear-scaling extrapolation the paper describes — both from the
//! analytic two-step methodology and from the executing platform simulation.
//!
//! Run with: `cargo run --release -p cfd-bench --bin section5_evaluation`
//!
//! With `--bench-json <path>` the sweep-engine cross-check's Pd/Pfa table
//! is additionally written to `<path>` as JSON (via [`RocTable::to_json`]),
//! the machine-readable artefact CI uploads per run (`BENCH_sweeps.json`)
//! for sweep-result trajectory tracking. With `--metrics-json <path>` the
//! whole-process telemetry snapshot (per-stage latency histograms — FFT,
//! DSCF accumulate, SoC correlate, decide — plus every counter and gauge)
//! is written as the schema-versioned `MetricsSnapshot::to_json` document
//! (`BENCH_metrics.json`), the second artefact `bench_gate` diffs across
//! CI runs.

use cfd_bench::header;
use cfd_core::prelude::*;
use cfd_dsp::signal::awgn;
use cfd_scenario::prelude::*;
use tiled_soc::soc::TiledSoc;

/// The `--bench-json` / `--metrics-json` output paths and the
/// `--service` opt-in, if given.
#[derive(Default)]
struct OutputPaths {
    bench_json: Option<std::path::PathBuf>,
    metrics_json: Option<std::path::PathBuf>,
    /// Run the 1024-channel sensing-service comparison (naive
    /// per-decision baseline vs scheduler) and splice its timings into
    /// the sweeps document as the `service` object.
    service: bool,
    /// Run the cooperative-fusion comparison (per-rule fused sweeps of a
    /// 4-sensor shadowed fleet at a pinned SNR point) and splice its
    /// timings and Pd readings into the sweeps document as the `fusion`
    /// object.
    fusion: bool,
}

/// Parses the output-path flags from the command line.
///
/// # Errors
///
/// Errors when a flag is given without a path.
fn output_paths() -> Result<OutputPaths, Box<dyn std::error::Error>> {
    let mut paths = OutputPaths::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let target = match arg.as_str() {
            "--bench-json" => &mut paths.bench_json,
            "--metrics-json" => &mut paths.metrics_json,
            "--service" => {
                paths.service = true;
                continue;
            }
            "--fusion" => {
                paths.fusion = true;
                continue;
            }
            _ => continue,
        };
        match args.next() {
            Some(path) => *target = Some(path.into()),
            None => return Err(format!("{arg} requires a path argument").into()),
        }
    }
    Ok(paths)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paths = output_paths()?;
    // This binary is the workspace's metrics producer: spans and timers are
    // live for the whole run, so every stage histogram below fills up.
    cfd_telemetry::set_enabled(true);
    header("Section 5: evaluation of the 4-Montium platform (analytic)");
    let report = TwoStepMapping::analyse(&CfdApplication::paper(), &Platform::paper())?;
    println!(
        "time per integration step : {:.2} us   (paper: ~140 us)",
        report.step2.time_per_block_us
    );
    println!(
        "analysed bandwidth        : {:.0} kHz  (paper: ~915 kHz)",
        report.metrics.analysed_bandwidth_khz
    );
    println!(
        "chip area                 : {:.0} mm^2 (paper: ~8 mm^2)",
        report.metrics.area_mm2
    );
    println!(
        "power at 100 MHz          : {:.0} mW   (paper: 200 mW)",
        report.metrics.power_mw
    );
    println!(
        "energy per block          : {:.1} uJ",
        report.metrics.energy_per_block_uj()
    );

    header("Section 5 cross-check on the executing platform simulation");
    let mut soc = TiledSoc::paper()?;
    let run = soc.run(&awgn(256, 1.0, 3), 1)?;
    let metrics = soc.metrics(&run);
    println!(
        "critical-tile cycles      : {}   (Table 1 total: 13996)",
        run.max_tile_cycles()
    );
    println!(
        "time per integration step : {:.2} us",
        metrics.time_per_block_us
    );
    println!(
        "analysed bandwidth        : {:.0} kHz",
        metrics.analysed_bandwidth_khz
    );
    println!("inter-tile transfers      : {}", run.inter_tile_transfers);
    println!(
        "per-tile cycle totals     : {:?}",
        run.per_tile_cycles
            .iter()
            .map(|t| t.total())
            .collect::<Vec<_>>()
    );

    header("Streaming decisions through one sensing session (configure once, decide many)");
    let mut session = SensingSession::new(
        CfdApplication::paper_with_blocks(1),
        &Platform::paper(),
        0.35,
        2,
    )?;
    let observations: Vec<Vec<_>> = (0..8).map(|seed| awgn(256, 1.0, 10 + seed)).collect();
    let batch_refs: Vec<&[_]> = observations.iter().map(Vec::as_slice).collect();
    let batch = session.decide_batch(&batch_refs)?;
    println!(
        "decisions streamed        : {}   (platform configured {} time(s))",
        session.decisions(),
        session.configurations()
    );
    println!("blocks processed          : {}", batch.blocks);
    println!(
        "critical-path cycles      : {}   ({} per block)",
        batch.critical_cycles,
        batch.critical_cycles / batch.blocks as u64
    );
    println!("platform time for batch   : {:.2} us", batch.elapsed_us);

    header("Sweep-engine cross-check: Pd/Pfa of the platform path vs the golden model");
    let application = CfdApplication::new(32, 7, 32)?;
    let scf_params = application.scf_params()?;
    let scenario =
        RadioScenario::preset("bpsk-awgn", application.samples_needed()).expect("built-in preset");
    let sweep = SnrSweep::new(vec![5.0], 8)?;
    let table = SweepBuilder::new(&scenario)
        .sweep(sweep.clone())
        .backend(SessionRecipe::new(
            application.clone(),
            &Platform::paper(),
            0.35,
            1,
        ))
        .backend(cfd_dsp::detector::CyclostationaryDetector::new(
            scf_params, 0.35, 1,
        )?)
        .run()?;
    print!("{}", table.render());
    println!("(the SoC rows must equal the golden-model rows: same DSCF, same statistic)");

    header("Platform-path timing: SoC-roster sweep, analytic fast path vs lockstep simulation");
    let soc_recipe = |mode| {
        SessionRecipe::new(
            application.clone(),
            &Platform::paper().with_mode(mode),
            0.35,
            1,
        )
    };
    // Timed through telemetry spans (not ad-hoc `Instant`s), so the same
    // number lands in the metrics snapshot the gate diffs.
    let time_sweep =
        |name: &str, recipe: SessionRecipe| -> Result<f64, Box<dyn std::error::Error>> {
            let timer = cfd_telemetry::histogram(name).start_timer();
            SweepBuilder::new(&scenario)
                .sweep(sweep.clone())
                .backend(recipe)
                .run()?;
            let nanos = timer.stop().expect("telemetry is enabled in this binary");
            Ok(nanos as f64 / 1e9)
        };
    let analytic_seconds = time_sweep(
        "bench.section5.analytic_sweep_ns",
        soc_recipe(tiled_soc::config::ExecutionMode::Analytic),
    )?;
    let lockstep_seconds = time_sweep(
        "bench.section5.lockstep_sweep_ns",
        soc_recipe(tiled_soc::config::ExecutionMode::Lockstep),
    )?;
    let speedup = lockstep_seconds / analytic_seconds.max(f64::MIN_POSITIVE);
    println!("analytic sweep            : {:.4} s", analytic_seconds);
    println!("lockstep sweep            : {:.4} s", lockstep_seconds);
    println!("speedup                   : {speedup:.1}x  (decision-identical tables)");

    header("Wideband kernels past the paper's grid (ROADMAP item 2)");
    // The unit-stride DSCF kernel and the analytic SoC correlator at the
    // wideband scales, timed through telemetry spans (min of 3 so one
    // scheduler hiccup does not pollute the trajectory). Running them here
    // also fills the per-scale `dsp.scf.accumulate_ns.g511`/`.g1023`
    // histograms in the snapshot the gate diffs.
    let mut kernel_timings: Vec<(String, f64)> = Vec::new();
    for (label, fft_len, max_offset) in [("511x511", 1024usize, 255usize), ("1023x1023", 2048, 511)]
    {
        let params = cfd_dsp::scf::ScfParams::new(fft_len, max_offset, 8)?;
        let signal = awgn(params.samples_needed(), 1.0, fft_len as u64);
        let engine = cfd_dsp::scf::ScfEngine::new(params)?;
        let spectra = engine.compute_spectra(&signal)?;
        let mut matrix = cfd_dsp::scf::ScfMatrix::zeros(max_offset);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let timer =
                cfd_telemetry::histogram(&format!("bench.section5.dscf_{label}_ns")).start_timer();
            engine.dscf_from_spectra_into(&spectra, &mut matrix);
            let nanos = timer.stop().expect("telemetry is enabled in this binary");
            best = best.min(nanos as f64 / 1e9);
        }
        println!(
            "dscf engine {label:<11} 8 blocks : {:9.1} us  (min of 3)",
            best * 1e6
        );
        kernel_timings.push((format!("dscf_{label}_8blocks_seconds"), best));

        // The paper's 1K-word tile memories only hold the 127x127 slice;
        // the wideband platforms provision each memory at 64K words.
        let tile = montium_sim::MontiumConfig {
            words_per_memory: 65536,
            ..montium_sim::MontiumConfig::paper()
        };
        let config = tiled_soc::config::SocConfig::paper()
            .with_tile_config(tile)
            .with_mode(tiled_soc::config::ExecutionMode::Analytic);
        let mut soc = TiledSoc::new(config, max_offset, fft_len)?;
        let mut run = soc.empty_run();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let timer =
                cfd_telemetry::histogram(&format!("bench.section5.soc_analytic_{label}_ns"))
                    .start_timer();
            soc.reset();
            soc.run_from_spectra_into(&spectra, &mut run)?;
            let nanos = timer.stop().expect("telemetry is enabled in this binary");
            best = best.min(nanos as f64 / 1e9);
        }
        println!(
            "soc analytic {label:<11} 8 blocks: {:9.1} us  (min of 3)",
            best * 1e6
        );
        kernel_timings.push((format!("soc_analytic_{label}_8blocks_seconds"), best));
    }

    header("Streaming sensor: per-decision cost, batch window vs incremental hop (PR 8)");
    // The incremental sliding-window DSCF at the paper's grid and the
    // wideband scale: the batch path re-decides each window from scratch
    // (window FFTs + window accumulate passes), the warm sensor pays one
    // FFT + fused add/retire + re-base per hop. Timed through telemetry
    // spans (min of 3 batches) so the same numbers land in the metrics
    // snapshot; the quotient is the PR's headline (acceptance ≥ 4× at
    // 127×127/8).
    let mut streaming_timings: Vec<(String, f64)> = Vec::new();
    for (label, fft_len, max_offset) in [("127x127", 256usize, 63usize), ("511x511", 1024, 255)] {
        let params = cfd_dsp::scf::ScfParams::new(fft_len, max_offset, 8)?;
        let window = awgn(params.samples_needed(), 1.0, 8);
        let hops = 8usize; // decisions per timed batch, both paths

        let mut detector =
            cfd_dsp::detector::CyclostationaryDetector::new(params.clone(), 0.35, 1)?;
        let mut observation = Observation::new();
        let mut batch_best = f64::INFINITY;
        for _ in 0..3 {
            let timer =
                cfd_telemetry::histogram(&format!("bench.section5.stream_batch_{label}_ns"))
                    .start_timer();
            for _ in 0..hops {
                observation.load(&window);
                detector.decide(&mut observation)?;
            }
            let nanos = timer.stop().expect("telemetry is enabled in this binary");
            batch_best = batch_best.min(nanos as f64 / 1e9 / hops as f64);
        }

        let config = StreamingConfig::new(params.clone()).with_refresh_interval(usize::MAX);
        let backend = cfd_dsp::detector::CyclostationaryDetector::new(params.clone(), 0.35, 1)?;
        let mut sensor = StreamingSensor::new(config, backend)?;
        sensor.push(&window)?; // warm-up: d = 0 refresh decision
        let hop = awgn(params.block_stride, 1.0, 9);
        let mut decisions = Vec::with_capacity(1);
        let mut incremental_best = f64::INFINITY;
        for _ in 0..3 {
            let timer =
                cfd_telemetry::histogram(&format!("bench.section5.stream_incremental_{label}_ns"))
                    .start_timer();
            for _ in 0..hops {
                decisions.clear();
                sensor.push_into(&hop, &mut decisions)?;
            }
            let nanos = timer.stop().expect("telemetry is enabled in this binary");
            incremental_best = incremental_best.min(nanos as f64 / 1e9 / hops as f64);
        }
        let stream_speedup = batch_best / incremental_best.max(f64::MIN_POSITIVE);
        println!(
            "{label:<11} batch {:9.1} us/decision  incremental {:8.1} us/decision  ({stream_speedup:.1}x)",
            batch_best * 1e6,
            incremental_best * 1e6
        );
        streaming_timings.push((format!("batch_{label}_8blocks_seconds"), batch_best));
        streaming_timings.push((
            format!("incremental_{label}_8blocks_seconds"),
            incremental_best,
        ));
        streaming_timings.push((format!("speedup_{label}"), stream_speedup));
    }

    let mut service_timings: Vec<(String, f64)> = Vec::new();
    if paths.service {
        header("Sensing as a service: 1024 subscribed bands, naive baseline vs scheduler (PR 9)");
        // The same two drivers the `service_throughput` Criterion group
        // times: one batch detector re-deciding each channel's whole
        // window per hop, vs the scheduler's pinned streaming replicas.
        // Timed through telemetry spans (min of 3 service lifetimes), so
        // the numbers land in the metrics snapshot too. The ≥ 2× headline
        // must hold at one worker — it is streaming state reuse, not
        // parallelism; on a multi-core host the 4-worker row should
        // additionally approach the core count.
        use cfd_bench::service_driver::{
            run_naive, run_scheduler, service_params, service_workload, SERVICE_SLOTS,
        };
        let channels = 1024usize;
        let events = service_workload(channels);
        let decisions = (channels * (SERVICE_SLOTS - service_params().num_blocks + 1)) as f64;
        let time_path = |name: &str, run: &mut dyn FnMut() -> u64| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let timer = cfd_telemetry::histogram(&format!("bench.section5.service_{name}_ns"))
                    .start_timer();
                let emitted = run();
                let nanos = timer.stop().expect("telemetry is enabled in this binary");
                assert_eq!(emitted as f64, decisions, "both paths decide identically");
                best = best.min(nanos as f64 / 1e9);
            }
            best
        };
        let naive_seconds = time_path("naive_1024ch", &mut || run_naive(channels, &events));
        let serial_seconds = time_path("scheduler_1024ch_1w", &mut || {
            run_scheduler(channels, &events, 1)
        });
        let pooled_seconds = time_path("scheduler_1024ch_4w", &mut || {
            run_scheduler(channels, &events, 4)
        });
        let service_speedup = naive_seconds / serial_seconds.max(f64::MIN_POSITIVE);
        let rate = |seconds: f64| decisions / seconds.max(f64::MIN_POSITIVE);
        println!(
            "naive per-decision baseline : {naive_seconds:.4} s  ({:9.0} decisions/s)",
            rate(naive_seconds)
        );
        println!(
            "scheduler, 1 worker         : {serial_seconds:.4} s  ({:9.0} decisions/s)",
            rate(serial_seconds)
        );
        println!(
            "scheduler, 4 workers        : {pooled_seconds:.4} s  ({:9.0} decisions/s)",
            rate(pooled_seconds)
        );
        println!(
            "speedup at 1 worker         : {service_speedup:.1}x  (bar: >= 2x, decision-identical)"
        );
        service_timings.push(("naive_1024ch_seconds".into(), naive_seconds));
        service_timings.push(("scheduler_1024ch_1w_seconds".into(), serial_seconds));
        service_timings.push(("scheduler_1024ch_4w_seconds".into(), pooled_seconds));
        service_timings.push(("speedup_1024ch_1w".into(), service_speedup));
    }

    let mut fusion_timings: Vec<(String, f64)> = Vec::new();
    if paths.fusion {
        header("Cooperative fusion: 4-sensor shadowed fleet, per-rule sweep cost and Pd (PR 10)");
        // A 4-member CFD fleet, every member behind its own 8 dB
        // log-normal shadow realisation, swept at a pinned 5 dB SNR point
        // under each fusion rule. Timed through telemetry spans (min of
        // 3 sweeps) so the numbers land in the metrics snapshot; the Pd
        // readings ride along in the artefact but are not gated (higher
        // is better).
        use cfd_core::fusion::{FusionCenter, FusionRule, MemberChannel};
        use cfd_scenario::channel::{ChannelPipeline, ChannelStage};
        let params = cfd_dsp::scf::ScfParams::new(32, 7, 32)?;
        let fusion_scenario = RadioScenario::preset("bpsk-awgn", params.samples_needed())
            .expect("built-in preset")
            .with_seed(41);
        let fusion_sweep = SnrSweep::new(vec![5.0], 40)?;
        let shadowing = || {
            let overlay = ChannelPipeline::new(vec![ChannelStage::LogNormalShadowing {
                sigma_db: 8.0,
                noise_power: 1.0,
            }]);
            MemberChannel::new(move |samples: &[_], seed| {
                overlay
                    .impair(samples.to_vec(), seed)
                    .expect("validated overlay")
            })
        };
        let rules = [
            ("or_4x_shadowed", FusionRule::Or),
            ("and_4x_shadowed", FusionRule::And),
            ("2of4_shadowed", FusionRule::KOfN(2)),
            (
                "soft_4x_shadowed",
                FusionRule::SoftCombine { threshold: 1.4 },
            ),
        ];
        for (tag, rule) in rules {
            let mut fleet = FusionCenter::new(rule);
            for _ in 0..4 {
                fleet = fleet.with_impaired_member(
                    cfd_dsp::detector::CyclostationaryDetector::new(params.clone(), 0.35, 1)?,
                    shadowing(),
                );
            }
            let mut best = f64::INFINITY;
            let mut pd = 0.0;
            for _ in 0..3 {
                let timer = cfd_telemetry::histogram(&format!("bench.section5.fusion_{tag}_ns"))
                    .start_timer();
                let table = SweepBuilder::new(&fusion_scenario)
                    .sweep(fusion_sweep.clone())
                    .backend(fleet.clone())
                    .run()?;
                let nanos = timer.stop().expect("telemetry is enabled in this binary");
                best = best.min(nanos as f64 / 1e9);
                pd = table.rows[0].pd;
            }
            println!("{tag:<18} sweep: {:9.4} s   Pd at 5 dB: {pd:.3}", best);
            fusion_timings.push((format!("{tag}_seconds"), best));
            fusion_timings.push((format!("{tag}_pd"), pd));
        }
    }

    if let Some(path) = &paths.bench_json {
        // Splice the platform-path timing, the wideband kernel timings,
        // the streaming per-decision timings and (with `--service` /
        // `--fusion`) the service throughput and fusion timings into the
        // RocTable document so the uploaded BENCH_sweeps.json tracks the
        // Pd/Pfa trajectory and every per-commit cost trajectory in one
        // artefact.
        let rows = table.to_json();
        let rows = rows
            .strip_suffix('}')
            .expect("RocTable::to_json emits an object");
        let join = |timings: &[(String, f64)]| {
            timings
                .iter()
                .map(|(key, seconds)| format!("\"{key}\":{seconds}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let kernels = join(&kernel_timings);
        let streaming = join(&streaming_timings);
        let service = if service_timings.is_empty() {
            String::new()
        } else {
            format!(",\"service\":{{{}}}", join(&service_timings))
        };
        let fusion = if fusion_timings.is_empty() {
            String::new()
        } else {
            format!(",\"fusion\":{{{}}}", join(&fusion_timings))
        };
        let json = format!(
            "{rows},\"soc_sweep\":{{\"analytic_seconds\":{analytic_seconds},\
             \"lockstep_seconds\":{lockstep_seconds},\"speedup\":{speedup}}},\
             \"kernels\":{{{kernels}}},\"streaming\":{{{streaming}}}{service}{fusion}}}"
        );
        std::fs::write(path, json)?;
        println!(
            "sweep table + SoC timing written as JSON to {}",
            path.display()
        );
    }

    header("Scalability: platform configurations (the paper's linear-scaling claim)");
    let study = EvaluationReport::scaling_study(&CfdApplication::paper(), &[1, 2, 4, 8, 16, 32])?;
    print!("{}", study.render());
    println!("\n(area and power scale exactly linearly with the number of Montiums; the analysed\n bandwidth scales linearly in the MAC-dominated regime and saturates once the fixed\n per-block FFT/reshuffle/initialisation overhead dominates.)");

    header("Telemetry: per-stage latency histograms of everything this process ran");
    let snapshot = cfd_telemetry::registry().snapshot();
    println!("stage                           count      p50 ns      p90 ns        mean ns");
    for (name, histogram) in &snapshot.histograms {
        println!(
            "{name:<30} {:>7} {:>11} {:>11} {:>14.1}",
            histogram.count,
            histogram.p50().unwrap_or(0),
            histogram.p90().unwrap_or(0),
            histogram.mean().unwrap_or(0.0)
        );
    }
    if let Some(path) = &paths.metrics_json {
        std::fs::write(path, snapshot.to_json())?;
        println!("metrics snapshot written as JSON to {}", path.display());
    }
    Ok(())
}
