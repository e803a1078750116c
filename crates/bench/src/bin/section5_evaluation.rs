//! Reproduces the **Section 5 evaluation**: latency per integration step,
//! analysed bandwidth, chip area and power of the 4-Montium platform, plus
//! the linear-scaling extrapolation the paper describes — both from the
//! analytic two-step methodology and from the executing platform simulation.
//!
//! Run with: `cargo run --release -p cfd-bench --bin section5_evaluation`
//!
//! Exits non-zero when the sweep cross-check's `cfd-soc` rows (the
//! platform path) differ from its `cfd` rows (the golden model) in Pd, Pfa
//! or trial count at any SNR point: both decide from the same DSCF with the
//! same statistic, so they must agree exactly.

use cfd_bench::header;
use cfd_core::prelude::*;
use cfd_dsp::signal::awgn;
use cfd_scenario::prelude::*;
use tiled_soc::soc::TiledSoc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
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
    let mut observations: Vec<Observation> = (0..8)
        .map(|seed| Observation::from_samples(awgn(256, 1.0, 10 + seed)))
        .collect();
    session.decide_batch(&mut observations)?;
    let (blocks, cycles) = (session.total_blocks(), session.total_critical_cycles());
    println!(
        "decisions streamed        : {}   (platform configured {} time(s))",
        session.decisions(),
        session.configurations()
    );
    println!("blocks processed          : {blocks}");
    println!(
        "critical-path cycles      : {cycles}   ({} per block)",
        cycles / blocks
    );
    println!(
        "platform time for batch   : {:.2} us",
        cycles as f64 / Platform::paper().tile.clock_mhz
    );

    header("Sweep-engine cross-check: Pd/Pfa of the platform path vs the golden model");
    let application = CfdApplication::new(32, 7, 32)?;
    let scf_params = application.scf_params()?;
    let scenario =
        RadioScenario::preset("bpsk-awgn", application.samples_needed()).expect("built-in preset");
    let sweep = SnrSweep::new(vec![5.0], 8)?;
    let table = SweepBuilder::new(&scenario)
        .sweep(sweep)
        .backend(SessionRecipe::new(application, &Platform::paper(), 0.35, 1))
        .backend(cfd_dsp::detector::CyclostationaryDetector::new(
            scf_params, 0.35, 1,
        )?)
        .run()?;
    print!("{}", table.render());
    let exact = soc_rows_match(&table);
    println!(
        "SoC rows vs golden-model rows: {}",
        if exact { "EXACT" } else { "MISMATCH" }
    );

    header("Scalability: platform configurations (the paper's linear-scaling claim)");
    let study = EvaluationReport::scaling_study(&CfdApplication::paper(), &[1, 2, 4, 8, 16, 32])?;
    print!("{}", study.render());
    println!("\n(area and power scale exactly linearly with the number of Montiums; the analysed\n bandwidth scales linearly in the MAC-dominated regime and saturates once the fixed\n per-block FFT/reshuffle/initialisation overhead dominates.)");

    if !exact {
        return Err(
            "the SoC rows of the sweep cross-check differ from the golden-model rows".into(),
        );
    }
    Ok(())
}

/// Whether every `cfd-soc` row (the platform path) has a `cfd` row (the
/// golden model) at its SNR point with the same Pd, Pfa and trial count,
/// and there is at least one `cfd-soc` row.
fn soc_rows_match(table: &RocTable) -> bool {
    let mut soc_rows = table
        .rows
        .iter()
        .filter(|row| row.detector == "cfd-soc")
        .peekable();
    soc_rows.peek().is_some()
        && soc_rows.all(|soc| {
            table
                .row("cfd", soc.snr_db)
                .is_some_and(|cfd| (cfd.pd, cfd.pfa, cfd.trials) == (soc.pd, soc.pfa, soc.trials))
        })
}
