//! `roc-sweep-paper`: the batch decision and the SoC-backed decision.
//!
//! Repeated `SweepBuilder` sweeps of `bpsk-awgn` at the paper grid
//! (256-point FFT, 127×127 DSCF, 8 blocks) over [`SNR_POINTS_DB`] plus the
//! shared H0 pass, with one sweep worker, closed loop. The roster is, in
//! order, the energy detector, the software CFD and the analytic-SoC
//! `SessionRecipe` on `Platform::paper()`, each wrapped in a bench timer.
//! The SoC replica reads the block spectra the CFD left in the
//! observation cache, so its decide is the cache's hit path. Each sweep
//! draws fresh observations from a scenario seeded by the workload seed
//! and the sweep's index.
//!
//! One worker, not two: the two CPUs of the reference host slow down
//! independently of each other, so a two-worker sweep runs at full speed
//! only while both are fast, and its throughput did not repeat within a
//! fifth from run to run (one worker: within a twentieth). With one
//! worker the sweep runs on the calling thread, so each sweep is timed in
//! that thread's CPU time and scaled to the reference speed by a kernel
//! reading taken right after it (see [`crate::pace`]).

use crate::layers::common_layers;
use crate::ledger::{ratio, Ledger, Trace};
use crate::pace::{scaled_wall, thread_cpu_ns, Pace};
use crate::report::{
    mean_us, median, quantile, quantile_us, scaled_median_us, total_s, Outcome, Throughput,
};
use crate::timing::{nanos_since, Durations, Timed};
use cfd_core::backend::{BackendRecipe, Observation, SessionRecipe};
use cfd_core::{CfdApplication, Platform};
use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::ScfParams;
use cfd_scenario::{Hypothesis, RadioScenario, RocTable, ScenarioError, SnrSweep, SweepBuilder};
use std::error::Error;
use std::time::Instant;

/// H1 SNR points of every sweep (the H0 pass is shared by all).
pub const SNR_POINTS_DB: [f64; 3] = [-12.0, -8.0, -4.0];
/// Trials per SNR point and per hypothesis in one sweep.
pub const TRIALS: usize = 16;
/// Sweep workers.
pub const WORKERS: usize = 1;
/// Sweeps whose observations are replayed to time `RadioScenario::observe`.
const OBSERVE_SWEEPS: u64 = 4;
/// Threshold of both cyclostationary roster members.
const THRESHOLD: f64 = 0.35;

/// The paper grid: 256-point FFT, 127×127 DSCF, 8 blocks.
pub fn params() -> ScfParams {
    ScfParams::paper_256_with_blocks(8)
}

/// The scenario of sweep number `sweep` of the run seeded `seed`.
pub fn scenario(seed: u64, sweep: u64) -> RadioScenario {
    RadioScenario::preset("bpsk-awgn", params().samples_needed())
        .expect("bpsk-awgn is a built-in preset")
        .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ sweep)
}

/// Bench-owned decide timers, one per roster member.
#[derive(Default)]
struct Roster {
    energy: Durations,
    cfd: Durations,
    soc: Durations,
}

impl Roster {
    /// Timers keeping only per-replica medians (what an untraced run
    /// reports).
    fn medians_only() -> Self {
        Roster {
            energy: Durations::medians_only(),
            cfd: Durations::medians_only(),
            soc: Durations::medians_only(),
        }
    }
}

fn energy() -> EnergyDetector {
    EnergyDetector::new(1.0, 0.05, params().samples_needed()).expect("fixed energy detector")
}

fn cfd() -> CyclostationaryDetector {
    CyclostationaryDetector::new(params(), THRESHOLD, 1).expect("fixed CFD detector")
}

fn soc() -> SessionRecipe {
    SessionRecipe::new(
        CfdApplication::paper_with_blocks(params().num_blocks),
        &Platform::paper(),
        THRESHOLD,
        1,
    )
}

/// One sweep; returns its table and the calling thread's CPU seconds in
/// `run` (one worker runs the sweep on the calling thread).
fn sweep_once(seed: u64, index: u64, roster: &Roster) -> Result<(RocTable, f64), ScenarioError> {
    let scenario = scenario(seed, index);
    let builder = SweepBuilder::new(&scenario)
        .sweep(SnrSweep::new(SNR_POINTS_DB.to_vec(), TRIALS)?)
        .backend(Timed::new(energy(), roster.energy.clone()))
        .backend(Timed::new(cfd(), roster.cfd.clone()))
        .backend(Timed::new(soc(), roster.soc.clone()))
        .workers(WORKERS);
    let start = thread_cpu_ns();
    let table = builder.run()?;
    Ok((table, thread_cpu_ns().saturating_sub(start) as f64 / 1e9))
}

/// Roster decisions of one sweep: every backend on every H1 trial and on
/// the shared H0 pass.
const DECISIONS_PER_SWEEP: u64 = ((SNR_POINTS_DB.len() + 1) * TRIALS * 3) as u64;

/// Decisions on which the `cfd-soc` rows disagree with the `cfd` rows
/// (same DSCF, same statistic, so they must agree exactly): the Pd gap of
/// every SNR row plus the shared Pfa gap, in trials.
pub fn row_mismatches(table: &RocTable, trials: usize) -> u64 {
    let trials = trials as f64;
    let mut mismatches = 0.0;
    let mut pfa_checked = false;
    for row in table.rows.iter().filter(|row| row.detector == "cfd") {
        match table.row("cfd-soc", row.snr_db) {
            Some(soc) => {
                mismatches += ((row.pd - soc.pd).abs() * trials).round();
                if !pfa_checked {
                    mismatches += ((row.pfa - soc.pfa).abs() * trials).round();
                    pfa_checked = true;
                }
            }
            None => mismatches += trials,
        }
    }
    if !pfa_checked {
        mismatches += trials;
    }
    mismatches as u64
}

/// Sweeps of one measured stretch.
struct Sweeps {
    done: Throughput,
    /// Each sweep's scale factor to the reference speed, in sweep order
    /// (the order in which the roster's timers receive their chunks).
    factors: Vec<f64>,
    /// Wall seconds inside the sweeps' `run`, which the ledger books.
    wall_s: f64,
}

/// Sweeps for `seconds` of wall time, one slice per sweep; each table is
/// checked after its sweep, outside the timed `run`.
fn sweep_for(
    seed: u64,
    first: u64,
    seconds: f64,
    roster: &Roster,
    pace: &mut Pace,
    setups: &mut Vec<f64>,
    outcome: &mut Outcome,
) -> Result<Sweeps, Box<dyn Error>> {
    let mut sweeps = Sweeps {
        done: Throughput::default(),
        factors: Vec::new(),
        wall_s: 0.0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let done = &mut sweeps.done;
        outcome.attempted += DECISIONS_PER_SWEEP;
        let wall = Instant::now();
        let swept = sweep_once(seed, first + done.slices, roster);
        sweeps.wall_s += wall.elapsed().as_secs_f64();
        match swept {
            Ok((table, cpu_s)) => {
                let factor = pace.factor();
                done.record(DECISIONS_PER_SWEEP, cpu_s, factor);
                sweeps.factors.push(factor);
                outcome.failed += row_mismatches(&table, TRIALS);
            }
            Err(error) => {
                outcome.failed += DECISIONS_PER_SWEEP;
                outcome.notes.push(format!("sweep error: {error}"));
                break;
            }
        }
        setups.push(build_roster(pace)?);
    }
    Ok(sweeps)
}

/// Builds one replica of every roster member, as each sweep worker does,
/// and returns the time at the reference speed. Timed once after every
/// sweep, so the median spans the whole run rather than the host's state
/// in its first milliseconds.
fn build_roster(pace: &mut Pace) -> Result<f64, Box<dyn Error>> {
    let (replicas, seconds) = scaled_wall(pace, || -> Result<_, Box<dyn Error>> {
        Ok([energy().build()?, cfd().build()?, soc().build()?])
    })?;
    drop(replicas);
    Ok(seconds)
}

/// Median of each sweep's SoC decides, scaled by that sweep's factor.
fn scaled_medians_us(chunks: &[Vec<u64>], factors: &[f64]) -> Vec<f64> {
    chunks
        .iter()
        .zip(factors)
        .map(|(chunk, &factor)| scaled_median_us(chunk, factor))
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// Replica construction failures outside the timed sweeps.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, Box<dyn Error>> {
    let mut setups = Vec::new();
    let mut outcome = Outcome::default();
    let mut pace = Pace::new();
    // One untimed sweep fills caches and finishes lazy set-up.
    sweep_once(seed, u64::MAX, &Roster::default())?;

    // A traced run keeps every untraced sample for the p99.
    let untraced = if trace {
        Roster::default()
    } else {
        Roster::medians_only()
    };
    let share = if trace { 0.5 } else { 1.0 };
    let mut plain = sweep_for(
        seed,
        0,
        seconds * share,
        &untraced,
        &mut pace,
        &mut setups,
        &mut outcome,
    )?;
    let decisions_per_s = plain.done.rate();
    let soc_ns = untraced.soc.take_chunks();
    let mut soc_p50s = scaled_medians_us(&soc_ns, &plain.factors);
    let metrics = &mut outcome.metrics;
    metrics.set("setup_s", median(&mut setups), "s");
    metrics.set("decisions_per_s", decisions_per_s, "1/s");
    metrics.set("decision_p50_us", median(&mut soc_p50s), "us");
    metrics.set(
        "decision_p99_us",
        quantile_us(&mut soc_ns.concat(), 0.99),
        "us",
    );
    outcome.notes.push(format!(
        "check: cfd-soc rows equal cfd rows over {} sweeps",
        plain.done.slices
    ));
    outcome.notes.push(format!(
        "speed: median scale factor {:.4} over {} sweeps",
        median(&mut plain.factors.clone()),
        plain.factors.len()
    ));

    if trace {
        let traced = Roster::default();
        Trace::begin();
        let window = sweep_for(
            seed,
            plain.done.slices,
            seconds * 0.5,
            &traced,
            &mut pace,
            &mut Vec::new(),
            &mut outcome,
        )?;
        let wall_s = window.wall_s;
        let mut window = window.done;
        let capture = Trace::capture();
        let mut observe = time_observe(seed, plain.done.slices)?;
        cfd_telemetry::set_enabled(false);
        let metrics = &mut outcome.metrics;
        metrics.set(
            "telemetry.overhead_ratio",
            ratio(decisions_per_s, window.rate()),
            "ratio",
        );
        let observations = window.slices * ((SNR_POINTS_DB.len() + 1) * TRIALS) as u64;
        let observe_mean_s = mean_us(&observe) / 1e6;
        metrics.set(
            "scenario.observe_us",
            quantile(&mut observe, 0.5) as f64 / 1e3,
            "us",
        );
        let soc_cycles = modelled_cycles_per_block(seed)?;
        layers(
            &capture,
            &traced,
            wall_s * WORKERS as f64,
            observe_mean_s * observations as f64,
            soc_cycles,
            &mut outcome,
        );
    }
    Ok(outcome)
}

/// Times `RadioScenario::observe` directly, replaying the observations of
/// sweeps `first..first + OBSERVE_SWEEPS` (inside a sweep, observe runs
/// where no bench timer can reach).
fn time_observe(seed: u64, first: u64) -> Result<Vec<u64>, ScenarioError> {
    let mut durations = Vec::new();
    for index in first..first + OBSERVE_SWEEPS {
        let base = scenario(seed, index);
        let passes = std::iter::once((base.clone(), Hypothesis::Vacant)).chain(
            SNR_POINTS_DB
                .iter()
                .map(|&snr| (base.at_snr(snr), Hypothesis::Occupied)),
        );
        for (source, hypothesis) in passes {
            for trial in 0..TRIALS {
                let start = Instant::now();
                let observation = source.observe(hypothesis, trial)?;
                durations.push(nanos_since(start));
                std::hint::black_box(observation);
            }
        }
    }
    Ok(durations)
}

/// The SoC path's modelled critical-path cycles per block, as its
/// decisions report them.
fn modelled_cycles_per_block(seed: u64) -> Result<f64, Box<dyn Error>> {
    let mut replica = soc().build()?;
    let samples = scenario(seed, u64::MAX)
        .observe(Hypothesis::Vacant, 0)?
        .samples;
    let decision = replica.decide(&mut Observation::from_samples(samples))?;
    let metrics = decision
        .metrics
        .ok_or("the SoC path reports platform metrics")?;
    Ok((metrics.time_per_block_us * Platform::paper().tile.clock_mhz).round())
}

/// Per-layer metrics and ledger of the traced window.
fn layers(
    trace: &Trace,
    roster: &Roster,
    wall_s: f64,
    observe_s: f64,
    soc_cycles: f64,
    outcome: &mut Outcome,
) {
    let mut energy = roster.energy.take();
    let mut cfd = roster.cfd.take();
    let mut soc = roster.soc.take();
    let fft = trace.busy_s("dsp.fft.forward_ns");
    let spectra = trace.busy_s("dsp.scf.spectra_ns");
    let accumulate = trace.busy_s("dsp.scf.accumulate_ns");
    let correlate = trace.busy_s("soc.correlate_ns");
    let queue_wait = trace.busy_s("scenario.sweep.queue_wait_ns");
    let mut ledger = Ledger::new(wall_s);
    ledger.book("dsp.fft", fft, 0.0);
    ledger.book("dsp.scf.spectra", spectra, fft);
    ledger.book("dsp.scf.accumulate", accumulate, 0.0);
    // The CFD is the first roster member to ask for spectra and the DSCF:
    // both are computed inside its decide, the SoC replica hits the cache.
    ledger.book("core.decide.cfd", total_s(&cfd), spectra + accumulate);
    ledger.book("core.decide.energy", total_s(&energy), 0.0);
    ledger.book("soc.correlate", correlate, 0.0);
    ledger.book("soc.decide", total_s(&soc), correlate);
    ledger.book_replayed("scenario.observe", observe_s);
    ledger.book("sweep.queue_wait", queue_wait, 0.0);
    outcome.notes.extend(ledger.render());
    let metrics = &mut outcome.metrics;
    ledger.record(metrics);
    common_layers(trace, metrics, &params());
    metrics.set(
        "core.decide.cfd_us",
        quantile(&mut cfd, 0.5) as f64 / 1e3,
        "us",
    );
    metrics.set(
        "core.decide.energy_us",
        quantile(&mut energy, 0.5) as f64 / 1e3,
        "us",
    );
    metrics.set("soc.decide_us", quantile(&mut soc, 0.5) as f64 / 1e3, "us");
    metrics.set("soc.correlate_busy_s", correlate, "s");
    metrics.set("soc.cycles_per_block", soc_cycles, "cycles");
    metrics.set(
        "soc.host_ns_per_block",
        mean_us(&soc) * 1e3 / params().num_blocks as f64,
        "ns",
    );
    metrics.set("sweep.queue_wait_s", queue_wait, "s");
    metrics.set(
        "sweep.cell_busy_s",
        trace.busy_s("scenario.sweep.cell_ns"),
        "s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_tables() {
        assert_eq!(scenario(3, 0), scenario(3, 0));
        assert_ne!(
            scenario(3, 0),
            scenario(4, 0),
            "another seed changes the inputs"
        );
        assert_ne!(scenario(3, 0), scenario(3, 1));
        let (a, _) = sweep_once(3, 0, &Roster::default()).unwrap();
        let (b, _) = sweep_once(3, 0, &Roster::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(row_mismatches(&a, TRIALS), 0);
    }

    #[test]
    fn timers_see_every_roster_decision() {
        let roster = Roster::default();
        sweep_once(5, 0, &roster).unwrap();
        let per_member = DECISIONS_PER_SWEEP as usize / 3;
        assert_eq!(roster.energy.take().len(), per_member);
        assert_eq!(roster.cfd.take().len(), per_member);
        assert_eq!(roster.soc.take().len(), per_member);
    }

    #[test]
    fn the_check_rejects_a_wrong_decision() {
        let (table, _) = sweep_once(9, 0, &Roster::default()).unwrap();
        let mut wrong = table.clone();
        let row = wrong
            .rows
            .iter_mut()
            .find(|row| row.detector == "cfd-soc")
            .unwrap();
        // One trial decided the other way.
        row.pd = if row.pd > 0.5 {
            row.pd - 1.0 / TRIALS as f64
        } else {
            row.pd + 1.0 / TRIALS as f64
        };
        assert_eq!(row_mismatches(&wrong, TRIALS), 1);
        let mut missing = table;
        missing.rows.retain(|row| row.detector != "cfd-soc");
        assert!(row_mismatches(&missing, TRIALS) > 0);
    }
}
