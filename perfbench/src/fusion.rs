//! `fusion-coop`: the fused-decision path.
//!
//! Repeated `CooperativeSweep` runs over Markov occupancy traces at the
//! paper grid, single-threaded. The backend is a 4-member OR
//! `FusionCenter`; each member is a CFD behind its own 8 dB log-normal
//! shadowing overlay. The overlays are bench-owned `MemberChannel`
//! closures: they time themselves and, on sampled slots, keep the samples
//! each member received, so the bench can recount the vote with a
//! standalone CFD. Every member decides its own impaired samples, so the
//! observation cache never shares a DSCF here.
//!
//! Each cooperative run is timed in the calling thread's CPU time and
//! scaled to the reference speed by a kernel reading taken right after it
//! (see [`crate::pace`]).

use crate::layers::common_layers;
use crate::ledger::{ratio, Ledger, Trace};
use crate::pace::{scaled_wall, thread_cpu_ns, Pace};
use crate::report::{
    mean_us, median, quantile, quantile_us, scaled_median_us, total_s, Outcome, Throughput,
};
use crate::timing::{nanos_since, Durations};
use cfd_core::backend::{BackendRecipe, Decision, Observation, SensingBackend};
use cfd_core::error::CfdError;
use cfd_core::fusion::{FusionCenter, FusionRule, MemberChannel};
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfParams;
use cfd_scenario::{
    ActivityModel, ChannelPipeline, ChannelStage, CooperativeSweep, Hypothesis, RadioScenario,
    ScenarioError,
};
use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Member sensors of the fleet.
pub const MEMBERS: usize = 4;
/// Log-normal shadowing of every member's link, in dB.
pub const SIGMA_DB: f64 = 8.0;
/// SNR of the licensed user before shadowing.
pub const SNR_DB: f64 = 0.0;
/// Slots of one cooperative run.
pub const SLOTS_PER_RUN: usize = 32;
/// Every `SAMPLE_EVERY`-th fused decision of a run is recounted.
pub const SAMPLE_EVERY: u64 = 16;
/// Occupancy persistence per slot (active and idle).
const STAY: f64 = 0.9;
/// Runs whose slots are replayed to time `RadioScenario::observe`.
const OBSERVE_RUNS: u64 = 4;
/// Threshold of every member CFD.
const THRESHOLD: f64 = 0.35;

/// The paper grid: 256-point FFT, 127×127 DSCF, 8 blocks.
pub fn params() -> ScfParams {
    ScfParams::paper_256_with_blocks(8)
}

fn cfd() -> CyclostationaryDetector {
    CyclostationaryDetector::new(params(), THRESHOLD, 1).expect("fixed member CFD")
}

fn run_seed(seed: u64, run: u64) -> u64 {
    seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ run
}

fn scenario(seed: u64, run: u64) -> RadioScenario {
    RadioScenario::preset("bpsk-awgn", params().samples_needed())
        .expect("bpsk-awgn is a built-in preset")
        .with_seed(run_seed(seed, run))
        .at_snr(SNR_DB)
}

/// The scenario and occupancy trace of run number `run` seeded `seed`.
pub fn cooperative(seed: u64, run: u64) -> Result<CooperativeSweep, ScenarioError> {
    Ok(CooperativeSweep::new(
        &scenario(seed, run),
        ActivityModel::bursty(STAY, STAY)?,
        SLOTS_PER_RUN,
    )?
    .with_seed(run_seed(seed, run).rotate_left(17)))
}

/// What the overlays and the fused-decide wrapper share.
struct Probe {
    overlays: Mutex<Overlays>,
    fused: Durations,
}

#[derive(Default)]
struct Overlays {
    /// Whether every overlay duration is kept (traced runs only, so an
    /// untraced run's memory does not grow with the work it timed).
    keep: bool,
    durations: Vec<u64>,
    capture: bool,
    captured: Vec<Vec<Cplx>>,
}

impl Probe {
    /// A probe keeping every sample (`keep_samples`), or only per-run
    /// medians of the fused decide.
    fn new(keep_samples: bool) -> Arc<Self> {
        Arc::new(Probe {
            overlays: Mutex::new(Overlays {
                keep: keep_samples,
                ..Overlays::default()
            }),
            fused: if keep_samples {
                Durations::default()
            } else {
                Durations::medians_only()
            },
        })
    }

    fn overlays(&self) -> std::sync::MutexGuard<'_, Overlays> {
        self.overlays.lock().expect("overlay log never poisoned")
    }
}

/// A member's shadowing overlay: `ChannelPipeline::impair`, timed, and
/// recorded while the probe captures.
fn overlay(probe: &Arc<Probe>) -> MemberChannel {
    let pipeline = ChannelPipeline::new(vec![ChannelStage::LogNormalShadowing {
        sigma_db: SIGMA_DB,
        noise_power: 1.0,
    }]);
    let probe = Arc::clone(probe);
    MemberChannel::new(move |samples, seed| {
        let start = Instant::now();
        let received = pipeline
            .impair(samples.to_vec(), seed)
            .expect("the shadowing overlay is valid");
        let ns = nanos_since(start);
        let mut log = probe.overlays();
        if log.keep {
            log.durations.push(ns);
        }
        if log.capture {
            log.captured.push(received.clone());
        }
        received
    })
}

fn fleet(probe: &Arc<Probe>) -> FusionCenter {
    (0..MEMBERS).fold(FusionCenter::new(FusionRule::Or), |fleet, _| {
        fleet.with_impaired_member(cfd(), overlay(probe))
    })
}

/// A fused decision on a sampled slot and what each member received.
pub struct Sample {
    fused: Decision,
    members: Vec<Vec<Cplx>>,
}

/// The fleet as a recipe whose replicas time every fused decide and keep
/// a [`Sample`] of every [`SAMPLE_EVERY`]-th one.
struct Probed {
    fleet: FusionCenter,
    probe: Arc<Probe>,
    samples: Arc<Mutex<Vec<Sample>>>,
}

impl BackendRecipe for Probed {
    fn label(&self) -> String {
        SensingBackend::label(&self.fleet)
    }

    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError> {
        Ok(Box::new(ProbedBackend {
            inner: self.fleet.build()?,
            probe: Arc::clone(&self.probe),
            samples: Arc::clone(&self.samples),
            calls: 0,
            durations: Vec::new(),
        }))
    }
}

struct ProbedBackend {
    inner: Box<dyn SensingBackend + Send>,
    probe: Arc<Probe>,
    samples: Arc<Mutex<Vec<Sample>>>,
    calls: u64,
    durations: Vec<u64>,
}

impl SensingBackend for ProbedBackend {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let sampled = self.calls.is_multiple_of(SAMPLE_EVERY);
        self.calls += 1;
        self.probe.overlays().capture = sampled;
        let start = Instant::now();
        let decision = self.inner.decide(observation);
        self.durations.push(nanos_since(start));
        if sampled {
            let mut log = self.probe.overlays();
            log.capture = false;
            let members = std::mem::take(&mut log.captured);
            if let Ok(fused) = &decision {
                self.samples
                    .lock()
                    .expect("sample log never poisoned")
                    .push(Sample {
                        fused: fused.clone(),
                        members,
                    });
            }
        }
        decision
    }
}

impl Drop for ProbedBackend {
    fn drop(&mut self) {
        self.probe
            .fused
            .push_chunk(std::mem::take(&mut self.durations));
    }
}

/// Whether a fused OR verdict equals the bench's own vote count: every
/// member's received samples decided by a standalone CFD.
///
/// # Errors
///
/// Propagates the standalone CFD's errors.
pub fn fused_verdict_holds(
    sample: Sample,
    detector: &mut CyclostationaryDetector,
) -> Result<bool, CfdError> {
    if sample.members.len() != MEMBERS {
        return Ok(false);
    }
    let mut votes = 0usize;
    for samples in sample.members {
        let mut observation = Observation::from_samples(samples);
        if SensingBackend::decide(detector, &mut observation)?.is_signal() {
            votes += 1;
        }
    }
    Ok(sample.fused.statistic == votes as f64 && sample.fused.is_signal() == (votes >= 1))
}

/// Cooperative runs of one measured stretch.
struct Runs {
    done: Throughput,
    /// Each run's scale factor to the reference speed, in run order (the
    /// order in which the fused-decide timer receives its chunks).
    factors: Vec<f64>,
    /// Wall seconds inside the runs, which the ledger books.
    wall_s: f64,
}

/// Cooperative runs for `seconds` of wall time, one slice per run; sampled
/// verdicts are recounted after each run, outside its timed region.
fn run_for(
    seed: u64,
    first: u64,
    seconds: f64,
    probe: &Arc<Probe>,
    pace: &mut Pace,
    setups: &mut Vec<f64>,
    outcome: &mut Outcome,
) -> Result<Runs, Box<dyn Error>> {
    let samples = Arc::new(Mutex::new(Vec::new()));
    let recipe = Probed {
        fleet: fleet(probe),
        probe: Arc::clone(probe),
        samples: Arc::clone(&samples),
    };
    let mut detector = cfd();
    let mut runs = Runs {
        done: Throughput::default(),
        factors: Vec::new(),
        wall_s: 0.0,
    };
    let begin = Instant::now();
    loop {
        let done = &mut runs.done;
        let sweep = cooperative(seed, first.wrapping_add(done.slices))?;
        outcome.attempted += SLOTS_PER_RUN as u64;
        let (wall, cpu) = (Instant::now(), thread_cpu_ns());
        let report = sweep.run(&recipe);
        let cpu_s = thread_cpu_ns().saturating_sub(cpu) as f64 / 1e9;
        runs.wall_s += wall.elapsed().as_secs_f64();
        if let Err(error) = report {
            outcome.failed += SLOTS_PER_RUN as u64;
            outcome
                .notes
                .push(format!("cooperative run error: {error}"));
            return Ok(runs);
        }
        let factor = pace.factor();
        done.record(SLOTS_PER_RUN as u64, cpu_s, factor);
        runs.factors.push(factor);
        // The recount's own CFD decides stay out of a traced window's
        // layer times: they run outside the run wall the ledger books.
        let tracing = cfd_telemetry::enabled();
        cfd_telemetry::set_enabled(false);
        let taken = std::mem::take(&mut *samples.lock().expect("sample log never poisoned"));
        for sample in taken {
            if !fused_verdict_holds(sample, &mut detector)? {
                outcome.failed += 1;
            }
        }
        setups.push(build_fleet(pace)?);
        cfd_telemetry::set_enabled(tracing);
        if begin.elapsed().as_secs_f64() >= seconds {
            return Ok(runs);
        }
    }
}

/// Builds the fleet as the first decision would: four member CFDs, the
/// fusion center, its replica and one replica per member, and returns the
/// time at the reference speed. Timed once after every run, so the median
/// spans the whole measurement rather than the host's state in its first
/// milliseconds.
fn build_fleet(pace: &mut Pace) -> Result<f64, Box<dyn Error>> {
    let probe = Probe::new(true);
    let (built, seconds) = scaled_wall(pace, || -> Result<_, Box<dyn Error>> {
        let fleet = fleet(&probe);
        let replica = fleet.build()?;
        let members = (0..MEMBERS)
            .map(|_| cfd().build())
            .collect::<Result<Vec<_>, _>>()?;
        Ok((replica, members))
    })?;
    drop(built);
    Ok(seconds)
}

/// Runs the workload.
///
/// # Errors
///
/// Scenario construction failures outside the timed runs.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, Box<dyn Error>> {
    let mut setups = Vec::new();
    let mut outcome = Outcome::default();
    let mut pace = Pace::new();
    // One untimed run fills caches and finishes lazy set-up.
    run_for(
        seed,
        u64::MAX,
        0.0,
        &Probe::new(false),
        &mut pace,
        &mut Vec::new(),
        &mut Outcome::default(),
    )?;

    let untraced = Probe::new(trace);
    let share = if trace { 0.5 } else { 1.0 };
    let mut plain = run_for(
        seed,
        0,
        seconds * share,
        &untraced,
        &mut pace,
        &mut setups,
        &mut outcome,
    )?;
    let decisions_per_s = plain.done.rate();
    let fused = untraced.fused.take_chunks();
    let mut fused_p50s: Vec<f64> = fused
        .iter()
        .zip(&plain.factors)
        .map(|(chunk, &factor)| scaled_median_us(chunk, factor))
        .collect();
    let metrics = &mut outcome.metrics;
    metrics.set("setup_s", median(&mut setups), "s");
    metrics.set("decisions_per_s", decisions_per_s, "1/s");
    metrics.set("decision_p50_us", median(&mut fused_p50s), "us");
    metrics.set(
        "decision_p99_us",
        quantile_us(&mut fused.concat(), 0.99),
        "us",
    );
    outcome.notes.push(format!(
        "check: every {SAMPLE_EVERY}th fused verdict recounted over {} runs",
        plain.done.slices
    ));
    outcome.notes.push(format!(
        "speed: median scale factor {:.4} over {} runs",
        median(&mut plain.factors.clone()),
        plain.factors.len()
    ));

    if trace {
        let traced = Probe::new(true);
        Trace::begin();
        let window = run_for(
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
        let observe_s = mean_us(&observe) / 1e6 * window.work as f64;
        metrics.set(
            "scenario.observe_us",
            quantile(&mut observe, 0.5) as f64 / 1e3,
            "us",
        );
        layers(&capture, &traced, wall_s, observe_s, &mut outcome);
    }
    Ok(outcome)
}

/// Times `RadioScenario::observe` directly, replaying the slots of runs
/// `first..first + OBSERVE_RUNS` (inside a run, observe is called where no
/// bench timer can reach).
fn time_observe(seed: u64, first: u64) -> Result<Vec<u64>, ScenarioError> {
    let mut durations = Vec::new();
    for run in first..first + OBSERVE_RUNS {
        let scenario = scenario(seed, run);
        for (slot, active) in cooperative(seed, run)?.occupancy().into_iter().enumerate() {
            let hypothesis = if active {
                Hypothesis::Occupied
            } else {
                Hypothesis::Vacant
            };
            let start = Instant::now();
            let observation = scenario.observe(hypothesis, slot)?;
            durations.push(nanos_since(start));
            std::hint::black_box(observation);
        }
    }
    Ok(durations)
}

/// Per-layer metrics and ledger of the traced window.
fn layers(trace: &Trace, probe: &Probe, wall_s: f64, observe_s: f64, outcome: &mut Outcome) {
    let mut fused = probe.fused.take();
    let mut overlays = std::mem::take(&mut probe.overlays().durations);
    let fft = trace.busy_s("dsp.fft.forward_ns");
    let spectra = trace.busy_s("dsp.scf.spectra_ns");
    let accumulate = trace.busy_s("dsp.scf.accumulate_ns");
    let cfd = trace.busy_s("core.decide.cfd_ns");
    let overlay = total_s(&overlays);
    let mut ledger = Ledger::new(wall_s);
    ledger.book("dsp.fft", fft, 0.0);
    ledger.book("dsp.scf.spectra", spectra, fft);
    ledger.book("dsp.scf.accumulate", accumulate, 0.0);
    ledger.book("core.decide.cfd", cfd, spectra + accumulate);
    ledger.book("fusion.overlay", overlay, 0.0);
    ledger.book("fusion.decide", total_s(&fused), overlay + cfd);
    ledger.book_replayed("scenario.observe", observe_s);
    outcome.notes.extend(ledger.render());
    let metrics = &mut outcome.metrics;
    ledger.record(metrics);
    common_layers(trace, metrics, &params());
    metrics.set(
        "core.decide.cfd_us",
        trace.mean_us("core.decide.cfd_ns"),
        "us",
    );
    metrics.set(
        "fusion.decide_us",
        quantile(&mut fused, 0.5) as f64 / 1e3,
        "us",
    );
    metrics.set(
        "fusion.overlay_us",
        quantile(&mut overlays, 0.5) as f64 / 1e3,
        "us",
    );
    let decisions = trace.counter("fusion.decisions") as f64;
    metrics.set(
        "fusion.member_decisions",
        trace.counter("fusion.member_decisions") as f64,
        "count",
    );
    metrics.set(
        "fusion.split_vote_ratio",
        ratio(trace.counter("fusion.split_votes") as f64, decisions),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recipe(probe: &Arc<Probe>, samples: &Arc<Mutex<Vec<Sample>>>) -> Probed {
        Probed {
            fleet: fleet(probe),
            probe: Arc::clone(probe),
            samples: Arc::clone(samples),
        }
    }

    #[test]
    fn same_seed_same_inputs_and_reports() {
        assert_eq!(
            cooperative(2, 0).unwrap().occupancy(),
            cooperative(2, 0).unwrap().occupancy()
        );
        let a = cooperative(2, 0).unwrap();
        let b = cooperative(3, 0).unwrap();
        assert_ne!(
            a.occupancy(),
            b.occupancy(),
            "another seed changes the inputs"
        );
        let probe = Probe::new(true);
        let samples = Arc::new(Mutex::new(Vec::new()));
        let first = a.run(&recipe(&probe, &samples)).unwrap();
        let second = a.run(&recipe(&probe, &samples)).unwrap();
        assert_eq!(first, second);
        assert_eq!(probe.fused.take().len(), 2 * SLOTS_PER_RUN);
        assert_eq!(
            probe.overlays().durations.len(),
            2 * SLOTS_PER_RUN * MEMBERS
        );
    }

    #[test]
    fn the_check_recounts_votes_and_rejects_a_wrong_verdict() {
        let probe = Probe::new(true);
        let samples = Arc::new(Mutex::new(Vec::new()));
        cooperative(4, 0)
            .unwrap()
            .run(&recipe(&probe, &samples))
            .unwrap();
        let taken = std::mem::take(&mut *samples.lock().unwrap());
        assert_eq!(taken.len() as u64, SLOTS_PER_RUN as u64 / SAMPLE_EVERY);
        let mut detector = cfd();
        for sample in taken {
            let members = sample.members.clone();
            let fused = sample.fused.clone();
            assert!(fused_verdict_holds(sample, &mut detector).unwrap());
            let wrong = Sample {
                fused: Decision::new(fused.statistic + 1.0, fused.threshold),
                members,
            };
            assert!(!fused_verdict_holds(wrong, &mut detector).unwrap());
        }
    }
}
