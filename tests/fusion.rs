//! The acceptance suite for cooperative multi-sensor fusion
//! (`cfd_core::fusion`):
//!
//! * **hard rules are counting** — `Or`/`And` are property-pinned as the
//!   `KOfN(1)`/`KOfN(N)` aliases, and for every `k` the fused verdict
//!   equals counting the per-sensor reference decisions of identically
//!   configured solo detectors over the same observation;
//! * **fused sweeps are deterministic** — a `FusionCenter` with
//!   per-sensor impairment overlays produces a `RocTable` that is
//!   bit-identical for every worker count (the content-fingerprint
//!   seeding makes realisations independent of trial scheduling);
//! * **soft combining is deterministic** — impaired soft-combining fleets
//!   reproduce their decisions bit-for-bit across replicas;
//! * **a fleet is a backend** — the same `FusionCenter` value drops
//!   unchanged into a `SweepBuilder` sweep *and* a `SensingScheduler`
//!   channel, next to (and decision-identical to) serial driving.

use cfd_core::backend::{Decision, Observation, SensingBackend};
use cfd_core::fusion::{FusionCenter, FusionRule, MemberChannel};
use cfd_core::service::{
    Backpressure, ChannelSubscription, DecisionLog, SensingScheduler, ServiceConfig,
};
use cfd_core::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfParams;
use cfd_scenario::channel::{ChannelPipeline, ChannelStage};
use cfd_scenario::prelude::*;
use cfd_scenario::service_traffic::{ServiceTraffic, TrafficEvent};
use proptest::prelude::*;

fn params() -> ScfParams {
    ScfParams::new(32, 7, 8).unwrap()
}

fn cfd(threshold: f64) -> CyclostationaryDetector {
    CyclostationaryDetector::new(params(), threshold, 1).unwrap()
}

/// A shadowing overlay usable as a fusion member channel: the scenario
/// crate's pipeline stages, applied without a base AWGN stage.
fn shadowing(sigma_db: f64) -> MemberChannel {
    let overlay = ChannelPipeline::new(vec![ChannelStage::LogNormalShadowing {
        sigma_db,
        noise_power: 1.0,
    }]);
    MemberChannel::new(move |samples, seed| {
        overlay
            .impair(samples.to_vec(), seed)
            .expect("validated overlay")
    })
}

/// Spread member thresholds around the CFD operating point so mid-SNR
/// observations genuinely split the fleet's votes.
fn member_thresholds(members: usize) -> Vec<f64> {
    (0..members).map(|m| 0.15 + 0.1 * m as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Or` and `And` are exactly `KOfN(1)` and `KOfN(N)`: same verdict,
    /// same fused statistic (the vote count), same threshold, for any
    /// observation and fleet size.
    #[test]
    fn or_and_are_k_of_n_aliases(
        seed in 0u64..1000,
        snr_centi_db in -500i32..1000,
        members in 1usize..5,
    ) {
        let scenario = RadioScenario::preset("bpsk-awgn", params().samples_needed())
            .expect("built-in preset")
            .with_seed(seed)
            .at_snr(snr_centi_db as f64 / 100.0);
        let samples = scenario.observe(Hypothesis::Occupied, 0).unwrap().samples;
        let fleet = |rule| {
            let mut fleet = FusionCenter::new(rule);
            for threshold in member_thresholds(members) {
                fleet = fleet.with_member(cfd(threshold));
            }
            fleet
        };
        let decide = |rule| {
            fleet(rule)
                .decide(&mut Observation::from_samples(samples.clone()))
                .unwrap()
        };
        prop_assert_eq!(decide(FusionRule::Or), decide(FusionRule::KOfN(1)));
        prop_assert_eq!(decide(FusionRule::And), decide(FusionRule::KOfN(members)));
    }

    /// For every quota `k`, the fused verdict equals counting the
    /// per-sensor reference decisions: solo detectors with the members'
    /// configurations, run independently over the same observation.
    #[test]
    fn k_of_n_matches_per_sensor_reference_counting(
        seed in 0u64..1000,
        snr_centi_db in -500i32..1000,
        members in 1usize..5,
    ) {
        let scenario = RadioScenario::preset("bpsk-awgn", params().samples_needed())
            .expect("built-in preset")
            .with_seed(seed)
            .at_snr(snr_centi_db as f64 / 100.0);
        let samples = scenario.observe(Hypothesis::Occupied, 0).unwrap().samples;
        // The reference: each member's solo decision, counted by hand.
        let reference_votes = member_thresholds(members)
            .into_iter()
            .map(|threshold| {
                let mut solo = cfd(threshold);
                let mut observation = Observation::from_samples(samples.clone());
                usize::from(solo.decide(&mut observation).unwrap().is_signal())
            })
            .sum::<usize>();
        for k in 1..=members {
            let mut fleet = FusionCenter::new(FusionRule::KOfN(k));
            for threshold in member_thresholds(members) {
                fleet = fleet.with_member(cfd(threshold));
            }
            let fused = fleet
                .decide(&mut Observation::from_samples(samples.clone()))
                .unwrap();
            prop_assert_eq!(fused.statistic, reference_votes as f64, "k = {}", k);
            prop_assert_eq!(
                fused.is_signal(),
                reference_votes >= k,
                "KOfN({}) must fire iff {} reference votes reach the quota",
                k,
                reference_votes
            );
        }
    }

    /// A fused fleet inside the parallel sweep engine: per-sensor
    /// shadowing realisations are derived from observation content, so
    /// the `RocTable` is bit-identical for every worker count.
    #[test]
    fn fused_sweep_is_identical_across_worker_counts(
        seed in 0u64..1000,
        workers in 2usize..5,
    ) {
        let scenario = RadioScenario::preset("bpsk-awgn", params().samples_needed())
            .expect("built-in preset")
            .with_seed(seed);
        let fleet = FusionCenter::new(FusionRule::Or)
            .with_impaired_member(cfd(0.35), shadowing(6.0))
            .with_impaired_member(cfd(0.35), shadowing(6.0))
            .with_impaired_member(cfd(0.35), shadowing(6.0));
        let run = |workers: usize| {
            SweepBuilder::new(&scenario)
                .sweep(SnrSweep::new(vec![0.0, 8.0], 6).unwrap())
                .backend(fleet.clone())
                .workers(workers)
                .run()
                .unwrap()
        };
        prop_assert_eq!(&run(1), &run(workers), "diverged with {} workers", workers);
    }
}

/// Soft combining over impaired members is deterministic: a replica of
/// the fleet reproduces every decision bit-for-bit, and the fused
/// statistic moves when the observation does.
#[test]
fn soft_combining_is_deterministic_across_replicas() {
    let scenario = RadioScenario::preset("bpsk-awgn", params().samples_needed())
        .unwrap()
        .with_seed(33)
        .at_snr(5.0);
    let mut fleet = FusionCenter::new(FusionRule::SoftCombine { threshold: 0.9 })
        .with_impaired_member(cfd(0.35), shadowing(8.0))
        .with_impaired_member(cfd(0.35), shadowing(8.0))
        .with_member(cfd(0.35));
    let mut replica = fleet.clone();
    let mut statistics = Vec::new();
    for trial in 0..6 {
        let samples = scenario
            .observe(Hypothesis::Occupied, trial)
            .unwrap()
            .samples;
        let a = fleet
            .decide(&mut Observation::from_samples(samples.clone()))
            .unwrap();
        let b = replica
            .decide(&mut Observation::from_samples(samples))
            .unwrap();
        assert_eq!(
            a.statistic.to_bits(),
            b.statistic.to_bits(),
            "trial {trial}"
        );
        assert_eq!(a, b, "trial {trial}");
        statistics.push(a.statistic);
    }
    statistics.dedup();
    assert!(statistics.len() > 1, "statistics must vary across trials");
}

/// The tentpole acceptance test: one `FusionCenter` value works unchanged
/// as a `SweepBuilder` backend *and* as a `SensingScheduler` channel
/// backend, and the scheduler path is decision-identical to serial
/// streaming over the same hops.
#[test]
fn fusion_center_runs_in_sweeps_and_scheduler_channels() {
    let fleet = FusionCenter::new(FusionRule::KOfN(2))
        .with_member(cfd(0.25))
        .with_member(cfd(0.35))
        .with_impaired_member(cfd(0.35), shadowing(4.0));

    // --- In a SweepBuilder sweep, next to a solo detector -------------
    let scenario = RadioScenario::preset("bpsk-awgn", params().samples_needed())
        .unwrap()
        .with_seed(17);
    let table = SweepBuilder::new(&scenario)
        .sweep(SnrSweep::new(vec![10.0], 12).unwrap())
        .backend(cfd(0.35))
        .backend(fleet.clone())
        .workers(3)
        .run()
        .unwrap();
    let fused_row = table
        .row("fusion-2of3(cfd+cfd+cfd)", 10.0)
        .expect("the fleet appears in the table under its fusion label");
    assert!(fused_row.pd > 0.5, "pd = {}", fused_row.pd);
    assert!(table.row("cfd", 10.0).is_some());

    // --- In a SensingScheduler channel --------------------------------
    let fft_len = 32usize;
    let channels = 3usize;
    let events = ServiceTraffic::new("bpsk-awgn", channels, 10, fft_len)
        .unwrap()
        .with_seed(29)
        .at_snr(8.0)
        .synthesize()
        .unwrap();
    let logs: Vec<DecisionLog> = (0..channels).map(|_| DecisionLog::new()).collect();
    let mut builder = SensingScheduler::builder(
        ServiceConfig::new(2)
            .with_queue_capacity(events.len().max(1))
            .with_backpressure(Backpressure::Block),
    );
    for (channel, log) in logs.iter().enumerate() {
        builder = builder.subscribe(ChannelSubscription::new(
            channel as u64,
            StreamingConfig::new(params()),
            fleet.clone(),
            log.clone(),
        ));
    }
    let scheduler = builder.spawn().unwrap();
    for event in &events {
        match event {
            TrafficEvent::Hop {
                channel, samples, ..
            } => scheduler.push(*channel, samples).unwrap(),
            TrafficEvent::Park { channel } => scheduler.park(*channel).unwrap(),
        }
    }
    let report = scheduler.join().unwrap();
    assert_eq!(report.drops, 0);
    let scheduled: Vec<Vec<Decision>> = logs.iter().map(DecisionLog::take).collect();
    assert!(
        scheduled.iter().any(|channel| !channel.is_empty()),
        "the fleet must produce streaming decisions"
    );

    // Serial reference: a StreamingSensor wrapping a fleet replica per
    // channel, fed the same per-channel event order.
    let mut sensors: Vec<StreamingSensor<FusionCenter>> = (0..channels)
        .map(|_| StreamingSensor::new(StreamingConfig::new(params()), fleet.clone()).unwrap())
        .collect();
    let mut serial: Vec<Vec<Decision>> = vec![Vec::new(); channels];
    for event in &events {
        match event {
            TrafficEvent::Hop {
                channel, samples, ..
            } => sensors[*channel as usize]
                .push_into(samples, &mut serial[*channel as usize])
                .unwrap(),
            TrafficEvent::Park { channel } => sensors[*channel as usize].park(),
        }
    }
    for (channel, (a, b)) in scheduled.iter().zip(&serial).enumerate() {
        assert_eq!(a, b, "channel {channel} diverged from serial streaming");
    }
}

/// The quantified shadowing-margin claim (see README "Cooperative
/// sensing"): at 0 dB SNR under 12 dB log-normal shadowing, a 4-sensor
/// OR-fused fleet — each member behind its own independent shadow
/// realisation, thresholds re-calibrated to Pfa 0.1/4 — detects at least
/// 0.25 more of the occupied trials than a single shadowed CFD sensor
/// calibrated to Pfa 0.1, with both false-alarm rates within ±0.06 of
/// the 0.1 budget and within 0.065 of each other.
///
/// The bounds are the expectation minus at least 3 binomial σ at these
/// 400 trials. With these seeds at 8000 trials the single sensor sits at
/// Pd 0.512 / Pfa 0.093 and the fleet at Pd 0.873 / Pfa 0.088 (a 0.36 Pd
/// gain; σ of the gain ≈ 0.03, of each Pfa ≈ 0.015 and of their
/// difference ≈ 0.021 at 400 trials).
/// The sharper "single < 0.5, fleet ≥ 0.9" form is false in expectation
/// on both the ziggurat noise and the noise generator it replaced. Every
/// number here is deterministic: the calibration, the trials and the
/// per-sensor realisations are all seeded, and fused sweeps are
/// worker-count invariant.
#[test]
fn or_fusion_recovers_the_shadowing_margin() {
    let params = ScfParams::new(32, 7, 128).unwrap();
    let cfd128 = |t: f64| CyclostationaryDetector::new(params.clone(), t, 1).unwrap();
    let scenario = RadioScenario::preset("bpsk-awgn", params.samples_needed())
        .unwrap()
        .with_seed(41);
    let sigma_db = 12.0;
    let snr_db = 0.0;
    let target_pfa = 0.1;
    let t_single = calibrate_cfd_threshold(&params, 1, target_pfa, 2000, 7).unwrap();
    let t_member = calibrate_cfd_threshold(&params, 1, target_pfa / 4.0, 2000, 7).unwrap();
    assert!(
        t_member > t_single,
        "the fleet pays a per-sensor threshold premium"
    );

    let single = FusionCenter::new(FusionRule::Or)
        .with_impaired_member(cfd128(t_single), shadowing(sigma_db));
    let mut fleet = FusionCenter::new(FusionRule::Or);
    for _ in 0..4 {
        fleet = fleet.with_impaired_member(cfd128(t_member), shadowing(sigma_db));
    }
    let table = SweepBuilder::new(&scenario)
        .sweep(SnrSweep::new(vec![snr_db], 400).unwrap())
        .backend(single)
        .backend(fleet)
        .workers(4)
        .run()
        .unwrap();
    let single_row = &table.rows[0];
    let fleet_row = &table.rows[1];
    assert!(
        fleet_row.pd - single_row.pd >= 0.25,
        "the 4-sensor OR fleet must gain >= 0.25 Pd over one shadowed sensor, got {} -> {}",
        single_row.pd,
        fleet_row.pd
    );
    for (row, name) in [(single_row, "single"), (fleet_row, "fleet")] {
        assert!(
            (row.pfa - target_pfa).abs() <= 0.06,
            "{name} Pfa {} must match the {target_pfa} budget within 0.06",
            row.pfa
        );
    }
    assert!(
        (fleet_row.pfa - single_row.pfa).abs() <= 0.065,
        "the fleet's Pfa {} must match the single sensor's {} within 0.065",
        fleet_row.pfa,
        single_row.pfa
    );
}
