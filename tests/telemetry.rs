//! Pins the telemetry cost model and the sweep engine's metric contract:
//!
//! * **no-op mode** — with timing disabled (the default), running a full
//!   sweep records *nothing* into any latency histogram, while throughput
//!   counters still advance (counters are always-live so cache-contract
//!   tests like `shared_spectra.rs` work without enabling telemetry);
//! * **enabled mode** — with timing enabled, one sweep over the SoC-backed
//!   roster fills every per-stage histogram of the pipeline (FFT, DSCF
//!   spectra + accumulate, decide, sweep cells), while the SoC correlator
//!   stays idle: the SoC session decides from the roster's shared DSCF;
//! * **snapshot determinism** — the throughput counters advance by the
//!   same amount whether the sweep runs serially or with three workers:
//!   worker count is an execution detail, not a metric;
//! * **one accumulation per observation** — a CFD next to a matrix reader
//!   runs the DSCF once per observation in steady state
//!   (`dsp.scf.segment_runs`).
//!
//! This lives in its own integration-test binary, as **one** `#[test]`, on
//! purpose: the metric registry is process-global and `set_enabled` is a
//! process-global switch, so delta measurements must not race other tests
//! in the same process.

use cfd_core::app::{CfdApplication, Platform};
use cfd_core::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfParams;
use cfd_scenario::prelude::*;
use cfd_telemetry::MetricsSnapshot;

fn params() -> ScfParams {
    ScfParams::new(32, 7, 16).unwrap()
}

/// Histogram count in a snapshot (0 when the histogram does not exist yet).
fn hcount(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.histogram(name).map_or(0, |h| h.count)
}

/// Every per-stage latency histogram the pipeline feeds on any sweep path.
const STAGES: [&str; 5] = [
    "dsp.fft.forward_ns",
    "dsp.scf.spectra_ns",
    "dsp.scf.accumulate_ns",
    "core.decide.cfd_ns",
    "core.decide.cfd_soc_ns",
];

#[test]
fn telemetry_is_inert_by_default_and_covers_every_stage_when_enabled() {
    let len = params().samples_needed();
    let scenario = RadioScenario::preset("bpsk-awgn", len)
        .expect("built-in preset")
        .with_seed(29);
    let points = 2usize;
    let trials = 4usize;
    let sweep = SnrSweep::new(vec![-5.0, 5.0], trials).unwrap();
    // One shared H0 pass plus one H1 pass per SNR point.
    let observations = (points + 1) * trials;

    // A golden-model CFD plus a tiled-SoC session: between them they touch
    // every stage histogram in `STAGES`.
    let run_sweep = |workers: usize| {
        SweepBuilder::new(&scenario)
            .sweep(sweep.clone())
            .backend(CyclostationaryDetector::new(params(), 0.35, 1).unwrap())
            .backend(SessionRecipe::new(
                CfdApplication::new(32, 7, 16).unwrap(),
                &Platform::paper(),
                0.35,
                1,
            ))
            .workers(workers)
            .run()
            .unwrap()
    };

    // --- 1. No-op mode: timing off records nothing, counters advance ----
    assert!(
        !cfd_telemetry::enabled(),
        "timing must be off unless a binary opts in"
    );
    let before = cfd_telemetry::registry().snapshot();
    let table_disabled = run_sweep(1);
    let after = cfd_telemetry::registry().snapshot();
    for stage in STAGES {
        assert_eq!(
            hcount(&after, stage),
            hcount(&before, stage),
            "disabled telemetry must not record into {stage}"
        );
    }
    let trials_counter = |s: &MetricsSnapshot| s.counter("scenario.sweep.trials").unwrap_or(0);
    let spectra_counter = |s: &MetricsSnapshot| {
        s.counter("core.observation.spectra_computations")
            .unwrap_or(0)
    };
    assert_eq!(
        trials_counter(&after) - trials_counter(&before),
        observations as u64,
        "throughput counters stay live in no-op mode"
    );
    assert_eq!(
        spectra_counter(&after) - spectra_counter(&before),
        observations as u64,
        "cache counters stay live in no-op mode"
    );

    // --- 2. Enabled mode: one sweep fills every stage histogram ---------
    cfd_telemetry::set_enabled(true);
    let before = after;
    let table_serial = run_sweep(1);
    let mid = cfd_telemetry::registry().snapshot();
    for stage in STAGES {
        assert!(
            hcount(&mid, stage) > hcount(&before, stage),
            "enabled telemetry must record into {stage}"
        );
    }
    assert!(hcount(&mid, "scenario.sweep.run_ns") > hcount(&before, "scenario.sweep.run_ns"));

    // --- 3. Snapshot determinism: worker count is not a metric ----------
    let table_parallel = run_sweep(3);
    let after = cfd_telemetry::registry().snapshot();
    // Both engines time per-cell work; the parallel one also times queue
    // waits.
    assert!(
        hcount(&after, "scenario.sweep.cell_ns") > hcount(&mid, "scenario.sweep.cell_ns"),
        "parallel sweeps time each work cell"
    );
    assert_eq!(
        trials_counter(&mid) - trials_counter(&before),
        trials_counter(&after) - trials_counter(&mid),
        "serial and parallel sweeps must count the same trials"
    );
    assert_eq!(
        spectra_counter(&mid) - spectra_counter(&before),
        spectra_counter(&after) - spectra_counter(&mid),
        "serial and parallel sweeps must compute the same spectra"
    );
    // And the tables themselves stay bit-identical across all three runs.
    assert_eq!(table_serial, table_parallel);
    assert_eq!(table_serial, table_disabled);

    // --- 4. Unit-stride instruments (PR 7): the sweep above ran the
    // engine's row kernel, so the row-run counter advanced and
    // the per-scale accumulate histogram for its 15x15 grid exists -------
    let seg_counter = |s: &MetricsSnapshot| s.counter("dsp.scf.segment_runs").unwrap_or(0);
    assert!(
        seg_counter(&after) > seg_counter(&before),
        "the engine counts its contiguous segment passes"
    );
    assert!(
        hcount(&after, "dsp.scf.accumulate_ns.g15") > 0,
        "enabled telemetry records the per-scale accumulate histogram"
    );

    // --- 5. The SoC correlator: the sweeps above decided the SoC session
    // from the observation's shared DSCF, so they never ran it; a direct
    // spectra-fed run times it and counts one run -----------------------
    assert_eq!(
        hcount(&after, "soc.correlate_ns"),
        hcount(&before, "soc.correlate_ns"),
        "a CFD + SoC roster computes the DSCF once, outside the SoC"
    );
    let soc_params = ScfParams::new(64, 15, 3).unwrap();
    let signal = cfd_dsp::signal::awgn(soc_params.samples_needed(), 1.0, 11);
    let spectra = cfd_dsp::scf::ScfEngine::new(soc_params)
        .unwrap()
        .compute_spectra(&signal)
        .unwrap();
    let analytic_soc = || {
        use tiled_soc::config::{ExecutionMode, SocConfig};
        let config = SocConfig::paper()
            .with_tiles(4)
            .with_mode(ExecutionMode::Analytic);
        tiled_soc::soc::TiledSoc::new(config, 15, 64).unwrap()
    };
    let soc_counter = |s: &MetricsSnapshot, name: &str| s.counter(name).unwrap_or(0);
    let soc_before = cfd_telemetry::registry().snapshot();
    let fed = analytic_soc().run_from_spectra(&spectra).unwrap();
    let from_samples = analytic_soc().run(&signal, 3).unwrap();
    let soc_after = cfd_telemetry::registry().snapshot();
    assert_eq!(
        hcount(&soc_after, "soc.correlate_ns") - hcount(&soc_before, "soc.correlate_ns"),
        1,
        "a spectra-fed run is timed as the SoC correlator"
    );
    for runs in ["soc.runs.spectra_fed", "soc.runs.analytic"] {
        assert_eq!(
            soc_counter(&soc_after, runs) - soc_counter(&soc_before, runs),
            1,
            "{runs} counts one run"
        );
    }
    assert_eq!(fed, from_samples);

    // --- 6. The snapshot JSON document is schema-versioned --------------
    let json = after.to_json();
    assert!(json.starts_with(&format!(
        "{{\"schema\":{},",
        cfd_telemetry::METRICS_JSON_SCHEMA
    )));
    let doc = cfd_telemetry::json::parse(&json).expect("snapshot emits valid JSON");
    assert_eq!(
        doc.pointer(&["schema"]).and_then(|v| v.as_f64()),
        Some(cfd_telemetry::METRICS_JSON_SCHEMA as f64)
    );
    assert!(
        doc.pointer(&["histograms", "dsp.fft.forward_ns", "count"])
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
            > 0.0,
        "stage histograms survive the JSON round-trip"
    );

    // --- 7. Streaming instruments (PR 8): a StreamingSensor splits its
    // hops into incremental adds and exact refreshes. The split counters
    // and the ring-occupancy gauge are always-live; the decide/refresh
    // latency histograms record only when timing is enabled --------------
    let stream_params = ScfParams::new(32, 7, 4).unwrap();
    // 10 blocks at the default hop (= fft_len): 7 decisions, of which
    // hops 0, 3 and 6 are exact refreshes (R = 3) and 4 are incremental.
    let run_stream = || {
        let config = StreamingConfig::new(stream_params.clone()).with_refresh_interval(3);
        let detector = CyclostationaryDetector::new(stream_params.clone(), 0.35, 1).unwrap();
        let mut sensor = StreamingSensor::new(config, detector).unwrap();
        let samples = cfd_dsp::signal::awgn(stream_params.samples_needed() + 6 * 32, 1.0, 23);
        let decisions = sensor.push(&samples).unwrap();
        assert_eq!(decisions.len(), 7);
        assert_eq!(sensor.incremental_hops(), 4);
        assert_eq!(sensor.exact_refreshes(), 3);
    };
    let stream_counter =
        |s: &MetricsSnapshot, name: &str| s.counter(&format!("stream.{name}")).unwrap_or(0);

    cfd_telemetry::set_enabled(false);
    let before = cfd_telemetry::registry().snapshot();
    run_stream();
    let mid = cfd_telemetry::registry().snapshot();
    for hist in ["stream.decide_ns", "stream.refresh_ns"] {
        assert_eq!(
            hcount(&mid, hist),
            hcount(&before, hist),
            "disabled telemetry must not record into {hist}"
        );
    }
    assert_eq!(
        stream_counter(&mid, "incremental_hops") - stream_counter(&before, "incremental_hops"),
        4,
        "the hop-split counters stay live in no-op mode"
    );
    assert_eq!(
        stream_counter(&mid, "exact_refreshes") - stream_counter(&before, "exact_refreshes"),
        3
    );
    assert_eq!(
        mid.gauge("stream.ring_occupancy"),
        Some(4.0),
        "the ring holds a full window after warm-up"
    );

    cfd_telemetry::set_enabled(true);
    run_stream();
    let after = cfd_telemetry::registry().snapshot();
    assert_eq!(
        hcount(&after, "stream.decide_ns") - hcount(&mid, "stream.decide_ns"),
        7,
        "every decision hop is timed when telemetry is on"
    );
    assert_eq!(
        hcount(&after, "stream.refresh_ns") - hcount(&mid, "stream.refresh_ns"),
        3,
        "only exact-refresh hops feed the refresh histogram"
    );
    assert_eq!(
        stream_counter(&after, "incremental_hops") - stream_counter(&mid, "incremental_hops"),
        4
    );
    assert_eq!(
        stream_counter(&after, "exact_refreshes") - stream_counter(&mid, "exact_refreshes"),
        3
    );

    // --- 8. Service instruments (PR 9): a SensingScheduler counts hops,
    // decisions and drops always-live, reports its fleet shape through
    // gauges, and times hop processing / queue waits only when enabled ---
    // 3 channels x 6 hops of one 32-sample block each; window = 4 blocks,
    // so each channel decides on hops 4..6: 18 hops, 9 decisions, 0 drops.
    let service_params = ScfParams::new(32, 7, 4).unwrap();
    let run_service = || {
        let mut builder = cfd_core::SensingScheduler::builder(cfd_core::ServiceConfig::new(2));
        let log = cfd_core::service::DecisionLog::new();
        for channel in 0..3u64 {
            builder = builder.subscribe(cfd_core::ChannelSubscription::new(
                channel,
                StreamingConfig::new(service_params.clone()),
                CyclostationaryDetector::new(service_params.clone(), 0.35, 1).unwrap(),
                log.clone(),
            ));
        }
        let scheduler = builder.spawn().unwrap();
        let samples = cfd_dsp::signal::awgn(32, 1.0, 31);
        for _hop in 0..6 {
            for channel in 0..3u64 {
                scheduler.push(channel, &samples).unwrap();
            }
        }
        let report = scheduler.join().unwrap();
        assert_eq!((report.hops, report.decisions, report.drops), (18, 9, 0));
        assert_eq!(log.len(), 9);
    };
    let service_counter =
        |s: &MetricsSnapshot, name: &str| s.counter(&format!("service.{name}")).unwrap_or(0);

    cfd_telemetry::set_enabled(false);
    let before = cfd_telemetry::registry().snapshot();
    run_service();
    let mid = cfd_telemetry::registry().snapshot();
    for hist in ["service.hop_ns", "service.queue_wait_ns"] {
        assert_eq!(
            hcount(&mid, hist),
            hcount(&before, hist),
            "disabled telemetry must not record into {hist}"
        );
    }
    assert_eq!(
        service_counter(&mid, "hops") - service_counter(&before, "hops"),
        18,
        "the service throughput counters stay live in no-op mode"
    );
    assert_eq!(
        service_counter(&mid, "decisions") - service_counter(&before, "decisions"),
        9
    );
    assert_eq!(
        service_counter(&mid, "drops") - service_counter(&before, "drops"),
        0,
        "Block backpressure must not shed"
    );
    assert_eq!(
        (mid.gauge("service.channels"), mid.gauge("service.workers")),
        (Some(3.0), Some(2.0)),
        "the fleet-shape gauges report the most recent spawn"
    );
    assert_eq!(
        mid.gauge("service.queue_occupancy"),
        Some(0.0),
        "a joined scheduler leaves its ingress queues drained"
    );

    cfd_telemetry::set_enabled(true);
    run_service();
    let after = cfd_telemetry::registry().snapshot();
    assert_eq!(
        hcount(&after, "service.hop_ns") - hcount(&mid, "service.hop_ns"),
        18,
        "every processed hop is timed when telemetry is on"
    );
    assert!(
        hcount(&after, "service.queue_wait_ns") > hcount(&mid, "service.queue_wait_ns"),
        "workers time the waits on their shard queues"
    );
    assert_eq!(
        service_counter(&after, "decisions") - service_counter(&mid, "decisions"),
        9
    );

    // --- 9. Fusion instruments (PR 10): one fused decision of a
    // two-member fleet counts one fused and two member decisions ---------
    let fusion_counter =
        |s: &MetricsSnapshot, name: &str| s.counter(&format!("fusion.{name}")).unwrap_or(0);
    let mut fleet = cfd_core::FusionCenter::new(cfd_core::FusionRule::Or)
        .with_member(CyclostationaryDetector::new(params(), 0.35, 1).unwrap())
        .with_member(CyclostationaryDetector::new(params(), 0.35, 1).unwrap());
    let samples = scenario
        .at_snr(10.0)
        .observe(Hypothesis::Occupied, 0)
        .unwrap()
        .samples;
    let before = cfd_telemetry::registry().snapshot();
    fleet
        .decide(&mut cfd_core::Observation::from_samples(samples))
        .unwrap();
    let after = cfd_telemetry::registry().snapshot();
    assert_eq!(
        fusion_counter(&after, "decisions") - fusion_counter(&before, "decisions"),
        1
    );
    assert_eq!(
        fusion_counter(&after, "member_decisions") - fusion_counter(&before, "member_decisions"),
        2
    );

    // --- 10. Fused batch profile: a CFD alone folds its profile out of
    // the DSCF bands (one accumulation, no matrix); next to a matrix
    // reader the slot materialises on its profile miss from the second
    // observation on, so the roster accumulates once per observation ----
    let segment_runs = || cfd_telemetry::counter("dsp.scf.segment_runs").value();
    let engine = cfd_dsp::scf::ScfEngine::new(params()).unwrap();
    let mut cfd = CyclostationaryDetector::new(params(), 0.35, 1).unwrap();
    let observe = |trial: usize| {
        let observed = scenario.at_snr(0.0).observe(Hypothesis::Occupied, trial);
        observed.unwrap().samples
    };
    let mut observation = cfd_core::Observation::from_samples(observe(1));
    let start = segment_runs();
    cfd.decide(&mut observation).unwrap();
    let per_pass = segment_runs() - start;
    assert!(per_pass > 0);
    assert_eq!(
        observation.scf_requests(),
        0,
        "a CFD alone requests no matrix"
    );
    for trial in 0..4usize {
        observation.load(&observe(2 + trial));
        let start = segment_runs();
        cfd.decide(&mut observation).unwrap();
        observation.scf_for(&engine).unwrap();
        let passes = (segment_runs() - start) / per_pass;
        let expected = if trial == 0 { 2 } else { 1 };
        assert_eq!(
            passes, expected,
            "observation {trial}: DSCF accumulations of a CFD + matrix-reader roster"
        );
    }
}
