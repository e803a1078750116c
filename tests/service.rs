//! Pins the many-channel sensing scheduler (`cfd_core::service`) against
//! serial per-channel driving and its backpressure contract:
//!
//! * **decision identity** — for any channel count, worker count 1–4,
//!   backpressure policy (with ample capacity) and hop geometry, the
//!   scheduler's per-channel decision sequence over synthesized
//!   [`ServiceTraffic`] (including Markov park/unpark bursts) is
//!   **bitwise** identical to driving each channel's [`StreamingSensor`]
//!   serially over the same events — sharding and queueing reorder work
//!   across channels, never within one;
//! * **`Block` never drops** — even with a one-slot ingress queue, every
//!   pushed hop is processed (`drops() == 0`, `report.hops == pushed`)
//!   and decisions stay identical to serial driving;
//! * **`DropOldest` drops are exactly accounted** — under a deliberately
//!   slow backend and a tiny queue, `pushed == report.hops +
//!   report.drops` holds exactly, drops are observed (> 0), and the
//!   global `service.drops` telemetry counter advances by exactly
//!   `report.drops` (this is the only test in this binary that sheds, so
//!   the delta is race-free under parallel libtest threads);
//! * **dense channel slots** — a channel whose recipe fails to build
//!   leaves its slot empty: hops and parks addressed to it are skipped,
//!   every other channel stays identical to serial driving, and the build
//!   error surfaces at `join` under the channel's own id;
//! * **shard stability** — [`shard_for`] is pinned to literal values (the
//!   SplitMix64 finaliser is stable across runs, platforms and
//!   subscription order) and [`SensingScheduler::shard_of`] agrees;
//! * **a dead worker never hangs a producer** — when a backend panics,
//!   a `Block` producer waiting on the worker's full queue gets
//!   [`CfdError::WorkerStopped`] within a bounded time, and `join`
//!   re-raises the panic.

use cfd_core::backend::{BackendRecipe, Decision, Observation, SensingBackend};
use cfd_core::error::CfdError;
use cfd_core::service::{
    shard_for, Backpressure, ChannelSubscription, DecisionLog, SensingScheduler, ServiceConfig,
};
use cfd_core::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfParams;
use cfd_scenario::service_traffic::{ActivityModel, ServiceTraffic, TrafficEvent};
use proptest::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Drives the synthesized events through a scheduler and returns each
/// channel's decisions, in hop order.
fn schedule(
    events: &[TrafficEvent],
    channels: usize,
    params: &ScfParams,
    refresh: usize,
    config: ServiceConfig,
) -> (Vec<Vec<Decision>>, u64) {
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let mut builder = SensingScheduler::builder(config);
    let logs: Vec<DecisionLog> = (0..channels).map(|_| DecisionLog::new()).collect();
    for (channel, log) in logs.iter().enumerate() {
        builder = builder.subscribe(ChannelSubscription::new(
            channel as u64,
            StreamingConfig::new(params.clone()).with_refresh_interval(refresh),
            detector.clone(),
            log.clone(),
        ));
    }
    let scheduler = builder.spawn().unwrap();
    for event in events {
        match event {
            TrafficEvent::Hop {
                channel, samples, ..
            } => scheduler.push(*channel, samples).unwrap(),
            TrafficEvent::Park { channel } => scheduler.park(*channel).unwrap(),
        }
    }
    let report = scheduler.join().unwrap();
    (logs.iter().map(DecisionLog::take).collect(), report.drops)
}

/// The serial reference: one [`StreamingSensor`] per channel, fed the same
/// events in the same per-channel order.
fn drive_serially(
    events: &[TrafficEvent],
    channels: usize,
    params: &ScfParams,
    refresh: usize,
) -> Vec<Vec<Decision>> {
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let mut sensors: Vec<StreamingSensor<CyclostationaryDetector>> = (0..channels)
        .map(|_| {
            StreamingSensor::new(
                StreamingConfig::new(params.clone()).with_refresh_interval(refresh),
                detector.clone(),
            )
            .unwrap()
        })
        .collect();
    let mut decisions: Vec<Vec<Decision>> = vec![Vec::new(); channels];
    for event in events {
        match event {
            TrafficEvent::Hop {
                channel, samples, ..
            } => sensors[*channel as usize]
                .push_into(samples, &mut decisions[*channel as usize])
                .unwrap(),
            TrafficEvent::Park { channel } => sensors[*channel as usize].park(),
        }
    }
    decisions
}

fn assert_bitwise_identical(scheduled: &[Vec<Decision>], serial: &[Vec<Decision>]) {
    assert_eq!(scheduled.len(), serial.len());
    for (channel, (a, b)) in scheduled.iter().zip(serial).enumerate() {
        assert_eq!(a.len(), b.len(), "channel {channel} decision count");
        for (hop, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.statistic.to_bits(),
                y.statistic.to_bits(),
                "channel {channel} hop {hop} statistic must be bit-identical"
            );
            assert_eq!(x, y, "channel {channel} hop {hop}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Scheduler output is decision-identical to serial per-channel
    /// driving under common random numbers, for any worker count,
    /// backpressure policy and hop geometry — including bursty traffic
    /// that parks and re-warms channels mid-stream.
    #[test]
    fn scheduler_is_decision_identical_to_serial_driving(
        seed in 0u64..1000,
        channels in 1usize..12,
        workers in 1usize..5,
        fft_pow in 4u32..6,
        window in 2usize..5,
        refresh in 1usize..4,
    ) {
        // The vendored proptest has no bool strategy; derive the policy
        // and burstiness coins from the seed.
        let drop_oldest = seed % 2 == 0;
        let bursty = seed % 3 == 0;
        let fft_len = 1usize << fft_pow;
        let params = ScfParams::new(fft_len, fft_len / 4 - 1, window).unwrap();
        let slots = window + 6;
        let mut traffic = ServiceTraffic::new("bpsk-awgn", channels, slots, fft_len)
            .unwrap()
            .with_seed(seed)
            .at_snr(3.0);
        if bursty {
            traffic = traffic.with_activity(ActivityModel::bursty(0.8, 0.4).unwrap());
        }
        let events = traffic.synthesize().unwrap();
        // Ample capacity: DropOldest must also shed nothing here, which is
        // exactly what keeps it decision-identical.
        let policy = if drop_oldest { Backpressure::DropOldest } else { Backpressure::Block };
        let config = ServiceConfig::new(workers)
            .with_queue_capacity(events.len().max(1))
            .with_backpressure(policy);
        let (scheduled, drops) = schedule(&events, channels, &params, refresh, config);
        prop_assert_eq!(drops, 0);
        let serial = drive_serially(&events, channels, &params, refresh);
        assert_bitwise_identical(&scheduled, &serial);
    }
}

/// `Block` backpressure never sheds: with the smallest legal queue (one
/// slot per worker) and producers far ahead of the workers, every pushed
/// hop is processed and the decisions still match serial driving exactly.
#[test]
fn block_backpressure_never_drops_a_hop() {
    let params = ScfParams::new(32, 7, 3).unwrap();
    let channels = 9usize;
    let events = ServiceTraffic::new("bpsk-awgn", channels, 8, 32)
        .unwrap()
        .with_seed(21)
        .at_snr(5.0)
        .synthesize()
        .unwrap();
    let config = ServiceConfig::new(3)
        .with_queue_capacity(1)
        .with_backpressure(Backpressure::Block);
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let logs: Vec<DecisionLog> = (0..channels).map(|_| DecisionLog::new()).collect();
    let mut builder = SensingScheduler::builder(config);
    for (channel, log) in logs.iter().enumerate() {
        builder = builder.subscribe(ChannelSubscription::new(
            channel as u64,
            StreamingConfig::new(params.clone()),
            detector.clone(),
            log.clone(),
        ));
    }
    let scheduler = builder.spawn().unwrap();
    let mut pushed = 0u64;
    for event in &events {
        if let TrafficEvent::Hop {
            channel, samples, ..
        } = event
        {
            scheduler.push(*channel, samples).unwrap();
            pushed += 1;
        }
    }
    assert_eq!(scheduler.pushed(), pushed);
    let report = scheduler.join().unwrap();
    assert_eq!(report.drops, 0, "Block must never shed a hop");
    assert_eq!(report.hops, pushed, "every pushed hop is processed");
    let scheduled: Vec<Vec<Decision>> = logs.iter().map(DecisionLog::take).collect();
    let serial = drive_serially(&events, channels, &params, 64);
    assert_bitwise_identical(&scheduled, &serial);
}

/// A recipe whose every build fails, naming the channel it was meant for.
struct RefusingRecipe {
    channel: u64,
}

impl BackendRecipe for RefusingRecipe {
    fn label(&self) -> String {
        "refusing".into()
    }

    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError> {
        Err(CfdError::InvalidParameter {
            name: "recipe",
            message: format!("channel {} refuses to build", self.channel),
        })
    }
}

/// A backend that builds but fails every decision.
#[derive(Debug, Clone)]
struct FailingBackend;

impl SensingBackend for FailingBackend {
    fn label(&self) -> String {
        "failing".into()
    }

    fn decide(&mut self, _observation: &mut Observation) -> Result<Decision, CfdError> {
        Err(CfdError::InvalidParameter {
            name: "decision",
            message: "this backend always fails".into(),
        })
    }
}

/// A channel whose recipe fails to build leaves an empty slot in its
/// worker's channel table; every other channel keeps its own slot. Over
/// two shards, with channel ids unlike any slot index and subscribed out
/// of order, bursty traffic still decides bit-identically to serial
/// driving on every healthy channel. Hops and parks addressed to the
/// failed channel are accepted and skipped, and its build error is the one
/// `join` reports: errors come back in channel-id order, and the other
/// failing channel, whose backend errs at decide time, has a larger id.
#[test]
fn a_failed_build_keeps_every_other_channel_on_its_slot() {
    let params = ScfParams::new(32, 7, 3).unwrap();
    let refresh = 2;
    let ids: [u64; 8] = [41, 7, 1003, 12, 58, 3, 999, 20];
    // Indices into `ids`: channel 12 fails to build, channel 1003 decides
    // with a failing backend.
    let (unbuilt, failing) = (3, 2);
    let events = ServiceTraffic::new("bpsk-awgn", ids.len(), 10, 32)
        .unwrap()
        .with_seed(33)
        .at_snr(3.0)
        .with_activity(ActivityModel::bursty(0.8, 0.4).unwrap())
        .synthesize()
        .unwrap();
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let logs: Vec<DecisionLog> = ids.iter().map(|_| DecisionLog::new()).collect();
    let mut builder = SensingScheduler::builder(ServiceConfig::new(2).with_queue_capacity(4));
    for (index, (&id, log)) in ids.iter().zip(&logs).enumerate() {
        let config = StreamingConfig::new(params.clone()).with_refresh_interval(refresh);
        let subscription = if index == unbuilt {
            ChannelSubscription::new(id, config, RefusingRecipe { channel: id }, log.clone())
        } else if index == failing {
            ChannelSubscription::new(id, config, FailingBackend, log.clone())
        } else {
            ChannelSubscription::new(id, config, detector.clone(), log.clone())
        };
        builder = builder.subscribe(subscription);
    }
    let scheduler = builder.spawn().unwrap();
    let unbuilt_id = ids[unbuilt];
    let extra = cfd_dsp::signal::awgn(32, 1.0, 3);
    for (n, event) in events.iter().enumerate() {
        match event {
            TrafficEvent::Hop {
                channel, samples, ..
            } => scheduler.push(ids[*channel as usize], samples).unwrap(),
            TrafficEvent::Park { channel } => scheduler.park(ids[*channel as usize]).unwrap(),
        }
        // More control traffic for the unbuilt channel, interleaved.
        if n % 7 == 0 {
            scheduler.park(unbuilt_id).unwrap();
            scheduler.push(unbuilt_id, &extra).unwrap();
        }
    }
    assert_eq!(
        scheduler.join(),
        Err(CfdError::InvalidParameter {
            name: "recipe",
            message: "channel 12 refuses to build".into(),
        })
    );
    let scheduled: Vec<Vec<Decision>> = logs.iter().map(DecisionLog::take).collect();
    assert!(scheduled[unbuilt].is_empty() && scheduled[failing].is_empty());
    let serial = drive_serially(&events, ids.len(), &params, refresh);
    let healthy = |decisions: &[Vec<Decision>]| -> Vec<Vec<Decision>> {
        (0..ids.len())
            .filter(|&index| index != unbuilt && index != failing)
            .map(|index| decisions[index].clone())
            .collect()
    };
    assert!(serial.iter().map(Vec::len).sum::<usize>() > 0);
    assert_bitwise_identical(&healthy(&scheduled), &healthy(&serial));
}

/// A correct but deliberately slow backend, to hold the worker busy while
/// the producer floods a tiny ingress queue.
#[derive(Debug, Clone)]
struct SlowBackend {
    inner: CyclostationaryDetector,
}

impl SensingBackend for SlowBackend {
    fn label(&self) -> String {
        "slow-cfd".into()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        std::thread::sleep(std::time::Duration::from_millis(2));
        SensingBackend::decide(&mut self.inner, observation)
    }
}

/// Under `DropOldest`, sheds are exactly accounted: every pushed hop is
/// either processed or counted, both by [`SensingScheduler::drops`] /
/// `ServiceReport::drops` and by the global `service.drops` counter.
#[test]
fn drop_oldest_accounts_every_drop() {
    let params = ScfParams::new(16, 3, 1).unwrap(); // window 1: every hop decides
    let drops_counter = cfd_telemetry::counter("service.drops");
    let counter_before = drops_counter.value();
    let traffic = ServiceTraffic::new("bpsk-awgn", 2, 64, 16)
        .unwrap()
        .with_seed(5)
        .at_snr(0.0);
    let config = ServiceConfig::new(1)
        .with_queue_capacity(2)
        .with_backpressure(Backpressure::DropOldest);
    let detector = SlowBackend {
        inner: CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap(),
    };
    let log = DecisionLog::new();
    let scheduler = SensingScheduler::builder(config)
        .subscribe(ChannelSubscription::new(
            0,
            StreamingConfig::new(params.clone()),
            detector.clone(),
            log.clone(),
        ))
        .subscribe(ChannelSubscription::new(
            1,
            StreamingConfig::new(params),
            detector,
            DecisionLog::new(),
        ))
        .spawn()
        .unwrap();
    traffic
        .visit(|event| {
            if let TrafficEvent::Hop {
                channel, samples, ..
            } = event
            {
                scheduler.push(channel, &samples)?;
            }
            Ok(())
        })
        .unwrap();
    let pushed = scheduler.pushed();
    let report = scheduler.join().unwrap();
    assert!(
        report.drops > 0,
        "a 2-slot queue in front of a 2 ms/decision backend must shed"
    );
    assert_eq!(
        report.hops + report.drops,
        pushed,
        "every pushed hop is processed or accounted as dropped"
    );
    assert_eq!(
        drops_counter.value() - counter_before,
        report.drops,
        "the service.drops counter advances by exactly the sheds"
    );
    // Window 1: every processed hop emits exactly one decision, so the
    // survivors are fully accounted too.
    assert_eq!(report.decisions, report.hops);
    assert!(!log.is_empty(), "the freshest hops survive and decide");
}

/// Channel placement is a pure, stable function of `(channel, workers)`:
/// pinned literal values (any change to the hash is a breaking change to
/// state locality), agreement with `shard_of`, and identity across two
/// independently built schedulers.
#[test]
fn shard_placement_is_stable() {
    // SplitMix64 finaliser outputs, pinned: stable across runs, platforms
    // and subscription order.
    assert_eq!(
        (0..8).map(|c| shard_for(c, 2)).collect::<Vec<_>>(),
        vec![1, 1, 0, 1, 0, 0, 0, 1]
    );
    assert_eq!(
        (0..8).map(|c| shard_for(c, 3)).collect::<Vec<_>>(),
        vec![1, 2, 1, 0, 1, 2, 2, 0]
    );
    assert_eq!(
        (0..8).map(|c| shard_for(c, 4)).collect::<Vec<_>>(),
        vec![3, 1, 2, 1, 2, 2, 0, 3]
    );
    assert_eq!(shard_for(1000, 4), 0);
    assert_eq!(shard_for(65535, 3), 1);
    for c in 0..100 {
        assert_eq!(shard_for(c, 1), 0, "one worker owns everything");
    }

    let params = ScfParams::new(32, 7, 4).unwrap();
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let build = || {
        let mut builder = SensingScheduler::builder(ServiceConfig::new(4));
        for channel in 0..32u64 {
            builder = builder.subscribe(ChannelSubscription::new(
                channel,
                StreamingConfig::new(params.clone()),
                detector.clone(),
                DecisionLog::new(),
            ));
        }
        builder.spawn().unwrap()
    };
    let a = build();
    let b = build();
    for channel in 0..32u64 {
        assert_eq!(a.shard_of(channel), Some(shard_for(channel, 4)));
        assert_eq!(a.shard_of(channel), b.shard_of(channel));
    }
    a.join().unwrap();
    b.join().unwrap();
}

/// A backend whose first decision reports that it has started, waits for
/// the test to open a gate, then panics.
#[derive(Debug, Clone)]
struct PanickingBackend {
    entered: mpsc::Sender<()>,
    gate: Arc<Mutex<mpsc::Receiver<()>>>,
}

impl SensingBackend for PanickingBackend {
    fn label(&self) -> String {
        "panicking".into()
    }

    fn decide(&mut self, _observation: &mut Observation) -> Result<Decision, CfdError> {
        self.entered
            .send(())
            .expect("the producer waits for the decision");
        let gate = self.gate.lock().expect("one worker holds the gate");
        gate.recv().expect("the producer opens the gate");
        panic!("backend panicked in decide");
    }
}

/// A worker whose backend panics closes its shard queue as it unwinds.
/// The one worker is held inside its first `decide` while the producer
/// fills the two-slot `Block` queue, then panics; the producer's next
/// push into the full queue must return `WorkerStopped` for that shard
/// instead of blocking forever (bounded by a 1 s channel timeout), and
/// `join` re-raises the worker's panic.
#[test]
fn a_panicking_backend_does_not_hang_a_blocking_producer() {
    let params = ScfParams::new(32, 7, 4).unwrap();
    let config = ServiceConfig::new(1)
        .with_queue_capacity(2)
        .with_backpressure(Backpressure::Block);
    let (entered_tx, entered) = mpsc::channel();
    let (open, gate) = mpsc::channel();
    let backend = PanickingBackend {
        entered: entered_tx,
        gate: Arc::new(Mutex::new(gate)),
    };
    let scheduler = SensingScheduler::builder(config)
        .subscribe(ChannelSubscription::new(
            0,
            StreamingConfig::new(params),
            backend,
            DecisionLog::new(),
        ))
        .spawn()
        .unwrap();
    let (done, outcome) = mpsc::channel();
    let producer = std::thread::spawn(move || {
        let hop = cfd_dsp::signal::awgn(32, 1.0, 7);
        // The fourth hop completes the window: the worker is then inside
        // `decide` with nothing else queued.
        for _ in 0..4 {
            scheduler.push(0, &hop).unwrap();
        }
        entered.recv().unwrap();
        // Fill the queue, let the backend panic, and push into the full
        // queue that the worker will never drain again.
        scheduler.push(0, &hop).unwrap();
        scheduler.push(0, &hop).unwrap();
        open.send(()).unwrap();
        let pushed = scheduler.push(0, &hop);
        let parked = scheduler.park(0);
        done.send((pushed, parked, scheduler)).unwrap();
    });
    let (pushed, parked, scheduler) = outcome
        .recv_timeout(Duration::from_secs(1))
        .expect("the producer must not hang on a dead worker");
    producer.join().expect("the producer returns");
    assert_eq!(pushed, Err(CfdError::WorkerStopped { shard: 0 }));
    assert_eq!(parked, Err(CfdError::WorkerStopped { shard: 0 }));
    assert_eq!(scheduler.pushed(), 6, "a refused hop is not counted");
    let joined = std::panic::catch_unwind(AssertUnwindSafe(|| scheduler.join()));
    let panic = joined.expect_err("join re-raises the worker's panic");
    assert_eq!(
        panic.downcast_ref::<&str>(),
        Some(&"backend panicked in decide")
    );
}
