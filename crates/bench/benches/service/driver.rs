//! The two paths the `service_throughput` Criterion group times over the
//! same synthesized traffic:
//!
//! * [`run_naive`] — the baseline a caller pays without the scheduler:
//!   one batch [`CyclostationaryDetector`] replica per channel, re-run
//!   over the channel's whole sample window on **every** hop past
//!   warm-up (window FFTs + window accumulate passes per decision).
//! * [`run_scheduler`] — the [`SensingScheduler`]: each channel pinned
//!   to a [`StreamingSensor`](cfd_core::stream::StreamingSensor) replica
//!   that pays one FFT + one fused add/retire pass per hop, multiplexed
//!   over a pooled worker fleet with channel-coalescing batch drains.
//!
//! Both paths emit identical decision counts (the streaming sensor is
//! decision-bitwise-identical to the batch window, pinned by
//! `tests/service.rs`), so the decisions/second quotient is a fair
//! apples-to-apples speedup.

use cfd_core::service::{ChannelId, DecisionSink};
use cfd_core::stream::StreamingConfig;
use cfd_core::{
    ChannelSubscription, Decision, Observation, SensingBackend, SensingScheduler, ServiceConfig,
};
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfParams;
use cfd_scenario::service_traffic::{ServiceTraffic, TrafficEvent};

/// The per-channel sensing geometry of the service benchmarks: a 31×31
/// cyclic grid (64-point band, ±15 offsets) integrated over a 32-block
/// window. Thousands of these run concurrently at ~0.15 MB/channel of
/// ring + tape + accumulator state; each hop retires its outgoing block
/// in the fused slide pass. The long window is what the streaming path
/// monetises: the naive baseline re-runs all 32 blocks per decision, the
/// sensor touches one.
pub fn service_params() -> ScfParams {
    ScfParams::new(64, 15, 32).expect("fixed bench geometry is valid")
}

/// Slots per channel in one timed pass: 44 one-block hops through a
/// 32-block window, i.e. 13 decisions per always-active channel.
pub const SERVICE_SLOTS: usize = 44;

/// Synthesizes the benchmark workload: `channels` always-active
/// `bpsk-awgn` channels × [`SERVICE_SLOTS`] slots of one-block hops at
/// 5 dB, deterministic in the channel count alone. Synthesis runs once
/// outside the timed region — both drivers then replay the same events.
pub fn service_workload(channels: usize) -> Vec<TrafficEvent> {
    ServiceTraffic::new(
        "bpsk-awgn",
        channels,
        SERVICE_SLOTS,
        service_params().block_stride,
    )
    .expect("fixed bench workload is valid")
    .with_seed(17)
    .at_snr(5.0)
    .synthesize()
    .expect("fixed bench workload synthesizes")
}

fn detector(params: &ScfParams) -> CyclostationaryDetector {
    CyclostationaryDetector::new(params.clone(), 0.35, 1).expect("fixed bench detector is valid")
}

/// A [`DecisionSink`] that only counts: the benchmarks measure decision
/// throughput, not decision content.
#[derive(Default)]
struct CountingSink(u64);

impl DecisionSink for CountingSink {
    fn on_decision(&mut self, _channel: ChannelId, _decision: &Decision) {
        self.0 += 1;
    }
}

/// Replays `events` through a [`SensingScheduler`] with `workers` pooled
/// workers and returns the number of decisions emitted. Spawn, push,
/// join: the whole service lifetime is inside the timed region, so the
/// measured decisions/second includes the fleet's spawn cost (amortised
/// over `channels × slots` hops).
///
/// The ingress queues are sized at 8 hops per subscribed channel on the
/// shard: the worker's channel-coalescing batch drain can then run
/// several hops of one channel back-to-back, paying the cold reload of
/// that channel's sensor state once per batch instead of once per hop.
/// At the default 64-hop capacity a 1024-channel shard would coalesce
/// nothing.
pub fn run_scheduler(channels: usize, events: &[TrafficEvent], workers: usize) -> u64 {
    let params = service_params();
    let per_shard = channels.div_ceil(workers).max(1);
    let mut builder =
        SensingScheduler::builder(ServiceConfig::new(workers).with_queue_capacity(8 * per_shard));
    for channel in 0..channels as u64 {
        builder = builder.subscribe(ChannelSubscription::new(
            channel,
            StreamingConfig::new(params.clone()),
            detector(&params),
            CountingSink::default(),
        ));
    }
    let scheduler = builder.spawn().expect("fixed bench fleet spawns");
    for event in events {
        match event {
            TrafficEvent::Hop {
                channel, samples, ..
            } => scheduler.push(*channel, samples).expect("subscribed"),
            TrafficEvent::Park { channel } => scheduler.park(*channel).expect("subscribed"),
        }
    }
    let report = scheduler.join().expect("no backend errors in the bench");
    assert_eq!(report.drops, 0, "Block backpressure sheds nothing");
    report.decisions
}

/// Replays `events` through the naive per-decision baseline and returns
/// the number of decisions: one batch detector replica and one rolling
/// sample window per channel, the full window re-decided from raw
/// samples on every hop once warm — what a caller pays per decision
/// without streaming state reuse.
pub fn run_naive(channels: usize, events: &[TrafficEvent]) -> u64 {
    let params = service_params();
    let window = params.samples_needed();
    let mut states: Vec<(CyclostationaryDetector, Vec<Cplx>)> = (0..channels)
        .map(|_| (detector(&params), Vec::with_capacity(window)))
        .collect();
    let mut observation = Observation::new();
    let mut decisions = 0u64;
    for event in events {
        match event {
            TrafficEvent::Hop {
                channel, samples, ..
            } => {
                let (detector, buffer) = &mut states[*channel as usize];
                buffer.extend_from_slice(samples);
                let excess = buffer.len().saturating_sub(window);
                if excess > 0 {
                    buffer.drain(..excess);
                }
                if buffer.len() == window {
                    observation.load(buffer);
                    detector
                        .decide(&mut observation)
                        .expect("fixed bench geometry decides");
                    decisions += 1;
                }
            }
            // An idle period ends the burst: the next burst re-fills the
            // window from scratch, mirroring the sensor's park/warm-up.
            TrafficEvent::Park { channel } => states[*channel as usize].1.clear(),
        }
    }
    decisions
}
