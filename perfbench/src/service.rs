//! `service-1024ch`: the scheduler-throughput and streamed-hop path.
//!
//! 1024 `bpsk-awgn` channels at 5 dB on the 31×31 grid (64-point FFT,
//! ±15 offsets, 32-block window, plane budget 0 so retire recomputes and
//! subtracts) behind one [`SensingScheduler`] with `nproc − 1` workers and
//! `Block` backpressure. Activity is bursty Markov (mean burst 100 slots,
//! mean idle 10 slots); idle channels are parked. The hops are synthesised
//! before timing and replayed cyclically by one generator (the calling
//! thread):
//!
//! * **saturation** (closed loop): push as fast as `push` returns; gives
//!   `decisions_per_s` and the ingress stall `service.push_p99_us`;
//! * **paced** (open loop): a fixed offer of [`PACED_HOPS_PER_S`] hops per
//!   second; each decision's latency runs from the due time of the hop
//!   that completed its window to the sink callback.
//!
//! The generator knows which hops complete a window (the 32nd hop after a
//! warm-up or park, and every hop after it), queues their due times per
//! channel before pushing them, and each channel's [`LatencySink`] pops
//! one due time per decision.
//!
//! Timings are scaled to the reference speed (see [`crate::pace`]) on the
//! worker threads, where the work runs: the generator opens a new
//! saturation slice every [`SLICE_S`], and each worker's sink, at its next
//! decision, closes its own slice (decisions, worker CPU time) with a
//! kernel reading. The paced phase is sliced the same way, and each
//! slice's latencies are scaled by the factor its workers read.

use crate::host::nproc;
use crate::ledger::{ratio, Ledger, Trace};
use crate::pace::{factor_of, scaled_wall, thread_cpu_ns, Pace};
use crate::report::{median, quantile, quantile_us, scaled_median_us, Outcome};
use crate::timing::nanos_since;
use cfd_core::backend::Decision;
use cfd_core::error::CfdError;
use cfd_core::service::{
    Backpressure, ChannelId, ChannelSubscription, DecisionSink, SensingScheduler, ServiceConfig,
};
use cfd_core::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfParams;
use cfd_scenario::service_traffic::{ActivityModel, ServiceTraffic, TrafficEvent};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Subscribed channels.
pub const CHANNELS: usize = 1024;
/// Slots synthesised per channel; the generator replays them cyclically.
pub const SLOTS: usize = 48;
/// SNR of every channel.
pub const SNR_DB: f64 = 5.0;
/// Per-slot persistence of an active channel (mean burst 100 slots).
pub const STAY_ACTIVE: f64 = 0.99;
/// Per-slot persistence of an idle channel (mean idle 10 slots).
pub const STAY_IDLE: f64 = 0.9;
/// Offered load of the paced phase, in hops per second. One worker on the
/// reference host (2 vCPUs) saturates at 70 000–100 000 events per second
/// depending on how much a shared host slows it; a fixed offer of a
/// quarter to a third of that stays below saturation on a slowed host,
/// where an offer of half saturates and the latency diverges.
pub const PACED_HOPS_PER_S: f64 = 20_000.0;
/// Channels whose every decision is checked against a serial reference.
pub const SAMPLED_CHANNELS: usize = 8;
/// Fleets built (subscribe + spawn + first decision) for `setup_s`.
const SETUP_REPS: usize = 15;
/// Slots of traffic pushed before any phase is timed.
const WARMUP_SLOTS: usize = 40;
/// Length of one saturation slice whose decision rate is sampled.
const SLICE_S: f64 = 0.1;
/// CFD threshold of every channel.
const THRESHOLD: f64 = 0.35;

/// Due time of a hop pushed outside the paced phase: no latency recorded.
pub const UNPACED: u64 = u64::MAX;

/// The per-channel geometry: 64-point blocks, ±15 offsets, 32 blocks.
pub fn params() -> ScfParams {
    ScfParams::new(64, 15, 32).expect("fixed service geometry is valid")
}

fn detector() -> CyclostationaryDetector {
    CyclostationaryDetector::new(params(), THRESHOLD, 1).expect("fixed service detector is valid")
}

fn config() -> StreamingConfig {
    StreamingConfig::new(params()).with_plane_budget(0)
}

/// The workload's traffic for `seed`.
///
/// # Errors
///
/// Propagates synthesis errors.
pub fn traffic(
    seed: u64,
    channels: usize,
    slots: usize,
) -> Result<Vec<TrafficEvent>, Box<dyn Error>> {
    let activity = ActivityModel::bursty(STAY_ACTIVE, STAY_IDLE)?;
    traffic_with(seed, channels, slots, activity)
}

fn traffic_with(
    seed: u64,
    channels: usize,
    slots: usize,
    activity: ActivityModel,
) -> Result<Vec<TrafficEvent>, Box<dyn Error>> {
    Ok(
        ServiceTraffic::new("bpsk-awgn", channels, slots, params().block_stride)?
            .with_seed(seed)
            .at_snr(SNR_DB)
            .with_activity(activity)
            .synthesize()?,
    )
}

/// The channels checked against the serial reference: evenly spaced,
/// offset by the seed.
pub fn sampled_channels(seed: u64, channels: usize) -> Vec<u64> {
    let count = SAMPLED_CHANNELS.min(channels);
    let stride = channels / count;
    (0..count)
        .map(|i| ((seed as usize % stride) + i * stride) as u64)
        .collect()
}

/// One worker's saturation slice.
#[derive(Debug, Clone, Copy)]
struct WorkerSlice {
    /// The generator's slice number.
    slice: u64,
    decisions: u64,
    cpu_s: f64,
    factor: f64,
}

/// Where the calling worker's open slice began.
#[derive(Clone, Copy)]
struct WorkerClock {
    slice: u64,
    decisions: u64,
    cpu_ns: u64,
}

thread_local! {
    /// The open saturation slice of the worker running on this thread.
    static WORKER_CLOCK: Cell<Option<WorkerClock>> = const { Cell::new(None) };
}

/// State shared by the generator and every channel's sink.
pub struct Shared {
    epoch: Instant,
    decisions: AtomicU64,
    unmapped: AtomicU64,
    sink_ns: AtomicU64,
    time_sink: AtomicBool,
    /// Paced decision latencies in decision order.
    latencies: Mutex<Vec<u64>>,
    /// The generator's current saturation slice; 0 before the first.
    slice: AtomicU64,
    /// Slices the workers closed.
    slices: Mutex<Vec<WorkerSlice>>,
    /// The reference kernel the workers read.
    pace: Mutex<Option<Pace>>,
}

impl Shared {
    fn new() -> Arc<Self> {
        Arc::new(Shared {
            epoch: Instant::now(),
            decisions: AtomicU64::new(0),
            unmapped: AtomicU64::new(0),
            sink_ns: AtomicU64::new(0),
            time_sink: AtomicBool::new(false),
            latencies: Mutex::default(),
            slice: AtomicU64::new(0),
            slices: Mutex::default(),
            pace: Mutex::default(),
        })
    }

    /// Opens the next saturation slice and returns its number.
    fn open_slice(&self) -> u64 {
        self.slice.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// On a worker thread, after each decision: counts it in the worker's
    /// open slice, and when the generator has opened a newer slice, closes
    /// the worker's slice with a kernel reading and opens the next.
    fn tick_worker(&self) {
        let current = self.slice.load(Ordering::Relaxed);
        if current == 0 {
            return;
        }
        let Some(mut clock) = WORKER_CLOCK.get() else {
            WORKER_CLOCK.set(Some(WorkerClock {
                slice: current,
                decisions: 0,
                cpu_ns: thread_cpu_ns(),
            }));
            return;
        };
        clock.decisions += 1;
        if clock.slice != current {
            let cpu_ns = thread_cpu_ns().saturating_sub(clock.cpu_ns);
            let reading = self
                .pace
                .lock()
                .expect("kernel never poisoned")
                .get_or_insert_with(Pace::new)
                .reading_ns();
            self.slices
                .lock()
                .expect("slice log never poisoned")
                .push(WorkerSlice {
                    slice: clock.slice,
                    decisions: clock.decisions,
                    cpu_s: cpu_ns as f64 / 1e9,
                    factor: factor_of(reading),
                });
            clock = WorkerClock {
                slice: current,
                decisions: 0,
                cpu_ns: thread_cpu_ns(),
            };
        }
        WORKER_CLOCK.set(Some(clock));
    }

    /// Opens the next slice in the paced phase and returns it with the
    /// length of the latency log.
    fn open_paced_slice(&self) -> (u64, usize) {
        let logged = self
            .latencies
            .lock()
            .expect("latency log never poisoned")
            .len();
        (self.open_slice(), logged)
    }

    /// Each slice's scale factor in `range`: the median over the workers.
    fn slice_factors(&self, range: &Range<u64>) -> BTreeMap<u64, f64> {
        let slices = self.slices.lock().expect("slice log never poisoned");
        let mut factors: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for slice in slices.iter().filter(|s| range.contains(&s.slice)) {
            factors.entry(slice.slice).or_default().push(slice.factor);
        }
        factors
            .into_iter()
            .map(|(slice, mut factors)| (slice, median(&mut factors)))
            .collect()
    }

    /// Decisions per second at the reference speed of the slices in
    /// `range` (all workers' rates of one slice summed), slice by slice,
    /// and the factors of those slices.
    fn slice_rates(&self, range: &Range<u64>) -> (Vec<f64>, Vec<f64>) {
        let slices = self.slices.lock().expect("slice log never poisoned");
        let mut rates: BTreeMap<u64, f64> = BTreeMap::new();
        let mut factors = Vec::new();
        for slice in slices.iter().filter(|s| range.contains(&s.slice)) {
            if slice.cpu_s > 0.0 {
                *rates.entry(slice.slice).or_default() +=
                    slice.decisions as f64 / (slice.cpu_s * slice.factor);
                factors.push(slice.factor);
            }
        }
        (rates.into_values().collect(), factors)
    }

    fn now_ns(&self) -> u64 {
        nanos_since(self.epoch)
    }

    fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Blocks until `expected` decisions reached the sinks, or `limit`
    /// passed. Returns whether they all arrived.
    fn wait_for(&self, expected: u64, limit: Duration) -> bool {
        let start = Instant::now();
        while self.decisions() < expected {
            if start.elapsed() > limit {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        true
    }
}

/// Due times of one channel's window-completing hops, oldest first.
#[derive(Default)]
pub struct DueQueue(Mutex<VecDeque<u64>>);

impl DueQueue {
    fn push(&self, due: u64) {
        self.0
            .lock()
            .expect("due queue never poisoned")
            .push_back(due);
    }

    fn pop(&self) -> Option<u64> {
        self.0.lock().expect("due queue never poisoned").pop_front()
    }
}

/// `(due, decision)` of every decision of a sampled channel.
type Record = Arc<Mutex<Vec<(u64, Decision)>>>;

/// One channel's sink: maps each decision to the due time of the hop that
/// completed its window, records the latency of paced hops (in decision
/// order, shared by every sink of the fleet), and keeps the decisions of
/// sampled channels for the correctness check.
pub struct LatencySink {
    due: Arc<DueQueue>,
    shared: Arc<Shared>,
    record: Option<Record>,
}

impl DecisionSink for LatencySink {
    fn on_decision(&mut self, _channel: ChannelId, decision: &Decision) {
        let start = self
            .shared
            .time_sink
            .load(Ordering::Relaxed)
            .then(Instant::now);
        let due = self.due.pop();
        match due {
            Some(UNPACED) => {}
            Some(due) => {
                let latency = self.shared.now_ns().saturating_sub(due);
                self.shared
                    .latencies
                    .lock()
                    .expect("latency log never poisoned")
                    .push(latency);
            }
            None => {
                self.shared.unmapped.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(record) = &self.record {
            record
                .lock()
                .expect("record never poisoned")
                .push((due.unwrap_or(UNPACED), decision.clone()));
        }
        self.shared.decisions.fetch_add(1, Ordering::Relaxed);
        // Kernel readings are the bench's own work: booked as sink time.
        self.shared.tick_worker();
        if let Some(start) = start {
            self.shared
                .sink_ns
                .fetch_add(nanos_since(start), Ordering::Relaxed);
        }
    }
}

/// A spawned scheduler plus the bench's per-channel plumbing.
struct Fleet {
    scheduler: SensingScheduler,
    dues: Vec<Arc<DueQueue>>,
    records: Vec<(u64, Record)>,
}

fn spawn_fleet(
    channels: usize,
    workers: usize,
    shared: &Arc<Shared>,
    sampled: &[u64],
) -> Result<Fleet, CfdError> {
    // Eight queued hops per subscribed channel of a shard, so a saturated
    // drain runs several hops of one channel back to back and reloads the
    // channel's state once for them.
    let capacity = 8 * channels.div_ceil(workers);
    let mut builder = SensingScheduler::builder(
        ServiceConfig::new(workers)
            .with_queue_capacity(capacity)
            .with_backpressure(Backpressure::Block),
    );
    let detector = detector();
    let mut dues = Vec::with_capacity(channels);
    let mut records = Vec::new();
    for channel in 0..channels as u64 {
        let due = Arc::new(DueQueue::default());
        let record = sampled.contains(&channel).then(Record::default);
        if let Some(record) = &record {
            records.push((channel, Arc::clone(record)));
        }
        builder = builder.subscribe(ChannelSubscription::new(
            channel,
            config(),
            detector.clone(),
            LatencySink {
                due: Arc::clone(&due),
                shared: Arc::clone(shared),
                record,
            },
        ));
        dues.push(due);
    }
    Ok(Fleet {
        scheduler: builder.spawn()?,
        dues,
        records,
    })
}

/// Replays the traffic into a scheduler, predicting which hops complete a
/// window.
pub struct Generator<'a> {
    scheduler: &'a SensingScheduler,
    events: &'a [TrafficEvent],
    dues: &'a [Arc<DueQueue>],
    since_park: Vec<usize>,
    window: usize,
    pushed: u64,
    predicted: u64,
}

impl<'a> Generator<'a> {
    fn new(fleet: &'a Fleet, events: &'a [TrafficEvent]) -> Self {
        Generator {
            scheduler: &fleet.scheduler,
            events,
            dues: &fleet.dues,
            since_park: vec![0; fleet.dues.len()],
            window: params().num_blocks,
            pushed: 0,
            predicted: 0,
        }
    }

    /// Pushes the next event. A hop that completes a window first queues
    /// `due` for its channel's sink. Returns whether the event was a hop.
    fn push_next(&mut self, due: u64) -> Result<bool, CfdError> {
        let event = &self.events[(self.pushed % self.events.len() as u64) as usize];
        self.pushed += 1;
        match event {
            TrafficEvent::Hop {
                channel, samples, ..
            } => {
                let count = &mut self.since_park[*channel as usize];
                *count += 1;
                if *count >= self.window {
                    self.dues[*channel as usize].push(due);
                    self.predicted += 1;
                }
                self.scheduler.push(*channel, samples)?;
                Ok(true)
            }
            TrafficEvent::Park { channel } => {
                self.since_park[*channel as usize] = 0;
                self.scheduler.park(*channel)?;
                Ok(false)
            }
        }
    }

    /// Closed loop: pushes as fast as `push` returns for `seconds`,
    /// opening a new worker slice once per [`SLICE_S`].
    fn saturate(&mut self, shared: &Shared, seconds: f64) -> Result<Saturation, CfdError> {
        let mut pushes = Vec::new();
        let first = shared.open_slice();
        let start = Instant::now();
        let mut slice_start = start;
        while start.elapsed().as_secs_f64() < seconds {
            for _ in 0..256 {
                let push = Instant::now();
                self.push_next(UNPACED)?;
                pushes.push(nanos_since(push));
            }
            if slice_start.elapsed().as_secs_f64() >= SLICE_S {
                shared.open_slice();
                slice_start = Instant::now();
            }
        }
        // Opening one more slice closes the last full one.
        let end = shared.open_slice();
        Ok(Saturation {
            seconds: start.elapsed().as_secs_f64(),
            slices: first..end,
            pushes,
        })
    }

    /// Open loop: offers `rate` hops per second for `seconds`, each hop
    /// due at its slot of the fixed schedule. The generator spins until
    /// each due time rather than sleeping, so a timer's slack does not
    /// delay the hop. It opens a new worker slice once per [`SLICE_S`] and
    /// notes where each slice starts in the latency log.
    fn pace(&mut self, shared: &Shared, rate: f64, seconds: f64) -> Result<Paced, CfdError> {
        let period = 1e9 / rate;
        let start = shared.now_ns();
        let end = start + (seconds * 1e9) as u64;
        let slice_ns = (SLICE_S * 1e9) as u64;
        let mut paced = Paced {
            lags: Vec::new(),
            starts: vec![shared.open_paced_slice()],
        };
        let mut slice_start = start;
        for k in 0u64.. {
            let due = start + (k as f64 * period) as u64;
            if due >= end {
                break;
            }
            while shared.now_ns() < due {
                std::hint::spin_loop();
            }
            paced.lags.push(shared.now_ns().saturating_sub(due));
            // Parks ride along with the next hop.
            while !self.push_next(due)? {}
            if due - slice_start >= slice_ns {
                paced.starts.push(shared.open_paced_slice());
                slice_start = due;
            }
        }
        // Opening one more slice closes the last full one.
        paced.starts.push(shared.open_paced_slice());
        Ok(paced)
    }
}

/// What the paced phase recorded.
struct Paced {
    /// How late each hop was pushed, in nanoseconds.
    lags: Vec<u64>,
    /// Each worker slice the phase opened, with the length of the latency
    /// log when it opened.
    starts: Vec<(u64, usize)>,
}

impl Paced {
    /// The median of each slice's latencies, scaled by the factor the
    /// workers read at the end of that slice, in microseconds.
    fn scaled_medians_us(&self, latencies: &[u64], factors: &BTreeMap<u64, f64>) -> Vec<f64> {
        self.starts
            .windows(2)
            .filter_map(|pair| {
                let [(slice, from), (_, to)] = [pair[0], pair[1]];
                let factor = factors.get(&slice)?;
                (to > from).then(|| scaled_median_us(&latencies[from..to], *factor))
            })
            .collect()
    }
}

struct Saturation {
    /// Wall seconds the generator pushed for.
    seconds: f64,
    /// The worker slices the phase opened.
    slices: Range<u64>,
    /// Nanoseconds each `push` took.
    pushes: Vec<u64>,
}

/// The first channel with a window's worth of hops in the traffic, and
/// those hops.
fn first_window(events: &[TrafficEvent]) -> Option<(u64, Vec<&[Cplx]>)> {
    let window = params().num_blocks;
    let mut hops: HashMap<u64, Vec<&[Cplx]>> = HashMap::new();
    for event in events {
        if let TrafficEvent::Hop {
            channel, samples, ..
        } = event
        {
            let channel_hops = hops.entry(*channel).or_default();
            channel_hops.push(samples);
            if channel_hops.len() == window {
                return hops.remove_entry(channel);
            }
        }
    }
    None
}

/// Subscribe, spawn and wait for the first decision of a fresh fleet:
/// one window of `hops` pushed to `channel`. Returns the time at the
/// reference speed.
fn measure_setup(
    channel: u64,
    hops: &[&[Cplx]],
    workers: usize,
    pace: &mut Pace,
) -> Result<f64, Box<dyn Error>> {
    let shared = Shared::new();
    let (fleet, seconds) = scaled_wall(pace, || -> Result<Fleet, Box<dyn Error>> {
        let fleet = spawn_fleet(CHANNELS, workers, &shared, &[])?;
        fleet.dues[channel as usize].push(UNPACED);
        for samples in hops {
            fleet.scheduler.push(channel, samples)?;
        }
        if !shared.wait_for(1, Duration::from_secs(60)) {
            return Err("no decision within 60 s of spawning the fleet".into());
        }
        Ok(fleet)
    })?;
    fleet.scheduler.join()?;
    Ok(seconds)
}

/// The serial reference: `channel`'s decisions when its share of the first
/// `pushed` replayed events drives one [`StreamingSensor`] directly.
///
/// # Errors
///
/// Propagates sensor errors.
pub fn reference_decisions(
    events: &[TrafficEvent],
    pushed: u64,
    channel: u64,
) -> Result<Vec<(u64, Decision)>, CfdError> {
    let mut sensor = StreamingSensor::new(config(), detector())?;
    let mut out = Vec::new();
    let mut decisions = Vec::new();
    for index in 0..pushed {
        match &events[(index % events.len() as u64) as usize] {
            TrafficEvent::Hop {
                channel: c,
                samples,
                ..
            } if *c == channel => {
                out.clear();
                sensor.push_into(samples, &mut out)?;
                decisions.extend(out.drain(..).map(|decision| (index, decision)));
            }
            TrafficEvent::Park { channel: c } if *c == channel => sensor.park(),
            _ => {}
        }
    }
    Ok(decisions)
}

/// Decisions of `observed` that differ from `reference`, position by
/// position, plus any missing or extra ones.
pub fn count_mismatches(reference: &[Decision], observed: &[Decision]) -> u64 {
    let differing = reference
        .iter()
        .zip(observed)
        .filter(|(want, got)| want != got)
        .count();
    (differing + reference.len().abs_diff(observed.len())) as u64
}

/// Runs the workload.
///
/// # Errors
///
/// Traffic synthesis or fleet construction failures; decision errors are
/// counted as failed operations instead.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, Box<dyn Error>> {
    let workers = nproc().saturating_sub(1).max(1);
    let events = traffic(seed, CHANNELS, SLOTS)?;
    let sampled = sampled_channels(seed, CHANNELS);
    let (channel, hops) = first_window(&events).ok_or("no channel fills a window")?;
    let mut pace = Pace::new();
    let mut setups = (0..SETUP_REPS)
        .map(|_| measure_setup(channel, &hops, workers, &mut pace))
        .collect::<Result<Vec<f64>, _>>()?;

    let shared = Shared::new();
    let fleet = spawn_fleet(CHANNELS, workers, &shared, &sampled)?;
    let mut generator = Generator::new(&fleet, &events);
    let mut outcome = Outcome::default();
    let drain_limit = Duration::from_secs(60);

    for _ in 0..WARMUP_SLOTS * CHANNELS {
        generator.push_next(UNPACED)?;
    }
    // Saturation slices settle quickly; the paced latencies vary more with
    // the host's state, so the paced phase gets a larger share.
    let (saturation_share, paced_share) = if trace { (0.4, 0.2) } else { (0.6, 0.4) };
    let saturation = generator.saturate(&shared, seconds * saturation_share)?;
    let mut traced = None;
    if trace {
        Trace::begin();
        shared.time_sink.store(true, Ordering::Relaxed);
        let sink_before = shared.sink_ns.load(Ordering::Relaxed);
        let window = generator.saturate(&shared, seconds * 0.4)?;
        let capture = Trace::capture();
        let sink_s = (shared.sink_ns.load(Ordering::Relaxed) - sink_before) as f64 / 1e9;
        traced = Some((window, capture, sink_s));
    }
    let drained = shared.wait_for(generator.predicted, drain_limit);
    let mut paced = generator.pace(&shared, PACED_HOPS_PER_S, seconds * paced_share)?;
    let drained = drained && shared.wait_for(generator.predicted, drain_limit);
    let (pushed, predicted) = (generator.pushed, generator.predicted);
    let join_start = Instant::now();
    let joined = fleet.scheduler.join();
    let join_s = join_start.elapsed().as_secs_f64();
    cfd_telemetry::set_enabled(false);

    // Correctness, outside every timed region.
    let emitted = shared.decisions();
    outcome.attempted = predicted;
    outcome.failed += predicted.abs_diff(emitted) + shared.unmapped.load(Ordering::Relaxed);
    match &joined {
        Ok(report) => outcome.failed += report.drops,
        Err(error) => {
            outcome.failed += 1;
            outcome.notes.push(format!("scheduler error: {error}"));
        }
    }
    if !drained {
        outcome
            .notes
            .push("decisions still missing after 60 s".into());
    }
    let mut checked = 0;
    for (channel, record) in &fleet.records {
        let observed: Vec<Decision> = record
            .lock()
            .expect("record never poisoned")
            .iter()
            .map(|(_, decision)| decision.clone())
            .collect();
        let reference: Vec<Decision> = reference_decisions(&events, pushed, *channel)?
            .into_iter()
            .map(|(_, decision)| decision)
            .collect();
        checked += reference.len();
        outcome.failed += count_mismatches(&reference, &observed);
    }
    outcome.notes.push(format!(
        "check: {checked} decisions of {} sampled channels equal a serial StreamingSensor",
        fleet.records.len()
    ));

    let mut latencies =
        std::mem::take(&mut *shared.latencies.lock().expect("latency log never poisoned"));
    let (mut rates, mut factors) = shared.slice_rates(&saturation.slices);
    let first_paced = paced.starts.first().map_or(0, |&(slice, _)| slice);
    let paced_factors = shared.slice_factors(&(first_paced..u64::MAX));
    let mut p50s = paced.scaled_medians_us(&latencies, &paced_factors);
    let metrics = &mut outcome.metrics;
    metrics.set("setup_s", median(&mut setups), "s");
    let decisions_per_s = median(&mut rates);
    metrics.set("decisions_per_s", decisions_per_s, "1/s");
    metrics.set("decision_p50_us", median(&mut p50s), "us");
    metrics.set("decision_p99_us", quantile_us(&mut latencies, 0.99), "us");
    outcome.notes.push(format!(
        "saturation: {:.0} events/s pushed over {} worker slices; paced: {} decisions at \
         {PACED_HOPS_PER_S} hops/s",
        ratio(saturation.pushes.len() as f64, saturation.seconds),
        rates.len(),
        latencies.len()
    ));
    outcome.notes.push(format!(
        "speed: median scale factor {:.4} over {} saturation slices, {:.4} over {} paced slices",
        median(&mut factors),
        factors.len(),
        median(&mut paced_factors.into_values().collect::<Vec<_>>()),
        p50s.len()
    ));
    metrics.set(
        "service.generator_lag_p99_us",
        quantile(&mut paced.lags, 0.99) as f64 / 1e3,
        "us",
    );
    metrics.set("service.join_s", join_s, "s");
    if let Ok(report) = &joined {
        metrics.set("service.drops", report.drops as f64, "count");
    }

    if let Some((mut window, trace, sink_s)) = traced {
        let traced_rate = median(&mut shared.slice_rates(&window.slices).0);
        metrics.set(
            "telemetry.overhead_ratio",
            ratio(decisions_per_s, traced_rate),
            "ratio",
        );
        metrics.set(
            "service.push_p99_us",
            quantile(&mut window.pushes, 0.99) as f64 / 1e3,
            "us",
        );
        let wall_s = window.seconds * workers as f64;
        layers(&trace, wall_s, sink_s, &mut outcome);
    }
    Ok(outcome)
}

/// The per-layer metrics and ledger of the traced saturation window.
fn layers(trace: &Trace, wall_s: f64, sink_s: f64, outcome: &mut Outcome) {
    let fft = trace.busy_s("dsp.fft.forward_ns");
    let spectra = trace.busy_s("dsp.scf.spectra_ns");
    let refresh = trace.busy_s("stream.refresh_ns");
    let cfd = trace.busy_s("core.decide.cfd_ns");
    let decide = trace.busy_s("stream.decide_ns");
    let hop = trace.busy_s("service.hop_ns");
    let queue_wait = trace.busy_s("service.queue_wait_ns");
    // Block spectra are computed on every hop, inside the decide span only
    // on deciding hops: split their time pro rata (one FFT per hop).
    let deciding = ratio(
        trace.counter("service.decisions") as f64,
        trace.counter("service.hops") as f64,
    );
    let mut ledger = Ledger::new(wall_s);
    ledger.book("dsp.fft", fft, 0.0);
    ledger.book("dsp.scf.spectra", spectra, fft);
    ledger.book("stream.refresh", refresh, 0.0);
    ledger.book("core.decide.cfd", cfd, 0.0);
    ledger.book("stream.decide", decide, refresh + cfd + spectra * deciding);
    ledger.book("service.sink", sink_s, 0.0);
    ledger.book(
        "service.hop",
        hop,
        decide + spectra * (1.0 - deciding) + sink_s,
    );
    ledger.book("service.queue_wait", queue_wait, 0.0);
    outcome.notes.extend(ledger.render());
    let metrics = &mut outcome.metrics;
    ledger.record(metrics);
    crate::layers::common_layers(trace, metrics, &params());
    let incremental = trace.counter("stream.incremental_hops") as f64;
    let refreshes = trace.counter("stream.exact_refreshes") as f64;
    metrics.set("stream.decide_busy_s", decide, "s");
    metrics.set("stream.refresh_busy_s", refresh, "s");
    metrics.set("stream.incremental_hops", incremental, "count");
    metrics.set("stream.exact_refreshes", refreshes, "count");
    metrics.set(
        "stream.refresh_ratio",
        ratio(refreshes, incremental + refreshes),
        "ratio",
    );
    metrics.set("service.queue_wait_busy_s", queue_wait, "s");
    metrics.set("service.hop_busy_s", hop, "s");
    metrics.set(
        "core.decide.cfd_us",
        trace.mean_us("core.decide.cfd_ns"),
        "us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `events` through a small fleet, due time = event index.
    fn drive(
        events: &[TrafficEvent],
        channels: usize,
        workers: usize,
    ) -> (Vec<(u64, Record)>, u64, u64) {
        let shared = Shared::new();
        let all: Vec<u64> = (0..channels as u64).collect();
        let fleet = spawn_fleet(channels, workers, &shared, &all).unwrap();
        let mut generator = Generator::new(&fleet, events);
        for _ in 0..events.len() {
            let index = generator.pushed;
            generator.push_next(index).unwrap();
        }
        let (pushed, predicted) = (generator.pushed, generator.predicted);
        let report = fleet.scheduler.join().unwrap();
        assert_eq!(report.decisions, shared.decisions());
        assert_eq!(shared.unmapped.load(Ordering::Relaxed), 0);
        (fleet.records, pushed, predicted)
    }

    fn parking_traffic(seed: u64) -> Vec<TrafficEvent> {
        traffic_with(seed, 6, 140, ActivityModel::bursty(0.97, 0.6).unwrap()).unwrap()
    }

    #[test]
    fn same_seed_same_events_and_decision_counts() {
        let a = traffic(7, 8, 40).unwrap();
        assert_eq!(a, traffic(7, 8, 40).unwrap());
        assert_ne!(
            a,
            traffic(8, 8, 40).unwrap(),
            "another seed changes the inputs"
        );
        let (_, _, first) = drive(&a, 8, 2);
        let (_, _, second) = drive(&a, 8, 2);
        assert_eq!(first, second);
        assert!(first > 0);
    }

    #[test]
    fn sink_maps_each_decision_to_its_completing_hop() {
        let events = parking_traffic(3);
        let parks = events
            .iter()
            .filter(|e| matches!(e, TrafficEvent::Park { .. }))
            .count();
        assert!(parks > 0, "the traffic must park channels");
        let (records, pushed, predicted) = drive(&events, 6, 2);
        let mut total = 0;
        let mut after_park = 0;
        for (channel, record) in records {
            let observed = record.lock().unwrap().clone();
            let reference = reference_decisions(&events, pushed, channel).unwrap();
            assert_eq!(observed, reference, "channel {channel}");
            total += observed.len() as u64;
            // Decisions re-warmed after a park are part of the check.
            let first_park = events
                .iter()
                .position(|e| matches!(e, TrafficEvent::Park { channel: c } if *c == channel));
            if let Some(first_park) = first_park {
                after_park += observed
                    .iter()
                    .filter(|(due, _)| *due > first_park as u64)
                    .count();
            }
        }
        assert_eq!(total, predicted);
        assert!(
            after_park > 0,
            "some channel must decide again after a park"
        );
    }

    #[test]
    fn the_check_rejects_a_wrong_decision() {
        let events = parking_traffic(5);
        let reference: Vec<Decision> = reference_decisions(&events, events.len() as u64, 1)
            .unwrap()
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        assert!(!reference.is_empty());
        assert_eq!(count_mismatches(&reference, &reference), 0);
        let mut wrong = reference.clone();
        wrong[0] = Decision::new(wrong[0].threshold - wrong[0].statistic, wrong[0].threshold);
        assert_eq!(count_mismatches(&reference, &wrong), 1);
        assert!(count_mismatches(&reference, &reference[1..]) > 0);
    }
}
