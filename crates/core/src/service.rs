//! Sensing as a service: a many-channel streaming scheduler.
//!
//! The paper's Table-1 budget (~140 µs per decision) was designed for a
//! sensing node that watches *many* licensed bands continuously — the
//! cooperative-sensing motivation of Cabric et al. assumes fleets of
//! sensors each multiplexing channels, not one decision at a time. This
//! module turns the per-channel machinery ([`StreamingSensor`], O(grid)
//! incremental DSCF) into that node: a [`SensingScheduler`] owns `N`
//! worker threads and multiplexes `M ≫ N` channel subscriptions over
//! them, adapting the sweep engine's worker-pool pattern
//! (`cfd_scenario::eval`) to a long-lived service.
//!
//! * Each [`ChannelSubscription`] pairs a [`BackendRecipe`]-built
//!   per-worker backend replica with a pinned [`StreamingSensor`] whose
//!   ring/accumulator/profile buffers persist across hops — zero
//!   steady-state allocation, the whole point of the streaming rework.
//! * Work arrives as per-channel sample hops through a **bounded ingress
//!   queue** per worker with an explicit backpressure policy:
//!   [`Backpressure::Block`] stalls the producer until the worker drains
//!   (never loses a hop), [`Backpressure::DropOldest`] sheds the oldest
//!   queued hop and counts it in `service.drops`. The vendored crossbeam
//!   stand-in only provides unbounded channels, so the bounded queue
//!   (capacity, drop-oldest, buffer recycling) is implemented here on the
//!   same `Mutex` + `Condvar` MPMC shape.
//! * Channels are **sharded across workers by a stable hash** of the
//!   channel id ([`shard_for`]), so a channel's sensor state never
//!   migrates and the hot path takes no lock beyond its own shard queue.
//! * An idle/duty-cycle path **parks** vacant channels between
//!   Markov-style activity bursts ([`SensingScheduler::park`] →
//!   [`StreamingSensor::park`]): stream state is forgotten, buffer
//!   allocations are kept, the next hop re-warms in place.
//! * Decisions fan out through a per-channel [`DecisionSink`], owned by
//!   the channel's worker — no cross-thread synchronisation on the
//!   decision path unless the sink itself introduces it.
//! * Workers drain their shard queue in **batches** and stable-sort each
//!   batch by channel before processing, so a channel's queued hops run
//!   back-to-back (**channel coalescing**). With thousands of
//!   subscriptions the per-hop cost is dominated by pulling the
//!   channel's ~O(grid) sensor state back into cache; coalescing pays
//!   that cold reload once per batch instead of once per hop, which is
//!   where the scheduler's throughput win over per-decision recompute
//!   comes from. The batch drain also amortises lock/condvar traffic.
//!
//! Because hops of one channel are processed in arrival order by one
//! pinned worker — the coalescing sort is stable, so reordering only
//! ever happens *across* channels, never within one — the scheduler's
//! per-channel decision sequence is **bit-identical** to driving that
//! channel's [`StreamingSensor`] serially — for any worker count and
//! either backpressure policy, as long as no hop was shed
//! (`tests/service.rs` pins this property).
//!
//! # Example
//!
//! ```
//! use cfd_core::service::{
//!     Backpressure, ChannelSubscription, DecisionLog, SensingScheduler, ServiceConfig,
//! };
//! use cfd_core::stream::StreamingConfig;
//! use cfd_dsp::detector::CyclostationaryDetector;
//! use cfd_dsp::scf::ScfParams;
//! use cfd_dsp::signal::awgn;
//!
//! # fn main() -> Result<(), cfd_core::error::CfdError> {
//! let params = ScfParams::new(32, 7, 4)?;
//! let recipe = CyclostationaryDetector::new(params.clone(), 0.35, 1)?;
//! let mut builder = SensingScheduler::builder(
//!     ServiceConfig::new(2)
//!         .with_queue_capacity(8)
//!         .with_backpressure(Backpressure::Block),
//! );
//! let mut logs = Vec::new();
//! for channel in 0..16u64 {
//!     let log = DecisionLog::new();
//!     logs.push(log.clone());
//!     builder = builder.subscribe(ChannelSubscription::new(
//!         channel,
//!         StreamingConfig::new(params.clone()),
//!         recipe.clone(),
//!         log,
//!     ));
//! }
//! let scheduler = builder.spawn()?;
//! // 6 blocks per channel -> 3 decisions each (window = 4).
//! for hop in 0..6u64 {
//!     for channel in 0..16u64 {
//!         scheduler.push(channel, &awgn(32, 1.0, channel * 100 + hop))?;
//!     }
//! }
//! let report = scheduler.join()?;
//! assert_eq!(report.decisions, 16 * 3);
//! assert_eq!(report.drops, 0);
//! assert!(logs.iter().all(|log| log.len() == 3));
//! # Ok(())
//! # }
//! ```

use crate::backend::{BackendRecipe, Decision, SensingBackend};
use crate::error::CfdError;
use crate::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::complex::Cplx;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Stable identifier of one band subscription.
pub type ChannelId = u64;

/// The `service.*` instruments: per-stage histograms (hop processing,
/// worker queue wait — recorded only when timing is enabled), throughput
/// counters (hops, decisions, drops — always live) and occupancy gauges
/// (subscribed channels, workers, parked channels, queued hops).
struct ServiceInstruments {
    hop_ns: cfd_telemetry::Histogram,
    queue_wait_ns: cfd_telemetry::Histogram,
    hops: cfd_telemetry::Counter,
    decisions: cfd_telemetry::Counter,
    drops: cfd_telemetry::Counter,
    channels: cfd_telemetry::Gauge,
    workers: cfd_telemetry::Gauge,
    parked: cfd_telemetry::Gauge,
    queue_occupancy: cfd_telemetry::Gauge,
}

fn instruments() -> &'static ServiceInstruments {
    static INSTRUMENTS: OnceLock<ServiceInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| ServiceInstruments {
        hop_ns: cfd_telemetry::histogram("service.hop_ns"),
        queue_wait_ns: cfd_telemetry::histogram("service.queue_wait_ns"),
        hops: cfd_telemetry::counter("service.hops"),
        decisions: cfd_telemetry::counter("service.decisions"),
        drops: cfd_telemetry::counter("service.drops"),
        channels: cfd_telemetry::gauge("service.channels"),
        workers: cfd_telemetry::gauge("service.workers"),
        parked: cfd_telemetry::gauge("service.parked"),
        queue_occupancy: cfd_telemetry::gauge("service.queue_occupancy"),
    })
}

/// What a full ingress queue does to the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the producing thread until the shard's worker drains a slot.
    /// No hop is ever lost; end-to-end latency absorbs the burst.
    Block,
    /// Shed the **oldest queued hop** of the shard to make room, counting
    /// it in `service.drops` (and [`ServiceReport::drops`]). The freshest
    /// samples win; parked/park control messages are never shed.
    DropOldest,
}

/// Scheduler sizing: worker count, per-worker ingress capacity and the
/// backpressure policy applied when a shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads the scheduler owns. Channels are sharded over them
    /// by [`shard_for`].
    pub workers: usize,
    /// Bounded capacity of each worker's ingress queue, in queued hops.
    ///
    /// Besides bounding memory, the capacity caps the worker's
    /// channel-coalescing batch size: under slot-major traffic a shard
    /// coalesces at most `capacity / subscribed channels` hops of one
    /// channel per drain, so throughput-sensitive deployments should size
    /// the queue at a few hops per subscribed channel.
    pub queue_capacity: usize,
    /// What [`SensingScheduler::push`] does when the shard queue is full.
    pub backpressure: Backpressure,
}

impl ServiceConfig {
    /// Default per-worker ingress capacity.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

    /// A configuration with `workers` worker threads, the default queue
    /// capacity and [`Backpressure::Block`].
    pub fn new(workers: usize) -> Self {
        ServiceConfig {
            workers,
            queue_capacity: Self::DEFAULT_QUEUE_CAPACITY,
            backpressure: Backpressure::Block,
        }
    }

    /// Sets the per-worker ingress queue capacity (in hops).
    pub fn with_queue_capacity(mut self, hops: usize) -> Self {
        self.queue_capacity = hops;
        self
    }

    /// Sets the backpressure policy.
    pub fn with_backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }
}

/// Receives one channel's decisions, in hop order, on that channel's
/// worker thread.
///
/// Closures work directly: any `FnMut(ChannelId, &Decision) + Send`
/// implements this trait. For collecting results across the scheduler
/// boundary, use [`DecisionLog`].
pub trait DecisionSink: Send {
    /// Called once per emitted decision of the subscribed channel.
    fn on_decision(&mut self, channel: ChannelId, decision: &Decision);
}

impl<F: FnMut(ChannelId, &Decision) + Send> DecisionSink for F {
    fn on_decision(&mut self, channel: ChannelId, decision: &Decision) {
        self(channel, decision)
    }
}

/// A shareable [`DecisionSink`] that appends every decision to a vector:
/// clone one half into the subscription, keep the other to read the
/// channel's decisions after [`SensingScheduler::join`].
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    inner: Arc<Mutex<Vec<Decision>>>,
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> Self {
        DecisionLog::default()
    }

    /// Decisions recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("decision log poisoned").len()
    }

    /// Whether no decision has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the recorded decisions, leaving the log empty.
    pub fn take(&self) -> Vec<Decision> {
        std::mem::take(&mut *self.inner.lock().expect("decision log poisoned"))
    }
}

impl DecisionSink for DecisionLog {
    fn on_decision(&mut self, _channel: ChannelId, decision: &Decision) {
        self.inner
            .lock()
            .expect("decision log poisoned")
            .push(decision.clone());
    }
}

/// One band subscription: the channel id, the sliding-window geometry and
/// the backend recipe whose per-worker replica will decide every hop, plus
/// the sink its decisions fan out through.
pub struct ChannelSubscription {
    id: ChannelId,
    config: StreamingConfig,
    recipe: Arc<dyn BackendRecipe + Send + Sync>,
    sink: Box<dyn DecisionSink>,
}

impl ChannelSubscription {
    /// Describes a subscription. The backend replica itself is built by
    /// the channel's worker thread (recipes are shared, replicas are not —
    /// the sweep engine's replication contract).
    pub fn new(
        id: ChannelId,
        config: StreamingConfig,
        recipe: impl BackendRecipe + Send + 'static,
        sink: impl DecisionSink + 'static,
    ) -> Self {
        ChannelSubscription {
            id,
            config,
            recipe: Arc::new(recipe),
            sink: Box::new(sink),
        }
    }

    /// The subscribed channel id.
    pub fn id(&self) -> ChannelId {
        self.id
    }
}

impl fmt::Debug for ChannelSubscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelSubscription")
            .field("id", &self.id)
            .field("backend", &self.recipe.label())
            .field("params", &self.config.params)
            .finish_non_exhaustive()
    }
}

/// The worker shard a channel is pinned to: a stable integer hash
/// (SplitMix64 finaliser) of the channel id, reduced modulo the worker
/// count.
///
/// Stability is load-bearing: the mapping depends only on `(channel,
/// workers)` — not on subscription order, process randomness or platform —
/// so a channel's sensor state lands on the same worker on every run and
/// never migrates within one.
pub fn shard_for(channel: ChannelId, workers: usize) -> usize {
    assert!(workers > 0, "shard_for requires at least one worker");
    let mut x = channel.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % workers as u64) as usize
}

/// One queued ingress message for a worker shard.
enum IngressItem {
    /// `samples` is a recycled buffer owned by the queue's pool.
    Hop {
        channel: ChannelId,
        samples: Vec<Cplx>,
    },
    /// Park the channel (idle/duty-cycle path). Never shed by
    /// [`Backpressure::DropOldest`].
    Park { channel: ChannelId },
}

impl IngressItem {
    /// The subscribed channel this item belongs to — the worker's
    /// coalescing sort key. Sorting a drained batch by channel is safe
    /// precisely because only the *per-channel* order of items is
    /// observable: each channel's decisions depend on its own hop/park
    /// sequence alone, and a stable sort preserves that sequence.
    fn channel(&self) -> ChannelId {
        match self {
            IngressItem::Hop { channel, .. } | IngressItem::Park { channel } => *channel,
        }
    }
}

struct QueueState {
    items: VecDeque<IngressItem>,
    /// Recycled hop buffers: a worker returns each processed hop's buffer
    /// here, producers reuse them — zero steady-state allocation on the
    /// ingress path once the pool is warm.
    pool: Vec<Vec<Cplx>>,
    closed: bool,
}

/// The bounded MPMC ingress queue of one worker shard, with explicit
/// backpressure. Same `Mutex` + `Condvar` shape as the vendored crossbeam
/// channel, plus capacity, drop-oldest shedding and buffer recycling.
struct IngressQueue {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    policy: Backpressure,
    drops: AtomicU64,
}

impl IngressQueue {
    fn new(capacity: usize, policy: Backpressure) -> Self {
        IngressQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                pool: Vec::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            policy,
            drops: AtomicU64::new(0),
        }
    }

    /// Applies the backpressure policy until a slot is free or the queue
    /// is closed: blocks, or sheds the oldest queued **hop** (park
    /// controls survive; if only controls are queued, even `DropOldest`
    /// blocks).
    fn make_room<'a>(
        &self,
        mut state: std::sync::MutexGuard<'a, QueueState>,
        occupancy: &AtomicU64,
    ) -> std::sync::MutexGuard<'a, QueueState> {
        while state.items.len() >= self.capacity && !state.closed {
            let shed = match self.policy {
                Backpressure::Block => None,
                Backpressure::DropOldest => state
                    .items
                    .iter()
                    .position(|item| matches!(item, IngressItem::Hop { .. })),
            };
            match shed {
                Some(oldest) => {
                    if let Some(IngressItem::Hop { samples, .. }) = state.items.remove(oldest) {
                        state.pool.push(samples);
                    }
                    self.drops.fetch_add(1, Ordering::Relaxed);
                    occupancy.fetch_sub(1, Ordering::Relaxed);
                    instruments().drops.increment();
                }
                None => state = self.not_full.wait(state).expect("ingress queue poisoned"),
            }
        }
        state
    }

    fn push_hop(&self, channel: ChannelId, samples: &[Cplx], occupancy: &AtomicU64) -> bool {
        self.enqueue(occupancy, |state| {
            let mut buffer = state.pool.pop().unwrap_or_default();
            buffer.clear();
            buffer.extend_from_slice(samples);
            IngressItem::Hop {
                channel,
                samples: buffer,
            }
        })
    }

    fn push_park(&self, channel: ChannelId, occupancy: &AtomicU64) -> bool {
        self.enqueue(occupancy, |_| IngressItem::Park { channel })
    }

    /// Makes room under the backpressure policy, then queues the item
    /// `make` builds. Returns `false`, queuing nothing, once the queue is
    /// closed: its worker has stopped and will never drain it.
    fn enqueue(
        &self,
        occupancy: &AtomicU64,
        make: impl FnOnce(&mut QueueState) -> IngressItem,
    ) -> bool {
        let state = self.state.lock().expect("ingress queue poisoned");
        let mut state = self.make_room(state, occupancy);
        if state.closed {
            return false;
        }
        let item = make(&mut state);
        state.items.push_back(item);
        // Counted under the lock, before a worker can drain the item, so
        // the drain's subtraction never runs ahead of this addition.
        let queued = occupancy.fetch_add(1, Ordering::Relaxed) + 1;
        drop(state);
        instruments().queue_occupancy.set(queued as f64);
        self.not_empty.notify_one();
        true
    }

    /// Blocks until at least one item is queued, then drains the whole
    /// queue into `batch` (arrival order preserved) under one lock.
    /// Returns `false` once the queue is closed **and** drained (workers
    /// always finish in-flight work).
    ///
    /// Draining in batches is what makes the worker's channel coalescing
    /// possible (see [`worker_loop`]) and amortises the lock/condvar
    /// traffic over the whole batch instead of paying it per hop.
    fn drain_into(&self, occupancy: &AtomicU64, batch: &mut Vec<IngressItem>) -> bool {
        debug_assert!(batch.is_empty(), "workers fully consume each batch");
        let mut state = self.state.lock().expect("ingress queue poisoned");
        loop {
            if !state.items.is_empty() {
                batch.extend(state.items.drain(..));
                drop(state);
                let drained = batch.len() as u64;
                instruments()
                    .queue_occupancy
                    .set(occupancy.fetch_sub(drained, Ordering::Relaxed) as f64 - drained as f64);
                self.not_full.notify_all();
                return true;
            }
            if state.closed {
                return false;
            }
            state = self.not_empty.wait(state).expect("ingress queue poisoned");
        }
    }

    /// Returns a batch of processed hop buffers to the pool under one
    /// lock (the pool stays bounded by the queue capacity so a burst
    /// cannot grow it without bound).
    fn recycle_all(&self, buffers: &mut Vec<Vec<Cplx>>) {
        let mut state = self.state.lock().expect("ingress queue poisoned");
        for mut buffer in buffers.drain(..) {
            if state.pool.len() < self.capacity {
                buffer.clear();
                state.pool.push(buffer);
            }
        }
    }

    /// Closes the queue and wakes every waiter. Runs on an unwinding
    /// worker too ([`CloseOnExit`]), so it tolerates a poisoned lock
    /// rather than panicking inside a panic.
    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Held by a worker thread for its whole life: closes the worker's shard
/// queue when the thread exits, by returning or by unwinding from a
/// panicking backend, so a producer blocked on the full queue wakes and
/// gets [`CfdError::WorkerStopped`] instead of waiting forever.
struct CloseOnExit(Arc<IngressQueue>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The per-worker view of one subscribed channel: the pinned sensor (its
/// ring/accumulator/profile buffers persist across hops), the decision
/// sink, a reused decision scratch vector and the park/failure state.
struct ChannelState {
    sensor: StreamingSensor<Box<dyn SensingBackend + Send>>,
    sink: Box<dyn DecisionSink>,
    out: Vec<Decision>,
    parked: bool,
    /// First backend/DSP error of this channel; later hops are skipped
    /// (and counted as processed) instead of deciding from torn state.
    failed: bool,
}

/// What one worker hands back at join time.
struct WorkerOutcome {
    hops: u64,
    decisions: u64,
    errors: Vec<(ChannelId, CfdError)>,
}

/// Counters shared between the scheduler handle and its workers.
struct SharedCounters {
    /// Hops currently queued across every shard (the occupancy gauge).
    occupancy: AtomicU64,
    /// Channels currently parked.
    parked: AtomicU64,
}

fn worker_loop(
    queue: &IngressQueue,
    subscriptions: Vec<ChannelSubscription>,
    shared: &SharedCounters,
) -> Result<WorkerOutcome, CfdError> {
    let mut outcome = WorkerOutcome {
        hops: 0,
        decisions: 0,
        errors: Vec::new(),
    };
    // Build this shard's replicas in-thread, like the sweep engine's
    // workers: recipes are shared, backend state is not.
    let mut channels: HashMap<ChannelId, ChannelState> =
        HashMap::with_capacity(subscriptions.len());
    for subscription in subscriptions {
        let id = subscription.id;
        match subscription
            .recipe
            .build()
            .and_then(|backend| StreamingSensor::new(subscription.config, backend))
        {
            Ok(sensor) => {
                channels.insert(
                    id,
                    ChannelState {
                        sensor,
                        sink: subscription.sink,
                        out: Vec::new(),
                        parked: false,
                        failed: false,
                    },
                );
            }
            Err(error) => outcome.errors.push((id, error)),
        }
    }
    // Reused batch scratch: the drained items and the processed hop
    // buffers awaiting one batched recycle.
    let mut batch: Vec<IngressItem> = Vec::new();
    let mut spent: Vec<Vec<Cplx>> = Vec::new();
    loop {
        // Same semantic as the sweep engine's `queue_wait_ns`: how long
        // this worker sat blocked on its shard queue (recorded only when
        // timing is enabled; the Timer is a no-op otherwise).
        let wait = instruments().queue_wait_ns.start_timer();
        let live = queue.drain_into(&shared.occupancy, &mut batch);
        drop(wait);
        if !live {
            break;
        }
        // Coalesce the batch by channel with a stable sort: a channel's
        // queued hops (and its park markers) stay in arrival order — which
        // is what keeps the scheduler decision-identical to serial driving
        // — but run back-to-back, so the channel's sensor state (ring,
        // accumulator, observation) is pulled into cache once per batch
        // instead of once per hop. With thousands of subscriptions the
        // per-hop work is memory-bound on that state; coalescing is where
        // the many-channel throughput comes from.
        batch.sort_by_key(IngressItem::channel);
        for item in batch.drain(..) {
            match item {
                IngressItem::Hop { channel, samples } => {
                    outcome.hops += 1;
                    instruments().hops.increment();
                    if let Some(state) = channels.get_mut(&channel) {
                        if !state.failed {
                            let timer = instruments().hop_ns.start_timer();
                            if state.parked {
                                state.parked = false;
                                instruments().parked.set(
                                    shared.parked.fetch_sub(1, Ordering::Relaxed) as f64 - 1.0,
                                );
                            }
                            state.out.clear();
                            match state.sensor.push_into(&samples, &mut state.out) {
                                Ok(()) => {
                                    for decision in &state.out {
                                        state.sink.on_decision(channel, decision);
                                    }
                                    outcome.decisions += state.out.len() as u64;
                                    instruments().decisions.add(state.out.len() as u64);
                                }
                                Err(error) => {
                                    state.failed = true;
                                    outcome.errors.push((channel, error));
                                }
                            }
                            drop(timer);
                        }
                    }
                    spent.push(samples);
                }
                IngressItem::Park { channel } => {
                    if let Some(state) = channels.get_mut(&channel) {
                        if !state.parked {
                            state.sensor.park();
                            state.parked = true;
                            instruments()
                                .parked
                                .set(shared.parked.fetch_add(1, Ordering::Relaxed) as f64 + 1.0);
                        }
                    }
                }
            }
        }
        queue.recycle_all(&mut spent);
    }
    Ok(outcome)
}

/// Aggregate outcome of a scheduler's lifetime, returned by
/// [`SensingScheduler::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReport {
    /// Hops processed by the workers (shed hops are not processed).
    pub hops: u64,
    /// Decisions emitted across every channel.
    pub decisions: u64,
    /// Hops shed by [`Backpressure::DropOldest`]. Always satisfies
    /// `pushed = hops + drops` once joined — every pushed hop is either
    /// processed or accounted here.
    pub drops: u64,
}

/// Builds a [`SensingScheduler`]: collect subscriptions, then
/// [`spawn`](ServiceBuilder::spawn) the worker fleet.
#[derive(Debug)]
pub struct ServiceBuilder {
    config: ServiceConfig,
    subscriptions: Vec<ChannelSubscription>,
}

impl ServiceBuilder {
    /// Adds one channel subscription (builder style).
    pub fn subscribe(mut self, subscription: ChannelSubscription) -> Self {
        self.subscriptions.push(subscription);
        self
    }

    /// Validates the configuration, shards the subscriptions and spawns
    /// the workers (each builds its shard's backend replicas in-thread).
    ///
    /// # Errors
    ///
    /// [`CfdError::InvalidParameter`] for a zero worker count or queue
    /// capacity, duplicate channel ids, or invalid per-channel DSCF
    /// geometry. Backend construction errors surface at
    /// [`SensingScheduler::join`], attributed to their channel.
    pub fn spawn(self) -> Result<SensingScheduler, CfdError> {
        let ServiceBuilder {
            config,
            subscriptions,
        } = self;
        if config.workers == 0 {
            return Err(CfdError::InvalidParameter {
                name: "workers",
                message: "the scheduler needs at least one worker thread".into(),
            });
        }
        if config.queue_capacity == 0 {
            return Err(CfdError::InvalidParameter {
                name: "queue_capacity",
                message: "the bounded ingress queue needs at least one slot".into(),
            });
        }
        let mut shards: HashMap<ChannelId, usize> = HashMap::with_capacity(subscriptions.len());
        let mut sharded: Vec<Vec<ChannelSubscription>> = Vec::new();
        sharded.resize_with(config.workers, Vec::new);
        for subscription in subscriptions {
            subscription.config.params.validate()?;
            if subscription.config.refresh_interval == 0 {
                return Err(CfdError::InvalidParameter {
                    name: "refresh_interval",
                    message: format!(
                        "channel {}: must be at least 1 hop between exact refreshes",
                        subscription.id
                    ),
                });
            }
            let shard = shard_for(subscription.id, config.workers);
            if shards.insert(subscription.id, shard).is_some() {
                return Err(CfdError::InvalidParameter {
                    name: "channel",
                    message: format!("channel {} subscribed twice", subscription.id),
                });
            }
            sharded[shard].push(subscription);
        }
        instruments().workers.set(config.workers as f64);
        instruments().channels.set(shards.len() as f64);
        let shared = Arc::new(SharedCounters {
            occupancy: AtomicU64::new(0),
            parked: AtomicU64::new(0),
        });
        let mut queues = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for shard_subscriptions in sharded {
            let queue = Arc::new(IngressQueue::new(
                config.queue_capacity,
                config.backpressure,
            ));
            let worker_queue = CloseOnExit(Arc::clone(&queue));
            let worker_shared = Arc::clone(&shared);
            handles.push(thread::spawn(move || {
                worker_loop(&worker_queue.0, shard_subscriptions, &worker_shared)
            }));
            queues.push(queue);
        }
        Ok(SensingScheduler {
            config,
            queues,
            shards,
            handles,
            shared,
            pushed: AtomicU64::new(0),
        })
    }
}

/// The many-channel streaming scheduler: `N` pinned workers multiplexing
/// `M ≫ N` subscriptions. See the [module docs](self) for the full
/// contract; build one with [`SensingScheduler::builder`].
pub struct SensingScheduler {
    config: ServiceConfig,
    queues: Vec<Arc<IngressQueue>>,
    shards: HashMap<ChannelId, usize>,
    handles: Vec<thread::JoinHandle<Result<WorkerOutcome, CfdError>>>,
    shared: Arc<SharedCounters>,
    pushed: AtomicU64,
}

impl SensingScheduler {
    /// Starts describing a scheduler over `config`.
    pub fn builder(config: ServiceConfig) -> ServiceBuilder {
        ServiceBuilder {
            config,
            subscriptions: Vec::new(),
        }
    }

    /// The configuration the scheduler was spawned with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Subscribed channel count.
    pub fn channels(&self) -> usize {
        self.shards.len()
    }

    /// The worker shard `channel` is pinned to (`None` if not
    /// subscribed). Equals [`shard_for`]`(channel, workers)`.
    pub fn shard_of(&self, channel: ChannelId) -> Option<usize> {
        self.shards.get(&channel).copied()
    }

    /// Hops pushed so far (processed, queued or shed).
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Hops shed by [`Backpressure::DropOldest`] so far. Always zero
    /// under [`Backpressure::Block`].
    pub fn drops(&self) -> u64 {
        self.queues
            .iter()
            .map(|queue| queue.drops.load(Ordering::Relaxed))
            .sum()
    }

    /// Feeds one hop of samples to `channel`'s pinned worker. May block
    /// (see [`Backpressure`]); the samples are copied into a recycled
    /// ingress buffer, so the slice can be reused immediately.
    ///
    /// # Errors
    ///
    /// [`CfdError::InvalidParameter`] when `channel` was never subscribed;
    /// [`CfdError::WorkerStopped`] when its worker has stopped (a
    /// panicking backend), also for a producer that was blocked on the
    /// full queue when it stopped. The hop is then not counted as pushed.
    pub fn push(&self, channel: ChannelId, samples: &[Cplx]) -> Result<(), CfdError> {
        let shard = self.subscribed_shard(channel)?;
        if !self.queues[shard].push_hop(channel, samples, &self.shared.occupancy) {
            return Err(CfdError::WorkerStopped { shard });
        }
        self.pushed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Parks `channel` between activity bursts: its sensor forgets the
    /// stream (buffers kept — [`StreamingSensor::park`]) and the next hop
    /// starts a fresh warm-up. Queued after the channel's in-flight hops;
    /// never shed by [`Backpressure::DropOldest`].
    ///
    /// # Errors
    ///
    /// [`CfdError::InvalidParameter`] when `channel` was never subscribed;
    /// [`CfdError::WorkerStopped`] when its worker has stopped.
    pub fn park(&self, channel: ChannelId) -> Result<(), CfdError> {
        let shard = self.subscribed_shard(channel)?;
        if !self.queues[shard].push_park(channel, &self.shared.occupancy) {
            return Err(CfdError::WorkerStopped { shard });
        }
        Ok(())
    }

    /// `channel`'s shard, or the structured error for an unsubscribed one.
    fn subscribed_shard(&self, channel: ChannelId) -> Result<usize, CfdError> {
        self.shard_of(channel).ok_or(CfdError::InvalidParameter {
            name: "channel",
            message: format!("channel {channel} is not subscribed"),
        })
    }

    /// Closes the ingress, drains every queued hop and joins the workers.
    ///
    /// # Errors
    ///
    /// The first per-channel error in channel-id order (deterministic,
    /// like the sweep engine's smallest-cell-first reporting): backend
    /// construction failures and decide-time errors both surface here.
    ///
    /// # Panics
    ///
    /// Re-raises a worker thread's panic.
    pub fn join(self) -> Result<ServiceReport, CfdError> {
        for queue in &self.queues {
            queue.close();
        }
        let mut report = ServiceReport {
            hops: 0,
            decisions: 0,
            drops: 0,
        };
        let mut errors: Vec<(ChannelId, CfdError)> = Vec::new();
        for handle in self.handles {
            let outcome = match handle.join() {
                Ok(outcome) => outcome?,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            report.hops += outcome.hops;
            report.decisions += outcome.decisions;
            errors.extend(outcome.errors);
        }
        // Producers and workers of different shards set the occupancy
        // gauge in racing order; with every worker joined, publish the
        // settled count.
        instruments()
            .queue_occupancy
            .set(self.shared.occupancy.load(Ordering::Relaxed) as f64);
        report.drops = self
            .queues
            .iter()
            .map(|queue| queue.drops.load(Ordering::Relaxed))
            .sum();
        errors.sort_by_key(|(channel, _)| *channel);
        match errors.into_iter().next() {
            Some((_, error)) => Err(error),
            None => Ok(report),
        }
    }
}

impl fmt::Debug for SensingScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SensingScheduler")
            .field("config", &self.config)
            .field("channels", &self.shards.len())
            .field("pushed", &self.pushed())
            .field("drops", &self.drops())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::detector::CyclostationaryDetector;
    use cfd_dsp::scf::ScfParams;
    use cfd_dsp::signal::awgn;

    fn params() -> ScfParams {
        ScfParams::new(32, 7, 4).unwrap()
    }

    fn recipe() -> CyclostationaryDetector {
        CyclostationaryDetector::new(params(), 0.35, 1).unwrap()
    }

    #[test]
    fn invalid_configurations_are_structured_errors() {
        let no_workers = SensingScheduler::builder(ServiceConfig::new(0)).spawn();
        assert!(matches!(
            no_workers.unwrap_err(),
            CfdError::InvalidParameter {
                name: "workers",
                ..
            }
        ));
        let no_capacity =
            SensingScheduler::builder(ServiceConfig::new(1).with_queue_capacity(0)).spawn();
        assert!(matches!(
            no_capacity.unwrap_err(),
            CfdError::InvalidParameter {
                name: "queue_capacity",
                ..
            }
        ));
        let duplicate = SensingScheduler::builder(ServiceConfig::new(1))
            .subscribe(ChannelSubscription::new(
                7,
                StreamingConfig::new(params()),
                recipe(),
                DecisionLog::new(),
            ))
            .subscribe(ChannelSubscription::new(
                7,
                StreamingConfig::new(params()),
                recipe(),
                DecisionLog::new(),
            ))
            .spawn();
        assert!(matches!(
            duplicate.unwrap_err(),
            CfdError::InvalidParameter {
                name: "channel",
                ..
            }
        ));
        let zero_refresh = SensingScheduler::builder(ServiceConfig::new(1))
            .subscribe(ChannelSubscription::new(
                1,
                StreamingConfig::new(params()).with_refresh_interval(0),
                recipe(),
                DecisionLog::new(),
            ))
            .spawn();
        assert!(matches!(
            zero_refresh.unwrap_err(),
            CfdError::InvalidParameter {
                name: "refresh_interval",
                ..
            }
        ));
    }

    #[test]
    fn unsubscribed_channels_are_rejected_at_push_and_park() {
        let scheduler = SensingScheduler::builder(ServiceConfig::new(1))
            .subscribe(ChannelSubscription::new(
                1,
                StreamingConfig::new(params()),
                recipe(),
                DecisionLog::new(),
            ))
            .spawn()
            .unwrap();
        assert!(scheduler.push(2, &awgn(32, 1.0, 1)).is_err());
        assert!(scheduler.park(2).is_err());
        assert_eq!(scheduler.shard_of(1), Some(0));
        assert_eq!(scheduler.shard_of(2), None);
        scheduler.join().unwrap();
    }

    #[test]
    fn parking_restarts_the_warm_up_between_bursts() {
        let log = DecisionLog::new();
        let scheduler = SensingScheduler::builder(ServiceConfig::new(1))
            .subscribe(ChannelSubscription::new(
                3,
                StreamingConfig::new(params()),
                recipe(),
                log.clone(),
            ))
            .spawn()
            .unwrap();
        // Burst of 5 blocks (window 4) -> 2 decisions, park, burst of 4
        // blocks -> 1 decision (fresh warm-up).
        for hop in 0..5u64 {
            scheduler.push(3, &awgn(32, 1.0, hop)).unwrap();
        }
        scheduler.park(3).unwrap();
        for hop in 0..4u64 {
            scheduler.push(3, &awgn(32, 1.0, 50 + hop)).unwrap();
        }
        let report = scheduler.join().unwrap();
        assert_eq!(report.hops, 9);
        assert_eq!(report.decisions, 3);
        assert_eq!(log.len(), 3);
    }

    /// A backend whose every decision fails, exercising the per-channel
    /// failure isolation.
    #[derive(Debug, Clone)]
    struct FailingBackend;

    impl SensingBackend for FailingBackend {
        fn label(&self) -> String {
            "failing".into()
        }

        fn decide(
            &mut self,
            _observation: &mut crate::backend::Observation,
        ) -> Result<Decision, CfdError> {
            Err(CfdError::InvalidParameter {
                name: "decision",
                message: "this backend always fails".into(),
            })
        }
    }

    #[test]
    fn backend_errors_surface_at_join_and_spare_other_channels() {
        let healthy = DecisionLog::new();
        let scheduler = SensingScheduler::builder(ServiceConfig::new(2))
            .subscribe(ChannelSubscription::new(
                9,
                StreamingConfig::new(params()),
                FailingBackend,
                DecisionLog::new(),
            ))
            .subscribe(ChannelSubscription::new(
                4,
                StreamingConfig::new(params()),
                recipe(),
                healthy.clone(),
            ))
            .spawn()
            .unwrap();
        for hop in 0..5u64 {
            scheduler.push(9, &awgn(32, 1.0, hop)).unwrap();
            scheduler.push(4, &awgn(32, 1.0, hop)).unwrap();
        }
        let error = scheduler.join().unwrap_err();
        assert!(matches!(
            error,
            CfdError::InvalidParameter {
                name: "decision",
                ..
            }
        ));
        // The healthy channel kept deciding: 5 blocks, window 4 -> 2.
        assert_eq!(healthy.len(), 2);
    }
}
