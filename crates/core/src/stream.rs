//! Streaming sensing: bounded-latency [`Decision`]s over an unbounded
//! sample stream, one per hop, in O(grid) instead of O(N·grid).
//!
//! The paper's 140 µs/decision budget assumes a sensor that *watches* a
//! band, yet a batch pipeline re-derives everything per decision: N block
//! FFTs, the full eq.-3 accumulation, the finalise. The eq.-3 sum is
//! block-separable —
//!
//! ```text
//! S_f^a = (1/N) · Σ_{n}  X_{n,f+a} · conj(X_{n,f−a})
//! ```
//!
//! is a plain sum of per-block contribution terms — so a sliding window
//! only ever changes by one block per hop. [`StreamingSensor`] exploits
//! that: it keeps a ring of the window's raw block spectra. Retained
//! blocks are never re-FFT'd, re-accumulated or copied; an incremental hop
//! does this much work:
//!
//! 1. **one** FFT for the incoming block, into a spare spectrum that is
//!    swapped into its ring slot (the slot's old spectrum, the outgoing
//!    block's, becomes the spare);
//! 2. **one** O(grid) pass over the half-grid accumulator,
//!    [`ScfEngine::slide_block`], which stages both raw spectra with
//!    their eq.-2 phase applied on the way in, retires the outgoing
//!    block, adds the incoming one and folds the cyclic-domain profile
//!    from the still-hot cells;
//! 3. a constant-time hand-off of the window: the sample tape lives in the
//!    sensor's [`Observation`] buffer, so the window is a view of it and
//!    no sample is copied;
//! 4. only while the backend actually reads it
//!    ([`StreamingSensor::materializes_matrix`]), one copy of the
//!    accumulator re-phased into the window frame and finalised into the
//!    full matrix.
//!
//! The finished results are handed to any [`SensingBackend`] through the
//! ordinary [`Observation`] surface: the window samples, the
//! cyclic-domain profile (via [`Observation::install_cyclic_profile`]),
//! and the matrix when it is materialised (via
//! [`Observation::install_scf`]). The same backend decides identically
//! whether it is driven batchwise or streamed. A warm sensor allocates
//! nothing per hop, exact refreshes included.
//!
//! # Drift and the exact-refresh interval
//!
//! Retiring a block subtracts bit-for-bit the value adding it contributed
//! (see [`ScfEngine::retire_block`]), but `(acc + t) − t` still rounds, so
//! a rolling accumulator drifts by an ulp-scale residue per hop. The
//! drift is bounded by construction: every
//! [`refresh_interval`](StreamingConfig::refresh_interval) hops the
//! window is re-accumulated exactly from the ring's spectra with the
//! batch kernel's fused passes
//! ([`ScfEngine::accumulate_phased_window`]), making that hop's matrix
//! **bit-identical** to the batch engine over the same window; hops in
//! between stay within ~1e-12 of it. `refresh_interval = 1` degenerates
//! to "every hop exact" (and every hop O(N·grid));
//! `tests/streaming.rs` pins both bounds property-wise.
//!
//! # Phase frames
//!
//! Eq. 2 phases every block by its start *relative to the window*
//! (`exp(-j·2π·v·n·stride/K)`), so a retained block's batch phase changes
//! every hop — naively that would force re-rotating the whole ring per
//! decision. But the eq.-3 product at offset `a` only picks up
//! `exp(-j·2π·2a·start/K)` — uniform across `f` and across blocks for a
//! given frame shift — so the sensor accumulates in a hop-invariant
//! **absolute-time** frame (block `b` rotated by `b·hop`) where add and
//! retire need no re-phasing at all, and re-bases one copy of the sum
//! into the decision window's frame with a single O(grid) per-column
//! rotation ([`ScfEngine::rotate_accumulator_columns`]) before
//! finalising. No re-phased spectrum is ever stored: each pass hands the
//! raw ring spectra to the engine with the start of the frame it needs
//! ([`PhasedSpectrum`](cfd_dsp::scf::PhasedSpectrum)), and the engine
//! applies the rotation while staging its operands, with the table
//! entries and expression the batch engine's own rotation uses. Exact
//! refreshes stage the ring window-relative
//! ([`ScfEngine::accumulate_phased_window`]) — the batch engine's frame —
//! so those hops reproduce the batch matrix bit-for-bit.
//!
//! # Hop geometry
//!
//! The stream is cut into blocks of `fft_len` samples starting every
//! [`block_stride`](cfd_dsp::scf::ScfParams::block_stride) samples — the
//! stride *is* the hop, so `hop < fft_len` gives overlapping blocks and
//! `hop == fft_len` back-to-back ones. A decision covers the most recent
//! [`num_blocks`](cfd_dsp::scf::ScfParams::num_blocks) blocks and equals
//! the batch decision over exactly those
//! [`samples_needed`](cfd_dsp::scf::ScfParams::samples_needed) samples.

use crate::backend::{Decision, Observation, SensingBackend};
use crate::error::CfdError;
use cfd_dsp::complex::Cplx;
use cfd_dsp::scf::{ScfAccumulator, ScfEngine, ScfParams};
use std::fmt;
use std::sync::OnceLock;

/// Cached handles to the streaming instruments. Counters and the gauge
/// are always live; the histograms record only when telemetry is enabled.
struct StreamInstruments {
    decide_ns: cfd_telemetry::Histogram,
    refresh_ns: cfd_telemetry::Histogram,
    ring_occupancy: cfd_telemetry::Gauge,
    incremental_hops: cfd_telemetry::Counter,
    exact_refreshes: cfd_telemetry::Counter,
}

fn instruments() -> &'static StreamInstruments {
    static INSTRUMENTS: OnceLock<StreamInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| StreamInstruments {
        decide_ns: cfd_telemetry::histogram("stream.decide_ns"),
        refresh_ns: cfd_telemetry::histogram("stream.refresh_ns"),
        ring_occupancy: cfd_telemetry::gauge("stream.ring_occupancy"),
        incremental_hops: cfd_telemetry::counter("stream.incremental_hops"),
        exact_refreshes: cfd_telemetry::counter("stream.exact_refreshes"),
    })
}

/// Configuration of a [`StreamingSensor`]: the window geometry and the
/// exact-refresh interval. Every incremental hop retires its outgoing
/// block with the fused slide pass ([`ScfEngine::slide_block`]).
///
/// # Examples
///
/// ```
/// use cfd_core::stream::StreamingConfig;
/// use cfd_dsp::scf::ScfParams;
///
/// let params = ScfParams::paper_256_with_blocks(8);
/// let config = StreamingConfig::new(params.clone()).with_refresh_interval(32);
/// assert_eq!(config.refresh_interval, 32);
/// assert_eq!(config.params, params);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// The DSCF geometry: `fft_len`-sample blocks every `block_stride`
    /// samples (the hop), windows of `num_blocks` blocks.
    pub params: ScfParams,
    /// Exact-refresh interval `R` in hops: every `R`-th decision is
    /// re-accumulated from the ring with the batch kernel's fused passes
    /// (bit-identical to the batch engine), bounding the rolling-subtract
    /// drift of the hops in between. The first decision of a window is
    /// always exact. Must be ≥ 1; `1` means every hop is exact.
    pub refresh_interval: usize,
}

impl StreamingConfig {
    /// Default exact-refresh interval (64 hops keeps worst-case drift
    /// orders of magnitude below the 1e-12 parity bound at paper scales).
    pub const DEFAULT_REFRESH_INTERVAL: usize = 64;

    /// A configuration with the default refresh interval.
    pub fn new(params: ScfParams) -> Self {
        StreamingConfig {
            params,
            refresh_interval: Self::DEFAULT_REFRESH_INTERVAL,
        }
    }

    /// Sets the exact-refresh interval in hops.
    pub fn with_refresh_interval(mut self, hops: usize) -> Self {
        self.refresh_interval = hops;
        self
    }

    /// Does nothing: the per-block contribution-plane cache this budget
    /// sized is gone, and every hop retires through the fused slide pass.
    /// Kept only so existing callers still compile; it will be removed.
    #[deprecated(note = "the plane cache is gone; every hop uses the fused slide retire")]
    pub fn with_plane_budget(self, _bytes: usize) -> Self {
        self
    }
}

/// The retained tail of the sample stream, stored in the sensor's
/// [`Observation`] buffer: a decision presents its window as a view of
/// the tape ([`SampleTape::observe`]) instead of copying it.
///
/// Appends at the back, trims from the front by absolute stream index, and
/// compacts in place once the dead prefix outgrows the live tail — every
/// sample is memmoved at most a bounded number of times, and the live
/// window is always one contiguous slice (which the per-hop FFT reads and
/// the observation views directly).
#[derive(Debug, Default)]
struct SampleTape {
    /// Owns the tape's storage (its sample buffer) and presents windows.
    observation: Observation,
    /// Absolute stream index of `buffer[offset]`.
    start: u64,
    offset: usize,
}

impl SampleTape {
    fn push(&mut self, samples: &[Cplx]) {
        self.observation.buffer_mut().extend_from_slice(samples);
    }

    /// One past the absolute index of the last retained sample.
    fn end(&self) -> u64 {
        self.start + (self.observation.buffer().len() - self.offset) as u64
    }

    /// Buffer range of the `len` samples starting at absolute index `from`.
    fn range(&self, from: u64, len: usize) -> std::ops::Range<usize> {
        debug_assert!(from >= self.start && from + len as u64 <= self.end());
        let at = self.offset + (from - self.start) as usize;
        at..at + len
    }

    /// The `len` samples starting at absolute index `from`.
    fn slice(&self, from: u64, len: usize) -> &[Cplx] {
        &self.observation.buffer()[self.range(from, len)]
    }

    /// Starts a new observation of the `len` samples from absolute index
    /// `from` — a view of the tape, no copy — and hands it out.
    fn observe(&mut self, from: u64, len: usize) -> &mut Observation {
        let range = self.range(from, len);
        self.observation.view_window(range);
        &mut self.observation
    }

    /// Forgets everything before absolute index `keep_from` (clamped to
    /// the retained end — with a gapped stride, `hop > fft_len`, the next
    /// window can start beyond the samples received so far).
    fn trim(&mut self, keep_from: u64) {
        let keep_from = keep_from.min(self.end());
        if keep_from <= self.start {
            return;
        }
        self.offset += (keep_from - self.start) as usize;
        self.start = keep_from;
        let data = self.observation.buffer_mut();
        if self.offset > data.len() - self.offset {
            data.copy_within(self.offset.., 0);
            data.truncate(data.len() - self.offset);
            self.offset = 0;
        }
    }

    fn clear(&mut self) {
        self.observation.buffer_mut().clear();
        self.start = 0;
        self.offset = 0;
    }
}

/// A continuously fed sliding-window DSCF sensor emitting one [`Decision`]
/// per hop through any [`SensingBackend`].
///
/// Feed samples with [`StreamingSensor::push`]; once the first full window
/// of blocks has arrived, every further completed block yields exactly one
/// decision (so the steady-state decision latency is the per-hop work — 1
/// FFT + one O(grid) pass over the accumulator, see the
/// [module docs](self) — not the O(N·grid) batch recompute). The backend
/// sees each hop's window through the same [`Observation`] surface the
/// batch path uses: the window's samples for time-domain backends (a view
/// of the sensor's sample tape, not a copy), the incrementally maintained
/// cyclic-domain profile (and, while the backend reads it, the full DSCF
/// matrix) for cyclostationary ones. Because the window is a view of the
/// tape, a backend must not [`load`](Observation::load) or
/// [`set_samples`](Observation::set_samples) into the observation it is
/// handed: that would replace the retained stream.
///
/// # Examples
///
/// ```
/// use cfd_core::stream::{StreamingConfig, StreamingSensor};
/// use cfd_dsp::detector::CyclostationaryDetector;
/// use cfd_dsp::scf::ScfParams;
/// use cfd_dsp::signal::awgn;
///
/// # fn main() -> Result<(), cfd_core::error::CfdError> {
/// let params = ScfParams::new(32, 7, 8)?;
/// let backend = CyclostationaryDetector::new(params.clone(), 0.35, 1)?;
/// let mut sensor = StreamingSensor::new(StreamingConfig::new(params.clone()), backend)?;
/// // Warm-up (the first 8 blocks) emits nothing; each block after that
/// // completes one hop and yields one decision.
/// let stream = awgn(params.samples_needed() + 4 * params.fft_len, 1.0, 3);
/// let decisions = sensor.push(&stream)?;
/// assert_eq!(decisions.len(), 5);
/// assert_eq!(sensor.decisions_emitted(), 5);
/// # Ok(())
/// # }
/// ```
pub struct StreamingSensor<B: SensingBackend> {
    backend: B,
    engine: ScfEngine,
    config: StreamingConfig,
    tape: SampleTape,
    /// Block `i`'s **raw** (unrotated) spectrum lives in
    /// `ring[i % num_blocks]`; the eq.-2 phase is applied per use, while
    /// the DSCF pass stages it, since the right frame depends on the hop.
    ring: Vec<Vec<Cplx>>,
    /// The spectrum the newest block displaced from its ring slot: the
    /// outgoing block's raw spectrum during an incremental hop, and the
    /// next block's FFT target (swapped into the ring, never copied).
    spare: Vec<Cplx>,
    /// The rolling un-normalised window accumulation, in the
    /// absolute-time frame. Lazy: the first decision's adoption of
    /// `frame_acc` (a `clone_from`) allocates it.
    acc: ScfAccumulator,
    /// Scratch accumulation in the decision window's phase frame (what
    /// [`ScfEngine::finalize_accumulator`] consumes). Lazy: the exact
    /// refresh that opens the first window allocates it.
    frame_acc: ScfAccumulator,
    /// Whether decision hops materialise the full finalised [`ScfMatrix`]
    /// for the backend, or install only the cyclic-domain profile (the
    /// O(grid/2) fast path). Adaptive: starts `true`, then tracks whether
    /// the backend actually requested the matrix on the previous decision.
    materialize: bool,
    /// Index of the next block to cut from the stream.
    next_block: u64,
    decisions: u64,
    incremental_hops: u64,
    exact_refreshes: u64,
}

impl<B: SensingBackend> StreamingSensor<B> {
    /// Builds a sensor streaming into `backend`.
    ///
    /// Construction is cheap: the engine shares this thread's cached FFT
    /// plan and window for the geometry ([`ScfEngine::new`]), and no
    /// buffer is allocated. The ring spectra fill block by block, and the
    /// two accumulators are allocated by the first decision (its exact
    /// refresh writes every cell), so a subscribed channel that never
    /// fills a window holds no accumulator memory.
    ///
    /// # Errors
    ///
    /// [`CfdError::InvalidParameter`] for a zero
    /// [`refresh_interval`](StreamingConfig::refresh_interval), and
    /// parameter/plan errors from [`ScfEngine::new`].
    pub fn new(config: StreamingConfig, backend: B) -> Result<Self, CfdError> {
        if config.refresh_interval == 0 {
            return Err(CfdError::InvalidParameter {
                name: "refresh_interval",
                message: "must be at least 1 hop between exact refreshes".into(),
            });
        }
        let engine = ScfEngine::new(config.params.clone())?;
        let acc = engine.lazy_accumulator();
        let frame_acc = engine.lazy_accumulator();
        Ok(StreamingSensor {
            backend,
            engine,
            config,
            tape: SampleTape::default(),
            ring: Vec::new(),
            spare: Vec::new(),
            acc,
            frame_acc,
            materialize: true,
            next_block: 0,
            decisions: 0,
            incremental_hops: 0,
            exact_refreshes: 0,
        })
    }

    /// The configuration this sensor was built with.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// The DSCF geometry of the sliding window.
    pub fn params(&self) -> &ScfParams {
        self.engine.params()
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the wrapped backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Blocks cut from the stream so far.
    pub fn blocks_ingested(&self) -> u64 {
        self.next_block
    }

    /// Decisions emitted so far.
    pub fn decisions_emitted(&self) -> u64 {
        self.decisions
    }

    /// Decisions integrated incrementally (add + retire).
    pub fn incremental_hops(&self) -> u64 {
        self.incremental_hops
    }

    /// Decisions integrated by an exact full re-accumulation of the ring.
    pub fn exact_refreshes(&self) -> u64 {
        self.exact_refreshes
    }

    /// Whether the next decision hop will finalise the full
    /// [`ScfMatrix`](cfd_dsp::scf::ScfMatrix) for the backend, rather than
    /// installing only the cyclic-domain profile.
    ///
    /// Starts `true` (the first decision always materialises); after each
    /// decision the sensor checks whether the backend actually requested
    /// the matrix ([`Observation::scf_requests`]) and keeps materialising
    /// only if it did. The stock [`CyclostationaryDetector`] decides from
    /// the profile alone, so its sensors drop to the profile-only fast
    /// path from the second decision onward; a backend that starts reading
    /// the matrix mid-stream gets a batch-exact recompute from the window
    /// samples on that hop and flips this back on for the next.
    ///
    /// [`CyclostationaryDetector`]: cfd_dsp::detector::CyclostationaryDetector
    pub fn materializes_matrix(&self) -> bool {
        self.materialize
    }

    /// Samples still needed before the next decision can be emitted.
    pub fn samples_until_next_decision(&self) -> usize {
        let params = self.engine.params();
        let window = params.num_blocks as u64;
        // The block completing the next decision is the window-th block,
        // or simply the next one once warm.
        let deciding_block = self.next_block.max(window - 1);
        let due = deciding_block * params.block_stride as u64 + params.fft_len as u64;
        (due - self.tape.end()) as usize
    }

    /// Feeds samples, appending one [`Decision`] per completed hop to
    /// `out` (allocation-free in steady state when `out` has capacity).
    ///
    /// # Errors
    ///
    /// [`CfdError::NonFiniteSample`] if `samples` holds a NaN or infinite
    /// value: the whole push is refused and the sensor state is left
    /// unchanged, so one bad hop cannot poison the rolling accumulator.
    /// Otherwise propagates backend and DSP errors; the sensor state is
    /// unchanged for the samples not yet consumed.
    pub fn push_into(&mut self, samples: &[Cplx], out: &mut Vec<Decision>) -> Result<(), CfdError> {
        if let Some(index) = first_non_finite(samples) {
            return Err(CfdError::NonFiniteSample { index });
        }
        self.tape.push(samples);
        let (k, hop, window) = {
            let p = self.engine.params();
            (p.fft_len as u64, p.block_stride as u64, p.num_blocks as u64)
        };
        while self.next_block * hop + k <= self.tape.end() {
            if let Some(decision) = self.ingest_block()? {
                out.push(decision);
            }
            self.next_block += 1;
            // Keep exactly what future hops still read: the next decision's
            // window starts (window − 1) hops behind the next block.
            self.tape
                .trim((self.next_block + 1).saturating_sub(window) * hop);
        }
        Ok(())
    }

    /// [`StreamingSensor::push_into`] collecting into a fresh vector.
    ///
    /// # Errors
    ///
    /// See [`StreamingSensor::push_into`].
    pub fn push(&mut self, samples: &[Cplx]) -> Result<Vec<Decision>, CfdError> {
        let mut out = Vec::new();
        self.push_into(samples, &mut out)?;
        Ok(out)
    }

    /// Forgets all stream state (retained samples, ring, accumulation,
    /// hop counters), keeping the backend and configuration. The next
    /// push starts a fresh warm-up.
    pub fn reset(&mut self) {
        self.tape.clear();
        self.ring.clear();
        self.spare.clear();
        self.acc.reset();
        self.frame_acc.reset();
        self.materialize = true;
        self.next_block = 0;
        self.decisions = 0;
        self.incremental_hops = 0;
        self.exact_refreshes = 0;
    }

    /// [`StreamingSensor::reset`] for the idle/duty-cycle path: forgets the
    /// stream but **keeps every buffer allocation** — the ring spectra, the
    /// spare spectrum and both accumulators (once the first window has
    /// allocated them) stay at capacity, so a parked channel costs no
    /// allocation when its next activity burst re-warms it.
    ///
    /// Keeping stale ring/accumulator *contents* is safe by the same slot
    /// discipline the hot path relies on: a slot's spectrum is fully
    /// overwritten before any read ([`ScfEngine::block_spectrum_into`]
    /// writes every bin of the spare spectrum before it is swapped into
    /// the slot), and the first decision after a warm-up is always an
    /// exact refresh that re-sums the whole ring from literal zero
    /// ([`ScfEngine::accumulate_phased_window`]) before adopting it into
    /// the rolling accumulator.
    pub fn park(&mut self) {
        self.tape.clear();
        self.materialize = true;
        self.next_block = 0;
        self.decisions = 0;
        self.incremental_hops = 0;
        self.exact_refreshes = 0;
    }

    /// Processes the completed block `self.next_block`: FFT into the ring,
    /// O(grid) window update, and — once the window is full — one backend
    /// decision over the current window.
    fn ingest_block(&mut self) -> Result<Option<Decision>, CfdError> {
        let window = self.engine.params().num_blocks;
        let stride = self.engine.params().block_stride;
        let hop = stride as u64;
        let k = self.engine.params().fft_len;
        let needed = self.engine.params().samples_needed();
        let i = self.next_block as usize;
        let slot = i % window;
        let decision_hop = i + 1 >= window;
        let timer = decision_hop.then(|| instruments().decide_ns.start_timer());
        // An exact refresh every R-th decision (the first — pure warm-up
        // adds — is exact by construction and counts as hop 0).
        let refresh = decision_hop && (i + 1 - window).is_multiple_of(self.config.refresh_interval);
        // A block's eq.-2 phase start in the absolute-time frame,
        // pre-reduced modulo the FFT length (overflow-safe for unbounded
        // streams).
        let abs_phase = |block: u64| -> usize {
            let k = k as u64;
            (((block % k) * (hop % k)) % k) as usize
        };

        // 1. One FFT for the incoming block — raw (`start = 0`), re-phased
        //    per use by the pass that stages it — into the spare spectrum,
        //    which then swaps with the block's ring slot. The slot's old
        //    spectrum, the outgoing block's on an incremental hop, stays
        //    in `spare` for this hop's slide.
        if self.ring.len() <= slot {
            self.ring.push(Vec::with_capacity(k));
        }
        let block_samples = self.tape.slice(self.next_block * hop, k);
        self.engine
            .block_spectrum_into(block_samples, 0, &mut self.spare)?;
        std::mem::swap(&mut self.ring[slot], &mut self.spare);
        instruments().ring_occupancy.set(self.ring.len() as f64);
        if !decision_hop {
            return Ok(None);
        }

        // The decision index doubles as the window-start block index —
        // the phase frame this hop's matrix must be finalised in.
        let d = self.next_block + 1 - window as u64;

        // 2. On a refresh hop, re-sum the ring exactly with the batch
        //    kernel's fused passes, each raw spectrum staged with its
        //    window-relative start — the batch engine's eq.-2 frame (an
        //    incremental hop slides in step 3, folding the profile in the
        //    same pass).
        if refresh {
            let refresh_timer = instruments().refresh_ns.start_timer();
            let oldest = (slot + 1) % window;
            let ring = &self.ring;
            let blocks = (0..window).map(|j| (ring[(oldest + j) % window].as_slice(), j * stride));
            self.engine
                .accumulate_phased_window(blocks, &mut self.frame_acc);
            drop(refresh_timer);
            self.exact_refreshes += 1;
            instruments().exact_refreshes.increment();
        } else {
            self.incremental_hops += 1;
            instruments().incremental_hops.increment();
        }

        // 3. Present the window through the shared Observation surface:
        //    the window's samples (a view of the tape), the cyclic-domain
        //    profile, and — only when the backend reads it — the finalised
        //    (normalised + mirrored) matrix, so any backend decides as if
        //    batch-driven. The profile source never depends on the
        //    materialise mode: `frame_acc` at exact refreshes
        //    (bit-identical to the batch matrix scan), the slide's fold of
        //    the rolling absolute-frame `acc` otherwise (ulp-level
        //    phase-rotation residue, bounded like the matrix drift by the
        //    refresh interval).
        let engine = &self.engine;
        let observation = self.tape.observe(d * hop, needed);
        observation.install_cyclic_profile(engine.params(), |profile| {
            if refresh {
                engine.cyclic_profile_from_accumulator(&self.frame_acc, window, profile);
            } else {
                // Every other decision hop rolls the window by one block
                // (the first decision being a refresh, it always has an
                // outgoing block). Both spectra are staged in the
                // absolute-time frame, the outgoing one at the start its
                // add used (same raw bits, same table rotation), so the
                // subtraction cancels that contribution exactly.
                let outgoing_block = self.next_block - window as u64;
                let outgoing = (self.spare.as_slice(), abs_phase(outgoing_block));
                let incoming = (self.ring[slot].as_slice(), abs_phase(self.next_block));
                engine.slide_block(outgoing, incoming, &mut self.acc, window, profile);
            }
            Ok::<_, CfdError>(())
        })?;
        if self.materialize {
            if !refresh {
                // Re-base a copy of the rolling sum into the window frame.
                self.frame_acc.clone_from(&self.acc);
                engine.rotate_accumulator_columns(&mut self.frame_acc, abs_phase(d), true);
            }
            let acc = &self.frame_acc;
            observation.install_scf(engine.params(), |scf| {
                engine.finalize_accumulator(acc, window, scf);
                Ok::<_, CfdError>(())
            })?;
        }
        let requests_before = observation.scf_requests();
        let decision = self.backend.decide(observation)?;
        self.materialize = observation.scf_requests() > requests_before;
        self.decisions += 1;
        if refresh {
            // Adopt the exact re-sum as the new rolling accumulation,
            // re-phased back into the hop-invariant absolute-time frame.
            self.acc.clone_from(&self.frame_acc);
            self.engine
                .rotate_accumulator_columns(&mut self.acc, abs_phase(d), false);
        }
        drop(timer);
        Ok(Some(decision))
    }
}

/// Position of the first NaN or infinite value in `samples`. Every hop
/// pays this check, so the all-finite case is a branch-free sum of `x · 0`
/// (±0 for finite `x`, NaN for NaN or ±∞) over four independent lanes,
/// which vectorises and costs about a third of an early-exit search. The
/// search runs only once the sum shows a bad value.
fn first_non_finite(samples: &[Cplx]) -> Option<usize> {
    let mut lanes = [0.0f64; 4];
    let pairs = samples.chunks_exact(2);
    for sample in pairs.remainder() {
        lanes[0] += sample.re * 0.0;
        lanes[1] += sample.im * 0.0;
    }
    for pair in pairs {
        lanes[0] += pair[0].re * 0.0;
        lanes[1] += pair[0].im * 0.0;
        lanes[2] += pair[1].re * 0.0;
        lanes[3] += pair[1].im * 0.0;
    }
    if (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) == 0.0 {
        return None;
    }
    samples.iter().position(|sample| !sample.is_finite())
}

impl<B: SensingBackend> fmt::Debug for StreamingSensor<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingSensor")
            .field("backend", &self.backend.label())
            .field("params", self.engine.params())
            .field("refresh_interval", &self.config.refresh_interval)
            .field("blocks_ingested", &self.next_block)
            .field("decisions", &self.decisions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::detector::CyclostationaryDetector;
    use cfd_dsp::signal::awgn;

    #[test]
    fn zero_refresh_interval_is_a_structured_error() {
        let params = ScfParams::new(32, 7, 4).unwrap();
        let config = StreamingConfig::new(params.clone()).with_refresh_interval(0);
        let backend = CyclostationaryDetector::new(params, 0.35, 1).unwrap();
        let err = StreamingSensor::new(config, backend).unwrap_err();
        assert!(matches!(
            err,
            CfdError::InvalidParameter {
                name: "refresh_interval",
                ..
            }
        ));
    }

    #[test]
    fn non_finite_scan_finds_the_first_bad_sample() {
        for len in [0usize, 1, 2, 5, 64] {
            let clean = awgn(len, 1.0, 9);
            assert_eq!(first_non_finite(&clean), None, "len {len}");
            for at in 0..len {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut samples = clean.clone();
                    samples[at] = if at % 2 == 0 {
                        Cplx::new(bad, 0.0)
                    } else {
                        Cplx::new(0.0, bad)
                    };
                    samples[len - 1].re = f64::NAN;
                    assert_eq!(first_non_finite(&samples), Some(at), "len {len}");
                }
            }
        }
    }

    #[test]
    fn sample_tape_trims_and_compacts() {
        let mut tape = SampleTape::default();
        let samples: Vec<Cplx> = (0..64).map(|i| Cplx::new(i as f64, 0.0)).collect();
        tape.push(&samples[..32]);
        tape.trim(16);
        assert_eq!(tape.end(), 32);
        assert_eq!(tape.slice(16, 4)[0].re, 16.0);
        tape.push(&samples[32..]);
        tape.trim(60);
        assert_eq!(tape.slice(60, 4)[3].re, 63.0);
        tape.clear();
        assert_eq!(tape.end(), 0);
    }

    #[test]
    fn hops_split_into_incremental_and_refresh() {
        let params = ScfParams::new(32, 7, 4).unwrap();
        let backend = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let config = StreamingConfig::new(params.clone()).with_refresh_interval(3);
        let mut sensor = StreamingSensor::new(config, backend).unwrap();
        // 10 blocks → 7 decisions: hops 0, 3, 6 refresh, the rest roll.
        let stream = awgn(10 * params.fft_len, 1.0, 5);
        let mut decisions = Vec::new();
        // Feed one sample at a time: hop boundaries must not depend on
        // push granularity.
        for sample in &stream {
            sensor
                .push_into(std::slice::from_ref(sample), &mut decisions)
                .unwrap();
        }
        assert_eq!(decisions.len(), 7);
        assert_eq!(sensor.blocks_ingested(), 10);
        assert_eq!(sensor.exact_refreshes(), 3);
        assert_eq!(sensor.incremental_hops(), 4);
        assert!(sensor.samples_until_next_decision() <= params.fft_len);
        sensor.reset();
        assert_eq!(sensor.decisions_emitted(), 0);
        assert_eq!(sensor.push(&stream[..params.fft_len]).unwrap().len(), 0);
    }

    /// Parking forgets the stream (next push re-warms, decisions restart
    /// from a fresh window) while reusing the warm buffers: decisions after
    /// a park are bit-identical to a fresh sensor fed the same stream —
    /// stale ring/accumulator contents never leak into them.
    #[test]
    fn park_restarts_the_stream_with_warm_buffers() {
        let params = ScfParams::new(32, 7, 4).unwrap();
        let config = StreamingConfig::new(params.clone()).with_refresh_interval(3);
        let backend = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let mut parked = StreamingSensor::new(config.clone(), backend.clone()).unwrap();

        // First burst: 7 blocks → 4 decisions, then park mid-window.
        let burst_a = awgn(7 * params.fft_len, 1.0, 11);
        assert_eq!(parked.push(&burst_a).unwrap().len(), 4);
        parked.park();
        assert_eq!(parked.decisions_emitted(), 0);
        assert_eq!(parked.blocks_ingested(), 0);

        // Second burst through the parked (warm) sensor vs a fresh one.
        let burst_b = awgn(9 * params.fft_len, 1.0, 13);
        let warm = parked.push(&burst_b).unwrap();
        let mut fresh = StreamingSensor::new(config, backend.clone()).unwrap();
        let cold = fresh.push(&burst_b).unwrap();
        assert_eq!(warm.len(), 6);
        assert_eq!(warm.len(), cold.len());
        for (hop, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(
                w.statistic.to_bits(),
                c.statistic.to_bits(),
                "hop {hop}: parked sensor must match a fresh one"
            );
            assert_eq!(w.verdict, c.verdict);
        }
    }

    /// The plane budget no longer configures anything: the deprecated
    /// setter returns the configuration unchanged.
    #[test]
    #[allow(deprecated)]
    fn with_plane_budget_is_a_no_op() {
        let params = ScfParams::new(32, 7, 4).unwrap();
        assert_eq!(
            StreamingConfig::new(params.clone()).with_plane_budget(usize::MAX),
            StreamingConfig::new(params)
        );
    }
}
