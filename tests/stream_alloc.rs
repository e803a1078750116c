//! A warm `StreamingSensor` allocates nothing per hop — including on
//! exact-refresh hops, and whether its backend decides from the installed
//! profile or reads the full matrix — and a new one allocates its
//! accumulators only when its first window arrives.
//!
//! Allocations are counted by a `#[global_allocator]` wrapper around the
//! system allocator, per thread, so the test harness's own threads cannot
//! disturb the count; allocations of one watched size are counted apart. This is its own test binary because a global
//! allocator is process-wide.

use cfd_core::backend::{Decision, Observation, SensingBackend};
use cfd_core::error::CfdError;
use cfd_core::stream::{StreamingConfig, StreamingSensor};
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::{ScfEngine, ScfParams};
use cfd_dsp::signal::awgn;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's allocations and
/// reallocations, and apart those of the watched size.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static WATCHED_SIZE: Cell<usize> = const { Cell::new(0) };
    static WATCHED: Cell<u64> = const { Cell::new(0) };
}

fn count_one(size: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    if WATCHED_SIZE.try_with(Cell::get) == Ok(size) {
        let _ = WATCHED.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only a const-initialised thread-local cell, which never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `alloc` contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`; the
        // caller's `realloc` contract, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`; the
        // caller's `dealloc` contract, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Starts counting this thread's allocations of exactly `size` bytes.
fn watch_size(size: usize) {
    WATCHED_SIZE.with(|watched| watched.set(size));
}

fn watched_allocations() -> u64 {
    WATCHED.with(Cell::get)
}

/// A backend that reads the full DSCF matrix on every decision, which
/// keeps the sensor materialising it.
struct MatrixReader {
    engine: ScfEngine,
}

impl SensingBackend for MatrixReader {
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let scf = observation.scf_for(&self.engine)?;
        Ok(Decision::new(scf.max_magnitude(), 1.0))
    }
}

/// Warms `sensor` through two refresh cycles, then counts the allocations
/// of `hops` more pushes. Every push is one hop, as a live feed delivers
/// them, so warm-up leaves the sample tape at its steady capacity.
fn allocations_over_warm_hops<B: SensingBackend>(
    sensor: &mut StreamingSensor<B>,
    hops: usize,
) -> u64 {
    let params = sensor.params().clone();
    let refresh = sensor.config().refresh_interval;
    let warm_up = awgn(
        params.samples_needed() + 2 * refresh * params.block_stride,
        1.0,
        5,
    );
    for hop in warm_up.chunks(params.block_stride) {
        sensor.push(hop).unwrap();
    }
    let stream: Vec<Vec<Cplx>> = (0..hops)
        .map(|hop| awgn(params.block_stride, 1.0, 100 + hop as u64))
        .collect();
    let mut out = Vec::with_capacity(hops);
    let refreshes = sensor.exact_refreshes();
    let before = allocations();
    for hop in &stream {
        sensor.push_into(hop, &mut out).unwrap();
    }
    let counted = allocations() - before;
    assert_eq!(out.len(), hops);
    assert!(
        sensor.exact_refreshes() - refreshes >= (hops / refresh) as u64,
        "the counted hops must include refreshes"
    );
    counted
}

#[test]
fn warm_streamed_hops_do_not_allocate() {
    // The service geometry: 64-point FFT, ±15, 32 blocks, with a refresh
    // every 8 hops so 300 hops hold 37 of them.
    let params = ScfParams::new(64, 15, 32).unwrap();
    let hops = 300;
    let config = StreamingConfig::new(params.clone()).with_refresh_interval(8);

    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    let mut cfd = StreamingSensor::new(config.clone(), detector).unwrap();
    let counted = allocations_over_warm_hops(&mut cfd, hops);
    assert!(!cfd.materializes_matrix());
    assert_eq!(counted, 0, "CFD backend");

    let reader = MatrixReader {
        engine: ScfEngine::new(params.clone()).unwrap(),
    };
    let mut matrix = StreamingSensor::new(config, reader).unwrap();
    let counted = allocations_over_warm_hops(&mut matrix, hops);
    assert!(matrix.materializes_matrix());
    assert_eq!(counted, 0, "matrix reader");
}

#[test]
fn sensors_allocate_accumulators_on_their_first_window() {
    let params = ScfParams::new(64, 15, 32).unwrap();
    let config = StreamingConfig::new(params.clone());
    // Building the backend fills this thread's plan and window caches, so
    // the sensor's own engine shares them and allocates nothing.
    let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
    // One accumulator plane: the `a ≥ 0` half of the 31×31 grid.
    let m = params.max_offset;
    watch_size((2 * m + 1) * (m + 1) * std::mem::size_of::<f64>());

    let (before, planes) = (allocations(), watched_allocations());
    let mut sensor = StreamingSensor::new(config, detector).unwrap();
    assert_eq!(allocations() - before, 0, "construction allocates nothing");
    assert_eq!(watched_allocations() - planes, 0);

    // The first window: 32 one-hop pushes, one decision. Its exact refresh
    // allocates the window-frame planes and the adoption the rolling ones.
    let window = awgn(params.samples_needed(), 1.0, 7);
    let mut out = Vec::with_capacity(1);
    let planes = watched_allocations();
    for hop in window.chunks(params.block_stride) {
        sensor.push_into(hop, &mut out).unwrap();
    }
    assert_eq!(out.len(), 1);
    assert_eq!(
        watched_allocations() - planes,
        4,
        "two accumulators of two planes"
    );

    // Parked and re-warmed over a window of fresh samples, the sensor
    // reuses every buffer, the accumulators included.
    sensor.park();
    let window = awgn(params.samples_needed(), 1.0, 8);
    out.clear();
    let (before, planes) = (allocations(), watched_allocations());
    for hop in window.chunks(params.block_stride) {
        sensor.push_into(hop, &mut out).unwrap();
    }
    assert_eq!(out.len(), 1);
    assert_eq!(allocations() - before, 0, "a re-warm allocates nothing");
    assert_eq!(watched_allocations() - planes, 0);
}
