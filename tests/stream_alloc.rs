//! A warm `StreamingSensor` allocates nothing per hop — including on
//! exact-refresh hops, in both retire modes (cached contribution planes
//! and the fused recompute slide), and whether its backend decides from
//! the installed profile or reads the full matrix.
//!
//! Allocations are counted by a `#[global_allocator]` wrapper around the
//! system allocator, per thread, so the test harness's own threads cannot
//! disturb the count. This is its own test binary because a global
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
/// reallocations.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only a const-initialised thread-local cell, which never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `alloc` contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `alloc_zeroed` contract, passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
    for plane_budget in [usize::MAX, 0] {
        let config = StreamingConfig::new(params.clone())
            .with_refresh_interval(8)
            .with_plane_budget(plane_budget);

        let detector = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let mut cfd = StreamingSensor::new(config.clone(), detector).unwrap();
        assert_eq!(cfd.caches_planes(), plane_budget > 0);
        let counted = allocations_over_warm_hops(&mut cfd, hops);
        assert!(!cfd.materializes_matrix());
        assert_eq!(counted, 0, "CFD backend, plane budget {plane_budget}");

        let reader = MatrixReader {
            engine: ScfEngine::new(params.clone()).unwrap(),
        };
        let mut matrix = StreamingSensor::new(config, reader).unwrap();
        let counted = allocations_over_warm_hops(&mut matrix, hops);
        assert!(matrix.materializes_matrix());
        assert_eq!(counted, 0, "matrix reader, plane budget {plane_budget}");
    }
}
