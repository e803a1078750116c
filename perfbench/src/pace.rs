//! Host-speed reference: timings expressed at a fixed reference speed.
//!
//! A shared host slows its CPUs by up to ~2× for seconds to minutes at a
//! time (other tenants share the cores, caches and clock), so the same code
//! timed on two runs a few minutes apart can differ by a third. Every
//! timing the benchmark reports is therefore scaled to a fixed host speed:
//! next to each slice of measured work the same thread runs a bench-owned
//! reference kernel, and the slice's time is multiplied by
//! [`REFERENCE_NS`] over the kernel's measured time. On a host that runs
//! the kernel in exactly [`REFERENCE_NS`] the scaled time is the measured
//! one; a slowdown that hits kernel and program alike cancels out. The
//! kernel is the benchmark's own code, so a change to the program never
//! changes it.
//!
//! The kernel has two phases because the host's slowdowns do not hit all
//! code alike: an L1-resident rotation bound by the floating-point ports,
//! and a DSCF-shaped correlation of spectra into a 127×127 accumulator in
//! L2, with the rotation taking about a quarter of the time. Like the
//! program's DSCF kernels it runs on split real/imaginary arrays in the
//! widest vector tier the CPU offers (AVX-512, AVX2, else SSE2), because
//! a slowdown hits wide and narrow vector code differently: during one
//! episode that slowed the fusion workload 1.56×, this kernel slowed
//! 1.68× where the same phases in SSE2 on interleaved complex values
//! slowed 2.04×.
//!
//! Slices and the kernel are timed in the thread's CPU time
//! (`CLOCK_THREAD_CPUTIME_ID`), which leaves out the time the thread was
//! preempted or its virtual CPU was not running.

use std::time::Instant;

/// Values the rotation streams over, as interleaved blocks of eight real
/// and eight imaginary parts: 32 KiB, resident in a core's L1 data cache,
/// so its time does not depend on where the buffer lands in physical
/// memory.
const VALUES: usize = 2048;
/// Rotation passes per measurement.
const PASSES: usize = 32;
/// Bins of each correlated spectrum.
const BINS: usize = 256;
/// Rows and columns of the correlation's accumulator.
const GRID: usize = 127;
/// Spectra correlated per measurement.
const BLOCKS: usize = 8;
/// Measurements per reading; the fastest one is the reading, so a reading
/// taken across an interrupt is not the one kept.
const REPEATS: usize = 3;
/// The kernel's time on the reference host (an otherwise idle 2-vCPU
/// Xeon, Sapphire Rapids class), in CPU nanoseconds: the speed every
/// reported timing is scaled to.
pub const REFERENCE_NS: f64 = 140_000.0;

#[repr(C)]
struct Timespec {
    seconds: i64,
    nanos: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPU_CLOCK: i32 = 3;

/// CPU time the calling thread has run, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut time = Timespec {
        seconds: 0,
        nanos: 0,
    };
    // SAFETY: `time` is a valid, writable timespec and the clock id is a
    // constant the kernel always accepts for the calling thread.
    let status = unsafe { clock_gettime(THREAD_CPU_CLOCK, &mut time) };
    assert_eq!(status, 0, "the thread CPU clock is always readable");
    time.seconds as u64 * 1_000_000_000 + time.nanos as u64
}

/// The reference kernel and its buffers, real and imaginary parts apart.
pub struct Pace {
    /// Rotated values: blocks of eight real parts then eight imaginary.
    values: Vec<f64>,
    /// `BLOCKS` spectra of `BINS` bins.
    spectra: [Vec<f64>; 2],
    /// The same spectra, each reversed, so the reflected operand of the
    /// correlation is read forward.
    reflected: [Vec<f64>; 2],
    accumulator: [Vec<f64>; 2],
}

impl Default for Pace {
    fn default() -> Self {
        Pace::new()
    }
}

impl Pace {
    /// A kernel with its buffers allocated and touched.
    pub fn new() -> Self {
        let parts = [13, 11].map(|period| {
            (0..BLOCKS * BINS)
                .map(|i| (i % period) as f64 * 0.1)
                .collect::<Vec<f64>>()
        });
        let reflected = parts.clone().map(|part| {
            part.chunks_exact(BINS)
                .flat_map(|spectrum| spectrum.iter().rev().copied())
                .collect()
        });
        let mut pace = Pace {
            values: (0..2 * VALUES).map(|i| 1.0 + i as f64 * 1e-6).collect(),
            spectra: parts,
            reflected,
            accumulator: [vec![0.0; GRID * GRID], vec![0.0; GRID * GRID]],
        };
        pace.reading_ns();
        pace
    }

    /// One measurement of both phases, in thread CPU nanoseconds, in the
    /// widest vector tier the CPU offers.
    fn measure_ns(&mut self) -> u64 {
        let start = thread_cpu_ns();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU supports AVX-512F, checked just above.
                unsafe { kernel_avx512(self) };
            } else if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU supports AVX2, checked just above.
                unsafe { kernel_avx2(self) };
            } else {
                kernel(self);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        kernel(self);
        thread_cpu_ns().saturating_sub(start).max(1)
    }

    /// The kernel's current time: the fastest of [`REPEATS`] measurements.
    pub fn reading_ns(&mut self) -> u64 {
        (0..REPEATS).map(|_| self.measure_ns()).min().unwrap_or(1)
    }

    /// The factor that scales a time measured now to the reference speed:
    /// [`REFERENCE_NS`] over the kernel's current time.
    pub fn factor(&mut self) -> f64 {
        factor_of(self.reading_ns())
    }
}

/// Both phases: [`PASSES`] rotations of every value by a unit phasor, then
/// every spectrum correlated with its reflection into the accumulator,
/// cell `(f, a)` += `X[f + a] · conj(X[BINS − 1 − f − a])`, which is then
/// cleared.
#[inline(always)]
fn kernel(pace: &mut Pace) {
    let (cos, sin) = (0.8_f64, 0.6_f64);
    for _ in 0..PASSES {
        for block in pace.values.chunks_exact_mut(16) {
            let (re, im) = block.split_at_mut(8);
            for (re, im) in re.iter_mut().zip(im.iter_mut()) {
                let (r, i) = (*re, *im);
                *re = r * cos - i * sin;
                *im = r * sin + i * cos;
            }
        }
        std::hint::black_box(&mut pace.values);
    }
    let [xr, xi] = &pace.spectra;
    let [yr, yi] = &pace.reflected;
    let [acc_re, acc_im] = &mut pace.accumulator;
    for block in 0..BLOCKS {
        let bins = block * BINS..(block + 1) * BINS;
        let (xr, xi, yr, yi) = (
            &xr[bins.clone()],
            &xi[bins.clone()],
            &yr[bins.clone()],
            &yi[bins],
        );
        for (f, (ar, ai)) in acc_re
            .chunks_exact_mut(GRID)
            .zip(acc_im.chunks_exact_mut(GRID))
            .enumerate()
        {
            let span = f..f + GRID;
            let (pr, pi) = (&xr[span.clone()], &xi[span.clone()]);
            let (qr, qi) = (&yr[span.clone()], &yi[span]);
            for a in 0..GRID {
                ar[a] += pr[a] * qr[a] + pi[a] * qi[a];
                ai[a] += pi[a] * qr[a] - pr[a] * qi[a];
            }
        }
    }
    std::hint::black_box(&mut pace.accumulator);
    for part in &mut pace.accumulator {
        part.fill(0.0);
    }
}

/// [`kernel`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn kernel_avx512(pace: &mut Pace) {
    kernel(pace);
}

/// [`kernel`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn kernel_avx2(pace: &mut Pace) {
    kernel(pace);
}

/// The scale factor of a kernel reading taken elsewhere.
pub fn factor_of(reading_ns: u64) -> f64 {
    REFERENCE_NS / reading_ns.max(1) as f64
}

/// Wall seconds of `work` at the reference speed, with the kernel read
/// right after it on the calling thread.
pub fn scaled_wall<T, E>(
    pace: &mut Pace,
    work: impl FnOnce() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let start = Instant::now();
    let result = work()?;
    let seconds = start.elapsed().as_secs_f64();
    Ok((result, seconds * pace.factor()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work_only() {
        let mut pace = Pace::new();
        let before = thread_cpu_ns();
        let reading = pace.reading_ns();
        assert!(thread_cpu_ns() - before >= reading);
        let before = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            thread_cpu_ns() - before < 10_000_000,
            "a sleeping thread runs no CPU time"
        );
    }

    #[test]
    fn factor_scales_to_the_reference_speed() {
        assert_eq!(factor_of(REFERENCE_NS as u64), 1.0);
        assert_eq!(factor_of(2 * REFERENCE_NS as u64), 0.5);
        assert!(Pace::new().factor() > 0.0);
    }
}
