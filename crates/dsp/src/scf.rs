//! The Discrete Spectral Correlation Function (DSCF) of eq. 3.
//!
//! For block spectra `X_{n,v}` (eq. 2) the DSCF is
//!
//! ```text
//! S_f^a = (1/N) · Σ_{n=0..N-1}  X_{n, f+a} · conj(X_{n, f-a})
//! ```
//!
//! with the spectral frequency `f` and the frequency offset `a` both ranging
//! over `-M ..= M` (the paper uses `M = 63` for 256-point spectra, i.e.
//! `P = F = 127`). Spectral indices are *centred*: index `v` refers to FFT
//! bin `v mod K`.
//!
//! [`dscf_reference`] is the golden model implemented directly from eq. 3;
//! it is what the mapped/folded/simulated implementations in the other
//! crates are checked against. [`ScfEngine`] is the fast software kernel:
//! table-driven, symmetry-halved and allocation-reusing, bit-identical to
//! the golden model.

use crate::complex::Cplx;
use crate::error::DspError;
use crate::fft::{block_spectrum, block_spectrum_into, FftPlan};
use crate::window::Window;
use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

/// Cached handles to the DSCF stage histograms ([`ScfEngine`] is
/// `Clone + serde`-derived, so the handles live at module scope rather
/// than as fields).
fn spectra_ns() -> &'static cfd_telemetry::Histogram {
    static SPECTRA_NS: OnceLock<cfd_telemetry::Histogram> = OnceLock::new();
    SPECTRA_NS.get_or_init(|| cfd_telemetry::histogram("dsp.scf.spectra_ns"))
}

fn accumulate_ns() -> &'static cfd_telemetry::Histogram {
    static ACCUMULATE_NS: OnceLock<cfd_telemetry::Histogram> = OnceLock::new();
    ACCUMULATE_NS.get_or_init(|| cfd_telemetry::histogram("dsp.scf.accumulate_ns"))
}

/// Contiguous operand runs executed per accumulation call (always-live, like
/// the cache counters): `segments-per-grid × blocks` per call. A row splits
/// into more than one run only where an operand wraps past bin `K−1`, so
/// this counter exposes how contiguous the unit-stride decomposition is.
fn segment_runs() -> &'static cfd_telemetry::Counter {
    static SEGMENT_RUNS: OnceLock<cfd_telemetry::Counter> = OnceLock::new();
    SEGMENT_RUNS.get_or_init(|| cfd_telemetry::counter("dsp.scf.segment_runs"))
}

/// Parameters of a DSCF evaluation.
///
/// # Examples
///
/// ```
/// use cfd_dsp::scf::ScfParams;
///
/// // The paper's configuration: 256-point spectra, f and a in -63..=63.
/// let params = ScfParams::paper_256();
/// assert_eq!(params.grid_size(), 127);
/// assert_eq!(params.total_multiplications(), 127 * 127);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScfParams {
    /// FFT length `K` (one block of samples).
    pub fft_len: usize,
    /// Maximum absolute value `M` of the frequency index `f` and offset `a`.
    pub max_offset: usize,
    /// Number of blocks `N` averaged over (the integration length).
    pub num_blocks: usize,
    /// Distance in samples between the starts of consecutive blocks
    /// (defaults to `fft_len`, i.e. non-overlapping blocks).
    pub block_stride: usize,
    /// Analysis window applied to each block.
    pub window: Window,
}

impl ScfParams {
    /// Creates parameters with the common defaults (rectangular window,
    /// non-overlapping blocks).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `fft_len` is zero, if
    /// `num_blocks` is zero, or if `2·max_offset >= fft_len` (the indices
    /// `f±a` would wrap past the Nyquist zone).
    pub fn new(fft_len: usize, max_offset: usize, num_blocks: usize) -> Result<Self, DspError> {
        let params = ScfParams {
            fft_len,
            max_offset,
            num_blocks,
            block_stride: fft_len,
            window: Window::Rectangular,
        };
        params.validate()?;
        Ok(params)
    }

    /// The paper's evaluation configuration: 256-point spectra with
    /// `f, a ∈ -63..=63` (127×127 DSCF) averaged over `num_blocks` blocks.
    pub fn paper_256_with_blocks(num_blocks: usize) -> Self {
        ScfParams::new(256, 63, num_blocks).expect("paper configuration is valid")
    }

    /// The paper's evaluation configuration with a single integration step.
    pub fn paper_256() -> Self {
        Self::paper_256_with_blocks(1)
    }

    /// Sets the analysis window.
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Sets the block stride (overlapping blocks when `stride < fft_len`).
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.block_stride = stride;
        self
    }

    /// Validates the parameter combination.
    ///
    /// # Errors
    ///
    /// See [`ScfParams::new`].
    pub fn validate(&self) -> Result<(), DspError> {
        if self.fft_len == 0 {
            return Err(DspError::InvalidParameter {
                name: "fft_len",
                message: "must be at least 1".into(),
            });
        }
        // Spectral indices are mapped through `centred_bin`'s i32 domain and
        // the engine's u32 segment tables; a wider FFT cannot be indexed.
        if self.fft_len > i32::MAX as usize {
            return Err(DspError::InvalidParameter {
                name: "fft_len",
                message: format!(
                    "{} exceeds the 32-bit spectral index domain ({})",
                    self.fft_len,
                    i32::MAX
                ),
            });
        }
        if self.num_blocks == 0 {
            return Err(DspError::InvalidParameter {
                name: "num_blocks",
                message: "must be at least 1".into(),
            });
        }
        if self.block_stride == 0 {
            return Err(DspError::InvalidParameter {
                name: "block_stride",
                message: "must be at least 1".into(),
            });
        }
        // Checked doubling: `2 * max_offset` must not silently wrap (a
        // debug-build panic and a release-build wraparound are both wrong
        // answers for a parameter error).
        let doubled = self
            .max_offset
            .checked_mul(2)
            .ok_or_else(|| DspError::InvalidParameter {
                name: "max_offset",
                message: format!(
                    "2*max_offset overflows usize (max_offset = {})",
                    self.max_offset
                ),
            })?;
        if doubled >= self.fft_len {
            return Err(DspError::InvalidParameter {
                name: "max_offset",
                message: format!(
                    "2*max_offset ({doubled}) must be smaller than fft_len ({})",
                    self.fft_len
                ),
            });
        }
        Ok(())
    }

    /// Number of points along each of the `f` and `a` axes, `P = 2M+1`.
    pub fn grid_size(&self) -> usize {
        2 * self.max_offset + 1
    }

    /// Total number of `(f, a)` points, i.e. complex multiply–accumulate
    /// operations per integration step (`P·F`; 16 129 for the paper's
    /// 127×127 grid — note the paper's per-core count 4 064 is `T·F` with
    /// `T = 32`).
    pub fn total_multiplications(&self) -> usize {
        self.grid_size() * self.grid_size()
    }

    /// Number of samples needed to evaluate `num_blocks` blocks.
    pub fn samples_needed(&self) -> usize {
        (self.num_blocks - 1) * self.block_stride + self.fft_len
    }
}

/// A dense `(f, a)` matrix of DSCF values.
///
/// Rows are indexed by the frequency `f ∈ -M..=M`, columns by the offset
/// `a ∈ -M..=M`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScfMatrix {
    max_offset: usize,
    values: Vec<Cplx>,
}

impl ScfMatrix {
    /// Creates a zero-filled matrix for indices `-max_offset ..= max_offset`.
    pub fn zeros(max_offset: usize) -> Self {
        let p = 2 * max_offset + 1;
        ScfMatrix {
            max_offset,
            values: vec![Cplx::ZERO; p * p],
        }
    }

    /// The maximum absolute index `M`.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// Number of points along each axis, `P = 2M+1`.
    pub fn grid_size(&self) -> usize {
        2 * self.max_offset + 1
    }

    fn flat_index(&self, f: i32, a: i32) -> Option<usize> {
        let m = self.max_offset as i32;
        if f < -m || f > m || a < -m || a > m {
            return None;
        }
        let row = (f + m) as usize;
        let col = (a + m) as usize;
        Some(row * self.grid_size() + col)
    }

    /// Returns `S_f^a`, or `None` if the indices are out of range.
    pub fn get(&self, f: i32, a: i32) -> Option<Cplx> {
        self.flat_index(f, a).map(|i| self.values[i])
    }

    /// Returns `S_f^a`.
    ///
    /// # Panics
    ///
    /// Panics if `f` or `a` lies outside `-M ..= M`.
    pub fn at(&self, f: i32, a: i32) -> Cplx {
        self.get(f, a).unwrap_or_else(|| {
            panic!(
                "index (f={f}, a={a}) outside the ±{} DSCF grid",
                self.max_offset
            )
        })
    }

    /// Sets `S_f^a`.
    ///
    /// # Panics
    ///
    /// Panics if `f` or `a` lies outside `-M ..= M`.
    pub fn set(&mut self, f: i32, a: i32, value: Cplx) {
        let idx = self.flat_index(f, a).unwrap_or_else(|| {
            panic!(
                "index (f={f}, a={a}) outside the ±{} DSCF grid",
                self.max_offset
            )
        });
        self.values[idx] = value;
    }

    /// Adds `value` to `S_f^a` (accumulation over `n`).
    ///
    /// # Panics
    ///
    /// Panics if `f` or `a` lies outside `-M ..= M`.
    pub fn accumulate(&mut self, f: i32, a: i32, value: Cplx) {
        let idx = self.flat_index(f, a).unwrap_or_else(|| {
            panic!(
                "index (f={f}, a={a}) outside the ±{} DSCF grid",
                self.max_offset
            )
        });
        self.values[idx] += value;
    }

    /// Scales every entry by `factor` (the `1/N` normalisation).
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v = *v * factor;
        }
    }

    /// The flat row-major backing buffer: rows are frequencies `f` (index
    /// `f + M`), columns are offsets `a` (index `a + M`), so
    /// `S_f^a = as_slice()[(f + M)·P + (a + M)]`.
    pub fn as_slice(&self) -> &[Cplx] {
        &self.values
    }

    /// Mutable access to the flat row-major buffer (same layout as
    /// [`ScfMatrix::as_slice`]) — the allocation-free write path for bulk
    /// producers such as the tiled SoC's result gather.
    pub fn as_mut_slice(&mut self) -> &mut [Cplx] {
        &mut self.values
    }

    /// Iterates over `(f, a, S_f^a)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (i32, i32, Cplx)> + '_ {
        let m = self.max_offset as i32;
        let p = self.grid_size();
        self.values.iter().enumerate().map(move |(i, &v)| {
            let f = (i / p) as i32 - m;
            let a = (i % p) as i32 - m;
            (f, a, v)
        })
    }

    /// Maximum absolute difference to another matrix of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices have different `max_offset`.
    pub fn max_abs_difference(&self, other: &ScfMatrix) -> f64 {
        assert_eq!(
            self.max_offset, other.max_offset,
            "cannot compare DSCF matrices of different sizes"
        );
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Largest magnitude over the whole grid.
    pub fn max_magnitude(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// The cyclic-domain profile: for each offset `a`, the maximum of
    /// `|S_f^a|` over all `f`. Element `[a + M]` of the returned vector
    /// corresponds to offset `a`.
    ///
    /// Cyclostationary signals show peaks at non-zero `a`; stationary noise
    /// concentrates its energy at `a = 0`.
    pub fn cyclic_profile(&self) -> Vec<f64> {
        let mut profile = Vec::new();
        self.cyclic_profile_into(&mut profile);
        profile
    }

    /// [`ScfMatrix::cyclic_profile`] into a caller-owned buffer, resized to
    /// the grid size — the allocation-free form the streaming hot path
    /// uses.
    ///
    /// The scan maximises `|S|²` and takes one square root per column at
    /// the end; `sqrt` is monotone and correctly rounded, so the result is
    /// the square root of the largest squared magnitude — one rounding of
    /// the true `|S|` rather than `hypot`'s, at a third of the cost. A
    /// column holding a NaN cell profiles to NaN.
    pub fn cyclic_profile_into(&self, profile: &mut Vec<f64>) {
        // One pass over the flat row-major buffer (rows = f, columns = a)
        // instead of P² bounds-checked `at()` lookups.
        let p = self.grid_size();
        profile.clear();
        profile.resize(p, 0.0);
        for row in self.values.chunks_exact(p) {
            for (best, value) in profile.iter_mut().zip(row) {
                let magnitude = value.norm_sqr();
                // A NaN cell sticks: later cells never compare above it.
                if magnitude > *best || magnitude.is_nan() {
                    *best = magnitude;
                }
            }
        }
        for best in profile.iter_mut() {
            *best = best.sqrt();
        }
    }

    /// The power spectral density estimate along `a = 0`
    /// (`S_f^0 = (1/N)·Σ|X_{n,f}|²`), indexed by `f + M`.
    pub fn psd(&self) -> Vec<f64> {
        // The a = 0 column is every grid_size()-th element of the flat
        // buffer starting at column offset M.
        self.values
            .iter()
            .skip(self.max_offset)
            .step_by(self.grid_size())
            .map(|v| v.abs())
            .collect()
    }
}

impl fmt::Display for ScfMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ScfMatrix {{ {}x{} points, f,a in -{}..={}, peak |S| = {:.3e} }}",
            self.grid_size(),
            self.grid_size(),
            self.max_offset,
            self.max_offset,
            self.max_magnitude()
        )
    }
}

/// Computes the block spectra `X_{n,v}` of eq. 2 for all `num_blocks` blocks.
///
/// The result is a `num_blocks × fft_len` matrix (outer Vec over `n`).
///
/// # Errors
///
/// Propagates parameter and length errors from [`block_spectrum`] and
/// [`ScfParams::validate`].
pub fn block_spectra(signal: &[Cplx], params: &ScfParams) -> Result<Vec<Vec<Cplx>>, DspError> {
    params.validate()?;
    if signal.len() < params.samples_needed() {
        return Err(DspError::InsufficientSamples {
            needed: params.samples_needed(),
            available: signal.len(),
        });
    }
    (0..params.num_blocks)
        .map(|n| {
            block_spectrum(
                signal,
                n * params.block_stride,
                params.fft_len,
                params.window,
            )
        })
        .collect()
}

/// Looks up the centred spectral index `v` (possibly negative) in an FFT
/// block of length `k`: index `v` maps to bin `v mod k`.
#[inline]
pub fn centred_bin(v: i32, k: usize) -> usize {
    let k = k as i32;
    (((v % k) + k) % k) as usize
}

/// Reference implementation of the DSCF, directly from eq. 3.
///
/// This is the golden model that the mapped (systolic / folded / Montium /
/// tiled-SoC) implementations are validated against.
///
/// # Errors
///
/// * [`DspError::InvalidParameter`] for invalid parameters,
/// * [`DspError::InsufficientSamples`] if the signal is too short,
/// * [`DspError::NotPowerOfTwo`] if `fft_len` is not a power of two.
pub fn dscf_reference(signal: &[Cplx], params: &ScfParams) -> Result<ScfMatrix, DspError> {
    let spectra = block_spectra(signal, params)?;
    Ok(dscf_from_spectra(&spectra, params))
}

/// Evaluates eq. 3 given precomputed block spectra.
///
/// Useful when the spectra come from a different (e.g. fixed-point or
/// simulated) FFT implementation.
///
/// # Panics
///
/// Panics if any block is shorter than `params.fft_len`.
pub fn dscf_from_spectra(spectra: &[Vec<Cplx>], params: &ScfParams) -> ScfMatrix {
    let m = params.max_offset as i32;
    let k = params.fft_len;
    let mut matrix = ScfMatrix::zeros(params.max_offset);
    for block in spectra {
        assert!(
            block.len() >= k,
            "block spectrum shorter ({}) than fft_len ({k})",
            block.len()
        );
        for f in -m..=m {
            for a in -m..=m {
                let x_plus = block[centred_bin(f + a, k)];
                let x_minus = block[centred_bin(f - a, k)];
                matrix.accumulate(f, a, x_plus * x_minus.conj());
            }
        }
    }
    if !spectra.is_empty() {
        matrix.scale(1.0 / spectra.len() as f64);
    }
    matrix
}

/// One contiguous run of a half-grid row's accumulation.
///
/// For `len` consecutive offsets starting at `a = out`, the direct operand
/// reads `block[plus + i]` and the conjugated operand reads `rev[rev + i]`,
/// where `rev` is the index-reversed block (`rev[t] = block[(K−t) mod K]`) —
/// both forward unit-stride. Segments never cross a wrap of either operand,
/// so the slices they window are plain contiguous windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowSegment {
    /// First offset `a` of the run (column relative to `a = 0`).
    out: u32,
    /// Number of consecutive offsets in the run.
    len: u32,
    /// Start of the direct-operand window: `plus + i = (bin(f) + a) mod K`.
    plus: u32,
    /// Start of the conjugate-operand window in the reversed block:
    /// `rev + i = (bin(−f) + a) mod K`.
    rev: u32,
}

/// The staged block spectra in split re/im planes: the direct copy and the
/// index-reversed copy `rev[t] = block[(K−t) mod K]`, `k` bins per block,
/// so the segment loops are pure vertical `f64` operations the vectorised
/// kernel turns into packed loads and adds.
#[derive(Default)]
struct OperandPlanes {
    plus_re: Vec<f64>,
    plus_im: Vec<f64>,
    rev_re: Vec<f64>,
    rev_im: Vec<f64>,
}

/// The four operand windows (direct re/im, reversed re/im) of one block
/// over one segment, each `len` values long.
type SegOperands<'a> = (&'a [f64], &'a [f64], &'a [f64], &'a [f64]);

impl OperandPlanes {
    /// Stages `blocks`. Every batch and incremental pass stages through
    /// here, so every path reads operands with exactly the same values.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `k`.
    fn stage<'a>(&mut self, k: usize, blocks: impl ExactSizeIterator<Item = &'a [Cplx]>) {
        let n = blocks.len();
        for plane in [
            &mut self.plus_re,
            &mut self.plus_im,
            &mut self.rev_re,
            &mut self.rev_im,
        ] {
            plane.clear();
            plane.resize(n * k, 0.0);
        }
        for (b, block) in blocks.enumerate() {
            assert!(
                block.len() >= k,
                "block spectrum shorter ({}) than fft_len ({k})",
                block.len()
            );
            let block = &block[..k];
            let base = b * k;
            for (t, value) in block.iter().enumerate() {
                self.plus_re[base + t] = value.re;
                self.plus_im[base + t] = value.im;
            }
            self.rev_re[base] = block[0].re;
            self.rev_im[base] = block[0].im;
            for t in 1..k {
                self.rev_re[base + t] = block[k - t].re;
                self.rev_im[base + t] = block[k - t].im;
            }
        }
    }

    /// Block `b`'s operand windows over `seg`.
    #[inline(always)]
    fn segment(&self, b: usize, k: usize, seg: &RowSegment) -> SegOperands<'_> {
        let len = seg.len as usize;
        let plus = b * k + seg.plus as usize;
        let rev = b * k + seg.rev as usize;
        (
            &self.plus_re[plus..][..len],
            &self.plus_im[plus..][..len],
            &self.rev_re[rev..][..len],
            &self.rev_im[rev..][..len],
        )
    }
}

/// Reusable per-thread staging of the accumulation kernel: the operand
/// planes, one row-band of accumulators (re/im split like the operands)
/// and one output row. Thread-local rather than per-engine because
/// [`ScfEngine`] is shared immutably across sweep workers.
#[derive(Default)]
struct ScfScratch {
    operands: OperandPlanes,
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
    row_buf: Vec<Cplx>,
}

thread_local! {
    static SCF_SCRATCH: RefCell<ScfScratch> = RefCell::new(ScfScratch::default());
}

/// Segment-pass kinds, a const parameter of the kernel so each kind
/// compiles to its own branch-free loop. An `INIT_PASS` overwrites the
/// accumulators: its first chain starts from the literal `0.0` instead of
/// loading them, so a batch band needs no clearing memset. The chain
/// `0.0 + t₀ + …` is exactly what a zero-filled slab would have computed
/// (the compiler cannot and does not fold `0.0 + t₀` — it would change the
/// sign of a `-0.0` term), and an `INIT_PASS` needs at least one staged
/// block.
const INIT_PASS: u8 = 0;
/// Adds every staged block's contribution.
const ADD_PASS: u8 = 1;
/// Subtracts every staged block's contribution — the retire half of a
/// sliding-window hop. Per block the subtracted term is the same
/// expression an `ADD_PASS` adds, so retiring a block subtracts exactly
/// the value (to the last bit) that adding it contributed; the residue of
/// an add-then-retire cycle is the associativity rounding of
/// `(acc + t) − t` alone, which the streaming layer bounds with periodic
/// exact refreshes.
const SUB_PASS: u8 = 2;
/// Slides a window by one block: exactly two staged blocks, the outgoing
/// one first, and each cell becomes `(acc − t_out) + t_in` in registers —
/// the operation order of a `SUB_PASS` over the outgoing block followed by
/// an `ADD_PASS` over the incoming one, so the accumulator bits equal the
/// two separate passes' while every cell is loaded and stored once.
const SLIDE_PASS: u8 = 3;

/// One unit-stride pass over a segment, accumulating `B` blocks per point
/// with the accumulator held in registers across the unrolled block chain
/// (the inner loop over a const-length array is fully unrolled), so each
/// accumulator value is loaded and stored once per chain instead of once
/// per block. The per-point expression is the reference's product — four
/// products, two single-rounded sums per block, chained onto the
/// accumulator in block order — so the summation tree is exactly the one
/// [`dscf_reference`] builds (`f64::mul_add` was measured here and
/// rejected: without FMA in the target feature set it lowers to a libm
/// call per point, 6× slower, and with FMA it would change the rounding).
#[inline(always)]
fn seg_pass<const KIND: u8, const B: usize>(
    ar: &mut [f64],
    ai: &mut [f64],
    ops: &[SegOperands<'_>; B],
) {
    let len = ar.len();
    let ai = &mut ai[..len];
    for i in 0..len {
        let (mut re, mut im) = if KIND == INIT_PASS {
            (0.0, 0.0)
        } else {
            (ar[i], ai[i])
        };
        for (j, &(xr, xi, yr, yi)) in ops.iter().enumerate() {
            let t_re = xr[i] * yr[i] + xi[i] * yi[i];
            let t_im = xi[i] * yr[i] - xr[i] * yi[i];
            // A slide's first staged block is the outgoing one.
            if KIND == SUB_PASS || (KIND == SLIDE_PASS && j == 0) {
                re -= t_re;
                im -= t_im;
            } else {
                re += t_re;
                im += t_im;
            }
        }
        ar[i] = re;
        ai[i] = im;
    }
}

/// The block chain of a segment: runs the next chain starting at block
/// `b` of the `n` staged blocks — four while at least four remain, then
/// two, then one — and returns the block after it. Per accumulator the
/// blocks arrive strictly ascending whatever the chain lengths, so every
/// pass kind and every call pattern builds the same per-cell sum.
#[inline(always)]
fn chain_step<const KIND: u8>(
    ar: &mut [f64],
    ai: &mut [f64],
    ops: &OperandPlanes,
    n: usize,
    b: usize,
    k: usize,
    seg: &RowSegment,
) -> usize {
    let op = |block: usize| ops.segment(block, k, seg);
    match n - b {
        4.. => {
            seg_pass::<KIND, 4>(ar, ai, &[op(b), op(b + 1), op(b + 2), op(b + 3)]);
            b + 4
        }
        2 | 3 => {
            seg_pass::<KIND, 2>(ar, ai, &[op(b), op(b + 1)]);
            b + 2
        }
        _ => {
            seg_pass::<KIND, 1>(ar, ai, &[op(b)]);
            b + 1
        }
    }
}

/// Rows per cache band of a `p`-row, `half`-column accumulator: about
/// 64 KiB across the re + im planes.
fn band_rows(half: usize, p: usize) -> usize {
    (4096 / half).clamp(4, 512).min(p)
}

/// The widest vector tier the host supports (checked once per call site;
/// the feature-detection macro caches the CPUID probe).
#[derive(Clone, Copy, PartialEq, Eq)]
enum VectorTier {
    Generic,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn vector_tier() -> VectorTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return VectorTier::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return VectorTier::Avx2;
        }
    }
    VectorTier::Generic
}

/// Normalises and mirrors one output row: `row[m + a] = acc[a]/N` for
/// `a ∈ 0..=m` and `row[m - a]` its conjugate, the mirror written forward
/// (reads reversed). Negating the already-scaled imaginary part is exact,
/// identical to `.conj()` of the `a ≥ 0` cell.
#[inline(always)]
fn finalize_row_scalar(row_vals: &mut [Cplx], ar: &[f64], ai: &[f64], m: usize, scale: f64) {
    let (neg, pos) = row_vals.split_at_mut(m);
    for (a, cell) in pos.iter_mut().enumerate() {
        *cell = Cplx::new(ar[a] * scale, ai[a] * scale);
    }
    for (j, cell) in neg.iter_mut().enumerate() {
        let a = m - j;
        *cell = Cplx::new(ar[a] * scale, -(ai[a] * scale));
    }
}

/// Folds finished `a ≥ 0` accumulator rows (`best.len()` values per row,
/// rows in ascending `f`) into the running per-offset maxima of `|S|²`.
/// Each square replicates the finalised cell exactly (`(ar·s)² + (ai·s)²`,
/// which is also the bits of its conjugate mirror) and the predicate is the
/// matrix scan's ([`ScfMatrix::cyclic_profile_into`]): a NaN sticks.
#[inline(always)]
fn fold_profile_rows(acc_re: &[f64], acc_im: &[f64], scale: f64, best: &mut [f64]) {
    let half = best.len();
    for (ar, ai) in acc_re.chunks_exact(half).zip(acc_im.chunks_exact(half)) {
        for ((best, &re), &im) in best.iter_mut().zip(ar).zip(ai) {
            let re = re * scale;
            let im = im * scale;
            let magnitude = re * re + im * im;
            if magnitude > *best || magnitude.is_nan() {
                *best = magnitude;
            }
        }
    }
}

/// Completes a profile whose `[m..]` half holds the folded `|S|²` maxima:
/// one square root per column, then the `a < 0` half mirrored.
fn finish_profile(profile: &mut [f64], m: usize) {
    let (neg, pos) = profile.split_at_mut(m);
    for best in pos.iter_mut() {
        *best = best.sqrt();
    }
    for (j, cell) in neg.iter_mut().enumerate() {
        *cell = pos[m - j];
    }
}

/// Streams `src` into `dst` with non-temporal stores, bit-exact. The
/// output matrix is written exactly once per call and read much later (if
/// at all), so bypassing the cache avoids the read-for-ownership of every
/// output line — at wideband scales that is megabytes of loads for data
/// that is about to be overwritten. Requires a 16-byte-aligned `dst`
/// (checked by the caller).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn nt_copy_avx(dst: *mut f64, src: *const f64, n: usize) {
    use std::arch::x86_64::{_mm256_loadu_pd, _mm256_stream_pd, _mm_loadu_pd, _mm_stream_pd};
    let mut i = 0usize;
    if !(dst as usize).is_multiple_of(32) && i + 2 <= n {
        _mm_stream_pd(dst, _mm_loadu_pd(src));
        i = 2;
    }
    while i + 4 <= n {
        _mm256_stream_pd(dst.add(i), _mm256_loadu_pd(src.add(i)));
        i += 4;
    }
    if i < n {
        _mm_stream_pd(dst.add(i), _mm_loadu_pd(src.add(i)));
    }
}

/// [`nt_copy_avx`] at SSE2 width (x86-64 baseline, no detection needed).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn nt_copy_sse2(dst: *mut f64, src: *const f64, n: usize) {
    use std::arch::x86_64::{_mm_loadu_pd, _mm_stream_pd};
    let mut i = 0usize;
    while i + 2 <= n {
        // SAFETY: caller guarantees 16-byte-aligned dst and n readable /
        // writable f64s.
        unsafe { _mm_stream_pd(dst.add(i), _mm_loadu_pd(src.add(i))) };
        i += 2;
    }
}

/// Copies one finished row into the output matrix, streaming past the
/// cache when the destination is 16-byte aligned (always true in
/// practice: `Cplx` cells are 16 bytes and allocations of that size class
/// are at least 16-byte aligned). Plain copy otherwise — same bits either
/// way.
fn copy_row_out(dst: &mut [Cplx], src: &[Cplx]) {
    #[cfg(target_arch = "x86_64")]
    if (dst.as_ptr() as usize).is_multiple_of(16) && dst.len() == src.len() {
        let n = dst.len() * 2;
        let d = dst.as_mut_ptr() as *mut f64;
        let s = src.as_ptr() as *const f64;
        // SAFETY: dst is 16-byte aligned (checked), the lengths match, and
        // both ranges hold exactly `n` f64s.
        unsafe {
            if vector_tier() != VectorTier::Generic {
                nt_copy_avx(d, s, n);
            } else {
                nt_copy_sse2(d, s, n);
            }
        }
        return;
    }
    dst.copy_from_slice(src);
}

/// Orders the non-temporal finaliser stores before the call returns (a
/// no-op where streaming stores are not used).
fn finalize_fence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_sfence` has no preconditions.
    unsafe {
        std::arch::x86_64::_mm_sfence()
    };
}

/// Un-normalised half-grid accumulation state for the sliding-window
/// (incremental) DSCF integration path.
///
/// The planes hold `Σ_n X_{n,f+a}·conj(X_{n,f−a})` for the `a ≥ 0` half of
/// the grid in split re/im form — exactly the engine's internal band
/// accumulator layout, but owned by the caller and persistent across
/// blocks, so a streaming sensor can add the newest block's contribution
/// ([`ScfEngine::accumulate_block`]), retire the oldest
/// ([`ScfEngine::retire_block`]) — or do both and fold the profile in one
/// pass ([`ScfEngine::slide_block`]) — and normalise + mirror into an
/// [`ScfMatrix`] ([`ScfEngine::finalize_accumulator`]) in O(grid) per hop.
#[derive(Debug, PartialEq)]
pub struct ScfAccumulator {
    max_offset: usize,
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
}

/// `clone_from` copies into the existing planes (the derived one would
/// reallocate both): a streaming sensor re-bases one accumulator into
/// another on every hop that materialises the matrix and on every exact
/// refresh, and that copy must not allocate.
impl Clone for ScfAccumulator {
    fn clone(&self) -> Self {
        ScfAccumulator {
            max_offset: self.max_offset,
            acc_re: self.acc_re.clone(),
            acc_im: self.acc_im.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.max_offset = source.max_offset;
        self.acc_re.clone_from(&source.acc_re);
        self.acc_im.clone_from(&source.acc_im);
    }
}

impl ScfAccumulator {
    fn new(max_offset: usize) -> Self {
        let p = 2 * max_offset + 1;
        let half = max_offset + 1;
        ScfAccumulator {
            max_offset,
            acc_re: vec![0.0; p * half],
            acc_im: vec![0.0; p * half],
        }
    }

    /// The maximum absolute grid index `M` this accumulator was sized for.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// Heap bytes held by the two half-grid planes of an accumulator for
    /// `max_offset` — what a ring of cached per-block contribution planes
    /// costs per block, for memory-budget decisions made before allocating.
    pub fn bytes_for(max_offset: usize) -> usize {
        let p = 2 * max_offset + 1;
        let half = max_offset + 1;
        2 * p * half * std::mem::size_of::<f64>()
    }

    /// Zeroes both planes (allocation kept).
    pub fn reset(&mut self) {
        self.acc_re.fill(0.0);
        self.acc_im.fill(0.0);
    }

    /// Adds another accumulation cell-by-cell (`self += other`) — how a
    /// cached per-block contribution plane is folded into the window sum.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators have different `max_offset`.
    pub fn add_assign(&mut self, other: &ScfAccumulator) {
        assert_eq!(
            self.max_offset, other.max_offset,
            "cannot combine DSCF accumulators of different sizes"
        );
        for (a, b) in self.acc_re.iter_mut().zip(&other.acc_re) {
            *a += b;
        }
        for (a, b) in self.acc_im.iter_mut().zip(&other.acc_im) {
            *a += b;
        }
    }

    /// Subtracts another accumulation cell-by-cell (`self -= other`) — how
    /// a cached per-block contribution plane is retired from the window
    /// sum.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators have different `max_offset`.
    pub fn sub_assign(&mut self, other: &ScfAccumulator) {
        assert_eq!(
            self.max_offset, other.max_offset,
            "cannot combine DSCF accumulators of different sizes"
        );
        for (a, b) in self.acc_re.iter_mut().zip(&other.acc_re) {
            *a -= b;
        }
        for (a, b) in self.acc_im.iter_mut().zip(&other.acc_im) {
            *a -= b;
        }
    }
}

/// The fast software DSCF kernel: segment-decomposed, unit-stride,
/// symmetry-halved, and allocation-reusing.
///
/// [`dscf_reference`] is deliberately a transliteration of eq. 3, and its
/// hot loop pays for that honesty at every one of the `P²` grid points:
/// two `%` operations inside [`centred_bin`], a bounds-checked
/// `flat_index` with a panicking unwrap, and a full evaluation of the
/// `a < 0` half even though `S_f^{-a} = conj(S_f^a)` (a property this
/// module property-tests). An `ScfEngine` precomputes everything that
/// depends only on the [`ScfParams`], once:
///
/// * an [`FftPlan`] and the analysis-window coefficients, shared by every
///   block of every observation ([`ScfEngine::compute_spectra`] routes
///   through [`block_spectrum_with_plan`](crate::fft::block_spectrum_with_plan), the same code path
///   [`block_spectrum`] uses, so engine spectra are bit-identical to the
///   golden model's);
/// * a run-length decomposition of every half-grid row into contiguous
///   `RowSegment`s: along a row (fixed `f`, `a` ascending) the direct
///   operand walks `bin(f), bin(f)+1, …` and the conjugate operand walks
///   `bin(f−a)` — *descending*, but forward through the index-reversed
///   block `rev[t] = block[(K−t) mod K]`. Each sequence is consecutive
///   modulo `K`, so a row needs at most two segments (one wrap of one
///   operand: the direct run wraps only for `f < 0`, the reversed run only
///   for `f > 0`) and the inner loop is pure unit stride — no gather
///   tables, no modular arithmetic, no per-point panic machinery;
/// * row-band × block cache blocking: the accumulation iterates bands of
///   rows in an outer loop and blocks inside, so a band of accumulator
///   rows stays in L1/L2 while each staged block spectrum streams through
///   it once;
/// * row-major accumulation with the `a < 0` half mirrored once at the end
///   by conjugation, halving the multiply count (for a 127×127 grid:
///   127·64 = 8 128 products per block instead of 16 129).
///
/// [`ScfEngine::compute_into`] re-integrates into an existing
/// [`ScfMatrix`], so Monte-Carlo sweeps reuse one matrix allocation across
/// all trials.
///
/// The mirrored half is *exactly* the conjugate of the computed half in
/// IEEE arithmetic (conjugation commutes exactly with the complex
/// multiply–accumulate used here); the reversed block holds exact copies
/// of the original bins; and the `a ≥ 0` half performs the same product
/// expression and per-accumulator addition order (blocks ascending) as the
/// reference — so the engine is bit-identical to [`dscf_reference`], not
/// merely close. Tests assert a max abs difference ≤ 1e-12 and
/// `tests/unit_stride.rs` pins exact equality; in practice it is 0.0.
///
/// # Examples
///
/// ```
/// use cfd_dsp::scf::{dscf_reference, ScfEngine, ScfParams};
/// use cfd_dsp::signal::awgn;
///
/// # fn main() -> Result<(), cfd_dsp::error::DspError> {
/// let params = ScfParams::new(32, 7, 4)?;
/// let signal = awgn(params.samples_needed(), 1.0, 11);
/// let engine = ScfEngine::new(params.clone())?;
/// let fast = engine.compute(&signal)?;
/// let golden = dscf_reference(&signal, &params)?;
/// assert!(fast.max_abs_difference(&golden) <= 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScfEngine {
    params: ScfParams,
    plan: FftPlan,
    window_coeffs: Vec<f64>,
    /// The flattened per-row run decomposition of the `a ≥ 0` half-grid;
    /// row `r` owns `segments[row_bounds[r]..row_bounds[r+1]]`.
    segments: Vec<RowSegment>,
    /// `P + 1` offsets into `segments` delimiting each row's runs.
    row_bounds: Vec<u32>,
    /// This grid's `dsp.scf.accumulate_ns.g{P}` histogram, resolved on the
    /// first batch accumulation with telemetry enabled (clones share it).
    grid_accumulate_ns: OnceLock<cfd_telemetry::Histogram>,
}

/// Engines are equal iff their parameters are equal: every table is a pure
/// function of the [`ScfParams`].
impl PartialEq for ScfEngine {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
    }
}

impl ScfEngine {
    /// Builds an engine for `params`, precomputing the FFT plan, window
    /// coefficients and the per-row segment decomposition of the `a ≥ 0`
    /// half-grid.
    ///
    /// # Errors
    ///
    /// * [`DspError::InvalidParameter`] for invalid parameters,
    /// * [`DspError::NotPowerOfTwo`] if `fft_len` is not a power of two.
    pub fn new(params: ScfParams) -> Result<Self, DspError> {
        params.validate()?;
        let plan = FftPlan::new(params.fft_len)?;
        let window_coeffs = params.window.coefficients(params.fft_len);
        let m = params.max_offset as i32;
        let k = params.fft_len;
        let half = params.max_offset + 1;
        let p = params.grid_size();
        // For row `f`, offset `a`: the direct operand is
        // `block[(bin(f) + a) mod K]` and the conjugate operand is
        // `rev[(bin(−f) + a) mod K]` (both advance by one per offset).
        // Cut the row wherever either start-plus-offset reaches `K`; with
        // `2M < K` at most one operand wraps per row, so rows decompose
        // into at most two runs.
        let mut segments = Vec::with_capacity(2 * p);
        let mut row_bounds = Vec::with_capacity(p + 1);
        row_bounds.push(0u32);
        for f in -m..=m {
            let mut a = 0usize;
            let mut plus = centred_bin(f, k);
            let mut rev = centred_bin(-f, k);
            while a < half {
                let len = (half - a).min(k - plus).min(k - rev);
                segments.push(RowSegment {
                    out: a as u32,
                    len: len as u32,
                    plus: plus as u32,
                    rev: rev as u32,
                });
                a += len;
                plus = (plus + len) % k;
                rev = (rev + len) % k;
            }
            row_bounds.push(segments.len() as u32);
        }
        Ok(ScfEngine {
            params,
            plan,
            window_coeffs,
            segments,
            row_bounds,
            grid_accumulate_ns: OnceLock::new(),
        })
    }

    /// The parameters this engine was built for.
    pub fn params(&self) -> &ScfParams {
        &self.params
    }

    /// Computes the block spectra `X_{n,v}` of eq. 2 using the cached plan
    /// and window coefficients. Bit-identical to [`block_spectra`].
    ///
    /// # Errors
    ///
    /// [`DspError::InsufficientSamples`] if the signal is too short.
    pub fn compute_spectra(&self, signal: &[Cplx]) -> Result<Vec<Vec<Cplx>>, DspError> {
        let mut spectra = Vec::with_capacity(self.params.num_blocks);
        self.compute_spectra_into(signal, &mut spectra)?;
        Ok(spectra)
    }

    /// [`ScfEngine::compute_spectra`] writing into caller-owned buffers:
    /// `out` is resized to `num_blocks` and every inner spectrum reuses its
    /// allocation, so sweep workers recompute spectra trial after trial
    /// without churning the allocator.
    ///
    /// # Errors
    ///
    /// [`DspError::InsufficientSamples`] if the signal is too short.
    pub fn compute_spectra_into(
        &self,
        signal: &[Cplx],
        out: &mut Vec<Vec<Cplx>>,
    ) -> Result<(), DspError> {
        if signal.len() < self.params.samples_needed() {
            return Err(DspError::InsufficientSamples {
                needed: self.params.samples_needed(),
                available: signal.len(),
            });
        }
        let _span = spectra_ns().start_timer();
        out.truncate(self.params.num_blocks);
        while out.len() < self.params.num_blocks {
            out.push(Vec::with_capacity(self.params.fft_len));
        }
        for (n, block) in out.iter_mut().enumerate() {
            block_spectrum_into(
                signal,
                n * self.params.block_stride,
                &self.plan,
                &self.window_coeffs,
                block,
            )?;
        }
        Ok(())
    }

    /// Evaluates eq. 3 from precomputed block spectra into `out`, reusing
    /// its allocation (the matrix is resized only if its grid differs).
    ///
    /// Only the `a ≥ 0` half is accumulated; the `a < 0` half is filled by
    /// conjugation after the `1/N` normalisation.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `params.fft_len` (same contract
    /// as [`dscf_from_spectra`]).
    pub fn dscf_from_spectra_into(&self, spectra: &[Vec<Cplx>], out: &mut ScfMatrix) {
        self.integrate_spectra(spectra, Some(out), None);
    }

    /// The cyclic-domain profile ([`ScfMatrix::cyclic_profile`] layout,
    /// offset `a` at index `a + M`) of the DSCF of `spectra`, without
    /// materialising the matrix: each row-band of the batch kernel is
    /// folded into the profile while it is still cache-hot, so no
    /// `P × P` matrix is written or read back. `profile` is resized to
    /// the grid size.
    ///
    /// **Bit-identical** to [`ScfEngine::dscf_from_spectra_into`] followed
    /// by [`ScfMatrix::cyclic_profile_into`]: the same band kernel
    /// produces the same accumulator bits, the fold squares exactly the
    /// finalised cell values (`(ar·s)² + (ai·s)²`), rows arrive in the
    /// matrix scan's order under the same max predicate, and the `a < 0`
    /// columns are copies of the columns they conjugate.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `params.fft_len`.
    pub fn cyclic_profile_from_spectra_into(&self, spectra: &[Vec<Cplx>], profile: &mut Vec<f64>) {
        self.integrate_spectra(spectra, None, Some(profile));
    }

    /// [`ScfEngine::dscf_from_spectra_into`] and
    /// [`ScfEngine::cyclic_profile_from_spectra_into`] from one pass over
    /// the same bands — for callers that need the matrix and its profile.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `params.fft_len`.
    pub fn dscf_and_profile_from_spectra_into(
        &self,
        spectra: &[Vec<Cplx>],
        out: &mut ScfMatrix,
        profile: &mut Vec<f64>,
    ) {
        self.integrate_spectra(spectra, Some(out), Some(profile));
    }

    /// The batch integration behind the three spectra entry points: one
    /// band loop whose per-band sinks finalise into `matrix` and/or
    /// fold into `profile`.
    fn integrate_spectra(
        &self,
        spectra: &[Vec<Cplx>],
        mut matrix: Option<&mut ScfMatrix>,
        mut profile: Option<&mut Vec<f64>>,
    ) {
        let _span = accumulate_ns().start_timer();
        let m = self.params.max_offset;
        let p = self.params.grid_size();
        let half = m + 1;
        // Per-scale latency on top of the aggregate histogram, so wideband
        // grids are visible separately (resolved once per engine, and only
        // once telemetry is on).
        let _grid_span = cfd_telemetry::enabled().then(|| {
            self.grid_accumulate_ns
                .get_or_init(|| cfd_telemetry::histogram(&format!("dsp.scf.accumulate_ns.g{p}")))
                .start_timer()
        });
        if let Some(out) = matrix.as_deref_mut() {
            if out.max_offset != m {
                *out = ScfMatrix::zeros(m);
            }
            if spectra.is_empty() {
                // The band finaliser writes every cell, so zeroing is only
                // needed when there is nothing to accumulate.
                out.values.fill(Cplx::ZERO);
            }
        }
        if let Some(profile) = profile.as_deref_mut() {
            profile.clear();
            profile.resize(p, 0.0);
        }
        if spectra.is_empty() {
            return;
        }
        let scale = 1.0 / spectra.len() as f64;
        SCF_SCRATCH.with(|scratch| {
            self.for_each_band(
                spectra,
                &mut scratch.borrow_mut(),
                |band, acc_re, acc_im, row_buf| {
                    // Normalise and mirror the finished band: `out = acc/N`
                    // for `a ≥ 0`, conjugate for `a < 0`. Each row is
                    // assembled in an L1-hot staging buffer, then streamed
                    // into the (cold, write-once) output with wide
                    // non-temporal copies.
                    if let Some(out) = matrix.as_deref_mut() {
                        let rows = acc_re.chunks_exact(half).zip(acc_im.chunks_exact(half));
                        for (row, (ar, ai)) in band.clone().zip(rows) {
                            finalize_row_scalar(row_buf, ar, ai, m, scale);
                            copy_row_out(&mut out.values[row * p..(row + 1) * p], row_buf);
                        }
                    }
                    if let Some(profile) = profile.as_deref_mut() {
                        fold_profile_rows(acc_re, acc_im, scale, &mut profile[m..]);
                    }
                },
            );
        });
        if matrix.is_some() {
            finalize_fence();
        }
        if let Some(profile) = profile {
            finish_profile(profile, m);
        }
    }

    /// The unit-stride row-band loop behind every batch entry point (spectra
    /// pre-validated, non-empty): stages every block once, then runs the
    /// segment pass band by band and hands each finished band to `sink` —
    /// its row range, the band's `a ≥ 0` accumulator planes (`half` values
    /// per row) and the scratch row buffer — while the band is still
    /// cache-hot.
    fn for_each_band(
        &self,
        spectra: &[Vec<Cplx>],
        scratch: &mut ScfScratch,
        mut sink: impl FnMut(std::ops::Range<usize>, &[f64], &[f64], &mut [Cplx]),
    ) {
        let p = self.params.grid_size();
        let half = self.params.max_offset + 1;
        scratch
            .operands
            .stage(self.params.fft_len, spectra.iter().map(Vec::as_slice));
        // Row-band × block cache blocking: the accumulator slab covers only
        // one band of rows (~64 KiB across the re + im planes), stays hot
        // while every staged block streams through it, and is handed to
        // the sink before the next band reuses it — so the accumulator
        // traffic never round-trips through memory at any grid size.
        let band_rows = band_rows(half, p);
        for plane in [&mut scratch.acc_re, &mut scratch.acc_im] {
            plane.clear();
            plane.resize(band_rows * half, 0.0);
        }
        scratch.row_buf.clear();
        scratch.row_buf.resize(p, Cplx::ZERO);
        let mut band_start = 0usize;
        while band_start < p {
            let band_end = (band_start + band_rows).min(p);
            let len = (band_end - band_start) * half;
            let (acc_re, acc_im) = (&mut scratch.acc_re[..len], &mut scratch.acc_im[..len]);
            // No slab clearing: each row's segments tile `[0, half)`
            // exactly, and the init pass writes every cell.
            self.segment_pass::<INIT_PASS>(band_start..band_end, &scratch.operands, acc_re, acc_im);
            sink(band_start..band_end, acc_re, acc_im, &mut scratch.row_buf);
            band_start = band_end;
        }
    }

    /// The one segment-MAC kernel behind every batch and incremental
    /// entry point: runs every segment of `rows` over all blocks staged in
    /// `ops` — forward unit-stride passes, blocks fused innermost in
    /// [`chain_step`]'s chains — into accumulator planes laid out
    /// `(row − rows.start)·half + a`, through the widest vector tier the
    /// host supports. The staged values are exact copies and the
    /// per-accumulator order is blocks-ascending with the reference's
    /// product expression, so the accumulation is bit-identical to
    /// [`dscf_reference`]'s. Counts its runs in `dsp.scf.segment_runs`.
    fn segment_pass<const KIND: u8>(
        &self,
        rows: std::ops::Range<usize>,
        ops: &OperandPlanes,
        acc_re: &mut [f64],
        acc_im: &mut [f64],
    ) {
        let blocks = ops.plus_re.len() / self.params.fft_len;
        let runs = self.row_bounds[rows.end] - self.row_bounds[rows.start];
        segment_runs().add(u64::from(runs) * blocks as u64);
        match vector_tier() {
            // SAFETY: each arm is gated on runtime detection of its feature.
            #[cfg(target_arch = "x86_64")]
            VectorTier::Avx512 => unsafe {
                self.segment_pass_avx512::<KIND>(rows, ops, acc_re, acc_im)
            },
            #[cfg(target_arch = "x86_64")]
            VectorTier::Avx2 => unsafe {
                self.segment_pass_avx2::<KIND>(rows, ops, acc_re, acc_im)
            },
            VectorTier::Generic => self.segment_pass_body::<KIND>(rows, ops, acc_re, acc_im),
        }
    }

    /// [`ScfEngine::segment_pass_body`] compiled for AVX2 (4-wide `f64`
    /// lanes instead of SSE2's 2). Only `avx2` is enabled — not `fma` — so
    /// the generated code performs exactly the IEEE multiplies and adds of
    /// the generic kernel and the results stay bit-identical; the dispatch
    /// is purely a throughput choice made at run time.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn segment_pass_avx2<const KIND: u8>(
        &self,
        rows: std::ops::Range<usize>,
        ops: &OperandPlanes,
        acc_re: &mut [f64],
        acc_im: &mut [f64],
    ) {
        self.segment_pass_body::<KIND>(rows, ops, acc_re, acc_im);
    }

    /// [`ScfEngine::segment_pass_body`] compiled for AVX-512 (8-wide `f64`
    /// lanes). Like the AVX2 copy this cannot change the arithmetic: rustc
    /// emits plain IEEE multiplies and adds with no fast-math flags, so the
    /// backend may not contract them into FMAs whatever the feature set
    /// offers — wider registers only.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn segment_pass_avx512<const KIND: u8>(
        &self,
        rows: std::ops::Range<usize>,
        ops: &OperandPlanes,
        acc_re: &mut [f64],
        acc_im: &mut [f64],
    ) {
        self.segment_pass_body::<KIND>(rows, ops, acc_re, acc_im);
    }

    #[inline(always)]
    fn segment_pass_body<const KIND: u8>(
        &self,
        rows: std::ops::Range<usize>,
        ops: &OperandPlanes,
        acc_re: &mut [f64],
        acc_im: &mut [f64],
    ) {
        let half = self.params.max_offset + 1;
        let k = self.params.fft_len;
        let n = ops.plus_re.len() / k;
        debug_assert!(KIND != INIT_PASS || n >= 1, "init requires a staged block");
        debug_assert!(
            KIND != SLIDE_PASS || n == 2,
            "a slide stages exactly two blocks"
        );
        for row in rows.clone() {
            let base = (row - rows.start) * half;
            let bounds = self.row_bounds[row] as usize..self.row_bounds[row + 1] as usize;
            for seg in &self.segments[bounds] {
                let len = seg.len as usize;
                let ar = &mut acc_re[base + seg.out as usize..][..len];
                let ai = &mut acc_im[base + seg.out as usize..][..len];
                let mut b = 0;
                if KIND == INIT_PASS {
                    b = chain_step::<INIT_PASS>(ar, ai, ops, n, b, k, seg);
                }
                while b < n {
                    b = match KIND {
                        SUB_PASS => chain_step::<SUB_PASS>(ar, ai, ops, n, b, k, seg),
                        SLIDE_PASS => chain_step::<SLIDE_PASS>(ar, ai, ops, n, b, k, seg),
                        _ => chain_step::<ADD_PASS>(ar, ai, ops, n, b, k, seg),
                    };
                }
            }
        }
    }

    /// Full evaluation (spectra + eq. 3) into an existing matrix, reusing
    /// the matrix allocation across calls. The intermediate spectra are
    /// still allocated per call; loops that want zero steady-state
    /// allocation should hold their own spectra scratch and pair
    /// [`ScfEngine::compute_spectra_into`] with
    /// [`ScfEngine::dscf_from_spectra_into`].
    ///
    /// # Errors
    ///
    /// [`DspError::InsufficientSamples`] if the signal is too short.
    pub fn compute_into(&self, signal: &[Cplx], out: &mut ScfMatrix) -> Result<(), DspError> {
        let spectra = self.compute_spectra(signal)?;
        self.dscf_from_spectra_into(&spectra, out);
        Ok(())
    }

    /// Full evaluation into a freshly allocated matrix.
    ///
    /// # Errors
    ///
    /// [`DspError::InsufficientSamples`] if the signal is too short.
    pub fn compute(&self, signal: &[Cplx]) -> Result<ScfMatrix, DspError> {
        let mut out = ScfMatrix::zeros(self.params.max_offset);
        self.compute_into(signal, &mut out)?;
        Ok(out)
    }

    // --- incremental (sliding-window) integration entry points ----------

    /// Computes the spectrum of the single `fft_len`-sample block starting
    /// at `signal[start]`, using the cached plan and window coefficients —
    /// the streaming layer's per-hop FFT, bit-identical to the
    /// corresponding block of [`ScfEngine::compute_spectra`] for the same
    /// `start`. Note `start` also sets the block's eq.-2 phase rotation:
    /// a streaming sensor that slices the block out of its own buffer
    /// passes `start = 0` (a **raw**, unrotated spectrum) and re-phases
    /// per hop with [`ScfEngine::rotate_spectrum_into`].
    ///
    /// # Errors
    ///
    /// [`DspError::InsufficientSamples`] if the signal ends before
    /// `start + fft_len`.
    pub fn block_spectrum_into(
        &self,
        signal: &[Cplx],
        start: usize,
        out: &mut Vec<Cplx>,
    ) -> Result<(), DspError> {
        let _span = spectra_ns().start_timer();
        block_spectrum_into(signal, start, &self.plan, &self.window_coeffs, out)
    }

    /// Copies `spectrum` and applies the eq.-2 absolute-time phase
    /// rotation `X[v] *= exp(-j·2π·start·v/K)` of a block beginning at
    /// sample `start`.
    ///
    /// Applied to a raw (`start = 0`) spectrum, the result is
    /// **bit-identical** to computing that block directly at `start`
    /// ([`ScfEngine::block_spectrum_into`] runs the same table-driven
    /// rotation on the same FFT output). A streaming sensor keeps one raw
    /// spectrum per retained block and re-phases it on demand — into the
    /// window-relative frame for an exact batch-equal refresh, or into
    /// the absolute-time frame for the rolling accumulation.
    pub fn rotate_spectrum_into(&self, spectrum: &[Cplx], start: usize, out: &mut Vec<Cplx>) {
        out.clear();
        out.extend_from_slice(spectrum);
        self.plan.rotate_block_phase(start, out);
    }

    /// Re-bases a window accumulation between phase frames: multiplies
    /// every offset column `a` of the half-grid accumulator by
    /// `exp(∓j·2π·(2a·start)/K)` (`conjugate = true` selects the `+`
    /// sign).
    ///
    /// Shifting every block start of a window by `start` samples
    /// multiplies each block's eq.-2 phase by `exp(-j·2π·v·start/K)`, so
    /// the eq.-3 product `X_{f+a}·conj(X_{f−a})` — and therefore the
    /// whole per-column accumulation — picks up
    /// `exp(-j·2π·2a·start/K)`, independent of `f` and of the block.
    /// A streaming sensor accumulates in the absolute-time frame (block
    /// `b` rotated by `b·hop`) and conjugate-rotates a copy by the
    /// window's start before finalising, which re-phases the sum into
    /// exactly the frame the batch engine uses for that window. The
    /// factors come from the FFT plan's rotation table
    /// ([`FftPlan::phase_root`](crate::fft::FftPlan::phase_root)), so
    /// frames compose bit-exactly with [`ScfEngine::rotate_spectrum_into`]
    /// (and the `a = 0` ridge, whose phase is always 1, is left
    /// untouched).
    ///
    /// # Panics
    ///
    /// Panics if `acc` was built for a different grid.
    pub fn rotate_accumulator_columns(
        &self,
        acc: &mut ScfAccumulator,
        start: usize,
        conjugate: bool,
    ) {
        let m = self.params.max_offset;
        let half = m + 1;
        let p = self.params.grid_size();
        let k = self.params.fft_len;
        self.check_grid(acc);
        let s = start % k;
        if s == 0 {
            return;
        }
        let step = (2 * s) % k;
        for row in 0..p {
            let base = row * half;
            let mut r = 0usize;
            for a in 1..half {
                r += step;
                if r >= k {
                    r -= k;
                }
                if r == 0 {
                    // A full turn: multiplying by the exact 1+0j root
                    // would still rewrite -0.0 signs; skip to keep bits.
                    continue;
                }
                let root = self.plan.phase_root(r);
                let (wr, wi) = if conjugate {
                    (root.re, -root.im)
                } else {
                    (root.re, root.im)
                };
                let re = acc.acc_re[base + a];
                let im = acc.acc_im[base + a];
                acc.acc_re[base + a] = re * wr - im * wi;
                acc.acc_im[base + a] = im * wr + re * wi;
            }
        }
    }

    /// A zeroed [`ScfAccumulator`] matching this engine's grid.
    pub fn accumulator(&self) -> ScfAccumulator {
        ScfAccumulator::new(self.params.max_offset)
    }

    /// Adds one block spectrum's contribution
    /// `X_{f+a}·conj(X_{f−a})` to `acc`, running the engine's per-row
    /// segments as unit-stride SIMD passes — O(grid), independent of the
    /// window length.
    ///
    /// Adding `N` blocks one at a time onto a fresh accumulator and
    /// finalising is **bit-identical** to the batch
    /// [`ScfEngine::dscf_from_spectra_into`]: per accumulator cell the
    /// blocks arrive in the same order with the same product expression,
    /// and the batch kernel's fused 4/2/1 chains do not change that
    /// per-cell addition tree.
    ///
    /// # Panics
    ///
    /// Panics if `block` is shorter than `fft_len` or if `acc` was built
    /// for a different grid.
    pub fn accumulate_block(&self, block: &[Cplx], acc: &mut ScfAccumulator) {
        self.accumulator_pass::<ADD_PASS>(std::iter::once(block), acc);
    }

    /// Subtracts one block spectrum's contribution from `acc` — the retire
    /// half of a sliding-window hop. The subtracted term is bit-for-bit
    /// the value [`ScfEngine::accumulate_block`] added for the same block,
    /// so the only residue of an add-then-retire cycle is the
    /// associativity rounding of `(acc + t) − t`, which callers bound with
    /// periodic exact refreshes ([`ScfEngine::accumulate_window`]).
    ///
    /// # Panics
    ///
    /// Panics if `block` is shorter than `fft_len` or if `acc` was built
    /// for a different grid.
    pub fn retire_block(&self, block: &[Cplx], acc: &mut ScfAccumulator) {
        self.accumulator_pass::<SUB_PASS>(std::iter::once(block), acc);
    }

    /// Slides a window accumulation by one block and folds its cyclic
    /// profile in the same walk: retires `outgoing`'s contribution from
    /// `acc`, adds `incoming`'s, and writes into `profile` (resized to the
    /// grid size) the profile `acc` finalises to over `num_blocks` blocks —
    /// the incremental hop of a streaming sensor in one pass over the
    /// half-grid instead of three.
    ///
    /// **Bit-identical** to [`ScfEngine::retire_block`]`(outgoing)`, then
    /// [`ScfEngine::accumulate_block`]`(incoming)`, then
    /// [`ScfEngine::cyclic_profile_from_accumulator`]: both spectra are
    /// staged once, every cell becomes `(acc − t_out) + t_in` in registers
    /// (the two passes' operation order, with their product expression),
    /// and each band of rows is folded into the profile while it is still
    /// cache-hot, in the scan's row order under the scan's predicate.
    ///
    /// # Panics
    ///
    /// Panics if either block is shorter than `fft_len`, if `num_blocks`
    /// is zero or if `acc` was built for a different grid.
    pub fn slide_block(
        &self,
        outgoing: &[Cplx],
        incoming: &[Cplx],
        acc: &mut ScfAccumulator,
        num_blocks: usize,
        profile: &mut Vec<f64>,
    ) {
        let m = self.params.max_offset;
        let half = m + 1;
        let p = self.params.grid_size();
        self.check_grid(acc);
        assert!(num_blocks > 0, "cannot normalise over zero blocks");
        profile.clear();
        profile.resize(p, 0.0);
        let scale = 1.0 / num_blocks as f64;
        let band_rows = band_rows(half, p);
        SCF_SCRATCH.with(|scratch| {
            let operands = &mut scratch.borrow_mut().operands;
            operands.stage(self.params.fft_len, [outgoing, incoming].into_iter());
            for band_start in (0..p).step_by(band_rows) {
                let band = band_start..(band_start + band_rows).min(p);
                let cells = band.start * half..band.end * half;
                let (ar, ai) = (&mut acc.acc_re[cells.clone()], &mut acc.acc_im[cells]);
                self.segment_pass::<SLIDE_PASS>(band, operands, ar, ai);
                fold_profile_rows(ar, ai, scale, &mut profile[m..]);
            }
        });
        finish_profile(profile, m);
    }

    /// Stages `blocks` and runs one segment pass of `KIND` over the whole
    /// grid of `acc`.
    fn accumulator_pass<'a, const KIND: u8>(
        &self,
        blocks: impl ExactSizeIterator<Item = &'a [Cplx]>,
        acc: &mut ScfAccumulator,
    ) {
        self.check_grid(acc);
        SCF_SCRATCH.with(|scratch| {
            let operands = &mut scratch.borrow_mut().operands;
            operands.stage(self.params.fft_len, blocks);
            let rows = 0..self.params.grid_size();
            self.segment_pass::<KIND>(rows, operands, &mut acc.acc_re, &mut acc.acc_im);
        });
    }

    fn check_grid(&self, acc: &ScfAccumulator) {
        assert_eq!(
            acc.max_offset, self.params.max_offset,
            "accumulator grid (±{}) does not match the engine grid (±{})",
            acc.max_offset, self.params.max_offset
        );
    }

    /// Overwrites `acc` with the full accumulation over `blocks` using the
    /// fused 4/2/1 block chains — the exact-refresh pass of a streaming
    /// sensor, and **bit-identical** (after
    /// [`ScfEngine::finalize_accumulator`] with `num_blocks =
    /// blocks.len()`) to the batch [`ScfEngine::dscf_from_spectra_into`]
    /// over the same spectra. An empty `blocks` resets the accumulator.
    /// `blocks` may be slices or owned spectra (`&[Vec<Cplx>]`), so a
    /// caller holding a ring of spectra stages it without collecting a
    /// slice list.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `fft_len` or if `acc` was built
    /// for a different grid.
    pub fn accumulate_window<B: AsRef<[Cplx]>>(&self, blocks: &[B], acc: &mut ScfAccumulator) {
        if blocks.is_empty() {
            self.check_grid(acc);
            acc.reset();
        } else {
            self.accumulator_pass::<INIT_PASS>(blocks.iter().map(AsRef::as_ref), acc);
        }
    }

    /// Normalises (`1/num_blocks`) and mirrors the accumulated `a ≥ 0`
    /// half into a full [`ScfMatrix`] — the same
    /// `finalize_row_scalar`-plus-streaming-copy path the batch kernel
    /// runs, so equal accumulator planes produce a bit-identical matrix.
    /// `out` is resized only if its grid differs.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` is zero or if `acc` was built for a
    /// different grid.
    pub fn finalize_accumulator(
        &self,
        acc: &ScfAccumulator,
        num_blocks: usize,
        out: &mut ScfMatrix,
    ) {
        let m = self.params.max_offset;
        let half = m + 1;
        let p = self.params.grid_size();
        self.check_grid(acc);
        assert!(num_blocks > 0, "cannot normalise over zero blocks");
        if out.max_offset != m {
            *out = ScfMatrix::zeros(m);
        }
        let scale = 1.0 / num_blocks as f64;
        SCF_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.row_buf.clear();
            scratch.row_buf.resize(p, Cplx::ZERO);
            for row in 0..p {
                let ar = &acc.acc_re[row * half..][..half];
                let ai = &acc.acc_im[row * half..][..half];
                finalize_row_scalar(&mut scratch.row_buf, ar, ai, m, scale);
                copy_row_out(&mut out.values[row * p..(row + 1) * p], &scratch.row_buf);
            }
        });
        finalize_fence();
    }

    /// The cyclic-domain profile of the matrix `acc` would finalize to,
    /// computed straight off the `a ≥ 0` accumulator half — no
    /// [`ScfMatrix`] is materialised. `out` is resized to the grid size;
    /// element `[a + M]` is the profile at offset `a`.
    ///
    /// **Bit-identical** to
    /// `finalize_accumulator(acc, num_blocks, &mut scf)` followed by
    /// [`ScfMatrix::cyclic_profile`]: each scanned square replicates the
    /// finalize arithmetic exactly (`(ar·s)² + (ai·s)²`; the mirror half's
    /// negated imaginary part squares to the same bits), the row order and
    /// max predicate match the matrix scan, and the mirror columns are
    /// copies of the columns they conjugate. This is the streaming
    /// decision path: O(grid/2) multiplies per hop instead of a full
    /// finalize pass plus a full-grid scan.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` is zero or if `acc` was built for a
    /// different grid.
    pub fn cyclic_profile_from_accumulator(
        &self,
        acc: &ScfAccumulator,
        num_blocks: usize,
        out: &mut Vec<f64>,
    ) {
        let m = self.params.max_offset;
        let p = self.params.grid_size();
        self.check_grid(acc);
        assert!(num_blocks > 0, "cannot normalise over zero blocks");
        out.clear();
        out.resize(p, 0.0);
        let scale = 1.0 / num_blocks as f64;
        fold_profile_rows(&acc.acc_re, &acc.acc_im, scale, &mut out[m..]);
        finish_profile(out, m);
    }
}

/// The spectral autocoherence magnitude
/// `|S_f^a| / sqrt(S_{f+a}^0 · S_{f-a}^0)` clipped to `[0, 1]`, commonly
/// used to normalise cyclic features before thresholding.
///
/// Returns zero where the denominator underflows.
pub fn spectral_coherence(matrix: &ScfMatrix, f: i32, a: i32) -> f64 {
    let m = matrix.max_offset() as i32;
    if f + a > m || f + a < -m || f - a > m || f - a < -m {
        return 0.0;
    }
    let num = matrix.at(f, a).abs();
    let d1 = matrix.at(f + a, 0).abs();
    let d2 = matrix.at(f - a, 0).abs();
    let denom = (d1 * d2).sqrt();
    if denom <= f64::MIN_POSITIVE {
        0.0
    } else {
        (num / denom).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{awgn, complex_tone, modulated_signal, ModulatedSignalSpec};

    #[test]
    fn params_validation() {
        assert!(ScfParams::new(0, 0, 1).is_err());
        assert!(ScfParams::new(64, 32, 1).is_err()); // 2*32 >= 64
        assert!(ScfParams::new(64, 31, 0).is_err());
        let p = ScfParams::new(64, 31, 2).unwrap();
        assert_eq!(p.grid_size(), 63);
        assert_eq!(p.samples_needed(), 128);
        assert!(p.with_stride(0).validate().is_err());
    }

    #[test]
    fn paper_parameters_match_section_4_1() {
        let p = ScfParams::paper_256();
        assert_eq!(p.fft_len, 256);
        assert_eq!(p.max_offset, 63);
        assert_eq!(p.grid_size(), 127);
        // 127 x 127 points in the DSCF.
        assert_eq!(p.total_multiplications(), 16129);
    }

    #[test]
    fn matrix_indexing_and_iteration() {
        let mut m = ScfMatrix::zeros(2);
        assert_eq!(m.grid_size(), 5);
        m.set(-2, 2, Cplx::new(1.0, 0.0));
        m.set(0, 0, Cplx::new(0.0, 1.0));
        m.accumulate(0, 0, Cplx::new(0.0, 1.0));
        assert_eq!(m.at(0, 0), Cplx::new(0.0, 2.0));
        assert_eq!(m.at(-2, 2), Cplx::new(1.0, 0.0));
        assert!(m.get(3, 0).is_none());
        let count = m.iter().count();
        assert_eq!(count, 25);
        let nonzero: Vec<_> = m.iter().filter(|(_, _, v)| v.abs() > 0.0).collect();
        assert_eq!(nonzero.len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn matrix_at_panics_out_of_range() {
        let m = ScfMatrix::zeros(1);
        let _ = m.at(2, 0);
    }

    #[test]
    fn centred_bin_wraps_correctly() {
        assert_eq!(centred_bin(0, 8), 0);
        assert_eq!(centred_bin(3, 8), 3);
        assert_eq!(centred_bin(-1, 8), 7);
        assert_eq!(centred_bin(-8, 8), 0);
        assert_eq!(centred_bin(9, 8), 1);
    }

    #[test]
    fn dscf_of_tone_peaks_at_its_frequency_on_the_a0_axis() {
        // Complex tone at bin 5 of a 64-point FFT.
        let k = 64;
        let params = ScfParams::new(k, 15, 4).unwrap();
        let signal = complex_tone(params.samples_needed(), 5.0, k as f64, 0.3);
        let scf = dscf_reference(&signal, &params).unwrap();
        let psd = scf.psd();
        // Peak of the PSD at f = 5 (index 5 + 15 = 20).
        let (argmax, _) = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(argmax as i32 - 15, 5);
    }

    #[test]
    fn dscf_conjugate_symmetry_in_a() {
        // S_f^{-a} = conj(S_f^{a}) follows directly from eq. 3.
        let params = ScfParams::new(32, 7, 3).unwrap();
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 21).unwrap();
        let scf = dscf_reference(&signal, &params).unwrap();
        for f in -7..=7 {
            for a in -7..=7 {
                let lhs = scf.at(f, -a);
                let rhs = scf.at(f, a).conj();
                assert!((lhs - rhs).abs() < 1e-9, "f={f}, a={a}");
            }
        }
    }

    #[test]
    fn dscf_a0_values_are_real_nonnegative() {
        let params = ScfParams::new(32, 7, 2).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 9);
        let scf = dscf_reference(&signal, &params).unwrap();
        for f in -7..=7 {
            let s = scf.at(f, 0);
            assert!(s.im.abs() < 1e-9);
            assert!(s.re >= 0.0);
        }
    }

    #[test]
    fn cyclostationary_signal_has_features_at_symbol_rate() {
        // BPSK with 4 samples/symbol in a 32-point FFT: the symbol rate is
        // 8 bins, so a feature is expected at a = ±4 (since the offset
        // between the correlated bins is 2a).
        let k = 32;
        let params = ScfParams::new(k, 7, 64).unwrap();
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 9).unwrap();
        let scf = dscf_reference(&signal, &params).unwrap();
        let profile = scf.cyclic_profile();
        let at = |a: i32| profile[(a + 7) as usize];
        // The a = ±4 feature (2a = 8 bins = symbol rate) must stand clearly
        // above a nearby non-cyclic offset such as a = ±3.
        assert!(
            at(4) > 3.0 * at(3),
            "feature at a=4 ({}) not above a=3 ({})",
            at(4),
            at(3)
        );
        assert!(at(-4) > 3.0 * at(-3));
    }

    #[test]
    fn noise_has_no_dominant_cyclic_feature() {
        let params = ScfParams::new(32, 7, 64).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 17);
        let scf = dscf_reference(&signal, &params).unwrap();
        let profile = scf.cyclic_profile();
        let at_zero = profile[7];
        let max_nonzero = profile
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 7)
            .map(|(_, &v)| v)
            .fold(0.0, f64::max);
        // For white noise the a=0 ridge dominates any other offset.
        assert!(at_zero > max_nonzero, "{at_zero} vs {max_nonzero}");
    }

    #[test]
    fn averaging_reduces_off_feature_variance() {
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let short = ScfParams::new(32, 7, 2).unwrap();
        let long = ScfParams::new(32, 7, 128).unwrap();
        let signal = modulated_signal(long.samples_needed(), &spec, 33).unwrap();
        let scf_short = dscf_reference(&signal, &short).unwrap();
        let scf_long = dscf_reference(&signal, &long).unwrap();
        // Relative strength of the true feature (a=4) vs a spurious offset
        // (a=1) improves with averaging.
        let contrast = |m: &ScfMatrix| {
            let p = m.cyclic_profile();
            p[(4 + 7) as usize] / p[(1 + 7) as usize].max(f64::MIN_POSITIVE)
        };
        assert!(contrast(&scf_long) > contrast(&scf_short));
    }

    #[test]
    fn insufficient_samples_is_reported() {
        let params = ScfParams::new(64, 15, 4).unwrap();
        let signal = vec![Cplx::ZERO; 100];
        assert!(matches!(
            dscf_reference(&signal, &params),
            Err(DspError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn max_abs_difference_and_display() {
        let params = ScfParams::new(32, 3, 1).unwrap();
        let signal = complex_tone(params.samples_needed(), 2.0, 32.0, 0.0);
        let a = dscf_reference(&signal, &params).unwrap();
        let mut b = a.clone();
        assert_eq!(a.max_abs_difference(&b), 0.0);
        b.set(0, 0, b.at(0, 0) + Cplx::new(0.5, 0.0));
        assert!((a.max_abs_difference(&b) - 0.5).abs() < 1e-12);
        assert!(a.to_string().contains("7x7"));
    }

    #[test]
    fn engine_is_bit_identical_to_reference() {
        // Overlapping blocks and a tapered window exercise every table.
        let params = ScfParams::new(64, 15, 6)
            .unwrap()
            .with_stride(32)
            .with_window(Window::Hann);
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 5).unwrap();
        let reference = dscf_reference(&signal, &params).unwrap();
        let engine = ScfEngine::new(params.clone()).unwrap();
        assert_eq!(engine.params(), &params);
        let fast = engine.compute(&signal).unwrap();
        assert!(fast.max_abs_difference(&reference) <= 1e-12);
        // Engine spectra equal the golden-model spectra bit for bit.
        let golden_spectra = block_spectra(&signal, &params).unwrap();
        assert_eq!(engine.compute_spectra(&signal).unwrap(), golden_spectra);
    }

    #[test]
    fn engine_compute_into_reuses_and_resizes_the_matrix() {
        let params = ScfParams::new(32, 7, 3).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 23);
        let engine = ScfEngine::new(params.clone()).unwrap();
        let reference = dscf_reference(&signal, &params).unwrap();
        // A wrong-sized matrix is resized; a right-sized dirty one is
        // cleanly overwritten on re-integration.
        let mut out = ScfMatrix::zeros(2);
        engine.compute_into(&signal, &mut out).unwrap();
        assert_eq!(out.max_offset(), 7);
        assert!(out.max_abs_difference(&reference) <= 1e-12);
        out.set(0, 0, Cplx::new(123.0, -4.0));
        engine.compute_into(&signal, &mut out).unwrap();
        assert!(out.max_abs_difference(&reference) <= 1e-12);
    }

    #[test]
    fn engine_rejects_bad_inputs() {
        assert!(ScfEngine::new(ScfParams {
            fft_len: 12, // not a power of two
            max_offset: 3,
            num_blocks: 1,
            block_stride: 12,
            window: Window::Rectangular,
        })
        .is_err());
        assert!(ScfEngine::new(ScfParams {
            fft_len: 16,
            max_offset: 8, // 2*8 >= 16
            num_blocks: 1,
            block_stride: 16,
            window: Window::Rectangular,
        })
        .is_err());
        let engine = ScfEngine::new(ScfParams::new(32, 7, 4).unwrap()).unwrap();
        let short = vec![Cplx::ZERO; 10];
        assert!(matches!(
            engine.compute(&short),
            Err(DspError::InsufficientSamples { .. })
        ));
        // Engine equality is parameter equality.
        let other = ScfEngine::new(ScfParams::new(32, 7, 8).unwrap()).unwrap();
        assert_ne!(engine, other);
        assert_eq!(engine, engine.clone());
    }

    #[test]
    #[should_panic(expected = "shorter")]
    fn engine_panics_on_short_spectra_blocks() {
        let engine = ScfEngine::new(ScfParams::new(16, 3, 1).unwrap()).unwrap();
        let mut out = ScfMatrix::zeros(3);
        engine.dscf_from_spectra_into(&[vec![Cplx::ZERO; 8]], &mut out);
    }

    #[test]
    fn spectral_coherence_is_in_unit_interval_and_one_for_tone() {
        let k = 64;
        let params = ScfParams::new(k, 15, 8).unwrap();
        let signal = complex_tone(params.samples_needed(), 4.0, k as f64, 0.0);
        let scf = dscf_reference(&signal, &params).unwrap();
        for f in -15..=15 {
            for a in -15..=15 {
                let c = spectral_coherence(&scf, f, a);
                assert!((0.0..=1.0).contains(&c));
            }
        }
        // A pure tone at bin 4 correlates perfectly between bins 4+0 and 4-0.
        assert!(spectral_coherence(&scf, 4, 0) > 0.99);
    }

    /// Both incremental accumulation orders — block-at-a-time adds and the
    /// fused window re-sum — finalise to the exact bits of the batch
    /// kernel, including with overlapping blocks.
    #[test]
    fn incremental_accumulation_is_bitwise_equal_to_batch() {
        let params = ScfParams::new(32, 7, 6).unwrap().with_stride(24);
        let engine = ScfEngine::new(params.clone()).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 42);
        let spectra = engine.compute_spectra(&signal).unwrap();
        let mut batch = ScfMatrix::zeros(params.max_offset);
        engine.dscf_from_spectra_into(&spectra, &mut batch);

        let mut acc = engine.accumulator();
        for block in &spectra {
            engine.accumulate_block(block, &mut acc);
        }
        let mut one_at_a_time = ScfMatrix::zeros(params.max_offset);
        engine.finalize_accumulator(&acc, spectra.len(), &mut one_at_a_time);
        assert_eq!(one_at_a_time.as_slice(), batch.as_slice());

        // The fused re-sum overwrites whatever the accumulator held.
        let refs: Vec<&[Cplx]> = spectra.iter().map(|b| b.as_slice()).collect();
        engine.accumulate_window(&refs, &mut acc);
        let mut windowed = ScfMatrix::zeros(params.max_offset);
        engine.finalize_accumulator(&acc, spectra.len(), &mut windowed);
        assert_eq!(windowed.as_slice(), batch.as_slice());
    }

    /// Retiring blocks removes exactly what adding them contributed, up to
    /// the `(acc + t) − t` associativity residue.
    #[test]
    fn retiring_blocks_reverts_their_contribution() {
        let params = ScfParams::new(32, 7, 6).unwrap();
        let engine = ScfEngine::new(params.clone()).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 7);
        let spectra = engine.compute_spectra(&signal).unwrap();

        let mut acc = engine.accumulator();
        let refs: Vec<&[Cplx]> = spectra.iter().map(|b| b.as_slice()).collect();
        engine.accumulate_window(&refs, &mut acc);
        engine.retire_block(&spectra[0], &mut acc);
        engine.retire_block(&spectra[1], &mut acc);
        let mut rolled = ScfMatrix::zeros(params.max_offset);
        engine.finalize_accumulator(&acc, 4, &mut rolled);

        let mut tail = engine.accumulator();
        engine.accumulate_window(&refs[2..], &mut tail);
        let mut exact = ScfMatrix::zeros(params.max_offset);
        engine.finalize_accumulator(&tail, 4, &mut exact);
        assert!(rolled.max_abs_difference(&exact) <= 1e-12);

        // An empty window resets the accumulation entirely.
        engine.accumulate_window::<&[Cplx]>(&[], &mut acc);
        let mut zeroed = ScfMatrix::zeros(params.max_offset);
        engine.finalize_accumulator(&acc, 4, &mut zeroed);
        assert_eq!(zeroed.max_magnitude(), 0.0);
    }

    /// Cached per-block contribution planes (single-block
    /// `accumulate_window` + `add_assign`/`sub_assign`) track the direct
    /// segment passes.
    #[test]
    fn contribution_planes_compose_like_segment_passes() {
        let params = ScfParams::new(32, 7, 4).unwrap();
        let engine = ScfEngine::new(params.clone()).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 13);
        let spectra = engine.compute_spectra(&signal).unwrap();

        let mut direct = engine.accumulator();
        let mut planes = engine.accumulator();
        let mut plane = engine.accumulator();
        for block in &spectra {
            engine.accumulate_block(block, &mut direct);
            engine.accumulate_window(&[block.as_slice()], &mut plane);
            planes.add_assign(&plane);
        }
        let mut a = ScfMatrix::zeros(params.max_offset);
        let mut b = ScfMatrix::zeros(params.max_offset);
        engine.finalize_accumulator(&direct, 4, &mut a);
        engine.finalize_accumulator(&planes, 4, &mut b);
        assert!(a.max_abs_difference(&b) <= 1e-12);
        assert!(ScfAccumulator::bytes_for(params.max_offset) > 0);

        engine.accumulate_window(&[spectra[3].as_slice()], &mut plane);
        planes.sub_assign(&plane);
        planes.reset();
        assert_eq!(planes, engine.accumulator());
    }

    /// The accumulator-side profile scan replicates the finalize
    /// arithmetic, so it matches finalize-then-scan bit-for-bit — the
    /// guarantee the streaming fast path's exact-refresh hops rest on.
    #[test]
    fn accumulator_profile_is_bitwise_equal_to_finalized_scan() {
        let params = ScfParams::new(32, 7, 6).unwrap().with_stride(24);
        let engine = ScfEngine::new(params.clone()).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 21);
        let spectra = engine.compute_spectra(&signal).unwrap();
        let refs: Vec<&[Cplx]> = spectra.iter().map(|b| b.as_slice()).collect();
        let mut acc = engine.accumulator();
        engine.accumulate_window(&refs, &mut acc);

        let mut matrix = ScfMatrix::zeros(params.max_offset);
        engine.finalize_accumulator(&acc, spectra.len(), &mut matrix);
        let via_matrix = matrix.cyclic_profile();

        let mut direct = Vec::new();
        engine.cyclic_profile_from_accumulator(&acc, spectra.len(), &mut direct);
        assert_eq!(direct.len(), params.grid_size());
        assert!(via_matrix
            .iter()
            .zip(&direct)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// The fused batch profile folds each band while it is hot instead of
    /// scanning the finalised matrix, and must not move a bit doing so —
    /// on finite input and with a NaN or infinite sample poisoning the
    /// spectra — on the paper grid, mid-size and wideband grids, and an
    /// overlapping-block geometry.
    #[test]
    fn fused_profile_is_bitwise_equal_to_matrix_scan() {
        let grids = [
            ScfParams::new(32, 7, 6).unwrap().with_stride(24),
            ScfParams::paper_256_with_blocks(8),
            ScfParams::new(64, 31, 5).unwrap(),
            ScfParams::new(512, 255, 3).unwrap(),
        ];
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        for params in grids {
            let engine = ScfEngine::new(params.clone()).unwrap();
            for poison in [None, Some(f64::NAN), Some(f64::INFINITY)] {
                let mut signal = awgn(params.samples_needed(), 1.0, 31);
                if let Some(value) = poison {
                    signal[params.fft_len / 2] = Cplx::new(value, 0.0);
                }
                let spectra = engine.compute_spectra(&signal).unwrap();
                let mut matrix = ScfMatrix::zeros(params.max_offset);
                engine.dscf_from_spectra_into(&spectra, &mut matrix);
                let scanned = matrix.cyclic_profile();
                let mut fused = vec![1.0; 3];
                engine.cyclic_profile_from_spectra_into(&spectra, &mut fused);
                let case = format!(
                    "{}x{} poison {poison:?}",
                    params.grid_size(),
                    params.grid_size()
                );
                assert!(same_bits(&fused, &scanned), "{case}");
                assert_eq!(poison.is_some(), fused.iter().any(|v| v.is_nan()), "{case}");

                // Matrix and profile from one pass equal both single passes.
                let mut both = ScfMatrix::zeros(1);
                let mut profile = Vec::new();
                engine.dscf_and_profile_from_spectra_into(&spectra, &mut both, &mut profile);
                assert!(same_bits(&profile, &scanned), "{case}");
                let cells = |m: &ScfMatrix| -> Vec<u64> {
                    m.as_slice()
                        .iter()
                        .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                        .collect()
                };
                assert_eq!(cells(&both), cells(&matrix), "{case}");
            }
        }
        // No spectra: the zero matrix's all-zero profile.
        let engine = ScfEngine::new(ScfParams::new(16, 3, 1).unwrap()).unwrap();
        let mut profile = vec![f64::NAN];
        engine.cyclic_profile_from_spectra_into(&[], &mut profile);
        assert_eq!(profile, vec![0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "does not match the engine grid")]
    fn mismatched_accumulator_grids_panic() {
        let engine = ScfEngine::new(ScfParams::new(32, 7, 1).unwrap()).unwrap();
        let other = ScfEngine::new(ScfParams::new(32, 5, 1).unwrap()).unwrap();
        let mut acc = other.accumulator();
        engine.accumulate_block(&[Cplx::ZERO; 32], &mut acc);
    }

    /// The fused slide equals retire, then add, then the accumulator
    /// profile scan, to the last bit of every accumulator cell and profile
    /// value: over several consecutive slides on a 15×15 grid with
    /// overlapping blocks, 31×31, a wrap-heavy 63×63 and 127×127, each with
    /// finite input and with a NaN or infinite sample entering the window.
    #[test]
    fn slide_pass_is_bitwise_equal_to_retire_then_add() {
        let grids = [
            ScfParams::new(32, 7, 6).unwrap().with_stride(24),
            ScfParams::new(64, 15, 32).unwrap(),
            ScfParams::new(64, 31, 5).unwrap().with_stride(40),
            ScfParams::paper_256_with_blocks(8),
        ];
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for params in grids {
            let engine = ScfEngine::new(params.clone()).unwrap();
            let window = params.num_blocks;
            let slides = 4;
            let blocks = window + slides;
            let len = (blocks - 1) * params.block_stride + params.fft_len;
            for poison in [None, Some(f64::NAN), Some(f64::INFINITY)] {
                let mut signal = awgn(len, 1.0, 0x511D);
                if let Some(value) = poison {
                    // Inside the second incoming block only.
                    let at = (window + 1) * params.block_stride + params.fft_len / 2;
                    signal[at.min(len - 1)] = Cplx::new(0.0, value);
                }
                let mut spectra = Vec::new();
                let long = ScfParams {
                    num_blocks: blocks,
                    ..params.clone()
                };
                ScfEngine::new(long)
                    .unwrap()
                    .compute_spectra_into(&signal, &mut spectra)
                    .unwrap();
                let mut fused = engine.accumulator();
                engine.accumulate_window(&spectra[..window], &mut fused);
                let mut split = fused.clone();
                let (mut fused_profile, mut split_profile) = (vec![7.0; 2], Vec::new());
                for s in 0..slides {
                    let (outgoing, incoming) = (&spectra[s], &spectra[window + s]);
                    engine.slide_block(outgoing, incoming, &mut fused, window, &mut fused_profile);
                    engine.retire_block(outgoing, &mut split);
                    engine.accumulate_block(incoming, &mut split);
                    engine.cyclic_profile_from_accumulator(&split, window, &mut split_profile);
                    let case = format!(
                        "{}x{} poison {poison:?} slide {s}",
                        params.grid_size(),
                        params.grid_size()
                    );
                    assert_eq!(bits(&fused.acc_re), bits(&split.acc_re), "{case}");
                    assert_eq!(bits(&fused.acc_im), bits(&split.acc_im), "{case}");
                    assert_eq!(bits(&fused_profile), bits(&split_profile), "{case}");
                }
                assert_eq!(
                    poison.is_some(),
                    fused_profile.iter().any(|v| v.is_nan()),
                    "a poisoned block must reach the profile"
                );
            }
        }
    }

    /// The accumulator's `clone_from` copies into the existing planes.
    #[test]
    fn accumulator_clone_from_reuses_its_planes() {
        let engine = ScfEngine::new(ScfParams::new(32, 7, 2).unwrap()).unwrap();
        let mut source = engine.accumulator();
        engine.accumulate_block(&awgn(32, 1.0, 3), &mut source);
        let mut target = engine.accumulator();
        let planes = (target.acc_re.as_ptr(), target.acc_im.as_ptr());
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!((target.acc_re.as_ptr(), target.acc_im.as_ptr()), planes);
    }

    /// FNV-1a over the bits of an accumulator's re plane, then its im plane.
    fn accumulator_hash(acc: &ScfAccumulator) -> u64 {
        acc.acc_re
            .iter()
            .chain(&acc.acc_im)
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The retire pass is pinned bit-exactly: a block added onto a fresh
    /// accumulator and retired again leaves every cell exactly zero, and a
    /// fixed sequence of six adds and two retires reproduces recorded
    /// accumulator bits — on a 15×15 grid and on a 63×63 grid with
    /// overlapping blocks.
    #[test]
    fn retire_pass_is_pinned_bit_exactly() {
        let cases = [
            (ScfParams::new(32, 7, 6).unwrap(), 0xb492_cf03_e16d_9af4),
            (
                ScfParams::new(64, 31, 6).unwrap().with_stride(40),
                0x68f4_4549_ec70_410e,
            ),
        ];
        for (params, recorded) in cases {
            let engine = ScfEngine::new(params.clone()).unwrap();
            let signal = awgn(params.samples_needed(), 1.0, 0x5EED);
            let spectra = engine.compute_spectra(&signal).unwrap();
            let grid = params.grid_size();

            let mut acc = engine.accumulator();
            engine.accumulate_block(&spectra[0], &mut acc);
            engine.retire_block(&spectra[0], &mut acc);
            assert!(
                acc.acc_re
                    .iter()
                    .chain(&acc.acc_im)
                    .all(|v| v.to_bits() == 0),
                "{grid}x{grid}: add-then-retire left a non-zero cell"
            );

            let mut acc = engine.accumulator();
            for block in &spectra {
                engine.accumulate_block(block, &mut acc);
            }
            engine.retire_block(&spectra[0], &mut acc);
            engine.retire_block(&spectra[1], &mut acc);
            assert_eq!(accumulator_hash(&acc), recorded, "{grid}x{grid}");
        }
    }
}
