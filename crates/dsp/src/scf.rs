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
use crate::fft::{block_spectrum, block_spectrum_into, cached_plan, cached_window, FftPlan};
use crate::tier::{vector_tier, VectorTier};
use crate::window::Window;
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// Row runs executed per accumulation pass (always-live, like the cache
/// counters): `rows × blocks` per pass. Every row is one unwrapped run over
/// each staged block (the padded planes copy the wrap in), so this counts
/// the kernel's work in row-blocks.
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
        // Spectral indices are mapped through `centred_bin`'s i32 domain; a
        // wider FFT cannot be indexed.
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
    /// column holding a NaN cell profiles to [`f64::NAN`], whatever the
    /// cell's NaN sign or payload.
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
            *best = profile_root(*best);
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

/// The widest chunk any tier's row body walks (AVX-512: two registers per
/// plane). Every staged block row is padded by this much past the longest
/// run, so the last chunk of a row loads a full chunk in range.
const MAX_CHUNK: usize = 16;

/// A block spectrum and the sample its block starts at: staging applies
/// the block's eq.-2 phase rotation `X[v] *= exp(-j·2π·start·v/K)` on the
/// way in, with [`FftPlan::rotate_block_phase`]'s expression and table
/// entries, so a raw (`start = 0`) spectrum staged with its start reads
/// exactly the operands of the spectrum computed at that start. A start
/// that is a multiple of `K` stages the spectrum as it is.
pub type PhasedSpectrum<'a> = (&'a [Cplx], usize);

/// Block spectra staged as the DSCF kernel reads them: split re/im planes
/// holding the direct spectrum and the index-reversed copy
/// `rev[t] = block[(K−t) mod K]`, one padded row of
/// `width = K + M + 1 + MAX_CHUNK` values per block with the wrap copied
/// in (`plane[t] = plane[t mod K]`). A half-grid row reads both operands
/// forward from its start bin for `M + 1` offsets, so with the wrap copied
/// every row is one unwrapped run, and every chunk of it is in range.
///
/// Every batch and incremental pass stages into a per-thread set. A
/// caller that keeps an observation's spectra for several passes — the
/// `Observation` cache of `cfd-core` — owns a set instead: it is filled
/// straight by the FFT ([`ScfEngine::stage_spectra_into`], the paper's
/// reshuffle step), integrated any number of times
/// ([`ScfEngine::integrate_planes_into`]) and copied back out as spectra
/// only on request ([`OperandPlanes::spectra_into`]). The buffers are
/// only resized from one staging to the next, never freed.
#[derive(Debug, Default)]
pub struct OperandPlanes {
    len: usize,
    width: usize,
    blocks: usize,
    plus_re: Vec<f64>,
    plus_im: Vec<f64>,
    rev_re: Vec<f64>,
    rev_im: Vec<f64>,
}

impl OperandPlanes {
    /// Copies the staged spectra out, unrotated by staging: `out` gets one
    /// `K`-bin spectrum per block, each bin `Cplx::new(re, im)` of its
    /// direct row, so the bits are those the planes were staged from.
    /// `out` and its spectra keep their allocations.
    pub fn spectra_into(&self, out: &mut Vec<Vec<Cplx>>) {
        let k = self.len;
        out.truncate(self.blocks);
        out.resize_with(self.blocks, || Vec::with_capacity(k));
        for (spectrum, [re, im, ..]) in out.iter_mut().zip(self.block_rows()) {
            spectrum.clear();
            spectrum.extend(
                re[..k]
                    .iter()
                    .zip(&im[..k])
                    .map(|(&re, &im)| Cplx::new(re, im)),
            );
        }
    }

    /// Stages `blocks`, each re-phased by its start, for runs of `half`
    /// offsets of `plan`'s length `K`, through vector tier `tier` — the
    /// tier of the pass it feeds, where its copy loops vectorise wider.
    /// Every pass over caller spectra stages through here, so every path
    /// reads operands with exactly the same values.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `K`.
    fn stage<'a>(
        &mut self,
        tier: VectorTier,
        plan: &FftPlan,
        half: usize,
        blocks: impl ExactSizeIterator<Item = PhasedSpectrum<'a>>,
    ) {
        run_on_tier(tier, Staging(self, plan, half, blocks));
    }

    /// Sizes the planes for `n` blocks of `K`-bin spectra read in runs of
    /// `half` offsets. The planes are only resized, never cleared: each
    /// row is written in full (direct bins, reversed bins, then the wrap),
    /// so what an earlier, wider grid left behind is never read.
    fn shape(&mut self, k: usize, half: usize, n: usize) {
        let width = k + half + MAX_CHUNK;
        (self.len, self.width, self.blocks) = (k, width, n);
        for plane in [
            &mut self.plus_re,
            &mut self.plus_im,
            &mut self.rev_re,
            &mut self.rev_im,
        ] {
            plane.resize(n * width, 0.0);
        }
    }

    /// Block `b`'s four padded rows, writable: direct re/im, reversed
    /// re/im.
    #[inline(always)]
    fn rows_mut(&mut self, b: usize) -> [&mut [f64]; 4] {
        let row = b * self.width..(b + 1) * self.width;
        [
            &mut self.plus_re[row.clone()],
            &mut self.plus_im[row.clone()],
            &mut self.rev_re[row.clone()],
            &mut self.rev_im[row],
        ]
    }

    /// [`OperandPlanes::stage`]'s body, compiled once per tier.
    #[inline(always)]
    fn write_rows<'a>(
        &mut self,
        plan: &FftPlan,
        half: usize,
        blocks: impl ExactSizeIterator<Item = PhasedSpectrum<'a>>,
    ) {
        let k = plan.len();
        // `K` is a power of two (the FFT plan requires one).
        let mask = k - 1;
        self.shape(k, half, blocks.len());
        for (b, (block, start)) in blocks.enumerate() {
            assert!(
                block.len() >= k,
                "block spectrum shorter ({}) than fft_len ({k})",
                block.len()
            );
            let [pr, pi, rr, ri] = self.rows_mut(b);
            let direct = block[..k].iter().zip(&mut pr[..k]).zip(&mut pi[..k]);
            let step = start & mask;
            if step == 0 {
                // No multiply, as `rotate_block_phase` skips it: a product
                // with `1+0j` would rewrite `−0.0` signs.
                for ((x, re), im) in direct {
                    (*re, *im) = (x.re, x.im);
                }
            } else {
                let roots = plan.phase_roots();
                for (t, ((x, re), im)) in direct.enumerate() {
                    let mut x = *x;
                    x *= roots[(t * step) & mask];
                    (*re, *im) = (x.re, x.im);
                }
            }
            complete_rows([pr, pi, rr, ri], k);
        }
    }

    /// [`ScfEngine::stage_spectra_into`]'s body, compiled once per tier,
    /// over planes already shaped for one block per start: each block
    /// `signal[start..start + K]` is transformed straight into
    /// its direct rows ([`FftPlan::spectrum_to_planes`], through `tier`),
    /// re-phased there by its start with `rotate_block_phase`'s
    /// expression and table entries, then completed like a staged
    /// spectrum. So the rows hold the bits
    /// [`OperandPlanes::write_rows`] stages from
    /// [`block_spectrum_into`]'s spectra at the same starts.
    #[inline(always)]
    fn transform_rows(
        &mut self,
        tier: VectorTier,
        (plan, window): Transform<'_>,
        signal: &[Cplx],
        starts: impl Iterator<Item = usize>,
    ) {
        let k = plan.len();
        let mask = k - 1;
        for (b, start) in starts.enumerate() {
            let [pr, pi, rr, ri] = self.rows_mut(b);
            let (re, im) = (&mut pr[..k], &mut pi[..k]);
            plan.spectrum_to_planes(tier, &signal[start..start + k], window, re, im);
            let step = start & mask;
            if step != 0 {
                let roots = plan.phase_roots();
                for (t, (re, im)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
                    let mut x = Cplx::new(*re, *im);
                    x *= roots[(t * step) & mask];
                    (*re, *im) = (x.re, x.im);
                }
            }
            complete_rows([pr, pi, rr, ri], k);
        }
    }

    /// Each staged block's four padded rows: direct re/im, reversed re/im.
    /// Cloning the iterator is free, so a pass builds it once and walks a
    /// clone per chunk; every row it yields is exactly `width` long, which
    /// lets the compiler hoist a chunk's bounds checks out of the block
    /// chain.
    fn block_rows(&self) -> impl Iterator<Item = [&[f64]; 4]> + Clone + '_ {
        let w = self.width;
        let (xr, xi) = (self.plus_re.chunks_exact(w), self.plus_im.chunks_exact(w));
        let (yr, yi) = (self.rev_re.chunks_exact(w), self.rev_im.chunks_exact(w));
        (xr.zip(xi).zip(yr.zip(yi))).map(|((xr, xi), (yr, yi))| [xr, xi, yr, yi])
    }
}

/// Completes a block's rows once its `K` direct bins are in place: the
/// reversed copy `rev[t] = plus[(K − t) mod K]` (bin 0 stays, the rest
/// reverse), then the wrap `plane[t] = plane[t mod K]` of all four rows, a
/// period at a time (the padding past `K` may be longer than `K`).
#[inline(always)]
fn complete_rows([pr, pi, rr, ri]: [&mut [f64]; 4], k: usize) {
    for (plus, rev) in [(&*pr, &mut *rr), (&*pi, &mut *ri)] {
        rev[0] = plus[0];
        for (r, p) in rev[1..k].iter_mut().zip(plus[1..k].iter().rev()) {
            *r = *p;
        }
    }
    let width = pr.len();
    for plane in [pr, pi, rr, ri] {
        for at in (k..width).step_by(k) {
            plane.copy_within(..k.min(width - at), at);
        }
    }
}

/// Reusable per-thread staging of the accumulation kernel: the operand
/// planes of passes over caller spectra and the band buffers.
/// Thread-local because [`ScfEngine`] is shared across sweep workers.
#[derive(Default)]
struct ScfScratch {
    operands: OperandPlanes,
    band: BandScratch,
}

/// Sized only by passes that write a matrix: one row-band of accumulators
/// (re/im split like the operands) and one output row.
#[derive(Default)]
struct BandScratch {
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
    row_buf: Vec<Cplx>,
}

thread_local! {
    static SCF_SCRATCH: RefCell<ScfScratch> = RefCell::new(ScfScratch::default());
}

/// Pass kinds, a const parameter of the row body so each kind compiles
/// to its own branch-free chain. An `INIT_PASS` overwrites the
/// accumulators: its chain starts from the literal `0.0` instead of
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

/// `L` values of `plane` from `at`, as one fixed-size chunk.
#[inline(always)]
fn chunk<const L: usize>(plane: &[f64], at: usize) -> [f64; L] {
    let mut values = [0.0; L];
    values.copy_from_slice(&plane[at..at + L]);
    values
}

/// One `L`-wide chunk of a row run, chained over every staged block in
/// registers: `(re, im)` enter as the chunk's accumulators and leave with
/// every block's term applied in block order (a slide's first block, the
/// outgoing one, subtracted). The per-point expression is the reference's
/// product — four products, two single-rounded sums per block, chained
/// onto the accumulator in block order — so the summation tree is exactly
/// the one [`dscf_reference`] builds (`f64::mul_add` was measured here and
/// rejected: without FMA in the target feature set it lowers to a libm
/// call per point, 6× slower, and with FMA it would change the rounding).
#[inline(always)]
fn chain_chunk<'a, const KIND: u8, const L: usize>(
    (mut re, mut im): ([f64; L], [f64; L]),
    blocks: impl Iterator<Item = [&'a [f64]; 4]>,
    plus: usize,
    rev: usize,
) -> ([f64; L], [f64; L]) {
    for (b, [xr, xi, yr, yi]) in blocks.enumerate() {
        let (xr, xi) = (chunk::<L>(xr, plus), chunk::<L>(xi, plus));
        let (yr, yi) = (chunk::<L>(yr, rev), chunk::<L>(yi, rev));
        let subtract = KIND == SUB_PASS || (KIND == SLIDE_PASS && b == 0);
        for l in 0..L {
            let t_re = xr[l] * yr[l] + xi[l] * yi[l];
            let t_im = xi[l] * yr[l] - xr[l] * yi[l];
            if subtract {
                re[l] -= t_re;
                im[l] -= t_im;
            } else {
                re[l] += t_re;
                im[l] += t_im;
            }
        }
    }
    (re, im)
}

/// The one profile fold of every pass and tier: folds the first
/// `best.len()` finished `a ≥ 0` cells `re`/`im` (unnormalised, consecutive
/// offsets) into the running per-offset maxima `best` of `|S|²`. Each
/// square replicates the finalised cell (`(ar·s)² + (ai·s)²`, also its
/// conjugate mirror's bits) and the select is the matrix scan's predicate
/// ([`ScfMatrix::cyclic_profile_into`]): with rows ascending, a NaN sticks.
#[inline(always)]
fn fold_cells(best: &mut [f64], re: &[f64], im: &[f64], scale: f64) {
    for ((best, &re), &im) in best.iter_mut().zip(re).zip(im) {
        let (re, im) = (re * scale, im * scale);
        let magnitude = re * re + im * im;
        *best = if magnitude > *best || magnitude.is_nan() {
            magnitude
        } else {
            *best
        };
    }
}

/// The profile side of a pass: the `1/N` scale and the running `|S|²`
/// maxima of the `a ≥ 0` columns.
type ProfileFold<'a> = (f64, &'a mut [f64]);

/// The one row body behind every pass kind, caller and tier: row `f`'s
/// `half` cells `a ∈ 0..=M` over the run starting at direct bin
/// `plus = bin(f)` and reversed bin `rev = bin(−f)`, walked in `L`-wide
/// chunks with each chunk's accumulators held in registers across all
/// staged blocks, then one partial tail chunk (its spare lanes read the
/// padding and are dropped). Each finished chunk is stored into `ar`/`ai`
/// when `STORE` (only an `INIT_PASS` skips it, reading no accumulator) and
/// folded from the same registers into `fold`.
#[inline(always)]
fn row_body<'a, const KIND: u8, const STORE: bool, const L: usize>(
    half: usize,
    (ar, ai): (&mut [f64], &mut [f64]),
    blocks: impl Iterator<Item = [&'a [f64]; 4]> + Clone,
    (plus, rev): (usize, usize),
    mut fold: Option<&mut ProfileFold<'_>>,
) {
    let full = half - half % L;
    for o in (0..full).step_by(L) {
        let acc = if KIND == INIT_PASS {
            ([0.0; L], [0.0; L])
        } else {
            (chunk::<L>(ar, o), chunk::<L>(ai, o))
        };
        let (re, im) = chain_chunk::<KIND, L>(acc, blocks.clone(), plus + o, rev + o);
        if STORE {
            ar[o..o + L].copy_from_slice(&re);
            ai[o..o + L].copy_from_slice(&im);
        }
        if let Some((scale, best)) = &mut fold {
            fold_cells(&mut best[o..o + L], &re, &im, *scale);
        }
    }
    if full < half {
        let tail = half - full;
        let mut acc = ([0.0; L], [0.0; L]);
        if KIND != INIT_PASS {
            acc.0[..tail].copy_from_slice(&ar[full..]);
            acc.1[..tail].copy_from_slice(&ai[full..]);
        }
        let (re, im) = chain_chunk::<KIND, L>(acc, blocks, plus + full, rev + full);
        if STORE {
            ar[full..].copy_from_slice(&re[..tail]);
            ai[full..].copy_from_slice(&im[..tail]);
        }
        if let Some((scale, best)) = fold {
            fold_cells(&mut best[full..half], &re, &im, *scale);
        }
    }
}

/// A kernel body compiled once per vector tier, at its chunk width `L`.
trait TierKernel {
    fn run<const L: usize>(self);
}

/// Runs `kernel` through vector tier `tier`: 4-wide chunks generic, 8 on
/// AVX2 and 16 on AVX-512 (two registers per plane). Only `avx2` or
/// `avx512f` is enabled — never `fma` — and rustc emits plain IEEE
/// multiplies and adds with no fast-math flags, so the backend may not
/// contract them into FMAs: every tier gives the generic tier's bits.
fn run_on_tier(tier: VectorTier, kernel: impl TierKernel) {
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2(kernel: impl TierKernel) {
        kernel.run::<8>();
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn avx512(kernel: impl TierKernel) {
        kernel.run::<16>();
    }
    match tier {
        // SAFETY: `vector_tier` / `supported_tiers` only return a tier
        // whose feature was detected at run time.
        #[cfg(target_arch = "x86_64")]
        VectorTier::Avx512 => unsafe { avx512(kernel) },
        #[cfg(target_arch = "x86_64")]
        VectorTier::Avx2 => unsafe { avx2(kernel) },
        VectorTier::Generic => kernel.run::<4>(),
    }
}

/// One row pass of `KIND`: [`row_body`] over `rows` of a `(K, M)` grid.
struct RowsPass<'a, const KIND: u8, const STORE: bool> {
    grid: (usize, usize),
    rows: std::ops::Range<usize>,
    ops: &'a OperandPlanes,
    /// Laid out `(row − rows.start)·(M + 1) + a`; empty unless `STORE`.
    acc: (&'a mut [f64], &'a mut [f64]),
    fold: Option<ProfileFold<'a>>,
}

impl<const KIND: u8, const STORE: bool> TierKernel for RowsPass<'_, KIND, STORE> {
    #[inline(always)]
    fn run<const L: usize>(self) {
        let ((k, m), ops, (acc_re, acc_im), mut fold) = (self.grid, self.ops, self.acc, self.fold);
        debug_assert!(L <= MAX_CHUNK);
        let half = m + 1;
        let n = ops.blocks;
        debug_assert!(STORE || KIND == INIT_PASS, "only an init skips the store");
        debug_assert!(KIND != INIT_PASS || n >= 1, "init requires a staged block");
        debug_assert!(
            KIND != SLIDE_PASS || n == 2,
            "a slide stages exactly two blocks"
        );
        // `K` is a power of two (the FFT plan requires one), so `mod K` is
        // a mask.
        let mask = k - 1;
        let blocks = ops.block_rows();
        // A pass that stores nothing reads and writes no accumulator cell.
        let len = if STORE { half } else { 0 };
        for (i, row) in self.rows.enumerate() {
            // Row `f = row − M` starts at `bin(f)` and `bin(−f)`.
            let run = ((row + k - m) & mask, (m + k - row) & mask);
            let acc = (&mut acc_re[i * len..][..len], &mut acc_im[i * len..][..len]);
            row_body::<KIND, STORE, L>(half, acc, blocks.clone(), run, fold.as_mut());
        }
    }
}

/// [`OperandPlanes::stage`]'s arguments, as a tier kernel (the chunk
/// width `L` is unused).
struct Staging<'a, I>(&'a mut OperandPlanes, &'a FftPlan, usize, I);

impl<'b, I: ExactSizeIterator<Item = PhasedSpectrum<'b>>> TierKernel for Staging<'_, I> {
    #[inline(always)]
    fn run<const L: usize>(self) {
        let Staging(planes, plan, half, blocks) = self;
        planes.write_rows(plan, half, blocks);
    }
}

/// [`OperandPlanes::transform_rows`]'s arguments, as a tier kernel (the
/// chunk width `L` is unused).
struct Transforming<'a, I>(
    &'a mut OperandPlanes,
    VectorTier,
    Transform<'a>,
    &'a [Cplx],
    I,
);

/// A transform of the staging: the FFT plan and the window coefficients.
type Transform<'a> = (&'a FftPlan, &'a [f64]);

impl<I: Iterator<Item = usize>> TierKernel for Transforming<'_, I> {
    #[inline(always)]
    fn run<const L: usize>(self) {
        let Transforming(planes, tier, transform, signal, starts) = self;
        planes.transform_rows(tier, transform, signal, starts);
    }
}

/// The accumulator-only profile: every row, ascending, through
/// [`fold_cells`] (vectorised at the tier's width), nothing stored.
struct AccumulatorFold<'a>(&'a ScfAccumulator, ProfileFold<'a>);

impl TierKernel for AccumulatorFold<'_> {
    #[inline(always)]
    fn run<const L: usize>(self) {
        let AccumulatorFold(acc, (scale, best)) = self;
        let half = best.len();
        let (re, im) = (acc.acc_re.chunks_exact(half), acc.acc_im.chunks_exact(half));
        for (ar, ai) in re.zip(im) {
            fold_cells(best, ar, ai, scale);
        }
    }
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

/// One profile value from a column's largest `|S|²`: its square root, and
/// every NaN written as [`f64::NAN`]. An infinite sample makes its NaN
/// inside the DSCF, and the fold and the matrix scan reach it through
/// different negations and squares, so its sign bit would depend on the
/// path (and, for a commuted add, on codegen). Both profile builders end
/// here, so they agree bit for bit on every input.
#[inline(always)]
fn profile_root(best: f64) -> f64 {
    if best.is_nan() {
        f64::NAN
    } else {
        best.sqrt()
    }
}

/// Completes a profile whose `[m..]` half holds the folded `|S|²` maxima:
/// one [`profile_root`] per column, then the `a < 0` half mirrored.
fn finish_profile(profile: &mut [f64], m: usize) {
    let (neg, pos) = profile.split_at_mut(m);
    for best in pos.iter_mut() {
        *best = profile_root(*best);
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
///
/// [`ScfEngine::accumulator`] allocates zeroed planes.
/// [`ScfEngine::lazy_accumulator`] allocates none: its planes are sized by
/// the first pass that overwrites them all, an exact window accumulation
/// ([`ScfEngine::accumulate_window`]) or a `clone_from` of an allocated
/// accumulator, so a streaming sensor that never fills a window holds no
/// accumulator memory. Every other pass requires allocated planes.
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

    /// Allocates zeroed planes if there are none yet.
    fn allocate(&mut self) {
        if self.acc_re.is_empty() {
            *self = ScfAccumulator::new(self.max_offset);
        }
    }

    /// The maximum absolute grid index `M` this accumulator was sized for.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// Zeroes both planes (allocation kept).
    pub fn reset(&mut self) {
        self.acc_re.fill(0.0);
        self.acc_im.fill(0.0);
    }
}

/// The fast software DSCF kernel: one unit-stride run per row, every block
/// chained in registers, symmetry-halved, and allocation-reusing.
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
///   block of every observation — and, taken from the thread's geometry
///   caches ([`cached_plan`], [`cached_window`]), by every engine of the
///   same `fft_len` and window built on that thread and by every clone,
///   so building or cloning an engine copies no table
///   ([`ScfEngine::compute_spectra`] routes
///   through [`block_spectrum_with_plan`](crate::fft::block_spectrum_with_plan), the same code path
///   [`block_spectrum`] uses, so engine spectra are bit-identical to the
///   golden model's);
/// * one unwrapped run per half-grid row: along a row (fixed `f`, `a`
///   ascending) the direct operand walks `bin(f), bin(f)+1, …` and the
///   conjugate operand walks `bin(f−a)` — *descending*, but forward
///   through the index-reversed block `rev[t] = block[(K−t) mod K]`. Each
///   sequence is consecutive modulo `K`, and every block is staged once
///   into padded planes with the wrap copied in, so a row is a single
///   unit-stride run from `(bin(f), bin(−f))` — no gather tables, no
///   modular arithmetic, no per-point panic machinery. Staging runs at
///   copy speed (no clearing, plain vectorisable loops) and applies a raw
///   spectrum's eq.-2 phase on the way in ([`PhasedSpectrum`]);
/// * every block chained in registers: one row body walks the run in
///   fixed-width chunks (16 values on AVX-512, 8 on AVX2, 4 otherwise)
///   and keeps each chunk's accumulators in registers across all staged
///   blocks, so each accumulator is loaded and stored once per pass, like
///   the paper's systolic PEs, which keep `S_f^a` local for all `N`
///   blocks;
/// * the profile folded from those registers, so a profile-only pass
///   stores no accumulator, and a matrix pass finalises each band of
///   finished rows while it is still cache-hot;
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
    plan: Arc<FftPlan>,
    window_coeffs: Arc<[f64]>,
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
    /// Builds an engine for `params`, taking the FFT plan and the window
    /// coefficients from this thread's caches ([`cached_plan`],
    /// [`cached_window`]): the first engine of a geometry builds them,
    /// later ones share them.
    ///
    /// # Errors
    ///
    /// * [`DspError::InvalidParameter`] for invalid parameters,
    /// * [`DspError::NotPowerOfTwo`] if `fft_len` is not a power of two.
    pub fn new(params: ScfParams) -> Result<Self, DspError> {
        params.validate()?;
        let plan = cached_plan(params.fft_len)?;
        let window_coeffs = cached_window(params.window, params.fft_len);
        Ok(ScfEngine {
            params,
            plan,
            window_coeffs,
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
        self.integrate_spectra(vector_tier(), spectra, Some(out), None);
    }

    /// The cyclic-domain profile ([`ScfMatrix::cyclic_profile`] layout,
    /// offset `a` at index `a + M`) of the DSCF of `spectra`, without
    /// materialising the matrix or the accumulator: one init pass folds
    /// each finished chunk from its registers. `profile` is resized to the
    /// grid size.
    ///
    /// **Bit-identical** to [`ScfEngine::dscf_from_spectra_into`] followed
    /// by [`ScfMatrix::cyclic_profile_into`]: the same row kernel
    /// produces the same accumulator bits, the fold squares exactly the
    /// finalised cell values (`(ar·s)² + (ai·s)²`), rows arrive in the
    /// matrix scan's order under the same max predicate, and the `a < 0`
    /// columns are copies of the columns they conjugate.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `params.fft_len`.
    pub fn cyclic_profile_from_spectra_into(&self, spectra: &[Vec<Cplx>], profile: &mut Vec<f64>) {
        self.integrate_spectra(vector_tier(), spectra, None, Some(profile));
    }

    /// [`ScfEngine::dscf_from_spectra_into`] and
    /// [`ScfEngine::cyclic_profile_from_spectra_into`] from one pass that
    /// stores and folds each chunk — for callers that need both.
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
        self.integrate_spectra(vector_tier(), spectra, Some(out), Some(profile));
    }

    /// The batch integration behind the three spectra entry points, through
    /// vector tier `tier`: `spectra` staged into this thread's planes, then
    /// [`ScfEngine::integrate`].
    fn integrate_spectra(
        &self,
        tier: VectorTier,
        spectra: &[Vec<Cplx>],
        matrix: Option<&mut ScfMatrix>,
        profile: Option<&mut Vec<f64>>,
    ) {
        let _spans = self.accumulate_spans();
        SCF_SCRATCH.with(|scratch| {
            let ScfScratch { operands, band } = &mut *scratch.borrow_mut();
            let blocks = spectra.iter().map(|spectrum| (spectrum.as_slice(), 0));
            operands.stage(tier, &self.plan, self.params.max_offset + 1, blocks);
            self.integrate(tier, operands, band, matrix, profile);
        });
    }

    /// Computes the block spectra `X_{n,v}` of eq. 2 straight into
    /// `planes`, staged for this engine's grid: every block is transformed
    /// by the FFT's split-plane store into its direct rows, re-phased there
    /// by its start, then reversed and wrapped. There is no interleaved
    /// spectrum in between — the paper's reshuffle rides on the
    /// transform's last pass. The planes hold exactly the bits
    /// [`ScfEngine::compute_spectra_into`] computes
    /// ([`OperandPlanes::spectra_into`] copies them back out), so every
    /// pass over them ([`ScfEngine::integrate_planes_into`]) gives the
    /// bits of the matching `*_from_spectra_into` entry point.
    ///
    /// # Errors
    ///
    /// [`DspError::InsufficientSamples`] if the signal is too short.
    pub fn stage_spectra_into(
        &self,
        signal: &[Cplx],
        planes: &mut OperandPlanes,
    ) -> Result<(), DspError> {
        self.stage_spectra_on(vector_tier(), signal, planes)
    }

    /// [`ScfEngine::stage_spectra_into`] through vector tier `tier`.
    fn stage_spectra_on(
        &self,
        tier: VectorTier,
        signal: &[Cplx],
        planes: &mut OperandPlanes,
    ) -> Result<(), DspError> {
        if signal.len() < self.params.samples_needed() {
            return Err(DspError::InsufficientSamples {
                needed: self.params.samples_needed(),
                available: signal.len(),
            });
        }
        let _span = spectra_ns().start_timer();
        let (k, stride, n) = (
            self.params.fft_len,
            self.params.block_stride,
            self.params.num_blocks,
        );
        planes.shape(k, self.params.max_offset + 1, n);
        let transform = (&*self.plan, &self.window_coeffs[..]);
        let starts = (0..n).map(|n| n * stride);
        run_on_tier(tier, Transforming(planes, tier, transform, signal, starts));
        Ok(())
    }

    /// The batch integration of spectra staged by
    /// [`ScfEngine::stage_spectra_into`]: the DSCF `matrix` (as
    /// [`ScfEngine::dscf_from_spectra_into`] would write it), its cyclic
    /// `profile` (as [`ScfEngine::cyclic_profile_from_spectra_into`]), or
    /// both from one pass (as
    /// [`ScfEngine::dscf_and_profile_from_spectra_into`]) — bit for bit,
    /// because the planes hold the values those entry points stage. The
    /// planes are only read, so one staging serves any number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `planes` were staged for another grid.
    pub fn integrate_planes_into(
        &self,
        planes: &OperandPlanes,
        matrix: Option<&mut ScfMatrix>,
        profile: Option<&mut Vec<f64>>,
    ) {
        let k = self.params.fft_len;
        assert!(
            (planes.len, planes.width) == (k, k + self.params.max_offset + 1 + MAX_CHUNK),
            "operand planes staged for another grid than K = {k}, M = {}",
            self.params.max_offset
        );
        let _spans = self.accumulate_spans();
        let tier = vector_tier();
        SCF_SCRATCH.with(|scratch| {
            let band = &mut scratch.borrow_mut().band;
            self.integrate(tier, planes, band, matrix, profile);
        });
    }

    /// Starts the batch accumulation's timers: the aggregate
    /// `dsp.scf.accumulate_ns` and, with telemetry on, this grid's own
    /// `dsp.scf.accumulate_ns.g{P}` (resolved once per engine), so
    /// wideband grids are visible separately.
    fn accumulate_spans(&self) -> (cfd_telemetry::Timer, Option<cfd_telemetry::Timer>) {
        let aggregate = accumulate_ns().start_timer();
        let grid = cfd_telemetry::enabled().then(|| {
            let p = self.params.grid_size();
            self.grid_accumulate_ns
                .get_or_init(|| cfd_telemetry::histogram(&format!("dsp.scf.accumulate_ns.g{p}")))
                .start_timer()
        });
        (aggregate, grid)
    }

    /// The batch integration over staged `ops`, through vector tier `tier`:
    /// one init pass finalising `matrix` and/or folding `profile`, with
    /// `band` as the matrix's row-band scratch.
    fn integrate(
        &self,
        tier: VectorTier,
        ops: &OperandPlanes,
        band: &mut BandScratch,
        mut matrix: Option<&mut ScfMatrix>,
        mut profile: Option<&mut Vec<f64>>,
    ) {
        let m = self.params.max_offset;
        let p = self.params.grid_size();
        let half = m + 1;
        if let Some(out) = matrix.as_deref_mut() {
            if out.max_offset != m {
                *out = ScfMatrix::zeros(m);
            }
            if ops.blocks == 0 {
                // The band finaliser writes every cell, so zeroing is only
                // needed when there is nothing to accumulate.
                out.values.fill(Cplx::ZERO);
            }
        }
        if let Some(profile) = profile.as_deref_mut() {
            profile.clear();
            profile.resize(p, 0.0);
        }
        if ops.blocks == 0 {
            return;
        }
        let scale = 1.0 / ops.blocks as f64;
        let mut best = profile.as_deref_mut().map(|profile| &mut profile[m..]);
        if let Some(out) = matrix {
            // Row bands: the accumulator slab covers only one band of rows
            // (~64 KiB across the re + im planes), is written once by the
            // row pass and finalised while still cache-hot, before the
            // next band reuses it — so the accumulator traffic never
            // round-trips through memory at any grid size.
            let band_rows = (4096 / half).clamp(4, 512).min(p);
            for plane in [&mut band.acc_re, &mut band.acc_im] {
                plane.clear();
                plane.resize(band_rows * half, 0.0);
            }
            band.row_buf.clear();
            band.row_buf.resize(p, Cplx::ZERO);
            for band_start in (0..p).step_by(band_rows) {
                let rows = band_start..(band_start + band_rows).min(p);
                let len = rows.len() * half;
                let (acc_re, acc_im) = (&mut band.acc_re[..len], &mut band.acc_im[..len]);
                // No slab clearing: the init pass writes every cell.
                let acc = (&mut *acc_re, &mut *acc_im);
                let fold = best.as_deref_mut().map(|best| (scale, best));
                self.rows_pass::<INIT_PASS, true>(tier, rows.clone(), ops, acc, fold);
                // Normalise and mirror the finished band: `out = acc/N` for
                // `a ≥ 0`, conjugate for `a < 0`. Each row is assembled in
                // an L1-hot staging buffer, then streamed into the (cold,
                // write-once) output with wide non-temporal copies.
                let cells = acc_re.chunks_exact(half).zip(acc_im.chunks_exact(half));
                for (row, (ar, ai)) in rows.zip(cells) {
                    finalize_row_scalar(&mut band.row_buf, ar, ai, m, scale);
                    copy_row_out(&mut out.values[row * p..(row + 1) * p], &band.row_buf);
                }
            }
            finalize_fence();
        } else {
            // Profile only: every chunk folds straight from registers and
            // nothing is stored, so all rows are one pass.
            let fold = best.map(|best| (scale, best));
            self.rows_pass::<INIT_PASS, false>(tier, 0..p, ops, (&mut [], &mut []), fold);
        }
        if let Some(profile) = profile {
            finish_profile(profile, m);
        }
    }

    /// The one DSCF kernel behind every batch and incremental entry point:
    /// runs each row of `rows` as one unwrapped run over all blocks staged
    /// in `ops` (blocks chained innermost in registers) through vector tier
    /// `tier`, storing into `acc` when `STORE` and folding into `fold`. The
    /// staged values are exact copies (of the rotated bins, for a phased
    /// block) and the per-accumulator order is
    /// blocks-ascending with the reference's product expression, so the
    /// accumulation is bit-identical to [`dscf_reference`]'s on every tier.
    /// Counts its runs in `dsp.scf.segment_runs`.
    fn rows_pass<const KIND: u8, const STORE: bool>(
        &self,
        tier: VectorTier,
        rows: std::ops::Range<usize>,
        ops: &OperandPlanes,
        acc: (&mut [f64], &mut [f64]),
        fold: Option<ProfileFold<'_>>,
    ) {
        let grid = (self.params.fft_len, self.params.max_offset);
        segment_runs().add((rows.len() * ops.blocks) as u64);
        let pass = RowsPass::<KIND, STORE> {
            grid,
            rows,
            ops,
            acc,
            fold,
        };
        run_on_tier(tier, pass);
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
    /// passes `start = 0` (a **raw**, unrotated spectrum) and hands the
    /// DSCF passes each use's start with it ([`PhasedSpectrum`]), which
    /// re-phase it while staging.
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
    /// frames compose bit-exactly with the re-phasing of a staged
    /// [`PhasedSpectrum`] (and the `a = 0` ridge, whose phase is always 1,
    /// is left untouched).
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

    /// An [`ScfAccumulator`] matching this engine's grid whose planes are
    /// not allocated yet: [`ScfEngine::accumulate_window`] (or a
    /// `clone_from` of an allocated accumulator) sizes them on first use.
    pub fn lazy_accumulator(&self) -> ScfAccumulator {
        ScfAccumulator {
            max_offset: self.params.max_offset,
            acc_re: Vec::new(),
            acc_im: Vec::new(),
        }
    }

    /// Adds one block spectrum's contribution
    /// `X_{f+a}·conj(X_{f−a})` to `acc` — O(grid), independent of the
    /// window length: the one-block case of
    /// [`ScfEngine::accumulate_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if `block` is shorter than `fft_len` or if `acc` was built
    /// for a different grid.
    pub fn accumulate_block(&self, block: &[Cplx], acc: &mut ScfAccumulator) {
        self.accumulate_blocks(&[block], acc);
    }

    /// Adds every block's contribution to `acc` in one pass over the grid,
    /// each cell loaded and stored once with the blocks chained onto it in
    /// registers.
    ///
    /// **Bit-identical** to adding the blocks one at a time in order, and
    /// (onto a fresh accumulator, after
    /// [`ScfEngine::finalize_accumulator`]) to the batch
    /// [`ScfEngine::dscf_from_spectra_into`]: per accumulator cell the
    /// blocks arrive in the same order with the same product expression.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `fft_len` or if `acc` was built
    /// for a different grid.
    pub fn accumulate_blocks<B: AsRef<[Cplx]>>(&self, blocks: &[B], acc: &mut ScfAccumulator) {
        let blocks = blocks.iter().map(|block| (block.as_ref(), 0));
        self.accumulator_pass::<ADD_PASS>(vector_tier(), blocks, acc, None);
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
        self.accumulator_pass::<SUB_PASS>(vector_tier(), std::iter::once((block, 0)), acc, None);
    }

    /// Slides a window accumulation by one block and folds its cyclic
    /// profile in the same walk: retires `outgoing`'s contribution from
    /// `acc`, adds `incoming`'s, and writes into `profile` (resized to the
    /// grid size) the profile `acc` finalises to over `num_blocks` blocks —
    /// the incremental hop of a streaming sensor in one pass over the
    /// half-grid instead of three. Each spectrum is re-phased by its start
    /// while it is staged ([`PhasedSpectrum`]), so a sensor passes its raw
    /// ring spectra and copies none.
    ///
    /// **Bit-identical** to [`ScfEngine::retire_block`] of the re-phased
    /// outgoing spectrum, then [`ScfEngine::accumulate_block`] of the
    /// re-phased incoming one, then
    /// [`ScfEngine::cyclic_profile_from_accumulator`]: both spectra are
    /// staged once, every cell becomes `(acc − t_out) + t_in` in registers
    /// (the two passes' operation order, with their product expression),
    /// and each finished chunk is stored and folded from those registers,
    /// in the scan's row order under the scan's predicate.
    ///
    /// # Panics
    ///
    /// Panics if either block is shorter than `fft_len`, if `num_blocks`
    /// is zero or if `acc` was built for a different grid.
    pub fn slide_block(
        &self,
        outgoing: PhasedSpectrum<'_>,
        incoming: PhasedSpectrum<'_>,
        acc: &mut ScfAccumulator,
        num_blocks: usize,
        profile: &mut Vec<f64>,
    ) {
        let slide = [outgoing, incoming].into_iter();
        self.fold_profile(profile, num_blocks, |fold| {
            self.accumulator_pass::<SLIDE_PASS>(vector_tier(), slide, acc, Some(fold));
        });
    }

    /// Stages `blocks` and runs one row pass of `KIND` through `tier` over
    /// the whole grid of `acc`, folding into `fold` from its registers.
    fn accumulator_pass<'a, const KIND: u8>(
        &self,
        tier: VectorTier,
        blocks: impl ExactSizeIterator<Item = PhasedSpectrum<'a>>,
        acc: &mut ScfAccumulator,
        fold: Option<ProfileFold<'_>>,
    ) {
        self.check_grid(acc);
        SCF_SCRATCH.with(|scratch| {
            let operands = &mut scratch.borrow_mut().operands;
            operands.stage(tier, &self.plan, self.params.max_offset + 1, blocks);
            let rows = 0..self.params.grid_size();
            let planes = (&mut acc.acc_re[..], &mut acc.acc_im[..]);
            self.rows_pass::<KIND, true>(tier, rows, operands, planes, fold);
        });
    }

    /// Resizes `profile` to the grid, lets `pass` fold its zeroed `a ≥ 0`
    /// half over `num_blocks` blocks, then completes it ([`finish_profile`]).
    fn fold_profile(
        &self,
        profile: &mut Vec<f64>,
        num_blocks: usize,
        pass: impl FnOnce(ProfileFold<'_>),
    ) {
        assert!(num_blocks > 0, "cannot normalise over zero blocks");
        let m = self.params.max_offset;
        profile.clear();
        profile.resize(self.params.grid_size(), 0.0);
        pass((1.0 / num_blocks as f64, &mut profile[m..]));
        finish_profile(profile, m);
    }

    fn check_grid(&self, acc: &ScfAccumulator) {
        assert_eq!(
            acc.max_offset, self.params.max_offset,
            "accumulator grid (±{}) does not match the engine grid (±{})",
            acc.max_offset, self.params.max_offset
        );
        assert!(
            !acc.acc_re.is_empty(),
            "accumulator planes are not allocated: open the window with accumulate_window first"
        );
    }

    /// Overwrites `acc` with the full accumulation over `blocks` in one
    /// pass, every block chained onto each cell in registers — the
    /// exact-refresh pass of a streaming
    /// sensor, and **bit-identical** (after
    /// [`ScfEngine::finalize_accumulator`] with `num_blocks =
    /// blocks.len()`) to the batch [`ScfEngine::dscf_from_spectra_into`]
    /// over the same spectra. An empty `blocks` resets the accumulator.
    /// `blocks` may be slices or owned spectra (`&[Vec<Cplx>]`). It
    /// allocates the planes of a [lazy](ScfEngine::lazy_accumulator)
    /// accumulator.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `fft_len` or if `acc` was built
    /// for a different grid.
    pub fn accumulate_window<B: AsRef<[Cplx]>>(&self, blocks: &[B], acc: &mut ScfAccumulator) {
        self.accumulate_phased_window(blocks.iter().map(|block| (block.as_ref(), 0)), acc);
    }

    /// [`ScfEngine::accumulate_window`] over spectra re-phased by their
    /// starts while they are staged ([`PhasedSpectrum`]): a streaming
    /// sensor's exact refresh, which passes its raw ring spectra in window
    /// order with window-relative starts, copies no spectrum and gets the
    /// batch engine's accumulator bits for that window.
    ///
    /// # Panics
    ///
    /// Panics if any block is shorter than `fft_len` or if `acc` was built
    /// for a different grid.
    pub fn accumulate_phased_window<'a>(
        &self,
        blocks: impl ExactSizeIterator<Item = PhasedSpectrum<'a>>,
        acc: &mut ScfAccumulator,
    ) {
        acc.allocate();
        if blocks.len() == 0 {
            self.check_grid(acc);
            acc.reset();
        } else {
            self.accumulator_pass::<INIT_PASS>(vector_tier(), blocks, acc, None);
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
            let scratch = &mut scratch.borrow_mut().band;
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
    /// folded straight off the `a ≥ 0` accumulator half — no
    /// [`ScfMatrix`] is materialised. `out` is resized to the grid size;
    /// element `[a + M]` is the profile at offset `a`.
    ///
    /// **Bit-identical** to
    /// `finalize_accumulator(acc, num_blocks, &mut scf)` followed by
    /// [`ScfMatrix::cyclic_profile`]: the row kernel's fold, per tier, over
    /// cells loaded once and never stored. Each scanned square replicates
    /// the finalize arithmetic exactly (`(ar·s)² + (ai·s)²`; the mirror
    /// half's negated imaginary part squares to the same bits), the row
    /// order and max predicate match the matrix scan, and the mirror
    /// columns are copies of the columns they conjugate. This is the
    /// streaming decision path at an exact refresh: O(grid/2) multiplies
    /// instead of a full finalize pass plus a full-grid scan.
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
        self.check_grid(acc);
        self.fold_profile(out, num_blocks, |fold| {
            run_on_tier(vector_tier(), AccumulatorFold(acc, fold));
        });
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

    /// Every incremental accumulation order — block-at-a-time adds,
    /// multi-block adds and the fused window re-sum — finalises to the
    /// exact bits of the batch kernel, including with overlapping blocks.
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

        // Several blocks per add pass chain the same per-cell sums.
        let mut in_two_passes = engine.accumulator();
        engine.accumulate_blocks(&spectra[..2], &mut in_two_passes);
        engine.accumulate_blocks(&spectra[2..], &mut in_two_passes);
        assert_eq!(in_two_passes, acc);

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

    /// The fused batch profile folds each chunk from registers instead of
    /// scanning the finalised matrix, and must not move a bit doing so
    /// (both write a NaN column as the one canonical `f64::NAN`; the
    /// one-pass profile equals the fused one to the bit) — on finite input
    /// and with a NaN or infinite sample poisoning the spectra — on the
    /// paper grid, mid-size and wideband grids, and an overlapping-block
    /// geometry.
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
                assert!(same_bits(&profile, &fused), "{case}");
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
                    let (out, inc) = ((outgoing.as_slice(), 0), (incoming.as_slice(), 0));
                    engine.slide_block(out, inc, &mut fused, window, &mut fused_profile);
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

    /// `acc`'s bits, re plane then im plane.
    fn acc_bits(acc: &ScfAccumulator) -> Vec<u64> {
        acc.acc_re
            .iter()
            .chain(&acc.acc_im)
            .map(|v| v.to_bits())
            .collect()
    }

    /// The bits of `values` with every NaN, whatever its sign or payload,
    /// written as `f64::NAN`.
    fn nan_blind(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v };
        values.into_iter().map(|v| canonical(v).to_bits()).collect()
    }

    /// A copy of `start` after one `KIND` pass over `staged` through `tier`.
    fn tier_pass<const KIND: u8>(
        engine: &ScfEngine,
        tier: VectorTier,
        start: &ScfAccumulator,
        staged: &[&[Cplx]],
    ) -> ScfAccumulator {
        let mut acc = start.clone();
        let blocks = staged.iter().map(|&block| (block, 0));
        engine.accumulator_pass::<KIND>(tier, blocks, &mut acc, None);
        acc
    }

    /// `start` with the eq.-3 term `X_{f+a}·conj(X_{f−a})` of each of
    /// `blocks` applied to every `a ≥ 0` cell in block order, written with
    /// [`dscf_from_spectra`]'s `Cplx` expression; block `j` is subtracted
    /// when `subtract(j)`.
    fn eq3_applied(
        start: &ScfAccumulator,
        blocks: &[&[Cplx]],
        subtract: impl Fn(usize) -> bool,
    ) -> ScfAccumulator {
        let mut acc = start.clone();
        let (m, k) = (start.max_offset as i32, blocks[0].len());
        let half = start.max_offset + 1;
        for f in -m..=m {
            for a in 0..=m {
                let cell = (f + m) as usize * half + a as usize;
                let mut v = Cplx::new(acc.acc_re[cell], acc.acc_im[cell]);
                for (j, block) in blocks.iter().enumerate() {
                    let t = block[centred_bin(f + a, k)] * block[centred_bin(f - a, k)].conj();
                    v = if subtract(j) { v - t } else { v + t };
                }
                (acc.acc_re[cell], acc.acc_im[cell]) = (v.re, v.im);
            }
        }
        acc
    }

    /// Every vector tier the host runs computes the generic tier's bits
    /// for every pass kind — init, add, subtract and slide — and all of
    /// them the eq.-3 bits: on 1, 2, 5 and 17 staged blocks, on grids whose
    /// `M + 1` leaves a tail chunk for every chunk width (including a
    /// row shorter than one chunk), on the wrap-heavy `M = K/2 − 1`, and
    /// with a NaN and an Inf in the last bins of one block (bins the
    /// padded planes copy past the wrap). Tiers are compared strictly
    /// bitwise; against eq. 3, whose `conj` negates a NaN's sign, a NaN
    /// cell must be NaN and every other cell bit-equal.
    #[test]
    fn dscf_tiers_are_bitwise_equal() {
        use crate::tier::supported_tiers;
        let grids = [(16, 2), (16, 7), (32, 12), (64, 20), (64, 31), (256, 63)];
        for (k, m) in grids {
            let engine = ScfEngine::new(ScfParams::new(k, m, 1).unwrap()).unwrap();
            for n in [1usize, 2, 5, 17] {
                for poison in [false, true] {
                    let mut spectra: Vec<Vec<Cplx>> = (0..=n)
                        .map(|b| awgn(k, 1.0, (1000 * k + b) as u64))
                        .collect();
                    if poison {
                        spectra[n / 2][k - 1] = Cplx::new(f64::NAN, 0.5);
                        spectra[n / 2][k - 2] = Cplx::new(0.25, f64::INFINITY);
                    }
                    let blocks: Vec<&[Cplx]> = spectra.iter().map(Vec::as_slice).collect();
                    let (window, slide) = (&blocks[..n], [blocks[0], blocks[n]]);
                    // Init over the window, add it again, subtract it, and
                    // slide the init by one block.
                    let run = |tier: VectorTier| {
                        let init =
                            tier_pass::<INIT_PASS>(&engine, tier, &engine.accumulator(), window);
                        let add = tier_pass::<ADD_PASS>(&engine, tier, &init, window);
                        let sub = tier_pass::<SUB_PASS>(&engine, tier, &add, window);
                        let slid = tier_pass::<SLIDE_PASS>(&engine, tier, &init, &slide);
                        [init, add, sub, slid]
                    };
                    let case = format!("K {k}, M {m}, {n} blocks, poison {poison}");
                    let generic = run(VectorTier::Generic);
                    for tier in supported_tiers() {
                        for (pass, want) in run(tier).iter().zip(&generic) {
                            assert_eq!(acc_bits(pass), acc_bits(want), "{case}, {tier:?}");
                        }
                    }

                    let [init, add, sub, slid] = &generic;
                    assert_eq!(poison, init.acc_re.iter().any(|v| v.is_nan()), "{case}");
                    let mut matrix = ScfMatrix::zeros(m);
                    engine.finalize_accumulator(init, n, &mut matrix);
                    let owned: Vec<Vec<Cplx>> = window.iter().map(|b| b.to_vec()).collect();
                    let reference = dscf_from_spectra(&owned, &ScfParams::new(k, m, n).unwrap());
                    let cells =
                        |scf: &ScfMatrix| nan_blind(scf.iter().flat_map(|(_, _, c)| [c.re, c.im]));
                    assert_eq!(cells(&matrix), cells(&reference), "{case}, init");
                    let expected = [
                        (add, eq3_applied(init, window, |_| false)),
                        (sub, eq3_applied(add, window, |_| true)),
                        (slid, eq3_applied(init, &slide, |j| j == 0)),
                    ];
                    let planes = |acc: &ScfAccumulator| {
                        nan_blind(acc.acc_re.iter().chain(&acc.acc_im).copied())
                    };
                    for (pass, want) in expected {
                        assert_eq!(planes(pass), planes(&want), "{case}");
                    }
                }
            }
        }
    }

    /// The FFT's split-plane store stages the DSCF operands directly: on
    /// every tier, for K = 8, 16, 64, 128 (the radix-2 tail) and 256,
    /// Hann and rectangular windows, and block starts 0, K, 2K (stride
    /// `K`) or rotated ones (stride `K + 3`), the planes an engine stages
    /// from the samples equal [`block_spectrum_into`]'s spectra at the
    /// same starts, staged, bit for bit — padding included, through one
    /// pair of plane sets reused dirty from case to case. Copying the
    /// spectra back out gives the spectra's bits.
    #[test]
    fn fft_plane_store_equals_spectrum_then_stage() {
        use crate::tier::supported_tiers;
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cplx_bits = |spectra: &[Vec<Cplx>]| -> Vec<(u64, u64)> {
            spectra
                .iter()
                .flatten()
                .map(|x| (x.re.to_bits(), x.im.to_bits()))
                .collect()
        };
        for tier in supported_tiers() {
            let (mut planes, mut staged) = (OperandPlanes::default(), OperandPlanes::default());
            let mut copied = Vec::new();
            for k in [256, 8, 16, 64, 128] {
                for window in [Window::Hann, Window::Rectangular] {
                    for stride in [k, k + 3] {
                        let params = ScfParams::new(k, k / 4 - 1, 3)
                            .unwrap()
                            .with_window(window)
                            .with_stride(stride);
                        let engine = ScfEngine::new(params.clone()).unwrap();
                        let signal = awgn(params.samples_needed(), 1.0, (k + stride) as u64);
                        engine.stage_spectra_on(tier, &signal, &mut planes).unwrap();
                        let spectra: Vec<Vec<Cplx>> = (0..3)
                            .map(|n| {
                                let mut spectrum = Vec::new();
                                let (plan, coeffs) = (&engine.plan, &engine.window_coeffs);
                                block_spectrum_into(
                                    &signal,
                                    n * stride,
                                    plan,
                                    coeffs,
                                    &mut spectrum,
                                )
                                .unwrap();
                                spectrum
                            })
                            .collect();
                        let blocks = spectra.iter().map(|spectrum| (spectrum.as_slice(), 0));
                        staged.stage(tier, &engine.plan, params.max_offset + 1, blocks);
                        let case = format!("{tier:?} K {k} {window:?} stride {stride}");
                        let shape = |p: &OperandPlanes| (p.len, p.width, p.blocks);
                        assert_eq!(shape(&planes), shape(&staged), "{case}");
                        for (got, want) in [
                            (&planes.plus_re, &staged.plus_re),
                            (&planes.plus_im, &staged.plus_im),
                            (&planes.rev_re, &staged.rev_re),
                            (&planes.rev_im, &staged.rev_im),
                        ] {
                            assert_eq!(bits(got), bits(want), "{case}");
                        }
                        planes.spectra_into(&mut copied);
                        assert_eq!(cplx_bits(&copied), cplx_bits(&spectra), "{case}");
                    }
                }
            }
        }
    }

    /// Staging only resizes its thread's operand planes and never clears
    /// them, so every value a pass reads must be written by the staging
    /// that feeds it. On one thread, per tier, the planes are staged for a
    /// wide grid, then for grids with shorter rows — two of them with a
    /// wrap longer than one period `K` — then for the wide grid again;
    /// after each, every pass kind (init, add, subtract, slide, the
    /// profile-only init and the matrix + profile init) gives the bits of
    /// the same passes on a fresh thread, the accumulators the bits of
    /// eq. 3, and every staged value, the padding that only dropped tail
    /// lanes read included, holds its bin.
    #[test]
    fn dirty_operand_planes_leave_no_stale_value() {
        use crate::tier::supported_tiers;
        let grids = [
            (256, 63, 8),
            (64, 15, 3),
            (16, 7, 5),
            (8, 3, 4),
            (256, 63, 8),
        ];
        let passes = |engine: &ScfEngine, tier: VectorTier, spectra: &[Vec<Cplx>]| {
            let blocks: Vec<&[Cplx]> = spectra.iter().map(Vec::as_slice).collect();
            let n = blocks.len() - 1;
            let (window, slide) = (&blocks[..n], [blocks[0], blocks[n]]);
            let init = tier_pass::<INIT_PASS>(engine, tier, &engine.accumulator(), window);
            let add = tier_pass::<ADD_PASS>(engine, tier, &init, window);
            let sub = tier_pass::<SUB_PASS>(engine, tier, &add, window);
            let slid = tier_pass::<SLIDE_PASS>(engine, tier, &init, &slide);
            let (mut profile_only, mut profile) = (Vec::new(), Vec::new());
            let mut matrix = ScfMatrix::zeros(engine.params.max_offset);
            engine.integrate_spectra(tier, &spectra[..n], None, Some(&mut profile_only));
            engine.integrate_spectra(tier, &spectra[..n], Some(&mut matrix), Some(&mut profile));
            let cells = matrix.iter().flat_map(|(_, _, c)| [c.re, c.im]);
            let bits = profile_only.iter().chain(&profile).copied().chain(cells);
            let profiles: Vec<u64> = bits.map(f64::to_bits).collect();
            ([init, add, sub, slid], profiles)
        };
        for tier in supported_tiers() {
            for (k, m, n) in grids {
                let engine = ScfEngine::new(ScfParams::new(k, m, 1).unwrap()).unwrap();
                let spectra: Vec<Vec<Cplx>> = (0..=n)
                    .map(|b| awgn(k, 1.0, (7 * k + m + b) as u64))
                    .collect();
                let case = format!("K {k}, M {m}, {n} blocks, {tier:?}");
                let dirty = passes(&engine, tier, &spectra);
                // The last staging (the window, start 0) fills every value
                // of every row, padding included, with its bin `t mod K`.
                SCF_SCRATCH.with(|scratch| {
                    let ops = &scratch.borrow().operands;
                    assert_eq!(
                        (ops.blocks, ops.width),
                        (n, k + m + 1 + MAX_CHUNK),
                        "{case}"
                    );
                    for (block, [xr, xi, yr, yi]) in spectra.iter().zip(ops.block_rows()) {
                        for t in 0..ops.width {
                            let (x, y) = (block[t % k], block[(k - t % k) % k]);
                            let want = [x.re, x.im, y.re, y.im].map(f64::to_bits);
                            let got = [xr[t], xi[t], yr[t], yi[t]].map(f64::to_bits);
                            assert_eq!(got, want, "{case}: staged value {t}");
                        }
                    }
                });
                let fresh = std::thread::scope(|scope| {
                    scope
                        .spawn(|| passes(&engine, tier, &spectra))
                        .join()
                        .unwrap()
                });
                for (got, want) in dirty.0.iter().zip(&fresh.0) {
                    assert_eq!(acc_bits(got), acc_bits(want), "{case} vs a fresh thread");
                }
                assert_eq!(
                    dirty.1, fresh.1,
                    "{case}: profiles and matrix vs a fresh thread"
                );

                let [init, add, sub, slid] = &dirty.0;
                let window: Vec<&[Cplx]> = spectra[..n].iter().map(Vec::as_slice).collect();
                let slide = [spectra[0].as_slice(), spectra[n].as_slice()];
                let mut matrix = ScfMatrix::zeros(m);
                engine.finalize_accumulator(init, n, &mut matrix);
                let reference = dscf_from_spectra(&spectra[..n], &ScfParams::new(k, m, n).unwrap());
                assert_eq!(matrix, reference, "{case}: init vs eq. 3");
                let expected = [
                    (add, eq3_applied(init, &window, |_| false)),
                    (sub, eq3_applied(add, &window, |_| true)),
                    (slid, eq3_applied(init, &slide, |j| j == 0)),
                ];
                for (pass, want) in expected {
                    assert_eq!(acc_bits(pass), acc_bits(&want), "{case} vs eq. 3");
                }
            }
        }
    }

    /// Staging a raw spectrum with start `s` reads exactly the operands of
    /// the spectrum rotated by [`FftPlan::rotate_block_phase`] and staged
    /// with start 0: the planes are bit-equal, and so are the slide and
    /// the phased window pass against the same passes over rotated copies.
    /// Covered: `s = 0` and `s = K` on `−0.0` bins (no multiply, so the
    /// signs survive), odd starts below and above `K`, and NaN / ±Inf bins.
    #[test]
    fn phased_staging_is_bitwise_equal_to_rotate_then_stage() {
        use crate::tier::supported_tiers;
        let (k, m) = (64, 15);
        let engine = ScfEngine::new(ScfParams::new(k, m, 1).unwrap()).unwrap();
        let plane_bits = |ops: &OperandPlanes| -> Vec<u64> {
            let planes = [&ops.plus_re, &ops.plus_im, &ops.rev_re, &ops.rev_im];
            planes
                .iter()
                .flat_map(|p| p.iter().map(|v| v.to_bits()))
                .collect()
        };
        let negative_zero = (-0.0f64).to_bits();
        let mut raw: Vec<Vec<Cplx>> = (0..3).map(|b| awgn(k, 1.0, 40 + b)).collect();
        raw[0][5..9].fill(Cplx::new(-0.0, -0.0));
        raw[1][3] = Cplx::new(f64::NAN, 0.5);
        raw[1][4] = Cplx::new(f64::INFINITY, -1.0);
        raw[1][k - 1] = Cplx::new(0.25, f64::NEG_INFINITY);
        for s in [0, k, 1, 7, k + 5, 3 * k - 1] {
            let rotated: Vec<Vec<Cplx>> = raw
                .iter()
                .map(|block| {
                    let mut block = block.clone();
                    engine.plan.rotate_block_phase(s, &mut block);
                    block
                })
                .collect();
            for tier in supported_tiers() {
                let (mut phased, mut copied) = (OperandPlanes::default(), OperandPlanes::default());
                let (plan, half) = (&engine.plan, m + 1);
                phased.stage(tier, plan, half, raw.iter().map(|b| (b.as_slice(), s)));
                copied.stage(tier, plan, half, rotated.iter().map(|b| (b.as_slice(), 0)));
                assert_eq!(
                    plane_bits(&phased),
                    plane_bits(&copied),
                    "start {s}, {tier:?}"
                );
                if s % k == 0 {
                    // A multiply by `1+0j` would make these real parts `+0.0`.
                    let signs = phased.plus_re.iter().map(|v| v.to_bits());
                    let count = signs.filter(|&v| v == negative_zero).count();
                    assert!(count >= 4, "start {s}, {tier:?}");
                }
            }

            let (mut from_raw, mut from_copies) = (engine.accumulator(), engine.accumulator());
            let raw_window = raw.iter().map(|b| (b.as_slice(), s));
            engine.accumulate_phased_window(raw_window, &mut from_raw);
            engine.accumulate_window(&rotated, &mut from_copies);
            assert_eq!(
                acc_bits(&from_raw),
                acc_bits(&from_copies),
                "start {s}, window"
            );
            let (mut raw_profile, mut copy_profile) = (Vec::new(), Vec::new());
            let (outgoing, incoming) = ((raw[0].as_slice(), s), (raw[1].as_slice(), s + 3));
            engine.slide_block(outgoing, incoming, &mut from_raw, 3, &mut raw_profile);
            let mut incoming_copy = raw[1].clone();
            engine.plan.rotate_block_phase(s + 3, &mut incoming_copy);
            let (outgoing, incoming) = ((rotated[0].as_slice(), 0), (incoming_copy.as_slice(), 0));
            engine.slide_block(outgoing, incoming, &mut from_copies, 3, &mut copy_profile);
            assert_eq!(
                acc_bits(&from_raw),
                acc_bits(&from_copies),
                "start {s}, slide"
            );
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&raw_profile),
                bits(&copy_profile),
                "start {s}, slide profile"
            );
        }
    }

    /// Every vector tier folds the cyclic profile to the generic tier's
    /// bits, and to the bits of the finalised matrix's scan
    /// (`finalize_accumulator`, then [`ScfMatrix::cyclic_profile_into`]),
    /// on all four fold paths: the profile-only init, the init that also
    /// stores the matrix, the slide, and the accumulator-only fold. A fold
    /// that lets a NaN go (a `max_pd` returns the other operand) would turn
    /// a poisoned observation into a finite statistic, so the cases are a
    /// NaN in the middle row `f = 1` of column `a = 0` with larger finite
    /// magnitudes in every later row, a `+Inf` bin, `−0.0` bins and
    /// accumulator cells, and identical blocks whose cells all have the
    /// same magnitude; on 1 and 8 blocks, on grids whose `M + 1` leaves a
    /// tail chunk on every tier (3 and 21 cells) and on the paper grid.
    #[test]
    fn profile_fold_tiers_are_bitwise_equal() {
        use crate::tier::supported_tiers;
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cases = ["nan", "+inf", "-0.0", "equal"];
        for (k, m) in [(16, 2), (64, 20), (256, 63)] {
            let engine = ScfEngine::new(ScfParams::new(k, m, 1).unwrap()).unwrap();
            // The matrix scan over `acc` finalised with `n` blocks.
            let scan = |acc: &ScfAccumulator, n: usize| {
                let (mut matrix, mut profile) = (ScfMatrix::zeros(m), Vec::new());
                engine.finalize_accumulator(acc, n, &mut matrix);
                matrix.cyclic_profile_into(&mut profile);
                profile
            };
            for (n, case) in [1usize, 8].into_iter().flat_map(|n| cases.map(|c| (n, c))) {
                let mut spectra: Vec<Vec<Cplx>> =
                    (0..=n).map(|b| awgn(k, 1.0, (k + 31 * b) as u64)).collect();
                match case {
                    "nan" => {
                        for block in &mut spectra {
                            for (v, x) in block.iter_mut().enumerate().take(m + 1).skip(2) {
                                *x = Cplx::new(8.0 * v as f64, 1.0);
                            }
                        }
                        spectra[n / 2][1] = Cplx::new(f64::NAN, 0.5);
                    }
                    "+inf" => spectra[n / 2][2] = Cplx::new(f64::INFINITY, 0.0),
                    "-0.0" => {
                        for block in &mut spectra {
                            block[1..=m].fill(Cplx::new(-0.0, -0.0));
                        }
                    }
                    _ => {
                        let pattern = [(3.0, 4.0), (4.0, -3.0), (-5.0, 0.0), (0.0, 5.0)];
                        for block in &mut spectra {
                            for (v, x) in block.iter_mut().enumerate() {
                                *x = Cplx::new(pattern[v % 4].0, pattern[v % 4].1);
                            }
                        }
                    }
                }
                let window = &spectra[..n];
                let slide = [spectra[0].as_slice(), spectra[n].as_slice()];
                let mut init = engine.accumulator();
                engine.accumulate_window(window, &mut init);
                let mut slid = init.clone();
                engine.retire_block(slide[0], &mut slid);
                engine.accumulate_block(slide[1], &mut slid);
                // No init leaves a −0.0 cell, so the accumulator fold gets
                // them written in.
                let mut signed = init.clone();
                if case == "-0.0" {
                    let cells = signed.acc_re.iter_mut().chain(&mut signed.acc_im);
                    cells.filter(|v| **v == 0.0).for_each(|v| *v = -0.0);
                }
                let want = [&init, &init, &slid, &signed].map(|acc| scan(acc, n));
                let run = |tier: VectorTier| {
                    let (mut profile_only, mut with_matrix) = (vec![9.0; 2], Vec::new());
                    engine.integrate_spectra(tier, window, None, Some(&mut profile_only));
                    let mut matrix = ScfMatrix::zeros(m);
                    engine.integrate_spectra(
                        tier,
                        window,
                        Some(&mut matrix),
                        Some(&mut with_matrix),
                    );
                    let (mut acc, mut slid_profile) = (init.clone(), Vec::new());
                    engine.fold_profile(&mut slid_profile, n, |fold| {
                        let slide = slide.into_iter().map(|block| (block, 0));
                        engine.accumulator_pass::<SLIDE_PASS>(tier, slide, &mut acc, Some(fold));
                    });
                    let mut from_acc = Vec::new();
                    engine.fold_profile(&mut from_acc, n, |fold| {
                        run_on_tier(tier, AccumulatorFold(&signed, fold));
                    });
                    [profile_only, with_matrix, slid_profile, from_acc]
                };
                let label = format!("K {k}, M {m}, {n} blocks, {case}");
                let paths = [
                    "profile-only init",
                    "store+fold init",
                    "slide",
                    "accumulator",
                ];
                let generic = run(VectorTier::Generic);
                for tier in supported_tiers() {
                    let got = run(tier);
                    for (path, name) in paths.iter().enumerate() {
                        let at = format!("{label}, {tier:?}, {name}");
                        assert_eq!(bits(&got[path]), bits(&generic[path]), "{at}");
                        assert_eq!(bits(&got[path]), bits(&want[path]), "{at} vs scan");
                    }
                }
                // Each case reaches the fold as described.
                let profile = &want[0];
                let negative_zero = (-0.0f64).to_bits();
                match case {
                    "nan" => assert!(profile[m].is_nan(), "{label}"),
                    "+inf" => assert_eq!(profile[m + 1], f64::INFINITY, "{label}"),
                    "-0.0" => {
                        let cells = signed.acc_re.iter().chain(&signed.acc_im);
                        assert!(
                            cells.map(|v| v.to_bits()).any(|v| v == negative_zero),
                            "{label}"
                        );
                    }
                    _ => assert!(profile.iter().all(|&v| v == 25.0), "{label}"),
                }
            }
        }
    }

    /// Engines of one geometry share its tables: equal `fft_len` and
    /// window share the plan and the window allocation, as does a clone;
    /// another length or window does not; an engine built on another
    /// thread, from that thread's caches, gives the same bits.
    #[test]
    fn engines_share_geometry_tables() {
        let hann = |fft_len, max_offset| {
            ScfParams::new(fft_len, max_offset, 4)
                .unwrap()
                .with_window(Window::Hann)
        };
        let params = hann(64, 15);
        let a = ScfEngine::new(params.clone()).unwrap();
        let b = ScfEngine::new(hann(64, 7)).unwrap();
        let shares = |x: &ScfEngine, y: &ScfEngine| {
            (
                Arc::ptr_eq(&x.plan, &y.plan),
                Arc::ptr_eq(&x.window_coeffs, &y.window_coeffs),
            )
        };
        assert_eq!(shares(&a, &b), (true, true));
        assert_eq!(shares(&a, &a.clone()), (true, true));
        let longer = ScfEngine::new(hann(128, 15)).unwrap();
        assert_eq!(shares(&a, &longer), (false, false));
        let rectangular = ScfEngine::new(ScfParams::new(64, 15, 4).unwrap()).unwrap();
        assert_eq!(shares(&a, &rectangular), (true, false));

        let signal = awgn(params.samples_needed(), 1.0, 29);
        let run = |engine: &ScfEngine| {
            let spectra = engine.compute_spectra(&signal).unwrap();
            let mut profile = Vec::new();
            engine.cyclic_profile_from_spectra_into(&spectra, &mut profile);
            let spectra: Vec<u64> = spectra
                .iter()
                .flatten()
                .flat_map(|v| [v.re, v.im])
                .map(f64::to_bits)
                .collect();
            (
                spectra,
                profile.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
            )
        };
        let here = run(&a);
        let there = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let engine = ScfEngine::new(params.clone()).unwrap();
                    assert!(!Arc::ptr_eq(&engine.plan, &a.plan));
                    run(&engine)
                })
                .join()
                .unwrap()
        });
        assert_eq!(here, there);
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
    /// overlapping blocks. The input is `awgn` noise: the hashes were
    /// re-recorded when that noise moved to the ziggurat generator, and
    /// when the FFT that makes the spectra became radix-4, each time with
    /// this kernel unchanged, so they pin the same arithmetic on the new
    /// spectra.
    #[test]
    fn retire_pass_is_pinned_bit_exactly() {
        let cases = [
            (ScfParams::new(32, 7, 6).unwrap(), 0xa398_8f01_edb8_e08e),
            (
                ScfParams::new(64, 31, 6).unwrap().with_stride(40),
                0xc213_f1e4_5316_2563,
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
