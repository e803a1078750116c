//! Discrete Fourier transforms.
//!
//! The paper applies a K-point DFT (eq. 2) to overlapping blocks of the
//! sampled signal; with `K = 2^k` this becomes an FFT with
//! `½·K·log2(K)` complex multiplications, against which the cost of the
//! DSCF (`¼·K²` complex multiplications) is compared in Section 2.
//!
//! This module provides:
//!
//! * [`FftPlan`] — a reusable plan for one power-of-two length: a
//!   radix-4 decimation-in-time FFT (one radix-2 tail pass when `log2 K`
//!   is odd) on split re/im working buffers, its twiddles staged from one
//!   table of roots of unity,
//! * [`cached_plan`] / [`cached_window`] — the per-thread cache of each
//!   geometry's immutable tables: one plan per length and one set of
//!   window coefficients per shape and length, handed out as [`Arc`]s, so
//!   every [`ScfEngine`](crate::scf::ScfEngine) of a geometry, and every
//!   clone of one, shares them instead of rebuilding them,
//! * [`fft_in_place`] / [`ifft_in_place`] — thin wrappers over the cached
//!   plans,
//! * [`dft_naive`] — an O(K²) direct DFT used as the golden model in tests,
//! * [`block_spectrum`] — the windowed, time-shifted spectrum
//!   `X_{n,v}` of eq. 2 (and [`block_spectrum_with_plan`] /
//!   [`block_spectrum_into`], its allocation-conscious cores, which fold
//!   the window into the FFT's first pass),
//! * complexity helpers ([`fft_complex_multiplications`],
//!   [`dscf_complex_multiplications`]) reproducing the Section 2 cost
//!   comparison ("16× as many multiplications for a 256-point spectrum").
//!
//! # The transform
//!
//! The first pass loads the input in base-2 bit-reversed order and runs
//! the size-4 butterflies, whose twiddles are all ±1 and ±j: adds,
//! subtracts and an exact re/im swap, no multiplies. Each later radix-4
//! pass multiplies three of its four operands by the staged split
//! twiddles `W^{2j}`, `W^j` and `W^{3j}` (3 complex multiplies per 4
//! outputs); a radix-2 pass follows when `log2 K` is odd. The last pass
//! stores straight back into the caller's `&mut [Cplx]` or — its
//! split-plane store mode, which the DSCF staging uses — into separate
//! re and im rows. The inverse is
//! `conj ∘ forward ∘ conj / N`: conjugation is exact, so it shares every
//! twiddle with the forward transform.
//!
//! The body is compiled for the generic and AVX2 tiers and dispatched at
//! run time; an AVX-512 host runs the AVX2 body (the quads are 4 lanes
//! wide, and an AVX-512F copy timed no faster beyond run-to-run noise).
//! No tier enables FMA, so every tier gives the same bits and
//! realisations stay host-independent.

use crate::complex::Cplx;
use crate::error::DspError;
use crate::tier::{vector_tier, VectorTier};
use crate::window::Window;
use std::cell::RefCell;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

/// Cached handle to the `dsp.fft.forward_ns` stage histogram. The plan
/// itself stays handle-free (it is `Clone + serde`-derived); a process-wide
/// `OnceLock` keeps the per-call cost to one pointer load once telemetry
/// has been enabled, and [`cfd_telemetry::span`]-style gating keeps it to
/// one atomic load while it is not.
fn forward_ns() -> &'static cfd_telemetry::Histogram {
    static FORWARD_NS: OnceLock<cfd_telemetry::Histogram> = OnceLock::new();
    FORWARD_NS.get_or_init(|| cfd_telemetry::histogram("dsp.fft.forward_ns"))
}

/// Returns `true` if `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Bit-reverses the `bits`-bit value `x`.
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    let mut y = 0usize;
    for i in 0..bits {
        y |= ((x >> i) & 1) << (bits - 1 - i);
    }
    y
}

/// Permutes `data` into bit-reversed order in place.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn bit_reverse_permute(data: &mut [Cplx]) {
    let n = data.len();
    assert!(is_power_of_two(n), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// A reusable FFT plan for one power-of-two transform length.
///
/// A plan holds everything the transform needs that depends only on the
/// length, built once and reused across every block of a sweep:
///
/// * **one table of roots** — `phase_roots[r] = exp(-j·2π·r/len)`, the
///   plan's only `cis` evaluations. Every twiddle is an entry of it
///   (`exp(-j·2π·off/size) = phase_roots[off·len/size]`), and
///   [`FftPlan::rotate_block_phase`] (and the DSCF engine's operand
///   staging) reads it for the absolute-time phase rotation of eq. 2 with
///   exact index reduction;
/// * **staged twiddles** — per radix-4 pass, `W^j`, `W^{2j}` and `W^{3j}`
///   copied out of the root table into contiguous split re/im rows (and
///   `W^j` for the radix-2 tail), so the passes read them with unit
///   stride;
/// * **first-pass sources** — where each size-4 butterfly of the
///   bit-reversed first pass loads its four inputs.
///
/// The radix-4 passes run on per-thread split re/im working buffers; the
/// transform allocates nothing once a thread has run its largest length
/// and takes no lock. See the [module docs](self) for the pass structure.
///
/// # Examples
///
/// ```
/// use cfd_dsp::complex::Cplx;
/// use cfd_dsp::fft::FftPlan;
///
/// # fn main() -> Result<(), cfd_dsp::error::DspError> {
/// let plan = FftPlan::new(8)?;
/// let mut data = vec![Cplx::ONE; 8];
/// plan.forward_in_place(&mut data)?;
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// plan.inverse_in_place(&mut data)?;
/// assert!((data[0] - Cplx::ONE).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FftPlan {
    len: usize,
    /// First-pass group `g` reads `x[s]`, `x[s + len/2]`, `x[s + len/4]`
    /// and `x[s + 3·len/4]` for `s = sources[g]`: the base-2 bit reversal
    /// of `4g`, the group's first position. Empty below length 4.
    sources: Vec<u32>,
    /// Staged split twiddles. For each radix-4 pass after the first
    /// (quarter length `h = 4, 16, …` while `4h ≤ len`), six rows of `h`
    /// values: `W^j` re, im, `W^{2j}` re, im, `W^{3j}` re, im with
    /// `W = exp(-j·2π/4h)`; then, when `log2 len` is odd and `len ≥ 8`,
    /// the radix-2 tail's `W^j` re and im rows (`W = exp(-j·2π/len)`,
    /// `j < len/2`). Every value is copied from `phase_roots`.
    twiddles: Vec<f64>,
    /// `phase_roots[r] = exp(-j·2π·r/len)` for `r ∈ 0..len`.
    phase_roots: Vec<Cplx>,
}

/// First-pass load modes (const generic of [`FftPlan::first_pass`]).
const LOAD_PLAIN: u8 = 0;
/// Conjugate each sample (the inverse transform's inner `conj`).
const LOAD_CONJ: u8 = 1;
/// Multiply sample `i` by `window[i]`.
const LOAD_WINDOW: u8 = 2;

/// Sample `x` as the first pass loads it: as is, conjugated, or times
/// its window coefficient `w`.
#[inline(always)]
fn loaded<const LOAD: u8>(x: Cplx, w: Option<f64>) -> Cplx {
    match (LOAD, w) {
        (LOAD_CONJ, _) => x.conj(),
        (LOAD_WINDOW, Some(w)) => x * w,
        _ => x,
    }
}

/// Interleaved store modes (const generic of [`Interleaved`]): as is.
const STORE_PLAIN: u8 = 0;
/// Conjugate and divide by `N` (the inverse transform's outer `conj`).
const STORE_INVERSE: u8 = 1;

/// Where [`FftPlan::finish`]'s last pass puts the outputs: its store mode.
/// The pass splits the output into the halves or quarters its
/// butterflies write, and stores quad `j` of each.
trait Store: Sized {
    /// The first `m` quads, and the rest.
    fn split_at(self, m: usize) -> [Self; 2];
    /// Quad `j`: outputs `4j..4j + 4`, lane `l` being output `4j + l`.
    fn quad(&mut self, j: usize, y: Quad);
    /// Output `v` of a transform shorter than a quad (lengths 1 and 2).
    fn value(&mut self, v: usize, y: Cplx);
}

/// An output row of `T` values: its whole quads, and its values past them
/// (all of a row shorter than a quad).
struct Row<'a, T> {
    quads: &'a mut [[T; 4]],
    short: &'a mut [T],
}

impl<'a, T> Row<'a, T> {
    fn new(values: &'a mut [T]) -> Self {
        let (quads, short) = values.as_chunks_mut::<4>();
        Row { quads, short }
    }

    #[inline(always)]
    fn split_at(self, m: usize) -> [Self; 2] {
        let (head, quads) = self.quads.split_at_mut(m);
        let head = Row {
            quads: head,
            short: &mut [],
        };
        [head, Row { quads, ..self }]
    }
}

/// Interleaved [`Cplx`] outputs of a length-`n` transform, each through
/// `STORE`.
struct Interleaved<'a, const STORE: u8> {
    row: Row<'a, Cplx>,
    n: usize,
}

impl<'a, const STORE: u8> Interleaved<'a, STORE> {
    fn new(out: &'a mut [Cplx]) -> Self {
        Interleaved {
            n: out.len(),
            row: Row::new(out),
        }
    }
}

impl<const STORE: u8> Store for Interleaved<'_, STORE> {
    #[inline(always)]
    fn split_at(self, m: usize) -> [Self; 2] {
        let n = self.n;
        self.row.split_at(m).map(|row| Interleaved { row, n })
    }

    #[inline(always)]
    fn quad(&mut self, j: usize, y: Quad) {
        for (l, cell) in self.row.quads[j].iter_mut().enumerate() {
            *cell = stored::<STORE>(y.lane(l), self.n);
        }
    }

    #[inline(always)]
    fn value(&mut self, v: usize, y: Cplx) {
        self.row.short[v] = stored::<STORE>(y, self.n);
    }
}

/// The split-plane store: output `v` as `re[v]` and `im[v]`, each quad
/// one 4-wide store per plane. This writes the direct rows of the DSCF
/// operand planes straight from the transform's registers — the paper's
/// reshuffle step — with the bits of the interleaved plain store.
struct SplitPlanes<'a> {
    re: Row<'a, f64>,
    im: Row<'a, f64>,
}

impl Store for SplitPlanes<'_> {
    #[inline(always)]
    fn split_at(self, m: usize) -> [Self; 2] {
        let ([re0, re1], [im0, im1]) = (self.re.split_at(m), self.im.split_at(m));
        [
            SplitPlanes { re: re0, im: im0 },
            SplitPlanes { re: re1, im: im1 },
        ]
    }

    #[inline(always)]
    fn quad(&mut self, j: usize, y: Quad) {
        self.re.quads[j] = y.re;
        self.im.quads[j] = y.im;
    }

    #[inline(always)]
    fn value(&mut self, v: usize, y: Cplx) {
        (self.re.short[v], self.im.short[v]) = (y.re, y.im);
    }
}

/// What one transform reads and where it writes.
enum Run<'a> {
    /// The forward transform of `data`, in place.
    Forward(&'a mut [Cplx]),
    /// The inverse transform of `data` (with the `1/N`), in place.
    Inverse(&'a mut [Cplx]),
    /// The transform of `block · window` into `out`.
    Spectrum {
        block: &'a [Cplx],
        window: &'a [f64],
        out: &'a mut [Cplx],
    },
    /// The transform of `block · window` into split planes `re`/`im`.
    Planes {
        block: &'a [Cplx],
        window: &'a [f64],
        re: &'a mut [f64],
        im: &'a mut [f64],
    },
}

thread_local! {
    /// Per-thread split re/im working buffers of the transform (`2·len`
    /// values, grown to the longest length the thread has run).
    static WORK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Four complex values in split re/im form: the unit every pass works
/// in. Its lane-wise operations are the [`Cplx`] expressions, written
/// as plain fixed-length loops so each compiles to one vector operation
/// per component.
#[derive(Clone, Copy)]
struct Quad {
    re: [f64; 4],
    im: [f64; 4],
}

impl Quad {
    const ZERO: Quad = Quad {
        re: [0.0; 4],
        im: [0.0; 4],
    };

    /// Quad `j` of split rows `re` and `im`.
    #[inline(always)]
    fn at(re: &[[f64; 4]], im: &[[f64; 4]], j: usize) -> Quad {
        Quad {
            re: re[j],
            im: im[j],
        }
    }

    #[inline(always)]
    fn lane(self, l: usize) -> Cplx {
        Cplx::new(self.re[l], self.im[l])
    }

    #[inline(always)]
    fn set_lane(&mut self, l: usize, x: Cplx) {
        (self.re[l], self.im[l]) = (x.re, x.im);
    }

    #[inline(always)]
    fn add(mut self, o: Quad) -> Quad {
        for l in 0..4 {
            self.re[l] += o.re[l];
            self.im[l] += o.im[l];
        }
        self
    }

    #[inline(always)]
    fn sub(mut self, o: Quad) -> Quad {
        for l in 0..4 {
            self.re[l] -= o.re[l];
            self.im[l] -= o.im[l];
        }
        self
    }

    /// `self·o`, lane by lane, as [`Cplx`]'s `Mul`.
    #[inline(always)]
    fn mul(self, o: Quad) -> Quad {
        let mut y = Quad::ZERO;
        for l in 0..4 {
            y.re[l] = self.re[l] * o.re[l] - self.im[l] * o.im[l];
            y.im[l] = self.re[l] * o.im[l] + self.im[l] * o.re[l];
        }
        y
    }
}

/// The size-4 DIT combine of `q0` and the twiddled `t1..t3`:
/// `y0 = (q0 + t1) + (t2 + t3)`, `y2 = (q0 + t1) − (t2 + t3)` and
/// `y1`/`y3 = (q0 − t1) ∓ j·(t2 − t3)`, the `∓j` as an exact re/im swap.
/// Returns the outputs at quarter offsets 0, 1, 2, 3.
#[inline(always)]
fn combine4(q0: Quad, t1: Quad, t2: Quad, t3: Quad) -> [Quad; 4] {
    let a = q0.add(t1);
    let b = q0.sub(t1);
    let c = t2.add(t3);
    let d = t2.sub(t3);
    let (mut y1, mut y3) = (Quad::ZERO, Quad::ZERO);
    for l in 0..4 {
        y1.re[l] = b.re[l] + d.im[l];
        y1.im[l] = b.im[l] - d.re[l];
        y3.re[l] = b.re[l] - d.im[l];
        y3.im[l] = b.im[l] + d.re[l];
    }
    [a.add(c), y1, a.sub(c), y3]
}

/// The twiddled radix-4 butterfly on quads `j` of the four quarters `q`
/// and of the six twiddle rows `w` (`W^j`, `W^{2j}`, `W^{3j}`, re then
/// im): `q1·W^{2j}`, `q2·W^j` and `q3·W^{3j}`, then [`combine4`].
#[inline(always)]
fn butterfly4(q: [Quad; 4], w: &[&[[f64; 4]]; 6], j: usize) -> [Quad; 4] {
    let w1 = Quad::at(w[0], w[1], j);
    let w2 = Quad::at(w[2], w[3], j);
    let w3 = Quad::at(w[4], w[5], j);
    combine4(q[0], q[1].mul(w2), q[2].mul(w1), q[3].mul(w3))
}

/// The first `N` consecutive rows of `len` items of `values`.
#[inline(always)]
fn rows<T, const N: usize>(values: &[T], len: usize) -> [&[T]; N] {
    let mut rows = [&values[..0]; N];
    for (i, row) in rows.iter_mut().enumerate() {
        *row = &values[i * len..(i + 1) * len];
    }
    rows
}

/// The four quarters of `values` (length `4·len`), `len` items each.
#[inline(always)]
fn quarters_mut<T>(values: &mut [T], len: usize) -> [&mut [T]; 4] {
    let (q0, rest) = values.split_at_mut(len);
    let (q1, rest) = rest.split_at_mut(len);
    let (q2, q3) = rest.split_at_mut(len);
    [q0, q1, q2, &mut q3[..len]]
}

/// Output value `y` of a length-`n` transform as the last pass stores it.
#[inline(always)]
fn stored<const STORE: u8>(y: Cplx, n: usize) -> Cplx {
    match STORE {
        STORE_INVERSE => Cplx::new(y.re / n as f64, -y.im / n as f64),
        _ => y,
    }
}

impl FftPlan {
    /// Builds a plan for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NotPowerOfTwo`] if `len` is not a power of two.
    pub fn new(len: usize) -> Result<Self, DspError> {
        if !is_power_of_two(len) {
            return Err(DspError::NotPowerOfTwo { length: len });
        }
        let phase_roots: Vec<Cplx> = (0..len)
            .map(|r| Cplx::cis(-2.0 * PI * r as f64 / len as f64))
            .collect();
        let bits = len.trailing_zeros();
        let sources = if len >= 4 {
            (0..len / 4)
                .map(|g| bit_reverse(g, bits - 2) as u32)
                .collect()
        } else {
            Vec::new()
        };
        let mut twiddles = Vec::new();
        let mut h = 4;
        while 4 * h <= len {
            let stride = len / (4 * h);
            for power in 1..=3 {
                let root = |j: usize| phase_roots[power * j * stride];
                twiddles.extend((0..h).map(|j| root(j).re));
                twiddles.extend((0..h).map(|j| root(j).im));
            }
            h *= 4;
        }
        if len >= 8 && bits % 2 == 1 {
            let half = &phase_roots[..len / 2];
            twiddles.extend(half.iter().map(|w| w.re));
            twiddles.extend(half.iter().map(|w| w.im));
        }
        Ok(FftPlan {
            len,
            sources,
            twiddles,
            phase_roots,
        })
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for the degenerate length-0 plan (never constructible via
    /// [`FftPlan::new`], provided for API completeness with `len`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check_len(&self, data: &[Cplx]) -> Result<(), DspError> {
        if data.len() != self.len {
            return Err(DspError::InvalidParameter {
                name: "data",
                message: format!(
                    "plan is for length {}, got a buffer of length {}",
                    self.len,
                    data.len()
                ),
            });
        }
        Ok(())
    }

    /// Runs one transform through the widest tier the host supports.
    fn run(&self, run: Run<'_>) {
        self.run_on(vector_tier(), run);
    }

    /// Runs one transform through `tier` on this thread's working buffers.
    fn run_on(&self, tier: VectorTier, run: Run<'_>) {
        WORK.with(|cell| {
            let mut work = cell.borrow_mut();
            if work.len() < 2 * self.len {
                work.resize(2 * self.len, 0.0);
            }
            let work = &mut work[..2 * self.len];
            match tier {
                // SAFETY: `vector_tier` / `supported_tiers` only return a
                // tier whose feature was detected at run time, and every
                // AVX-512F processor implements AVX2 (rustc's `avx512f`
                // target feature implies `avx2`).
                #[cfg(target_arch = "x86_64")]
                VectorTier::Avx2 | VectorTier::Avx512 => unsafe { self.run_avx2(run, work) },
                VectorTier::Generic => self.run_body(run, work),
            }
        });
    }

    /// [`FftPlan::run_body`] compiled for AVX2: each quad operation is one
    /// 4-wide `f64` instruction instead of SSE2's two. Only `avx2` is
    /// enabled — never `fma` — so the bits are the generic body's.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2(&self, run: Run<'_>, work: &mut [f64]) {
        self.run_body(run, work);
    }

    #[inline(always)]
    fn run_body(&self, run: Run<'_>, work: &mut [f64]) {
        let (re, im) = work.split_at_mut(self.len);
        match run {
            Run::Forward(data) => {
                self.first_pass::<LOAD_PLAIN>(re, im, data, &[]);
                self.finish(re, im, Interleaved::<STORE_PLAIN>::new(data));
            }
            Run::Inverse(data) => {
                self.first_pass::<LOAD_CONJ>(re, im, data, &[]);
                self.finish(re, im, Interleaved::<STORE_INVERSE>::new(data));
            }
            Run::Spectrum { block, window, out } => {
                self.first_pass::<LOAD_WINDOW>(re, im, block, window);
                self.finish(re, im, Interleaved::<STORE_PLAIN>::new(out));
            }
            Run::Planes {
                block,
                window,
                re: out_re,
                im: out_im,
            } => {
                self.first_pass::<LOAD_WINDOW>(re, im, block, window);
                let out = SplitPlanes {
                    re: Row::new(out_re),
                    im: Row::new(out_im),
                };
                self.finish(re, im, out);
            }
        }
    }

    /// Loads the input in bit-reversed order (through `LOAD`: as is,
    /// conjugated, or times `window`) and runs the trivial-twiddle first
    /// pass: the size-4 butterflies, or the size-2 one at length 2.
    ///
    /// Group `g` reads `x` at `s`, `s + N/2`, `s + N/4` and `s + 3N/4` for
    /// `s = sources[g]`, and `g = sources[s]` back (bit reversal is an
    /// involution), so the loads run over `s` in unit-stride quads of each
    /// input quarter and the four outputs of lane `s` land in group
    /// `sources[s]`.
    #[inline(always)]
    fn first_pass<const LOAD: u8>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        x: &[Cplx],
        window: &[f64],
    ) {
        let n = self.len;
        let load = |i: usize| -> Cplx { loaded::<LOAD>(x[i], window.get(i).copied()) };
        if n < 16 {
            // Lengths up to 8: one or two size-4 groups (in lane 0), or
            // the identity, or one exact size-2 butterfly.
            if n < 4 {
                let x0 = load(0);
                let (y0, y1) = if n == 2 {
                    let x1 = load(1);
                    (x0 + x1, x0 - x1)
                } else {
                    (x0, x0)
                };
                re[..n].copy_from_slice(&[y0.re, y1.re][..n]);
                im[..n].copy_from_slice(&[y0.im, y1.im][..n]);
                return;
            }
            let q = n / 4;
            for (s, &g) in self.sources.iter().enumerate() {
                let mut xs = [Quad::ZERO; 4];
                for (xs, off) in xs.iter_mut().zip([0, 2 * q, q, 3 * q]) {
                    xs.set_lane(0, load(s + off));
                }
                let y = combine4(xs[0], xs[1], xs[2], xs[3]);
                let g = 4 * g as usize;
                for (t, y) in y.iter().enumerate() {
                    (re[g + t], im[g + t]) = (y.re[0], y.im[0]);
                }
            }
            return;
        }
        let m = n / 16;
        let xq = rows::<_, 4>(x.as_chunks::<4>().0, m);
        let wq = if LOAD == LOAD_WINDOW {
            rows::<_, 4>(window.as_chunks::<4>().0, m)
        } else {
            [&[][..]; 4]
        };
        let sources = &self.sources.as_chunks::<4>().0[..m];
        let (rq, iq) = (re.as_chunks_mut::<4>().0, im.as_chunks_mut::<4>().0);
        for (j, groups) in sources.iter().enumerate() {
            let mut xs = [Quad::ZERO; 4];
            for (t, xs) in xs.iter_mut().enumerate() {
                for l in 0..4 {
                    let w = (LOAD == LOAD_WINDOW).then(|| wq[t][j][l]);
                    xs.set_lane(l, loaded::<LOAD>(xq[t][j][l], w));
                }
            }
            let y = combine4(xs[0], xs[2], xs[1], xs[3]);
            for (l, &g) in groups.iter().enumerate() {
                let g = g as usize;
                for t in 0..4 {
                    (rq[g][t], iq[g][t]) = (y[t].re[l], y[t].im[l]);
                }
            }
        }
    }

    /// The twiddled passes: radix-4 passes in the working buffers, then
    /// the last pass (radix-4, or the radix-2 tail when `log2 N` is odd)
    /// storing into `out` through its store mode.
    #[inline(always)]
    fn finish(&self, re: &mut [f64], im: &mut [f64], out: impl Store) {
        let n = self.len;
        let mut tw = self.twiddles.as_chunks::<4>().0;
        let (rq, iq) = (re.as_chunks_mut::<4>().0, im.as_chunks_mut::<4>().0);
        // Quarter length `h`, in quads `m`. Every radix-4 pass but a
        // storing last one stays in place.
        let mut m = 1;
        while 16 * m < n {
            let w = rows::<_, 6>(tw, m);
            tw = &tw[6 * m..];
            for (gr, gi) in rq.chunks_exact_mut(4 * m).zip(iq.chunks_exact_mut(4 * m)) {
                let (r, i) = (quarters_mut(gr, m), quarters_mut(gi, m));
                for j in 0..m {
                    let mut q = [Quad::ZERO; 4];
                    for t in 0..4 {
                        q[t] = Quad::at(r[t], i[t], j);
                    }
                    let y = butterfly4(q, &w, j);
                    for t in 0..4 {
                        (r[t][j], i[t][j]) = (y[t].re, y[t].im);
                    }
                }
            }
            m *= 4;
        }
        let (rq, iq) = (&*rq, &*iq);
        if n >= 8 && n.trailing_zeros() % 2 == 1 {
            // The radix-2 tail: y[j] = x[j] ± W^j·x[j + N/2].
            let m = n / 8;
            let ([r0, r1], [i0, i1]) = (rows::<_, 2>(rq, m), rows::<_, 2>(iq, m));
            let [wr, wi] = rows::<_, 2>(tw, m);
            let [mut lo, mut hi] = out.split_at(m);
            for j in 0..m {
                let x = Quad::at(r0, i0, j);
                let t = Quad::at(r1, i1, j).mul(Quad::at(wr, wi, j));
                lo.quad(j, x.add(t));
                hi.quad(j, x.sub(t));
            }
        } else if n >= 16 {
            let w = rows::<_, 6>(tw, m);
            let (r, i) = (rows::<_, 4>(rq, m), rows::<_, 4>(iq, m));
            let [low, high] = out.split_at(2 * m);
            let ([o0, o1], [o2, o3]) = (low.split_at(m), high.split_at(m));
            let mut o = [o0, o1, o2, o3];
            for j in 0..m {
                let mut q = [Quad::ZERO; 4];
                for t in 0..4 {
                    q[t] = Quad::at(r[t], i[t], j);
                }
                let y = butterfly4(q, &w, j);
                for (o, y) in o.iter_mut().zip(y) {
                    o.quad(j, y);
                }
            }
        } else if n == 4 {
            // The first pass was the whole transform.
            let mut out = out;
            out.quad(0, Quad::at(rq, iq, 0));
        } else {
            // Lengths 1 and 2, likewise.
            let mut out = out;
            for v in 0..n {
                out.value(v, Cplx::new(re[v], im[v]));
            }
        }
    }

    /// In-place forward FFT
    /// (`X[v] = Σ_k x[k]·exp(-j·2π·k·v/N)`).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `data.len()` differs from
    /// the plan length.
    pub fn forward_in_place(&self, data: &mut [Cplx]) -> Result<(), DspError> {
        self.check_len(data)?;
        let _span = forward_ns().start_timer();
        self.run(Run::Forward(data));
        Ok(())
    }

    /// In-place inverse FFT, including the `1/N` normalisation, computed
    /// as `conj(forward(conj(x))) / N`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `data.len()` differs from
    /// the plan length.
    pub fn inverse_in_place(&self, data: &mut [Cplx]) -> Result<(), DspError> {
        self.check_len(data)?;
        self.run(Run::Inverse(data));
        Ok(())
    }

    /// The transform of `block · window` through `tier` in the split-plane
    /// store mode: output `v` lands in `re[v]` and `im[v]`, so the DSCF
    /// staging gets its direct operand rows without an interleaved
    /// spectrum in between. The window multiply runs in the first pass as
    /// in [`block_spectrum_into`], and the bits are those of
    /// [`block_spectrum_into`] at start 0 (no eq.-2 rotation). Timed in
    /// `dsp.fft.forward_ns`.
    ///
    /// # Panics
    ///
    /// Panics unless `block`, `window`, `re` and `im` all have the plan's
    /// length.
    pub(crate) fn spectrum_to_planes(
        &self,
        tier: VectorTier,
        block: &[Cplx],
        window: &[f64],
        re: &mut [f64],
        im: &mut [f64],
    ) {
        let n = self.len;
        assert!(
            [block.len(), window.len(), re.len(), im.len()] == [n; 4],
            "a {n}-point plane store needs {n} samples, coefficients and plane values"
        );
        let _span = forward_ns().start_timer();
        self.run_on(
            tier,
            Run::Planes {
                block,
                window,
                re,
                im,
            },
        );
    }

    /// The `r`-th rotation-table root `exp(-j·2π·r/len)` (with `r`
    /// reduced modulo the plan length) — the same table
    /// [`FftPlan::rotate_block_phase`] reads, so phase factors derived
    /// from it compose bit-identically with the block rotation.
    pub fn phase_root(&self, r: usize) -> Cplx {
        self.phase_roots[r % self.len]
    }

    /// The whole rotation table, `phase_roots[r]` for `r ∈ 0..len`, for
    /// loops that reduce their own index.
    pub(crate) fn phase_roots(&self) -> &[Cplx] {
        &self.phase_roots
    }

    /// Applies the eq.-2 absolute-time phase rotation
    /// `X[v] *= exp(-j·2π·start·v/len)` by table lookup.
    ///
    /// The exponent index `start·v` is reduced modulo `len` incrementally
    /// (no multiplication, no `%` in the loop, no large-argument
    /// `cos`/`sin`), so the rotation is exact for any block start.
    /// [`block_spectrum_into`] applies it after the transform, so rotating
    /// a raw (`start = 0`) spectrum gives the bits of the spectrum
    /// computed at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than the plan length.
    pub fn rotate_block_phase(&self, start: usize, data: &mut [Cplx]) {
        assert!(data.len() <= self.len, "buffer longer than the plan");
        let step = start % self.len.max(1);
        if step == 0 {
            return;
        }
        let mut r = 0usize;
        for value in data.iter_mut() {
            *value *= self.phase_roots[r];
            r += step;
            if r >= self.len {
                r -= self.len;
            }
        }
    }
}

/// Immutable tables shared by key.
type Cache<K, V> = RefCell<HashMap<K, Arc<V>>>;

thread_local! {
    /// Per-thread caches of each geometry's immutable tables: plans keyed
    /// by transform length, window coefficients by shape and length.
    /// Thread-local, so a lookup takes no lock; `Arc`, so an engine built
    /// from them can move to, and be cloned on, any thread.
    static PLAN_CACHE: Cache<usize, FftPlan> = RefCell::new(HashMap::new());
    static WINDOW_CACHE: Cache<(Window, usize), [f64]> = RefCell::new(HashMap::new());
}

/// Returns this thread's cached [`FftPlan`] for `len`, building (and
/// caching) it on first use. This is the library's one source of plans:
/// the planless wrappers ([`fft_in_place`], [`block_spectrum`], …) and
/// every [`ScfEngine`](crate::scf::ScfEngine) take theirs from here, so
/// all of them on one thread share one plan per length, and an engine's
/// clone shares its engine's.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if `len` is not a power of two.
pub fn cached_plan(len: usize) -> Result<Arc<FftPlan>, DspError> {
    PLAN_CACHE.with(|cache| {
        if let Some(plan) = cache.borrow().get(&len) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(FftPlan::new(len)?);
        cache.borrow_mut().insert(len, Arc::clone(&plan));
        Ok(plan)
    })
}

/// Returns this thread's cached coefficients of `window` over `len`
/// samples ([`Window::coefficients`]), computing (and caching) them on
/// first use: the window counterpart of [`cached_plan`], shared the same
/// way.
pub fn cached_window(window: Window, len: usize) -> Arc<[f64]> {
    WINDOW_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let coefficients = cache
            .entry((window, len))
            .or_insert_with(|| window.coefficients(len).into());
        Arc::clone(coefficients)
    })
}

/// In-place FFT of a power-of-two length.
///
/// Computes `X[v] = Σ_k x[k]·exp(-j·2π·k·v/N)` for `N = data.len()`.
/// This is a thin wrapper over this thread's cached [`FftPlan`]; hot loops
/// that already hold a plan should call [`FftPlan::forward_in_place`]
/// directly.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if the length is not a power of two.
///
/// # Examples
///
/// ```
/// use cfd_dsp::complex::Cplx;
/// use cfd_dsp::fft::fft_in_place;
///
/// # fn main() -> Result<(), cfd_dsp::error::DspError> {
/// let mut data = vec![Cplx::ONE; 8];
/// fft_in_place(&mut data)?;
/// assert!((data[0].re - 8.0).abs() < 1e-12); // DC bin holds the sum
/// assert!(data[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fft_in_place(data: &mut [Cplx]) -> Result<(), DspError> {
    cached_plan(data.len())?.forward_in_place(data)
}

/// In-place inverse FFT, including the `1/N` normalisation (a thin wrapper
/// over this thread's cached [`FftPlan`]).
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if the length is not a power of two.
pub fn ifft_in_place(data: &mut [Cplx]) -> Result<(), DspError> {
    cached_plan(data.len())?.inverse_in_place(data)
}

/// Convenience wrapper returning a new vector instead of transforming in place.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if the length is not a power of two.
pub fn fft(input: &[Cplx]) -> Result<Vec<Cplx>, DspError> {
    let mut data = input.to_vec();
    fft_in_place(&mut data)?;
    Ok(data)
}

/// Convenience wrapper around [`ifft_in_place`].
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if the length is not a power of two.
pub fn ifft(input: &[Cplx]) -> Result<Vec<Cplx>, DspError> {
    let mut data = input.to_vec();
    ifft_in_place(&mut data)?;
    Ok(data)
}

/// Direct O(N²) DFT used as a golden model for testing the FFT.
///
/// Works for any length, not just powers of two.
pub fn dft_naive(input: &[Cplx]) -> Vec<Cplx> {
    let n = input.len();
    (0..n)
        .map(|v| {
            (0..n)
                .map(|k| input[k] * Cplx::cis(-2.0 * PI * (k * v) as f64 / n as f64))
                .sum()
        })
        .collect()
}

/// Computes the block spectrum `X_{n,v}` of eq. 2 for the block starting at
/// sample `n`:
///
/// `X_{n,v} = Σ_{k=0..K-1} x[n+k]·w[k]·exp(-j·2π·(n+k)·v/K)`
///
/// The paper's eq. 2 uses the absolute sample index `n+k` in the exponent;
/// the phase factor relative to a block-local DFT is `exp(-j·2π·n·v/K)`,
/// which this function applies to the FFT of the windowed block. The
/// window defaults to rectangular in the paper; any [`Window`] may be used.
///
/// # Errors
///
/// * [`DspError::NotPowerOfTwo`] if `block_len` is not a power of two,
/// * [`DspError::InsufficientSamples`] if the signal does not contain
///   `start + block_len` samples.
pub fn block_spectrum(
    signal: &[Cplx],
    start: usize,
    block_len: usize,
    window: Window,
) -> Result<Vec<Cplx>, DspError> {
    let plan = cached_plan(block_len)?;
    block_spectrum_with_plan(signal, start, &plan, &cached_window(window, block_len))
}

/// The allocation-conscious core of [`block_spectrum`]: the caller supplies
/// the [`FftPlan`] and the window coefficients, so repeated evaluation
/// (every block of every trial of a sweep) pays for neither twiddle nor
/// window recomputation. [`block_spectrum`] and the DSCF engine both route
/// through this function, which keeps their spectra bit-identical.
///
/// # Errors
///
/// * [`DspError::InsufficientSamples`] if the signal does not contain
///   `start + plan.len()` samples,
/// * [`DspError::InvalidParameter`] if the window coefficient slice does
///   not match the plan length.
pub fn block_spectrum_with_plan(
    signal: &[Cplx],
    start: usize,
    plan: &FftPlan,
    window_coeffs: &[f64],
) -> Result<Vec<Cplx>, DspError> {
    let mut block = Vec::with_capacity(plan.len());
    block_spectrum_into(signal, start, plan, window_coeffs, &mut block)?;
    Ok(block)
}

/// [`block_spectrum_with_plan`] writing into a caller-owned buffer, so hot
/// loops (a sweep worker re-evaluating the same block layout every trial)
/// reuse the spectrum allocation instead of reallocating per block.
///
/// The window multiply (`x[k]·w[k]`) runs in the FFT's bit-reversed
/// first-pass loads — the same per-element operation as a separate window
/// pass, so the spectrum has the bits of window, then FFT — and
/// [`FftPlan::rotate_block_phase`] applies the eq.-2 rotation after it.
///
/// # Errors
///
/// Same contract as [`block_spectrum_with_plan`].
pub fn block_spectrum_into(
    signal: &[Cplx],
    start: usize,
    plan: &FftPlan,
    window_coeffs: &[f64],
    out: &mut Vec<Cplx>,
) -> Result<(), DspError> {
    let block_len = plan.len();
    if window_coeffs.len() != block_len {
        return Err(DspError::InvalidParameter {
            name: "window_coeffs",
            message: format!(
                "window has {} coefficients, plan length is {block_len}",
                window_coeffs.len()
            ),
        });
    }
    if start + block_len > signal.len() {
        return Err(DspError::InsufficientSamples {
            needed: start + block_len,
            available: signal.len(),
        });
    }
    if out.len() != block_len {
        out.clear();
        out.resize(block_len, Cplx::ZERO);
    }
    let _span = forward_ns().start_timer();
    plan.run(Run::Spectrum {
        block: &signal[start..start + block_len],
        window: window_coeffs,
        out,
    });
    plan.rotate_block_phase(start, out);
    Ok(())
}

/// Number of complex multiplications of a radix-2 FFT of length `n`:
/// `½·n·log2(n)` (the figure used in Section 2 of the paper).
///
/// This is the paper's operation count, not [`FftPlan`]'s: the plan's
/// first pass multiplies nothing and each later radix-4 pass multiplies
/// `¾·n` values (a radix-2 tail `½·n`), so a 256-point plan performs 576
/// complex multiplications where this returns 1024.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn fft_complex_multiplications(n: usize) -> usize {
    assert!(is_power_of_two(n), "length must be a power of two");
    n / 2 * n.trailing_zeros() as usize
}

/// Number of complex multiplications to evaluate the DSCF of an `n`-point
/// spectrum: `¼·n²` (Section 2).
pub fn dscf_complex_multiplications(n: usize) -> usize {
    n * n / 4
}

/// The ratio between DSCF and FFT multiplication counts; the paper quotes
/// "16 times as many" for a 256-point spectrum.
pub fn dscf_to_fft_cost_ratio(n: usize) -> f64 {
    dscf_complex_multiplications(n) as f64 / fft_complex_multiplications(n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    fn assert_spectra_close(a: &[Cplx], b: &[Cplx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() < tol,
                "bin {i}: {x} vs {y} (diff {})",
                (x - y).abs()
            );
        }
    }

    #[test]
    fn bit_reverse_small_values() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(0, 4), 0);
        assert_eq!(bit_reverse(0b1111, 4), 0b1111);
    }

    #[test]
    fn bit_reverse_permute_is_involution() {
        let original: Vec<Cplx> = (0..16).map(|i| Cplx::new(i as f64, -(i as f64))).collect();
        let mut data = original.clone();
        bit_reverse_permute(&mut data);
        bit_reverse_permute(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Cplx::ZERO; 16];
        data[0] = Cplx::ONE;
        fft_in_place(&mut data).unwrap();
        for bin in data {
            assert!((bin - Cplx::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_complex_tone_has_single_peak() {
        let n = 64;
        let bin = 5;
        let data: Vec<Cplx> = (0..n)
            .map(|k| Cplx::cis(2.0 * PI * (bin * k) as f64 / n as f64))
            .collect();
        let spectrum = fft(&data).unwrap();
        for (v, value) in spectrum.iter().enumerate() {
            if v == bin {
                assert!((value.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(value.abs() < 1e-9, "bin {v} = {value}");
            }
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 32;
        let data: Vec<Cplx> = (0..n)
            .map(|k| Cplx::new((k as f64 * 0.37).sin(), (k as f64 * 0.91).cos()))
            .collect();
        let fast = fft(&data).unwrap();
        let slow = dft_naive(&data);
        assert_spectra_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let data: Vec<Cplx> = (0..n)
            .map(|k| Cplx::new((k as f64).cos(), (k as f64 * 1.7).sin()))
            .collect();
        let spectrum = fft(&data).unwrap();
        let back = ifft(&spectrum).unwrap();
        assert_spectra_close(&back, &data, 1e-10);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 256;
        let data: Vec<Cplx> = (0..n)
            .map(|k| Cplx::new((k as f64 * 0.11).sin(), (k as f64 * 0.07).cos()))
            .collect();
        let time_energy: f64 = data.iter().map(|x| x.norm_sqr()).sum();
        let spectrum = fft(&data).unwrap();
        let freq_energy: f64 = spectrum.iter().map(|x| x.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn non_power_of_two_is_rejected() {
        let mut data = vec![Cplx::ZERO; 12];
        assert!(matches!(
            fft_in_place(&mut data),
            Err(DspError::NotPowerOfTwo { length: 12 })
        ));
        assert!(ifft(&[Cplx::ZERO; 3]).is_err());
    }

    #[test]
    fn length_one_fft_is_identity() {
        let mut data = vec![Cplx::new(2.0, 3.0)];
        fft_in_place(&mut data).unwrap();
        assert_eq!(data[0], Cplx::new(2.0, 3.0));
    }

    #[test]
    fn block_spectrum_applies_time_shift_phase() {
        // A tone at bin 3: the block starting at n has the same magnitude
        // spectrum, and the phase of eq. 2 relative to block 0 is
        // exp(-j 2π n v / K) * exp(+j 2π n·bin/K) from the signal itself;
        // check against a direct evaluation of eq. 2.
        let k = 32usize;
        let bin = 3usize;
        let total = 3 * k;
        let signal: Vec<Cplx> = (0..total)
            .map(|t| Cplx::cis(2.0 * PI * (bin * t) as f64 / k as f64))
            .collect();
        let start = 17;
        let got = block_spectrum(&signal, start, k, Window::Rectangular).unwrap();
        // Direct eq. 2 evaluation.
        let direct: Vec<Cplx> = (0..k)
            .map(|v| {
                (0..k)
                    .map(|kk| {
                        signal[start + kk]
                            * Cplx::cis(-2.0 * PI * ((start + kk) * v) as f64 / k as f64)
                    })
                    .sum()
            })
            .collect();
        assert_spectra_close(&got, &direct, 1e-8);
    }

    #[test]
    fn block_spectrum_rejects_out_of_range() {
        let signal = vec![Cplx::ZERO; 40];
        assert!(matches!(
            block_spectrum(&signal, 20, 32, Window::Rectangular),
            Err(DspError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn plan_matches_naive_dft_and_rejects_mismatched_buffers() {
        let plan = FftPlan::new(16).unwrap();
        assert_eq!(plan.len(), 16);
        assert!(!plan.is_empty());
        let data: Vec<Cplx> = (0..16)
            .map(|k| Cplx::new((k as f64).sin(), 0.2 * k as f64))
            .collect();
        let mut fast = data.clone();
        plan.forward_in_place(&mut fast).unwrap();
        assert_spectra_close(&fast, &dft_naive(&data), 1e-9);
        plan.inverse_in_place(&mut fast).unwrap();
        assert_spectra_close(&fast, &data, 1e-10);
        let mut wrong = vec![Cplx::ZERO; 8];
        assert!(plan.forward_in_place(&mut wrong).is_err());
        assert!(plan.inverse_in_place(&mut wrong).is_err());
        assert!(matches!(
            FftPlan::new(12),
            Err(DspError::NotPowerOfTwo { length: 12 })
        ));
    }

    #[test]
    fn cached_plan_is_shared_within_a_thread() {
        let a = cached_plan(64).unwrap();
        let b = cached_plan(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cached_plan(10).is_err());
    }

    #[test]
    fn rotate_block_phase_reduces_the_exponent_exactly() {
        let k = 32usize;
        let plan = FftPlan::new(k).unwrap();
        let data: Vec<Cplx> = (0..k).map(|v| Cplx::new(1.0 + v as f64, -0.5)).collect();
        // A start beyond the block length must behave as start mod K.
        let start = 17 + 2 * k;
        let mut rotated = data.clone();
        plan.rotate_block_phase(start, &mut rotated);
        for (v, (&got, &x)) in rotated.iter().zip(data.iter()).enumerate() {
            let expected = x * Cplx::cis(-2.0 * PI * ((start * v) % k) as f64 / k as f64);
            assert!((got - expected).abs() < 1e-12, "bin {v}");
        }
        // start = 0 is the identity.
        let mut same = data.clone();
        plan.rotate_block_phase(0, &mut same);
        assert_eq!(same, data);
    }

    #[test]
    fn block_spectrum_with_plan_rejects_mismatched_window() {
        let plan = FftPlan::new(16).unwrap();
        let signal = vec![Cplx::ONE; 32];
        let coeffs = Window::Rectangular.coefficients(8);
        assert!(matches!(
            block_spectrum_with_plan(&signal, 0, &plan, &coeffs),
            Err(DspError::InvalidParameter { .. })
        ));
    }

    fn test_signal(n: usize, seed: u64) -> Vec<Cplx> {
        crate::signal::awgn(n, 1.0, seed)
    }

    fn bits(values: &[Cplx]) -> Vec<(u64, u64)> {
        values
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    /// Every vector tier the host runs computes the same bits: forward,
    /// inverse and the windowed block spectrum, at every length
    /// from 1 to 4096 (odd `log2` lengths take the radix-2 tail).
    #[test]
    fn fft_tiers_are_bitwise_equal() {
        use crate::tier::{supported_tiers, VectorTier};
        for bits_len in 0..=12u32 {
            let n = 1usize << bits_len;
            let plan = FftPlan::new(n).unwrap();
            let signal = test_signal(2 * n, 40 + u64::from(bits_len));
            let window = Window::Hann.coefficients(n);
            let run = |tier: VectorTier| {
                let mut forward = signal[..n].to_vec();
                plan.run_on(tier, Run::Forward(&mut forward));
                let mut inverse = signal[..n].to_vec();
                plan.run_on(tier, Run::Inverse(&mut inverse));
                let mut spectrum = vec![Cplx::ZERO; n];
                plan.run_on(
                    tier,
                    Run::Spectrum {
                        block: &signal[n / 2..n / 2 + n],
                        window: &window,
                        out: &mut spectrum,
                    },
                );
                (bits(&forward), bits(&inverse), bits(&spectrum))
            };
            let generic = run(VectorTier::Generic);
            for tier in supported_tiers() {
                assert_eq!(run(tier), generic, "length {n}, {tier:?}");
            }
        }
    }

    /// The radix-4 plan against the O(N²) golden model at every length
    /// from 8 to 4096: the error stays below 1e-12 of the largest bin.
    #[test]
    fn fft_matches_naive_dft_from_8_to_4096() {
        for bits_len in 3..=12u32 {
            let n = 1usize << bits_len;
            let data = test_signal(n, 7 + u64::from(bits_len));
            let fast = fft(&data).unwrap();
            let slow = dft_naive(&data);
            let peak = slow.iter().map(|x| x.abs()).fold(0.0, f64::max);
            let error = fast
                .iter()
                .zip(&slow)
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(error <= 1e-12 * peak, "length {n}: {error:e} of {peak}");
        }
    }

    /// The inverse is the conjugated forward transform, scaled by `1/N`,
    /// to the bit — it shares every twiddle with the forward transform.
    #[test]
    fn inverse_is_the_conjugated_forward() {
        for bits_len in 0..=10u32 {
            let n = 1usize << bits_len;
            let data = test_signal(n, 90 + u64::from(bits_len));
            let inverse = ifft(&data).unwrap();
            let conjugated: Vec<Cplx> = data.iter().map(|x| x.conj()).collect();
            let expected: Vec<Cplx> = fft(&conjugated)
                .unwrap()
                .iter()
                .map(|x| Cplx::new(x.re / n as f64, -x.im / n as f64))
                .collect();
            assert_eq!(bits(&inverse), bits(&expected), "length {n}");
        }
    }

    /// The window folded into the FFT's first pass gives the bits of the
    /// separate passes: window, forward transform, then
    /// [`FftPlan::rotate_block_phase`].
    #[test]
    fn block_spectrum_folds_keep_the_separate_passes_bits() {
        for n in [1usize, 2, 4, 8, 32, 64, 256] {
            let plan = FftPlan::new(n).unwrap();
            let signal = test_signal(4 * n + 8, n as u64);
            for window in [Window::Rectangular, Window::Hann] {
                let coeffs = window.coefficients(n);
                for start in [0, 1, n / 2, n, n + 5, 3 * n - 1] {
                    let got = block_spectrum_with_plan(&signal, start, &plan, &coeffs).unwrap();
                    let mut expected: Vec<Cplx> = signal[start..start + n]
                        .iter()
                        .zip(&coeffs)
                        .map(|(&x, &w)| x * w)
                        .collect();
                    plan.forward_in_place(&mut expected).unwrap();
                    plan.rotate_block_phase(start, &mut expected);
                    assert_eq!(bits(&got), bits(&expected), "n {n} start {start}");
                }
            }
        }
    }

    #[test]
    fn section2_cost_comparison_for_256_points() {
        // FFT: ½·256·8 = 1024 multiplications; DSCF: ¼·256² = 16384.
        assert_eq!(fft_complex_multiplications(256), 1024);
        assert_eq!(dscf_complex_multiplications(256), 16384);
        assert!((dscf_to_fft_cost_ratio(256) - 16.0).abs() < 1e-12);
    }
}
