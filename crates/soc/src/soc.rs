//! The tiled SoC: `Q` Montium tiles executing the folded DSCF computation
//! with explicit inter-tile streams.
//!
//! The platform corresponds to the AAF DRBPF of Section 4: the 127-task
//! systolic array of Step 1 is folded onto the tiles, each tile runs the
//! Fig. 11 kernel on its Montium core, and the array-boundary values cross
//! between tiles once per frequency step (a rate `T` times lower than the
//! multiply–accumulate rate, as the paper argues).
//!
//! Two execution modes produce identical results:
//!
//! * **lockstep** — all tiles advance one frequency step at a time in a
//!   single thread (deterministic; the cycle-accurate golden reference);
//! * **analytic** — the fast path: no sequencer, ALU or register-file
//!   machinery is stepped at all. The folded tiles together compute
//!   exactly the eq.-3 DSCF, so the matrix comes from the shared
//!   [`ScfEngine`] (through an [`ScfAccumulator`] that persists across
//!   runs, the same bits as the simulation) and the cycle, transfer and
//!   source counters come from the closed-form model
//!   ([`montium_sim::kernels::analytic_step_cycles`] plus the
//!   deterministic per-block stream volumes) — every counter the
//!   simulation would have produced, without the per-cycle walk. The DSCF
//!   is bit-identical to the simulation and the counters equal
//!   (pinned by `tests/soc_fast_path.rs`). [`TiledSoc::run_from_spectra`]
//!   additionally accepts externally computed block spectra, so callers
//!   that already hold the spectra feed them straight into the correlator.
//!   Sensing backends go one step further and take the decision from the
//!   observation's cached DSCF, adding only the closed-form counters
//!   ([`TiledSoc::critical_cycles`]).

use crate::config::{ExecutionMode, SocConfig};
use crate::error::SocError;
use crate::link::{QueueLink, StreamWord};
use crate::power::PlatformMetrics;
use crate::tile::{Tile, TileCycleBreakdown};
use cfd_dsp::complex::Cplx;
use cfd_dsp::error::DspError;
use cfd_dsp::scf::{ScfAccumulator, ScfEngine, ScfMatrix, ScfParams};
use cfd_mapping::folding::Folding;
use montium_sim::kernels::{analytic_step_cycles, IntegrationStepCycles, TileTaskSet};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Cached handles to the SoC run instruments: stage histograms for the
/// simulated/analytic run and the spectra-fed correlator, per-path run
/// counters, and last-run cycle/energy gauges (the analytic-vs-lockstep
/// comparison the paper's Table 1 is about).
struct SocInstruments {
    run_ns: cfd_telemetry::Histogram,
    correlate_ns: cfd_telemetry::Histogram,
    runs_lockstep: cfd_telemetry::Counter,
    runs_analytic: cfd_telemetry::Counter,
    runs_spectra_fed: cfd_telemetry::Counter,
    critical_cycles: cfd_telemetry::Gauge,
    energy_per_block_uj: cfd_telemetry::Gauge,
}

fn instruments() -> &'static SocInstruments {
    static INSTRUMENTS: OnceLock<SocInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| SocInstruments {
        run_ns: cfd_telemetry::histogram("soc.run_ns"),
        correlate_ns: cfd_telemetry::histogram("soc.correlate_ns"),
        runs_lockstep: cfd_telemetry::counter("soc.runs.lockstep"),
        runs_analytic: cfd_telemetry::counter("soc.runs.analytic"),
        runs_spectra_fed: cfd_telemetry::counter("soc.runs.spectra_fed"),
        critical_cycles: cfd_telemetry::gauge("soc.run.critical_cycles"),
        energy_per_block_uj: cfd_telemetry::gauge("soc.run.energy_per_block_uj"),
    })
}

/// The result of running one or more integration steps on the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocRun {
    /// The accumulated DSCF over all processed blocks.
    pub scf: ScfMatrix,
    /// Number of blocks (integration steps) processed.
    pub blocks: usize,
    /// Per-tile cycle breakdowns (over all processed blocks).
    pub per_tile_cycles: Vec<TileCycleBreakdown>,
    /// Words exchanged between tiles (both flows).
    pub inter_tile_transfers: u64,
    /// Words injected from the FFT source at the array boundaries.
    pub source_inputs: u64,
}

impl SocRun {
    /// The critical-path cycle count: the largest per-tile total.
    pub fn max_tile_cycles(&self) -> u64 {
        self.per_tile_cycles
            .iter()
            .map(|t| t.total())
            .max()
            .unwrap_or(0)
    }

    /// The critical-path cycles per block.
    pub fn cycles_per_block(&self) -> u64 {
        if self.blocks == 0 {
            0
        } else {
            self.max_tile_cycles() / self.blocks as u64
        }
    }
}

/// The analytic path's state, built on the first analytic run: the shared
/// DSCF engine, its half-grid accumulator (persistent across runs until a
/// [`TiledSoc::reset`]) and the block spectra of the raw-sample front-end.
#[derive(Debug)]
struct AnalyticPath {
    engine: ScfEngine,
    acc: ScfAccumulator,
    spectra: Vec<Vec<Cplx>>,
}

impl AnalyticPath {
    /// Adds `blocks` to the accumulation, or restarts it from them when
    /// `fresh`: one pass over the grid either way, every accumulator cell
    /// visited once for all blocks, and the bits equal adding the blocks
    /// one at a time in order.
    fn accumulate(engine: &ScfEngine, acc: &mut ScfAccumulator, blocks: &[Vec<Cplx>], fresh: bool) {
        if fresh {
            engine.accumulate_window(blocks, acc);
        } else {
            engine.accumulate_blocks(blocks, acc);
        }
    }
}

/// The tiled System-on-Chip.
#[derive(Debug)]
pub struct TiledSoc {
    config: SocConfig,
    max_offset: usize,
    fft_len: usize,
    folding: Folding,
    tiles: Vec<Tile>,
    /// The closed-form per-block cycle breakdown of every tile.
    steps: Vec<IntegrationStepCycles>,
    /// The analytic accumulation, built on first use so platforms that
    /// never run it (the lockstep simulation, sensing sessions deciding from a
    /// shared DSCF) pay nothing for it.
    analytic: Option<Box<AnalyticPath>>,
    /// Blocks accumulated through the cycle-accurate tiles since the last
    /// reset.
    blocks_simulated: usize,
    /// Blocks accumulated through the fast path since the last reset.
    blocks_analytic: usize,
    inter_tile_transfers: u64,
    source_inputs: u64,
    configurations: u64,
}

impl TiledSoc {
    /// Builds a platform of `config.num_tiles` tiles for a DSCF grid of
    /// half-width `max_offset` over `fft_len`-point spectra.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidConfiguration`] for a zero-tile platform
    /// and propagates folding/capacity errors.
    pub fn new(config: SocConfig, max_offset: usize, fft_len: usize) -> Result<Self, SocError> {
        if config.num_tiles == 0 {
            return Err(SocError::InvalidConfiguration {
                message: "the platform needs at least one tile".into(),
            });
        }
        if config.mode == ExecutionMode::Analytic && config.tile.quantize_q15 {
            // The 16-bit accumulator quantisation happens on every memory
            // write of the cycle-accurate datapath; the analytic path
            // accumulates in full precision and would silently return
            // different numbers than the hardware model. Refuse up front.
            return Err(SocError::InvalidConfiguration {
                message: "the analytic execution mode models the full-precision datapath; \
                          use Lockstep for a Q15 platform"
                    .into(),
            });
        }
        let p = 2 * max_offset + 1;
        let folding = Folding::new(p, config.num_tiles)?;
        let mut tiles = Vec::with_capacity(config.num_tiles);
        let mut steps = Vec::with_capacity(config.num_tiles);
        for q in 0..config.num_tiles {
            let task_set = TileTaskSet::new(&folding, q, max_offset, fft_len)
                .map_err(|e| crate::error::tile_error(q, e))?;
            steps.push(analytic_step_cycles(&config.tile, &task_set));
            tiles.push(Tile::new(q, config.tile.clone(), task_set)?);
        }
        Ok(TiledSoc {
            config,
            max_offset,
            fft_len,
            folding,
            tiles,
            steps,
            analytic: None,
            blocks_simulated: 0,
            blocks_analytic: 0,
            inter_tile_transfers: 0,
            source_inputs: 0,
            configurations: 1,
        })
    }

    /// The paper's platform: 4 tiles, 256-point spectra, 127×127 DSCF.
    ///
    /// # Errors
    ///
    /// Never fails for the paper's constants; the `Result` mirrors
    /// [`TiledSoc::new`].
    pub fn paper() -> Result<Self, SocError> {
        TiledSoc::new(SocConfig::paper(), 63, 256)
    }

    /// The platform configuration.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The Step-1 folding realised by this platform.
    pub fn folding(&self) -> &Folding {
        &self.folding
    }

    /// The DSCF grid half-width `M`.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// The FFT length `K`.
    pub fn fft_len(&self) -> usize {
        self.fft_len
    }

    /// The number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// How many times this platform has been configured (sequencer programs
    /// loaded into the tiles). Construction configures once;
    /// [`TiledSoc::run`] and [`TiledSoc::reset`] never reconfigure — this
    /// counter is the observable that lets the session layer assert its
    /// "configure once, decide many" contract.
    pub fn configurations(&self) -> u64 {
        self.configurations
    }

    /// Runs `num_blocks` integration steps over `signal` (consecutive,
    /// non-overlapping blocks of `fft_len` samples) and returns the
    /// accumulated DSCF plus the platform statistics.
    ///
    /// In [`ExecutionMode::Analytic`] each block spectrum is accumulated
    /// through the shared [`ScfEngine`] and the counters come from the
    /// closed forms; the result is the same `SocRun` the lockstep simulation
    /// produce.
    ///
    /// # Errors
    ///
    /// * [`SocError::Dsp`] if the signal is too short,
    /// * [`SocError::ExecutionFailure`] when switching execution paths
    ///   without a [`TiledSoc::reset`],
    /// * tile and execution errors otherwise.
    pub fn run(&mut self, signal: &[Cplx], num_blocks: usize) -> Result<SocRun, SocError> {
        let mut out = self.empty_run();
        self.run_into(signal, num_blocks, &mut out)?;
        Ok(out)
    }

    /// [`TiledSoc::run`] writing into a caller-owned [`SocRun`], so
    /// decision loops (a sensing session taking thousands of decisions)
    /// reuse the DSCF matrix and the per-tile breakdown vector instead of
    /// reallocating them per run.
    ///
    /// # Errors
    ///
    /// Same contract as [`TiledSoc::run`].
    pub fn run_into(
        &mut self,
        signal: &[Cplx],
        num_blocks: usize,
        out: &mut SocRun,
    ) -> Result<(), SocError> {
        let k = self.fft_len;
        let needed = num_blocks * k;
        if signal.len() < needed {
            return Err(SocError::Dsp(DspError::InsufficientSamples {
                needed,
                available: signal.len(),
            }));
        }
        self.check_path(self.config.mode == ExecutionMode::Analytic)?;
        let instruments = instruments();
        let _span = instruments.run_ns.start_timer();
        match self.config.mode {
            ExecutionMode::Lockstep => instruments.runs_lockstep.increment(),
            ExecutionMode::Analytic => instruments.runs_analytic.increment(),
        }
        if self.config.mode == ExecutionMode::Analytic {
            let fresh = self.blocks_analytic == 0;
            let path = self.analytic_path()?;
            path.spectra.resize_with(num_blocks, Vec::new);
            for (block, spectrum) in path.spectra.iter_mut().enumerate() {
                path.engine
                    .block_spectrum_into(signal, block * k, spectrum)?;
            }
            AnalyticPath::accumulate(&path.engine, &mut path.acc, &path.spectra, fresh);
            self.count_analytic_blocks(num_blocks);
        } else {
            for block in 0..num_blocks {
                self.run_block_lockstep(&signal[block * k..(block + 1) * k])?;
            }
        }
        self.fill_run(num_blocks, out)?;
        instruments
            .critical_cycles
            .set(out.cycles_per_block() as f64);
        instruments
            .energy_per_block_uj
            .set(self.metrics(out).energy_per_block_uj());
        Ok(())
    }

    /// The spectra-fed fast path: accumulates one integration step per
    /// externally computed block spectrum (eq.-2 spectra of consecutive
    /// non-overlapping blocks) and returns the same `SocRun` — analytic
    /// cycle breakdowns, transfer and source counters — the simulated run
    /// would have produced for the equivalent signal.
    ///
    /// This is the entry point that isolates the correlator cost in
    /// platform studies: no FFT runs here at all.
    ///
    /// # Errors
    ///
    /// * [`SocError::Dsp`] if any block spectrum's length differs from the
    ///   FFT length (a longer buffer would be a different FFT size's
    ///   spectrum, not a harmless tail),
    /// * [`SocError::ExecutionFailure`] when switching execution paths
    ///   without a [`TiledSoc::reset`].
    pub fn run_from_spectra(&mut self, spectra: &[Vec<Cplx>]) -> Result<SocRun, SocError> {
        let mut out = self.empty_run();
        self.run_from_spectra_into(spectra, &mut out)?;
        Ok(out)
    }

    /// [`TiledSoc::run_from_spectra`] writing into a caller-owned
    /// [`SocRun`] (same reuse contract as [`TiledSoc::run_into`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`TiledSoc::run_from_spectra`].
    pub fn run_from_spectra_into(
        &mut self,
        spectra: &[Vec<Cplx>],
        out: &mut SocRun,
    ) -> Result<(), SocError> {
        self.check_path(true)?;
        let instruments = instruments();
        let _span = instruments.correlate_ns.start_timer();
        instruments.runs_spectra_fed.increment();
        for (n, block) in spectra.iter().enumerate() {
            // Exact length required: a longer buffer would be the spectrum
            // of a *different* FFT size, and truncating it would correlate
            // the wrong bins without any error.
            if block.len() != self.fft_len {
                return Err(SocError::Dsp(DspError::InvalidParameter {
                    name: "spectra",
                    message: format!(
                        "block {n} has {} bins, expected exactly fft_len = {}",
                        block.len(),
                        self.fft_len
                    ),
                }));
            }
        }
        let fresh = self.blocks_analytic == 0;
        let path = self.analytic_path()?;
        AnalyticPath::accumulate(&path.engine, &mut path.acc, spectra, fresh);
        self.count_analytic_blocks(spectra.len());
        self.fill_run(spectra.len(), out)
    }

    /// An empty [`SocRun`] sized for this platform, for use with the
    /// `*_into` entry points.
    pub fn empty_run(&self) -> SocRun {
        SocRun {
            scf: ScfMatrix::zeros(self.max_offset),
            blocks: 0,
            per_tile_cycles: Vec::with_capacity(self.tiles.len()),
            inter_tile_transfers: 0,
            source_inputs: 0,
        }
    }

    /// The closed-form Table-1 breakdown of every tile after `blocks`
    /// integration steps: the `per_tile_cycles` of a full-precision run
    /// over `blocks` blocks in any execution mode.
    fn cycle_breakdowns(&self, blocks: usize) -> impl Iterator<Item = TileCycleBreakdown> + '_ {
        let n = blocks as u64;
        self.steps
            .iter()
            .enumerate()
            .map(move |(tile, step)| TileCycleBreakdown {
                tile,
                multiply_accumulate: n * step.multiply_accumulate,
                read_data: n * step.read_data,
                fft: n * step.fft,
                reshuffling: n * step.reshuffling,
                initialisation: n * step.initialisation,
            })
    }

    /// The critical-path cycles of a run over `blocks` integration steps
    /// ([`SocRun::max_tile_cycles`]), without running it: the platform
    /// cost a sensing session books when it decides from a DSCF that was
    /// already computed for the observation.
    pub fn critical_cycles(&self, blocks: usize) -> u64 {
        self.cycle_breakdowns(blocks)
            .map(|t| t.total())
            .max()
            .unwrap_or(0)
    }

    /// Platform metrics (area, power, bandwidth) given the critical-path
    /// cycles of a previous run.
    pub fn metrics(&self, run: &SocRun) -> PlatformMetrics {
        PlatformMetrics::new(&self.config, run.cycles_per_block(), self.fft_len)
    }

    /// Clears all tile accumulators and counters (both execution paths).
    pub fn reset(&mut self) {
        for tile in &mut self.tiles {
            tile.reset();
        }
        self.blocks_simulated = 0;
        self.blocks_analytic = 0;
        self.inter_tile_transfers = 0;
        self.source_inputs = 0;
    }

    /// The two paths keep separate accumulators, so interleaving them
    /// between resets would normalise each over only a fraction of the
    /// blocks. Refuse instead of silently mis-averaging.
    fn check_path(&self, analytic: bool) -> Result<(), SocError> {
        let mixed = if analytic {
            self.blocks_simulated > 0
        } else {
            self.blocks_analytic > 0
        };
        if mixed {
            return Err(SocError::ExecutionFailure {
                message: "cannot mix the analytic and the simulated execution path in one \
                          accumulation; call reset() before switching"
                    .into(),
            });
        }
        Ok(())
    }

    /// The analytic accumulation, built on first use. (A Q15 platform
    /// never reaches it: construction refuses the combination.)
    fn analytic_path(&mut self) -> Result<&mut AnalyticPath, SocError> {
        if self.analytic.is_none() {
            let engine = ScfEngine::new(ScfParams::new(self.fft_len, self.max_offset, 1)?)?;
            self.analytic = Some(Box::new(AnalyticPath {
                acc: engine.accumulator(),
                spectra: Vec::new(),
                engine,
            }));
        }
        Ok(self.analytic.as_deref_mut().expect("built above"))
    }

    /// Advances the deterministic platform counters by `blocks` analytic
    /// integration steps: per block, each of the `Q − 1` internal
    /// boundaries carries one word per flow per frequency step except the
    /// last (`2·(Q−1)·(F−1)` transfers), and the FFT source feeds both
    /// array ends once per shift (`2·(F−1)` inputs) — the same volumes the
    /// links and source taps of the simulation count.
    fn count_analytic_blocks(&mut self, blocks: usize) {
        let f_count = (2 * self.max_offset + 1) as u64;
        let boundaries = (self.tiles.len() as u64).saturating_sub(1);
        self.inter_tile_transfers += blocks as u64 * 2 * boundaries * (f_count - 1);
        self.source_inputs += blocks as u64 * 2 * (f_count - 1);
        self.blocks_analytic += blocks;
    }

    /// Assembles the [`SocRun`] of the path that accumulated since the last
    /// reset into `out`, reusing its allocations.
    fn fill_run(&mut self, blocks: usize, out: &mut SocRun) -> Result<(), SocError> {
        out.blocks = blocks;
        out.per_tile_cycles.clear();
        if self.blocks_analytic > 0 {
            let path = self
                .analytic
                .as_deref()
                .expect("analytic blocks were accumulated");
            path.engine
                .finalize_accumulator(&path.acc, self.blocks_analytic, &mut out.scf);
            out.per_tile_cycles
                .extend(self.cycle_breakdowns(self.blocks_analytic));
        } else {
            self.gather_scf_into(&mut out.scf)?;
            out.per_tile_cycles
                .extend(self.tiles.iter().map(Tile::cycle_breakdown));
        }
        out.inter_tile_transfers = self.inter_tile_transfers;
        out.source_inputs = self.source_inputs;
        Ok(())
    }

    fn run_block_lockstep(&mut self, samples: &[Cplx]) -> Result<(), SocError> {
        let q_count = self.tiles.len();
        let f_count = 2 * self.max_offset + 1;
        for tile in &mut self.tiles {
            tile.begin_block(samples)?;
        }
        // One FIFO per internal boundary and flow; they carry exactly one
        // word per frequency step.
        let mut conj_links: Vec<QueueLink> = (0..q_count.saturating_sub(1))
            .map(|_| QueueLink::new())
            .collect();
        let mut direct_links: Vec<QueueLink> = (0..q_count.saturating_sub(1))
            .map(|_| QueueLink::new())
            .collect();

        for step in 0..f_count {
            for tile in &mut self.tiles {
                tile.mac_step(step)?;
            }
            if step + 1 == f_count {
                break;
            }
            // Produce boundary values onto the links.
            for q in 0..q_count {
                let (conj_out, direct_out) = self.tiles[q].edge_outputs()?;
                if q + 1 < q_count {
                    conj_links[q].send(StreamWord {
                        value: conj_out,
                        conjugate_flow: true,
                    });
                }
                if q > 0 {
                    direct_links[q - 1].send(StreamWord {
                        value: direct_out,
                        conjugate_flow: false,
                    });
                }
            }
            // Consume and shift.
            for q in 0..q_count {
                let incoming_conj = if q == 0 {
                    self.source_inputs += 1;
                    self.tiles[q].source_conjugate(step + 1)
                } else {
                    conj_links[q - 1]
                        .receive()
                        .expect("conjugate link underflow")
                        .value
                };
                let incoming_direct = if q + 1 == q_count {
                    self.source_inputs += 1;
                    self.tiles[q].source_direct(step + 1)
                } else {
                    direct_links[q]
                        .receive()
                        .expect("direct link underflow")
                        .value
                };
                self.tiles[q].shift_in(incoming_conj, incoming_direct)?;
            }
        }
        for link in conj_links.iter().chain(direct_links.iter()) {
            self.inter_tile_transfers += link.transfers();
        }
        for tile in &mut self.tiles {
            tile.finish_block()?;
        }
        self.blocks_simulated += 1;
        Ok(())
    }

    /// Gathers the simulated tiles' DSCF into `matrix` (resized only if
    /// its grid differs), reading each tile's slice through its reusable
    /// flat gather buffer — no per-task or per-row allocation.
    ///
    /// Tile `q` holds the columns (offsets `a`) of its task slice for every
    /// row (frequency `f`); a task's row of `F` values lands strided at
    /// `values[s·P + first_task + j]`.
    fn gather_scf_into(&mut self, matrix: &mut ScfMatrix) -> Result<(), SocError> {
        let p = 2 * self.max_offset + 1;
        if matrix.max_offset() != self.max_offset {
            *matrix = ScfMatrix::zeros(self.max_offset);
        } else {
            // An errored tile readback must not leave stale values behind.
            matrix.as_mut_slice().fill(Cplx::ZERO);
        }
        let values = matrix.as_mut_slice();
        for tile in &mut self.tiles {
            let first_task = tile.task_set().first_task;
            // The cores normalise at readback, so the values land as-is.
            let flat = tile.results_flat()?;
            for (j, row) in flat.chunks_exact(p).enumerate() {
                let col = first_task + j;
                for (s, &value) in row.iter().enumerate() {
                    values[s * p + col] = value;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::scf::dscf_reference;
    use cfd_dsp::signal::{awgn, modulated_signal, ModulatedSignalSpec};

    fn small_soc(mode: ExecutionMode, tiles: usize) -> TiledSoc {
        let config = SocConfig::paper().with_tiles(tiles).with_mode(mode);
        TiledSoc::new(config, 7, 32).unwrap()
    }

    fn test_signal(blocks: usize) -> (Vec<Cplx>, ScfParams) {
        let params = ScfParams::new(32, 7, blocks).unwrap();
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 17).unwrap();
        (signal, params)
    }

    #[test]
    fn construction_and_accessors() {
        let soc = small_soc(ExecutionMode::Lockstep, 4);
        assert_eq!(soc.num_tiles(), 4);
        assert_eq!(soc.max_offset(), 7);
        assert_eq!(soc.fft_len(), 32);
        assert_eq!(soc.folding().tasks_per_core, 4);
        assert!(TiledSoc::new(SocConfig::paper().with_tiles(0), 7, 32).is_err());
    }

    #[test]
    fn lockstep_run_matches_reference_dscf() {
        let (signal, params) = test_signal(3);
        let reference = dscf_reference(&signal, &params).unwrap();
        let mut soc = small_soc(ExecutionMode::Lockstep, 4);
        let run = soc.run(&signal, 3).unwrap();
        assert!(
            run.scf.max_abs_difference(&reference) < 1e-9,
            "difference {}",
            run.scf.max_abs_difference(&reference)
        );
        assert_eq!(run.blocks, 3);
        assert_eq!(run.per_tile_cycles.len(), 4);
        assert!(run.inter_tile_transfers > 0);
    }

    #[test]
    fn different_tile_counts_give_identical_results() {
        let (signal, params) = test_signal(2);
        let reference = dscf_reference(&signal, &params).unwrap();
        for tiles in [1usize, 2, 3, 4, 5] {
            let mut soc = small_soc(ExecutionMode::Lockstep, tiles);
            let run = soc.run(&signal, 2).unwrap();
            assert!(
                run.scf.max_abs_difference(&reference) < 1e-9,
                "tiles = {tiles}"
            );
        }
    }

    #[test]
    fn communication_volume_matches_the_t_times_lower_rate_claim() {
        let (signal, _) = test_signal(1);
        let mut soc = small_soc(ExecutionMode::Lockstep, 4);
        let run = soc.run(&signal, 1).unwrap();
        let f_count = 15u64;
        // Two flows on each of the 3 internal boundaries, one word per
        // frequency step except the last.
        assert_eq!(run.inter_tile_transfers, 2 * 3 * (f_count - 1));
        // Per tile and per flow, transfers are F-1 while MACs are T*F: the
        // ratio is ~T.
        let macs = run.per_tile_cycles[0].multiply_accumulate / 3; // 3 cycles per MAC
        let transfers_per_flow = f_count - 1;
        let ratio = macs as f64 / transfers_per_flow as f64;
        let t = soc.folding().tasks_per_core as f64;
        assert!((ratio - t * f_count as f64 / (f_count - 1) as f64).abs() < 0.5);
    }

    #[test]
    fn paper_platform_cycle_budget_and_metrics() {
        let mut soc = TiledSoc::paper().unwrap();
        let signal = awgn(256, 1.0, 4);
        let run = soc.run(&signal, 1).unwrap();
        // The critical tile reproduces Table 1 exactly.
        assert_eq!(run.max_tile_cycles(), 13_996);
        assert_eq!(run.cycles_per_block(), 13_996);
        let metrics = soc.metrics(&run);
        assert!((metrics.time_per_block_us - 139.96).abs() < 1e-9);
        assert!((metrics.area_mm2 - 8.0).abs() < 1e-12);
        assert!((metrics.power_mw - 200.0).abs() < 1e-9);
        assert!((metrics.analysed_bandwidth_khz - 915.0).abs() < 1.0);
    }

    #[test]
    fn analytic_run_is_bit_identical_to_lockstep() {
        let (signal, _) = test_signal(3);
        let mut lockstep = small_soc(ExecutionMode::Lockstep, 4);
        let mut analytic = small_soc(ExecutionMode::Analytic, 4);
        let run_a = lockstep.run(&signal, 3).unwrap();
        let run_b = analytic.run(&signal, 3).unwrap();
        assert_eq!(run_a.scf.max_abs_difference(&run_b.scf), 0.0);
        assert_eq!(run_a.per_tile_cycles, run_b.per_tile_cycles);
        assert_eq!(run_a.inter_tile_transfers, run_b.inter_tile_transfers);
        assert_eq!(run_a.source_inputs, run_b.source_inputs);
        assert_eq!(run_a.blocks, run_b.blocks);
        // The closed forms a sensing session books without running.
        assert_eq!(
            analytic.cycle_breakdowns(3).collect::<Vec<_>>(),
            run_a.per_tile_cycles
        );
        assert_eq!(analytic.critical_cycles(3), run_a.max_tile_cycles());
    }

    #[test]
    fn analytic_accumulates_across_runs_like_lockstep() {
        // Without a reset, a second run keeps integrating: blocks 0-1 then
        // block 2 normalise over all three, on both paths, bit for bit.
        let (signal, _) = test_signal(3);
        let mut lockstep = small_soc(ExecutionMode::Lockstep, 4);
        let mut analytic = small_soc(ExecutionMode::Analytic, 4);
        for soc in [&mut lockstep, &mut analytic] {
            soc.run(&signal, 2).unwrap();
        }
        let run_a = lockstep.run(&signal[64..], 1).unwrap();
        let run_b = analytic.run(&signal[64..], 1).unwrap();
        assert_eq!(run_a.scf.as_slice(), run_b.scf.as_slice());
        assert_eq!(run_a.per_tile_cycles, run_b.per_tile_cycles);
        assert_eq!(run_a.inter_tile_transfers, run_b.inter_tile_transfers);
    }

    #[test]
    fn run_from_spectra_matches_the_analytic_run() {
        use cfd_dsp::scf::ScfEngine;
        let (signal, params) = test_signal(3);
        let engine = ScfEngine::new(params).unwrap();
        let spectra = engine.compute_spectra(&signal).unwrap();
        let mut from_samples = small_soc(ExecutionMode::Analytic, 4);
        let mut from_spectra = small_soc(ExecutionMode::Lockstep, 4);
        let run_a = from_samples.run(&signal, 3).unwrap();
        // `run_from_spectra` works whatever the configured mode — the mode
        // only selects what `run` does with raw samples.
        let run_b = from_spectra.run_from_spectra(&spectra).unwrap();
        assert_eq!(run_a.scf.max_abs_difference(&run_b.scf), 0.0);
        assert_eq!(run_a.per_tile_cycles, run_b.per_tile_cycles);
        assert_eq!(run_a.inter_tile_transfers, run_b.inter_tile_transfers);
        assert_eq!(run_a.source_inputs, run_b.source_inputs);
        // Wrong-length blocks are rejected, not panicked on or truncated:
        // a longer buffer would be a different FFT size's spectrum.
        from_spectra.reset();
        for wrong in [8usize, 64] {
            let blocks = vec![vec![Cplx::ZERO; wrong]];
            assert!(
                matches!(
                    from_spectra.run_from_spectra(&blocks),
                    Err(SocError::Dsp(_))
                ),
                "block length {wrong} must be rejected"
            );
        }
    }

    #[test]
    fn analytic_mode_refuses_a_q15_platform() {
        // The 16-bit accumulator quantisation exists only in the
        // cycle-accurate datapath; Analytic + Q15 would silently diverge.
        let q15 = montium_sim::MontiumConfig::paper().with_q15();
        let analytic = SocConfig::paper()
            .with_tile_config(q15.clone())
            .with_mode(ExecutionMode::Analytic);
        assert!(matches!(
            TiledSoc::new(analytic, 7, 32),
            Err(SocError::InvalidConfiguration { .. })
        ));
        // The lockstep simulation keeps accepting Q15.
        let lockstep = SocConfig::paper().with_tile_config(q15);
        assert!(TiledSoc::new(lockstep, 7, 32).is_ok());
    }

    #[test]
    fn analytic_paper_platform_reproduces_table1() {
        let config = SocConfig::paper().with_mode(ExecutionMode::Analytic);
        let mut soc = TiledSoc::new(config, 63, 256).unwrap();
        let signal = awgn(256, 1.0, 4);
        let run = soc.run(&signal, 1).unwrap();
        assert_eq!(run.max_tile_cycles(), 13_996);
        let metrics = soc.metrics(&run);
        assert!((metrics.time_per_block_us - 139.96).abs() < 1e-9);
    }

    #[test]
    fn switching_paths_without_reset_is_refused() {
        let (signal, params) = test_signal(2);
        let mut soc = small_soc(ExecutionMode::Lockstep, 2);
        soc.run(&signal, 1).unwrap();
        let engine = cfd_dsp::scf::ScfEngine::new(params).unwrap();
        let spectra = engine.compute_spectra(&signal).unwrap();
        assert!(matches!(
            soc.run_from_spectra(&spectra),
            Err(SocError::ExecutionFailure { .. })
        ));
        // After a reset the fast path is available again — and then the
        // simulated path is the refused one.
        soc.reset();
        soc.run_from_spectra(&spectra).unwrap();
        assert!(matches!(
            soc.run(&signal, 1),
            Err(SocError::ExecutionFailure { .. })
        ));
    }

    #[test]
    fn run_into_reuses_the_caller_buffers() {
        let (signal, _) = test_signal(2);
        let mut soc = small_soc(ExecutionMode::Analytic, 3);
        let mut scratch = soc.empty_run();
        soc.run_into(&signal, 2, &mut scratch).unwrap();
        let first = scratch.clone();
        soc.reset();
        soc.run_into(&signal, 2, &mut scratch).unwrap();
        assert_eq!(first, scratch);
        assert_eq!(scratch.per_tile_cycles.len(), 3);
    }

    #[test]
    fn run_rejects_short_signals() {
        let mut soc = small_soc(ExecutionMode::Lockstep, 2);
        let signal = awgn(40, 1.0, 1);
        assert!(matches!(soc.run(&signal, 2), Err(SocError::Dsp(_))));
    }

    #[test]
    fn reset_clears_accumulation() {
        let (signal, _) = test_signal(1);
        let mut soc = small_soc(ExecutionMode::Lockstep, 2);
        let first = soc.run(&signal, 1).unwrap();
        soc.reset();
        let second = soc.run(&signal, 1).unwrap();
        assert!(first.scf.max_abs_difference(&second.scf) < 1e-12);
        assert_eq!(first.inter_tile_transfers, second.inter_tile_transfers);
    }

    #[test]
    fn runs_and_resets_never_reconfigure() {
        let (signal, _) = test_signal(1);
        let mut soc = small_soc(ExecutionMode::Lockstep, 2);
        assert_eq!(soc.configurations(), 1);
        for _ in 0..5 {
            soc.reset();
            soc.run(&signal, 1).unwrap();
        }
        assert_eq!(soc.configurations(), 1);
    }
}
