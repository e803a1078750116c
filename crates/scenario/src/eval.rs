//! Detector evaluation over SNR sweeps: Monte-Carlo Pd/Pfa estimation and
//! ROC tables, executed by a parallel batched sweep engine over the open
//! [`SensingBackend`] surface.
//!
//! The harness runs any roster of [`BackendRecipe`]s — the built-in
//! [`EnergyDetector`](cfd_dsp::detector::EnergyDetector) baseline, the
//! golden-model
//! [`CyclostationaryDetector`](cfd_dsp::detector::CyclostationaryDetector),
//! the full tiled-SoC sensing path (a
//! [`SessionRecipe`](cfd_core::backend::SessionRecipe) opening a
//! `SensingSession` per worker), or any
//! user-defined backend — over a [`RadioScenario`] at each SNR of a sweep,
//! and tabulates the detection probability `Pd` (decide "occupied" under
//! H1) and false-alarm probability `Pfa` (decide "occupied" under H0) per
//! backend and SNR. Sweeps are described and launched by [`SweepBuilder`].
//!
//! ## Execution model
//!
//! Backends are stateful (the SoC path owns a whole simulated platform),
//! so the sweep is described by recipes rather than backend instances:
//! every worker builds its own replica of each backend once and evaluates
//! trial-chunk cells from one queue. A cell covers its trials across the
//! shared H0 pass and every SNR point: each trial's clean signal and
//! channel noise are drawn once into the worker's [`TrialDraw`]
//! ([`RadioScenario::draw_trial`]) and combined into the H0 observation
//! and the H1 observation at every SNR point
//! ([`RadioScenario::observe_drawn`]) — bit for bit the samples
//! [`RadioScenario::observe`] returns, at one noise draw and one signal
//! draw per trial instead of one per observation. A one-worker sweep runs
//! the cells in queue order on the calling thread; more workers take them
//! from crossbeam channels inside a [`std::thread::scope`].
//!
//! Determinism is preserved under any scheduling: observations are seeded
//! by trial index (common random numbers), decisions are independent
//! booleans, and the per-cell detection counts are merged by integer
//! addition — so the table is bit-identical for every worker count.
//!
//! ## Shared block spectra
//!
//! The dominant cost of a CFD trial is the windowed FFT + DSCF pipeline,
//! and the block spectra (eq. 2) depend only on the observation and the
//! [`ScfParams`] — not on a backend's threshold or guard zone. Each worker
//! therefore owns one reusable [`Observation`] and lets every backend
//! decide through it: the spectra **and** the integrated DSCF are computed
//! **once per trial** per distinct `ScfParams` and cached inside the
//! observation, where every golden-model CFD replica — and every analytic
//! full-precision SoC replica, which thresholds the cached cyclic profile
//! — reuses them. The energy detector's statistic is time-domain power (it
//! never ran an FFT), and a lockstep or Q15 SoC
//! replica computes its own on-tile spectra by design — those read the raw
//! samples. The global `core.observation.spectra_computations` counter in
//! [`cfd_telemetry::registry`] lets tests pin the once-per-trial contract.

use crate::channel::mix_seed;
use crate::error::ScenarioError;
use crate::scenario::{Hypothesis, RadioScenario, TrialDraw};
use cfd_core::backend::{BackendRecipe, Observation, SensingBackend};
use cfd_dsp::detector::feature_statistic_from_profile;
use cfd_dsp::scf::{ScfEngine, ScfParams};
use cfd_dsp::signal::awgn;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Cached handles to the sweep-engine instruments: whole-run and per-cell
/// stage histograms, queue-wait time (how long a worker sat blocked on the
/// cell queue), and throughput counters.
struct SweepInstruments {
    run_ns: cfd_telemetry::Histogram,
    queue_wait_ns: cfd_telemetry::Histogram,
    cell_ns: cfd_telemetry::Histogram,
    cells: cfd_telemetry::Counter,
    trials: cfd_telemetry::Counter,
    workers: cfd_telemetry::Gauge,
}

fn sweep_instruments() -> &'static SweepInstruments {
    static INSTRUMENTS: OnceLock<SweepInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| SweepInstruments {
        run_ns: cfd_telemetry::histogram("scenario.sweep.run_ns"),
        queue_wait_ns: cfd_telemetry::histogram("scenario.sweep.queue_wait_ns"),
        cell_ns: cfd_telemetry::histogram("scenario.sweep.cell_ns"),
        cells: cfd_telemetry::counter("scenario.sweep.cells"),
        trials: cfd_telemetry::counter("scenario.sweep.trials"),
        workers: cfd_telemetry::gauge("scenario.sweep.workers"),
    })
}

/// The SNR sweep a scenario is evaluated over.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SnrSweep {
    /// The SNR points in dB.
    pub snr_points_db: Vec<f64>,
    /// Monte-Carlo trials per SNR point and hypothesis.
    pub trials: usize,
}

impl SnrSweep {
    /// Creates a sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for an empty point list,
    /// a NaN or infinite point, or zero trials.
    pub fn new(snr_points_db: Vec<f64>, trials: usize) -> Result<Self, ScenarioError> {
        let sweep = SnrSweep {
            snr_points_db,
            trials,
        };
        sweep.validate()?;
        Ok(sweep)
    }

    /// What [`SnrSweep::new`] checks. The fields are public (and
    /// deserialisation bypasses `new`), so [`SweepBuilder::run`] checks
    /// again.
    fn validate(&self) -> Result<(), ScenarioError> {
        if self.snr_points_db.is_empty() {
            return Err(ScenarioError::InvalidParameter {
                name: "snr_points_db",
                message: "sweep needs at least one SNR point".into(),
            });
        }
        if let Some(point) = self.snr_points_db.iter().find(|point| !point.is_finite()) {
            return Err(ScenarioError::InvalidParameter {
                name: "snr_points_db",
                message: format!("SNR points must be finite, got {point}"),
            });
        }
        if self.trials == 0 {
            return Err(ScenarioError::InvalidParameter {
                name: "trials",
                message: "sweep needs at least one trial".into(),
            });
        }
        Ok(())
    }

    /// An evenly spaced sweep from `from_db` to `to_db` (inclusive).
    ///
    /// # Errors
    ///
    /// Propagates [`SnrSweep::new`] validation.
    pub fn linspace(
        from_db: f64,
        to_db: f64,
        points: usize,
        trials: usize,
    ) -> Result<Self, ScenarioError> {
        if points < 2 {
            return Err(ScenarioError::InvalidParameter {
                name: "points",
                message: "linspace needs at least 2 points".into(),
            });
        }
        let step = (to_db - from_db) / (points - 1) as f64;
        SnrSweep::new(
            (0..points).map(|i| from_db + step * i as f64).collect(),
            trials,
        )
    }
}

/// One `(SNR, detector)` operating point of a sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RocRow {
    /// SNR of the H1 trials in dB.
    pub snr_db: f64,
    /// Backend label ([`BackendRecipe::label`], disambiguated with
    /// `#index` when duplicated).
    pub detector: String,
    /// Estimated probability of detection.
    pub pd: f64,
    /// Estimated probability of false alarm.
    pub pfa: f64,
    /// Trials per hypothesis behind the estimates.
    pub trials: usize,
}

impl RocRow {
    /// Balanced accuracy `(Pd + (1 - Pfa)) / 2`: 1.0 is a perfect
    /// detector, 0.5 is a coin flip — and, importantly, a detector whose
    /// false alarms explode scores 0.5 *even if its Pd is 1*, which is
    /// exactly how an uncalibrated energy detector fails.
    pub fn balanced_accuracy(&self) -> f64 {
        (self.pd + 1.0 - self.pfa) / 2.0
    }
}

/// The Pd/Pfa table produced by [`SweepBuilder::run`].
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct RocTable {
    /// One row per `(SNR point, detector)`.
    pub rows: Vec<RocRow>,
}

impl RocTable {
    /// The distinct detector labels, in first-appearance order.
    pub fn detectors(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for row in &self.rows {
            if !labels.contains(&row.detector) {
                labels.push(row.detector.clone());
            }
        }
        labels
    }

    /// `(snr_db, pd)` pairs of one detector, sorted by SNR.
    pub fn pd_series(&self, detector: &str) -> Vec<(f64, f64)> {
        let mut series: Vec<(f64, f64)> = self
            .rows
            .iter()
            .filter(|r| r.detector == detector)
            .map(|r| (r.snr_db, r.pd))
            .collect();
        series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite SNR"));
        series
    }

    /// The row of one detector at one SNR point, if present.
    ///
    /// `snr_db` is matched by exact `f64` equality: pass a value taken
    /// from the sweep's `snr_points_db` (or a row), not one recomputed
    /// with different floating-point arithmetic.
    pub fn row(&self, detector: &str, snr_db: f64) -> Option<&RocRow> {
        self.rows
            .iter()
            .find(|r| r.detector == detector && r.snr_db == snr_db)
    }

    /// Renders an aligned text table, grouped by SNR.
    pub fn render(&self) -> String {
        let mut out = String::from("snr [dB]  detector     Pd     Pfa   balanced accuracy\n");
        let mut snrs: Vec<f64> = Vec::new();
        for row in &self.rows {
            if !snrs.contains(&row.snr_db) {
                snrs.push(row.snr_db);
            }
        }
        snrs.sort_by(|a, b| a.partial_cmp(b).expect("finite SNR"));
        for &snr in &snrs {
            for row in self.rows.iter().filter(|r| r.snr_db == snr) {
                out.push_str(&format!(
                    "{snr:>8.1}  {:<9} {:>5.2}  {:>6.2}  {:>8.2}\n",
                    row.detector,
                    row.pd,
                    row.pfa,
                    row.balanced_accuracy()
                ));
            }
        }
        out
    }

    /// Renders the table as a JSON document
    /// (`{"schema":2,"rows":[{"snr_db":…,"detector":…,"pd":…,"pfa":…,"trials":…},…]}`),
    /// for machine-readable sweep results. The `schema` field
    /// ([`ROC_JSON_SCHEMA`]) versions the document so tooling that reads
    /// it can detect format changes; detector labels — which are arbitrary
    /// strings now that third-party backends name themselves — are escaped
    /// per RFC 8259 (quotes, backslashes, control characters) via
    /// [`cfd_telemetry::json`]. The vendored `serde` is a marker-only
    /// stand-in, so the encoding is done here; the derives keep the types
    /// drop-in ready for the real `serde_json` once the build environment
    /// gains network access.
    pub fn to_json(&self) -> String {
        use cfd_telemetry::json::{escape, number};
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    "{{\"snr_db\":{},\"detector\":\"{}\",\"pd\":{},\"pfa\":{},\"trials\":{}}}",
                    number(row.snr_db),
                    escape(&row.detector),
                    number(row.pd),
                    number(row.pfa),
                    row.trials
                )
            })
            .collect();
        format!(
            "{{\"schema\":{ROC_JSON_SCHEMA},\"rows\":[{}]}}",
            rows.join(",")
        )
    }
}

/// Schema version of [`RocTable::to_json`] documents; bumped whenever the
/// document's shape changes.
pub const ROC_JSON_SCHEMA: u64 = 2;

/// Builds and runs an SNR sweep over any roster of [`SensingBackend`]s.
///
/// The scenario, the sweep, the backend roster and the worker count are
/// named, and the roster is *open* — any type implementing
/// [`BackendRecipe`] joins the parallel engine, so a detector defined
/// outside this workspace participates in ROC sweeps without touching any
/// crate here. Calibrated `Clone + Sync` backends (e.g.
/// [`EnergyDetector`](cfd_dsp::detector::EnergyDetector),
/// [`CyclostationaryDetector`](cfd_dsp::detector::CyclostationaryDetector))
/// are their own recipes and can be passed directly; the tiled-SoC path is
/// described by a [`SessionRecipe`](cfd_core::backend::SessionRecipe).
///
/// # Examples
///
/// ```
/// use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
/// use cfd_dsp::scf::ScfParams;
/// use cfd_scenario::prelude::*;
///
/// # fn main() -> Result<(), ScenarioError> {
/// let params = ScfParams::new(32, 7, 16)?;
/// let scenario =
///     RadioScenario::preset("bpsk-awgn", params.samples_needed()).expect("built-in preset");
/// let table = SweepBuilder::new(&scenario)
///     .sweep(SnrSweep::new(vec![-5.0, 5.0], 4)?)
///     .backend(EnergyDetector::new(1.0, 0.1, params.samples_needed())?)
///     .backend(CyclostationaryDetector::new(params, 0.35, 1)?)
///     .workers(2)
///     .run()?;
/// assert_eq!(table.detectors(), vec!["energy".to_string(), "cfd".into()]);
/// # Ok(())
/// # }
/// ```
pub struct SweepBuilder<'a> {
    scenario: &'a RadioScenario,
    sweep: Option<SnrSweep>,
    recipes: Vec<Box<dyn BackendRecipe + 'a>>,
    workers: Option<usize>,
}

impl fmt::Debug for SweepBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepBuilder")
            .field("scenario", &self.scenario.name)
            .field("sweep", &self.sweep)
            .field(
                "backends",
                &self.recipes.iter().map(|r| r.label()).collect::<Vec<_>>(),
            )
            .field("workers", &self.workers)
            .finish()
    }
}

impl<'a> SweepBuilder<'a> {
    /// Starts a sweep description over `scenario`.
    pub fn new(scenario: &'a RadioScenario) -> Self {
        SweepBuilder {
            scenario,
            sweep: None,
            recipes: Vec::new(),
            workers: None,
        }
    }

    /// The SNR points and trial count to evaluate (required).
    pub fn sweep(mut self, sweep: SnrSweep) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// Adds one backend to the roster (at least one is required). Every
    /// worker thread builds its own replica from the recipe; row order in
    /// the resulting [`RocTable`] follows insertion order.
    pub fn backend(mut self, recipe: impl BackendRecipe + 'a) -> Self {
        self.recipes.push(Box::new(recipe));
        self
    }

    /// Explicit worker count. Defaults to the available parallelism; `1`
    /// runs every cell on the calling thread, spawning none. The table is
    /// bit-identical for every worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Runs the sweep: every backend over every SNR point, `trials`
    /// H1 observations per point (common random numbers across points)
    /// plus one shared H0 pass (vacant observations do not depend on the
    /// SNR target — [`RadioScenario::at_snr`] only rescales the
    /// licensed-user signal — so each backend's false-alarm count is
    /// measured once and shared by every SNR row).
    ///
    /// The sweep and every retargeted channel are validated before any
    /// backend decides, so a NaN or infinite SNR point fails the run
    /// instead of scaling observations by NaN.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] when no sweep or no
    /// backends were given, or for an invalid sweep or channel; propagates
    /// observation, replica-construction and decision errors.
    pub fn run(&self) -> Result<RocTable, ScenarioError> {
        let sweep = self.sweep.as_ref().ok_or(ScenarioError::InvalidParameter {
            name: "sweep",
            message: "SweepBuilder needs an SnrSweep (SweepBuilder::sweep)".into(),
        })?;
        sweep.validate()?;
        if self.recipes.is_empty() {
            return Err(ScenarioError::InvalidParameter {
                name: "backends",
                message: "SweepBuilder needs at least one backend (SweepBuilder::backend)".into(),
            });
        }
        let recipes: Vec<&dyn BackendRecipe> =
            self.recipes.iter().map(|recipe| &**recipe).collect();
        sweep_over_recipes(
            self.scenario,
            sweep,
            &recipes,
            self.workers.unwrap_or_else(default_workers),
        )
    }
}

/// The worker count used when none is requested explicitly.
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One unit of sweep work: a chunk of consecutive trials, each observed
/// under H0 and under H1 at every SNR point of the sweep.
#[derive(Debug, Clone, Copy)]
struct SweepCell {
    first_trial: usize,
    trials: usize,
}

impl SweepCell {
    /// Deterministic ordering key, used to pick a stable error when several
    /// cells fail (category 1; category 0 is reserved for replica-build
    /// failures, which a one-worker sweep hits before any cell).
    fn order(&self) -> (usize, usize) {
        (1, self.first_trial)
    }
}

/// What a worker sends back per cell (or on failure).
enum WorkerMessage {
    /// Positives per row and backend over the cell's trials (see
    /// [`evaluate_cell`]).
    Counts(Vec<usize>),
    /// A replica-build or evaluation failure.
    Failure {
        order: (usize, usize),
        error: ScenarioError,
    },
}

/// A worker's buffers, reused across trials and cells: the trial draw,
/// the combined samples and the observation every backend decides on.
#[derive(Default)]
struct Scratch {
    draw: TrialDraw,
    observation: Observation,
}

/// Builds one replica per recipe, in roster order.
fn build_replicas(
    recipes: &[&dyn BackendRecipe],
) -> Result<Vec<Box<dyn SensingBackend + Send>>, ScenarioError> {
    recipes
        .iter()
        .map(|recipe| recipe.build().map_err(ScenarioError::from))
        .collect()
}

/// The sweep engine: every backend over every SNR point, as a queue of
/// trial-chunk cells, each covering the H0 pass and every SNR point for
/// its trials. At `workers <= 1` the cells run in queue order on the
/// calling thread (no thread, no channel); otherwise they are distributed
/// over scoped worker threads. Bit-identical for every worker count.
fn sweep_over_recipes(
    scenario: &RadioScenario,
    sweep: &SnrSweep,
    recipes: &[&dyn BackendRecipe],
    workers: usize,
) -> Result<RocTable, ScenarioError> {
    let labels = recipe_labels(recipes);
    let points = sweep.snr_points_db.len();
    let scenarios_at: Vec<RadioScenario> = sweep
        .snr_points_db
        .iter()
        .map(|&snr| scenario.at_snr(snr))
        .collect();
    // Every channel a cell combines through is checked once, here, before
    // any backend decides.
    for source in std::iter::once(scenario).chain(&scenarios_at) {
        source.channel.validate()?;
    }

    // Chunk trials so each worker streams a meaningful batch through its
    // replicas per queue pop, while keeping enough cells for load
    // balancing.
    let chunk = sweep.trials.div_ceil(workers.max(1) * 4).max(1);
    let mut cells = Vec::new();
    let mut first_trial = 0;
    while first_trial < sweep.trials {
        let trials = chunk.min(sweep.trials - first_trial);
        cells.push(SweepCell {
            first_trial,
            trials,
        });
        first_trial += trials;
    }
    // Replica construction is not free (a SoC replica is a whole simulated
    // platform), so never spawn more workers than there are cells to
    // process.
    let workers = workers.clamp(1, cells.len().max(1));
    let instruments = sweep_instruments();
    instruments.workers.set(workers as f64);
    let _run_span = instruments.run_ns.start_timer();

    // Row 0 is the shared H0 pass, row `p + 1` SNR point `p`; each row
    // holds one count per backend.
    let mut counts = vec![0usize; (points + 1) * recipes.len()];
    let mut merge = |positives: Vec<usize>| {
        for (count, positive) in counts.iter_mut().zip(positives) {
            *count += positive;
        }
    };
    let assemble = |counts: &[usize]| {
        let mut rows = counts.chunks(recipes.len()).map(<[usize]>::to_vec);
        let false_alarms = rows.next().expect("the H0 row");
        let detections: Vec<Vec<usize>> = rows.collect();
        assemble_table(sweep, &labels, &false_alarms, &detections)
    };
    if workers == 1 {
        let mut replicas = build_replicas(recipes)?;
        let mut scratch = Scratch::default();
        for cell in cells {
            merge(evaluate_cell(
                scenario,
                &scenarios_at,
                &mut replicas,
                &mut scratch,
                cell,
            )?);
        }
        return Ok(assemble(&counts));
    }

    let (cell_tx, cell_rx) = crossbeam::channel::unbounded::<SweepCell>();
    let (out_tx, out_rx) = crossbeam::channel::unbounded::<WorkerMessage>();
    for cell in cells {
        cell_tx.send(cell).expect("receiver alive");
    }
    drop(cell_tx);
    let mut failure: Option<((usize, usize), ScenarioError)> = None;
    let failed = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let cell_rx = cell_rx.clone();
            let out_tx = out_tx.clone();
            let scenarios_at = &scenarios_at;
            let failed = &failed;
            scope.spawn(move || {
                let mut replicas = match build_replicas(recipes) {
                    Ok(replicas) => replicas,
                    Err(error) => {
                        failed.store(true, std::sync::atomic::Ordering::Relaxed);
                        let _ = out_tx.send(WorkerMessage::Failure {
                            order: (0, 0),
                            error,
                        });
                        return;
                    }
                };
                let mut scratch = Scratch::default();
                loop {
                    let queue_wait = instruments.queue_wait_ns.start_timer();
                    let Ok(cell) = cell_rx.recv() else { break };
                    drop(queue_wait);
                    // The sweep already failed: drain the queue without
                    // paying for cells whose counts would be discarded.
                    if failed.load(std::sync::atomic::Ordering::Relaxed) {
                        continue;
                    }
                    let message = match evaluate_cell(
                        scenario,
                        scenarios_at,
                        &mut replicas,
                        &mut scratch,
                        cell,
                    ) {
                        Ok(positives) => WorkerMessage::Counts(positives),
                        Err(error) => {
                            failed.store(true, std::sync::atomic::Ordering::Relaxed);
                            WorkerMessage::Failure {
                                order: cell.order(),
                                error,
                            }
                        }
                    };
                    if out_tx.send(message).is_err() {
                        return;
                    }
                }
            });
        }
        drop(out_tx);
        // Merge as results arrive. Counts are integers and addition is
        // commutative, so the merged table does not depend on arrival
        // order. Among the failures observed before the early abort, the
        // one with the smallest cell order is reported (the successful
        // table is always deterministic; the identity of the reported
        // error may vary when several cells fail close together).
        while let Ok(message) = out_rx.recv() {
            match message {
                WorkerMessage::Counts(positives) => merge(positives),
                WorkerMessage::Failure { order, error } => {
                    if failure.as_ref().is_none_or(|(held, _)| order < *held) {
                        failure = Some((order, error));
                    }
                }
            }
        }
    });
    if let Some((_, error)) = failure {
        return Err(error);
    }
    Ok(assemble(&counts))
}

/// Evaluates one work cell on a worker's replicas. Each trial of the cell
/// is drawn once — its clean signal and its channel noise — and combined
/// into the H0 observation and the H1 observation at every SNR point, in
/// that order ([`RadioScenario::observe_drawn`], bit for bit what
/// [`RadioScenario::observe`] returns). Each observation is written
/// straight into the worker's reusable [`Observation`]
/// ([`Observation::load_with`]) and every backend decides on it,
/// so the block spectra (and the DSCF) are computed once per observation,
/// not once per replica, into buffers the worker keeps across cells.
/// Returns the positive-decision counts, row-major: row 0 is H0, row
/// `p + 1` SNR point `p`, one count per backend. The cell is timed and
/// counted even when it fails; the first error in trial order — and
/// within a trial H0, point 0, point 1, … — is returned.
fn evaluate_cell(
    scenario: &RadioScenario,
    scenarios_at: &[RadioScenario],
    replicas: &mut [Box<dyn SensingBackend + Send>],
    scratch: &mut Scratch,
    cell: SweepCell,
) -> Result<Vec<usize>, ScenarioError> {
    let instruments = sweep_instruments();
    let _cell_span = instruments.cell_ns.start_timer();
    instruments.cells.increment();
    let rows = scenarios_at.len() + 1;
    instruments.trials.add((rows * cell.trials) as u64);
    let mut positives = vec![0usize; rows * replicas.len()];
    let Scratch { draw, observation } = scratch;
    for trial in cell.first_trial..cell.first_trial + cell.trials {
        scenario.draw_trial(Hypothesis::Occupied, trial, draw)?;
        let sources = std::iter::once((scenario, Hypothesis::Vacant))
            .chain(scenarios_at.iter().map(|at| (at, Hypothesis::Occupied)));
        for ((source, hypothesis), row) in sources.zip(positives.chunks_mut(replicas.len())) {
            observation.load_with(|buffer| source.observe_drawn(draw, hypothesis, buffer))?;
            for (positive, backend) in row.iter_mut().zip(replicas.iter_mut()) {
                if backend.decide(observation)?.is_signal() {
                    *positive += 1;
                }
            }
        }
    }
    Ok(positives)
}

/// Builds the final table from merged counts, in deterministic
/// `(snr point, detector)` order.
fn assemble_table(
    sweep: &SnrSweep,
    labels: &[String],
    false_alarms: &[usize],
    detections: &[Vec<usize>],
) -> RocTable {
    let mut rows = Vec::with_capacity(sweep.snr_points_db.len() * labels.len());
    for (point, &snr_db) in sweep.snr_points_db.iter().enumerate() {
        for (index, label) in labels.iter().enumerate() {
            rows.push(RocRow {
                snr_db,
                detector: label.clone(),
                pd: detections[point][index] as f64 / sweep.trials as f64,
                pfa: false_alarms[index] as f64 / sweep.trials as f64,
                trials: sweep.trials,
            });
        }
    }
    RocTable { rows }
}

/// Row labels for a backend roster: the plain [`BackendRecipe::label`]
/// when unique, `label#index` when several backends of the same kind run
/// in one sweep — otherwise [`RocTable::row`] and [`RocTable::pd_series`]
/// would silently merge their rows.
fn recipe_labels(recipes: &[&dyn BackendRecipe]) -> Vec<String> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for recipe in recipes {
        *counts.entry(recipe.label()).or_insert(0) += 1;
    }
    recipes
        .iter()
        .enumerate()
        .map(|(index, recipe)| {
            let base = recipe.label();
            if counts[&base] > 1 {
                format!("{base}#{index}")
            } else {
                base
            }
        })
        .collect()
}

/// Calibrates a threshold for the cyclostationary feature statistic at a
/// target false-alarm rate, by Monte-Carlo under nominal (unit-power)
/// noise.
///
/// Because the CFD statistic is scale invariant, a threshold calibrated at
/// the nominal noise floor stays valid when the actual floor differs —
/// the property that breaks the energy detector's analytic threshold.
///
/// # Errors
///
/// Propagates DSCF errors; rejects a target Pfa outside `(0, 1)`, zero
/// trials, or a target below the Monte-Carlo resolution `1/trials` (which
/// could only be "met" by silently over-shooting the false-alarm budget).
pub fn calibrate_cfd_threshold(
    params: &ScfParams,
    guard_offsets: usize,
    target_pfa: f64,
    trials: usize,
    seed: u64,
) -> Result<f64, ScenarioError> {
    if !(target_pfa > 0.0 && target_pfa < 1.0) {
        return Err(ScenarioError::InvalidParameter {
            name: "target_pfa",
            message: format!("must be in (0, 1), got {target_pfa}"),
        });
    }
    if trials > 0 && target_pfa < 1.0 / trials as f64 {
        return Err(ScenarioError::InvalidParameter {
            name: "target_pfa",
            message: format!(
                "{target_pfa} is below the Monte-Carlo resolution 1/{trials}; \
                 increase `trials` to calibrate this false-alarm rate"
            ),
        });
    }
    if trials == 0 {
        return Err(ScenarioError::InvalidParameter {
            name: "trials",
            message: "calibration needs at least one trial".into(),
        });
    }
    // The engine is bit-identical to `dscf_reference`, so thresholds
    // calibrated here are exactly the thresholds the golden model implies;
    // the spectra and profile allocations are reused across all trials.
    let engine = ScfEngine::new(params.clone())?;
    let mut spectra = Vec::new();
    let mut profile = Vec::new();
    let mut statistics = Vec::with_capacity(trials);
    for trial in 0..trials {
        let noise = awgn(
            params.samples_needed(),
            1.0,
            mix_seed(seed, 0xCA11_B8A7 ^ trial as u64),
        );
        engine.compute_spectra_into(&noise, &mut spectra)?;
        engine.cyclic_profile_from_spectra_into(&spectra, &mut profile);
        statistics.push(feature_statistic_from_profile(&profile, guard_offsets));
    }
    statistics.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    // The (1 - Pfa) empirical quantile of the H0 statistic: pick the order
    // statistic that leaves `round(Pfa * trials)` values strictly above it
    // (detectors decide on `statistic > threshold`). The `- 1` cannot
    // underflow: `(1 - Pfa) * trials` is strictly positive (Pfa < 1,
    // trials >= 1), so its ceil is >= 1.
    let index = ((((1.0 - target_pfa) * trials as f64).ceil() as usize) - 1).min(trials - 1);
    Ok(statistics[index])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_core::app::{CfdApplication, Platform};
    use cfd_core::backend::{Decision, SessionRecipe};
    use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    fn small_scenario() -> RadioScenario {
        RadioScenario::preset(
            "bpsk-awgn",
            ScfParams::new(32, 7, 32).unwrap().samples_needed(),
        )
        .unwrap()
        .with_seed(5)
    }

    fn cfd(threshold: f64) -> CyclostationaryDetector {
        CyclostationaryDetector::new(ScfParams::new(32, 7, 32).unwrap(), threshold, 1).unwrap()
    }

    fn soc_recipe(threshold: f64) -> SessionRecipe {
        SessionRecipe::new(
            CfdApplication::new(32, 7, 32).unwrap(),
            &Platform::paper(),
            threshold,
            1,
        )
    }

    #[test]
    fn sweep_validation() {
        assert!(SnrSweep::new(vec![], 10).is_err());
        assert!(SnrSweep::new(vec![0.0], 0).is_err());
        assert!(SnrSweep::linspace(0.0, 10.0, 1, 5).is_err());
        let sweep = SnrSweep::linspace(-6.0, 6.0, 5, 3).unwrap();
        assert_eq!(sweep.snr_points_db.len(), 5);
        assert!((sweep.snr_points_db[1] + 3.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_builder_validates_its_inputs() {
        let scenario = small_scenario();
        let len = scenario.observation_len;
        // No sweep.
        assert!(SweepBuilder::new(&scenario)
            .backend(EnergyDetector::new(1.0, 0.1, len).unwrap())
            .run()
            .is_err());
        // No backends.
        assert!(SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![0.0], 2).unwrap())
            .run()
            .is_err());
    }

    #[test]
    fn energy_detector_pd_rises_with_snr() {
        let scenario = small_scenario();
        let len = scenario.observation_len;
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![-15.0, 0.0, 10.0], 20).unwrap())
            .backend(EnergyDetector::new(1.0, 0.05, len).unwrap())
            .run()
            .unwrap();
        let series = table.pd_series("energy");
        assert_eq!(series.len(), 3);
        assert!(series[0].1 <= series[1].1 && series[1].1 <= series[2].1);
        assert!(series[2].1 > 0.95, "Pd at 10 dB = {}", series[2].1);
        let row = table.row("energy", -15.0).unwrap();
        assert!(row.pfa < 0.3, "Pfa = {}", row.pfa);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let scenario = small_scenario();
        let len = scenario.observation_len;
        let sweep = SnrSweep::new(vec![-10.0, 0.0, 10.0], 9).unwrap();
        let build = |workers: usize| {
            SweepBuilder::new(&scenario)
                .sweep(sweep.clone())
                .backend(EnergyDetector::new(1.0, 0.1, len).unwrap())
                .backend(cfd(0.35))
                .workers(workers)
                .run()
                .unwrap()
        };
        let serial = reference_table(
            &scenario,
            &sweep,
            &[&EnergyDetector::new(1.0, 0.1, len).unwrap(), &cfd(0.35)],
        );
        for workers in [1usize, 2, 3, 4, 7] {
            assert_eq!(serial, build(workers), "workers = {workers}");
        }
    }

    /// The trial-order reference every worker count must reproduce: one
    /// replica per backend decides on every H0 trial, then on every H1
    /// trial of each SNR point in turn.
    fn reference_table(
        scenario: &RadioScenario,
        sweep: &SnrSweep,
        recipes: &[&dyn BackendRecipe],
    ) -> RocTable {
        let mut replicas = build_replicas(recipes).unwrap();
        let mut observation = Observation::new();
        let mut count = |source: &RadioScenario, hypothesis: Hypothesis| {
            let mut positives = vec![0usize; replicas.len()];
            for trial in 0..sweep.trials {
                observation.set_samples(source.observe(hypothesis, trial).unwrap().samples);
                for (positive, backend) in positives.iter_mut().zip(&mut replicas) {
                    *positive += usize::from(backend.decide(&mut observation).unwrap().is_signal());
                }
            }
            positives
        };
        let false_alarms = count(scenario, Hypothesis::Vacant);
        let detections: Vec<Vec<usize>> = sweep
            .snr_points_db
            .iter()
            .map(|&snr| count(&scenario.at_snr(snr), Hypothesis::Occupied))
            .collect();
        assemble_table(sweep, &recipe_labels(recipes), &false_alarms, &detections)
    }

    /// Records the id of the thread of every decision it takes.
    #[derive(Debug)]
    struct ThreadProbe {
        threads: Arc<Mutex<Vec<ThreadId>>>,
    }

    impl SensingBackend for ThreadProbe {
        fn decide(
            &mut self,
            _observation: &mut Observation,
        ) -> Result<Decision, cfd_core::error::CfdError> {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            Ok(Decision::new(0.0, 1.0))
        }
    }

    /// Builds [`ThreadProbe`]s that all record into one shared list.
    #[derive(Debug, Default)]
    struct ThreadProbeRecipe {
        threads: Arc<Mutex<Vec<ThreadId>>>,
    }

    impl BackendRecipe for ThreadProbeRecipe {
        fn label(&self) -> String {
            "thread-probe".into()
        }

        fn build(&self) -> Result<Box<dyn SensingBackend + Send>, cfd_core::error::CfdError> {
            Ok(Box::new(ThreadProbe {
                threads: Arc::clone(&self.threads),
            }))
        }
    }

    #[test]
    fn one_worker_sweep_decides_on_the_calling_thread() {
        // A one-worker sweep is timed in the calling thread's CPU time by
        // the repository benchmark, so it must not hand its cells to a
        // spawned worker; a multi-worker sweep never decides on the caller.
        let scenario = small_scenario();
        let sweep = SnrSweep::new(vec![0.0, 5.0], 6).unwrap();
        let caller = std::thread::current().id();
        let threads_at = |workers: usize| {
            let recipe = ThreadProbeRecipe::default();
            let threads = Arc::clone(&recipe.threads);
            SweepBuilder::new(&scenario)
                .sweep(sweep.clone())
                .backend(recipe)
                .workers(workers)
                .run()
                .unwrap();
            let threads = threads.lock().unwrap().clone();
            assert_eq!(threads.len(), 3 * 6, "workers = {workers}");
            threads
        };
        assert!(threads_at(1).iter().all(|&id| id == caller));
        assert!(threads_at(3).iter().all(|&id| id != caller));
    }

    #[test]
    fn replica_build_errors_are_reported_before_cell_errors() {
        // Observations too short for the CFD make every cell fail; the
        // SoC replica's invalid guard zone must still be the error
        // reported, for one worker and for several.
        let scenario = RadioScenario::preset("bpsk-awgn", 16).unwrap();
        let bad_guard = SessionRecipe::new(
            CfdApplication::new(32, 7, 32).unwrap(),
            &Platform::paper(),
            0.35,
            7,
        );
        for workers in [1usize, 3] {
            let error = SweepBuilder::new(&scenario)
                .sweep(SnrSweep::new(vec![0.0], 4).unwrap())
                .backend(cfd(0.35))
                .backend(bad_guard.clone())
                .workers(workers)
                .run()
                .unwrap_err();
            assert!(
                error.to_string().contains("guard_offsets"),
                "workers = {workers}: {error}"
            );
        }
    }

    #[test]
    fn non_finite_snr_points_fail_before_any_decision() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rejected = |result: Result<SnrSweep, ScenarioError>| {
                matches!(
                    result,
                    Err(ScenarioError::InvalidParameter {
                        name: "snr_points_db",
                        ..
                    })
                )
            };
            assert!(rejected(SnrSweep::new(vec![0.0, bad], 4)), "{bad}");
            assert!(rejected(SnrSweep::linspace(0.0, bad, 3, 4)), "{bad}");
            assert!(rejected(SnrSweep::linspace(bad, 0.0, 3, 4)), "{bad}");
            // The fields are public, so a sweep can bypass `new`: the run
            // must still fail, and before any backend decides — a NaN-scaled
            // observation could otherwise be read as "vacant".
            let scenario = small_scenario();
            let sweep = SnrSweep {
                snr_points_db: vec![0.0, bad],
                trials: 4,
            };
            for workers in [1usize, 3] {
                let recipe = ThreadProbeRecipe::default();
                let threads = Arc::clone(&recipe.threads);
                let result = SweepBuilder::new(&scenario)
                    .sweep(sweep.clone())
                    .backend(recipe)
                    .workers(workers)
                    .run();
                assert!(
                    matches!(
                        result,
                        Err(ScenarioError::InvalidParameter {
                            name: "snr_points_db",
                            ..
                        })
                    ),
                    "{bad}, workers = {workers}: {result:?}"
                );
                assert!(
                    threads.lock().unwrap().is_empty(),
                    "{bad}, workers = {workers}: a backend decided"
                );
            }
        }
        // Likewise a channel that bypassed validation fails every
        // retargeted pipeline's check before any backend decides.
        let mut scenario = small_scenario();
        scenario.channel = scenario.channel.with_noise_power(f64::NAN);
        for workers in [1usize, 3] {
            let recipe = ThreadProbeRecipe::default();
            let threads = Arc::clone(&recipe.threads);
            let result = SweepBuilder::new(&scenario)
                .sweep(SnrSweep::new(vec![0.0, 5.0], 4).unwrap())
                .backend(recipe)
                .workers(workers)
                .run();
            assert!(
                matches!(
                    result,
                    Err(ScenarioError::InvalidParameter {
                        name: "noise_power",
                        ..
                    })
                ),
                "workers = {workers}: {result:?}"
            );
            assert!(threads.lock().unwrap().is_empty(), "workers = {workers}");
        }
    }

    #[test]
    fn observations_share_spectra_across_backends_per_params() {
        let scenario = small_scenario();
        let trial_observation = scenario.observe(Hypothesis::Occupied, 0).unwrap();
        let mut observation = Observation::new();
        observation.load(&trial_observation.samples);
        assert_eq!(observation.computed(), 0);
        assert_eq!(observation.samples().len(), trial_observation.samples.len());

        // Two CFD backends with the same params but different thresholds
        // share one spectra set; a third with different params adds one.
        let mut same_a = cfd(0.2);
        let mut same_b = cfd(0.8);
        let mut other =
            CyclostationaryDetector::new(ScfParams::new(32, 7, 16).unwrap(), 0.35, 1).unwrap();
        SensingBackend::decide(&mut same_a, &mut observation).unwrap();
        assert_eq!(observation.computed(), 1);
        SensingBackend::decide(&mut same_b, &mut observation).unwrap();
        assert_eq!(observation.computed(), 1);
        SensingBackend::decide(&mut other, &mut observation).unwrap();
        assert_eq!(observation.computed(), 2);
        // Same-params requests return the cached spectra without a
        // recomputation.
        assert_eq!(observation.spectra_for(same_a.engine()).unwrap().len(), 32);
        assert_eq!(observation.computed(), 2);
        // The energy detector reads the samples, not the spectra.
        let mut energy = EnergyDetector::new(1.0, 0.05, trial_observation.samples.len()).unwrap();
        SensingBackend::decide(&mut energy, &mut observation).unwrap();
        assert_eq!(observation.computed(), 2);

        // A new observation keeps the buffers but invalidates the caches.
        let next = scenario.observe(Hypothesis::Vacant, 1).unwrap();
        observation.set_samples(next.samples);
        assert_eq!(observation.computed(), 0);
        SensingBackend::decide(&mut same_a, &mut observation).unwrap();
        assert_eq!(observation.computed(), 1);
    }

    #[test]
    fn session_backend_reports_platform_metrics() {
        let scenario = small_scenario();
        let trial_observation = scenario.observe(Hypothesis::Occupied, 0).unwrap();
        let mut observation = Observation::new();
        observation.load(&trial_observation.samples);
        let mut session = soc_recipe(0.35).build().unwrap();
        let decision = session.decide(&mut observation).unwrap();
        let metrics = decision.metrics.expect("platform path carries metrics");
        assert!(metrics.time_per_block_us > 0.0);
        // Software backends carry none.
        let mut golden = cfd(0.35);
        let decision = SensingBackend::decide(&mut golden, &mut observation).unwrap();
        assert!(decision.metrics.is_none());
    }

    #[test]
    fn calibrated_cfd_threshold_controls_false_alarms() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let threshold = calibrate_cfd_threshold(&params, 1, 0.1, 40, 3).unwrap();
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold = {threshold}"
        );
        let scenario = small_scenario();
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![10.0], 20).unwrap())
            .backend(cfd(threshold))
            .run()
            .unwrap();
        let row = table.row("cfd", 10.0).unwrap();
        assert!(row.pfa <= 0.3, "Pfa = {}", row.pfa);
        // The normalised feature statistic saturates with SNR, so a short
        // 32-block DSCF does not reach Pd = 1 even at 10 dB; the point of
        // this test is the Pfa control above.
        assert!(row.pd > 0.5, "Pd = {}", row.pd);
    }

    #[test]
    fn calibration_rejects_bad_parameters() {
        let params = ScfParams::new(32, 7, 8).unwrap();
        assert!(calibrate_cfd_threshold(&params, 1, 0.0, 10, 0).is_err());
        assert!(calibrate_cfd_threshold(&params, 1, 1.0, 10, 0).is_err());
        assert!(calibrate_cfd_threshold(&params, 1, 0.1, 0, 0).is_err());
        // Below the Monte-Carlo resolution 1/trials.
        assert!(calibrate_cfd_threshold(&params, 1, 0.01, 10, 0).is_err());
    }

    #[test]
    fn duplicate_backend_kinds_get_distinct_labels() {
        let len = 512;
        let scenario = RadioScenario::preset("bpsk-awgn", len).unwrap();
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![0.0], 3).unwrap())
            .backend(EnergyDetector::new(1.0, 0.05, len).unwrap())
            .backend(EnergyDetector::with_threshold(1.0, 2.0).unwrap())
            .run()
            .unwrap();
        assert_eq!(
            table.detectors(),
            vec!["energy#0".to_string(), "energy#1".into()]
        );
        assert!(table.row("energy#0", 0.0).is_some());
        assert!(table.row("energy", 0.0).is_none());
    }

    #[test]
    fn roc_table_accessors_and_render() {
        let table = RocTable {
            rows: vec![
                RocRow {
                    snr_db: 0.0,
                    detector: "energy".into(),
                    pd: 0.9,
                    pfa: 0.8,
                    trials: 10,
                },
                RocRow {
                    snr_db: -5.0,
                    detector: "cfd".into(),
                    pd: 0.6,
                    pfa: 0.1,
                    trials: 10,
                },
            ],
        };
        assert_eq!(table.detectors(), vec!["energy".to_string(), "cfd".into()]);
        assert_eq!(table.pd_series("cfd"), vec![(-5.0, 0.6)]);
        assert!(table.row("energy", 0.0).is_some());
        assert!(table.row("energy", 1.0).is_none());
        // Balanced accuracy punishes the false-alarming detector.
        assert!((table.rows[0].balanced_accuracy() - 0.55).abs() < 1e-12);
        assert!((table.rows[1].balanced_accuracy() - 0.75).abs() < 1e-12);
        let rendered = table.render();
        assert!(rendered.contains("energy"));
        assert!(rendered.contains("-5.0"));
    }

    #[test]
    fn roc_table_to_json_is_machine_readable_and_versioned() {
        let table = RocTable {
            rows: vec![RocRow {
                snr_db: -5.0,
                detector: "cfd\"#1\n\\x".into(),
                pd: 0.6,
                pfa: 0.125,
                trials: 8,
            }],
        };
        let json = table.to_json();
        assert_eq!(
            json,
            "{\"schema\":2,\"rows\":[{\"snr_db\":-5,\"detector\":\"cfd\\\"#1\\u000a\\\\x\",\
             \"pd\":0.6,\"pfa\":0.125,\"trials\":8}]}"
        );
        assert_eq!(RocTable::default().to_json(), "{\"schema\":2,\"rows\":[]}");
    }

    #[test]
    fn tiled_soc_backend_agrees_with_golden_model() {
        let scenario = small_scenario();
        let sweep = SnrSweep::new(vec![5.0], 5).unwrap();
        let soc_table = SweepBuilder::new(&scenario)
            .sweep(sweep.clone())
            .backend(soc_recipe(0.35))
            .run()
            .unwrap();
        let golden_table = SweepBuilder::new(&scenario)
            .sweep(sweep)
            .backend(cfd(0.35))
            .run()
            .unwrap();
        // The platform computes the same DSCF, so decisions must agree.
        assert_eq!(soc_table.rows[0].pd, golden_table.rows[0].pd);
        assert_eq!(soc_table.rows[0].pfa, golden_table.rows[0].pfa);
    }

    /// A sweep-local custom backend: decides from the observation's cached
    /// DSCF like the built-in CFD, but on the *mean* cyclic-profile value
    /// outside the ridge instead of the maximum.
    #[derive(Debug, Clone)]
    struct MeanFeature {
        engine: ScfEngine,
        threshold: f64,
    }

    impl SensingBackend for MeanFeature {
        fn label(&self) -> String {
            "mean-feature".into()
        }

        fn decide(
            &mut self,
            observation: &mut Observation,
        ) -> Result<Decision, cfd_core::error::CfdError> {
            let scf = observation.scf_for(&self.engine)?;
            let profile = scf.cyclic_profile();
            let ridge = profile[scf.max_offset()].max(f64::MIN_POSITIVE);
            let sum: f64 = profile.iter().sum::<f64>() - profile[scf.max_offset()];
            let statistic = sum / (profile.len() - 1) as f64 / ridge;
            Ok(Decision::new(statistic, self.threshold))
        }
    }

    #[test]
    fn custom_backends_participate_in_sweeps() {
        let scenario = small_scenario();
        let params = ScfParams::new(32, 7, 32).unwrap();
        let custom = MeanFeature {
            engine: ScfEngine::new(params).unwrap(),
            threshold: 0.2,
        };
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::new(vec![0.0], 4).unwrap())
            .backend(cfd(0.35))
            .backend(custom)
            .workers(2)
            .run()
            .unwrap();
        assert_eq!(
            table.detectors(),
            vec!["cfd".to_string(), "mean-feature".into()]
        );
        assert!(table.row("mean-feature", 0.0).is_some());
    }
}
