//! The per-layer ledger of a traced run: each layer's self time, their
//! sum, and the wall time no layer accounts for.
//!
//! Busy times come from two sources: the program's own telemetry
//! histograms (`sum` of nanoseconds, never the log2 percentiles), read as
//! a windowed [`Trace`], and the bench's own timers around public calls.
//! A layer's self time is its busy time minus the busy time of the layers
//! nested inside it. The ledger's wall time is thread-seconds of the
//! measured pool (wall time × threads that run the layers), so a
//! two-worker sweep is held against twice its wall time.

use crate::report::Metrics;
use cfd_telemetry::MetricsSnapshot;

/// Every layer the ledger can hold, in report order. Each workload fills
/// the layers on its path; the others report 0.
pub const LAYERS: [&str; 16] = [
    "dsp.fft",
    "dsp.scf.spectra",
    "dsp.scf.accumulate",
    "core.decide.cfd",
    "core.decide.energy",
    "soc.decide",
    "soc.correlate",
    "fusion.decide",
    "fusion.overlay",
    "scenario.observe",
    "sweep.queue_wait",
    "stream.decide",
    "stream.refresh",
    "service.hop",
    "service.queue_wait",
    "service.sink",
];

/// The telemetry counters and histograms recorded inside one window.
#[derive(Debug, Default)]
pub struct Trace(MetricsSnapshot);

impl Trace {
    /// Enables timing and zeroes the registry: the window starts now.
    pub fn begin() {
        cfd_telemetry::registry().reset();
        cfd_telemetry::set_enabled(true);
    }

    /// Reads everything recorded since [`Trace::begin`].
    pub fn capture() -> Self {
        Trace(cfd_telemetry::registry().snapshot())
    }

    /// Total seconds recorded by a nanosecond histogram.
    pub fn busy_s(&self, histogram: &str) -> f64 {
        self.0
            .histogram(histogram)
            .map_or(0.0, |h| h.sum as f64 / 1e9)
    }

    /// Samples recorded by a histogram.
    pub fn calls(&self, histogram: &str) -> u64 {
        self.0.histogram(histogram).map_or(0, |h| h.count)
    }

    /// Mean sample of a nanosecond histogram, in microseconds.
    pub fn mean_us(&self, histogram: &str) -> f64 {
        self.0
            .histogram(histogram)
            .and_then(|h| h.mean())
            .map_or(0.0, |ns| ns / 1e3)
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter(name).unwrap_or(0)
    }

    /// `hits / (hits + misses)` of two counters; 0 when neither moved.
    pub fn hit_ratio(&self, hits: &str, misses: &str) -> f64 {
        ratio(
            self.counter(hits) as f64,
            (self.counter(hits) + self.counter(misses)) as f64,
        )
    }
}

/// `part / whole`, 0 for an empty whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Self times against a wall time.
#[derive(Debug, Default)]
pub struct Ledger {
    wall_s: f64,
    layers: Vec<(&'static str, f64)>,
    overlap_s: f64,
    /// Part of the layer sum estimated outside the window (see
    /// [`Ledger::book_replayed`]).
    replayed_s: f64,
}

impl Ledger {
    /// A ledger over `wall_s` thread-seconds.
    pub fn new(wall_s: f64) -> Self {
        Ledger {
            wall_s,
            ..Ledger::default()
        }
    }

    /// Books `layer` with busy time `busy_s` minus the busy time of the
    /// layers nested inside it. A negative remainder means a child was
    /// counted larger than its parent: it is booked as 0 and kept as
    /// overlap, which flags the run as double counted.
    pub fn book(&mut self, layer: &'static str, busy_s: f64, children_s: f64) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let own = busy_s - children_s;
        if own < 0.0 {
            self.overlap_s -= own;
        }
        self.layers.push((layer, own.max(0.0)));
    }

    /// Books a layer the bench cannot time inside the window and estimates
    /// by replaying the same calls outside it. It counts toward the layer
    /// sum but not toward the double-counting flag: an estimate that
    /// overshoots is not time counted twice.
    pub fn book_replayed(&mut self, layer: &'static str, estimate_s: f64) {
        self.book(layer, estimate_s, 0.0);
        self.replayed_s += estimate_s.max(0.0);
    }

    /// Sum of every booked self time (folded from +0.0: an empty float
    /// `sum` is -0.0).
    pub fn layer_sum_s(&self) -> f64 {
        self.layers.iter().fold(0.0, |sum, &(_, s)| sum + s)
    }

    /// Wall time no layer accounts for (negative when layers overlap).
    pub fn unassigned_s(&self) -> f64 {
        self.wall_s - self.layer_sum_s()
    }

    /// Whether the timed layers sum to more than the wall time, or a child
    /// outweighed its parent: some time was counted twice.
    pub fn double_counted(&self) -> bool {
        self.layer_sum_s() - self.replayed_s > self.wall_s || self.overlap_s > 1e-3 * self.wall_s
    }

    /// Writes `ledger.<layer>.self_s` for every layer in [`LAYERS`], plus
    /// the wall time, the layer sum, the unassigned rest and the
    /// double-counting flag.
    pub fn record(&self, metrics: &mut Metrics) {
        for layer in LAYERS {
            let own = self
                .layers
                .iter()
                .filter(|(name, _)| *name == layer)
                .fold(0.0, |sum, &(_, s)| sum + s);
            metrics.set(&format!("ledger.{layer}.self_s"), own, "s");
        }
        metrics.set("ledger.wall_s", self.wall_s, "s");
        metrics.set("ledger.layer_sum_s", self.layer_sum_s(), "s");
        metrics.set("ledger.unassigned_s", self.unassigned_s(), "s");
        metrics.set(
            "ledger.double_counted",
            f64::from(u8::from(self.double_counted())),
            "count",
        );
    }

    /// The ledger as aligned text lines.
    pub fn render(&self) -> Vec<String> {
        let mut lines = vec![format!("{:<22} {:>10} {:>7}", "layer", "self [s]", "share")];
        let share = |s: f64| 100.0 * ratio(s, self.wall_s);
        for &(layer, own) in &self.layers {
            lines.push(format!("{layer:<22} {own:>10.4} {:>6.1}%", share(own)));
        }
        lines.push(format!(
            "{:<22} {:>10.4} {:>6.1}%",
            "layer sum",
            self.layer_sum_s(),
            share(self.layer_sum_s())
        ));
        lines.push(format!(
            "{:<22} {:>10.4} {:>6.1}%",
            "unassigned",
            self.unassigned_s(),
            share(self.unassigned_s())
        ));
        lines.push(format!("{:<22} {:>10.4}", "wall (thread-s)", self.wall_s));
        if self.double_counted() {
            lines.push("WARNING: layers overlap (double counting)".into());
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_against_the_wall() {
        let mut ledger = Ledger::new(10.0);
        ledger.book("core.decide.cfd", 6.0, 4.0);
        ledger.book("dsp.scf.accumulate", 4.0, 0.0);
        assert_eq!(ledger.layer_sum_s(), 6.0);
        assert_eq!(ledger.unassigned_s(), 4.0);
        assert!(!ledger.double_counted());
        let mut metrics = Metrics::default();
        ledger.record(&mut metrics);
        assert_eq!(metrics.get("ledger.core.decide.cfd.self_s"), Some(2.0));
        assert_eq!(metrics.get("ledger.service.sink.self_s"), Some(0.0));
        assert_eq!(metrics.get("ledger.double_counted"), Some(0.0));
    }

    #[test]
    fn overlapping_layers_are_flagged() {
        let mut over_wall = Ledger::new(1.0);
        over_wall.book("dsp.fft", 0.8, 0.0);
        over_wall.book("service.hop", 0.8, 0.0);
        assert!(over_wall.double_counted());
        let mut replayed_over = Ledger::new(1.0);
        replayed_over.book("dsp.fft", 0.8, 0.0);
        replayed_over.book_replayed("scenario.observe", 0.3);
        assert!(replayed_over.unassigned_s() < 0.0);
        assert!(!replayed_over.double_counted());
        let mut child_too_big = Ledger::new(10.0);
        child_too_big.book("stream.decide", 1.0, 2.0);
        assert!(child_too_big.double_counted());
    }
}
