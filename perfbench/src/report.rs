//! Result plumbing: named metrics with units, exact-sample statistics and
//! the one-line JSON result every run ends with.

use std::fmt::Write as _;

/// Named metrics in report order, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`. A later value under the same name
    /// replaces the earlier one.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, value, _)| value)
    }

    /// Every `(name, value, unit)` in report order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.entries.iter()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (decisions the workload asked for).
    pub attempted: u64,
    /// Operations that failed: errors, drops, missing decisions and
    /// decisions that failed the correctness check.
    pub failed: u64,
    /// Metrics of the run: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result (ledger, checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every operation succeeded and passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// A JSON number: all the digits Rust's shortest round-trip formatting
/// gives. Non-finite values have no JSON spelling and are reported as 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// holding the `(name, unit)` metrics of `keep` in that order. A metric
/// the workload's path does not reach reads 0.
pub fn result_json(outcome: &Outcome, keep: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (index, (name, unit)) in keep.iter().enumerate() {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        if index > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            number(value)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    )
}

/// The `q`-quantile (nearest rank) of exact samples; 0 for no samples.
/// Sorts `samples` in place.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).max(1);
    samples[rank - 1]
}

/// The `q`-quantile of nanosecond samples, in microseconds.
pub fn quantile_us(samples: &mut [u64], q: f64) -> f64 {
    quantile(samples, q) as f64 / 1e3
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

// Timings are reported at the reference speed, as medians.
//
// Each timing is taken per slice of consecutive work on one thread and
// scaled to the reference host speed by a kernel reading taken next to
// it on the same thread (see `pace`). The run reports the median of its
// slices' scaled values.

/// Work of a timed loop, slice by slice.
#[derive(Debug, Default)]
pub struct Throughput {
    /// Work units over every slice.
    pub work: u64,
    /// Slices recorded.
    pub slices: u64,
    rates: Vec<f64>,
}

impl Throughput {
    /// Records one slice: `work` units in `seconds`, which `factor` scales
    /// to the reference speed.
    pub fn record(&mut self, work: u64, seconds: f64, factor: f64) {
        self.work += work;
        self.slices += 1;
        self.rates.push(work as f64 / (seconds * factor));
    }

    /// The run's throughput in units per second at the reference speed:
    /// the median of its slices.
    pub fn rate(&mut self) -> f64 {
        median(&mut self.rates)
    }
}

/// The median of a series of nanosecond samples scaled by `factor`, in
/// microseconds.
pub fn scaled_median_us(samples: &[u64], factor: f64) -> f64 {
    quantile(&mut samples.to_vec(), 0.5) as f64 * factor / 1e3
}

/// Sum of nanosecond samples, in seconds.
pub fn total_s(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / 1e9
}

/// Mean of nanosecond samples, in microseconds (0 for no samples).
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut samples, 0.5), 50);
        assert_eq!(quantile(&mut samples, 0.99), 99);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn timings_are_scaled_medians() {
        assert_eq!(scaled_median_us(&[300, 100, 200], 0.5), 0.1);
        let mut throughput = Throughput::default();
        for slice in 0..5 {
            // A slowed slice with a matching kernel reading scales back.
            let slowed = slice % 2 == 0;
            let (seconds, factor) = if slowed { (1.7, 1.0 / 1.7) } else { (1.0, 1.0) };
            throughput.record(100, seconds, factor);
        }
        assert!((throughput.rate() - 100.0).abs() < 1e-9);
        assert_eq!((throughput.work, throughput.slices), (500, 5));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metrics.set("latency_us", 1.25, "us");
        outcome.metrics.set("extra", 3.0, "count");
        let line = result_json(&outcome, &[("latency_us", "us")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"latency_us\":{\"value\":1.25,\"unit\":\"us\"}}}"
        );
        outcome.failed = 1;
        assert!(result_json(&outcome, &[]).starts_with("{\"correct\":false,"));
    }
}
