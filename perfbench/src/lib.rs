//! The repository benchmark.
//!
//! One command runs one named workload from a seed, measures it for a
//! fixed time, checks its decisions, and prints its metrics by name and
//! unit, ending with one JSON line:
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (one process each, so the process-global telemetry registry
//! is never shared):
//!
//! * [`service`] — `service-1024ch`: scheduler throughput and streamed hops;
//! * [`sweep`] — `roc-sweep-paper`: batch and SoC-backed decisions;
//! * [`fusion`] — `fusion-coop`: fused decisions of a shadowed fleet.
//!
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]) with
//! telemetry timing off. `--trace 1` enables `cfd_telemetry` timing for
//! part of the run and reports the per-layer metrics ([`PER_LAYER`]),
//! including the ledger of layer self times against the wall time.

pub mod fusion;
pub mod host;
pub mod layers;
pub mod ledger;
pub mod pace;
pub mod report;
pub mod service;
pub mod sweep;
pub mod timing;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["service-1024ch", "roc-sweep-paper", "fusion-coop"];

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decision_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, reported by every traced run. A
/// layer a workload bypasses reads 0. `decision_p99_us` is here rather
/// than end to end: on a shared host it did not repeat within a tenth.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("decision_p99_us", "us"),
    ("dsp.fft.busy_s", "s"),
    ("dsp.fft.calls", "count"),
    ("dsp.scf.spectra_busy_s", "s"),
    ("dsp.scf.accumulate_busy_s", "s"),
    ("dsp.scf.ns_per_point_block", "ns"),
    ("core.observation.spectra_hit_ratio", "ratio"),
    ("core.observation.scf_hit_ratio", "ratio"),
    ("core.decide.cfd_us", "us"),
    ("core.decide.energy_us", "us"),
    ("soc.decide_us", "us"),
    ("soc.correlate_busy_s", "s"),
    ("soc.cycles_per_block", "cycles"),
    ("soc.host_ns_per_block", "ns"),
    ("fusion.decide_us", "us"),
    ("fusion.overlay_us", "us"),
    ("fusion.member_decisions", "count"),
    ("fusion.split_vote_ratio", "ratio"),
    ("scenario.observe_us", "us"),
    ("sweep.queue_wait_s", "s"),
    ("sweep.cell_busy_s", "s"),
    ("stream.decide_busy_s", "s"),
    ("stream.refresh_busy_s", "s"),
    ("stream.incremental_hops", "count"),
    ("stream.exact_refreshes", "count"),
    ("stream.refresh_ratio", "ratio"),
    ("service.push_p99_us", "us"),
    ("service.queue_wait_busy_s", "s"),
    ("service.hop_busy_s", "s"),
    ("service.join_s", "s"),
    ("service.drops", "count"),
    ("service.generator_lag_p99_us", "us"),
    ("telemetry.overhead_ratio", "ratio"),
    ("traced.decisions_per_s", "1/s"),
    ("failed_ratio", "ratio"),
    ("ledger.dsp.fft.self_s", "s"),
    ("ledger.dsp.scf.spectra.self_s", "s"),
    ("ledger.dsp.scf.accumulate.self_s", "s"),
    ("ledger.core.decide.cfd.self_s", "s"),
    ("ledger.core.decide.energy.self_s", "s"),
    ("ledger.soc.decide.self_s", "s"),
    ("ledger.soc.correlate.self_s", "s"),
    ("ledger.fusion.decide.self_s", "s"),
    ("ledger.fusion.overlay.self_s", "s"),
    ("ledger.scenario.observe.self_s", "s"),
    ("ledger.sweep.queue_wait.self_s", "s"),
    ("ledger.stream.decide.self_s", "s"),
    ("ledger.stream.refresh.self_s", "s"),
    ("ledger.service.hop.self_s", "s"),
    ("ledger.service.queue_wait.self_s", "s"),
    ("ledger.service.sink.self_s", "s"),
    ("ledger.wall_s", "s"),
    ("ledger.layer_sum_s", "s"),
    ("ledger.unassigned_s", "s"),
    ("ledger.double_counted", "count"),
    ("paper.computed.table1_mac_cycles", "cycles"),
    ("paper.computed.table1_read_cycles", "cycles"),
    ("paper.computed.table1_fft_cycles", "cycles"),
    ("paper.computed.table1_reshuffle_cycles", "cycles"),
    ("paper.computed.table1_init_cycles", "cycles"),
    ("paper.computed.table1_total_cycles", "cycles"),
    ("paper.computed.table1_step_us", "us"),
    ("paper.computed.mac_fft_mult_ratio", "ratio"),
];

/// Runs `workload` for `seconds` from `seed`, with or without tracing.
///
/// # Errors
///
/// Unknown workloads and failures to set a workload up.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<report::Outcome, Box<dyn std::error::Error>> {
    let mut outcome = match workload {
        "service-1024ch" => service::run(seed, seconds, trace)?,
        "roc-sweep-paper" => sweep::run(seed, seconds, trace)?,
        "fusion-coop" => fusion::run(seed, seconds, trace)?,
        other => return Err(format!("unknown workload `{other}` (known: {WORKLOADS:?})").into()),
    };
    let reading = pace::Pace::new().reading_ns();
    outcome.notes.push(format!(
        "host speed: reference kernel {reading} ns (timings are scaled to {} ns)",
        pace::REFERENCE_NS
    ));
    let metrics = &mut outcome.metrics;
    metrics.set("peak_rss_mb", host::peak_rss_mb(), "MiB");
    metrics.set(
        "failed_ratio",
        ledger::ratio(outcome.failed as f64, outcome.attempted as f64),
        "ratio",
    );
    if trace {
        layers::paper_rows(metrics)?;
        if let Some(rate) = metrics.get("decisions_per_s") {
            let overhead = metrics.get("telemetry.overhead_ratio").unwrap_or(0.0);
            metrics.set(
                "traced.decisions_per_s",
                ledger::ratio(rate, overhead),
                "1/s",
            );
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_telemetry::json::{parse, JsonValue};

    fn names(document: &JsonValue, key: &str) -> Vec<(String, String)> {
        let entries = document
            .pointer(&[key])
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"));
        entries
            .iter()
            .map(|entry| {
                let text = |field: &str| {
                    entry
                        .pointer(&[field])
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let document = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&document, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&document, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&document, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
