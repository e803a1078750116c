//! Per-layer metrics every workload reports the same way: the DSP layer
//! (FFT, block spectra, batch DSCF accumulation), the observation cache,
//! and the paper's Table-1 counterpart rows.

use crate::ledger::{ratio, Trace};
use crate::report::Metrics;
use cfd_core::methodology::TwoStepMapping;
use cfd_core::{CfdApplication, Platform};
use cfd_dsp::scf::ScfParams;

/// DSP and observation-cache metrics of a traced window. `params` is the
/// geometry of the window's batch DSCFs (for `ns_per_point_block`).
pub fn common_layers(trace: &Trace, metrics: &mut Metrics, params: &ScfParams) {
    metrics.set("dsp.fft.busy_s", trace.busy_s("dsp.fft.forward_ns"), "s");
    metrics.set(
        "dsp.fft.calls",
        trace.calls("dsp.fft.forward_ns") as f64,
        "count",
    );
    metrics.set(
        "dsp.scf.spectra_busy_s",
        trace.busy_s("dsp.scf.spectra_ns"),
        "s",
    );
    let accumulate_s = trace.busy_s("dsp.scf.accumulate_ns");
    metrics.set("dsp.scf.accumulate_busy_s", accumulate_s, "s");
    let grid = params.grid_size() as f64;
    let point_blocks =
        trace.calls("dsp.scf.accumulate_ns") as f64 * params.num_blocks as f64 * grid * grid;
    metrics.set(
        "dsp.scf.ns_per_point_block",
        ratio(accumulate_s * 1e9, point_blocks),
        "ns",
    );
    metrics.set(
        "core.observation.spectra_hit_ratio",
        trace.hit_ratio(
            "core.observation.spectra_cache_hits",
            "core.observation.spectra_cache_misses",
        ),
        "ratio",
    );
    metrics.set(
        "core.observation.scf_hit_ratio",
        trace.hit_ratio(
            "core.observation.scf_cache_hits",
            "core.observation.scf_cache_misses",
        ),
        "ratio",
    );
}

/// The paper's Table 1 for one integration step of the 127×127 DSCF on
/// the 4-Montium platform, computed by the repository's cycle model, plus
/// the MAC:FFT multiplication ratio of the paper geometry. These rows are
/// computed, not measured.
///
/// # Errors
///
/// Propagates mapping-analysis errors.
pub fn paper_rows(metrics: &mut Metrics) -> Result<(), cfd_core::CfdError> {
    let platform = Platform::paper();
    let report = TwoStepMapping::analyse(&CfdApplication::paper(), &platform)?;
    let cycles = &report.step2.cycles;
    let rows = [
        (
            "paper.computed.table1_mac_cycles",
            cycles.multiply_accumulate,
        ),
        ("paper.computed.table1_read_cycles", cycles.read_data),
        ("paper.computed.table1_fft_cycles", cycles.fft),
        ("paper.computed.table1_reshuffle_cycles", cycles.reshuffling),
        ("paper.computed.table1_init_cycles", cycles.initialisation),
        ("paper.computed.table1_total_cycles", cycles.total()),
    ];
    for (name, value) in rows {
        metrics.set(name, value as f64, "cycles");
    }
    metrics.set(
        "paper.computed.table1_step_us",
        cycles.total() as f64 / platform.tile.clock_mhz,
        "us",
    );
    // Complex multiplications per block: one per DSCF point against the
    // radix-2 FFT's (K/2)·log2 K.
    let params = ScfParams::paper_256();
    let k = params.fft_len as f64;
    let mac = (params.grid_size() * params.grid_size()) as f64;
    metrics.set(
        "paper.computed.mac_fft_mult_ratio",
        mac / (k / 2.0 * k.log2()),
        "ratio",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_reproduce_table_1() {
        let mut metrics = Metrics::default();
        paper_rows(&mut metrics).unwrap();
        assert_eq!(
            metrics.get("paper.computed.table1_total_cycles"),
            Some(13_996.0)
        );
        // 127² DSCF points against (256 / 2) · log2 256 FFT multiplications.
        assert_eq!(
            metrics.get("paper.computed.mac_fft_mult_ratio"),
            Some(16_129.0 / 1_024.0)
        );
    }
}
