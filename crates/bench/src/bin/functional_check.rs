//! Functional cross-check of every implementation layer of the DSCF: golden
//! model (eq. 3), systolic array, folded array and the tiled SoC (the
//! cycle-accurate lockstep simulation and the analytic fast path). All must
//! agree on the same input; the binary exits non-zero when one does not.
//!
//! Run with: `cargo run --release -p cfd-bench --bin functional_check`

use cfd_bench::{header, licensed_user};
use cfd_dsp::scf::{block_spectra, dscf_reference, ScfParams};
use cfd_mapping::folding::FoldedArray;
use cfd_mapping::systolic::SystolicArray;
use tiled_soc::config::{ExecutionMode, SocConfig};
use tiled_soc::soc::TiledSoc;

/// Largest deviation from the golden model any layer may show.
const TOLERANCE: f64 = 1e-9;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("Functional cross-check of all implementation layers");
    let params = ScfParams::new(64, 15, 6)?;
    let signal = licensed_user(&params, 3.0, 2024);
    let reference = dscf_reference(&signal, &params)?;
    let spectra = block_spectra(&signal, &params)?;
    println!(
        "scenario: BPSK licensed user, {}-point spectra, {}x{} DSCF, {} blocks\n",
        params.fft_len,
        params.grid_size(),
        params.grid_size(),
        params.num_blocks
    );

    let mut failures = Vec::new();
    let mut check = |label: String, diff: f64, bound: f64, note: String| {
        println!("{label:<32}: max |diff| = {diff:.3e}{note}");
        if diff.is_nan() || diff > bound {
            failures.push(label);
        }
    };

    let mut systolic = SystolicArray::new(params.max_offset, params.fft_len);
    let (systolic_result, _) = systolic.run(&spectra);
    check(
        "systolic array (127-PE style)".into(),
        systolic_result.max_abs_difference(&reference),
        TOLERANCE,
        String::new(),
    );

    for cores in [1usize, 2, 4] {
        let mut folded = FoldedArray::new(params.max_offset, params.fft_len, cores)?;
        let (result, _) = folded.run(&spectra);
        check(
            format!("folded array, Q = {cores}"),
            result.max_abs_difference(&reference),
            TOLERANCE,
            String::new(),
        );
    }

    let mut runs = Vec::new();
    for mode in [ExecutionMode::Lockstep, ExecutionMode::Analytic] {
        let mut soc = TiledSoc::new(
            SocConfig::paper().with_mode(mode),
            params.max_offset,
            params.fft_len,
        )?;
        let run = soc.run(&signal, params.num_blocks)?;
        check(
            format!("tiled SoC, 4 tiles, {mode:?}"),
            run.scf.max_abs_difference(&reference),
            TOLERANCE,
            format!(" ({} inter-tile transfers)", run.inter_tile_transfers),
        );
        runs.push(run);
    }
    // The analytic fast path must reproduce the golden simulation exactly.
    check(
        "analytic vs lockstep SoC".into(),
        runs[1].scf.max_abs_difference(&runs[0].scf),
        0.0,
        String::new(),
    );

    if !failures.is_empty() {
        return Err(format!("layers disagree: {}", failures.join(", ")).into());
    }
    println!("\nAll layers agree with the golden model of eq. 3.");
    Ok(())
}
