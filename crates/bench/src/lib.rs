//! # `cfd-bench` — the reproduction harness
//!
//! One binary per table/figure of the paper (under `src/bin/`) and one
//! Criterion bench per performance aspect (under `benches/`). The binaries
//! print the regenerated artefact next to the value published in the paper;
//! the README's "Reproduction binaries" section describes them, including
//! which ones exit non-zero when the reproduction breaks.
//!
//! | target | artefact |
//! |--------|----------|
//! | `table1` | Table 1 cycle counts (+ Section 4.1 memory check) |
//! | `fig1_structure` | Fig. 1 operand structure for a single `n` |
//! | `fig2_dg` | Fig. 2 dependence-graph dimensions |
//! | `fig3_fig4_pe` | Figs. 3–4 processing elements after each fold |
//! | `fig5_spacetime` | Fig. 5 space–time-delay diagram |
//! | `fig6_registers` | Fig. 6 minimal register structure |
//! | `fig7_systolic` | Fig. 7 register-based systolic array |
//! | `fig8_fig9_folding` | Figs. 8–9 folded core and switch schedule |
//! | `fig10_fig11_montium` | Figs. 10–11 Montium resources and CFD mapping |
//! | `section5_evaluation` | Section 5 latency/bandwidth/area/power + scaling |
//! | `functional_check` | cross-check of every implementation layer |
//! | `detector_comparison` | CFD vs energy detector (the motivation of \[7\]) |
//! | `bench_gate` | perf-regression gate over the uploaded JSON artefacts |

#![warn(missing_docs)]

pub mod gate;
pub mod service_driver;

use cfd_dsp::complex::Cplx;
use cfd_dsp::scf::ScfParams;
use cfd_dsp::signal::{SignalBuilder, SymbolModulation};

/// A reproducible BPSK licensed-user observation sized for `params`.
pub fn licensed_user(params: &ScfParams, snr_db: f64, seed: u64) -> Vec<Cplx> {
    SignalBuilder::new(params.samples_needed())
        .modulation(SymbolModulation::Bpsk)
        .samples_per_symbol(4)
        .snr_db(snr_db)
        .seed(seed)
        .build()
        .expect("valid signal parameters")
        .samples
}

/// A reproducible noise-only observation sized for `params`.
pub fn empty_band(params: &ScfParams, seed: u64) -> Vec<Cplx> {
    SignalBuilder::new(params.samples_needed())
        .noise_only()
        .seed(seed)
        .build()
        .expect("valid signal parameters")
        .samples
}

/// Prints a section header used by all reproduction binaries.
pub fn header(title: &str) {
    println!("{}", "=".repeat(title.len() + 8));
    println!("=== {title} ===");
    println!("{}", "=".repeat(title.len() + 8));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_right_lengths() {
        let params = ScfParams::new(32, 7, 3).unwrap();
        assert_eq!(
            licensed_user(&params, 0.0, 1).len(),
            params.samples_needed()
        );
        assert_eq!(empty_band(&params, 1).len(), params.samples_needed());
        header("smoke");
    }
}
