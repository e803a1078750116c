//! Cross-crate integration tests: every implementation layer of the DSCF —
//! golden model, systolic array, folded array, single Montium tile, full
//! tiled SoC (lockstep and analytic) — must agree on the same input, and the
//! end-to-end sensing pipeline must make correct decisions on top of the
//! platform result.

use cfd_core::prelude::*;
use cfd_dsp::prelude::*;
use cfd_dsp::scf::{block_spectra, dscf_reference};
use cfd_mapping::folding::FoldedArray;
use cfd_mapping::systolic::SystolicArray;
use tiled_soc::config::{ExecutionMode, SocConfig};
use tiled_soc::soc::TiledSoc;

fn licensed_user_signal(params: &ScfParams, snr_db: f64, seed: u64) -> Vec<Cplx> {
    SignalBuilder::new(params.samples_needed())
        .modulation(SymbolModulation::Bpsk)
        .samples_per_symbol(4)
        .snr_db(snr_db)
        .seed(seed)
        .build()
        .expect("valid signal")
        .samples
}

#[test]
fn all_implementations_agree_on_the_same_dscf() {
    let params = ScfParams::new(64, 15, 4).unwrap();
    let signal = licensed_user_signal(&params, 5.0, 11);
    let reference = dscf_reference(&signal, &params).unwrap();
    let spectra = block_spectra(&signal, &params).unwrap();

    // Step-1 systolic array.
    let mut systolic = SystolicArray::new(params.max_offset, params.fft_len);
    let (systolic_result, _) = systolic.run(&spectra);
    assert!(systolic_result.max_abs_difference(&reference) < 1e-9);

    // Step-1 folded array (4 cores).
    let mut folded = FoldedArray::new(params.max_offset, params.fft_len, 4).unwrap();
    let (folded_result, _) = folded.run(&spectra);
    assert!(folded_result.max_abs_difference(&reference) < 1e-9);

    // Full tiled SoC, lockstep.
    let mut lockstep =
        TiledSoc::new(SocConfig::paper(), params.max_offset, params.fft_len).unwrap();
    let lockstep_run = lockstep.run(&signal, params.num_blocks).unwrap();
    assert!(lockstep_run.scf.max_abs_difference(&reference) < 1e-9);

    // Full tiled SoC, analytic fast path: exactly the lockstep result.
    let mut analytic = TiledSoc::new(
        SocConfig::paper().with_mode(ExecutionMode::Analytic),
        params.max_offset,
        params.fft_len,
    )
    .unwrap();
    let analytic_run = analytic.run(&signal, params.num_blocks).unwrap();
    assert_eq!(analytic_run.scf.max_abs_difference(&lockstep_run.scf), 0.0);
}

#[test]
fn platform_results_are_identical_for_any_tile_count() {
    let params = ScfParams::new(32, 7, 3).unwrap();
    let signal = licensed_user_signal(&params, 0.0, 5);
    let reference = dscf_reference(&signal, &params).unwrap();
    for tiles in [1usize, 2, 3, 4, 5, 8] {
        let mut soc = TiledSoc::new(
            SocConfig::paper().with_tiles(tiles),
            params.max_offset,
            params.fft_len,
        )
        .unwrap();
        let run = soc.run(&signal, params.num_blocks).unwrap();
        assert!(
            run.scf.max_abs_difference(&reference) < 1e-9,
            "tiles = {tiles}"
        );
    }
}

#[test]
fn end_to_end_sensing_on_the_platform_detects_and_clears() {
    let application = CfdApplication::new(32, 7, 64).unwrap();
    let mut session = SensingSession::new(application, &Platform::paper(), 0.35, 1).unwrap();
    let n = session.samples_per_decision();
    let params = ScfParams::new(32, 7, 64).unwrap();
    assert_eq!(n, params.samples_needed());

    let busy = licensed_user_signal(&params, 5.0, 3);
    let (decision, _) = session.run(&busy).unwrap();
    assert!(decision.is_signal());

    let idle = SignalBuilder::new(n)
        .noise_only()
        .seed(4)
        .build()
        .unwrap()
        .samples;
    let (decision, _) = session.run(&idle).unwrap();
    assert!(!decision.is_signal());
}

#[test]
fn quantised_platform_stays_close_to_the_golden_model() {
    // With the Q15 datapath enabled the platform result is no longer exact,
    // but for well-scaled inputs it stays within the quantisation budget.
    use montium_sim::MontiumConfig;
    let params = ScfParams::new(32, 7, 4).unwrap();
    // Keep the signal small so the FFT output stays within [-1, 1) after the
    // 1/N block-floating scaling of the quantised FFT.
    let signal: Vec<Cplx> = licensed_user_signal(&params, 10.0, 9)
        .into_iter()
        .map(|x| x * 0.05)
        .collect();
    let reference = dscf_reference(&signal, &params).unwrap();
    let config = SocConfig::paper().with_tile_config(MontiumConfig::paper().with_q15());
    let mut soc = TiledSoc::new(config, params.max_offset, params.fft_len).unwrap();
    let run = soc.run(&signal, params.num_blocks).unwrap();
    // The quantised FFT scales spectra by 1/K, so the DSCF scales by 1/K^2;
    // compare against the equally-scaled reference.
    let mut scaled_reference = reference.clone();
    scaled_reference.scale(1.0 / (params.fft_len * params.fft_len) as f64);
    let difference = run.scf.max_abs_difference(&scaled_reference);
    let peak = scaled_reference.max_magnitude();
    assert!(
        difference < 0.05 * peak.max(1e-6),
        "difference {difference} vs peak {peak}"
    );
}

#[test]
fn communication_is_t_times_slower_than_computation_on_the_platform() {
    // The paper's Section 4 justification for ignoring inter-core
    // communication: it happens at a rate T times lower than the MACs.
    let params = ScfParams::new(64, 15, 2).unwrap();
    let signal = licensed_user_signal(&params, 0.0, 13);
    let mut soc = TiledSoc::new(SocConfig::paper(), params.max_offset, params.fft_len).unwrap();
    let run = soc.run(&signal, params.num_blocks).unwrap();
    let t = soc.folding().tasks_per_core as f64;
    let macs_critical_tile = run.per_tile_cycles[0].multiply_accumulate as f64 / 3.0;
    let boundaries = (soc.num_tiles() - 1) as f64;
    let transfers_per_boundary_per_flow = run.inter_tile_transfers as f64 / boundaries / 2.0;
    let ratio = macs_critical_tile / transfers_per_boundary_per_flow;
    assert!(
        (ratio - t).abs() / t < 0.1,
        "compute/communication ratio {ratio} should be about T = {t}"
    );
}
