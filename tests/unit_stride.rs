//! Pins the unit-stride DSCF rework (PR 7) against the eq.-3 golden model:
//!
//! * the [`ScfEngine`], one unit-stride run per row over padded operand
//!   planes, must equal [`dscf_reference`] **bitwise** over random
//!   `fft_len × max_offset × blocks × stride` geometries — including
//!   offsets at the validity boundary (`M = K/2 − 1`), where the `f±a`
//!   runs of every row cross the mod-K seam and read the wrap the padded
//!   planes copy in;
//! * the analytic SoC, which accumulates through the same engine, must
//!   equal [`dscf_reference`] **bitwise** on 1–17 tiles, including
//!   platforms with more tiles than DSCF columns (entirely idle tiles) and
//!   wrap-heavy offsets, and so must the cycle-accurate lockstep
//!   simulation, with the analytic SoC equal to it counter for counter;
//! * parameter errors are structured values, not panics: the overflowing
//!   and too-wide `max_offset` cases for both `ScfParams` and
//!   `CfdApplication`.

use cfd_core::app::CfdApplication;
use cfd_core::error::CfdError;
use cfd_dsp::complex::Cplx;
use cfd_dsp::error::DspError;
use cfd_dsp::scf::{dscf_reference, ScfEngine, ScfMatrix, ScfParams};
use cfd_dsp::signal::{modulated_signal, ModulatedSignalSpec};
use proptest::prelude::*;
use tiled_soc::config::{ExecutionMode, SocConfig};
use tiled_soc::soc::TiledSoc;

fn signal_for(samples: usize, seed: u64) -> Vec<Cplx> {
    let spec = ModulatedSignalSpec {
        samples_per_symbol: 4,
        ..Default::default()
    };
    modulated_signal(samples, &spec, seed).unwrap()
}

fn soc(mode: ExecutionMode, tiles: usize, max_offset: usize, fft_len: usize) -> TiledSoc {
    let config = SocConfig::paper().with_tiles(tiles).with_mode(mode);
    TiledSoc::new(config, max_offset, fft_len).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The re-blocked engine vs the eq.-3 reference, bit for bit, over
    /// random geometries including overlapping blocks (`stride <
    /// fft_len`). `max_offset` is drawn up to the validity limit, so a
    /// share of the cases have rows whose `f±a` runs cross the mod-K seam
    /// and read the wrap copied into the padded operand planes.
    #[test]
    fn engine_is_bit_identical_to_reference(
        seed in 0u64..1000,
        fft_pow in 4u32..8,
        offset_raw in 1usize..1000,
        blocks in 1usize..5,
        stride_raw in 1usize..1000,
    ) {
        let fft_len = 1usize << fft_pow;
        let max_offset = 1 + offset_raw % (fft_len / 2 - 1);
        let stride = 1 + stride_raw % fft_len;
        let params = ScfParams::new(fft_len, max_offset, blocks)
            .unwrap()
            .with_stride(stride);
        let signal = signal_for(params.samples_needed(), seed);
        let golden = dscf_reference(&signal, &params).unwrap();
        let engine = ScfEngine::new(params.clone()).unwrap();
        let mut fast = ScfMatrix::zeros(params.max_offset);
        engine.compute_into(&signal, &mut fast).unwrap();
        prop_assert_eq!(fast.as_slice(), golden.as_slice());
    }

    /// Rows at the maximum valid offset (`2M = K - 2`, every row wrapping)
    /// stay exact too — the most wrap the padded planes carry.
    #[test]
    fn engine_is_exact_at_the_wrap_heavy_boundary(
        seed in 0u64..1000,
        fft_pow in 4u32..7,
        blocks in 1usize..4,
    ) {
        let fft_len = 1usize << fft_pow;
        let max_offset = fft_len / 2 - 1;
        let params = ScfParams::new(fft_len, max_offset, blocks).unwrap();
        let signal = signal_for(params.samples_needed(), seed);
        let golden = dscf_reference(&signal, &params).unwrap();
        let fast = ScfEngine::new(params).unwrap().compute(&signal).unwrap();
        prop_assert_eq!(fast.as_slice(), golden.as_slice());
    }

    /// The analytic SoC vs the serial lockstep simulator, and both vs
    /// `dscf_reference`: bit-identical DSCF and equal platform counters on
    /// 1–17 tiles,
    /// including platforms with more tiles than grid columns, where
    /// trailing tiles hold no active task. Half of the cases sit at the
    /// wrap-heavy offset limit (`2M = K - 2`, every row wrapping the mod-K
    /// seam).
    #[test]
    fn threaded_analytic_soc_matches_serial_and_reference(
        seed in 0u64..1000,
        tiles in 1usize..18,
        fft_pow in 4u32..7,
        offset_raw in 1usize..1000,
        shape in 0usize..2,
        blocks in 1usize..4,
    ) {
        let fft_len = 1usize << fft_pow;
        let max_offset = if shape == 1 {
            fft_len / 2 - 1
        } else {
            1 + offset_raw % (fft_len / 2 - 1)
        };
        let signal = signal_for(fft_len * blocks, seed);
        let golden = soc(ExecutionMode::Lockstep, tiles, max_offset, fft_len)
            .run(&signal, blocks)
            .unwrap();
        let params = ScfParams::new(fft_len, max_offset, blocks).unwrap();
        let reference = dscf_reference(&signal, &params).unwrap();
        prop_assert_eq!(golden.scf.as_slice(), reference.as_slice());
        let run = soc(ExecutionMode::Analytic, tiles, max_offset, fft_len)
            .run(&signal, blocks)
            .unwrap();
        prop_assert_eq!(run.scf.as_slice(), golden.scf.as_slice());
        prop_assert_eq!(&run.per_tile_cycles, &golden.per_tile_cycles);
        prop_assert_eq!(run.inter_tile_transfers, golden.inter_tile_transfers);
        prop_assert_eq!(run.source_inputs, golden.source_inputs);
        prop_assert_eq!(run.blocks, golden.blocks);
    }
}

/// 16–20 tiles over a 15-column grid leave one to five tiles with no
/// active task. At every tile count the analytic SoC, whose closed-form
/// counters include the idle tiles, must stay exact against the serial
/// lockstep run.
#[test]
fn idle_tiles_survive_every_thread_count() {
    let (fft_len, max_offset, blocks) = (32usize, 7usize, 3usize);
    let signal = signal_for(fft_len * blocks, 99);
    for tiles in 16..=20 {
        let golden = soc(ExecutionMode::Lockstep, tiles, max_offset, fft_len)
            .run(&signal, blocks)
            .unwrap();
        assert!(golden
            .per_tile_cycles
            .iter()
            .any(|t| t.multiply_accumulate == 0));
        let run = soc(ExecutionMode::Analytic, tiles, max_offset, fft_len)
            .run(&signal, blocks)
            .unwrap();
        assert_eq!(run.scf.as_slice(), golden.scf.as_slice(), "{tiles} tiles");
        assert_eq!(run.per_tile_cycles, golden.per_tile_cycles, "{tiles} tiles");
        assert_eq!(
            run.inter_tile_transfers, golden.inter_tile_transfers,
            "{tiles} tiles"
        );
    }
}

/// Parameter errors are structured `InvalidParameter` values — for the
/// grid-wider-than-`fft_len` case and for the doubling that would
/// overflow `usize` — at both the `ScfParams` and `CfdApplication`
/// layers.
#[test]
fn too_wide_grids_are_structured_errors() {
    let too_wide = ScfParams::new(256, 128, 1).unwrap_err();
    assert!(matches!(
        too_wide,
        DspError::InvalidParameter {
            name: "max_offset",
            ..
        }
    ));
    let overflow = ScfParams::new(256, usize::MAX / 2 + 1, 1).unwrap_err();
    assert!(
        matches!(overflow, DspError::InvalidParameter { name: "max_offset", ref message }
            if message.contains("overflows"))
    );
    let wide_fft = ScfParams {
        fft_len: i32::MAX as usize + 1,
        max_offset: 1,
        num_blocks: 1,
        block_stride: 1,
        window: cfd_dsp::window::Window::Rectangular,
    }
    .validate()
    .unwrap_err();
    assert!(matches!(
        wide_fft,
        DspError::InvalidParameter {
            name: "fft_len",
            ..
        }
    ));
    let app = CfdApplication::new(256, usize::MAX / 2 + 1, 1).unwrap_err();
    assert!(matches!(
        app,
        CfdError::InvalidParameter {
            name: "max_offset",
            ..
        }
    ));
}
