//! Reproduces **Table 1** of the paper: the number of processor cycles per
//! task for one integration step of the 127×127 DSCF on one Montium core,
//! plus the Section 4.1 memory-sizing checks.
//!
//! Run with: `cargo run -p cfd-bench --bin table1` (exits non-zero when
//! the simulated cycle counts do not match the paper's).

use cfd_bench::header;
use cfd_core::prelude::*;
use cfd_dsp::signal::awgn;
use cfd_mapping::folding::Folding;
use cfd_mapping::memory::{MemoryRequirement, ShiftRegisterRequirement};
use montium_sim::kernels::{configure_tile, run_integration_step, TileTaskSet};
use montium_sim::MontiumCore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("Table 1: processor cycles per integration step (one Montium core)");

    // Cycle-level simulation of core 0 of the folded architecture.
    let mut tile = MontiumCore::paper();
    let task_set = TileTaskSet::paper(0)?;
    configure_tile(&mut tile, &task_set)?;
    let samples = awgn(256, 1.0, 2007);
    let run = run_integration_step(&mut tile, &task_set, &samples)?;
    let simulated = Table1Report::from_cycles(&run.cycles);
    let paper = Table1Report::paper_reference();

    println!(
        "simulated (cycle-level Montium tile model):\n{}",
        simulated.render()
    );
    println!("paper (Table 1):\n{}", paper.render());
    let exact = simulated.matches(&paper);
    println!("match: {}", if exact { "EXACT" } else { "MISMATCH" });
    println!(
        "time per integration step at 100 MHz: {:.2} us (paper: 139.96 us)",
        tile.config().cycles_to_us(run.cycles.total())
    );

    header("Section 4.1: memory sizing");
    let folding = Folding::paper();
    let memory = MemoryRequirement::paper();
    let shift = ShiftRegisterRequirement::new(&folding);
    println!(
        "accumulation memory per core: T*F = {}*127 = {} complex values = {} real 16-bit words",
        folding.tasks_per_core,
        memory.complex_values(),
        memory.real_words()
    );
    println!(
        "M01-M08 capacity: 8192 words -> fits: {}",
        memory.check_fits(8192).is_ok()
    );
    println!(
        "shift registers (M09/M10): {} complex values per flow (paper: 32)",
        shift.complex_values_per_flow()
    );
    println!(
        "dynamic range of 16-bit words: {:.1} dB (paper: sufficient below 96 dB)",
        memory.dynamic_range_db()
    );
    if !exact {
        return Err("the simulated cycle counts do not match Table 1".into());
    }
    Ok(())
}
