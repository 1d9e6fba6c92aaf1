//! Quickstart: detect a data race in a CUDA kernel at the PTX level.
//!
//! Two thread blocks increment a global counter with plain loads and
//! stores — a classic lost-update race. BARRACUDA instruments the PTX,
//! runs it on the SIMT simulator, and reports the race.
//!
//! Run with: `cargo run --example quickstart`

use barracuda_repro::barracuda::{Engine, KernelRun};
use barracuda_repro::simt::ParamValue;
use barracuda_repro::trace::GridDims;

const PTX: &str = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry racy_counter(.param .u64 ctr)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [ctr];
    ld.global.u32 %r1, [%rd1];
    add.s32 %r1, %r1, 1;
    st.global.u32 [%rd1], %r1;
    ret;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut bar = Engine::new();
    let ctr = bar.gpu_mut().malloc(4);

    let analysis = bar.check(&KernelRun {
        source: PTX,
        kernel: "racy_counter",
        dims: GridDims::new(2u32, 32u32),
        params: &[ParamValue::Ptr(ctr)],
    })?;

    println!("kernel executed; counter = {}", bar.gpu().read_u32(ctr));
    println!("races found: {}", analysis.race_count());
    for race in analysis.races() {
        println!("  {race}");
    }
    let stats = analysis.stats();
    println!(
        "\nstatic instructions instrumented: {} of {} ({:.0}%)",
        stats.instrument.instrumented_instructions,
        stats.instrument.static_instructions,
        stats.instrument.instrumented_fraction() * 100.0
    );
    println!("device-side log records: {}", stats.records);
    assert!(
        analysis.race_count() > 0,
        "the lost-update race must be detected"
    );

    // The same kernel with an atomic increment is race-free.
    let fixed = PTX.replace(
        "ld.global.u32 %r1, [%rd1];\n    add.s32 %r1, %r1, 1;\n    st.global.u32 [%rd1], %r1;",
        "atom.global.add.u32 %r1, [%rd1], 1;",
    );
    let mut bar2 = Engine::new();
    let ctr2 = bar2.gpu_mut().malloc(4);
    let analysis2 = bar2.check(&KernelRun {
        source: &fixed,
        kernel: "racy_counter",
        dims: GridDims::new(2u32, 32u32),
        params: &[ParamValue::Ptr(ctr2)],
    })?;
    println!(
        "\nwith atom.global.add instead: races = {} and counter = {}",
        analysis2.race_count(),
        bar2.gpu().read_u32(ctr2)
    );
    assert!(analysis2.is_clean());
    Ok(())
}
