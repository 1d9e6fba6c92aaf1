//! Latent warp-size bugs (paper §3.1).
//!
//! "Portable CUDA code should eschew assumptions about warp size" — this
//! warp-synchronous neighbour exchange is race-free on 32-wide warps
//! because lockstep execution orders the store before the load, but the
//! moment warps are narrower the exchange crosses warp boundaries and
//! races. BARRACUDA's warp-size sweep (the future-work extension of
//! §3.1) finds the latent bug without different hardware.
//!
//! Run with: `cargo run --example warp_portability`

use barracuda_repro::barracuda::{Engine, KernelRun};
use barracuda_repro::simt::ParamValue;
use barracuda_repro::trace::GridDims;

// st sm[tid]; ld sm[(tid+1) & 31] — no barrier, warp-synchronous.
const WARP_SYNC: &str = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry shuffle(.param .u64 out)
{
    .reg .b32 %r<8>;
    .reg .b64 %rd<8>;
    .shared .align 4 .b8 sm[128];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u64 %rd3, sm;
    mul.wide.s32 %rd2, %r1, 4;
    add.s64 %rd4, %rd3, %rd2;
    st.shared.u32 [%rd4], %r1;
    add.s32 %r2, %r1, 1;
    and.b32 %r2, %r2, 31;
    mul.wide.s32 %rd5, %r2, 4;
    add.s64 %rd6, %rd3, %rd5;
    ld.shared.u32 %r3, [%rd6];
    add.s64 %rd7, %rd1, %rd2;
    st.global.u32 [%rd7], %r3;
    ret;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut bar = Engine::new();
    let out = bar.gpu_mut().malloc(32 * 4);
    let run = KernelRun {
        source: WARP_SYNC,
        kernel: "shuffle",
        dims: GridDims::new(1u32, 32u32),
        params: &[ParamValue::Ptr(out)],
    };
    println!("warp-synchronous neighbour exchange, checked at several warp sizes:\n");
    println!("{:<12} {:>8}", "warp size", "races");
    let results = bar.check_warp_sizes(&run, &[32, 16, 8, 4])?;
    for (ws, analysis) in &results {
        println!("{ws:<12} {:>8}", analysis.race_count());
    }
    assert_eq!(
        results[0].1.race_count(),
        0,
        "race-free at the hardware warp size"
    );
    assert!(
        results.iter().skip(1).all(|(_, a)| a.race_count() > 0),
        "latent races at smaller warp sizes"
    );
    println!(
        "\nthe code is only correct because 32 threads happen to execute in lockstep — \
         a latent portability bug that BARRACUDA exposes by simulating narrower warps."
    );
    Ok(())
}
