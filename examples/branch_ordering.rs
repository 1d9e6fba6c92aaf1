//! Branch ordering races — the new bug class the paper identifies (§3.3.1).
//!
//! When a warp diverges, the hardware SIMT stack serializes the two paths
//! in an *architecture-defined* order. Code whose result depends on that
//! order is broken in a subtle, portability-hostile way. BARRACUDA models
//! the paths as concurrent and classifies such conflicts as *divergence*
//! races.
//!
//! Run with: `cargo run --example branch_ordering`

use barracuda_repro::barracuda::{Engine, KernelRun, RaceClass};
use barracuda_repro::simt::ParamValue;
use barracuda_repro::trace::GridDims;

// Lane 0 takes the then path, lane 1 the else path; both write x.
// Whichever path the hardware happens to run second "wins".
const RACY: &str = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry branchy(.param .u64 x)
{
    .reg .pred %p<3>;
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [x];
    mov.u32 %r1, %tid.x;
    setp.ge.s32 %p1, %r1, 2;
    @%p1 bra L_end;
    setp.eq.s32 %p2, %r1, 0;
    @%p2 bra L_then;
    st.global.u32 [%rd1], 2;
    bra.uni L_end;
L_then:
    st.global.u32 [%rd1], 1;
L_end:
    ret;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut bar = Engine::new();
    let x = bar.gpu_mut().malloc(4);
    let analysis = bar.check(&KernelRun {
        source: RACY,
        kernel: "branchy",
        dims: GridDims::new(1u32, 32u32),
        params: &[ParamValue::Ptr(x)],
    })?;

    println!(
        "final value of x: {} (depends on the SIMT stack's path order!)",
        bar.gpu().read_u32(x)
    );
    println!("races found: {}", analysis.race_count());
    for race in analysis.races() {
        println!("  {race}");
    }
    assert_eq!(
        analysis.count_class(RaceClass::Divergence),
        1,
        "classified as a divergence race"
    );

    // The fixed version writes disjoint locations on each path.
    let fixed = RACY.replace("st.global.u32 [%rd1], 2;", "st.global.u32 [%rd1+4], 2;");
    let mut bar2 = Engine::new();
    let x2 = bar2.gpu_mut().malloc(8);
    let analysis2 = bar2.check(&KernelRun {
        source: &fixed,
        kernel: "branchy",
        dims: GridDims::new(1u32, 32u32),
        params: &[ParamValue::Ptr(x2)],
    })?;
    println!(
        "\nwith disjoint per-path writes: races = {}",
        analysis2.race_count()
    );
    assert!(analysis2.is_clean());
    Ok(())
}
