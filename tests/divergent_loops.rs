//! Divergent loops: lanes with different trip counts progressively leave
//! the loop, exercising deep SIMT-stack nesting and the matching detector
//! stack. The paper treats loops as implicitly unrolled (§3.1); each
//! divergent iteration still produces balanced if/else/fi events.

use barracuda_repro::barracuda::{Engine, KernelRun};
use barracuda_repro::simt::{Gpu, GpuConfig, ParamValue};
use barracuda_repro::trace::GridDims;

const HEADER: &str = ".version 4.3\n.target sm_35\n.address_size 64\n";

/// Each lane iterates `tid+1` times, accumulating; lanes exit the loop at
/// different iterations.
fn variable_trip_src() -> String {
    format!(
        "{HEADER}.visible .entry k(.param .u64 out)\n{{\n\
         .reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [out];\n\
         mov.u32 %r1, %tid.x;\n\
         add.s32 %r2, %r1, 1;\n\
         mov.u32 %r3, 0;\n\
         mov.u32 %r4, 0;\n\
         L_loop:\n\
         add.s32 %r3, %r3, %r2;\n\
         add.s32 %r4, %r4, 1;\n\
         setp.lt.u32 %p, %r4, %r2;\n\
         @%p bra L_loop;\n\
         mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r3;\n\
         ret;\n}}"
    )
}

#[test]
fn variable_trip_counts_compute_correctly() {
    let m = barracuda_ptx::parse(&variable_trip_src()).unwrap();
    let mut gpu = Gpu::new(GpuConfig::default());
    let out = gpu.malloc(32 * 4);
    gpu.launch(&m, "k", GridDims::new(1u32, 32u32), &[ParamValue::Ptr(out)])
        .unwrap();
    let v = gpu.read_u32s(out, 32);
    for (i, &x) in v.iter().enumerate() {
        let n = i as u32 + 1;
        assert_eq!(x, n * n, "lane {i}: (tid+1) added tid+1 times");
    }
}

#[test]
fn divergent_loop_is_race_free_under_detection() {
    let src = variable_trip_src();
    let mut bar = Engine::new();
    let out = bar.gpu_mut().malloc(32 * 4);
    let a = bar
        .check(&KernelRun {
            source: &src,
            kernel: "k",
            dims: GridDims::new(1u32, 32u32),
            params: &[ParamValue::Ptr(out)],
        })
        .unwrap();
    assert!(a.is_clean(), "{:?}", a.races());
    // 32 distinct trip counts → many nested branch rounds were processed.
    assert!(a.stats().events > 32);
}

#[test]
fn divergent_loop_writes_same_location_race() {
    // Every iteration of every lane writes buf[0]: lanes of one warp in
    // the same iteration conflict (intra-warp), and lanes that left the
    // loop are concurrent with those still in it (divergence).
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 out)\n{{\n\
         .reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [out];\n\
         mov.u32 %r1, %tid.x;\n\
         add.s32 %r2, %r1, 1;\n\
         mov.u32 %r4, 0;\n\
         L_loop:\n\
         st.global.u32 [%rd1], %r1;\n\
         add.s32 %r4, %r4, 1;\n\
         setp.lt.u32 %p, %r4, %r2;\n\
         @%p bra L_loop;\n\
         ret;\n}}"
    );
    let mut bar = Engine::new();
    let out = bar.gpu_mut().malloc(4);
    let a = bar
        .check(&KernelRun {
            source: &src,
            kernel: "k",
            dims: GridDims::new(1u32, 4u32),
            params: &[ParamValue::Ptr(out)],
        })
        .unwrap();
    assert_eq!(a.race_count(), 1);
}

#[test]
fn nested_divergent_loops_terminate_and_stay_balanced() {
    // Inner loop trip count depends on the outer counter and the lane —
    // doubly-divergent nesting.
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 out)\n{{\n\
         .reg .pred %p<3>;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [out];\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u32 %r2, 0;\n\
         mov.u32 %r5, 0;\n\
         L_outer:\n\
         mov.u32 %r3, 0;\n\
         L_inner:\n\
         add.s32 %r5, %r5, 1;\n\
         add.s32 %r3, %r3, 1;\n\
         and.b32 %r4, %r1, 3;\n\
         setp.le.u32 %p1, %r3, %r4;\n\
         @%p1 bra L_inner;\n\
         add.s32 %r2, %r2, 1;\n\
         setp.lt.u32 %p2, %r2, 3;\n\
         @%p2 bra L_outer;\n\
         mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r5;\n\
         ret;\n}}"
    );
    let mut bar = Engine::new();
    let out = bar.gpu_mut().malloc(32 * 4);
    let a = bar
        .check(&KernelRun {
            source: &src,
            kernel: "k",
            dims: GridDims::new(1u32, 32u32),
            params: &[ParamValue::Ptr(out)],
        })
        .unwrap();
    assert!(a.is_clean(), "{:?}", a.races());
    // Lane writes 3 * ((tid & 3) + 1) total inner iterations.
    let v = bar.gpu().read_u32s(out, 32);
    for (i, &x) in v.iter().enumerate() {
        assert_eq!(x, 3 * ((i as u32 & 3) + 1), "lane {i}");
    }
}
