//! `shfl` warp shuffles: register exchange within a warp — the
//! memory-free warp-synchronous primitive. Shuffles never touch memory, so
//! they are not instrumented and cannot race; a butterfly-shuffle
//! reduction is the canonical race-free alternative to shared-memory
//! warp code.

use barracuda_repro::barracuda::{Engine, KernelRun};
use barracuda_repro::simt::{Gpu, GpuConfig, ParamValue};
use barracuda_repro::trace::GridDims;

const HEADER: &str = ".version 4.3\n.target sm_35\n.address_size 64\n";

/// Butterfly reduction: after log2(32) xor-shuffle rounds every lane holds
/// the warp-wide sum.
fn butterfly_reduce_src() -> String {
    let mut body = String::from(
        ".reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [out];\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u32 %r2, %r1;\n",
    );
    for s in [16, 8, 4, 2, 1] {
        body.push_str(&format!(
            "shfl.bfly.b32 %r3, %r2, {s}, 31;\nadd.s32 %r2, %r2, %r3;\n"
        ));
    }
    body.push_str(
        "mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         ret;\n",
    );
    format!("{HEADER}.visible .entry reduce(.param .u64 out)\n{{\n{body}}}")
}

#[test]
fn shfl_parses_and_round_trips() {
    let src = format!(
        "{HEADER}.visible .entry k()\n{{\n.reg .b32 %r<4>;\n\
         shfl.up.b32 %r1, %r2, 1, 0;\n\
         shfl.down.b32 %r1, %r2, 2, 31;\n\
         shfl.bfly.b32 %r1, %r2, 16, 31;\n\
         shfl.idx.b32 %r1, %r2, 0, 31;\n\
         ret;\n}}"
    );
    let m = barracuda_ptx::parse(&src).unwrap();
    let text = barracuda_ptx::printer::print_module(&m);
    let m2 = barracuda_ptx::parse(&text).expect("round trip");
    assert_eq!(m.kernels[0].stmts, m2.kernels[0].stmts);
}

#[test]
fn butterfly_reduction_computes_warp_sum() {
    let m = barracuda_ptx::parse(&butterfly_reduce_src()).unwrap();
    let mut gpu = Gpu::new(GpuConfig::default());
    let out = gpu.malloc(32 * 4);
    gpu.launch(
        &m,
        "reduce",
        GridDims::new(1u32, 32u32),
        &[ParamValue::Ptr(out)],
    )
    .unwrap();
    let expect: u32 = (0..32).sum(); // 496
    assert_eq!(gpu.read_u32s(out, 32), vec![expect; 32]);
}

#[test]
fn shfl_reduction_is_race_free_under_detection() {
    let src = butterfly_reduce_src();
    let mut bar = Engine::new();
    let out = bar.gpu_mut().malloc(32 * 4);
    let a = bar
        .check(&KernelRun {
            source: &src,
            kernel: "reduce",
            dims: GridDims::new(1u32, 32u32),
            params: &[ParamValue::Ptr(out)],
        })
        .unwrap();
    assert!(a.is_clean(), "{:?}", a.races());
    // Shuffles are register exchanges: only the final store is logged.
    assert_eq!(a.stats().instrument.log_calls, 1);
}

#[test]
fn shfl_modes_select_expected_lanes() {
    // Each lane writes the value it received from shfl.down by 1:
    // lane i gets lane i+1's tid; the last lane keeps its own.
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 out)\n{{\n\
         .reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [out];\n\
         mov.u32 %r1, %tid.x;\n\
         shfl.down.b32 %r2, %r1, 1, 31;\n\
         mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         ret;\n}}"
    );
    let m = barracuda_ptx::parse(&src).unwrap();
    let mut gpu = Gpu::new(GpuConfig::default());
    let out = gpu.malloc(32 * 4);
    gpu.launch(&m, "k", GridDims::new(1u32, 32u32), &[ParamValue::Ptr(out)])
        .unwrap();
    let v = gpu.read_u32s(out, 32);
    for (i, &x) in v.iter().enumerate().take(31) {
        assert_eq!(x, i as u32 + 1);
    }
    assert_eq!(v[31], 31, "out-of-range source keeps own value");
}

#[test]
fn shfl_respects_divergence() {
    // Only lanes 0..16 are active; a shfl.down by 16 would source from
    // inactive lanes → lanes keep their own values.
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 out)\n{{\n\
         .reg .pred %p;\n.reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [out];\n\
         mov.u32 %r1, %tid.x;\n\
         setp.ge.s32 %p, %r1, 16;\n\
         @%p bra L_end;\n\
         shfl.down.b32 %r2, %r1, 16, 31;\n\
         mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         L_end:\n\
         ret;\n}}"
    );
    let m = barracuda_ptx::parse(&src).unwrap();
    let mut gpu = Gpu::new(GpuConfig::default());
    let out = gpu.malloc(32 * 4);
    gpu.launch(&m, "k", GridDims::new(1u32, 32u32), &[ParamValue::Ptr(out)])
        .unwrap();
    let v = gpu.read_u32s(out, 32);
    for (i, &x) in v.iter().enumerate().take(16) {
        assert_eq!(x, i as u32, "inactive source lane → own value");
    }
}
