//! Vector loads/stores (`ld.v2`/`st.v4`): parsing, execution, logging and
//! race detection at byte granularity.

use barracuda_repro::barracuda::{Engine, KernelRun};
use barracuda_repro::simt::{Gpu, GpuConfig, ParamValue};
use barracuda_repro::trace::GridDims;

const HEADER: &str = ".version 4.3\n.target sm_35\n.address_size 64\n";

#[test]
fn vector_ops_parse_and_round_trip() {
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [p];\n\
         ld.global.v2.u32 {{%r1, %r2}}, [%rd1];\n\
         ld.global.v4.u32 {{%r3, %r4, %r5, %r6}}, [%rd1+16];\n\
         st.global.v2.u32 [%rd1+32], {{%r1, %r2}};\n\
         st.global.v4.u32 [%rd1+48], {{%r3, %r4, %r5, %r6}};\n\
         ret;\n}}"
    );
    let m = barracuda_ptx::parse(&src).unwrap();
    let text = barracuda_ptx::printer::print_module(&m);
    let m2 = barracuda_ptx::parse(&text).expect("round trip");
    assert_eq!(m.kernels[0].stmts, m2.kernels[0].stmts);
}

#[test]
fn vector_load_store_executes_correctly() {
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [p];\n\
         ld.global.v4.u32 {{%r1, %r2, %r3, %r4}}, [%rd1];\n\
         st.global.v4.u32 [%rd1+16], {{%r4, %r3, %r2, %r1}};\n\
         ret;\n}}"
    );
    let m = barracuda_ptx::parse(&src).unwrap();
    let mut gpu = Gpu::new(GpuConfig::default());
    let p = gpu.malloc(32);
    gpu.write_u32s(p, &[10, 20, 30, 40]);
    gpu.launch(&m, "k", GridDims::new(1u32, 1u32), &[ParamValue::Ptr(p)])
        .unwrap();
    assert_eq!(gpu.read_u32s(p.offset(16), 4), vec![40, 30, 20, 10]);
}

#[test]
fn vector_store_races_with_overlapping_scalar_write() {
    // Block 0 stores a v4 (16 bytes); block 1 stores one u32 into the
    // middle of that range.
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .pred %pp;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [p];\n\
         mov.u32 %r1, %ctaid.x;\n\
         setp.eq.s32 %pp, %r1, 0;\n\
         @!%pp bra L_b;\n\
         st.global.v4.u32 [%rd1], {{%r1, %r1, %r1, %r1}};\n\
         bra.uni L_end;\n\
         L_b:\n\
         st.global.u32 [%rd1+8], 7;\n\
         L_end:\n\
         ret;\n}}"
    );
    let mut bar = Engine::new();
    let p = bar.gpu_mut().malloc(16);
    let a = bar
        .check(&KernelRun {
            source: &src,
            kernel: "k",
            dims: GridDims::new(2u32, 1u32),
            params: &[ParamValue::Ptr(p)],
        })
        .unwrap();
    assert_eq!(a.race_count(), 1, "{:?}", a.races());
}

#[test]
fn disjoint_vector_stores_are_clean() {
    // Each thread v2-stores into its own 8-byte slot.
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [p];\n\
         mov.u32 %r1, %tid.x;\n\
         mul.wide.u32 %rd2, %r1, 8;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.v2.u32 [%rd3], {{%r1, %r1}};\n\
         ld.global.v2.u32 {{%r2, %r3}}, [%rd3];\n\
         ret;\n}}"
    );
    let mut bar = Engine::new();
    let p = bar.gpu_mut().malloc(32 * 8);
    let a = bar
        .check(&KernelRun {
            source: &src,
            kernel: "k",
            dims: GridDims::new(1u32, 32u32),
            params: &[ParamValue::Ptr(p)],
        })
        .unwrap();
    assert!(a.is_clean(), "{:?}", a.races());
    // The store was logged; the same-address load after it was pruned as
    // redundant (write covers read).
    assert!(a.stats().instrument.log_calls >= 1);
    assert_eq!(a.stats().instrument.pruned, 1);
}

#[test]
fn vector_load_with_fence_is_an_acquire() {
    let src = format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [p];\n\
         ld.global.v2.u32 {{%r1, %r2}}, [%rd1];\n\
         membar.gl;\n\
         ret;\n}}"
    );
    let m = barracuda_ptx::parse(&src).unwrap();
    let (_, stats) = barracuda_repro::instrument::instrument_module(
        &m,
        &barracuda_repro::instrument::InstrumentOptions::default(),
    );
    assert_eq!(stats.acquires, 1);
}
