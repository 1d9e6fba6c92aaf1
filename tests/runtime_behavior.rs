//! Runtime-level behaviours: queue back-pressure, multi-kernel sessions,
//! and the paper's PTVC format-distribution claim.

use barracuda_repro::barracuda::{BarracudaConfig, DetectionMode, Engine, KernelRun};
use barracuda_repro::simt::ParamValue;
use barracuda_repro::suite::{program, KERNEL};
use barracuda_repro::trace::GridDims;
use barracuda_repro::workloads::{workload, Scale};

#[test]
fn tiny_queues_back_pressure_but_stay_correct() {
    // Capacity-8 queues force the device-side logger to block on the
    // host consumers constantly (§4.2: the logger "waits for the CPU to
    // drain queue entries if necessary"); verdicts must be unaffected.
    let w = workload("pathfinder").expect("known workload");
    let inst = w.generate(&Scale::quick());
    let mut bar = Engine::with_config(BarracudaConfig {
        mode: DetectionMode::Threaded,
        queue_capacity: 8,
        ..BarracudaConfig::default()
    });
    let params = inst.alloc_params(bar.gpu_mut());
    let analysis = bar
        .check_module(&inst.module, &inst.kernel, inst.dims, &params)
        .expect("runs under back-pressure");
    assert_eq!(analysis.race_count() as u32, inst.expected_races());
}

#[test]
fn multiple_kernels_share_one_session() {
    // Device memory persists across launches within a session; each
    // launch gets its own detector (races are intra-kernel, §1).
    let fill = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry fill(.param .u64 buf)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.s64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    ret;
}
"#;
    let sum = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry sum(.param .u64 buf, .param .u64 out)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    ld.param.u64 %rd2, [out];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd3, %r1, 4;
    add.s64 %rd3, %rd1, %rd3;
    ld.global.u32 %r2, [%rd3];
    atom.global.add.u32 %r3, [%rd2], %r2;
    ret;
}
"#;
    let mut bar = Engine::new();
    let buf = bar.gpu_mut().malloc(32 * 4);
    let out = bar.gpu_mut().malloc(4);
    let dims = GridDims::new(1u32, 32u32);
    let a1 = bar
        .check(&KernelRun {
            source: fill,
            kernel: "fill",
            dims,
            params: &[ParamValue::Ptr(buf)],
        })
        .unwrap();
    assert!(a1.is_clean());
    let a2 = bar
        .check(&KernelRun {
            source: sum,
            kernel: "sum",
            dims,
            params: &[ParamValue::Ptr(buf), ParamValue::Ptr(out)],
        })
        .unwrap();
    assert!(a2.is_clean());
    assert_eq!(bar.gpu().read_u32(out), (0..32).sum::<u32>());
}

#[test]
fn ptvc_formats_are_mostly_cheap() {
    // §4.3.1: "roughly 90% of the time PTVCs have the same value for all
    // threads external to a warp and either 1) the same value for all
    // threads in a warp or 2) two distinct values" — i.e. the CONVERGED
    // and DIVERGED formats dominate. Aggregate the format census over a
    // representative batch of suite programs.
    let mut census = [0u64; 4];
    for name in [
        "global_disjoint_norace",
        "shared_staged_read_barrier_norace",
        "branch_disjoint_paths_norace",
        "reduction_barriers_norace",
        "barrier_full_block_norace",
        "warp_synchronous_shuffle_norace",
        "branch_after_fi_norace",
    ] {
        let p = program(name).expect("known program");
        let mut bar = Engine::new();
        let params = bar.gpu_mut().alloc_args(&p.args);
        let analysis = bar
            .check(&KernelRun {
                source: &p.source,
                kernel: KERNEL,
                dims: p.dims,
                params: &params,
            })
            .unwrap();
        for (acc, c) in census.iter_mut().zip(analysis.stats().format_census) {
            *acc += c;
        }
    }
    let total: u64 = census.iter().sum();
    let cheap = census[0] + census[1]; // converged + diverged
    assert!(total > 0);
    let frac = cheap as f64 / total as f64;
    assert!(
        frac >= 0.85,
        "cheap PTVC formats should dominate (paper: ~90%), got {:.1}% {census:?}",
        frac * 100.0
    );
}
