//! Chaos differential testing: every suite program must produce the same
//! verdict under the synchronous reference pipeline and under the
//! threaded pipeline with an aggressive (but lossless) stall-only fault
//! plan, across several seeds.
//!
//! Stall-only chaos perturbs *timing* — consumers sleep, queues fill,
//! producers block on backpressure — but never loses records, so any
//! verdict divergence is a real pipeline bug (lost ordering, dropped
//! records, broken merge), not an artifact of the fault plan.

use barracuda::{BarracudaConfig, DetectionMode, FaultPlan, GpuConfig};
use barracuda_suite::{all_programs, run_program_with, Verdict};

/// Threaded config under stall-only chaos: few queues, tiny capacity, so
/// backpressure actually engages on the suite's small record streams.
fn chaos_config(seed: u64) -> BarracudaConfig {
    BarracudaConfig {
        mode: DetectionMode::Threaded,
        gpu: GpuConfig {
            num_sms: 4,
            ..GpuConfig::default()
        },
        queues_per_sm: 1.0,
        queue_capacity: 64,
        fault_plan: Some(FaultPlan::stalls_only(seed)),
        ..BarracudaConfig::default()
    }
}

#[test]
fn every_program_agrees_between_sync_and_chaotic_threaded() {
    let programs = all_programs();
    let mut mismatches = Vec::new();
    for p in &programs {
        let reference = run_program_with(p, BarracudaConfig::default());
        assert!(
            !matches!(reference, Verdict::Error(_)),
            "{}: reference run errored: {reference:?}",
            p.name
        );
        for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
            let chaotic = run_program_with(p, chaos_config(seed));
            if chaotic != reference {
                mismatches.push(format!(
                    "{} seed={seed:#x}: sync={reference:?} chaotic={chaotic:?}",
                    p.name
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "verdict divergence under stall-only chaos:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn stall_only_chaos_is_lossless_on_a_representative_program() {
    // The differential test compares verdicts; this one pins the reason
    // the comparison is fair — a stall-only plan must not shed records.
    use barracuda::{Engine, KernelRun};
    use barracuda_suite::{program, KERNEL};

    let p = program("global_ww_interblock_race").expect("suite program exists");
    let mut bar = Engine::with_config(chaos_config(7));
    let params = bar.gpu_mut().alloc_args(&p.args);
    let a = bar
        .check(&KernelRun {
            source: &p.source,
            kernel: KERNEL,
            dims: p.dims,
            params: &params,
        })
        .unwrap();
    let pipe = &a.stats().pipeline;
    assert!(pipe.is_lossless(), "{pipe:?}");
    assert!(!a.is_degraded());
}
