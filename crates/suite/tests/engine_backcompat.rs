//! Back-compat pinning: the persistent engine behind `Barracuda::check`
//! must reproduce the exact verdict of every one of the 66 single-kernel
//! suite programs in each pipeline (synchronous and threaded), and
//! sequential independent launches on one engine must not contaminate
//! each other's reports.

use barracuda::{Barracuda, BarracudaConfig, DetectionMode, GpuConfig, KernelRun};
use barracuda_simt::ParamValue;
use barracuda_suite::{
    all_programs, check_program, program, run_program_with, ArgSpec, SuiteProgram, KERNEL,
};

fn pin_all(mode: DetectionMode) {
    let ps = all_programs();
    assert_eq!(ps.len(), 66);
    let mut failures = Vec::new();
    for p in &ps {
        let config = BarracudaConfig {
            mode,
            ..BarracudaConfig::default()
        };
        let got = run_program_with(p, config);
        if !got.matches(p.expected) {
            failures.push(format!(
                "{}: expected {:?}, got {:?}",
                p.name, p.expected, got
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "engine changed {} suite verdicts ({mode:?}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn all_66_verdicts_unchanged_through_engine_sync() {
    pin_all(DetectionMode::Synchronous);
}

#[test]
fn all_66_verdicts_unchanged_through_engine_threaded() {
    pin_all(DetectionMode::Threaded);
}

#[test]
fn records_count_device_emissions_in_every_pipeline() {
    // `AnalysisStats::records` is what the device logger emitted, in
    // either pipeline.
    let records = |p, mode| {
        let config = BarracudaConfig {
            mode,
            gpu: GpuConfig {
                num_sms: 3,
                ..GpuConfig::default()
            },
            queues_per_sm: 1.0,
            ..BarracudaConfig::default()
        };
        check_program(p, config).ok().map(|a| a.stats().records)
    };
    let ps = all_programs();
    assert_eq!(ps.len(), 66);
    for p in &ps {
        assert_eq!(
            records(p, DetectionMode::Threaded),
            records(p, DetectionMode::Synchronous),
            "{}",
            p.name
        );
    }
}

/// Runs one suite program on an existing session (fresh buffers, same
/// persistent detector state) and returns the observed race count.
fn run_on(bar: &mut Barracuda, p: &SuiteProgram) -> usize {
    let mut params = Vec::with_capacity(p.args.len());
    for a in &p.args {
        match a {
            ArgSpec::Buf(bytes) => params.push(ParamValue::Ptr(bar.gpu_mut().malloc(*bytes))),
            ArgSpec::U32(v) => params.push(ParamValue::U32(*v)),
        }
    }
    let run = KernelRun {
        source: &p.source,
        kernel: KERNEL,
        dims: p.dims,
        params: &params,
    };
    bar.check(&run).expect("launch failed").race_count()
}

#[test]
fn sequential_independent_launches_do_not_cross_contaminate() {
    // A racy program followed by a race-free one on the SAME engine: the
    // second launch touches disjoint buffers, so the persistent shadow
    // state from the first launch must not leak any report into it.
    let racy = program("global_ww_interblock_race").unwrap();
    let clean = program("global_flag_gl_fences_norace").unwrap();
    let mut bar = Barracuda::new();
    assert!(run_on(&mut bar, &racy) > 0, "first launch should race");
    assert_eq!(run_on(&mut bar, &clean), 0, "clean launch inherited races");
    // And the other way around: a clean launch first must not suppress
    // the racy launch's reports.
    let mut bar = Barracuda::new();
    assert_eq!(run_on(&mut bar, &clean), 0);
    assert!(run_on(&mut bar, &racy) > 0, "racy launch lost its races");
    // Same racy program twice: each run re-reports its own races.
    let mut bar = Barracuda::new();
    let first = run_on(&mut bar, &racy);
    let second = run_on(&mut bar, &racy);
    assert!(first > 0 && second > 0, "dedup leaked across launches");
}
