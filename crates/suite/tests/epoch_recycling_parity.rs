//! Epoch-recycling parity: recycling must be verdict-invisible.
//!
//! Runs the full 66-program verdict suite and the multi-launch /
//! host-interaction family with `epoch_recycling` on and off, in both
//! the synchronous and the threaded pipelines, and demands
//! identical verdicts — and, for the multi family (where recycling
//! actually fires at the host synchronization steps), identical race
//! *sets*, not just counts. A history cap small enough to trigger
//! trimming mid-program rides along, pinning that bookkeeping
//! truncation never leaks into detection state.

use barracuda::{BarracudaConfig, DetectionMode};
use barracuda_suite::{
    all_programs, multi_programs, run_multi_races_with, run_program_with, Expectation,
};
use std::collections::BTreeSet;

fn config(mode: DetectionMode, recycling: bool) -> BarracudaConfig {
    BarracudaConfig {
        mode,
        epoch_recycling: recycling,
        // Small enough that multi-program host timelines trim history.
        history_cap: 8,
        ..BarracudaConfig::default()
    }
}

fn pin_suite(mode: DetectionMode) {
    let ps = all_programs();
    assert_eq!(ps.len(), 66);
    let mut failures = Vec::new();
    for p in &ps {
        let with = run_program_with(p, config(mode, true));
        let without = run_program_with(p, config(mode, false));
        if with != without {
            failures.push(format!(
                "{}: recycling {with:?}, baseline {without:?}",
                p.name
            ));
        }
        if !with.matches(p.expected) {
            failures.push(format!(
                "{}: expected {:?}, got {with:?}",
                p.name, p.expected
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "epoch recycling changed {} verdicts ({mode:?}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Order-insensitive fingerprint of a race set. Threaded workers report
/// in nondeterministic order; the set of (space, addr, class) triples is
/// what both pipelines must agree on.
fn race_set(races: &[barracuda::RaceReport]) -> BTreeSet<String> {
    races
        .iter()
        .map(|r| format!("{:?}@{:#x}:{:?}", r.space, r.addr, r.class))
        .collect()
}

fn pin_multi(mode: DetectionMode) {
    let mut failures = Vec::new();
    for p in multi_programs() {
        let with = run_multi_races_with(&p, config(mode, true))
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let without = run_multi_races_with(&p, config(mode, false))
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        if race_set(&with) != race_set(&without) {
            failures.push(format!(
                "{}: recycling {:?}, baseline {:?}",
                p.name,
                race_set(&with),
                race_set(&without)
            ));
        }
        let racy = !with.is_empty();
        if racy != (p.expected == Expectation::Race) {
            failures.push(format!(
                "{}: expected {:?}, racy={racy}",
                p.name, p.expected
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "epoch recycling changed {} multi-launch race sets ({mode:?}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn all_66_verdicts_unchanged_by_recycling_sync() {
    pin_suite(DetectionMode::Synchronous);
}

#[test]
fn all_66_verdicts_unchanged_by_recycling_threaded() {
    pin_suite(DetectionMode::Threaded);
}

#[test]
fn multi_family_race_sets_unchanged_by_recycling_sync() {
    pin_multi(DetectionMode::Synchronous);
}

#[test]
fn multi_family_race_sets_unchanged_by_recycling_threaded() {
    pin_multi(DetectionMode::Threaded);
}

/// Recycling must actually fire on a long stream-ordered timeline: this
/// is the memory-bounding claim, checked end-to-end through the public
/// engine (not just the core soak).
#[test]
fn a_long_synchronized_timeline_compacts_and_resets() {
    use barracuda::{Engine, KernelRun};
    use barracuda_simt::ParamValue;
    use barracuda_trace::GridDims;

    let src = "\
.version 4.3\n.target sm_35\n.address_size 64\n\
.visible .entry k(.param .u64 buf)\n{\n\
.reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
ld.param.u64 %rd1, [buf];\n\
mov.u32 %r1, 7;\n\
st.global.u32 [%rd1], %r1;\n\
ret;\n}";
    let mut eng = Engine::with_config(BarracudaConfig {
        history_cap: 8,
        ..BarracudaConfig::default()
    });
    let buf = eng.gpu_mut().malloc(4);
    for _ in 0..64 {
        let analysis = eng
            .check(&KernelRun {
                source: src,
                kernel: "k",
                dims: GridDims::new(1u32, 32u32),
                params: &[ParamValue::Ptr(buf)],
            })
            .expect("check");
        assert_eq!(analysis.race_count(), 0);
        eng.device_synchronize().expect("sync");
    }
    let f = eng.footprint();
    assert!(
        f.generation > 0,
        "64 synchronized checks must reset the generation at least once: {f:?}"
    );
    assert!(
        f.registry_high_water <= 4,
        "registry must stay flat across synchronized checks: {f:?}"
    );
}
