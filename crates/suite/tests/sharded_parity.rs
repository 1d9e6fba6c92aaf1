//! Sharded-routing parity over the full verdict suite: every one of the
//! 66 single-kernel programs must produce its expected verdict with
//! page-hash record routing enabled (`sharded_routing: true` — plain
//! global accesses page-partitioned across owner workers, sync/control
//! records replicated to every queue), with the shadow fast paths both
//! on and off.
//!
//! Together with `fastpath_parity` and `engine_backcompat`, this pins
//! end-to-end that the sharded and unified pipelines agree on every
//! program in the suite.

use barracuda::{BarracudaConfig, DetectionMode, GpuConfig};
use barracuda_suite::{all_programs, check_program, run_program_with, Expectation, Verdict};

fn expectation_matches(v: &Verdict, e: Expectation) -> bool {
    matches!(
        (v, e),
        (Verdict::Race, Expectation::Race)
            | (Verdict::NoRace, Expectation::NoRace)
            | (Verdict::BarrierDivergence, Expectation::BarrierDivergence)
    )
}

fn pin_all_sharded(fast_paths: bool) {
    let ps = all_programs();
    assert_eq!(ps.len(), 66);
    let mut failures = Vec::new();
    for p in &ps {
        let config = BarracudaConfig {
            mode: DetectionMode::Threaded,
            sharded_routing: true,
            detector_fast_paths: fast_paths,
            ..BarracudaConfig::default()
        };
        let got = run_program_with(p, config);
        if !expectation_matches(&got, p.expected) {
            failures.push(format!(
                "{}: expected {:?}, got {:?}",
                p.name, p.expected, got
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "sharded routing changed {} suite verdicts (fast_paths={fast_paths}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn all_66_verdicts_unchanged_with_sharded_routing() {
    pin_all_sharded(true);
}

#[test]
fn all_66_verdicts_unchanged_with_sharded_routing_slow_paths() {
    pin_all_sharded(false);
}

#[test]
fn records_count_device_emissions_in_every_pipeline() {
    // `AnalysisStats::records` is what the device logger emitted: the
    // sharded router's page fragments and sync/control broadcast copies
    // are queue traffic, not extra records.
    let records = |p, mode, sharded_routing| {
        let config = BarracudaConfig {
            mode,
            sharded_routing,
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
        let sync = records(p, DetectionMode::Synchronous, false);
        assert_eq!(
            records(p, DetectionMode::Threaded, false),
            sync,
            "{}",
            p.name
        );
        assert_eq!(
            records(p, DetectionMode::Threaded, true),
            sync,
            "{} (sharded)",
            p.name
        );
    }
}
