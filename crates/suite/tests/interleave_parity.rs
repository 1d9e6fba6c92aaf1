//! Co-resident interleaving parity over the full suite: deferring every
//! launch into the shared warp scheduler must not change a single
//! verdict. All 66 single-kernel programs re-pin their expected verdicts
//! and all 11 multi-launch programs produce *exactly* the eager race
//! set, under every scheduling policy (round-robin, seeded random,
//! adversarial starve-one × 3 seeds), through both the synchronous and
//! the threaded detection pipelines.
//!
//! This is the headline guarantee of the co-resident scheduler: verdicts
//! are a function of the program and its happens-before structure —
//! frozen at launch registration — never of the schedule.

use std::collections::BTreeSet;

use barracuda::{BarracudaConfig, DetectionMode, RaceReport, SchedPolicy};
use barracuda_suite::{
    all_programs, multi_programs, run_multi_races, run_multi_races_with, run_program_with,
};
use barracuda_trace::ops::MemSpace;

const POLICIES: [SchedPolicy; 7] = [
    SchedPolicy::RoundRobin,
    SchedPolicy::Random(1),
    SchedPolicy::Random(42),
    SchedPolicy::Random(0xdead_beef),
    SchedPolicy::StarveOne(0),
    SchedPolicy::StarveOne(1),
    SchedPolicy::StarveOne(2),
];

fn interleave_config(policy: SchedPolicy, mode: DetectionMode) -> BarracudaConfig {
    let mut config = BarracudaConfig {
        mode,
        interleave_kernels: true,
        scheduler: policy,
        ..BarracudaConfig::default()
    };
    // Small worker pool: this harness spins up hundreds of engines.
    config.gpu.num_sms = 4;
    config
}

fn pin_all_verdicts(mode: DetectionMode) {
    let ps = all_programs();
    assert_eq!(ps.len(), 66);
    let mut failures = Vec::new();
    for policy in POLICIES {
        for p in &ps {
            let got = run_program_with(p, interleave_config(policy, mode));
            if !got.matches(p.expected) {
                failures.push(format!(
                    "{} under {policy:?}: expected {:?}, got {got:?}",
                    p.name, p.expected
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "interleaving changed {} suite verdicts ({mode:?}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn all_66_verdicts_unchanged_under_interleaving_sync() {
    pin_all_verdicts(DetectionMode::Synchronous);
}

#[test]
fn all_66_verdicts_unchanged_under_interleaving_threaded() {
    pin_all_verdicts(DetectionMode::Threaded);
}

/// `(space, block, addr)` — the race identity compared across schedules.
type RaceKey = (u8, u64, u64);

fn race_set(reports: &[RaceReport]) -> BTreeSet<RaceKey> {
    reports
        .iter()
        .map(|r| {
            (
                match r.space {
                    MemSpace::Global => 0u8,
                    MemSpace::Shared => 1,
                },
                r.block.unwrap_or(0),
                r.addr,
            )
        })
        .collect()
}

fn pin_multi_race_sets(mode: DetectionMode) {
    let ps = multi_programs();
    assert_eq!(ps.len(), 11);
    let mut failures = Vec::new();
    for p in &ps {
        let eager = race_set(&run_multi_races(p).unwrap_or_else(|e| panic!("{}: {e}", p.name)));
        for policy in POLICIES {
            let got = match run_multi_races_with(p, interleave_config(policy, mode)) {
                Ok(races) => race_set(&races),
                Err(e) => {
                    failures.push(format!("{} under {policy:?}: error {e}", p.name));
                    continue;
                }
            };
            if got != eager {
                failures.push(format!(
                    "{} under {policy:?}: eager {eager:?} vs interleaved {got:?}",
                    p.name
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "interleaving changed {} multi-launch race sets ({mode:?}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn all_11_multi_race_sets_equal_eager_sync() {
    pin_multi_race_sets(DetectionMode::Synchronous);
}

#[test]
fn all_11_multi_race_sets_equal_eager_threaded() {
    pin_multi_race_sets(DetectionMode::Threaded);
}
