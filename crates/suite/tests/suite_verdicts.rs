//! BARRACUDA must report the correct verdict for all 66 suite programs
//! (paper §6.1: "BARRACUDA reports races (or the absence of a race)
//! correctly for all 66 of our tests").

use barracuda_suite::{all_programs, run_program, Expectation, Verdict};

#[test]
fn barracuda_correct_on_all_66_programs() {
    let mut failures = Vec::new();
    for p in all_programs() {
        let verdict = run_program(&p);
        let ok = matches!(
            (&verdict, p.expected),
            (Verdict::Race, Expectation::Race)
                | (Verdict::NoRace, Expectation::NoRace)
                | (Verdict::BarrierDivergence, Expectation::BarrierDivergence)
        );
        if !ok {
            failures.push(format!(
                "{}: expected {:?}, got {:?}",
                p.name, p.expected, verdict
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 66 programs misreported:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Race-class spot checks: the classification of §4.3.3 must land in the
/// right hierarchy bucket for representative programs.
#[test]
fn race_classes_match_program_structure() {
    use barracuda::{Engine, KernelRun, RaceClass};
    let cases = [
        ("branch_ordering_race", RaceClass::Divergence),
        ("global_diffvalue_intrawarp_race", RaceClass::IntraWarp),
        ("shared_ww_interwarp_race", RaceClass::IntraBlock),
        ("global_ww_interblock_race", RaceClass::InterBlock),
    ];
    for (name, expected_class) in cases {
        let p = barracuda_suite::program(name).expect("known program");
        let mut bar = Engine::new();
        let params = bar.gpu_mut().alloc_args(&p.args);
        let analysis = bar
            .check(&KernelRun {
                source: &p.source,
                kernel: barracuda_suite::KERNEL,
                dims: p.dims,
                params: &params,
            })
            .expect("runs");
        assert!(
            analysis.races().iter().any(|r| r.class == expected_class),
            "{name}: expected a {expected_class:?} race, got {:?}",
            analysis.races()
        );
    }
}
