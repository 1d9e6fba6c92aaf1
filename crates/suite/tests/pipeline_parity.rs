//! Pipeline parity over the whole suite, as one matrix: detection mode
//! (synchronous, threaded) × co-resident interleaving (eager, or deferred
//! under each scheduling policy).
//!
//! Each test runs one mode × schedule pair in several cells: the default
//! configuration (what `barracuda check` and the benchmarks run: no
//! history trimming and, for an eager run, the default 24-SM GPU), and a
//! history cap small enough to trim mid-program. An eager run adds a
//! 3-queue cell (3 SMs, one queue each), where many blocks share a
//! detector queue.
//!
//! In every cell, each of the 66 single-kernel programs keeps its
//! expected verdict and emits as many device records as in the
//! synchronous 3-queue cell; each of the 15 multi-launch programs keeps
//! its expected verdict and reports the race set of an eager run with the
//! default configuration, and every race of a racy one carries the
//! program's race class. The engine recycles epochs at every host
//! synchronization in every cell; `barracuda-core`'s `epoch_recycling`
//! test holds it to an engine core that never recycles.
//!
//! Verdicts are a function of the program and its happens-before
//! structure — frozen at launch registration — never of the pipeline, the
//! queue count, the schedule or the epoch bookkeeping.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use barracuda::{BarracudaConfig, DetectionMode, Engine, KernelRun, RaceReport, SchedPolicy};
use barracuda_suite::{
    all_programs, check_program, multi_programs, program, run_multi_races_with, Expectation,
    SuiteProgram, Verdict, KERNEL,
};
use barracuda_trace::ops::MemSpace;

/// The default configuration of one mode × schedule pair. Interleaved
/// cells use a 4-SM GPU: the matrix spins up thousands of engines.
fn default_config(mode: DetectionMode, schedule: Option<SchedPolicy>) -> BarracudaConfig {
    let mut config = BarracudaConfig {
        mode,
        interleave: schedule,
        ..BarracudaConfig::default()
    };
    if schedule.is_some() {
        config.gpu.num_sms = 4;
    }
    config
}

/// Small enough that multi-program host timelines trim history.
fn trimmed(config: &BarracudaConfig) -> BarracudaConfig {
    BarracudaConfig {
        history_cap: 8,
        ..config.clone()
    }
}

/// Three detector queues, so many blocks share one.
fn three_queues(mode: DetectionMode) -> BarracudaConfig {
    let mut config = default_config(mode, None);
    config.gpu.num_sms = 3;
    config.queues_per_sm = 1.0;
    config
}

/// `(space, block, addr)`: the race identity every cell must reproduce.
type RaceKey = (u8, u64, u64);

fn race_key(r: &RaceReport) -> RaceKey {
    let space = match r.space {
        MemSpace::Global => 0,
        MemSpace::Shared => 1,
    };
    (space, r.block.unwrap_or(0), r.addr)
}

fn race_set(races: &[RaceReport]) -> BTreeSet<RaceKey> {
    races.iter().map(race_key).collect()
}

/// The race set with each race's class.
fn classed_race_set(races: &[RaceReport]) -> BTreeSet<String> {
    races
        .iter()
        .map(|r| format!("{:?}:{:?}", race_key(r), r.class))
        .collect()
}

/// What one cell observes: per single-kernel program its verdict and
/// device record count, per multi-launch program its races.
struct Cell {
    suite: Vec<(Verdict, Option<u64>)>,
    multi: Vec<Vec<RaceReport>>,
}

fn run_cell(config: &BarracudaConfig) -> Cell {
    let suite = all_programs()
        .iter()
        .map(|p| {
            let checked = check_program(p, config.clone());
            let records = checked.as_ref().ok().map(|a| a.stats().records);
            (Verdict::of(&checked), records)
        })
        .collect();
    let multi = multi_programs()
        .iter()
        .map(|p| {
            run_multi_races_with(p, config.clone()).unwrap_or_else(|e| panic!("{}: {e}", p.name))
        })
        .collect();
    Cell { suite, multi }
}

/// Device record counts of the synchronous 3-queue cell, and the race
/// sets of eager runs with the default configuration.
struct Baseline {
    records: Vec<Option<u64>>,
    races: Vec<BTreeSet<RaceKey>>,
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let cell = run_cell(&three_queues(DetectionMode::Synchronous));
        let races = multi_programs()
            .iter()
            .map(|p| {
                let races = run_multi_races_with(p, BarracudaConfig::default());
                race_set(&races.unwrap_or_else(|e| panic!("{}: {e}", p.name)))
            })
            .collect();
        Baseline {
            records: cell.suite.into_iter().map(|(_, records)| records).collect(),
            races,
        }
    })
}

fn pin(mode: DetectionMode, schedule: Option<SchedPolicy>) {
    let Baseline {
        records: base_records,
        races: base_races,
    } = baseline();
    let programs = all_programs();
    let multis = multi_programs();
    assert_eq!(programs.len(), 66);
    assert_eq!(multis.len(), 15);
    let default = default_config(mode, schedule);
    let mut configs = vec![("default", default.clone()), ("trimmed", trimmed(&default))];
    if schedule.is_none() {
        configs.push(("3 queues", three_queues(mode)));
    }
    let cells: Vec<(&str, Cell)> = configs
        .into_iter()
        .map(|(label, config)| (label, run_cell(&config)))
        .collect();
    let mut failures = Vec::new();
    for (label, cell) in &cells {
        for (i, p) in programs.iter().enumerate() {
            let (verdict, records) = &cell.suite[i];
            if !verdict.matches(p.expected) {
                failures.push(format!(
                    "{} ({label}): expected {:?}, got {verdict:?}",
                    p.name, p.expected
                ));
            }
            if *records != base_records[i] {
                failures.push(format!(
                    "{} ({label}): {records:?} records, synchronous 3-queue {:?}",
                    p.name, base_records[i]
                ));
            }
        }
        for (j, p) in multis.iter().enumerate() {
            let got = race_set(&cell.multi[j]);
            if got != base_races[j] {
                failures.push(format!(
                    "{} ({label}): eager {:?} vs {got:?}",
                    p.name, base_races[j]
                ));
            }
            if got.is_empty() == (p.expected == Expectation::Race) {
                failures.push(format!(
                    "{} ({label}): expected {:?}, {} race(s)",
                    p.name,
                    p.expected,
                    got.len()
                ));
            }
            if let Some(class) = p.class {
                for r in cell.multi[j].iter().filter(|r| r.class != class) {
                    failures.push(format!("{} ({label}): expected {class:?}, {r}", p.name));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} parity failure(s) ({mode:?}, {schedule:?}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

macro_rules! matrix {
    ($($name:ident: $mode:ident, $schedule:expr;)*) => {$(
        #[test]
        fn $name() {
            pin(DetectionMode::$mode, $schedule);
        }
    )*};
}

matrix! {
    sync_eager: Synchronous, None;
    threaded_eager: Threaded, None;
    sync_round_robin: Synchronous, Some(SchedPolicy::RoundRobin);
    threaded_round_robin: Threaded, Some(SchedPolicy::RoundRobin);
    sync_random_1: Synchronous, Some(SchedPolicy::Random(1));
    threaded_random_1: Threaded, Some(SchedPolicy::Random(1));
    sync_random_7: Synchronous, Some(SchedPolicy::Random(7));
    threaded_random_7: Threaded, Some(SchedPolicy::Random(7));
    sync_random_42: Synchronous, Some(SchedPolicy::Random(42));
    threaded_random_42: Threaded, Some(SchedPolicy::Random(42));
    sync_random_99: Synchronous, Some(SchedPolicy::Random(99));
    threaded_random_99: Threaded, Some(SchedPolicy::Random(99));
    sync_random_deadbeef: Synchronous, Some(SchedPolicy::Random(0xdead_beef));
    threaded_random_deadbeef: Threaded, Some(SchedPolicy::Random(0xdead_beef));
    sync_starve_0: Synchronous, Some(SchedPolicy::StarveOne(0));
    threaded_starve_0: Threaded, Some(SchedPolicy::StarveOne(0));
    sync_starve_1: Synchronous, Some(SchedPolicy::StarveOne(1));
    threaded_starve_1: Threaded, Some(SchedPolicy::StarveOne(1));
    sync_starve_2: Synchronous, Some(SchedPolicy::StarveOne(2));
    threaded_starve_2: Threaded, Some(SchedPolicy::StarveOne(2));
}

/// Runs one suite program on an existing engine (fresh buffers, same
/// persistent detector state) and returns the observed race count.
fn run_on(engine: &mut Engine, p: &SuiteProgram) -> usize {
    let params = engine.gpu_mut().alloc_args(&p.args);
    let run = KernelRun {
        source: &p.source,
        kernel: KERNEL,
        dims: p.dims,
        params: &params,
    };
    engine.check(&run).expect("launch failed").race_count()
}

#[test]
fn sequential_independent_launches_do_not_cross_contaminate() {
    // A racy program followed by a race-free one on the SAME engine: the
    // second launch touches disjoint buffers, so the persistent shadow
    // state from the first launch must not leak any report into it.
    let racy = program("global_ww_interblock_race").unwrap();
    let clean = program("global_flag_gl_fences_norace").unwrap();
    let mut engine = Engine::new();
    assert!(run_on(&mut engine, &racy) > 0, "first launch should race");
    assert_eq!(
        run_on(&mut engine, &clean),
        0,
        "clean launch inherited races"
    );
    // And the other way around: a clean launch first must not suppress
    // the racy launch's reports.
    let mut engine = Engine::new();
    assert_eq!(run_on(&mut engine, &clean), 0);
    assert!(run_on(&mut engine, &racy) > 0, "racy launch lost its races");
    // Same racy program twice: each run re-reports its own races.
    let mut engine = Engine::new();
    let first = run_on(&mut engine, &racy);
    let second = run_on(&mut engine, &racy);
    assert!(first > 0 && second > 0, "dedup leaked across launches");
}

/// Recycling must actually fire on a long stream-ordered timeline: this
/// is the memory-bounding claim, checked end-to-end through the public
/// engine (not just the core soak). After the resets, a racy program must
/// report exactly the races it reports on a fresh engine.
#[test]
fn a_long_synchronized_timeline_compacts_and_resets() {
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
    let config = BarracudaConfig {
        history_cap: 8,
        ..BarracudaConfig::default()
    };
    let mut eng = Engine::with_config(config.clone());
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

    // The same allocations on a fresh engine give the program's buffers
    // the same addresses, so the race sets compare exactly.
    let racy = program("global_ww_interblock_race").unwrap();
    let mut fresh = Engine::with_config(config);
    fresh.gpu_mut().malloc(4);
    let races_of = |engine: &mut Engine| {
        let params = engine.gpu_mut().alloc_args(&racy.args);
        let analysis = engine
            .check(&KernelRun {
                source: &racy.source,
                kernel: KERNEL,
                dims: racy.dims,
                params: &params,
            })
            .expect("racy check");
        classed_race_set(analysis.races())
    };
    let want = races_of(&mut fresh);
    assert!(!want.is_empty(), "the racy program must race");
    assert_eq!(races_of(&mut eng), want, "races after a generation reset");
}
