//! Crash-isolated fleet analysis over a corpus of PTX targets, with a
//! checkpointed journal, exact-once resume, and a deduplicated triage
//! report.
//!
//! The paper's tool analyzes one CUDA process at a time; analyzing a
//! *corpus* (every Table-1 workload crossed with seeds, warp sizes and
//! weak-memory presets, plus user-supplied PTX) raises three operational
//! problems this crate owns:
//!
//! 1. **Isolation** ([`runner`]): each target runs in its own child
//!    process speaking the [`barracuda::exitcode`] taxonomy, so one
//!    crashing or hanging target cannot take the sweep down. Children
//!    get a cooperative `--timeout-ms` deadline backstopped by a hard
//!    kill-and-reap.
//! 2. **Durability** ([`journal`]): every completed attempt is
//!    checkpointed to an append-only newline-JSON journal before the
//!    fleet moves on. `--resume` replays it and re-runs only unfinished
//!    targets — exactly once even after the coordinator itself is
//!    SIGKILLed mid-write (a torn trailing line is tolerated and that
//!    target simply re-runs).
//! 3. **Triage** ([`aggregate`]): finals are reconciled
//!    (`scheduled == Σ outcomes`) and races deduplicated by site
//!    signature into clusters attributed to exemplar targets, so 200
//!    racy runs of the same planted bug read as one line, not 200.
//!
//! Transient failures are retried with the repo-standard exponential
//! backoff + SplitMix64 jitter ([`barracuda_trace::backoff`]); targets
//! that keep striking are quarantined after a threshold rather than
//! burning the fleet's budget forever.

#![warn(missing_docs)]

pub mod aggregate;
pub mod corpus;
pub mod journal;
pub mod runner;

pub use aggregate::{build_report, cluster_key, Cluster, ClusterKey, Report};
pub use corpus::{check_unique_ids, generated_targets, ptx_dir_targets, CorpusAxes, TargetSpec};
pub use journal::{load as load_journal, FinalRecord, Journal, JournalState, Outcome, StrikeKind};

use barracuda_trace::backoff::{splitmix, RetryPolicy};
use runner::{run_once, AttemptKind, RunnerConfig};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Mutex;

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The one-shot binary to spawn per attempt.
    pub binary: PathBuf,
    /// The corpus (ids must be unique).
    pub targets: Vec<TargetSpec>,
    /// Journal path (append-only; the only durable state).
    pub journal: PathBuf,
    /// Replay the journal and skip finished targets. Without this, a
    /// non-empty journal is refused rather than silently merged.
    pub resume: bool,
    /// Concurrent worker processes.
    pub jobs: usize,
    /// Cooperative per-target deadline (`--timeout-ms` in the child).
    pub timeout_ms: u64,
    /// Grace past the deadline before the hard kill.
    pub kill_grace_ms: u64,
    /// Retries after the first attempt (total attempts = `retries + 1`).
    pub retries: u32,
    /// Strikes before a target is quarantined instead of retried.
    pub quarantine_after: u32,
    /// Backoff schedule between a target's attempts.
    pub backoff: RetryPolicy,
    /// Inject `--chaos-abort` into targets whose id contains this.
    pub chaos_abort_match: Option<String>,
    /// Inject `--chaos-hang` into targets whose id contains this.
    pub chaos_hang_match: Option<String>,
}

impl FleetConfig {
    /// Defaults: 4 jobs, 10 s deadline + 2 s grace, 2 retries,
    /// quarantine after 3 strikes, standard backoff.
    pub fn new(binary: PathBuf, targets: Vec<TargetSpec>, journal: PathBuf) -> Self {
        FleetConfig {
            binary,
            targets,
            journal,
            resume: false,
            jobs: 4,
            timeout_ms: 10_000,
            kill_grace_ms: 2_000,
            retries: 2,
            quarantine_after: 3,
            backoff: RetryPolicy::default(),
            chaos_abort_match: None,
            chaos_hang_match: None,
        }
    }
}

/// What a fleet run did, plus the triage report.
#[derive(Debug)]
pub struct FleetSummary {
    /// Targets executed this run.
    pub executed: usize,
    /// Targets skipped as already finalized in the journal.
    pub skipped: usize,
    /// Torn/unparseable journal lines tolerated during resume.
    pub torn_lines: usize,
    /// The reconciled, deduplicated triage report.
    pub report: Report,
}

fn id_seed(base: u64, id: &str) -> u64 {
    let mut h = base;
    for b in id.as_bytes() {
        h = splitmix(h ^ u64::from(*b));
    }
    h
}

/// Runs one target to its final verdict, checkpointing every attempt.
fn drive_target(
    cfg: &FleetConfig,
    journal: &Journal,
    target: &TargetSpec,
    carried: Option<(u32, StrikeKind)>,
) {
    let (mut strikes, mut last_kind) = carried.unwrap_or((0, StrikeKind::Panicked));
    // Jitter per target as well as per attempt, so a fleet of failing
    // targets doesn't retry in lockstep.
    let backoff = RetryPolicy {
        seed: id_seed(cfg.backoff.seed, &target.id),
        ..cfg.backoff.clone()
    };
    let max_attempts = cfg.retries + 1;
    let runner = RunnerConfig {
        binary: cfg.binary.clone(),
        timeout_ms: cfg.timeout_ms,
        kill_grace_ms: cfg.kill_grace_ms,
        chaos_abort: cfg
            .chaos_abort_match
            .as_deref()
            .is_some_and(|m| target.id.contains(m)),
        chaos_hang: cfg
            .chaos_hang_match
            .as_deref()
            .is_some_and(|m| target.id.contains(m)),
    };
    loop {
        if strikes >= cfg.quarantine_after {
            // Quarantine dominates exhaustion: the target is benched and
            // counted, not retried on the next resume.
            journal.record_final(
                &target.id,
                &FinalRecord {
                    outcome: Outcome::Quarantined,
                    attempt: u64::from(strikes),
                    races: 0,
                    race_sites: Vec::new(),
                    repro: None,
                    detail: format!("quarantined after {strikes} strikes"),
                },
                0,
            );
            return;
        }
        if strikes >= max_attempts {
            journal.record_final(
                &target.id,
                &FinalRecord {
                    outcome: last_kind.into_outcome(),
                    attempt: u64::from(strikes),
                    races: 0,
                    race_sites: Vec::new(),
                    repro: None,
                    detail: format!("attempts exhausted after {strikes} strikes"),
                },
                0,
            );
            return;
        }
        let res = run_once(&runner, target);
        match res.kind {
            AttemptKind::Final(outcome) => {
                journal.record_final(
                    &target.id,
                    &FinalRecord {
                        outcome,
                        attempt: u64::from(strikes) + 1,
                        races: res.races,
                        race_sites: res.race_sites,
                        repro: res.repro,
                        detail: res.detail,
                    },
                    res.duration_ms,
                );
                return;
            }
            AttemptKind::Strike(kind) => {
                strikes += 1;
                last_kind = kind;
                journal.record_attempt(
                    &target.id,
                    kind,
                    u64::from(strikes),
                    &res.detail,
                    res.duration_ms,
                );
                if strikes < max_attempts && strikes < cfg.quarantine_after {
                    std::thread::sleep(backoff.delay(strikes - 1, 0));
                }
            }
        }
    }
}

/// Runs the fleet: shards `cfg.targets` over `cfg.jobs` crash-isolated
/// workers, checkpointing to the journal, then reconciles and
/// aggregates the triage report from the journal's finals.
///
/// # Errors
///
/// Fails on duplicate target ids, an unreadable journal, or a non-empty
/// journal without `--resume`.
pub fn run(cfg: &FleetConfig) -> Result<FleetSummary, String> {
    check_unique_ids(&cfg.targets)?;
    let prior = if cfg.resume {
        journal::load(&cfg.journal)?
    } else {
        if std::fs::metadata(&cfg.journal)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            return Err(format!(
                "journal {} already has records; pass --resume to continue it or remove it to start over",
                cfg.journal.display()
            ));
        }
        JournalState::default()
    };
    let journal = Journal::open_append(&cfg.journal)
        .map_err(|e| format!("cannot open journal {}: {e}", cfg.journal.display()))?;

    let pending: Vec<&TargetSpec> = cfg
        .targets
        .iter()
        .filter(|t| !prior.finals.contains_key(&t.id))
        .collect();
    let executed = pending.len();
    let skipped = cfg.targets.len() - executed;

    let queue: Mutex<VecDeque<&TargetSpec>> = Mutex::new(pending.into_iter().collect());
    std::thread::scope(|scope| {
        for _ in 0..cfg.jobs.max(1) {
            scope.spawn(|| loop {
                let target = queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop_front();
                let Some(target) = target else { return };
                let carried = prior.strikes.get(&target.id).copied();
                drive_target(cfg, &journal, target, carried);
            });
        }
    });
    drop(journal);

    let after = journal::load(&cfg.journal)?;
    let scheduled: Vec<String> = cfg.targets.iter().map(|t| t.id.clone()).collect();
    Ok(FleetSummary {
        executed,
        skipped,
        torn_lines: prior.torn_lines,
        report: build_report(&scheduled, &after.finals),
    })
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::path::Path;

    /// A stand-in one-shot binary: verdict chosen by the ptx file name,
    /// mimicking the real exit-code taxonomy and stats JSON.
    fn fake_binary(dir: &Path) -> PathBuf {
        use std::os::unix::fs::PermissionsExt as _;
        let path = dir.join("fake-barracuda.sh");
        std::fs::write(
            &path,
            r#"#!/bin/sh
case "$2" in
  *racy*) echo '{"races":2,"race_sites":[{"space":"global","block":null,"addr":64,"current":"write","previous":"write","class":"inter-block"},{"space":"global","block":null,"addr":64,"current":"write","previous":"write","class":"inter-block"}],"repro":{"seed":7}}'; exit 1;;
  *boom*) echo boom >&2; exit 101;;
  *slow*) exec sleep 60;;
  *) echo '{"races":0,"race_sites":[]}'; exit 0;;
esac
"#,
        )
        .unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    fn setup(name: &str, stems: &[&str]) -> (PathBuf, FleetConfig) {
        let dir =
            std::env::temp_dir().join(format!("barracuda_fleet_lib_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let binary = fake_binary(&dir);
        let targets = stems
            .iter()
            .map(|s| {
                let p = dir.join(format!("{s}.ptx"));
                std::fs::write(&p, "// stub").unwrap();
                TargetSpec {
                    id: format!("ptx/{s}"),
                    ptx: p,
                    args: vec![],
                }
            })
            .collect();
        let mut cfg = FleetConfig::new(binary, targets, dir.join("fleet.jsonl"));
        cfg.jobs = 3;
        cfg.timeout_ms = 400;
        cfg.kill_grace_ms = 300;
        cfg.backoff = barracuda_trace::backoff::RetryPolicy {
            base_ms: 1,
            cap_ms: 2,
            max_attempts: 8,
            seed: 1,
        };
        (dir, cfg)
    }

    #[test]
    fn fleet_classifies_retries_quarantines_and_reconciles() {
        let (dir, mut cfg) = setup(
            "mix",
            &["ok_a", "ok_b", "racy_a", "racy_b", "boom_a", "slow_a"],
        );
        cfg.retries = 1; // 2 attempts
        cfg.quarantine_after = 99; // exhaustion, not quarantine
        let s = run(&cfg).unwrap();
        assert_eq!((s.executed, s.skipped), (6, 0));
        let r = &s.report;
        assert!(r.reconciled, "every scheduled target has exactly one final");
        assert_eq!(r.count(Outcome::Ok), 2);
        assert_eq!(r.count(Outcome::Racy), 2);
        assert_eq!(r.count(Outcome::Panicked), 1);
        assert_eq!(r.count(Outcome::TimedOut), 1);
        // Both racy targets hit the same planted site: one cluster,
        // 2 sites × 2 targets.
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].count, 4);
        assert_eq!(r.clusters[0].targets.len(), 2);
        // The strikes were journaled (2 attempts each for boom and slow).
        let state = journal::load(&cfg.journal).unwrap();
        assert_eq!(state.strikes["ptx/boom_a"].0, 2);
        assert_eq!(state.strikes["ptx/slow_a"].0, 2);

        // Resume does zero re-work and reproduces the report exactly.
        let json_a = s.report.to_json();
        cfg.resume = true;
        let s2 = run(&cfg).unwrap();
        assert_eq!((s2.executed, s2.skipped), (0, 6));
        assert_eq!(s2.report.to_json(), json_a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_dominates_and_fresh_run_refuses_dirty_journal() {
        let (dir, mut cfg) = setup("quar", &["boom_q"]);
        cfg.retries = 5;
        cfg.quarantine_after = 2;
        let s = run(&cfg).unwrap();
        assert_eq!(s.report.count(Outcome::Quarantined), 1);
        assert_eq!(s.report.quarantined, ["ptx/boom_q"]);
        // Exactly 2 strikes were spent before benching.
        assert_eq!(
            journal::load(&cfg.journal).unwrap().strikes["ptx/boom_q"].0,
            2
        );

        // A fresh (non-resume) run must refuse to silently merge.
        cfg.resume = false;
        assert!(run(&cfg).unwrap_err().contains("--resume"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_carries_strikes_toward_quarantine() {
        let (dir, mut cfg) = setup("carry", &["boom_c"]);
        cfg.retries = 1; // two attempts in total
        cfg.quarantine_after = 2;
        // Pre-seed the journal with one strike and no final, as if a
        // previous coordinator died between an attempt and its verdict.
        let j = Journal::open_append(&cfg.journal).unwrap();
        j.record_attempt("ptx/boom_c", StrikeKind::TimedOut, 1, "seeded", 1);
        drop(j);
        cfg.resume = true;
        let s = run(&cfg).unwrap();
        // Carried strike (1) + this run's strike (1) hits the threshold:
        // quarantined, not panicked.
        assert_eq!(s.report.count(Outcome::Quarantined), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
