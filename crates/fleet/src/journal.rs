//! The append-only fleet journal: one newline-delimited JSON record per
//! completed attempt or final verdict.
//!
//! The journal is the fleet's **only** durable state. Every record is a
//! single line written under a lock in one `write` call and flushed
//! before the lock drops, so concurrent workers never interleave and a
//! coordinator killed mid-write can tear at most the trailing line.
//! [`load`] therefore tolerates (and counts) unparseable lines: a torn
//! final simply leaves its target unfinished, and `--resume` re-runs it
//! — work is re-done at most once, never lost and never double-counted,
//! because aggregation keys finals by target id with last-wins.
//!
//! Two record kinds share the stream:
//!
//! * `attempt` — a strike (panic or timeout) that may be retried. Strike
//!   counts are replayed on resume so quarantine thresholds carry across
//!   coordinator crashes.
//! * `final` — the target's verdict; exactly one per target survives
//!   aggregation. Carries the race-site signatures and the repro block
//!   from the child's `--stats-json`, so one journal line is enough to
//!   reproduce the run.
//!
//! Records are [`Json`] trees written by [`Json::dump`], whose
//! `BTreeMap`-ordered keys give every record a canonical byte form.
//! Numbers keep their literal text, so a repro block's `u64` seeds
//! survive the journal exactly and the line still replays the run.

use barracuda::statsjson::{parse, Json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// A target's terminal verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Completed, no races, lossless pipeline.
    Ok,
    /// Completed with races.
    Racy,
    /// Completed degraded (lost records / dead worker), no races found.
    Degraded,
    /// Crashed (non-verdict exit or signal) on every allowed attempt.
    Panicked,
    /// Exceeded its deadline on every allowed attempt.
    TimedOut,
    /// Struck out: hit the quarantine threshold and was benched.
    Quarantined,
}

impl Outcome {
    /// The journal/report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Racy => "racy",
            Outcome::Degraded => "degraded",
            Outcome::Panicked => "panicked",
            Outcome::TimedOut => "timed-out",
            Outcome::Quarantined => "quarantined",
        }
    }

    /// Parses the journal spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => Outcome::Ok,
            "racy" => Outcome::Racy,
            "degraded" => Outcome::Degraded,
            "panicked" => Outcome::Panicked,
            "timed-out" => Outcome::TimedOut,
            "quarantined" => Outcome::Quarantined,
            _ => return None,
        })
    }

    /// Every outcome, in report order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Ok,
        Outcome::Racy,
        Outcome::Degraded,
        Outcome::Panicked,
        Outcome::TimedOut,
        Outcome::Quarantined,
    ];
}

/// A retryable failure kind (one strike).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeKind {
    /// The child crashed: non-verdict exit code or an unexpected signal.
    Panicked,
    /// The child overran its deadline (cooperative exit 3 or hard kill).
    TimedOut,
}

impl StrikeKind {
    /// The journal spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            StrikeKind::Panicked => "panicked",
            StrikeKind::TimedOut => "timed-out",
        }
    }

    /// The outcome a target earns when every attempt strikes this way.
    pub fn into_outcome(self) -> Outcome {
        match self {
            StrikeKind::Panicked => Outcome::Panicked,
            StrikeKind::TimedOut => Outcome::TimedOut,
        }
    }
}

/// One target's terminal record, as replayed from the journal.
#[derive(Debug, Clone)]
pub struct FinalRecord {
    /// The verdict.
    pub outcome: Outcome,
    /// Attempts consumed (strikes before the verdict, plus the verdict
    /// run itself for completed outcomes).
    pub attempt: u64,
    /// Races found (0 unless `outcome` is racy, or degraded-with-races).
    pub races: u64,
    /// Race-site signature objects from the child's stats JSON.
    pub race_sites: Vec<Json>,
    /// The child's repro block (seed, warp size, memory model, chaos
    /// seed, scheduler), when the run produced stats.
    pub repro: Option<Json>,
    /// Short human detail (stderr tail, strike summary).
    pub detail: String,
}

/// Journal state replayed by [`load`].
#[derive(Debug, Default)]
pub struct JournalState {
    /// Last-wins final record per target id.
    pub finals: BTreeMap<String, FinalRecord>,
    /// Per-target strike count and most recent strike kind.
    pub strikes: BTreeMap<String, (u32, StrikeKind)>,
    /// Unparseable lines skipped (a torn trailing write, typically).
    pub torn_lines: usize,
}

/// The append-only writer. One line per record, written and flushed
/// under a lock.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens `path` for appending, creating it if missing. If the file
    /// ends in a torn line (a coordinator SIGKILLed mid-write leaves no
    /// trailing newline), a newline is written first to **seal** the
    /// fragment — otherwise the next record would concatenate onto it
    /// and both would be lost to the parser.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open error.
    pub fn open_append(path: &Path) -> std::io::Result<Self> {
        let torn_tail = std::fs::read(path)
            .map(|b| b.last().is_some_and(|&c| c != b'\n'))
            .unwrap_or(false);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if torn_tail {
            file.write_all(b"\n")?;
            file.flush()?;
        }
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    fn write_line(&self, record: &Json) {
        let mut line = record.dump();
        line.push('\n');
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A failed checkpoint write must not pass silently — the whole
        // point of the journal is that completed work is never re-run.
        if let Err(e) = f.write_all(line.as_bytes()).and_then(|()| f.flush()) {
            eprintln!("fleet: journal write failed: {e}");
        }
    }

    /// Appends a strike record.
    pub fn record_attempt(
        &self,
        target: &str,
        strike: StrikeKind,
        attempt: u64,
        detail: &str,
        duration_ms: u64,
    ) {
        self.write_line(&Json::obj([
            ("v", 1u8.into()),
            ("kind", "attempt".into()),
            ("target", target.into()),
            ("strike", strike.as_str().into()),
            ("attempt", attempt.into()),
            ("detail", detail.into()),
            ("duration_ms", duration_ms.into()),
        ]));
    }

    /// Appends a target's terminal record.
    pub fn record_final(&self, target: &str, rec: &FinalRecord, duration_ms: u64) {
        self.write_line(&Json::obj([
            ("v", 1u8.into()),
            ("kind", "final".into()),
            ("target", target.into()),
            ("outcome", rec.outcome.as_str().into()),
            ("attempt", rec.attempt.into()),
            ("races", rec.races.into()),
            ("race_sites", rec.race_sites.clone().into()),
            ("repro", rec.repro.clone().into()),
            ("detail", rec.detail.as_str().into()),
            ("duration_ms", duration_ms.into()),
        ]));
    }
}

/// Replays a journal. A missing file is an empty journal (first run of a
/// `--resume`-by-default invocation); unparseable or unrecognized lines
/// are skipped and counted, never fatal — the corresponding work is
/// simply not checkpointed and will re-run.
///
/// # Errors
///
/// Fails only when the file exists but cannot be read.
pub fn load(path: &Path) -> Result<JournalState, String> {
    let mut state = JournalState::default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(state),
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = parse(line) else {
            state.torn_lines += 1;
            continue;
        };
        let target = v.get("target").and_then(Json::as_str).map(str::to_string);
        let kind = v.get("kind").and_then(Json::as_str);
        match (kind, target) {
            (Some("final"), Some(target)) => {
                let Some(outcome) = v
                    .get("outcome")
                    .and_then(Json::as_str)
                    .and_then(Outcome::parse)
                else {
                    state.torn_lines += 1;
                    continue;
                };
                state.finals.insert(
                    target,
                    FinalRecord {
                        outcome,
                        attempt: v.get("attempt").and_then(Json::as_u64).unwrap_or(0),
                        races: v.get("races").and_then(Json::as_u64).unwrap_or(0),
                        race_sites: v
                            .get("race_sites")
                            .and_then(Json::as_arr)
                            .map(<[Json]>::to_vec)
                            .unwrap_or_default(),
                        repro: match v.get("repro") {
                            None | Some(Json::Null) => None,
                            Some(r) => Some(r.clone()),
                        },
                        detail: v
                            .get("detail")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    },
                );
            }
            (Some("attempt"), Some(target)) => {
                let kind = match v.get("strike").and_then(Json::as_str) {
                    Some("panicked") => StrikeKind::Panicked,
                    Some("timed-out") => StrikeKind::TimedOut,
                    _ => {
                        state.torn_lines += 1;
                        continue;
                    }
                };
                let e = state.strikes.entry(target).or_insert((0, kind));
                e.0 += 1;
                e.1 = kind;
            }
            _ => state.torn_lines += 1,
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "barracuda_fleet_journal_{name}_{}.jsonl",
            std::process::id()
        ))
    }

    fn site() -> Json {
        parse(
            r#"{"space":"global","block":null,"addr":64,"current":"write","previous":"read","class":"inter-block"}"#,
        )
        .unwrap()
    }

    #[test]
    fn round_trips_attempts_and_finals_with_last_wins() {
        let path = tmp("rt");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open_append(&path).unwrap();
        j.record_attempt("t/flaky", StrikeKind::TimedOut, 1, "deadline", 300);
        j.record_attempt("t/flaky", StrikeKind::Panicked, 2, "signal 6", 12);
        j.record_final(
            "t/racy",
            &FinalRecord {
                outcome: Outcome::Racy,
                attempt: 1,
                races: 2,
                race_sites: vec![site()],
                repro: Some(parse(r#"{"seed":7,"warp_size":32}"#).unwrap()),
                detail: String::new(),
            },
            55,
        );
        // A re-run after a torn line supersedes the earlier final.
        j.record_final(
            "t/racy",
            &FinalRecord {
                outcome: Outcome::Racy,
                attempt: 1,
                races: 3,
                race_sites: vec![site()],
                repro: None,
                detail: String::new(),
            },
            66,
        );
        drop(j);

        let state = load(&path).unwrap();
        assert_eq!(state.torn_lines, 0);
        assert_eq!(state.strikes["t/flaky"], (2, StrikeKind::Panicked));
        let f = &state.finals["t/racy"];
        assert_eq!((f.outcome, f.races), (Outcome::Racy, 3), "last final wins");
        assert_eq!(f.race_sites.len(), 1);
        assert!(f.repro.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_tolerated_and_counted() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open_append(&path).unwrap();
        j.record_final(
            "t/done",
            &FinalRecord {
                outcome: Outcome::Ok,
                attempt: 1,
                races: 0,
                race_sites: vec![],
                repro: None,
                detail: String::new(),
            },
            10,
        );
        drop(j);
        // Simulate a coordinator SIGKILLed mid-write: a second final cut
        // off without its closing brace or newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"v\":1,\"kind\":\"final\",\"target\":\"t/torn\",\"outco");
        std::fs::write(&path, text).unwrap();

        let state = load(&path).unwrap();
        assert_eq!(state.torn_lines, 1);
        assert!(state.finals.contains_key("t/done"));
        assert!(
            !state.finals.contains_key("t/torn"),
            "a torn final leaves the target unfinished, to be re-run"
        );

        // Re-opening for resume seals the fragment: the next record must
        // not concatenate onto it and be lost with it.
        let j = Journal::open_append(&path).unwrap();
        j.record_final(
            "t/torn",
            &FinalRecord {
                outcome: Outcome::Ok,
                attempt: 1,
                races: 0,
                race_sites: vec![],
                repro: None,
                detail: String::new(),
            },
            5,
        );
        drop(j);
        let state = load(&path).unwrap();
        assert_eq!(state.torn_lines, 1);
        assert!(
            state.finals.contains_key("t/torn"),
            "the re-run's final survives next to the sealed fragment"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn repro_seeds_survive_the_journal_exactly() {
        let path = tmp("seeds");
        let _ = std::fs::remove_file(&path);
        // The repro block as a child's `--stats-json` prints it.
        let stdout = format!(
            r#"{{"seed":{m},"warp_size":32,"memory_model":"sc","chaos_seed":{m},"sched_policy":"random","sched_seed":{}}}"#,
            (1u64 << 53) + 1,
            m = u64::MAX
        );
        let repro = parse(&stdout).unwrap();
        let j = Journal::open_append(&path).unwrap();
        let rec = FinalRecord {
            outcome: Outcome::Degraded,
            attempt: 1,
            races: 0,
            race_sites: vec![],
            repro: Some(repro.clone()),
            detail: String::new(),
        };
        j.record_final("t/seeded", &rec, 1);
        drop(j);
        let replayed = load(&path).unwrap().finals["t/seeded"]
            .repro
            .clone()
            .unwrap();
        assert_eq!(replayed, repro);
        for (key, n) in [
            ("seed", u64::MAX),
            ("chaos_seed", u64::MAX),
            ("sched_seed", (1 << 53) + 1),
        ] {
            assert_eq!(replayed.get(key).and_then(Json::as_u64), Some(n), "{key}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let state = load(Path::new("/nonexistent/fleet.jsonl")).unwrap();
        assert!(state.finals.is_empty() && state.strikes.is_empty());
    }

    #[test]
    fn outcome_spellings_round_trip() {
        for o in Outcome::ALL {
            assert_eq!(Outcome::parse(o.as_str()), Some(o));
        }
        assert_eq!(Outcome::parse("exploded"), None);
        assert_eq!(StrikeKind::TimedOut.into_outcome(), Outcome::TimedOut);
        assert_eq!(StrikeKind::Panicked.into_outcome(), Outcome::Panicked);
    }
}
