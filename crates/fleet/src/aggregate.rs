//! Triage aggregation: deduplicated race clusters and reconciled
//! outcome counts over the journal's final records.
//!
//! Races are deduplicated by **site signature**: the pair of access
//! kinds at the racy byte address, plus the memory space and race class.
//! The engine does not (yet) thread instruction PCs into shadow state,
//! so the access-kind pair at an address stands in for the paper's
//! PC pair — stable across seeds, warp sizes and memory models for
//! deterministic corpora, which is exactly what lets one planted race
//! observed under 12 axis points collapse into one cluster attributed
//! to 12 targets.
//!
//! The report is **deterministic by construction**: it is computed from
//! the set of final records keyed by target id, contains no timestamps
//! or durations, and serializes through the canonical key-ordered
//! [`Json::dump`] — so an interrupted-and-resumed fleet produces a
//! byte-identical report to an uninterrupted one. Executed/skipped
//! counts and timings are run-local facts and live in the human output
//! and the journal, never in the report.

use crate::journal::{FinalRecord, Outcome};
use barracuda::statsjson::Json;
use std::collections::{BTreeMap, BTreeSet};

/// The dedup key for one racy site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ClusterKey {
    /// Memory space (`global` / `shared`).
    pub space: String,
    /// Race class (`inter-block`, `intra-warp`, …).
    pub class: String,
    /// The PC-pair surrogate: `(previous, current)` access kinds at the
    /// racy byte address, e.g. `("read@0x40", "write@0x40")`.
    pub pc_pair: (String, String),
}

/// Derives the dedup key from one `race_sites` element of the child's
/// stats JSON. Returns `None` for malformed sites (they are counted by
/// the caller, never silently folded into a real cluster).
pub fn cluster_key(site: &Json) -> Option<ClusterKey> {
    let addr = site.get("addr")?.as_u64()?;
    let tag = |field: &str| -> Option<String> {
        Some(format!("{}@{addr:#x}", site.get(field)?.as_str()?))
    };
    Some(ClusterKey {
        space: site.get("space")?.as_str()?.to_string(),
        class: site.get("class")?.as_str()?.to_string(),
        pc_pair: (tag("previous")?, tag("current")?),
    })
}

/// One deduplicated race cluster.
#[derive(Debug)]
pub struct Cluster {
    /// The signature.
    pub key: ClusterKey,
    /// Site occurrences across all targets.
    pub count: u64,
    /// Distinct targets observing the cluster.
    pub targets: BTreeSet<String>,
}

/// The triage report.
#[derive(Debug)]
pub struct Report {
    /// Targets the fleet was asked to analyze.
    pub scheduled: usize,
    /// Per-outcome counts over scheduled targets with finals.
    pub outcomes: BTreeMap<Outcome, u64>,
    /// `scheduled == Σ outcomes` — every target accounted for exactly
    /// once.
    pub reconciled: bool,
    /// Deduplicated clusters, most-observed first.
    pub clusters: Vec<Cluster>,
    /// Quarantined target ids, sorted.
    pub quarantined: Vec<String>,
    /// Malformed race sites skipped during clustering.
    pub malformed_sites: u64,
}

/// Builds the report for `scheduled` target ids over journal `finals`.
/// Finals for unscheduled targets (stale journal entries from another
/// corpus) are ignored; scheduled targets without finals break
/// reconciliation.
pub fn build_report(scheduled: &[String], finals: &BTreeMap<String, FinalRecord>) -> Report {
    let mut outcomes: BTreeMap<Outcome, u64> = BTreeMap::new();
    let mut clusters: BTreeMap<ClusterKey, Cluster> = BTreeMap::new();
    let mut quarantined = Vec::new();
    let mut malformed_sites = 0u64;
    let mut finalized = 0usize;
    for id in scheduled {
        let Some(rec) = finals.get(id) else { continue };
        finalized += 1;
        *outcomes.entry(rec.outcome).or_insert(0) += 1;
        if rec.outcome == Outcome::Quarantined {
            quarantined.push(id.clone());
        }
        for site in &rec.race_sites {
            match cluster_key(site) {
                Some(key) => {
                    let c = clusters.entry(key.clone()).or_insert(Cluster {
                        key,
                        count: 0,
                        targets: BTreeSet::new(),
                    });
                    c.count += 1;
                    c.targets.insert(id.clone());
                }
                None => malformed_sites += 1,
            }
        }
    }
    quarantined.sort();
    let mut clusters: Vec<Cluster> = clusters.into_values().collect();
    // Most-observed first; the BTreeMap key breaks ties so the order is
    // total and the report byte-stable.
    clusters.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
    Report {
        scheduled: scheduled.len(),
        outcomes,
        reconciled: finalized == scheduled.len(),
        clusters,
        quarantined,
        malformed_sites,
    }
}

impl Report {
    /// Occurrences under `outcome`.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.outcomes.get(&outcome).copied().unwrap_or(0)
    }

    /// The canonical report JSON (one line, key-ordered, no run-local
    /// facts — byte-identical across interrupted and uninterrupted runs
    /// over the same corpus).
    pub fn to_json(&self) -> String {
        let outcomes = Outcome::ALL.map(|o| (o.as_str().replace('-', "_"), self.count(o).into()));
        let cluster = |c: &Cluster| {
            Json::obj([
                ("space", c.key.space.as_str().into()),
                ("class", c.key.class.as_str().into()),
                ("pc_pair", strings([&c.key.pc_pair.0, &c.key.pc_pair.1])),
                ("count", c.count.into()),
                ("targets", c.targets.len().into()),
                ("exemplars", strings(c.targets.iter().take(5))),
            ])
        };
        Json::obj([
            ("targets_scheduled", self.scheduled.into()),
            ("outcomes", Json::obj(outcomes)),
            ("reconciled", self.reconciled.into()),
            ("malformed_sites", self.malformed_sites.into()),
            ("clusters", self.clusters.iter().map(cluster).collect()),
            ("quarantined_targets", strings(&self.quarantined)),
        ])
        .dump()
    }

    /// The human triage table.
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "fleet: {} targets scheduled", self.scheduled);
        for o in Outcome::ALL {
            let _ = writeln!(s, "  {:<12} {}", o.as_str(), self.count(o));
        }
        let _ = writeln!(
            s,
            "  reconciled   {}",
            if self.reconciled {
                "yes"
            } else {
                "NO — missing finals"
            }
        );
        if !self.clusters.is_empty() {
            let _ = writeln!(s, "race clusters ({} distinct):", self.clusters.len());
            for c in &self.clusters {
                let ex = c.targets.iter().next().map_or("", |t| t.as_str());
                let _ = writeln!(
                    s,
                    "  {:>4}x [{}/{}] {} -> {}  e.g. {}",
                    c.count, c.key.space, c.key.class, c.key.pc_pair.0, c.key.pc_pair.1, ex
                );
            }
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(s, "quarantined: {}", self.quarantined.join(", "));
        }
        s
    }
}

fn strings<'a>(v: impl IntoIterator<Item = &'a String>) -> Json {
    v.into_iter().map(|s| s.as_str().into()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use barracuda::statsjson::parse;

    fn site(space: &str, class: &str, addr: u64, prev: &str, cur: &str) -> Json {
        parse(&format!(
            r#"{{"space":"{space}","block":null,"addr":{addr},"current":"{cur}","previous":"{prev}","class":"{class}"}}"#
        ))
        .unwrap()
    }

    fn final_rec(outcome: Outcome, sites: Vec<Json>) -> FinalRecord {
        FinalRecord {
            outcome,
            attempt: 1,
            races: sites.len() as u64,
            race_sites: sites,
            repro: None,
            detail: String::new(),
        }
    }

    #[test]
    fn same_site_across_seeds_and_warps_collapses() {
        // The same planted race observed under four axis points…
        let mut finals = BTreeMap::new();
        for id in [
            "gen/hashtable/s1/w32/sc",
            "gen/hashtable/s2/w32/sc",
            "gen/hashtable/s1/w16/sc",
            "gen/hashtable/s2/w16/kepler",
        ] {
            finals.insert(
                id.to_string(),
                final_rec(
                    Outcome::Racy,
                    vec![site("global", "inter-block", 64, "write", "write")],
                ),
            );
        }
        let scheduled: Vec<String> = finals.keys().cloned().collect();
        let r = build_report(&scheduled, &finals);
        assert_eq!(r.clusters.len(), 1, "one cluster across all axis points");
        assert_eq!(r.clusters[0].count, 4);
        assert_eq!(r.clusters[0].targets.len(), 4);
        assert!(r.reconciled);
    }

    #[test]
    fn class_space_or_pc_pair_differences_do_not_collapse() {
        let a = site("global", "inter-block", 64, "write", "write");
        let b = site("global", "intra-block", 64, "write", "write"); // class differs
        let c = site("shared", "inter-block", 64, "write", "write"); // space differs
        let d = site("global", "inter-block", 64, "read", "write"); // pc-pair differs
        let e = site("global", "inter-block", 72, "write", "write"); // addr differs
        let mut finals = BTreeMap::new();
        finals.insert(
            "t/0".to_string(),
            final_rec(Outcome::Racy, vec![a, b, c, d, e]),
        );
        let r = build_report(&["t/0".to_string()], &finals);
        assert_eq!(r.clusters.len(), 5, "each signature stays distinct");
        assert!(r.clusters.iter().all(|c| c.count == 1));
    }

    #[test]
    fn report_reconciles_and_is_deterministic_across_orders() {
        let mk = |ids: &[(&str, Outcome)]| {
            let mut finals = BTreeMap::new();
            for (id, o) in ids {
                let sites = if *o == Outcome::Racy {
                    vec![site("global", "inter-block", 8, "write", "write")]
                } else {
                    vec![]
                };
                finals.insert((*id).to_string(), final_rec(*o, sites));
            }
            finals
        };
        let fwd = mk(&[
            ("t/a", Outcome::Ok),
            ("t/b", Outcome::Racy),
            ("t/c", Outcome::Quarantined),
        ]);
        let rev = mk(&[
            ("t/c", Outcome::Quarantined),
            ("t/b", Outcome::Racy),
            ("t/a", Outcome::Ok),
        ]);
        let sched = vec!["t/a".to_string(), "t/b".to_string(), "t/c".to_string()];
        let ra = build_report(&sched, &fwd);
        let rb = build_report(&sched, &rev);
        assert_eq!(ra.to_json(), rb.to_json(), "insertion order is invisible");
        assert!(ra.reconciled);
        assert_eq!(ra.count(Outcome::Quarantined), 1);
        assert_eq!(ra.quarantined, ["t/c"]);
        assert!(ra.to_json().contains("\"timed_out\":0"));

        // A missing final breaks reconciliation and says so.
        let partial = build_report(&sched, &mk(&[("t/a", Outcome::Ok)]));
        assert!(!partial.reconciled);
        assert!(partial.to_json().contains("\"reconciled\":false"));
        assert!(partial.human().contains("NO"));
    }

    #[test]
    fn malformed_sites_are_counted_not_clustered() {
        let mut finals = BTreeMap::new();
        finals.insert(
            "t/0".to_string(),
            final_rec(Outcome::Racy, vec![parse(r#"{"addr":4}"#).unwrap()]),
        );
        let r = build_report(&["t/0".to_string()], &finals);
        assert_eq!((r.clusters.len(), r.malformed_sites), (0, 1));
        assert!(r.to_json().contains("\"malformed_sites\":1"));
    }
}
