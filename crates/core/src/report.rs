//! Race reports, classification and aggregation.

use barracuda_trace::{MemSpace, Tid};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;

/// How the two racing threads relate in the thread hierarchy (§4.3.3:
/// "the offending TIDs are examined to classify the race").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceClass {
    /// Same warp, same active group: lanes of one warp instruction.
    IntraWarp,
    /// Same warp, different branch paths — a *branch ordering race*, the
    /// new bug class identified by the paper.
    Divergence,
    /// Different warps of the same thread block.
    IntraBlock,
    /// Different thread blocks.
    InterBlock,
    /// Different kernel launches on concurrent streams (persistent-engine
    /// mode: the shadow cell was last touched in an earlier, unordered
    /// launch epoch).
    InterKernel,
    /// A host memory operation (memcpy) conflicting with a device thread.
    HostDevice,
}

impl fmt::Display for RaceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RaceClass::IntraWarp => "intra-warp",
            RaceClass::Divergence => "divergence",
            RaceClass::IntraBlock => "intra-block",
            RaceClass::InterBlock => "inter-block",
            RaceClass::InterKernel => "inter-kernel",
            RaceClass::HostDevice => "host-device",
        })
    }
}

/// The access type of each side of a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum AccessType {
    Read,
    Write,
    Atomic,
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessType::Read => "read",
            AccessType::Write => "write",
            AccessType::Atomic => "atomic",
        })
    }
}

/// One detected data race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Memory space of the racing location.
    pub space: MemSpace,
    /// Owning block for shared-memory locations.
    pub block: Option<u64>,
    /// Base address of the racing access.
    pub addr: u64,
    /// The access that detected the race.
    pub current: (Tid, AccessType),
    /// The earlier conflicting access.
    pub previous: (Tid, AccessType),
    /// Hierarchy classification.
    pub class: RaceClass,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let space = match self.space {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
        };
        let side = |t: Tid| -> String {
            if t.0 == crate::launch::HOST_TID_KEY {
                "host".to_string()
            } else {
                t.to_string()
            }
        };
        write!(
            f,
            "{} race on {space} address {:#x}: {} by {} vs {} by {}",
            self.class,
            self.addr,
            self.current.1,
            side(self.current.0),
            self.previous.1,
            side(self.previous.0)
        )
    }
}

/// Non-race diagnostics the detector can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Diagnostic {
    /// `bar.sync` with exited or inactive threads (§3.3.2).
    BarrierDivergence {
        /// The block whose barrier diverged.
        block: u64,
    },
    /// A detector worker thread panicked mid-run; its remaining records
    /// were not processed. The analysis it belongs to is *partial*: the
    /// reported races are sound but events routed to this worker after
    /// the panic were never checked.
    WorkerPanic {
        /// Index of the worker (and so of the queue it was draining).
        worker: u64,
        /// The panic payload's message, when it carried one.
        message: String,
    },
    /// Records never reached the detector: `dropped` were shed by
    /// bounded-stall backpressure (full queue with a stalled consumer)
    /// and `corrupt` failed to decode on the host side. Races involving
    /// only lost records cannot have been detected.
    LostRecords {
        /// Records dropped by producers after exhausting the stall budget.
        dropped: u64,
        /// Records the workers skipped because they failed to decode.
        corrupt: u64,
    },
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnostic::BarrierDivergence { block } => {
                write!(f, "barrier divergence in block {block}")
            }
            Diagnostic::WorkerPanic { worker, message } => {
                write!(
                    f,
                    "detector worker {worker} panicked ({message}); results are partial"
                )
            }
            Diagnostic::LostRecords { dropped, corrupt } => {
                write!(
                    f,
                    "{dropped} record(s) dropped under backpressure, {corrupt} corrupt; \
                     results are partial"
                )
            }
        }
    }
}

/// Thread-safe collector of race reports, deduplicated per racing
/// location (one report per distinct `(space, block, base address)`).
#[derive(Debug, Default)]
pub struct RaceSink {
    inner: Mutex<RaceSinkInner>,
}

#[derive(Debug, Default)]
struct RaceSinkInner {
    seen: HashSet<(u8, u64, u64)>,
    reports: Vec<RaceReport>,
    diagnostics: Vec<Diagnostic>,
    /// Streaming cursor: reports below this index have been handed out
    /// by [`RaceSink::take_ready`]. Reset by [`RaceSink::drain`] so the
    /// end-of-launch drain stays authoritative and complete.
    streamed: usize,
}

impl RaceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a race; returns `true` if this location was new.
    pub fn report(&self, r: RaceReport) -> bool {
        let key = (
            match r.space {
                MemSpace::Global => 0,
                MemSpace::Shared => 1,
            },
            r.block.unwrap_or(0),
            r.addr,
        );
        let mut g = self.inner.lock();
        if g.seen.insert(key) {
            g.reports.push(r);
            true
        } else {
            false
        }
    }

    /// Records a diagnostic (deduplicated by value).
    pub fn diagnose(&self, d: Diagnostic) {
        let mut g = self.inner.lock();
        if !g.diagnostics.contains(&d) {
            g.diagnostics.push(d);
        }
    }

    /// Number of distinct racing locations.
    pub fn race_count(&self) -> usize {
        self.inner.lock().reports.len()
    }

    /// Snapshot of the collected reports.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.inner.lock().reports.clone()
    }

    /// Snapshot of the collected diagnostics.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.inner.lock().diagnostics.clone()
    }

    /// Takes every collected report and diagnostic, resetting the
    /// dedup state. The persistent engine drains after each launch or
    /// host operation so races are attributed to the operation that
    /// exposed them and never leak into a later operation's analysis.
    ///
    /// Draining also rewinds the [`take_ready`](Self::take_ready)
    /// cursor: streaming is an *observation* layer, and the final drain
    /// must return every report of the window regardless of how many
    /// were previewed mid-flight.
    pub fn drain(&self) -> (Vec<RaceReport>, Vec<Diagnostic>) {
        let mut g = self.inner.lock();
        g.seen.clear();
        g.streamed = 0;
        (
            std::mem::take(&mut g.reports),
            std::mem::take(&mut g.diagnostics),
        )
    }

    /// Incremental drain for streaming: clones every report recorded
    /// since the previous `take_ready` call and advances the cursor.
    /// Reports stay in the sink — the authoritative end-of-window
    /// [`drain`](Self::drain) still returns them all. Detector workers
    /// push reports as they retire records, so polling this while a
    /// launch runs surfaces findings before the verdict completes.
    pub fn take_ready(&self) -> Vec<RaceReport> {
        let mut g = self.inner.lock();
        let fresh = g.reports[g.streamed..].to_vec();
        g.streamed = g.reports.len();
        fresh
    }

    /// Counts per memory space `(shared, global)`.
    pub fn space_counts(&self) -> (usize, usize) {
        let g = self.inner.lock();
        let shared = g
            .reports
            .iter()
            .filter(|r| r.space == MemSpace::Shared)
            .count();
        (shared, g.reports.len() - shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(addr: u64, space: MemSpace) -> RaceReport {
        RaceReport {
            space,
            block: None,
            addr,
            current: (Tid(1), AccessType::Write),
            previous: (Tid(0), AccessType::Read),
            class: RaceClass::InterBlock,
        }
    }

    #[test]
    fn dedup_per_location() {
        let s = RaceSink::new();
        assert!(s.report(rep(100, MemSpace::Global)));
        assert!(!s.report(rep(100, MemSpace::Global)));
        assert!(s.report(rep(104, MemSpace::Global)));
        // Same address, different space: distinct location.
        assert!(s.report(rep(100, MemSpace::Shared)));
        assert_eq!(s.race_count(), 3);
    }

    #[test]
    fn shared_locations_distinct_per_block() {
        let s = RaceSink::new();
        let mut a = rep(0, MemSpace::Shared);
        a.block = Some(0);
        let mut b = rep(0, MemSpace::Shared);
        b.block = Some(1);
        assert!(s.report(a));
        assert!(s.report(b));
        assert_eq!(s.race_count(), 2);
    }

    #[test]
    fn space_counts_split_global_and_shared() {
        let s = RaceSink::new();
        s.report(rep(0, MemSpace::Global));
        let mut r = rep(4, MemSpace::Shared);
        r.class = RaceClass::IntraWarp;
        s.report(r);
        assert_eq!(s.space_counts(), (1, 1));
    }

    #[test]
    fn diagnostics_dedup() {
        let s = RaceSink::new();
        s.diagnose(Diagnostic::BarrierDivergence { block: 2 });
        s.diagnose(Diagnostic::BarrierDivergence { block: 2 });
        s.diagnose(Diagnostic::BarrierDivergence { block: 3 });
        assert_eq!(s.diagnostics().len(), 2);
    }

    #[test]
    fn report_display_mentions_class_and_space() {
        let r = rep(0x40, MemSpace::Global);
        let text = r.to_string();
        assert!(text.contains("inter-block"));
        assert!(text.contains("global"));
    }

    #[test]
    fn host_side_displayed_as_host() {
        let mut r = rep(0x40, MemSpace::Global);
        r.current = (Tid(crate::launch::HOST_TID_KEY), AccessType::Write);
        r.class = RaceClass::HostDevice;
        let text = r.to_string();
        assert!(text.contains("host-device"), "{text}");
        assert!(text.contains("write by host"), "{text}");
    }

    #[test]
    fn take_ready_streams_incrementally_and_drain_stays_complete() {
        let s = RaceSink::new();
        assert!(s.take_ready().is_empty());
        s.report(rep(100, MemSpace::Global));
        s.report(rep(104, MemSpace::Global));
        let first = s.take_ready();
        assert_eq!(first.len(), 2);
        assert!(s.take_ready().is_empty(), "cursor advanced");
        s.report(rep(108, MemSpace::Global));
        assert_eq!(s.take_ready().len(), 1, "only the fresh report");
        // The authoritative drain returns everything, then rewinds the
        // cursor for the next window.
        let (all, _) = s.drain();
        assert_eq!(all.len(), 3);
        s.report(rep(100, MemSpace::Global));
        assert_eq!(s.take_ready().len(), 1, "cursor rewound by drain");
    }

    #[test]
    fn drain_resets_reports_and_dedup_state() {
        let s = RaceSink::new();
        s.report(rep(100, MemSpace::Global));
        s.diagnose(Diagnostic::BarrierDivergence { block: 1 });
        let (reports, diags) = s.drain();
        assert_eq!(reports.len(), 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(s.race_count(), 0);
        assert!(s.diagnostics().is_empty());
        // The same location can be reported again in a later window.
        assert!(s.report(rep(100, MemSpace::Global)));
    }
}
