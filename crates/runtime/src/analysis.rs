//! Analysis results returned by a detection run.

use barracuda_core::{Diagnostic, PathStats, RaceClass, RaceReport};
use barracuda_instrument::InstrumentStats;
use barracuda_simt::LaunchStats;
use std::time::Duration;

/// Telemetry of one detector worker (one per queue in threaded mode; a
/// single pseudo-worker in synchronous mode).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Worker index == index of the queue it drained.
    pub worker: usize,
    /// Events this worker processed.
    pub events: u64,
    /// PTVC format census this worker observed
    /// (`[converged, diverged, nested, sparse]`).
    pub format_census: [u64; 4],
    /// Corrupt records this worker skipped.
    pub corrupt_records: u64,
    /// True when the worker died mid-run (its tallies stop at the panic).
    pub panicked: bool,
}

/// Cumulative pipeline telemetry of one stream, engine-lifetime. All
/// counters except `peak_depth` are per-launch deltas summed per stream;
/// `peak_depth` is the engine-lifetime queue high-water observed as of
/// the stream's most recent launch (queue depth maxima are monotonic and
/// cannot be attributed to a single launch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamTelemetry {
    /// Stream id (0 = the default stream).
    pub stream: u32,
    /// Launches this stream has run.
    pub launches: u64,
    /// Device log records its launches produced.
    pub records: u64,
    /// Records shed or fault-dropped during its launches.
    pub dropped: u64,
    /// Producer stall cycles paid during its launches.
    pub stall_cycles: u64,
    /// Engine-lifetime peak queue depth as of this stream's last launch.
    pub peak_depth: u64,
}

/// Queue and worker telemetry of the host-side pipeline (§4.2–4.3): the
/// observability layer for backpressure, degradation and load balance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Number of GPU→host queues (0 in synchronous mode).
    pub queues: usize,
    /// Peak committed-but-unread depth across all queues.
    pub queue_high_water: u64,
    /// Producer spin-yield cycles spent waiting for space or for earlier
    /// commits (queue pressure).
    pub producer_stall_cycles: u64,
    /// Records shed by bounded-stall backpressure.
    pub records_dropped: u64,
    /// Records that failed to decode on the host side.
    pub records_corrupt: u64,
    /// Workers that panicked mid-run.
    pub worker_panics: u64,
    /// Per-worker event/census tallies, ordered by worker index.
    pub per_worker: Vec<WorkerTelemetry>,
    /// Per-stream cumulative depth/drop counters, ordered by stream id
    /// (empty in synchronous mode and in one-shot sessions that never
    /// created a stream beyond the default).
    pub per_stream: Vec<StreamTelemetry>,
}

impl PipelineStats {
    /// True when every produced record reached a live worker and decoded.
    pub fn is_lossless(&self) -> bool {
        self.records_dropped == 0 && self.records_corrupt == 0 && self.worker_panics == 0
    }
}

/// Aggregate statistics of one detection run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Instrumentation statistics (Fig. 9 inputs).
    pub instrument: InstrumentStats,
    /// Simulator launch statistics for the instrumented run.
    pub launch: LaunchStats,
    /// Log records produced by the device side.
    pub records: u64,
    /// Events processed by the host-side detector.
    pub events: u64,
    /// PTVC format census at access events:
    /// `[converged, diverged, nested, sparse]` (Fig. 7 distribution).
    pub format_census: [u64; 4],
    /// Distinct synchronization locations observed.
    pub sync_locations: usize,
    /// Global shadow pages allocated.
    pub shadow_pages: usize,
    /// Approximate global shadow metadata bytes (~32× tracked bytes, Fig. 8).
    pub shadow_bytes: u64,
    /// Shadow-check counters, merged across all detector workers of the
    /// launch.
    pub shadow_paths: PathStats,
    /// Wall-clock time of the instrumented, detected run.
    pub detection_time: Duration,
    /// Queue and worker telemetry of the detection pipeline.
    pub pipeline: PipelineStats,
}

/// The result of checking one kernel launch.
#[derive(Debug, Clone)]
pub struct Analysis {
    races: Vec<RaceReport>,
    diagnostics: Vec<Diagnostic>,
    stats: AnalysisStats,
}

impl Analysis {
    pub(crate) fn new(
        races: Vec<RaceReport>,
        diagnostics: Vec<Diagnostic>,
        stats: AnalysisStats,
    ) -> Self {
        Analysis {
            races,
            diagnostics,
            stats,
        }
    }

    /// Splits the analysis into its races, diagnostics and statistics.
    pub(crate) fn into_parts(self) -> (Vec<RaceReport>, Vec<Diagnostic>, AnalysisStats) {
        (self.races, self.diagnostics, self.stats)
    }

    /// Number of distinct racing locations.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// True when no races and no diagnostics were found.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.diagnostics.is_empty()
    }

    /// The race reports (one per distinct location).
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Barrier-divergence and other diagnostics.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// True when the pipeline degraded mid-run (a worker panicked or
    /// records were lost): the verdict is then a sound lower bound, not a
    /// complete analysis.
    pub fn is_degraded(&self) -> bool {
        self.diagnostics.iter().any(|d| {
            matches!(
                d,
                Diagnostic::WorkerPanic { .. } | Diagnostic::LostRecords { .. }
            )
        })
    }

    /// Run statistics.
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// Count of races in the given class.
    pub fn count_class(&self, class: RaceClass) -> usize {
        self.races.iter().filter(|r| r.class == class).count()
    }

    /// `(shared, global)` counts (the Table 1 "races found" split).
    pub fn space_counts(&self) -> (usize, usize) {
        let shared = self
            .races
            .iter()
            .filter(|r| r.space == barracuda_trace::MemSpace::Shared)
            .count();
        (shared, self.races.len() - shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barracuda_core::AccessType;
    use barracuda_trace::{MemSpace, Tid};

    fn race(space: MemSpace, class: RaceClass) -> RaceReport {
        RaceReport {
            space,
            block: None,
            addr: 0,
            current: (Tid(0), AccessType::Write),
            previous: (Tid(1), AccessType::Write),
            class,
        }
    }

    #[test]
    fn analysis_accessors() {
        let a = Analysis::new(
            vec![
                race(MemSpace::Global, RaceClass::InterBlock),
                race(MemSpace::Shared, RaceClass::IntraWarp),
            ],
            vec![],
            AnalysisStats::default(),
        );
        assert_eq!(a.race_count(), 2);
        assert!(!a.is_clean());
        assert_eq!(a.count_class(RaceClass::InterBlock), 1);
        assert_eq!(a.space_counts(), (1, 1));
    }

    #[test]
    fn clean_analysis() {
        let a = Analysis::new(vec![], vec![], AnalysisStats::default());
        assert!(a.is_clean());
        assert_eq!(a.race_count(), 0);
    }
}
