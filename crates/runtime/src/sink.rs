//! Pipeline plumbing between the simulated device and the detector: the
//! producer-side record sink, the consumer worker loop, and the host-op
//! buffer used by the CUDA-style host API.

use barracuda_core::{Detector, PathStats, Worker};
use barracuda_simt::EventSink;
use barracuda_trace::{FaultPlan, QueueSet, Record, SyncOrder};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The producer-side sink of the threaded pipeline: routes records to
/// their block's queue with bounded-stall backpressure, and applies the
/// producer-side faults of a [`FaultPlan`] (drops, corruption).
///
/// A queue whose bounded push ever times out is marked *wedged*: its
/// consumer is presumed dead or badly stalled, and later records for it
/// pay at most one fast full-check instead of the whole stall budget
/// again, so a single dead worker cannot slow the simulation to a crawl.
pub(crate) struct PipelineSink<'a> {
    queues: &'a QueueSet,
    plan: Option<&'a FaultPlan>,
    stall_budget: u64,
    /// Launch epoch, mixed into the queue-affinity hash so consecutive
    /// launches spread their blocks across different queues (per-stream
    /// fairness under the serving workload; see [`QueueSet::index_for`]).
    epoch: u32,
    /// Cross-queue ordering of synchronization records: a ticket is
    /// issued for every sync record that actually enqueues, so workers
    /// apply them in emission order.
    order: &'a SyncOrder,
    /// Per-queue producer sequence numbers (fault-decision coordinates).
    seq: Vec<AtomicU64>,
    /// Queues that exhausted a stall budget once.
    wedged: Vec<AtomicBool>,
    /// Records dropped by fault injection (not by backpressure).
    injected_drops: AtomicU64,
    /// Records lost (shed *or* injected), indexed by [`Record::slot`] —
    /// the per-launch drop attribution of a co-resident group. Sized for
    /// every possible slot byte, so no bounds check on the hot drop path.
    dropped_per_slot: Vec<AtomicU64>,
}

impl<'a> PipelineSink<'a> {
    pub(crate) fn new(
        queues: &'a QueueSet,
        plan: Option<&'a FaultPlan>,
        stall_budget: u64,
        order: &'a SyncOrder,
        epoch: u32,
    ) -> Self {
        PipelineSink {
            queues,
            plan,
            stall_budget,
            epoch,
            order,
            seq: (0..queues.len()).map(|_| AtomicU64::new(0)).collect(),
            wedged: (0..queues.len()).map(|_| AtomicBool::new(false)).collect(),
            injected_drops: AtomicU64::new(0),
            dropped_per_slot: (0..=usize::from(u8::MAX))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Records dropped by fault injection so far.
    pub(crate) fn injected_drops(&self) -> u64 {
        self.injected_drops.load(Ordering::Relaxed)
    }

    /// Records lost (shed or injected) whose [`Record::slot`] was `slot`.
    pub(crate) fn dropped_for_slot(&self, slot: u8) -> u64 {
        self.dropped_per_slot[usize::from(slot)].load(Ordering::Relaxed)
    }

    /// Applies the fault plan and bounded-stall backpressure, then pushes
    /// to queue `qi`. Returns the record as pushed (kind possibly
    /// corrupted), or `None` when it was dropped — injected or shed.
    fn try_push(&self, qi: usize, mut record: Record) -> Option<Record> {
        if let Some(plan) = self.plan {
            let seq = self.seq[qi].fetch_add(1, Ordering::Relaxed);
            if plan.should_drop(qi as u64, seq) {
                self.injected_drops.fetch_add(1, Ordering::Relaxed);
                self.dropped_per_slot[usize::from(record.slot)].fetch_add(1, Ordering::Relaxed);
                return None;
            }
            if let Some(kind) = plan.corrupt_kind(qi as u64, seq) {
                record.kind = kind;
            }
        }
        let q = self.queues.queue(qi);
        // A wedged queue gets a zero budget: drop immediately when full.
        let budget = if self.wedged[qi].load(Ordering::Relaxed) {
            0
        } else {
            self.stall_budget
        };
        if !q.push_bounded(record, budget) {
            self.wedged[qi].store(true, Ordering::Relaxed);
            self.dropped_per_slot[usize::from(record.slot)].fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(record)
    }
}

impl EventSink for PipelineSink<'_> {
    fn emit(&self, block: u64, record: Record) {
        let qi = self.queues.index_for(self.epoch, block);
        if let Some(rec) = self.try_push(qi, record) {
            if rec.is_global_sync() {
                // Only records that made it into a queue get a ticket — a
                // ticket must never wait on a record that is not coming.
                self.order.issue(qi);
            }
        }
    }
}

/// The longest a parked worker sleeps without a wake (a backstop: every
/// commit and the end of the launch wake it).
const IDLE_PARK: Duration = Duration::from_millis(1);

/// What one finished detector worker tallied.
#[derive(Debug, Default)]
pub(crate) struct WorkerTallies {
    /// Events applied across every slot's detector.
    pub(crate) events: u64,
    /// Census of PTVC formats observed at access events.
    pub(crate) census: [u64; 4],
    /// Corrupt records skipped (undecodable kind or out-of-range slot).
    pub(crate) corrupt: u64,
    /// Shadow-check counters, merged across slots.
    pub(crate) paths: PathStats,
    /// Events applied per group slot — one entry per detector handed to
    /// the worker (a single entry for a group of one). Sums to `events`.
    pub(crate) slot_events: Vec<u64>,
}

/// What one detector worker came back with.
pub(crate) enum WorkerOutcome {
    /// The worker drained its queue; its tallies.
    Finished(WorkerTallies),
    /// The worker panicked; the payload's message.
    Panicked(String),
}

/// Extracts a human-readable message from a panic payload: the detector
/// worker pool and the server's quarantine both report panics this way.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "unknown panic payload".to_string()
    }
}

/// The worker loop of one queue consumer: drains records until the launch
/// finishes and the queue is empty, applying the consumer-side faults of
/// the plan (periodic stalls, an injected panic at the Nth record) and
/// skipping records that fail to decode.
///
/// Global-sync records go through the [`SyncOrder`]: the worker waits for
/// the record's ticket to come up, applies it, and completes the ticket,
/// so releases and acquires on different queues hit the detector's
/// synchronization map in device emission order no matter how consumers
/// are scheduled (or chaos-stalled).
///
/// A worker whose queue is empty parks on it until the next commit or the
/// end of the launch. Spinning instead would take CPU time from the
/// simulating thread whenever workers outnumber free cores, and how much
/// it took would vary with thread placement from one check to the next.
///
/// The loop polls the cancel token between records (and inside every
/// spin-wait, where a cancelled producer would otherwise leave it
/// spinning forever). A cancelled worker marks its queue dead in the sync
/// order before leaving so surviving workers are not wedged on its
/// tickets, then returns its partial tallies; the launch itself fails
/// with `Cancelled`, so the partial state is drained by the engine.
///
/// `dets` holds one detector per group slot: every record dispatches to
/// the worker of its [`Record::slot`] byte (a group of one passes a
/// single detector and every record carries slot 0). Per-slot workers are
/// created lazily — a slot whose records all routed elsewhere costs
/// nothing. A record whose slot byte is out of range counts as corrupt,
/// but a *sync* record still pairs and completes its ticket so the
/// cross-queue ordering never wedges on it.
pub(crate) fn drain_queue(
    qi: usize,
    nworkers: usize,
    queues: &QueueSet,
    dets: &[Arc<Detector>],
    plan: Option<&FaultPlan>,
    done: &AtomicBool,
    order: &SyncOrder,
) -> WorkerTallies {
    let q = queues.queue(qi);
    // Every detector of a group shares the engine's cancel token, so
    // polling any one of them observes cancellation for the whole group.
    let cancel = dets.first().expect("at least one detector per launch");
    let mut workers: Vec<Option<Worker<'_>>> = (0..dets.len()).map(|_| None).collect();
    let mut processed = 0u64;
    let mut corrupt = 0u64;
    let mut sync_idx = 0usize;
    let panic_at = plan.and_then(|p| p.panic_after(qi, nworkers));
    'drain: loop {
        if cancel.is_cancelled() {
            order.mark_dead(qi);
            break 'drain;
        }
        if let Some(rec) = q.try_pop() {
            processed += 1;
            if panic_at.is_some_and(|at| processed > at) {
                // resume_unwind skips the panic hook: an injected crash
                // should not spray a backtrace over the test output.
                std::panic::resume_unwind(Box::new(format!(
                    "chaos: injected worker panic after {at} records",
                    at = panic_at.unwrap_or(0)
                )));
            }
            let ticket = if rec.is_global_sync() {
                // The producer issues the ticket right after the push;
                // spin out the tiny window where it is not visible yet.
                let ticket = loop {
                    if let Some(t) = order.ticket(qi, sync_idx) {
                        break t;
                    }
                    if cancel.is_cancelled() {
                        order.mark_dead(qi);
                        break 'drain;
                    }
                    std::hint::spin_loop();
                    std::thread::yield_now();
                };
                sync_idx += 1;
                while !order.is_turn(ticket) {
                    if cancel.is_cancelled() {
                        // mark_dead skips the held ticket too, so the
                        // turn we abandon cannot wedge a peer.
                        order.mark_dead(qi);
                        break 'drain;
                    }
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
                Some(ticket)
            } else {
                None
            };
            let si = usize::from(rec.slot);
            match (workers.get_mut(si), rec.try_decode()) {
                (Some(w), Some(ev)) => w
                    .get_or_insert_with(|| Worker::new(&dets[si]))
                    .process_event(&ev),
                _ => corrupt += 1,
            }
            if let Some(t) = ticket {
                order.complete(t);
            }
            if let Some(p) = plan {
                for _ in 0..p.consumer_stall_yields(qi, processed) {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            }
        } else if done.load(Ordering::Acquire) && q.is_empty() {
            break;
        } else {
            q.wait(IDLE_PARK, || {
                done.load(Ordering::SeqCst) || cancel.is_cancelled()
            });
        }
    }
    let mut tallies = WorkerTallies {
        corrupt,
        slot_events: vec![0; dets.len()],
        ..WorkerTallies::default()
    };
    for (si, w) in workers.iter().enumerate() {
        let Some(w) = w else { continue };
        let events = w.event_count();
        tallies.events += events;
        tallies.slot_events[si] = events;
        let c = w.format_census();
        for (acc, n) in tallies.census.iter_mut().zip(c) {
            *acc += n;
        }
        tallies.paths.merge(&w.path_stats());
    }
    tallies
}
