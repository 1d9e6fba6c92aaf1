//! Epoch-recycling soak: a device-lifetime session of launches must keep
//! the persistent engine footprint flat.
//!
//! Drives [`EngineCore`] directly (no simulator, no PTX) through a long
//! stream-ordered launch history with periodic host synchronization —
//! the cadence a real serve session produces — and pins:
//!
//! * the [`LaunchRegistry`] high-water mark at the sync cadence, not the
//!   launch count (floor compaction drops dead records);
//! * generation resets actually fire (the 32-bit TID space is *reused*,
//!   not merely compacted — without this a device-lifetime session
//!   eventually exhausts it);
//! * every other footprint axis (predecessor frontiers, host-view
//!   entries, shadow pages, sync locations) stays bounded;
//! * verdicts survive the recycling: races found before a reset are not
//!   lost, and a fresh generation detects races exactly like the first
//!   (TID reuse neither suppresses nor duplicates reports).
//!
//! `BARRACUDA_SOAK_LAUNCHES` scales the launch count (default one
//! million; verify.sh quick mode sets it lower).
//!
//! The differential at the end holds recycling to its test-only oracle:
//! an [`EngineCore`] that never calls [`EngineCore::maybe_recycle`], so
//! its registry, frontiers and shadow only ever grow. Seeded random
//! multi-stream timelines (overlapping reads and writes, host copies,
//! stream and device syncs) must report the same races on both cores.

use std::collections::BTreeSet;

use barracuda_core::{EngineCore, RaceReport, RecycleAction, Worker};
use barracuda_trace::ops::{AccessKind, Event, MemSpace};
use barracuda_trace::GridDims;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// 2 blocks × 8 threads, warp size 4.
fn dims() -> GridDims {
    GridDims::with_warp_size(2u32, 8u32, 4)
}

fn write(warp: u64, addr: u64) -> Event {
    Event::Access {
        warp,
        kind: AccessKind::Write,
        space: MemSpace::Global,
        mask: 0b0001,
        addrs: [addr; 32],
        size: 4,
    }
}

/// One stream-ordered launch writing `addr`, returning its epoch.
fn launch(core: &mut EngineCore, pred: Option<u32>, addr: u64) -> u32 {
    let det = core.begin_launch(dims(), 0, pred);
    let epoch = det.epoch();
    let mut w = Worker::new(&det);
    w.process_event(&write(0, addr));
    core.finish_launch();
    epoch
}

fn soak_launches() -> u64 {
    std::env::var("BARRACUDA_SOAK_LAUNCHES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

#[test]
fn a_device_lifetime_of_launches_keeps_the_registry_flat() {
    let n = soak_launches();
    // Host synchronization cadence: a partial join (floor compaction)
    // every PARTIAL launches, a full device sync (generation reset
    // candidate) every FULL launches.
    const PARTIAL: u64 = 64;
    const FULL: u64 = 1024;

    let mut core = EngineCore::new();
    let mut pred: Option<u32> = None;
    let mut peak_high_water = 0usize;
    let mut peak_preds = 0usize;
    let mut peak_view = 0usize;
    let mut peak_pages = 0usize;
    let mut resets = 0u64;

    for i in 0..n {
        // Stream-ordered writes to a small rotating working set: no
        // races by construction, so any report is a recycling bug.
        let epoch = launch(&mut core, pred, 0x1000 + (i % 8) * 0x40);
        pred = Some(epoch);

        if i % FULL == FULL - 1 {
            core.join_all();
            if let Some(RecycleAction::Reset) = core.maybe_recycle() {
                resets += 1;
                // Old epoch numbers alias the new generation's.
                pred = None;
            }
        } else if i % PARTIAL == PARTIAL - 1 && epoch > 0 {
            // Joining the *previous* launch covers every older ancestor
            // transitively but leaves the newest epoch live: a floor
            // compaction, never a full reset.
            core.join_epoch(epoch - 1);
            if let Some(RecycleAction::Reset) = core.maybe_recycle() {
                resets += 1;
                pred = None;
            }
        }

        if i % PARTIAL == PARTIAL - 1 {
            let f = core.footprint();
            peak_high_water = peak_high_water.max(f.registry_high_water);
            peak_preds = peak_preds.max(f.epoch_preds);
            peak_view = peak_view.max(f.host_view_entries);
            peak_pages = peak_pages.max(f.shadow_pages);
            let (races, diags) = core.drain();
            assert!(races.is_empty(), "stream-ordered soak raced: {races:?}");
            assert!(diags.is_empty(), "{diags:?}");
        }
    }

    assert_eq!(core.total_launches(), n, "telemetry counts every launch");
    // The registry's memory high-water tracks the sync cadence, not the
    // launch count: one million launches, at most ~FULL records resident.
    assert!(
        peak_high_water <= (FULL as usize) + 1,
        "registry high-water {peak_high_water} exceeds the sync cadence {FULL}"
    );
    assert!(
        resets > 0 && core.footprint().generation == resets,
        "generation resets must fire (got {resets}): without TID reuse a \
         device-lifetime session exhausts the 32-bit epoch space"
    );
    assert!(
        core.compactions() > 0,
        "partial joins must floor-compact, not wait for full resets"
    );
    // The remaining axes are bounded by the working set, not the history.
    assert!(peak_preds <= FULL as usize + 1, "frontiers: {peak_preds}");
    assert!(peak_view <= 4096, "host-view entries: {peak_view}");
    assert!(peak_pages <= 8, "shadow pages: {peak_pages}");
    assert_eq!(core.sync_location_count(), 0);
}

#[test]
fn races_survive_resets_and_a_fresh_generation_detects_like_the_first() {
    let mut core = EngineCore::new();

    // Generation 0: two concurrent launches write the same word.
    launch(&mut core, None, 0x2000);
    launch(&mut core, None, 0x2000);
    let (races, _) = core.drain();
    assert_eq!(races.len(), 1, "generation 0 race: {races:?}");

    core.join_all();
    assert_eq!(core.maybe_recycle(), Some(RecycleAction::Reset));

    // Generation 1 reuses the same TIDs and epochs. The same shape must
    // produce the same single report — TID reuse must not suppress it
    // (stale shadow) nor double it (stale frontier).
    launch(&mut core, None, 0x2000);
    launch(&mut core, None, 0x2000);
    let (races, _) = core.drain();
    assert_eq!(races.len(), 1, "generation 1 race: {races:?}");
    assert_eq!(core.footprint().generation, 1);
}

#[test]
fn compacted_predecessors_stay_ordered_and_live_launches_still_race() {
    let mut core = EngineCore::new();

    // A and B run concurrently on different addresses; the host joins
    // only A, so compaction drops A but must keep B live.
    let a = launch(&mut core, None, 0x3000);
    let _b = launch(&mut core, None, 0x4000);
    core.join_epoch(a);
    assert!(matches!(
        core.maybe_recycle(),
        Some(RecycleAction::Compacted { dropped: 1 })
    ));

    // A's write is still in the shadow under an ancient TID: the host
    // touching it is ordered (ancient resolves to Clock::MAX)...
    core.host_write(0x3000, 4);
    let (races, _) = core.drain();
    assert!(
        races.is_empty(),
        "ancient predecessor must be ordered: {races:?}"
    );

    // ...but B was never joined: touching *its* write still races.
    core.host_write(0x4000, 4);
    let (races, _) = core.drain();
    assert_eq!(races.len(), 1, "live launch must still race: {races:?}");
}

/// One host-visible step of a generated timeline.
#[derive(Debug, Clone)]
enum Op {
    /// A kernel on `stream`: each access is `(warp, write, lane mask,
    /// word index of lane 0)`, lanes taking consecutive words.
    Launch {
        stream: usize,
        accesses: Vec<(u64, bool, u32, u64)>,
    },
    /// A blocking copy on `stream` over `words` words from word `at`:
    /// host-to-device (a host write) or device-to-host (a host read).
    Copy {
        stream: usize,
        h2d: bool,
        at: u64,
        words: u64,
    },
    StreamSync(usize),
    DeviceSync,
}

const STREAMS: usize = 3;
/// Words of the shared working set: small, so launches overlap.
const WORDS: u64 = 24;
const BASE: u64 = 0x8000;

fn timeline(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.random_range(8..48);
    (0..len)
        .map(|_| match rng.random_range(0u32..10) {
            0..=4 => Op::Launch {
                stream: rng.random_range(0..STREAMS),
                accesses: (0..rng.random_range(1..5))
                    .map(|_| {
                        (
                            rng.random_range(0u64..4),
                            rng.random_bool(0.5),
                            rng.random_range(1u32..16),
                            rng.random_range(0..WORDS - 4),
                        )
                    })
                    .collect(),
            },
            5 | 6 => Op::Copy {
                stream: rng.random_range(0..STREAMS),
                h2d: rng.random_bool(0.5),
                at: rng.random_range(0..WORDS),
                words: rng.random_range(1u64..6),
            },
            7 | 8 => Op::StreamSync(rng.random_range(0..STREAMS)),
            _ => Op::DeviceSync,
        })
        .collect()
}

/// A race as both cores must agree on it: thread ids are left out,
/// because a generation reset reuses them.
fn race_key(r: &RaceReport) -> String {
    format!(
        "{:?} {:#x} {:?} {:?} after {:?}",
        r.space, r.addr, r.class, r.current.1, r.previous.1
    )
}

/// What one run of a timeline saw: the races each op exposed, and the
/// floor compactions and generation resets recycling performed.
struct Run {
    races: Vec<BTreeSet<String>>,
    compactions: u64,
    resets: u64,
}

/// Runs `ops` on a fresh core. `recycle` mirrors the runtime engine's
/// reclaim: `maybe_recycle` at every host synchronization point,
/// forgetting the per-stream predecessors on a reset.
fn run_timeline(ops: &[Op], recycle: bool) -> Run {
    let mut core = EngineCore::new();
    let mut last: [Option<u32>; STREAMS] = [None; STREAMS];
    let mut races = Vec::with_capacity(ops.len());
    let mut resets = 0;
    for op in ops {
        match op {
            Op::Launch { stream, accesses } => {
                let det = core.begin_launch(dims(), 0, last[*stream]);
                last[*stream] = Some(det.epoch());
                let mut w = Worker::new(&det);
                for &(warp, write, mask, word) in accesses {
                    let mut addrs = [0u64; 32];
                    for (lane, a) in addrs.iter_mut().enumerate().take(4) {
                        *a = BASE + (word + lane as u64) * 4;
                    }
                    w.process_event(&Event::Access {
                        warp,
                        kind: if write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        space: MemSpace::Global,
                        mask,
                        addrs,
                        size: 4,
                    });
                }
                drop(w);
                core.finish_launch();
            }
            Op::Copy {
                stream,
                h2d,
                at,
                words,
            } => {
                if let Some(e) = last[*stream] {
                    core.join_epoch(e);
                }
                let (addr, len) = (BASE + at * 4, words * 4);
                if *h2d {
                    core.host_write(addr, len);
                } else {
                    core.host_read(addr, len);
                }
            }
            Op::StreamSync(stream) => {
                if let Some(e) = last[*stream] {
                    core.join_epoch(e);
                }
            }
            Op::DeviceSync => core.join_all(),
        }
        let (found, diags) = core.drain();
        assert!(diags.is_empty(), "{diags:?}");
        races.push(found.iter().map(race_key).collect());
        let host_sync = !matches!(op, Op::Launch { .. });
        if recycle && host_sync && core.maybe_recycle() == Some(RecycleAction::Reset) {
            last = [None; STREAMS];
            resets += 1;
        }
    }
    Run {
        races,
        compactions: core.compactions(),
        resets,
    }
}

#[test]
fn recycling_reports_the_races_of_a_core_that_never_recycles() {
    let (mut racy, mut compactions, mut resets) = (0, 0, 0);
    for seed in 0..400u64 {
        let ops = timeline(seed);
        let oracle = run_timeline(&ops, false);
        let recycled = run_timeline(&ops, true);
        for (i, (want, got)) in oracle.races.iter().zip(&recycled.races).enumerate() {
            assert_eq!(
                got, want,
                "seed {seed}, op {i} ({:?}): recycling changed the races\ntimeline: {ops:#?}",
                ops[i]
            );
        }
        racy += oracle.races.iter().filter(|r| !r.is_empty()).count();
        compactions += recycled.compactions;
        resets += recycled.resets;
    }
    // The timelines exercise what the differential is about.
    assert!(racy > 1000, "only {racy} ops exposed a race");
    assert!(compactions > 300, "only {compactions} floor compactions");
    assert!(resets > 300, "only {resets} generation resets");
}
