//! Persistent device-lifetime detection state.
//!
//! The real BARRACUDA attaches to a live CUDA process and watches its
//! whole lifetime: a stream of kernel launches interleaved with host
//! memory operations. [`EngineCore`] is the detector-side half of that
//! model: it owns the state that must outlive a single launch — the
//! global-memory shadow, the synchronization-location map `S`, the
//! launch registry, and the *host* clock — and mints a per-launch
//! [`Detector`] whose scope ties launch-local thread clocks into the
//! global TID space.
//!
//! ## Happens-before model
//!
//! * The host is a single sequential thread with epoch
//!   `host_clock @ HOST_TID`; every host memory operation bumps it.
//! * A kernel launch is ordered after everything its *predecessor
//!   frontier* covers: the host's accesses up to the launch call, plus —
//!   for same-stream launches — the whole previous launch on that stream
//!   (a launch-epoch floor of `Clock::MAX`) and, transitively, that
//!   launch's own frontier. Launches on different streams share no edge
//!   and are concurrent.
//! * `stream_synchronize`/`device_synchronize` (and the implicit wait of
//!   a blocking memcpy) join launch frontiers into the host's view.
//!
//! Races whose previous access belongs to a different epoch are
//! classified [`RaceClass::InterKernel`]; races against a host operation
//! are [`RaceClass::HostDevice`].

use crate::clock::Clock;
use crate::detector::{check_cells_run, Detector, LaneGroup, LaunchScope, PathStats, SyncMap};
use crate::hclock::HClock;
use crate::launch::{LaunchRegistry, HOST_TID, HOST_TID_KEY};
use crate::report::{AccessType, Diagnostic, RaceClass, RaceReport, RaceSink};
use crate::shadow::{GlobalShadow, SHADOW_PAGE_SIZE};
use barracuda_trace::{CancelToken, GridDims, MemSpace, Tid};
use std::collections::VecDeque;
use std::sync::Arc;

/// What one [`EngineCore::maybe_recycle`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecycleAction {
    /// Launches below the host-view watermark were compacted away
    /// (epoch/TID spaces keep advancing).
    Compacted {
        /// Launch records dropped from the registry.
        dropped: usize,
    },
    /// Every epoch was dead: shadow memory, sync locations and per-epoch
    /// state were wholesale replaced and the epoch/TID spaces restarted
    /// from zero. Callers tracking epoch numbers (per-stream
    /// last-launch edges) must forget them — old numbers would alias
    /// the new generation's.
    Reset,
}

/// Memory-footprint snapshot of the persistent state, pinned flat by
/// the epoch-recycling soak test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineFootprint {
    /// Live (uncompacted) launches in the registry.
    pub live_launches: usize,
    /// Most live launches ever resident at once.
    pub registry_high_water: usize,
    /// Predecessor frontiers still retained.
    pub epoch_preds: usize,
    /// Explicit entries in the host's view clock.
    pub host_view_entries: usize,
    /// Distinct synchronization locations tracked.
    pub sync_locations: usize,
    /// Allocated global shadow pages.
    pub shadow_pages: usize,
    /// Completed generation resets (TID-space reuses).
    pub generation: u64,
    /// First live epoch of the current generation.
    pub epoch_floor: u32,
}

/// The persistent half of a detection engine: shadow memory, sync map,
/// launch registry and host clock, surviving across kernel launches.
#[derive(Debug)]
pub struct EngineCore {
    global_shadow: Arc<GlobalShadow>,
    sync_locs: Arc<SyncMap>,
    races: Arc<RaceSink>,
    registry: Arc<LaunchRegistry>,
    /// Frozen predecessor frontier of each live launch epoch: entry `i`
    /// belongs to epoch `pred_floor + i`. Compaction pops dead frontiers
    /// from the front.
    epoch_preds: VecDeque<Arc<HClock>>,
    /// Epoch of `epoch_preds[0]`; always ≤ the host view's watermark
    /// cursor used to advance it.
    pred_floor: u32,
    /// Cumulative launches across every generation (telemetry; epochs
    /// and the registry reset, this never does).
    total_launches: u64,
    /// Completed floor compactions (telemetry).
    compactions: u64,
    /// The host thread's own clock (starts at 1; bumped per host op and
    /// per launch call).
    host_clock: Clock,
    /// What the host has synchronized with (stream/device syncs and
    /// blocking memcpys join launch frontiers in here).
    host_view: HClock,
    /// Engine-lifetime cancellation token, cloned into every launch's
    /// detector so a deadline watchdog reaches the worker loops.
    cancel: CancelToken,
}

impl Default for EngineCore {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineCore {
    /// A fresh engine: empty shadow, empty sync map, host clock at 1.
    pub fn new() -> Self {
        EngineCore {
            global_shadow: Arc::new(GlobalShadow::new()),
            sync_locs: Arc::new(SyncMap::new()),
            races: Arc::new(RaceSink::new()),
            registry: Arc::new(LaunchRegistry::new()),
            epoch_preds: VecDeque::new(),
            pred_floor: 0,
            total_launches: 0,
            compactions: 0,
            host_clock: 1,
            host_view: HClock::new(),
            cancel: CancelToken::new(),
        }
    }

    /// The engine's cancellation token: cancelling it stops the detector
    /// workers of the launch in flight; [`CancelToken::reset`] re-arms it
    /// for the next launch.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Registers a launch and returns its detector. `pred_epoch` is the
    /// epoch of the previous launch on the same stream, if any: that
    /// launch (and its own frontier, transitively) happens-before this
    /// one. The host's accesses so far are always in the frontier, and
    /// the launch call bumps the host clock so *later* host operations
    /// stay concurrent with this kernel.
    pub fn begin_launch(
        &mut self,
        dims: GridDims,
        shared_size: u64,
        pred_epoch: Option<u32>,
    ) -> Detector {
        let mut preds = self.host_view.clone();
        preds.set_thread(HOST_TID_KEY, self.host_clock);
        if let Some(p) = pred_epoch {
            if p >= self.pred_floor {
                preds.raise_launch(p, Clock::MAX);
                preds.join(&self.epoch_preds[(p - self.pred_floor) as usize]);
            }
            // A compacted predecessor is already fully covered: the
            // host view it was cloned from carries `p` at the watermark
            // (MAX) and subsumes `p`'s own frontier, which the host
            // joined before `p` could be declared dead.
        }
        self.host_clock += 1;
        self.total_launches += 1;
        let epoch = Arc::make_mut(&mut self.registry).register(dims);
        let preds = Arc::new(preds);
        self.epoch_preds.push_back(Arc::clone(&preds));
        let info = self.registry.info(epoch);
        let scope = LaunchScope {
            epoch,
            tid_base: info.tid_base,
            threads: info.threads,
            block_base: info.block_base,
            preds,
            registry: Arc::clone(&self.registry),
        };
        Detector::scoped(
            dims,
            shared_size,
            Arc::clone(&self.global_shadow),
            Arc::clone(&self.sync_locs),
            Arc::clone(&self.races),
            scope,
        )
        .with_cancel(self.cancel.clone())
    }

    /// Re-points a deferred launch detector at the engine's current
    /// registry. [`EngineCore::begin_launch`] clones the registry on
    /// write, so a detector minted before its group peers registered
    /// holds a snapshot missing their thread-id ranges; calling this for
    /// every deferred detector once the whole group is registered lets
    /// co-resident detectors classify races against each other's threads.
    pub fn refresh_registry(&self, det: &mut Detector) {
        det.set_registry(Arc::clone(&self.registry));
    }

    /// The launch epoch owning global thread id `t`, if any (used to
    /// attribute a group's races back to individual launches).
    pub fn epoch_of_tid(&self, t: u64) -> Option<u32> {
        self.registry.lookup(t).map(|info| info.epoch)
    }

    /// Marks a launch finished: shared-memory synchronization locations
    /// die with the launch (shared memory resets), so their entries are
    /// dropped from the persistent map. Global locations persist — they
    /// are what lets a later launch acquire a flag released here.
    pub fn finish_launch(&mut self) {
        self.sync_locs.retain(|k, _| !k.shared);
    }

    /// A host write of `len` bytes at `addr` (H2D memcpy destination).
    /// Conflicts with unsynchronized device accesses are reported as
    /// [`RaceClass::HostDevice`].
    pub fn host_write(&mut self, addr: u64, len: u64) {
        self.host_access(addr, len, AccessType::Write);
    }

    /// A host read of `len` bytes at `addr` (D2H memcpy source).
    pub fn host_read(&mut self, addr: u64, len: u64) {
        self.host_access(addr, len, AccessType::Read);
    }

    fn host_access(&mut self, addr: u64, len: u64, atype: AccessType) {
        let hc = self.host_clock;
        let view = &self.host_view;
        let reg = &self.registry;
        let clock_of = |_lane: u32, t: u32| -> Clock {
            if t == HOST_TID {
                hc // the host is sequential: it has seen all its own ops
            } else {
                view.get_scoped(u64::from(t), reg)
            }
        };
        // The host is a lane group of one.
        let group = LaneGroup {
            base: HOST_TID,
            lanes: 1,
            own: hc,
            clock_of: &clock_of,
        };
        // Every byte's metadata is updated (later launches must observe
        // the host epochs); at most one race is reported, keyed to the
        // operation's base address. One lock per page of the range, with
        // the word-granularity merge applied to each page-local span (a
        // host op has a single epoch and clock view, so a span of
        // identical cells needs only one state-machine run — memcpys
        // re-covering a region hit this constantly). Host operations keep
        // no counters.
        let mut races = [None; 32];
        let mut stats = PathStats::default();
        for (key, page) in self.global_shadow.pages_for_range(addr, len) {
            let start = addr.max(key * SHADOW_PAGE_SIZE);
            let end = (addr + len).min((key + 1) * SHADOW_PAGE_SIZE);
            let mut guard = page.lock();
            #[allow(clippy::cast_possible_truncation)] // page offsets < 4096
            let off = (start % SHADOW_PAGE_SIZE) as usize;
            let cells = &mut guard.cells[off..off + (end - start) as usize];
            check_cells_run(cells, &group, atype, &mut races, &mut stats);
        }
        if let Some((prev_tid, prev_type)) = races[0] {
            self.races.report(RaceReport {
                space: MemSpace::Global,
                block: None,
                addr,
                current: (Tid(HOST_TID_KEY), atype),
                previous: (Tid(u64::from(prev_tid)), prev_type),
                class: RaceClass::HostDevice,
            });
        }
        self.host_clock += 1;
    }

    /// The host waits for launch `epoch` (stream synchronization or the
    /// implicit wait of a blocking memcpy): its whole epoch, and the
    /// epoch's own frontier, join the host's view. Waiting on a
    /// compacted epoch is a no-op: it was only compacted because the
    /// host view already covered it.
    pub fn join_epoch(&mut self, epoch: u32) {
        if epoch < self.pred_floor {
            return;
        }
        self.host_view.raise_launch(epoch, Clock::MAX);
        let preds = Arc::clone(&self.epoch_preds[(epoch - self.pred_floor) as usize]);
        self.host_view.join(&preds);
    }

    /// The host waits for every launch so far (`cudaDeviceSynchronize`).
    pub fn join_all(&mut self) {
        for i in 0..self.epoch_preds.len() as u32 {
            self.host_view.raise_launch(self.pred_floor + i, Clock::MAX);
        }
    }

    /// Reclaims per-launch state the host-view watermark proves dead.
    ///
    /// Every epoch below the watermark carries a `Clock::MAX` launch
    /// floor in the host's view: all of its accesses happen-before every
    /// future launch (which inherits the host view as its frontier) and
    /// every future host operation. Its `LaunchInfo`, frontier clock —
    /// and, once *all* epochs are dead, its shadow and sync-location
    /// metadata — can never influence another verdict, only occupy
    /// memory.
    ///
    /// Two levels, chosen automatically:
    ///
    /// * **Floor compaction** (some epochs live): drop dead
    ///   `LaunchInfo`s and frontiers; TIDs of dropped launches become
    ///   *ancient* and resolve to `Clock::MAX`
    ///   ([`HClock::get_scoped`]).
    /// * **Generation reset** (no epochs live): additionally replace
    ///   the global shadow and sync-location map wholesale and restart
    ///   the epoch/TID spaces from zero. Stale metadata everywhere
    ///   named only dead threads, and dead threads are ordered before
    ///   everything that can still run — so a never-accessed shadow is
    ///   verdict-equivalent. This is what keeps a device-lifetime
    ///   session bounded: without it the 32-bit TID space eventually
    ///   exhausts.
    ///
    /// Callers must not invoke this while launches are deferred
    /// (interleave groups) or in flight: their detectors hold frozen
    /// frontiers that may reference the epochs being recycled. The
    /// engine calls it from host synchronization points only.
    pub fn maybe_recycle(&mut self) -> Option<RecycleAction> {
        let w = self.host_view.epoch_watermark();
        if w <= self.pred_floor {
            return None;
        }
        if w as usize >= self.registry.len() {
            // Every epoch is dead: restart the generation.
            self.global_shadow = Arc::new(GlobalShadow::new());
            self.sync_locs = Arc::new(SyncMap::new());
            Arc::make_mut(&mut self.registry).reset_generation();
            self.epoch_preds.clear();
            self.pred_floor = 0;
            // The host clock stays monotonic (HOST_TID is never
            // recycled); the view restarts with the epoch spaces.
            self.host_view = HClock::new();
            Some(RecycleAction::Reset)
        } else {
            let dropped = Arc::make_mut(&mut self.registry).compact_below(w);
            while self.pred_floor < w {
                self.epoch_preds.pop_front();
                self.pred_floor += 1;
            }
            self.compactions += 1;
            Some(RecycleAction::Compacted { dropped })
        }
    }

    /// Memory-footprint snapshot (soak tests pin this flat over
    /// millions of launches).
    pub fn footprint(&self) -> EngineFootprint {
        EngineFootprint {
            live_launches: self.registry.live(),
            registry_high_water: self.registry.high_water(),
            epoch_preds: self.epoch_preds.len(),
            host_view_entries: self.host_view.explicit_entries(),
            sync_locations: self.sync_locs.len(),
            shadow_pages: self.global_shadow.page_count(),
            generation: self.registry.generation(),
            epoch_floor: self.registry.epoch_floor(),
        }
    }

    /// Cumulative launches across every generation.
    pub fn total_launches(&self) -> u64 {
        self.total_launches
    }

    /// Completed floor compactions.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Takes the races and diagnostics collected since the last drain,
    /// resetting per-location dedup (the engine drains after every
    /// launch / host op, attributing races to the operation that exposed
    /// them).
    pub fn drain(&mut self) -> (Vec<RaceReport>, Vec<Diagnostic>) {
        self.races.drain()
    }

    /// The race sink shared with every launch's detector.
    pub fn races(&self) -> &RaceSink {
        &self.races
    }

    /// A shared handle to the race sink, for streaming observers that
    /// poll [`RaceSink::take_ready`] while a launch is in flight. The
    /// sink is engine-lifetime: it survives recycling and quarantined
    /// launches.
    pub fn races_arc(&self) -> Arc<RaceSink> {
        Arc::clone(&self.races)
    }

    /// Distinct synchronization locations currently tracked.
    pub fn sync_location_count(&self) -> usize {
        self.sync_locs.len()
    }

    /// Allocated global shadow pages.
    pub fn shadow_page_count(&self) -> usize {
        self.global_shadow.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Worker;
    use barracuda_trace::ops::{AccessKind, Event};

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

    fn run_launch(core: &mut EngineCore, pred: Option<u32>, events: &[Event]) -> u32 {
        let det = core.begin_launch(dims(), 0, pred);
        let epoch = det.epoch();
        let mut w = Worker::new(&det);
        for ev in events {
            w.process_event(ev);
        }
        core.finish_launch();
        epoch
    }

    #[test]
    fn concurrent_launches_race_inter_kernel() {
        let mut core = EngineCore::new();
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        let (races, _) = core.drain();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].class, RaceClass::InterKernel);
    }

    #[test]
    fn same_stream_launches_are_ordered() {
        let mut core = EngineCore::new();
        let e0 = run_launch(&mut core, None, &[write(0, 0x1000)]);
        run_launch(&mut core, Some(e0), &[write(0, 0x1000)]);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn stream_chain_is_transitive() {
        let mut core = EngineCore::new();
        let e0 = run_launch(&mut core, None, &[write(0, 0x1000)]);
        let e1 = run_launch(&mut core, Some(e0), &[]);
        run_launch(&mut core, Some(e1), &[write(0, 0x1000)]);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "K0 → K1 → K2 must order K0 before K2");
    }

    #[test]
    fn host_write_races_with_unsynced_kernel() {
        let mut core = EngineCore::new();
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        core.host_write(0x1000, 4);
        let (races, _) = core.drain();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].class, RaceClass::HostDevice);
        assert_eq!(races[0].current.0, Tid(HOST_TID_KEY));
    }

    #[test]
    fn host_write_after_join_is_ordered() {
        let mut core = EngineCore::new();
        let e0 = run_launch(&mut core, None, &[write(0, 0x1000)]);
        core.join_epoch(e0);
        core.host_write(0x1000, 4);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn kernel_sees_prior_host_writes_but_not_later_ones() {
        let mut core = EngineCore::new();
        core.host_write(0x1000, 4);
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "launch is ordered after prior host ops");
        // A later host write to what the kernel wrote, without a sync,
        // races.
        core.host_write(0x1000, 4);
        let (races, _) = core.drain();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].class, RaceClass::HostDevice);
    }

    #[test]
    fn device_synchronize_orders_everything() {
        let mut core = EngineCore::new();
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        run_launch(&mut core, None, &[write(0, 0x2000)]);
        core.join_all();
        core.host_write(0x1000, 4);
        core.host_write(0x2000, 4);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn sequential_launches_do_not_cross_contaminate_reports() {
        let mut core = EngineCore::new();
        // Launch 1 has an internal inter-block race.
        run_launch(&mut core, None, &[write(0, 0x1000), write(2, 0x1000)]);
        let (races, _) = core.drain();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].class, RaceClass::InterBlock);
        // Launch 2 (same stream would be ordered; use an independent
        // stream but a disjoint address) is clean: no reports leak over.
        run_launch(&mut core, None, &[write(0, 0x4000)]);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn flag_handoff_across_launches_synchronizes() {
        use barracuda_trace::ops::Scope;
        let data = 0x1000u64;
        let flag = 0x2000u64;
        let rel = |warp: u64, addr: u64| Event::Access {
            warp,
            kind: AccessKind::Release(Scope::Global),
            space: MemSpace::Global,
            mask: 0b0001,
            addrs: [addr; 32],
            size: 4,
        };
        let acq = |warp: u64, addr: u64| Event::Access {
            warp,
            kind: AccessKind::Acquire(Scope::Global),
            space: MemSpace::Global,
            mask: 0b0001,
            addrs: [addr; 32],
            size: 4,
        };
        // Launch 1 (stream A) writes data, releases flag. Launch 2
        // (stream B, concurrent) acquires flag, then writes data: the
        // handoff is only visible because the sync-location map
        // persists across launches.
        let mut core = EngineCore::new();
        run_launch(&mut core, None, &[write(0, data), rel(0, flag)]);
        run_launch(&mut core, None, &[acq(0, flag), write(0, data)]);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "{races:?}");

        // Without the release, the same shape races inter-kernel.
        let mut core = EngineCore::new();
        run_launch(&mut core, None, &[write(0, data)]);
        run_launch(&mut core, None, &[acq(0, flag), write(0, data)]);
        let (races, _) = core.drain();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].class, RaceClass::InterKernel);
    }

    #[test]
    fn handoff_carries_host_history_transitively() {
        use barracuda_trace::ops::Scope;
        // Host writes X; K1 (ordered after host) releases a flag; K2 on
        // another stream acquires the flag and writes X. K2 must inherit
        // K1's view of the host write through the release.
        let mut core = EngineCore::new();
        core.host_write(0x1000, 4);
        let rel = Event::Access {
            warp: 0,
            kind: AccessKind::Release(Scope::Global),
            space: MemSpace::Global,
            mask: 0b0001,
            addrs: [0x2000; 32],
            size: 4,
        };
        let acq = Event::Access {
            warp: 0,
            kind: AccessKind::Acquire(Scope::Global),
            space: MemSpace::Global,
            mask: 0b0001,
            addrs: [0x2000; 32],
            size: 4,
        };
        run_launch(&mut core, None, &[rel]);
        run_launch(&mut core, None, &[acq, write(0, 0x1000)]);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn recycle_is_a_noop_while_epochs_are_live() {
        let mut core = EngineCore::new();
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        // Nothing joined: the watermark is still 0.
        assert_eq!(core.maybe_recycle(), None);
    }

    #[test]
    fn join_all_then_recycle_resets_the_generation() {
        let mut core = EngineCore::new();
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        run_launch(&mut core, None, &[write(0, 0x2000)]);
        core.join_all();
        assert_eq!(core.maybe_recycle(), Some(RecycleAction::Reset));
        let fp = core.footprint();
        assert_eq!(fp.live_launches, 0);
        assert_eq!(fp.epoch_preds, 0);
        assert_eq!(fp.shadow_pages, 0);
        assert_eq!(fp.generation, 1);
        assert_eq!(core.total_launches(), 2);
        // The recycled engine serves fresh launches with reused TIDs;
        // verdicts are unaffected (everything old was ordered anyway).
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        let (races, _) = core.drain();
        assert_eq!(races.len(), 1, "fresh concurrent launches still race");
        assert_eq!(races[0].class, RaceClass::InterKernel);
    }

    #[test]
    fn recycling_never_fabricates_order_for_live_work() {
        // K0 joins and is recycled; K1 then runs concurrently with a
        // host write — the race must survive recycling.
        let mut core = EngineCore::new();
        let e0 = run_launch(&mut core, None, &[write(0, 0x1000)]);
        core.join_epoch(e0);
        assert_eq!(core.maybe_recycle(), Some(RecycleAction::Reset));
        run_launch(&mut core, None, &[write(0, 0x1000)]);
        core.host_write(0x1000, 4);
        let (races, _) = core.drain();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].class, RaceClass::HostDevice);
    }

    #[test]
    fn partial_compaction_keeps_live_epochs_and_marks_dead_tids_ancient() {
        let mut core = EngineCore::new();
        let e0 = run_launch(&mut core, None, &[write(0, 0x1000)]);
        core.join_epoch(e0);
        // A second launch is still live (never joined): only e0 dies.
        run_launch(&mut core, None, &[write(0, 0x2000)]);
        match core.maybe_recycle() {
            Some(RecycleAction::Compacted { dropped }) => assert_eq!(dropped, 1),
            other => panic!("expected compaction, got {other:?}"),
        }
        let fp = core.footprint();
        assert_eq!(fp.live_launches, 1);
        assert_eq!(fp.epoch_floor, 1);
        assert_eq!(fp.generation, 0, "not a reset: an epoch was live");
        // The dead launch's cells now name an ancient TID; a new access
        // to its address must NOT race (it was host-ordered).
        core.host_write(0x1000, 4);
        // The live launch still races with the host as before.
        core.host_write(0x2000, 4);
        let (races, _) = core.drain();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].addr, 0x2000);
    }

    #[test]
    fn dead_same_stream_predecessor_still_orders_the_next_launch() {
        // K0 on stream A; host syncs; an unrelated live launch keeps
        // the generation alive, so recycling *compacts* K0 away. K2 on
        // stream A names K0 as predecessor: the chain must still hold
        // (through the host view), not fabricate a race. (After a full
        // generation *reset* the caller forgets stream edges instead —
        // old epoch numbers would alias the new space.)
        let mut core = EngineCore::new();
        let e0 = run_launch(&mut core, None, &[write(0, 0x1000)]);
        core.join_epoch(e0);
        run_launch(&mut core, None, &[write(0, 0x9000)]); // live, unjoined
        assert_eq!(
            core.maybe_recycle(),
            Some(RecycleAction::Compacted { dropped: 1 })
        );
        run_launch(&mut core, Some(e0), &[write(0, 0x1000)]);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn cross_launch_sync_handoff_survives_compaction_of_unrelated_epochs() {
        use barracuda_trace::ops::Scope;
        // An unrelated launch is joined and compacted *between* the
        // releasing and acquiring launches; the flag handoff must still
        // order them. (Compaction keeps the sync map: only a full
        // generation reset may clear it, and then no unsynced live
        // launch exists to need it.)
        let data = 0x1000u64;
        let flag = 0x2000u64;
        let rel = Event::Access {
            warp: 0,
            kind: AccessKind::Release(Scope::Global),
            space: MemSpace::Global,
            mask: 0b0001,
            addrs: [flag; 32],
            size: 4,
        };
        let acq = Event::Access {
            warp: 0,
            kind: AccessKind::Acquire(Scope::Global),
            space: MemSpace::Global,
            mask: 0b0001,
            addrs: [flag; 32],
            size: 4,
        };
        let mut core = EngineCore::new();
        run_launch(&mut core, None, &[write(0, data), rel]);
        let unrelated = run_launch(&mut core, None, &[write(0, 0x9000)]);
        core.join_epoch(unrelated);
        // Epoch 0 (the releaser, not joined) must stay live; only nothing
        // or the unrelated epoch may drop. With watermark stuck at 0 the
        // call is a no-op, which is also fine.
        assert!(
            !matches!(core.maybe_recycle(), Some(RecycleAction::Reset)),
            "the releaser is still live"
        );
        run_launch(&mut core, None, &[acq, write(0, data)]);
        let (races, _) = core.drain();
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn footprint_plateaus_over_a_joined_launch_chain() {
        // The miniature soak: launches joined as they go must not grow
        // any persistent structure.
        let mut core = EngineCore::new();
        let mut peak = EngineFootprint::default();
        for i in 0..1000u64 {
            run_launch(&mut core, None, &[write(0, 0x1000 + (i % 8) * 64)]);
            core.join_all();
            core.maybe_recycle();
            let fp = core.footprint();
            peak.live_launches = peak.live_launches.max(fp.live_launches);
            peak.epoch_preds = peak.epoch_preds.max(fp.epoch_preds);
            peak.host_view_entries = peak.host_view_entries.max(fp.host_view_entries);
            peak.shadow_pages = peak.shadow_pages.max(fp.shadow_pages);
        }
        let _ = core.drain();
        assert_eq!(core.total_launches(), 1000);
        assert_eq!(core.footprint().generation, 1000, "every join recycled");
        assert!(peak.live_launches <= 1, "{peak:?}");
        assert!(peak.epoch_preds <= 1, "{peak:?}");
        assert!(peak.host_view_entries <= 4, "{peak:?}");
        assert!(peak.shadow_pages <= 2, "{peak:?}");
        assert_eq!(core.footprint().registry_high_water, 1);
    }

    #[test]
    fn shared_sync_locations_cleared_between_launches() {
        use barracuda_trace::ops::Scope;
        let mut core = EngineCore::new();
        let det = core.begin_launch(dims(), 64, None);
        let mut w = Worker::new(&det);
        w.process_event(&Event::Access {
            warp: 0,
            kind: AccessKind::Release(Scope::Block),
            space: MemSpace::Shared,
            mask: 0b0001,
            addrs: [0; 32],
            size: 4,
        });
        drop(w);
        drop(det);
        assert_eq!(core.sync_location_count(), 1);
        core.finish_launch();
        assert_eq!(core.sync_location_count(), 0);
    }
}
