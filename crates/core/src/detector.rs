//! The BARRACUDA race-detection algorithm (paper §3.3, Figs. 2–3),
//! operating on warp-level events with compressed per-thread vector
//! clocks.
//!
//! State is split exactly as in the paper's host-side detector (§4.3):
//!
//! * [`Detector`] — state shared across detector threads: the global-
//!   memory shadow (page table + per-page locks), the synchronization-
//!   location map `S`, and the race sink;
//! * [`BlockState`] — state owned by whichever worker processes a block's
//!   queue: the per-warp [`WarpClocks`], the block's shared-memory shadow
//!   and barrier bookkeeping — lock-free, because all events of one block
//!   arrive on one queue;
//! * [`Worker`] — one queue consumer: a map of block states plus the
//!   event dispatch loop.
//!
//! # Lane groups
//!
//! There is one shadow-check path, `check_warp_access`. It visits a
//! record's lane segments page-major and lane-minor, and consecutive
//! lanes whose byte spans are identical form a *lane group*:
//! the Fig. 2–3 machine runs once per group over each run of identical
//! cells, not once per lane. A group's lanes share the warp's own clock
//! and its view of every other thread (one PTVC group state), so:
//!
//! * a read checks the last write once for all lanes but the writer,
//!   steps lane by lane while the read metadata is an epoch (READEXCL or
//!   READINFLATE), and once it is an inflated [`ReaderSet`] adds every
//!   remaining lane in one insert — a whole-warp broadcast read costs one
//!   set update;
//! * writes and atomics step through the group's lanes on the cell;
//! * a host operation (`EngineCore::host_write`/`host_read`) is a group
//!   of one.
//!
//! Every cell still meets its lanes in ascending lane order, so verdicts
//! and race keys equal the per-lane sweep's. A write racing with several
//! concurrent readers reports the *lowest* racing reader TID (reader sets
//! iterate in ascending TID order; the reference detector keeps its
//! readers in a `BTreeMap` for the same rule), so the reported reader and
//! race class never depend on hash order.

use crate::clock::{Clock, Epoch};
use crate::hclock::HClock;
use crate::launch::{LaunchRegistry, HOST_TID_KEY};
use crate::ptvc::{PtvcFormat, WarpClocks};
use crate::report::{AccessType, Diagnostic, RaceClass, RaceReport, RaceSink};
use crate::shadow::{
    lanes_of, GlobalShadow, ReadMeta, ReaderSet, ShadowCell, SharedShadow, SHADOW_PAGE_SIZE,
};
use barracuda_trace::ops::{AccessKind, Event, Scope};
use barracuda_trace::record::Record;
use barracuda_trace::{CancelToken, GridDims, MemSpace, Tid};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A synchronization location: `(space, owning global block for shared,
/// address)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SyncKey {
    pub(crate) shared: bool,
    pub(crate) block: u64,
    pub(crate) addr: u64,
}

/// Per-location synchronization state: one clock slot per thread block
/// (paper §3.3.4), stored lazily — `global_slot` stands for every block
/// slot a global release assigned. In engine mode slots are keyed by
/// *global* block id, so the map can persist across launches without
/// one launch's block 0 aliasing another's.
#[derive(Debug, Default, Clone)]
pub(crate) struct SyncLoc {
    global_slot: Option<HClock>,
    per_block: HashMap<u64, HClock>,
}

impl SyncLoc {
    /// `S_x[b]`.
    fn slot(&self, b: u64) -> Option<&HClock> {
        self.per_block.get(&b).or(self.global_slot.as_ref())
    }

    /// `⊔_b S_x[b]`.
    fn join_all(&self) -> HClock {
        let mut h = self.global_slot.clone().unwrap_or_default();
        for v in self.per_block.values() {
            h.join(v);
        }
        h
    }

    /// `S_x[b] := h`.
    fn set_block(&mut self, b: u64, h: HClock) {
        self.per_block.insert(b, h);
    }

    /// `∀b. S_x[b] := h`.
    fn set_all(&mut self, h: HClock) {
        self.per_block.clear();
        self.global_slot = Some(h);
    }
}

/// Number of independent [`SyncMap`] shards. Sync traffic is orders of
/// magnitude rarer than plain accesses, so a modest shard count is
/// enough to keep barrier-heavy workloads from serializing on one lock.
const SYNC_SHARDS: usize = 16;

/// The shared synchronization-location map `S` (persistent in engine
/// mode), sharded by key hash so concurrent workers touching *different*
/// sync locations never contend on one map lock. Each per-key
/// transaction locks exactly one shard; no operation ever holds two
/// shard locks at once, so lock order cannot deadlock.
#[derive(Debug)]
pub(crate) struct SyncMap {
    shards: Box<[Mutex<HashMap<SyncKey, SyncLoc>>]>,
}

impl SyncMap {
    /// An empty map.
    pub(crate) fn new() -> Self {
        SyncMap {
            shards: (0..SYNC_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    fn shard(&self, key: &SyncKey) -> &Mutex<HashMap<SyncKey, SyncLoc>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SYNC_SHARDS]
    }

    /// Runs `f` with the (default-inserted) location for `key` under its
    /// shard lock.
    pub(crate) fn with_loc<R>(&self, key: SyncKey, f: impl FnOnce(&mut SyncLoc) -> R) -> R {
        let mut shard = self.shard(&key).lock();
        f(shard.entry(key).or_default())
    }

    /// Total locations across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Retains locations satisfying `f` (shard by shard).
    pub(crate) fn retain(&self, mut f: impl FnMut(&SyncKey, &mut SyncLoc) -> bool) {
        for s in self.shards.iter() {
            s.lock().retain(|k, v| f(k, v));
        }
    }
}

/// How one launch's detector maps into an engine's global id space: its
/// epoch, TID/block offsets, the frozen predecessor frontier (everything
/// that happened-before this launch: the host clock at launch time plus
/// fully-synchronized earlier launches), and the shared launch registry.
///
/// A standalone [`Detector::new`] detector is the degenerate scope:
/// epoch 0, zero bases, bottom frontier.
#[derive(Debug, Clone)]
pub(crate) struct LaunchScope {
    pub(crate) epoch: u32,
    pub(crate) tid_base: u64,
    pub(crate) threads: u64,
    pub(crate) block_base: u64,
    pub(crate) preds: Arc<HClock>,
    pub(crate) registry: Arc<LaunchRegistry>,
}

impl LaunchScope {
    /// Launch-local TID for a global TID of *this* launch, `None` for
    /// foreign ids (other epochs, the host sentinel).
    fn local_of(&self, gt: u64) -> Option<Tid> {
        (gt >= self.tid_base && gt < self.tid_base + self.threads).then(|| Tid(gt - self.tid_base))
    }
}

/// Counters for the detector's shadow checks, kept per worker and
/// merged for telemetry (`--stats-json`). Every plain access takes the
/// warp-coalesced path: one page lock per record, word-granularity
/// merges, uniform converged clock views.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Plain-access records processed through the batched sweep.
    pub batched_records: u64,
    /// Always 0. Kept only because the benchmark's `core.batched_share`
    /// reads it.
    pub slow_records: u64,
    /// Global-shadow page-lock acquisitions.
    pub page_locks: u64,
    /// Word-granularity merges: the state machine ran once for a whole
    /// multi-byte span whose cells carried identical metadata.
    pub word_merges: u64,
    /// Multi-byte spans whose cells disagreed, falling back to per-byte.
    pub word_fallbacks: u64,
    /// Records whose converged PTVC allowed a shared structural clock
    /// view across all active lanes.
    pub uniform_records: u64,
    /// Fig. 2–3 state-machine runs: one per lane group per run of
    /// identical cells (a warp's same-word read is one run).
    pub cell_checks: u64,
}

impl PathStats {
    /// Accumulates another worker's counters into this one.
    pub fn merge(&mut self, o: &PathStats) {
        self.batched_records += o.batched_records;
        self.page_locks += o.page_locks;
        self.word_merges += o.word_merges;
        self.word_fallbacks += o.word_fallbacks;
        self.uniform_records += o.uniform_records;
        self.cell_checks += o.cell_checks;
    }
}

/// Detector state shared across worker threads: the global-memory
/// shadow, the synchronization-location map `S`, and the race sink. One
/// `Detector` checks one kernel launch; in engine mode the `Arc`-shared
/// parts outlive it and carry happens-before state to the next launch.
#[derive(Debug)]
pub struct Detector {
    dims: GridDims,
    shared_size: u64,
    global_shadow: Arc<GlobalShadow>,
    sync_locs: Arc<SyncMap>,
    races: Arc<RaceSink>,
    scope: LaunchScope,
    /// Cooperative cancellation: worker drain loops poll this between
    /// records and stop early once it fires (deadline watchdog, server
    /// shutdown). A standalone detector's token never fires.
    cancel: CancelToken,
}

impl Detector {
    /// Creates a standalone single-launch detector with the given
    /// dimensions and per-block shared-memory segment size.
    ///
    /// # Panics
    ///
    /// Panics when the launch has more than
    /// [`MAX_LAUNCH_THREADS`](barracuda_trace::MAX_LAUNCH_THREADS)
    /// threads, the bound [`GridDims::try_with_warp_size`] checks.
    pub fn new(dims: GridDims, shared_size: u64) -> Self {
        let mut reg = LaunchRegistry::new();
        let epoch = reg.register(dims);
        Detector::scoped(
            dims,
            shared_size,
            Arc::new(GlobalShadow::new()),
            Arc::new(SyncMap::new()),
            Arc::new(RaceSink::new()),
            LaunchScope {
                epoch,
                tid_base: 0,
                threads: dims.total_threads(),
                block_base: 0,
                preds: Arc::new(HClock::new()),
                registry: Arc::new(reg),
            },
        )
    }

    /// A detector over engine-owned shared state (used by
    /// [`EngineCore`](crate::EngineCore)).
    pub(crate) fn scoped(
        dims: GridDims,
        shared_size: u64,
        global_shadow: Arc<GlobalShadow>,
        sync_locs: Arc<SyncMap>,
        races: Arc<RaceSink>,
        scope: LaunchScope,
    ) -> Self {
        Detector {
            dims,
            shared_size,
            global_shadow,
            sync_locs,
            races,
            scope,
            cancel: CancelToken::new(),
        }
    }

    /// Attaches the engine's cancellation token (builder style, used by
    /// [`EngineCore`](crate::EngineCore) when minting a launch detector).
    pub(crate) fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Re-points the launch scope's registry snapshot. Deferred
    /// (co-resident) launches mint their detector at registration time,
    /// but later registrations clone-on-write the engine's registry — so
    /// a detector held across registrations would keep a snapshot that
    /// cannot resolve its group peers' thread ids. The engine calls this
    /// on every deferred detector right before the group executes.
    pub(crate) fn set_registry(&mut self, registry: Arc<LaunchRegistry>) {
        self.scope.registry = registry;
    }

    /// True once this launch was cancelled: worker loops draining records
    /// for this detector should stop at the next record boundary.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Launch dimensions.
    pub fn dims(&self) -> &GridDims {
        &self.dims
    }

    /// The engine epoch this detector checks (0 for standalone
    /// detectors).
    pub fn epoch(&self) -> u32 {
        self.scope.epoch
    }

    /// The collected races and diagnostics.
    pub fn races(&self) -> &RaceSink {
        &self.races
    }

    /// Number of distinct synchronization locations observed.
    pub fn sync_location_count(&self) -> usize {
        self.sync_locs.len()
    }

    /// Allocated global shadow pages (memory accounting).
    pub fn shadow_page_count(&self) -> usize {
        self.global_shadow.page_count()
    }

    /// Approximate bytes of global shadow metadata currently allocated.
    /// Per Fig. 8 the per-byte record is padded to 32 bytes, so shadow
    /// memory costs ~32× the tracked global memory.
    pub fn shadow_bytes(&self) -> u64 {
        self.global_shadow.page_count() as u64
            * crate::shadow::SHADOW_PAGE_SIZE
            * std::mem::size_of::<crate::shadow::ShadowCell>() as u64
    }
}

/// Per-block detector state (owned by a single worker).
#[derive(Debug)]
pub struct BlockState {
    block: u64,
    warps: Vec<WarpClocks>,
    shared_shadow: SharedShadow,
    arrived: Vec<Option<u32>>,
    exited: Vec<bool>,
}

impl BlockState {
    fn new(dims: &GridDims, block: u64, shared_size: u64) -> Self {
        let wpb = dims.warps_per_block();
        let warps = (0..wpb)
            .map(|i| {
                let w = block * wpb + i;
                WarpClocks::new(w, dims.initial_mask(w))
            })
            .collect();
        BlockState {
            block,
            warps,
            shared_shadow: SharedShadow::new(shared_size),
            arrived: vec![None; wpb as usize],
            exited: vec![false; wpb as usize],
        }
    }
}

/// A queue consumer: processes the records of the blocks mapped to one
/// queue.
#[derive(Debug)]
pub struct Worker<'d> {
    det: &'d Detector,
    blocks: HashMap<u64, BlockState>,
    /// Census of PTVC formats observed at access events.
    format_census: [u64; 4],
    /// Shadow-check counters.
    path_stats: PathStats,
    events: u64,
}

impl<'d> Worker<'d> {
    /// A worker over the shared detector.
    pub fn new(det: &'d Detector) -> Self {
        Worker {
            det,
            blocks: HashMap::new(),
            format_census: [0; 4],
            path_stats: PathStats::default(),
            events: 0,
        }
    }

    /// Events processed so far.
    pub fn event_count(&self) -> u64 {
        self.events
    }

    /// `(converged, diverged, nested, sparse)` counts observed at access
    /// events (the Fig. 7 format distribution).
    pub fn format_census(&self) -> [u64; 4] {
        self.format_census
    }

    /// Shadow-check counters accumulated by this worker.
    pub fn path_stats(&self) -> PathStats {
        self.path_stats
    }

    /// Decodes and processes one record.
    pub fn process_record(&mut self, rec: &Record) {
        self.process_event(&rec.decode());
    }

    /// Processes one warp-level event.
    pub fn process_event(&mut self, ev: &Event) {
        self.events += 1;
        let det = self.det;
        let (bs, wib) = block_entry(&mut self.blocks, det, ev.warp());
        if let Event::Access {
            kind: kind @ (AccessKind::Read | AccessKind::Write | AccessKind::Atomic),
            space,
            mask,
            addrs,
            size,
            ..
        } = ev
        {
            let atype = match kind {
                AccessKind::Read => AccessType::Read,
                AccessKind::Write => AccessType::Write,
                _ => AccessType::Atomic,
            };
            self.format_census[census_slot(&bs.warps[wib])] += 1;
            check_warp_access(
                det,
                &mut bs.shared_shadow,
                &bs.warps[wib],
                *mask,
                *space,
                addrs,
                *size,
                atype,
                &mut self.path_stats,
            );
            bs.warps[wib].endi();
        } else {
            apply_sync_or_control(det, bs, wib, ev);
        }
    }
}

/// The state of `warp`'s block, created on first touch, and the warp's
/// index within the block.
fn block_entry<'b>(
    blocks: &'b mut HashMap<u64, BlockState>,
    det: &Detector,
    warp: u64,
) -> (&'b mut BlockState, usize) {
    let dims = &det.dims;
    let block = dims.block_of_warp(warp);
    let wib = (warp % dims.warps_per_block()) as usize;
    let bs = blocks
        .entry(block)
        .or_insert_with(|| BlockState::new(dims, block, det.shared_size));
    (bs, wib)
}

/// The [`Worker::format_census`] slot of the warp's current PTVC format.
fn census_slot(wc: &WarpClocks) -> usize {
    match wc.format() {
        PtvcFormat::Converged => 0,
        PtvcFormat::Diverged => 1,
        PtvcFormat::NestedDiverged => 2,
        PtvcFormat::SparseVc => 3,
    }
}

/// Applies a sync access (Fig. 3 acquire/release rules) or a control
/// event (branch, barrier, exit) to the warp's clocks.
fn apply_sync_or_control(det: &Detector, bs: &mut BlockState, wib: usize, ev: &Event) {
    match *ev {
        Event::Access {
            kind,
            space,
            mask,
            ref addrs,
            ..
        } => {
            let (acquire, release) = match kind {
                AccessKind::Acquire(scope) => (Some(scope), None),
                AccessKind::Release(scope) => (None, Some(scope)),
                AccessKind::AcquireRelease(scope) => (Some(scope), Some(scope)),
                AccessKind::Read | AccessKind::Write | AccessKind::Atomic => {
                    unreachable!("plain accesses go through check_warp_access")
                }
            };
            process_sync(det, bs, wib, space, mask, addrs, acquire, release);
        }
        Event::If {
            then_mask,
            else_mask,
            ..
        } => bs.warps[wib].branch_if(then_mask, else_mask),
        Event::Else { .. } => bs.warps[wib].branch_else(),
        Event::Fi { .. } => bs.warps[wib].branch_fi(),
        Event::Bar { mask, .. } => {
            bs.arrived[wib] = Some(mask);
            try_barrier(det, bs);
        }
        Event::Exit { .. } => {
            bs.exited[wib] = true;
            try_barrier(det, bs);
        }
    }
}

/// One lane's slice of a warp access record, precomputed for the batched
/// sweep.
#[derive(Debug, Clone, Copy)]
struct LaneAcc {
    lane: u32,
    tid: Tid,
    gt: u64,
    addr: u64,
}

/// A race verdict: the previous access's global TID and type.
type Race = (u32, AccessType);

/// The lanes of one warp instruction that access the same byte span:
/// the shadow check runs once per group instead of once per lane.
///
/// Every lane of a group shares the warp's own clock, and lane `l`'s
/// global TID is `base + l` (a warp's lanes are consecutive TIDs). A
/// host operation is a group of one lane, lane 0.
pub(crate) struct LaneGroup<'a, F> {
    /// Global TID of lane 0.
    pub(crate) base: u32,
    /// The group's lanes (bit `l` = lane `l`), checked in ascending order.
    pub(crate) lanes: u32,
    /// `C_t(t)` of every lane in the group.
    pub(crate) own: Clock,
    /// `clock_of(lane, t)`: lane `lane`'s view of global TID `t`. The
    /// lanes of a warp instruction share the active PTVC group (§4.3.2),
    /// so every lane has the same view of any thread but itself.
    pub(crate) clock_of: &'a F,
}

impl<F: Fn(u32, u32) -> Clock> LaneGroup<'_, F> {
    /// Lane `lane`'s epoch.
    fn epoch(&self, lane: u32) -> Epoch {
        Epoch::new(self.own, self.base + lane)
    }
}

/// Records `race` as `lane`'s verdict unless the lane already has one
/// (a lane reports its lowest racing byte).
fn note_race(races: &mut [Option<Race>; 32], lane: u32, race: Option<Race>) {
    let slot = &mut races[lane as usize];
    if slot.is_none() {
        *slot = race;
    }
}

/// Runs the Fig. 2–3 state machine for one lane group over the
/// consecutive cells of the group's span, vectorized over *maximal runs*
/// of identical metadata: within each run the machine executes once on
/// the head cell and the resulting state is replicated to the rest —
/// sound because `check_group` reads and writes nothing outside its own
/// cell, so equal inputs under one lane group and access type produce
/// equal outputs and the same race verdicts as the per-byte sweep. Runs
/// are delimited on the pre-access state (replication only touches cells
/// behind the scan cursor), and runs are visited in ascending address
/// order, so each lane's verdict (into `races`, indexed by lane) is its
/// first racing cell's, exactly as in the paper's byte-granularity loop.
///
/// A run's cells share one reader-set allocation ([`ReadMeta::Shared`]).
/// Before the head's check the rest of the run lets go of it, so the
/// head updates the set in place unless cells outside the run still hold
/// it (then `Arc::make_mut` copies); refilling the run only bumps the
/// set's reference count. A block broadcast-reading one word thus costs
/// one set update per warp instead of a map compare and copy per byte
/// per lane.
pub(crate) fn check_cells_run<F: Fn(u32, u32) -> Clock>(
    cells: &mut [ShadowCell],
    group: &LaneGroup<'_, F>,
    atype: AccessType,
    races: &mut [Option<Race>; 32],
    stats: &mut PathStats,
) {
    let n = cells.len();
    let mut imperfect = false;
    let mut i = 0usize;
    while i < n {
        let mut j = i + 1;
        while j < n && cells[j] == cells[i] {
            j += 1;
        }
        let (head, rest) = cells[i..j].split_first_mut().expect("non-empty run");
        // Let go of the head's reader set so `check_group` can update it
        // in place; the refill below shares the result again.
        if matches!(head.read, ReadMeta::Shared(_)) {
            for c in rest.iter_mut() {
                c.read = ReadMeta::Epoch(Epoch::BOTTOM);
            }
        }
        stats.cell_checks += 1;
        check_group(head, group, atype, races);
        if rest.is_empty() {
            // A lone cell inside a multi-byte span: the span's metadata
            // was not fully mergeable.
            imperfect = true;
        } else {
            stats.word_merges += 1;
            for c in rest {
                c.clone_from(head);
            }
        }
        i = j;
    }
    if imperfect && n > 1 {
        stats.word_fallbacks += 1;
    }
}

/// Checks every active lane of one plain access record against the
/// shadow, acquiring each global-shadow page lock once per *record*
/// instead of once per byte per lane, and reusing the held guard for
/// every lane-byte that lands on the page.
///
/// Verdict-equivalent to the paper's per-lane, per-byte sweep: cells
/// are visited page-major / lane-minor, which preserves that sweep's
/// per-cell check order (two paths only reorder checks of *disjoint*
/// cells, and `check_group` touches nothing outside its own cell), each
/// lane still meets its own bytes in ascending address order (a
/// straddling lane's low page sorts first), and race reports are emitted
/// in lane order after the sweep (reporting never feeds back into cell
/// state). Consecutive lanes in that order whose page-local spans are
/// identical form one [`LaneGroup`], checked in one pass over
/// the span — the group's lanes still meet every cell in ascending lane
/// order. On top of the batching it applies the word-granularity merge
/// ([`check_cells_run`]) and, for converged warps, computes the
/// structural component of `clock_of` once per record
/// ([`WarpClocks::uniform_view`]).
///
/// Bytes past `u64::MAX` do not exist and are never checked.
#[allow(clippy::too_many_arguments)]
fn check_warp_access(
    det: &Detector,
    shared_shadow: &mut SharedShadow,
    wc: &WarpClocks,
    mask: u32,
    space: MemSpace,
    addrs: &[u64; 32],
    size: u8,
    atype: AccessType,
    stats: &mut PathStats,
) {
    if size == 0 {
        return;
    }
    let dims = &det.dims;
    let scope = &det.scope;
    stats.batched_records += 1;
    let ext = wc.active().external.as_ref();
    let uniform = wc.uniform_view(dims);
    if uniform.is_some() {
        stats.uniform_records += 1;
    }
    // A lane's view of a global TID; the converged-warp fast path swaps
    // the per-lane structural lookup for the record-wide uniform view.
    let clock_for = |lane: u32, t: u32| -> Clock {
        let key = u64::from(t);
        let mut c = match scope.local_of(key) {
            Some(local) => match &uniform {
                Some(u) => u.get(local),
                None => wc.clock_of_structural(lane, local, dims),
            },
            None => scope.preds.get_scoped(key, &scope.registry),
        };
        if let Some(eh) = ext {
            c = c.max(eh.get_scoped(key, &scope.registry));
        }
        c
    };
    let base = dims.tid_of_lane(wc.warp, 0).0;
    let base_gt = scope.tid_base + base;
    // A group of `lanes`, all accessing one span.
    let group = |lanes: u32| LaneGroup {
        #[allow(clippy::cast_possible_truncation)] // registry caps TIDs below u32::MAX
        base: base_gt as u32,
        lanes,
        own: wc.own_clock(),
        clock_of: &clock_for,
    };

    let mut lanes = [LaneAcc {
        lane: 0,
        tid: Tid(0),
        gt: 0,
        addr: 0,
    }; 32];
    let mut n = 0usize;
    for lane in 0..dims.warp_size {
        if mask & (1 << lane) == 0 {
            continue;
        }
        lanes[n] = LaneAcc {
            lane,
            tid: Tid(base + u64::from(lane)),
            gt: base_gt + u64::from(lane),
            addr: addrs[lane as usize],
        };
        n += 1;
    }
    let lanes = &lanes[..n];
    let mut races = [None::<Race>; 32];

    match space {
        MemSpace::Shared => {
            // Consecutive lanes at one address form a group.
            let mut i = 0;
            while i < n {
                let addr = lanes[i].addr;
                let mut members = 0u32;
                while i < n && lanes[i].addr == addr {
                    members |= 1 << lanes[i].lane;
                    i += 1;
                }
                let cells = shared_shadow.range_mut(addr, u64::from(size));
                check_cells_run(cells, &group(members), atype, &mut races, stats);
            }
        }
        MemSpace::Global => {
            // Split each lane's access into page-local segments — at most
            // two per lane, since accesses (≤ 8 bytes) are smaller than a
            // shadow page — tagged with the owning lane.
            let mut segs = [(0u64, 0u32, 0u64, 0u8); 64];
            let mut ns = 0usize;
            for la in lanes {
                let start = la.addr;
                let room = SHADOW_PAGE_SIZE - start % SHADOW_PAGE_SIZE;
                #[allow(clippy::cast_possible_truncation)] // low ≤ size
                let low = u64::from(size).min(room) as u8;
                segs[ns] = (start / SHADOW_PAGE_SIZE, la.lane, start, low);
                ns += 1;
                // The rest lies on the next page, unless the first segment
                // already ends at the top of the address space.
                if let Some(next) = start.checked_add(u64::from(low)).filter(|_| low < size) {
                    segs[ns] = (next / SHADOW_PAGE_SIZE, la.lane, next, size - low);
                    ns += 1;
                }
            }
            let segs = &mut segs[..ns];
            segs.sort_unstable_by_key(|s| (s.0, s.1));
            let mut i = 0;
            while i < ns {
                let page_key = segs[i].0;
                stats.page_locks += 1;
                let slot = det.global_shadow.page_by_key(page_key);
                let mut page = slot.lock();
                while i < ns && segs[i].0 == page_key {
                    // Consecutive segments over one span form a group.
                    let (_, _, start, len) = segs[i];
                    let mut members = 0u32;
                    while i < ns && segs[i].2 == start && segs[i].3 == len {
                        members |= 1 << segs[i].1;
                        i += 1;
                    }
                    #[allow(clippy::cast_possible_truncation)] // page offsets < 4096
                    let off = (start % SHADOW_PAGE_SIZE) as usize;
                    let cells = &mut page.cells[off..off + len as usize];
                    check_cells_run(cells, &group(members), atype, &mut races, stats);
                }
            }
        }
    }

    for la in lanes {
        if let Some((prev_tid, prev_type)) = races[la.lane as usize] {
            let class = classify(scope, dims, wc, la.tid, u64::from(prev_tid));
            det.races.report(RaceReport {
                space,
                block: (space == MemSpace::Shared).then(|| dims.block_of(la.tid)),
                addr: la.addr,
                current: (Tid(la.gt), atype),
                previous: (Tid(u64::from(prev_tid)), prev_type),
                class,
            });
        }
    }
}

/// Runs one lane group's access on one cell: each lane in ascending lane
/// order, exactly as a per-lane loop would, except that a read meeting an
/// inflated reader set adds all its remaining lanes in one insert. Their
/// write-race verdicts come from one lookup: a read leaves the last write
/// unchanged, and every lane but the writer sees the writer alike. Writes
/// and atomics step through the lanes on the cell.
fn check_group<F: Fn(u32, u32) -> Clock>(
    cell: &mut ShadowCell,
    g: &LaneGroup<'_, F>,
    atype: AccessType,
    races: &mut [Option<Race>; 32],
) {
    let mut rest = g.lanes;
    while rest != 0 {
        if atype == AccessType::Read {
            if let ReadMeta::Shared(set) = &mut cell.read {
                // Every lane but the last writer itself shares one view
                // of the writer: one lookup settles them all.
                let writer = cell.write.tid.wrapping_sub(g.base);
                let others = if writer < 32 {
                    rest & !(1 << writer)
                } else {
                    rest
                };
                if others != 0 {
                    let asker = others.trailing_zeros();
                    let race =
                        unordered_write(&cell.write, cell.write_atomic, g.epoch(asker), &|t| {
                            (g.clock_of)(asker, t)
                        });
                    if race.is_some() {
                        for lane in lanes_of(others) {
                            note_race(races, lane, race);
                        }
                    }
                }
                Arc::make_mut(set).insert_group(g.base, rest, g.own);
                return;
            }
        }
        let lane = rest.trailing_zeros();
        rest &= rest - 1;
        let race = check_cell(cell, g.epoch(lane), &|t| (g.clock_of)(lane, t), atype);
        note_race(races, lane, race);
    }
}

/// The WRITE-side race of an access at epoch `e`: the last write, unless
/// it is absent, `e`'s own, or happened before `e` (`clock_of` is `e`'s
/// view).
fn unordered_write<F: Fn(u32) -> Clock>(
    write: &Epoch,
    atomic: bool,
    e: Epoch,
    clock_of: &F,
) -> Option<Race> {
    let ordered = write.is_bottom() || write.tid == e.tid || write.clock <= clock_of(write.tid);
    let prev = if atomic {
        AccessType::Atomic
    } else {
        AccessType::Write
    };
    (!ordered).then_some((write.tid, prev))
}

/// The per-cell state machine for one thread: READEXCL / READSHARED /
/// READINFLATE / WRITEEXCL / WRITESHARED / INITATOM* / ATOM* from Figs.
/// 2–3.
///
/// `e` is the accessing thread's epoch (globally keyed in engine mode)
/// and `clock_of` its view of any global TID. A write that races with
/// several concurrent readers reports the lowest racing reader TID.
fn check_cell<F: Fn(u32) -> Clock>(
    cell: &mut ShadowCell,
    e: Epoch,
    clock_of: &F,
    atype: AccessType,
) -> Option<Race> {
    let racing_read = |cell: &ShadowCell| -> Option<Race> {
        match &cell.read {
            ReadMeta::Epoch(r) => (!r.is_bottom() && r.tid != e.tid && r.clock > clock_of(r.tid))
                .then_some((r.tid, AccessType::Read)),
            // Ascending TIDs: the first racing reader is the lowest.
            ReadMeta::Shared(set) => set
                .iter()
                .find(|&(rt, rc)| rt != e.tid && rc > clock_of(rt))
                .map(|(rt, _)| (rt, AccessType::Read)),
        }
    };

    match atype {
        AccessType::Read => {
            let race = unordered_write(&cell.write, cell.write_atomic, e, clock_of);
            // Update read metadata (READEXCL / READINFLATE / READSHARED).
            match &mut cell.read {
                ReadMeta::Epoch(r) => {
                    if r.is_bottom() || r.tid == e.tid || r.clock <= clock_of(r.tid) {
                        *r = e;
                    } else {
                        cell.read = ReadMeta::Shared(Arc::new(ReaderSet::pair(*r, e)));
                    }
                }
                ReadMeta::Shared(set) => Arc::make_mut(set).insert(e.tid, e.clock),
            }
            race
        }
        AccessType::Write | AccessType::Atomic => {
            // Atomic-atomic pairs never race (§3.3.2); the INITATOM rules
            // check the previous *non-atomic* write.
            let race = if atype == AccessType::Atomic && cell.write_atomic {
                None
            } else {
                unordered_write(&cell.write, cell.write_atomic, e, clock_of)
            }
            .or_else(|| racing_read(cell));
            cell.write = e;
            cell.write_atomic = atype == AccessType::Atomic;
            cell.read = ReadMeta::Epoch(Epoch::BOTTOM);
            race
        }
    }
}

/// Classifies a race from the two TIDs (§4.3.3): divergence (same warp,
/// different branch paths), intra-warp, intra-block or inter-block —
/// extended in engine mode with host-device (the previous access was a
/// host memory operation) and inter-kernel (a different launch epoch).
/// `cur` is launch-local, `prev_gt` globally keyed.
fn classify(
    scope: &LaunchScope,
    dims: &GridDims,
    wc: &WarpClocks,
    cur: Tid,
    prev_gt: u64,
) -> RaceClass {
    if prev_gt == HOST_TID_KEY {
        return RaceClass::HostDevice;
    }
    let Some(prev) = scope.local_of(prev_gt) else {
        return RaceClass::InterKernel;
    };
    if dims.warp_of(prev) == dims.warp_of(cur) {
        let prev_lane = dims.lane_of(prev);
        if wc.active().mask & (1 << prev_lane) != 0 {
            RaceClass::IntraWarp
        } else {
            RaceClass::Divergence
        }
    } else if dims.block_of(prev) == dims.block_of(cur) {
        RaceClass::IntraBlock
    } else {
        RaceClass::InterBlock
    }
}

/// Applies the acquire/release rules (Fig. 3) for one warp sync event.
#[allow(clippy::too_many_arguments)]
fn process_sync(
    det: &Detector,
    bs: &mut BlockState,
    wib: usize,
    space: MemSpace,
    mask: u32,
    addrs: &[u64; 32],
    acquire: Option<Scope>,
    release: Option<Scope>,
) {
    let dims = &det.dims;
    let lscope = &det.scope;
    // Slots (and shared-space keys) use the *global* block id so the
    // persistent map never aliases blocks of different launches.
    let gblock = lscope.block_base + bs.block;
    let wc = &mut bs.warps[wib];
    let mut acquired: Vec<HClock> = Vec::new();
    for lane in 0..dims.warp_size {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let key = SyncKey {
            shared: space == MemSpace::Shared,
            block: if space == MemSpace::Shared { gblock } else { 0 },
            addr: addrs[lane as usize],
        };
        // One shard lock per lane key; never two shards at once.
        det.sync_locs.with_loc(key, |loc| {
            let acquired_here = match acquire {
                Some(Scope::Block) => loc.slot(gblock).cloned(),
                Some(Scope::Global) => Some(loc.join_all()),
                None => None,
            };
            if let Some(scope) = release {
                // The released value is C_t — including the acquired
                // component for acquire-release operations (ACQRELBLK /
                // ACQRELGLB), and the launch's predecessor frontier, so
                // transitive happens-before through persisted sync
                // locations carries host/prior-kernel history to a later
                // acquirer.
                let mut snap =
                    wc.release_snapshot_scoped(lane, dims, lscope.tid_base, lscope.block_base);
                if !lscope.preds.is_bottom() {
                    snap.join(&lscope.preds);
                }
                if let Some(h) = &acquired_here {
                    snap.join(h);
                }
                match scope {
                    Scope::Block => loc.set_block(gblock, snap),
                    Scope::Global => loc.set_all(snap),
                }
            }
            if let Some(h) = acquired_here {
                if !h.is_bottom() {
                    acquired.push(h);
                }
            }
        });
    }
    for h in &acquired {
        wc.acquire(h);
    }
    // The incr of the release rules plus the instruction's endi; a single
    // bump covers both (clock gaps are harmless).
    wc.endi();
}

/// Completes a block barrier once every live warp has arrived (BAR rule +
/// §4.3.2 broadcast), diagnosing barrier divergence.
fn try_barrier(det: &Detector, bs: &mut BlockState) {
    let dims = &det.dims;
    let wpb = dims.warps_per_block() as usize;
    let complete = (0..wpb).all(|i| bs.exited[i] || bs.arrived[i].is_some());
    if !complete {
        return;
    }
    let any_arrived = bs.arrived.iter().any(Option::is_some);
    if !any_arrived {
        return; // every warp exited; nothing pending
    }
    let wpb64 = dims.warps_per_block();
    let mut divergence = false;
    for i in 0..wpb {
        let w = bs.block * wpb64 + i as u64;
        match (bs.exited[i], bs.arrived[i]) {
            (true, _) => divergence = true,
            (false, Some(m)) if m != dims.initial_mask(w) => divergence = true,
            _ => {}
        }
    }
    if divergence {
        det.races
            .diagnose(Diagnostic::BarrierDivergence { block: bs.block });
    }
    // Join all arrived warps and broadcast (block high-water clock).
    let mut b_clock: Clock = 0;
    let mut merged_ext: Option<Arc<HClock>> = None;
    for (i, a) in bs.arrived.iter().enumerate() {
        if a.is_none() {
            continue;
        }
        let g = bs.warps[i].active();
        b_clock = b_clock.max(g.own);
        if let Some(e) = &g.external {
            match &mut merged_ext {
                None => merged_ext = Some(Arc::clone(e)),
                Some(acc) => Arc::make_mut(acc).join(e),
            }
        }
    }
    for i in 0..wpb {
        if bs.arrived[i].is_some() {
            bs.warps[i].barrier_reset(b_clock, merged_ext.clone());
        }
        bs.arrived[i] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barracuda_trace::ops::Event;

    /// 2 blocks × 8 threads, warp size 4 → 2 warps/block.
    fn dims() -> GridDims {
        GridDims::with_warp_size(2u32, 8u32, 4)
    }

    fn access(warp: u64, kind: AccessKind, mask: u32, addr_of: impl Fn(u32) -> u64) -> Event {
        let mut addrs = [0u64; 32];
        for l in 0..32 {
            if mask & (1 << l) != 0 {
                addrs[l as usize] = addr_of(l);
            }
        }
        Event::Access {
            warp,
            kind,
            space: MemSpace::Global,
            mask,
            addrs,
            size: 4,
        }
    }

    fn shared_access(warp: u64, kind: AccessKind, mask: u32, addr: u64) -> Event {
        let mut addrs = [0u64; 32];
        for l in 0..32 {
            addrs[l as usize] = addr;
        }
        Event::Access {
            warp,
            kind,
            space: MemSpace::Shared,
            mask,
            addrs,
            size: 4,
        }
    }

    /// A shared record naming bytes past the declared segment (the
    /// simulator logs it, then faults the access) leaves the segment's
    /// shadow at its declared size and checks nothing.
    #[test]
    fn shared_record_past_the_segment_allocates_no_shadow() {
        let det = Detector::new(dims(), 128);
        let mut w = Worker::new(&det);
        w.process_event(&shared_access(0, AccessKind::Write, 0b1111, 1 << 20));
        assert_eq!(w.blocks[&0].shared_shadow.len(), 128);
        assert_eq!(det.races().race_count(), 0);
    }

    #[test]
    fn disjoint_writes_do_not_race() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&access(0, AccessKind::Write, 0b1111, |l| {
            0x1000 + u64::from(l) * 4
        }));
        w.process_event(&access(2, AccessKind::Write, 0b1111, |l| {
            0x2000 + u64::from(l) * 4
        }));
        assert_eq!(det.races().race_count(), 0);
    }

    #[test]
    fn intra_warp_same_address_write_write_races() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        // Two lanes of one instruction write the same address (the
        // same-value filter runs device-side; identical values never
        // reach the detector as two lanes).
        w.process_event(&access(0, AccessKind::Write, 0b11, |_| 0x1000));
        assert_eq!(det.races().race_count(), 1);
        assert_eq!(det.races().reports()[0].class, RaceClass::IntraWarp);
    }

    #[test]
    fn consecutive_instructions_same_warp_do_not_race() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| 0x1000));
        w.process_event(&access(0, AccessKind::Write, 0b0010, |_| 0x1000));
        // Lockstep: endi orders instruction n before n+1.
        assert_eq!(det.races().race_count(), 0);
    }

    #[test]
    fn inter_block_unsynchronized_write_write_races() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| 0x1000));
        w.process_event(&access(2, AccessKind::Write, 0b0001, |_| 0x1000));
        assert_eq!(det.races().race_count(), 1);
        assert_eq!(det.races().reports()[0].class, RaceClass::InterBlock);
    }

    #[test]
    fn read_read_never_races() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&access(0, AccessKind::Read, 0b0001, |_| 0x1000));
        w.process_event(&access(2, AccessKind::Read, 0b0001, |_| 0x1000));
        w.process_event(&access(1, AccessKind::Read, 0b1111, |_| 0x1000));
        assert_eq!(det.races().race_count(), 0);
    }

    #[test]
    fn write_after_concurrent_reads_races_with_reader() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&access(0, AccessKind::Read, 0b0001, |_| 0x1000));
        w.process_event(&access(2, AccessKind::Read, 0b0001, |_| 0x1000));
        w.process_event(&access(1, AccessKind::Write, 0b0001, |_| 0x1000));
        assert_eq!(det.races().race_count(), 1);
        let r = &det.races().reports()[0];
        assert_eq!(r.current.1, AccessType::Write);
        assert_eq!(r.previous.1, AccessType::Read);
    }

    #[test]
    fn barrier_orders_intra_block_but_not_inter_block() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        // Warp 0 (block 0) writes, both warps of block 0 hit the barrier,
        // then warp 1 (block 0) writes the same address: ordered.
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| 0x1000));
        w.process_event(&Event::Bar {
            warp: 0,
            mask: 0b1111,
        });
        w.process_event(&Event::Bar {
            warp: 1,
            mask: 0b1111,
        });
        w.process_event(&access(1, AccessKind::Write, 0b0001, |_| 0x1000));
        assert_eq!(det.races().race_count(), 0);
        // But block 1 is not synchronized by block 0's barrier.
        w.process_event(&access(2, AccessKind::Write, 0b0001, |_| 0x1000));
        assert_eq!(det.races().race_count(), 1);
        assert_eq!(det.races().reports()[0].class, RaceClass::InterBlock);
    }

    #[test]
    fn barrier_divergence_diagnosed() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&Event::Bar {
            warp: 0,
            mask: 0b0111,
        }); // partial!
        w.process_event(&Event::Bar {
            warp: 1,
            mask: 0b1111,
        });
        assert_eq!(
            det.races().diagnostics(),
            vec![Diagnostic::BarrierDivergence { block: 0 }]
        );
    }

    #[test]
    fn exited_warp_with_waiting_sibling_is_divergence() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&Event::Exit {
            warp: 0,
            mask: 0b1111,
        });
        w.process_event(&Event::Bar {
            warp: 1,
            mask: 0b1111,
        });
        assert_eq!(
            det.races().diagnostics(),
            vec![Diagnostic::BarrierDivergence { block: 0 }]
        );
    }

    #[test]
    fn release_acquire_block_scope_synchronizes_within_block() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        let data = 0x1000u64;
        let flag = 0x2000u64;
        // Warp 0 lane 0 writes data then releases flag (block scope).
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| data));
        w.process_event(&access(
            0,
            AccessKind::Release(Scope::Block),
            0b0001,
            |_| flag,
        ));
        // Warp 1 (same block) acquires flag then writes data: ordered.
        w.process_event(&access(
            1,
            AccessKind::Acquire(Scope::Block),
            0b0001,
            |_| flag,
        ));
        w.process_event(&access(1, AccessKind::Write, 0b0001, |_| data));
        assert_eq!(det.races().race_count(), 0);
    }

    #[test]
    fn block_scope_release_does_not_synchronize_across_blocks() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        let data = 0x1000u64;
        let flag = 0x2000u64;
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| data));
        w.process_event(&access(
            0,
            AccessKind::Release(Scope::Block),
            0b0001,
            |_| flag,
        ));
        // Block 1 acquires at block scope: rel in b1 / acq in b2 does NOT
        // contribute to synchronization order (§3.3.4).
        w.process_event(&access(
            2,
            AccessKind::Acquire(Scope::Block),
            0b0001,
            |_| flag,
        ));
        w.process_event(&access(2, AccessKind::Write, 0b0001, |_| data));
        assert_eq!(det.races().race_count(), 1);
    }

    #[test]
    fn global_scope_on_either_side_synchronizes_across_blocks() {
        for (rel_scope, acq_scope) in [
            (Scope::Global, Scope::Global),
            (Scope::Global, Scope::Block),
            (Scope::Block, Scope::Global),
        ] {
            let det = Detector::new(dims(), 64);
            let mut w = Worker::new(&det);
            let data = 0x1000u64;
            let flag = 0x2000u64;
            w.process_event(&access(0, AccessKind::Write, 0b0001, |_| data));
            w.process_event(&access(0, AccessKind::Release(rel_scope), 0b0001, |_| flag));
            w.process_event(&access(2, AccessKind::Acquire(acq_scope), 0b0001, |_| flag));
            w.process_event(&access(2, AccessKind::Write, 0b0001, |_| data));
            assert_eq!(
                det.races().race_count(),
                0,
                "rel {rel_scope:?} / acq {acq_scope:?} must synchronize"
            );
        }
    }

    #[test]
    fn standalone_atomics_do_not_race_with_each_other_or_synchronize() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        let ctr = 0x1000u64;
        w.process_event(&access(0, AccessKind::Atomic, 0b0001, |_| ctr));
        w.process_event(&access(2, AccessKind::Atomic, 0b0001, |_| ctr));
        assert_eq!(det.races().race_count(), 0, "atm/atm never races");
        // But atomics do not synchronize: a plain write after an atomic
        // read-modify-write from another block is still a race.
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| ctr));
        assert_eq!(det.races().race_count(), 1);
    }

    #[test]
    fn atomic_races_with_plain_write() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        let x = 0x1000u64;
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| x));
        w.process_event(&access(2, AccessKind::Atomic, 0b0001, |_| x));
        assert_eq!(
            det.races().race_count(),
            1,
            "INITATOM checks the plain write"
        );
    }

    #[test]
    fn branch_ordering_race_detected_and_classified() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        // Warp 0 diverges: lane 0 (then) writes x; lanes on else path
        // write x too — paths are concurrent.
        w.process_event(&Event::If {
            warp: 0,
            then_mask: 0b0001,
            else_mask: 0b1110,
        });
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| 0x1000));
        w.process_event(&Event::Else { warp: 0 });
        w.process_event(&access(0, AccessKind::Write, 0b0010, |_| 0x1000));
        assert_eq!(det.races().race_count(), 1);
        assert_eq!(det.races().reports()[0].class, RaceClass::Divergence);
    }

    #[test]
    fn accesses_after_fi_are_ordered_with_both_paths() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&Event::If {
            warp: 0,
            then_mask: 0b0001,
            else_mask: 0b1110,
        });
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| 0x1000));
        w.process_event(&Event::Else { warp: 0 });
        w.process_event(&access(0, AccessKind::Write, 0b0010, |_| 0x2000));
        w.process_event(&Event::Fi { warp: 0 });
        // After reconvergence, lane 3 writes both addresses: ordered.
        w.process_event(&access(0, AccessKind::Write, 0b1000, |_| 0x1000));
        w.process_event(&access(0, AccessKind::Write, 0b1000, |_| 0x2000));
        assert_eq!(det.races().race_count(), 0);
    }

    #[test]
    fn shared_memory_races_are_per_block() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        // Both blocks use shared offset 0 — distinct locations.
        w.process_event(&shared_access(0, AccessKind::Write, 0b0001, 0));
        w.process_event(&shared_access(2, AccessKind::Write, 0b0001, 0));
        assert_eq!(det.races().race_count(), 0);
        // Within block 0, two warps race on shared offset 0.
        w.process_event(&shared_access(1, AccessKind::Write, 0b0001, 0));
        assert_eq!(det.races().race_count(), 1);
        let r = &det.races().reports()[0];
        assert_eq!(r.space, MemSpace::Shared);
        assert_eq!(r.class, RaceClass::IntraBlock);
        assert_eq!(r.block, Some(0));
    }

    #[test]
    fn overlapping_sizes_race_at_byte_granularity() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        // 4-byte write at 0x1000; 1-byte write at 0x1002 from another block.
        w.process_event(&access(0, AccessKind::Write, 0b0001, |_| 0x1000));
        let mut addrs = [0u64; 32];
        addrs[0] = 0x1002;
        w.process_event(&Event::Access {
            warp: 2,
            kind: AccessKind::Write,
            space: MemSpace::Global,
            mask: 0b0001,
            addrs,
            size: 1,
        });
        assert_eq!(det.races().race_count(), 1);
    }

    #[test]
    fn race_reported_once_per_location() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        for _ in 0..5 {
            w.process_event(&access(0, AccessKind::Write, 0b0001, |_| 0x1000));
            w.process_event(&access(2, AccessKind::Write, 0b0001, |_| 0x1000));
        }
        assert_eq!(det.races().race_count(), 1);
    }

    #[test]
    fn format_census_tracks_divergence() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&access(0, AccessKind::Read, 0b1111, |l| {
            u64::from(l) * 4 + 0x1000
        }));
        w.process_event(&Event::If {
            warp: 0,
            then_mask: 0b0011,
            else_mask: 0b1100,
        });
        w.process_event(&access(0, AccessKind::Read, 0b0011, |l| {
            u64::from(l) * 4 + 0x2000
        }));
        let c = w.format_census();
        assert_eq!(c[0], 1, "first access converged");
        assert_eq!(c[1], 1, "second access diverged");
    }

    #[test]
    fn sync_location_count_tracked() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        w.process_event(&access(
            0,
            AccessKind::Release(Scope::Global),
            0b0001,
            |_| 0x2000,
        ));
        w.process_event(&access(
            0,
            AccessKind::Release(Scope::Global),
            0b0001,
            |_| 0x3000,
        ));
        w.process_event(&access(
            2,
            AccessKind::Acquire(Scope::Global),
            0b0001,
            |_| 0x2000,
        ));
        assert_eq!(det.sync_location_count(), 2);
    }

    /// An access running past `u64::MAX` checks only the bytes that
    /// exist: it races at the top of the address space and never touches
    /// the cells of address 0.
    #[test]
    fn accesses_stop_at_the_top_of_the_address_space() {
        let det = Detector::new(dims(), 64);
        let mut w = Worker::new(&det);
        let top = |warp| broadcast(warp, AccessKind::Write, 0b1, u64::MAX - 3, 8);
        w.process_event(&top(0));
        w.process_event(&broadcast(2, AccessKind::Write, 0b1, 0, 4));
        assert_eq!(det.races().race_count(), 0, "wrapped to 0");
        w.process_event(&top(2));
        let races = det.races().reports();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].addr, u64::MAX - 3);
    }

    /// One access of `size` bytes at `addr` by the lanes of `mask`, all
    /// at the same address.
    fn broadcast(warp: u64, kind: AccessKind, mask: u32, addr: u64, size: u8) -> Event {
        Event::Access {
            warp,
            kind,
            space: MemSpace::Global,
            mask,
            addrs: [addr; 32],
            size,
        }
    }

    /// Runs `f` over the `len` global-shadow cells starting at `addr`
    /// without cloning them (a clone would bump the reader sets' counts).
    fn with_cells<R>(
        det: &Detector,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[ShadowCell]) -> R,
    ) -> R {
        let slot = det.global_shadow.page_by_key(addr / SHADOW_PAGE_SIZE);
        let page = slot.lock();
        #[allow(clippy::cast_possible_truncation)] // page offsets < 4096
        let off = (addr % SHADOW_PAGE_SIZE) as usize;
        f(&page.cells[off..off + len])
    }

    fn reader_set(c: &ShadowCell) -> &Arc<ReaderSet> {
        match &c.read {
            ReadMeta::Shared(m) => m,
            other => panic!("expected a reader set, got {other:?}"),
        }
    }

    /// 8 warps × 32 lanes read one word: every cell of the word points at
    /// one reader-set allocation holding all 256 readers.
    #[test]
    fn broadcast_read_shares_one_reader_set_per_word() {
        let dims = GridDims::with_warp_size(1u32, 256u32, 32);
        for size in [4u8, 8] {
            let det = Detector::new(dims, 0);
            let mut w = Worker::new(&det);
            for warp in 0..8 {
                w.process_event(&broadcast(warp, AccessKind::Read, u32::MAX, 0x1000, size));
            }
            assert_eq!(det.races().race_count(), 0);
            with_cells(&det, 0x1000, size.into(), |cells| {
                let head = reader_set(&cells[0]);
                assert_eq!(head.len(), 256, "size {size}");
                assert_eq!(Arc::strong_count(head), cells.len(), "size {size}");
                for c in cells {
                    assert!(Arc::ptr_eq(head, reader_set(c)), "size {size}");
                }
            });
        }
    }

    /// A 1-byte read inside a shared 8-byte run copies the set before it
    /// updates it; a later write resets every cell to an epoch.
    #[test]
    fn narrow_read_copies_a_shared_set_and_a_write_resets_it() {
        // Block 0 holds warps 0..8; warp 8 is block 1's first warp.
        let dims = GridDims::with_warp_size(2u32, 256u32, 32);
        let det = Detector::new(dims, 0);
        let mut w = Worker::new(&det);
        for warp in 0..8 {
            w.process_event(&broadcast(warp, AccessKind::Read, u32::MAX, 0x1000, 8));
        }
        let before: ReaderSet = with_cells(&det, 0x1000, 8, |c| (**reader_set(&c[0])).clone());
        assert_eq!(before.len(), 256);

        w.process_event(&broadcast(8, AccessKind::Read, 0b1, 0x1003, 1));
        with_cells(&det, 0x1000, 8, |cells| {
            let narrow = reader_set(&cells[3]);
            assert_eq!(Arc::strong_count(narrow), 1);
            assert_eq!(narrow.len(), 257);
            assert!(
                narrow.get(256).is_some(),
                "block 1's lane 0 is global TID 256"
            );
            let old = reader_set(&cells[0]);
            assert_eq!(Arc::strong_count(old), 7);
            for (i, c) in cells.iter().enumerate().filter(|&(i, _)| i != 3) {
                assert!(Arc::ptr_eq(old, reader_set(c)), "cell {i}");
                assert_eq!(**reader_set(c), before, "cell {i} saw the copy's update");
            }
        });

        w.process_event(&broadcast(8, AccessKind::Write, 0b1, 0x1000, 8));
        assert_eq!(
            det.races().race_count(),
            1,
            "the write races with the readers"
        );
        with_cells(&det, 0x1000, 8, |cells| {
            for (i, c) in cells.iter().enumerate() {
                assert!(c.read.is_bottom(), "cell {i}: {:?}", c.read);
                assert_eq!(c.write.tid, 256, "cell {i}");
            }
        });
    }
}
