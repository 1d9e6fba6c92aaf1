//! The persistent detection engine.
//!
//! The paper's tool attaches to a CUDA *process*, not to a single kernel:
//! detection state lives as long as the device does. [`Engine`] is that
//! model. It owns
//!
//! * the simulated GPU and its memory,
//! * an [`EngineCore`] whose global shadow memory, synchronization-location
//!   map and clocks persist across kernel launches,
//! * a pool of long-lived detector worker threads (threaded mode) that are
//!   reused by every launch instead of being respawned,
//! * a cache of instrumented modules keyed by module identity, so checking
//!   the same kernel repeatedly pays for one rewrite,
//! * the device-lifetime host trace ([`HostOp`] records) and per-launch
//!   [`LaunchSummary`] telemetry.
//!
//! The CUDA-style host API (streams, `launch_async`, `memcpy_h2d`/`d2h`,
//! synchronization) lives in the [`device`](crate::StreamId) layer;
//! [`Engine::check`] runs one [`KernelRun`] on the default stream.

use crate::analysis::{Analysis, AnalysisStats, PipelineStats, StreamTelemetry, WorkerTelemetry};
use crate::cache::ModuleCache;
use crate::config::{BarracudaConfig, DetectionMode};
use crate::device::{StreamId, StreamState};
use crate::sink::{drain_queue, panic_message, PipelineSink, WorkerOutcome};
use crate::Error;
use barracuda_core::{
    Detector, Diagnostic, EngineCore, EngineFootprint, PathStats, RaceReport, RaceSink,
    RecycleAction, Worker,
};
use barracuda_instrument::{instrument_module, InstrumentStats};
use barracuda_ptx::ast::Module;
use barracuda_simt::{
    Gpu, GroupLaunch, LaunchStats, LoadedKernel, ParamValue, SchedPolicy, VecSink, MAX_GROUP_SLOTS,
};
use barracuda_trace::{CancelToken, FaultPlan, GridDims, HostOp, QueueSet, SyncOrder};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// One kernel launch to check.
#[derive(Debug, Clone, Copy)]
pub struct KernelRun<'a> {
    /// PTX module source.
    pub source: &'a str,
    /// Entry name.
    pub kernel: &'a str,
    /// Launch dimensions.
    pub dims: GridDims,
    /// Kernel arguments.
    pub params: &'a [ParamValue],
}

/// Per-launch summary of a device-lifetime run (the `--stats-json`
/// `launches` array).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSummary {
    /// Launch epoch assigned by the engine (launch order).
    pub epoch: u32,
    /// Stream the launch ran on.
    pub stream: u32,
    /// Kernel entry name.
    pub kernel: String,
    /// Distinct racing locations this launch exposed.
    pub races: usize,
    /// Device log records produced.
    pub records: u64,
    /// Events processed by the detector.
    pub events: u64,
}

/// A deferred launch awaiting its co-resident group
/// ([`BarracudaConfig::interleave`]): everything needed to
/// execute and detect it at the next flush. Its epoch, happens-before
/// edges and detector were fixed at registration time — deferral changes
/// *when* the kernel runs, never what it is ordered against.
struct PendingLaunch {
    stream: StreamId,
    epoch: u32,
    /// Detector frozen at registration; its registry snapshot is
    /// refreshed at flush time so it can classify races against launches
    /// registered after it.
    det: Detector,
    lk: LoadedKernel,
    dims: GridDims,
    params: Vec<ParamValue>,
    /// Group index of the same-stream predecessor, when that predecessor
    /// is still pending (same group ⇒ the scheduler orders them).
    dep: Option<usize>,
    /// Index of the launch's placeholder [`LaunchSummary`], filled in at
    /// flush time.
    summary_index: usize,
}

impl std::fmt::Debug for PendingLaunch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingLaunch")
            .field("stream", &self.stream)
            .field("epoch", &self.epoch)
            .field("dims", &self.dims)
            .field("dep", &self.dep)
            .finish_non_exhaustive()
    }
}

/// Per-slot tallies of one flushed co-resident group, plus the group-wide
/// census/path/pipeline aggregates.
#[derive(Debug, Default)]
struct GroupTallies {
    stats: Vec<LaunchStats>,
    records: Vec<u64>,
    events: Vec<u64>,
    dropped: Vec<u64>,
    census: [u64; 4],
    paths: PathStats,
    pipeline: PipelineStats,
}

/// Everything one flush produced: the drained races and diagnostics plus
/// the group tallies (slot-indexed in flush order).
#[derive(Debug, Default)]
struct FlushOutcome {
    races: Vec<RaceReport>,
    diagnostics: Vec<Diagnostic>,
    tallies: GroupTallies,
    detection_time: std::time::Duration,
    shadow_bytes: u64,
}

/// A streaming handle to an engine's race sink: polling
/// [`take_ready`](RaceStream::take_ready) while a launch is in flight
/// surfaces [`RaceReport`]s as detector workers retire records, before
/// the launch's verdict completes. The handle is `Send + Sync`; the
/// serving layer polls it from a sidecar thread while the engine thread
/// blocks in [`Engine::check`]. Streaming never changes a verdict — the
/// end-of-launch drain still returns every report.
#[derive(Debug, Clone)]
pub struct RaceStream {
    sink: Arc<RaceSink>,
}

impl RaceStream {
    /// Reports recorded since the previous call (see
    /// [`RaceSink::take_ready`]).
    pub fn take_ready(&self) -> Vec<RaceReport> {
        self.sink.take_ready()
    }
}

/// Work order for one pool worker: drain your queue for this launch
/// group — one detector per group slot, records dispatched by their
/// [`Record::slot`](barracuda_trace::Record::slot) byte.
struct LaunchCmd {
    dets: Vec<Arc<Detector>>,
    plan: Option<Arc<FaultPlan>>,
    order: Arc<SyncOrder>,
    done: Arc<AtomicBool>,
}

/// Long-lived detector workers, one per queue, reused across launches.
/// A worker that panics (injected or real) fails only the launch it was
/// serving: the panic is caught in its command loop and the thread stays
/// available for the next launch.
#[derive(Debug)]
struct WorkerPool {
    queues: Arc<QueueSet>,
    txs: Vec<mpsc::Sender<LaunchCmd>>,
    rx: mpsc::Receiver<(usize, WorkerOutcome)>,
    handles: Vec<std::thread::JoinHandle<()>>,
    // Cumulative queue counters as of the end of the previous group;
    // QueueSet counters are monotonic, so per-group figures are deltas.
    dropped: u64,
    stalls: u64,
}

impl WorkerPool {
    fn spawn(nqueues: usize, capacity: usize) -> Self {
        let queues = Arc::new(QueueSet::new(nqueues, capacity));
        let (out_tx, rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(nqueues);
        let mut handles = Vec::with_capacity(nqueues);
        for qi in 0..nqueues {
            let (tx, cmd_rx) = mpsc::channel::<LaunchCmd>();
            let out = out_tx.clone();
            let q = Arc::clone(&queues);
            handles.push(std::thread::spawn(move || {
                while let Ok(cmd) = cmd_rx.recv() {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        drain_queue(
                            qi,
                            nqueues,
                            &q,
                            &cmd.dets,
                            cmd.plan.as_deref(),
                            &cmd.done,
                            &cmd.order,
                        )
                    }));
                    let outcome = match r {
                        Ok(t) => WorkerOutcome::Finished(t),
                        Err(payload) => {
                            // A dead worker must not wedge the sync order
                            // for the survivors of this launch.
                            cmd.order.mark_dead(qi);
                            WorkerOutcome::Panicked(panic_message(payload.as_ref()))
                        }
                    };
                    if out.send((qi, outcome)).is_err() {
                        break;
                    }
                }
            }));
            txs.push(tx);
        }
        WorkerPool {
            queues,
            txs,
            rx,
            handles,
            dropped: 0,
            stalls: 0,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the command channels ends each worker's loop.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Ends a group for the pool's workers when dropped: sets `done` and
/// wakes every queue. Held across the simulation, so a panic on the
/// simulating thread still releases workers parked on an empty queue;
/// without it `WorkerPool::drop` would join them forever.
struct EndOfGroup<'a> {
    done: &'a AtomicBool,
    queues: &'a QueueSet,
}

impl Drop for EndOfGroup<'_> {
    fn drop(&mut self) {
        // SeqCst pairs with a parked worker's check of `done` (see
        // `Queue::wait`), so the wake below cannot be lost.
        self.done.store(true, Ordering::SeqCst);
        for q in self.queues.iter() {
            q.wake();
        }
    }
}

/// A persistent, device-lifetime detection engine (see the module docs).
#[derive(Debug)]
pub struct Engine {
    pub(crate) config: BarracudaConfig,
    pub(crate) gpu: Gpu,
    pub(crate) core: EngineCore,
    pub(crate) streams: Vec<StreamState>,
    pub(crate) host_trace: Vec<HostOp>,
    pub(crate) launches: Vec<LaunchSummary>,
    /// Instrumented-module cache; private by default, shareable across a
    /// pool of engines via [`Engine::with_shared_cache`].
    module_cache: Arc<ModuleCache>,
    cache_hits: u64,
    /// History entries discarded by the [`BarracudaConfig::history_cap`]
    /// ring: `(launch summaries, host ops)`.
    trimmed_history: (u64, u64),
    pool: Option<WorkerPool>,
    /// Cumulative per-stream pipeline telemetry, indexed by stream id.
    stream_stats: Vec<StreamTelemetry>,
    /// Deferred launches awaiting their co-resident group
    /// ([`BarracudaConfig::interleave`]); empty between launches when
    /// launches run eagerly.
    pending: Vec<PendingLaunch>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with default configuration.
    pub fn new() -> Self {
        Self::with_config(BarracudaConfig::default())
    }

    /// An engine with explicit configuration and a private module cache.
    pub fn with_config(config: BarracudaConfig) -> Self {
        Self::with_shared_cache(config, ModuleCache::shared())
    }

    /// An engine with explicit configuration whose instrumented-module
    /// cache is shared with other engines (a serving pool, or an engine
    /// rebuilt after a quarantine): checks of modules any sharer already
    /// instrumented skip the rewrite.
    pub fn with_shared_cache(config: BarracudaConfig, cache: Arc<ModuleCache>) -> Self {
        let core = EngineCore::new();
        let mut gpu = Gpu::new(config.gpu.clone());
        // One token spans the whole pipeline: the simulator polls it at
        // scheduler slice boundaries, detector workers between records.
        gpu.set_cancel_token(Some(core.cancel_token()));
        Engine {
            config,
            gpu,
            core,
            streams: vec![StreamState::default()], // the default stream
            host_trace: Vec::new(),
            launches: Vec::new(),
            module_cache: cache,
            cache_hits: 0,
            trimmed_history: (0, 0),
            pool: None,
            stream_stats: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The engine's module cache handle (hand it to
    /// [`Engine::with_shared_cache`] to let another engine share it).
    pub fn module_cache(&self) -> Arc<ModuleCache> {
        Arc::clone(&self.module_cache)
    }

    /// A clone of the engine's cancel token. Cancelling it makes the
    /// launch in flight (if any) stop cooperatively — the simulator at
    /// its next scheduler slice, the detector workers at their next
    /// record — and fail with [`Error::Sim`] /
    /// [`SimError::Cancelled`](barracuda_simt::SimError::Cancelled). The
    /// engine remains usable: each launch entry point re-arms the token,
    /// so a cancellation that lands after its launch completed is
    /// harmless.
    pub fn cancel_token(&self) -> CancelToken {
        self.core.cancel_token()
    }

    /// Replaces the fault-injection plan for subsequent launches (chaos
    /// testing; `None` restores lossless operation).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.config.fault_plan = plan;
    }

    /// Sets the step budget for subsequent launches (per-request
    /// deadlines; `u64::MAX` disables). [`config`](Engine::config) keeps
    /// the budget the engine was built with.
    pub fn set_max_steps(&mut self, max_steps: u64) {
        self.gpu.set_max_steps(max_steps);
    }

    /// The simulated device, for allocating and initializing buffers.
    /// Raw device access bypasses detection; use
    /// [`memcpy_h2d`](Engine::memcpy_h2d) /
    /// [`memcpy_d2h`](Engine::memcpy_d2h) for checked host transfers.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// The simulated device (read-only: result readback).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The active configuration. Its step budget is the one the engine
    /// was built with, whatever [`set_max_steps`](Engine::set_max_steps)
    /// set since.
    pub fn config(&self) -> &BarracudaConfig {
        &self.config
    }

    /// Per-launch summaries, in launch order.
    pub fn launches(&self) -> &[LaunchSummary] {
        &self.launches
    }

    /// The device-lifetime host trace (launches, memcpys, syncs).
    pub fn host_trace(&self) -> &[HostOp] {
        &self.host_trace
    }

    /// Distinct modules instrumented so far (across every engine sharing
    /// the cache).
    pub fn module_cache_len(&self) -> usize {
        self.module_cache.len()
    }

    /// Checks by *this* engine that reused a cached instrumentation
    /// instead of rewriting (hits against modules another sharer
    /// instrumented count too).
    pub fn module_cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// A streaming handle to the race sink: poll it from another thread
    /// while a check runs to surface races before the verdict completes.
    pub fn race_stream(&self) -> RaceStream {
        RaceStream {
            sink: self.core.races_arc(),
        }
    }

    /// Memory-footprint snapshot of the persistent detection state (see
    /// [`EngineFootprint`]); the epoch-recycling soak pins this flat
    /// over millions of launches.
    pub fn footprint(&self) -> EngineFootprint {
        self.core.footprint()
    }

    /// Cumulative launches across the engine's lifetime (generation
    /// resets rewind epochs, never this).
    pub fn total_launches(&self) -> u64 {
        self.core.total_launches()
    }

    /// History entries discarded by the
    /// [`history_cap`](BarracudaConfig::history_cap) ring:
    /// `(launch summaries, host ops)`.
    pub fn trimmed_history(&self) -> (u64, u64) {
        self.trimmed_history
    }

    /// Reclaims memory at a host synchronization point: epoch recycling
    /// plus history-cap trimming. Recycling compacts launch-registry
    /// entries and predecessor clocks proven dead by the host-view
    /// watermark and, once every epoch is dead, resets the generation,
    /// reusing the 32-bit TID space; this is what keeps a device-lifetime
    /// session holding millions of launches memory-bounded. Only sound
    /// with nothing deferred or in flight — the device layer calls it
    /// after joins, and it refuses while launches are pending.
    pub(crate) fn reclaim(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        if let Some(RecycleAction::Reset) = self.core.maybe_recycle() {
            // Epoch numbers restarted: per-stream last-launch edges
            // would alias the new generation's epochs. The ordering
            // they carried is moot — everything old is fully dead.
            for s in &mut self.streams {
                s.last_epoch = None;
            }
        }
        let cap = self.config.history_cap.max(2);
        if self.launches.len() > cap {
            let drop = self.launches.len() - cap / 2;
            self.launches.drain(..drop);
            self.trimmed_history.0 += drop as u64;
        }
        if self.host_trace.len() > cap {
            let drop = self.host_trace.len() - cap / 2;
            self.host_trace.drain(..drop);
            self.trimmed_history.1 += drop as u64;
        }
    }

    /// Runs the kernel natively (no instrumentation, no detection) and
    /// returns the launch statistics — the baseline for overhead
    /// measurements (Fig. 10). Native runs are invisible to the detector:
    /// they create no happens-before edges and no shadow state.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on parse or simulation failure.
    pub fn run_native(&mut self, run: &KernelRun<'_>) -> Result<LaunchStats, Error> {
        self.core.cancel_token().reset();
        let module = barracuda_ptx::parse(run.source)?;
        Ok(self.gpu.launch(&module, run.kernel, run.dims, run.params)?)
    }

    /// Instruments (or reuses the cached instrumentation of) the kernel,
    /// runs it on the default stream, and performs race detection. The
    /// default stream orders its launches, so repeated `check` calls on
    /// one engine never race with each other — but their shadow state
    /// persists, and a later launch on another stream can still race with
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on parse or simulation failure (including barrier
    /// divergence hangs and timeouts).
    pub fn check(&mut self, run: &KernelRun<'_>) -> Result<Analysis, Error> {
        let analysis = self.launch_async(StreamId::DEFAULT, run)?;
        self.flush_for_check(analysis)
    }

    /// Like [`Engine::check`] for an already-parsed module. The cache key
    /// is the module's printed PTX (its identity), so an AST checked twice
    /// is still instrumented once.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on simulation failure.
    pub fn check_module(
        &mut self,
        module: &Module,
        kernel: &str,
        dims: GridDims,
        params: &[ParamValue],
    ) -> Result<Analysis, Error> {
        let key = hash_key(1, &barracuda_ptx::printer::print_module(module));
        let (lk, istats) =
            self.cached_kernel(key, |opts| Ok(instrument_module(module, opts)), kernel)?;
        let analysis = self.run_launch(StreamId::DEFAULT, kernel, &lk, istats, dims, params)?;
        self.flush_for_check(analysis)
    }

    /// Warp-size portability sweep: checks the kernel under several
    /// simulated warp sizes and returns each analysis.
    ///
    /// The paper notes that portable CUDA code should not assume a warp
    /// size and that BARRACUDA "could simulate the behavior of
    /// smaller/larger warps to find additional latent bugs" (§3.1) — this
    /// method implements that extension. Warp-synchronous code that is
    /// race-free at the hardware warp size often races at a smaller one,
    /// because lockstep ordering no longer covers the accesses. The
    /// module is instrumented once for the whole sweep.
    ///
    /// # Errors
    ///
    /// Returns the first simulation or parse failure.
    pub fn check_warp_sizes(
        &mut self,
        run: &KernelRun<'_>,
        warp_sizes: &[u32],
    ) -> Result<Vec<(u32, Analysis)>, Error> {
        warp_sizes
            .iter()
            .map(|&ws| {
                let dims = GridDims::with_warp_size(run.dims.grid, run.dims.block, ws);
                let analysis = self.check(&KernelRun { dims, ..*run })?;
                Ok((ws, analysis))
            })
            .collect()
    }

    /// Resolves `kernel` in the module cached under `key`, instrumenting
    /// via `build` on a miss. Returns the loaded kernel (cheap clone) and
    /// the instrumentation stats.
    pub(crate) fn cached_kernel(
        &mut self,
        key: u64,
        build: impl FnOnce(
            &barracuda_instrument::InstrumentOptions,
        ) -> Result<(Module, InstrumentStats), Error>,
        kernel: &str,
    ) -> Result<(LoadedKernel, InstrumentStats), Error> {
        let opts = &self.config.instrument;
        let (lk, stats, hit) = self.module_cache.kernel(key, || build(opts), kernel)?;
        if hit {
            self.cache_hits += 1;
        }
        Ok((lk, stats))
    }

    /// The instrumented-run pipeline shared by every launch entry point:
    /// registers a launch epoch (ordered after `stream`'s previous launch)
    /// into the pending co-resident group. Eager
    /// ([`interleave`](BarracudaConfig::interleave) `None`), the group of
    /// one flushes at once — execute with logging, detect, drain
    /// the races the launch exposed, which may involve state left by
    /// *earlier* launches (inter-kernel races) or host operations
    /// (host-device races) — and the launch's full analysis is returned.
    ///
    /// Registration fixes the launch's stream order, [`LaunchSummary`] and
    /// [`HostOp::LaunchKernel`] entry, so a launch that fails (barrier
    /// divergence, timeout, cancellation) keeps all three: the next launch
    /// on its stream is ordered after it, and never races with whatever
    /// records the failed launch left in the persistent shadow.
    pub(crate) fn run_launch(
        &mut self,
        stream: StreamId,
        kernel: &str,
        lk: &LoadedKernel,
        istats: InstrumentStats,
        dims: GridDims,
        params: &[ParamValue],
    ) -> Result<Analysis, Error> {
        let deferred = self.defer_launch(stream, kernel, lk, istats, dims, params)?;
        if self.config.interleave.is_some() {
            return Ok(deferred);
        }
        self.flush_last_launch(deferred)
    }

    /// Defers the launch into the pending co-resident group
    /// ([`BarracudaConfig::interleave`]): the epoch, its
    /// happens-before edges and its detector are fixed *now*, execution
    /// happens at the next flush. The returned analysis is a stub (races
    /// surface at the synchronization point that flushes the group) —
    /// unless the group was full, in which case the forced flush's races
    /// ride along.
    fn defer_launch(
        &mut self,
        stream: StreamId,
        kernel: &str,
        lk: &LoadedKernel,
        istats: InstrumentStats,
        dims: GridDims,
        params: &[ParamValue],
    ) -> Result<Analysis, Error> {
        assert!(stream.index() < self.streams.len(), "unknown stream");
        // The record slot byte caps co-residency.
        let (mut races, mut diagnostics) = (Vec::new(), Vec::new());
        if self.pending.len() >= MAX_GROUP_SLOTS {
            let out = self.flush_pending_inner()?;
            races = out.races;
            diagnostics = out.diagnostics;
        }
        let shared_size = lk.kernel.shared_size();
        let pred = self.streams[stream.index()].last_epoch;
        let det = self.core.begin_launch(dims, shared_size, pred);
        let epoch = det.epoch();
        // Same-stream order inside one group is the scheduler's job; a
        // predecessor that already flushed needs no gate (it has run).
        let dep = pred.and_then(|p| self.pending.iter().position(|pl| pl.epoch == p));
        self.streams[stream.index()].last_epoch = Some(epoch);
        self.host_trace.push(HostOp::LaunchKernel {
            stream: stream.0,
            epoch,
        });
        let summary_index = self.launches.len();
        self.launches.push(LaunchSummary {
            epoch,
            stream: stream.0,
            kernel: kernel.to_string(),
            races: 0,
            records: 0,
            events: 0,
        });
        self.pending.push(PendingLaunch {
            stream,
            epoch,
            det,
            lk: lk.clone(),
            dims,
            params: params.to_vec(),
            dep,
            summary_index,
        });
        let stats = AnalysisStats {
            instrument: istats,
            ..AnalysisStats::default()
        };
        Ok(Analysis::new(races, diagnostics, stats))
    }

    /// Executes every deferred launch as one co-resident group under the
    /// configured [`interleave`](BarracudaConfig::interleave) policy and
    /// returns the races the group exposed. A no-op returning no races
    /// with nothing pending (always so for eager launches: every launch
    /// flushed its group of one at once). The synchronization entry points
    /// ([`memcpy_h2d`](Engine::memcpy_h2d),
    /// [`stream_synchronize`](Engine::stream_synchronize),
    /// [`device_synchronize`](Engine::device_synchronize)) call this
    /// before joining, so a barrier on *any* stream drains *all* pending
    /// work — exactly the co-residency window real hardware would have
    /// closed by then.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the group's simulation fails (barrier
    /// divergence, timeout, cancellation); the pending set is consumed
    /// either way.
    pub fn flush_pending(&mut self) -> Result<Vec<RaceReport>, Error> {
        Ok(self.flush_pending_inner()?.races)
    }

    /// Launches deferred and not yet flushed (always 0 when interleaving
    /// is off).
    pub fn pending_launches(&self) -> usize {
        self.pending.len()
    }

    /// `check`/`check_module` epilogue: in interleave mode, flush the
    /// group the checked launch just joined (otherwise
    /// [`run_launch`](Engine::run_launch) already has).
    fn flush_for_check(&mut self, deferred: Analysis) -> Result<Analysis, Error> {
        if self.config.interleave.is_none() {
            return Ok(deferred);
        }
        self.flush_last_launch(deferred)
    }

    /// Flushes the pending group and rebuilds a full analysis for its
    /// newest launch (the one `deferred` registered) from the group
    /// tallies, so a one-shot check reads the same in every mode apart
    /// from scheduling. Races and diagnostics `deferred` already carries
    /// (a full group's forced flush in [`defer_launch`](Engine::defer_launch))
    /// come first.
    fn flush_last_launch(&mut self, deferred: Analysis) -> Result<Analysis, Error> {
        let slot = self
            .pending
            .len()
            .checked_sub(1)
            .expect("a launch was just deferred");
        let (mut races, mut diagnostics, stub) = deferred.into_parts();
        let out = self.flush_pending_inner()?;
        races.extend(out.races);
        diagnostics.extend(out.diagnostics);
        let stats = AnalysisStats {
            instrument: stub.instrument,
            launch: out.tallies.stats[slot],
            records: out.tallies.records[slot],
            events: out.tallies.events[slot],
            format_census: out.tallies.census,
            sync_locations: self.core.sync_location_count(),
            shadow_pages: self.core.shadow_page_count(),
            shadow_bytes: out.shadow_bytes,
            shadow_paths: out.tallies.paths,
            detection_time: out.detection_time,
            pipeline: out.tallies.pipeline,
        };
        Ok(Analysis::new(races, diagnostics, stats))
    }

    /// The group flush pipeline: refresh registries, execute co-resident,
    /// demultiplex detection by slot, attribute telemetry and races back
    /// to the individual launches.
    fn flush_pending_inner(&mut self) -> Result<FlushOutcome, Error> {
        if self.pending.is_empty() {
            return Ok(FlushOutcome::default());
        }
        let pending = std::mem::take(&mut self.pending);
        // Re-arm the cancel token once for the whole group.
        self.core.cancel_token().reset();
        let start = Instant::now();
        let n = pending.len();
        let mut dets: Vec<Arc<Detector>> = Vec::with_capacity(n);
        let mut meta: Vec<(StreamId, u32, usize)> = Vec::with_capacity(n);
        let mut bodies: Vec<(LoadedKernel, GridDims, Vec<ParamValue>, Option<usize>)> =
            Vec::with_capacity(n);
        for p in pending {
            let mut det = p.det;
            // The registry snapshot frozen at registration does not know
            // launches registered after it; refresh so races against a
            // younger sibling still classify by epoch.
            self.core.refresh_registry(&mut det);
            dets.push(Arc::new(det));
            meta.push((p.stream, p.epoch, p.summary_index));
            bodies.push((p.lk, p.dims, p.params, p.dep));
        }
        let gls: Vec<GroupLaunch<'_>> = bodies
            .iter()
            .map(|(lk, dims, params, dep)| GroupLaunch {
                lk,
                dims: *dims,
                params,
                dep: *dep,
            })
            .collect();

        // An eager group holds one launch, which no policy reorders.
        let policy = self.config.interleave.unwrap_or(SchedPolicy::RoundRobin);
        let mut degradation: Vec<Diagnostic> = Vec::new();
        let result = match self.config.mode {
            DetectionMode::Synchronous => self.run_group_sync(&gls, &dets, policy),
            DetectionMode::Threaded => {
                self.run_group_threaded(&gls, &dets, policy, &mut degradation)
            }
        };
        // The group's epochs are over: shared-memory sync state dies with
        // them.
        self.core.finish_launch();
        let mut tallies = match result {
            Ok(t) => t,
            Err(e) => {
                // Partial reports of a failed group must not leak into
                // the next operation's analysis.
                let _ = self.core.drain();
                return Err(e);
            }
        };

        // Per-stream telemetry, attributed slot-by-slot so interleaved
        // epochs do not cross-pollute: records and drops carry the
        // emitting launch's slot byte. Stall cycles and queue depth are
        // properties of the *shared* queues: they are charged to a stream
        // only when the whole group ran on it (always so for a group of
        // one), and otherwise stay on the group's pipeline stats.
        for &(stream, _, _) in &meta {
            let si = stream.index();
            if self.stream_stats.len() <= si {
                self.stream_stats
                    .resize_with(si + 1, StreamTelemetry::default);
            }
        }
        for (slot, &(stream, _, _)) in meta.iter().enumerate() {
            let ss = &mut self.stream_stats[stream.index()];
            ss.stream = stream.0;
            ss.launches += 1;
            ss.records += tallies.records[slot];
            ss.dropped += tallies.dropped[slot];
        }
        let stream = meta[0].0;
        if meta.iter().all(|&(s, _, _)| s == stream) {
            let ss = &mut self.stream_stats[stream.index()];
            ss.stall_cycles += tallies.pipeline.producer_stall_cycles;
            ss.peak_depth = ss.peak_depth.max(tallies.pipeline.queue_high_water);
        }
        tallies.pipeline.per_stream = self.stream_stats.clone();

        let (races, mut diagnostics) = self.core.drain();
        diagnostics.append(&mut degradation);
        // Attribute each race to the slot whose epoch performed the
        // detecting access (host-side detections attribute to no slot).
        let mut race_counts = vec![0usize; n];
        for r in &races {
            if let Some(e) = self.core.epoch_of_tid(r.current.0 .0) {
                if let Some(slot) = meta.iter().position(|&(_, ep, _)| ep == e) {
                    race_counts[slot] += 1;
                }
            }
        }
        for (slot, &(_, _, sidx)) in meta.iter().enumerate() {
            let s = &mut self.launches[sidx];
            s.races = race_counts[slot];
            s.records = tallies.records[slot];
            s.events = tallies.events[slot];
        }
        let shadow_bytes = dets[0].shadow_bytes();
        Ok(FlushOutcome {
            races,
            diagnostics,
            tallies,
            detection_time: start.elapsed(),
            shadow_bytes,
        })
    }

    /// Synchronous group path: run co-resident into one record vector,
    /// then demultiplex to per-slot workers in emission order — the
    /// interleaving is preserved exactly as the scheduler produced it.
    fn run_group_sync(
        &mut self,
        gls: &[GroupLaunch<'_>],
        dets: &[Arc<Detector>],
        policy: SchedPolicy,
    ) -> Result<GroupTallies, Error> {
        let sink = VecSink::new();
        let outcome = self.gpu.launch_group(gls, policy, Some(&sink))?;
        let recs = sink.take();
        let mut workers: Vec<Worker<'_>> = dets.iter().map(|d| Worker::new(d)).collect();
        for r in &recs {
            workers[usize::from(r.slot)].process_record(r);
        }
        let mut tallies = GroupTallies {
            stats: outcome.stats,
            records: outcome.records,
            dropped: vec![0; dets.len()],
            ..GroupTallies::default()
        };
        let mut per_worker = Vec::with_capacity(dets.len());
        for (si, w) in workers.iter().enumerate() {
            let events = w.event_count();
            tallies.events.push(events);
            let c = w.format_census();
            for (acc, n) in tallies.census.iter_mut().zip(c) {
                *acc += n;
            }
            tallies.paths.merge(&w.path_stats());
            per_worker.push(WorkerTelemetry {
                worker: si,
                events,
                format_census: c,
                corrupt_records: 0,
                panicked: false,
            });
        }
        tallies.pipeline = PipelineStats {
            queues: 0,
            per_worker,
            ..PipelineStats::default()
        };
        Ok(tallies)
    }

    /// Threaded group path: the persistent worker pool drains the shared
    /// queues while the co-resident simulation produces into them; every
    /// worker demultiplexes records to per-slot detectors by the slot
    /// byte.
    fn run_group_threaded(
        &mut self,
        gls: &[GroupLaunch<'_>],
        dets: &[Arc<Detector>],
        policy: SchedPolicy,
        degradation: &mut Vec<Diagnostic>,
    ) -> Result<GroupTallies, Error> {
        let nslots = dets.len();
        let nqueues = self.config.num_queues();
        if self.pool.is_none() {
            self.pool = Some(WorkerPool::spawn(nqueues, self.config.queue_capacity));
        }
        let plan = self.config.fault_plan.clone().map(Arc::new);
        let order = Arc::new(SyncOrder::new(nqueues));
        let done = Arc::new(AtomicBool::new(false));
        let queues = {
            let pool = self.pool.as_ref().expect("spawned above");
            for tx in &pool.txs {
                tx.send(LaunchCmd {
                    dets: dets.to_vec(),
                    plan: plan.clone(),
                    order: Arc::clone(&order),
                    done: Arc::clone(&done),
                })
                .expect("pool worker alive");
            }
            Arc::clone(&pool.queues)
        };
        let sink = PipelineSink::new(
            &queues,
            plan.as_deref(),
            self.config.push_stall_budget,
            &order,
            dets[0].epoch(),
        );
        let end_of_group = EndOfGroup {
            done: &done,
            queues: &queues,
        };
        let launch_res = self.gpu.launch_group(gls, policy, Some(&sink));
        drop(end_of_group);
        let injected = sink.injected_drops();
        let dropped_per_slot: Vec<u64> = (0..nslots)
            .map(|si| sink.dropped_for_slot(si as u8))
            .collect();

        // Collect exactly one outcome per worker, indexed by queue.
        let pool = self.pool.as_mut().expect("spawned above");
        let mut slots: Vec<Option<WorkerOutcome>> = (0..nqueues).map(|_| None).collect();
        for _ in 0..nqueues {
            let (qi, outcome) = pool.rx.recv().expect("pool worker alive");
            slots[qi] = Some(outcome);
        }
        // Purge anything a dead worker left behind so the next group
        // starts with empty queues.
        for q in pool.queues.iter() {
            while q.try_pop().is_some() {}
        }
        // Per-group queue telemetry: deltas of the monotonic counters.
        let dropped_now = pool.queues.total_dropped();
        let stalls_now = pool.queues.total_stall_cycles();
        let shed = dropped_now - pool.dropped;
        let stall_cycles = stalls_now - pool.stalls;
        pool.dropped = dropped_now;
        pool.stalls = stalls_now;
        let high_water = pool.queues.max_high_water();
        let outcome = launch_res?;

        // Merge worker outcomes deterministically, in queue order.
        let mut events_per_slot = vec![0u64; nslots];
        let mut census = [0u64; 4];
        let mut corrupt = 0u64;
        let mut paths = PathStats::default();
        let mut per_worker = Vec::with_capacity(nqueues);
        for (qi, outcome) in slots.into_iter().enumerate() {
            match outcome.expect("one outcome per worker") {
                WorkerOutcome::Finished(t) => {
                    for (si, e) in t.slot_events.iter().enumerate() {
                        events_per_slot[si] += e;
                    }
                    for (c, n) in census.iter_mut().zip(t.census) {
                        *c += n;
                    }
                    corrupt += t.corrupt;
                    paths.merge(&t.paths);
                    per_worker.push(WorkerTelemetry {
                        worker: qi,
                        events: t.events,
                        format_census: t.census,
                        corrupt_records: t.corrupt,
                        panicked: false,
                    });
                }
                WorkerOutcome::Panicked(message) => {
                    degradation.push(Diagnostic::WorkerPanic {
                        worker: qi as u64,
                        message,
                    });
                    per_worker.push(WorkerTelemetry {
                        worker: qi,
                        panicked: true,
                        ..WorkerTelemetry::default()
                    });
                }
            }
        }
        let dropped = shed + injected;
        if dropped > 0 || corrupt > 0 {
            degradation.push(Diagnostic::LostRecords { dropped, corrupt });
        }
        let pipeline = PipelineStats {
            queues: nqueues,
            queue_high_water: high_water,
            producer_stall_cycles: stall_cycles,
            records_dropped: dropped,
            records_corrupt: corrupt,
            worker_panics: degradation
                .iter()
                .filter(|d| matches!(d, Diagnostic::WorkerPanic { .. }))
                .count() as u64,
            per_worker,
            // Filled by `flush_pending_inner` once stream tallies update.
            per_stream: Vec::new(),
        };
        Ok(GroupTallies {
            stats: outcome.stats,
            // Device-side per-slot emission counts: what the logger
            // produced, whether or not it survived the trip to a worker.
            records: outcome.records,
            events: events_per_slot,
            dropped: dropped_per_slot,
            census,
            paths,
            pipeline,
        })
    }
}

/// Cache key: a tagged hash (text sources and printed ASTs share the map
/// but can never collide by construction).
pub(crate) fn hash_key(tag: u8, text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    tag.hash(&mut h);
    text.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A panic on the simulating thread must still end the group: the
    /// guard's drop wakes the workers parked on their empty queues, so
    /// dropping the pool joins them instead of hanging.
    #[test]
    fn end_of_group_releases_parked_workers_when_the_simulation_panics() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let pool = WorkerPool::spawn(2, 64);
            let det = Arc::new(Detector::new(GridDims::new(1u32, 32u32), 0));
            let order = Arc::new(SyncOrder::new(2));
            let done = Arc::new(AtomicBool::new(false));
            for tx in &pool.txs {
                tx.send(LaunchCmd {
                    dets: vec![Arc::clone(&det)],
                    plan: None,
                    order: Arc::clone(&order),
                    done: Arc::clone(&done),
                })
                .expect("pool worker alive");
            }
            let r = catch_unwind(AssertUnwindSafe(|| {
                let _end = EndOfGroup {
                    done: &done,
                    queues: &pool.queues,
                };
                // resume_unwind skips the panic hook's backtrace.
                std::panic::resume_unwind(Box::new("simulator panic"));
            }));
            assert!(r.is_err());
            drop(pool);
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("dropping the pool did not join its parked workers");
    }
}
