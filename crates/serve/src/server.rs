//! The detection server: N sessions multiplexed over a bounded pool of
//! persistent [`Engine`]s, with streaming verdicts, admission control,
//! per-request deadlines, crash quarantine and graceful shutdown.
//!
//! # Architecture
//!
//! A [`Session`] is a *logical* client context: its own admission queue,
//! its own launch-id replay cache, and — while it is hot — its own
//! engine. Sessions no longer own worker threads; instead a fixed pool
//! of [`ServerConfig::pool_workers`] threads runs jobs from whichever
//! sessions are ready, round-robin: a session that finishes a job goes
//! to the back of the ready queue before its next one runs, so a
//! session with a deep backlog cannot head-of-line-block the others.
//! `N sessions ≫ M workers` is the normal regime.
//!
//! # Engine residency and eviction soundness
//!
//! At most [`ServerConfig::max_resident_engines`] engines stay warm.
//! A cold session's first job builds its engine; when the cap is hit,
//! the *least-recently-used parked* engine is evicted (engines checked
//! out by running workers are never evicted) and its session rebuilds
//! lazily on its next job. Eviction is **verdict-neutral**: repeated
//! checks on one engine are ordered by the default stream (they can
//! never race with each other), every request allocates fresh device
//! buffers, and the terminal-verdict replay cache lives in the session,
//! not the engine — so the only thing an eviction can discard is cache
//! warmth, and even that is softened by the process-wide shared
//! [`ModuleCache`]: a rebuilt engine skips straight to the cached
//! instrumentation of every module the fleet has ever seen.
//!
//! # Streaming verdicts and event ordering
//!
//! A request with `stream: true` receives zero or more
//! [`Response::RaceEvent`] frames *while the launch runs* — a sidecar
//! poller drains the engine's race sink incrementally — followed by
//! exactly one [`Response::LaunchDone`] terminal frame. Ordering
//! guarantees: event `seq` is monotonic within a launch attempt; every
//! event is sent before the terminal frame; and the terminal body
//! carries the **complete** report set, so events are a preview, never
//! load-bearing. Requests may carry a client-assigned `launch_id`; the
//! session caches the terminal per id, so a client that lost its stream
//! resubmits idempotently and gets the cached verdict instead of a
//! re-run (a duplicate of a launch still in flight is `Rejected` — by
//! the time the client retries, the verdict is cached).
//!
//! # Deadlines, quarantine, shutdown
//!
//! A single **watchdog** thread enforces wall-clock deadlines by firing
//! cancel tokens; cancellation is cooperative and the engine survives.
//! A panic that escapes the engine **quarantines** it: the worker
//! catches the unwind, rebuilds the engine from the shared module cache
//! and answers [`Response::Degraded`] — on a streamed request the
//! terminal is `LaunchDone(Degraded)`, so a partial stream can never
//! read as success. [`Server::shutdown`] refuses new work, lets
//! in-flight jobs complete, answers queued-but-unstarted requests with
//! [`Response::ShuttingDown`] and counts them in
//! [`ServerStats::dropped_on_shutdown`] — never silently discarded.

use crate::proto::{CheckRequest, DoneBody, Response};
use barracuda::{panic_message, BarracudaConfig, Engine, Error, KernelRun, ModuleCache, SimError};
use barracuda_simt::ArgSpec;
use barracuda_trace::{CancelToken, GridDims};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Terminal verdicts remembered per session for launch-id replay.
const REPLAY_CAP: usize = 64;

/// Cadence of the streaming sidecar's race-sink polls.
const STREAM_POLL: Duration = Duration::from_micros(200);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine configuration used by every session (each session gets its
    /// own engine built from this template).
    pub engine: BarracudaConfig,
    /// Bounded depth of each session's admission queue; a full queue
    /// refuses requests with [`Response::Rejected`]. The job a worker is
    /// currently running does not occupy a queue slot.
    pub queue_depth: usize,
    /// The retry hint returned with a rejection, in milliseconds.
    pub retry_after_ms: u64,
    /// Wall-clock deadline applied when a request does not set one
    /// (`None` = no default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Server-level chaos hook: a request for this kernel name panics
    /// inside the worker before launching, exercising the quarantine
    /// path deterministically (the serving-layer counterpart of
    /// [`FaultPlan`](barracuda::FaultPlan)'s worker panics, which the engine contains itself).
    pub chaos_panic_kernel: Option<String>,
    /// Pool worker threads running session jobs (at least 1). Defaults
    /// to the machine's available parallelism so a fleet of clients
    /// saturates the cores, exactly like the old engine-per-session
    /// design — shrink it to trade tail latency for memory.
    pub pool_workers: usize,
    /// Warm engines kept resident across the whole server (at least 1).
    /// Beyond the cap the least-recently-used *parked* engine is
    /// evicted; engines checked out by running workers are never
    /// evicted, so up to `pool_workers` engines may transiently exist
    /// while colder ones are being rebuilt.
    pub max_resident_engines: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        ServerConfig {
            engine: BarracudaConfig::default(),
            queue_depth: 4,
            retry_after_ms: 10,
            default_deadline_ms: None,
            chaos_panic_kernel: None,
            pool_workers: cores,
            max_resident_engines: cores,
        }
    }
}

/// A snapshot of the server's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions created over the server's lifetime.
    pub sessions: u64,
    /// Requests admitted to a session queue.
    pub accepted: u64,
    /// Requests that completed with a verdict (including degraded ones).
    pub completed: u64,
    /// Requests refused by admission control (queue full, or a duplicate
    /// of a launch still in flight).
    pub rejected: u64,
    /// Requests that timed out (step budget or wall-clock deadline).
    pub timeouts: u64,
    /// Engines quarantined and rebuilt after a panic.
    pub quarantines: u64,
    /// Admitted requests answered `ShuttingDown` during shutdown.
    pub dropped_on_shutdown: u64,
    /// Deadlines the watchdog actually fired (a deadline that resolves
    /// after its launch completed is disarmed, not fired).
    pub deadlines_fired: u64,
    /// Warm parked engines evicted to make room under
    /// [`ServerConfig::max_resident_engines`].
    pub evictions: u64,
    /// Engines built (cold sessions, rebuilds after eviction; quarantine
    /// rebuilds count under [`ServerStats::quarantines`] instead).
    pub engine_builds: u64,
    /// [`Response::RaceEvent`] frames streamed to clients.
    pub streamed_events: u64,
    /// Requests answered from the launch-id replay cache without
    /// re-running the launch.
    pub replays: u64,
}

#[derive(Debug, Default)]
struct Counters {
    sessions: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    quarantines: AtomicU64,
    dropped_on_shutdown: AtomicU64,
    evictions: AtomicU64,
    engine_builds: AtomicU64,
    streamed_events: AtomicU64,
    replays: AtomicU64,
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

#[derive(Debug)]
struct WatchState {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    armed: HashMap<u64, CancelToken>,
    next_id: u64,
    fired: u64,
    shutdown: bool,
}

/// The deadline watchdog: one thread, a min-heap of deadlines, and the
/// cancel tokens to fire when they pass.
#[derive(Debug)]
struct Watchdog {
    state: Arc<(Mutex<WatchState>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn spawn() -> Self {
        let state = Arc::new((
            Mutex::new(WatchState {
                heap: BinaryHeap::new(),
                armed: HashMap::new(),
                next_id: 0,
                fired: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let st = Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            let (lock, cv) = &*st;
            let mut g = lock.lock().expect("watchdog state");
            loop {
                if g.shutdown {
                    break;
                }
                let due = g.heap.peek().map(|Reverse((t, id))| (*t, *id));
                match due {
                    None => g = cv.wait(g).expect("watchdog state"),
                    Some((t, id)) => {
                        let now = Instant::now();
                        if t <= now {
                            g.heap.pop();
                            // Disarmed entries stay in the heap as
                            // tombstones; only armed ones fire.
                            if let Some(tok) = g.armed.remove(&id) {
                                tok.cancel();
                                g.fired += 1;
                            }
                        } else {
                            let (ng, _) = cv.wait_timeout(g, t - now).expect("watchdog state");
                            g = ng;
                        }
                    }
                }
            }
        });
        Watchdog {
            state,
            handle: Some(handle),
        }
    }

    /// Arms a deadline `after` from now for `token`; returns the guard
    /// id to pass to [`Watchdog::disarm`].
    fn arm(&self, after: Duration, token: CancelToken) -> u64 {
        let (lock, cv) = &*self.state;
        let mut g = lock.lock().expect("watchdog state");
        let id = g.next_id;
        g.next_id += 1;
        g.heap.push(Reverse((Instant::now() + after, id)));
        g.armed.insert(id, token);
        cv.notify_one();
        id
    }

    /// Disarms a deadline; returns true when it had not fired yet.
    fn disarm(&self, id: u64) -> bool {
        let (lock, _) = &*self.state;
        lock.lock()
            .expect("watchdog state")
            .armed
            .remove(&id)
            .is_some()
    }

    fn fired(&self) -> u64 {
        let (lock, _) = &*self.state;
        lock.lock().expect("watchdog state").fired
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.state;
        lock.lock().expect("watchdog state").shutdown = true;
        cv.notify_one();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Pool state
// ---------------------------------------------------------------------

struct Job {
    req: Box<CheckRequest>,
    reply: mpsc::Sender<Response>,
}

/// Bounded map of terminal verdicts by launch id, FIFO-evicted.
#[derive(Default)]
struct ReplayCache {
    map: HashMap<u64, Response>,
    order: VecDeque<u64>,
}

impl ReplayCache {
    fn insert(&mut self, id: u64, resp: Response) {
        if self.map.insert(id, resp).is_none() {
            self.order.push_back(id);
            while self.order.len() > REPLAY_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn get(&self, id: u64) -> Option<&Response> {
        self.map.get(&id)
    }
}

/// One session's pool-side state. `running`/`enqueued` are mutually
/// exclusive with each other being the path into a worker: a session
/// runs at most one job at a time (it has at most one engine).
#[derive(Default)]
struct SessionEntry {
    queue: VecDeque<Job>,
    engine: Option<Box<Engine>>,
    running: bool,
    enqueued: bool,
    inflight: Option<u64>,
    completed: ReplayCache,
}

#[derive(Default)]
struct PoolState {
    sessions: HashMap<u64, SessionEntry>,
    /// Sessions with work, in round-robin order.
    ready: VecDeque<u64>,
    /// Sessions with a *parked* warm engine, least-recently-used first.
    lru: VecDeque<u64>,
    /// Engines in existence (parked + checked out).
    resident: usize,
    next_session: u64,
    shutdown: bool,
}

struct Shared {
    config: ServerConfig,
    shutting_down: AtomicBool,
    stats: Counters,
    cache: Arc<ModuleCache>,
    pool: Mutex<PoolState>,
    cv: Condvar,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

/// A client handle to one logical session (its own admission queue and
/// replay cache; an engine while hot). Cheap to clone; all clones share
/// the session.
#[derive(Debug, Clone)]
pub struct Session {
    id: u64,
    shared: Arc<Shared>,
}

impl Session {
    /// Submits a request and blocks for its terminal verdict, discarding
    /// streamed events. Admission is non-blocking: a full session queue
    /// refuses immediately with [`Response::Rejected`] and a retry hint
    /// rather than stalling the caller (clients with a retry policy back
    /// off and resubmit — see [`crate::client::Client`]).
    pub fn submit(&self, req: CheckRequest) -> Response {
        self.submit_streamed(req, &mut |_| {})
    }

    /// Submits a request; `on_event` observes each non-terminal frame
    /// ([`Response::RaceEvent`]) as it is produced, and the terminal
    /// frame is returned. Non-streamed requests produce no events.
    pub fn submit_streamed(
        &self,
        req: CheckRequest,
        on_event: &mut dyn FnMut(&Response),
    ) -> Response {
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Response::ShuttingDown;
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut g = self.shared.pool.lock().expect("pool state");
            if g.shutdown {
                return Response::ShuttingDown;
            }
            let Some(entry) = g.sessions.get_mut(&self.id) else {
                return Response::ShuttingDown;
            };
            if let Some(id) = req.launch_id {
                // Idempotent replay: a resubmitted launch id gets the
                // cached terminal; a duplicate of one still in flight is
                // refused (retry later — the verdict will be cached).
                if let Some(done) = entry.completed.get(id) {
                    self.shared.stats.replays.fetch_add(1, Ordering::Relaxed);
                    return done.clone();
                }
                if entry.inflight == Some(id)
                    || entry.queue.iter().any(|j| j.req.launch_id == Some(id))
                {
                    self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    return Response::Rejected {
                        retry_after_ms: self.shared.config.retry_after_ms,
                    };
                }
            }
            if entry.queue.len() >= self.shared.config.queue_depth {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Response::Rejected {
                    retry_after_ms: self.shared.config.retry_after_ms,
                };
            }
            entry.queue.push_back(Job {
                req: Box::new(req),
                reply: tx,
            });
            self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            let wake = !entry.running && !entry.enqueued;
            if wake {
                entry.enqueued = true;
                g.ready.push_back(self.id);
                self.shared.cv.notify_one();
            }
        }
        loop {
            match rx.recv() {
                Ok(resp) if resp.is_terminal() => return resp,
                Ok(event) => on_event(&event),
                Err(_) => return Response::ShuttingDown,
            }
        }
    }
}

/// The most bytes of `buf:` arguments one request may allocate. Device
/// memory is host memory here, zeroed up front, and a server shares it
/// between sessions.
const MAX_REQUEST_BUF_BYTES: u64 = 1 << 30;

/// The one path from a request to a launch, for `check`, `trace` and the
/// server's workers: resolves the default kernel (parsing the module only
/// when the request names none), checks the launch geometry at
/// `warp_size`, caps and allocates the buffer arguments, applies the step
/// budget, then hands the launch to `op` —
/// [`Engine::check`] for a verdict. A request that sets no step budget
/// gets the one `engine` was built with (`gpu.max_steps` of its
/// configuration), never one an earlier request set.
/// Deadlines stay with the caller: they need a clock outside the launch.
///
/// # Errors
///
/// A request that cannot launch, or whose launch fails, comes back as the
/// terminal response that says so: [`Response::Timeout`] for a step
/// budget or a cancellation, [`Response::Error`] for everything else.
pub fn run_request<T>(
    engine: &mut Engine,
    req: &CheckRequest,
    warp_size: u32,
    op: impl FnOnce(&mut Engine, &KernelRun<'_>) -> Result<T, Error>,
) -> Result<T, Response> {
    let error = |message: String| Response::Error { message };
    // Checked before anything below touches the engine.
    let dims = GridDims::try_with_warp_size(req.grid, req.block, warp_size).map_err(error)?;
    let buf_bytes = req
        .params
        .iter()
        .map(|a| match *a {
            ArgSpec::Buf(bytes) => bytes,
            ArgSpec::U32(_) => 0,
        })
        .fold(0u64, u64::saturating_add);
    if buf_bytes > MAX_REQUEST_BUF_BYTES {
        return Err(error(format!(
            "buffer arguments total {buf_bytes} bytes, over the {MAX_REQUEST_BUF_BYTES}-byte cap"
        )));
    }
    let first_kernel;
    let kernel = if req.kernel.is_empty() {
        let module = barracuda_ptx::parse(&req.source).map_err(|e| error(e.to_string()))?;
        first_kernel = module
            .kernels
            .into_iter()
            .next()
            .ok_or_else(|| error("module contains no kernels".to_string()))?
            .name;
        &first_kernel
    } else {
        &req.kernel
    };
    let max_steps = req.max_steps.unwrap_or(engine.config().gpu.max_steps);
    engine.set_max_steps(max_steps);
    let params = engine.gpu_mut().alloc_args(&req.params);
    let run = KernelRun {
        source: &req.source,
        kernel,
        dims,
        params: &params,
    };
    op(engine, &run).map_err(|e| match e {
        Error::Sim(SimError::Timeout { steps }) => Response::Timeout {
            deadline: false,
            steps,
        },
        Error::Sim(SimError::Cancelled { steps }) => Response::Timeout {
            deadline: true,
            steps,
        },
        e => error(e.to_string()),
    })
}

/// Runs one admitted request on the session's engine. Never panics
/// outward on its own: engine panics are the caller's `catch_unwind`.
fn run_check(engine: &mut Engine, shared: &Shared, req: &CheckRequest) -> Response {
    if shared
        .config
        .chaos_panic_kernel
        .as_deref()
        .is_some_and(|k| k == req.kernel)
    {
        panic!("chaos: injected server panic for kernel '{}'", req.kernel);
    }
    let checked = run_request(engine, req, 32, |engine, run| {
        let analysis = engine.check(run)?;
        // Join the completed launch into the host's view so the
        // engine's epoch recycling can reclaim it: this is what
        // keeps a device-lifetime session memory-bounded. Verdicts
        // are unaffected — checks are already ordered by the
        // default stream.
        let _ = engine.device_synchronize();
        Ok(analysis)
    });
    let analysis = match checked {
        Ok(analysis) => analysis,
        Err(resp) => return resp,
    };
    let mut reports: Vec<String> = analysis
        .diagnostics()
        .iter()
        .map(|d| d.to_string())
        .collect();
    reports.extend(analysis.races().iter().map(|r| r.to_string()));
    Response::Done(DoneBody {
        races: analysis.race_count() as u64,
        degraded: analysis.is_degraded(),
        reports,
        exit_code: barracuda::exitcode::for_analysis(&analysis),
        records: analysis.stats().records,
        events: analysis.stats().events,
    })
}

/// Runs one job end to end: deadline arming, the optional streaming
/// sidecar, quarantine on panic, and stat accounting. Returns the
/// terminal response (the caller sends and caches it).
fn serve_job(engine: &mut Engine, shared: &Shared, watchdog: &Watchdog, job: &Job) -> Response {
    let req = &job.req;
    let deadline_ms = req.deadline_ms.or(shared.config.default_deadline_ms);
    let guard =
        deadline_ms.map(|ms| watchdog.arm(Duration::from_millis(ms), engine.cancel_token()));
    let launch_id = req.launch_id.unwrap_or(0);
    // Streaming sidecar: polls the race sink while the launch runs and
    // forwards fresh reports as RaceEvent frames. It holds its own Arc
    // to the sink, so it survives even a quarantine replacing the
    // engine. The final flush happens after the stop flag is observed,
    // so every event precedes the terminal frame the caller sends.
    let sidecar = if req.stream {
        let stream = engine.race_stream();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let tx = job.reply.clone();
        let handle = std::thread::spawn(move || {
            let mut seq = 0u64;
            loop {
                let done = flag.load(Ordering::Acquire);
                for report in stream.take_ready() {
                    let _ = tx.send(Response::RaceEvent {
                        launch_id,
                        seq,
                        report: report.to_string(),
                    });
                    seq += 1;
                }
                if done {
                    break;
                }
                std::thread::park_timeout(STREAM_POLL);
            }
            seq
        });
        Some((stop, handle))
    } else {
        None
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| run_check(engine, shared, req)));
    if let Some(id) = guard {
        watchdog.disarm(id);
    }
    let resp = match outcome {
        Ok(resp) => resp,
        Err(payload) => {
            // Quarantine: the engine's internal state is unknowable after
            // an unwind tore through it. Replace it wholesale; the shared
            // module cache keeps the rebuild warm.
            *engine =
                Engine::with_shared_cache(shared.config.engine.clone(), Arc::clone(&shared.cache));
            shared.stats.quarantines.fetch_add(1, Ordering::Relaxed);
            Response::Degraded {
                message: panic_message(payload.as_ref()),
            }
        }
    };
    if let Some((stop, handle)) = sidecar {
        stop.store(true, Ordering::Release);
        handle.thread().unpark();
        if let Ok(sent) = handle.join() {
            shared
                .stats
                .streamed_events
                .fetch_add(sent, Ordering::Relaxed);
        }
    }
    if matches!(resp, Response::Timeout { .. }) {
        shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
    }
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    if req.stream {
        Response::LaunchDone {
            launch_id,
            body: Box::new(resp),
        }
    } else {
        resp
    }
}

/// A pool worker: claims a ready session, checks out (or builds) its
/// engine, runs exactly one job, parks the engine and requeues the
/// session behind everyone else — round-robin fairness by construction.
fn pool_worker(shared: &Arc<Shared>, watchdog: &Arc<Watchdog>) {
    loop {
        let (sid, job, parked) = {
            let mut g = shared.pool.lock().expect("pool state");
            let sid = loop {
                if let Some(sid) = g.ready.pop_front() {
                    break sid;
                }
                if g.shutdown {
                    return;
                }
                g = shared.cv.wait(g).expect("pool state");
            };
            let Some(entry) = g.sessions.get_mut(&sid) else {
                continue;
            };
            entry.enqueued = false;
            let Some(job) = entry.queue.pop_front() else {
                continue;
            };
            entry.running = true;
            entry.inflight = job.req.launch_id;
            let parked = entry.engine.take();
            if parked.is_some() {
                g.lru.retain(|&s| s != sid);
            } else {
                // Reserve a residency slot, evicting the coldest parked
                // engine when the pool is at its cap. Running engines
                // are never evicted; if every resident engine is busy
                // the cap is transiently exceeded (bounded by the
                // worker count).
                let cap = shared.config.max_resident_engines.max(1);
                while g.resident >= cap {
                    let Some(victim) = g.lru.pop_front() else {
                        break;
                    };
                    if let Some(v) = g.sessions.get_mut(&victim) {
                        if v.engine.take().is_some() {
                            g.resident -= 1;
                            shared.stats.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                g.resident += 1;
            }
            (sid, job, parked)
        };
        // Build outside the lock: the shared module cache keeps cold
        // builds cheap, and holding the pool lock across one would
        // stall every other worker.
        let mut engine = parked.unwrap_or_else(|| {
            shared.stats.engine_builds.fetch_add(1, Ordering::Relaxed);
            Box::new(Engine::with_shared_cache(
                shared.config.engine.clone(),
                Arc::clone(&shared.cache),
            ))
        });
        let resp = serve_job(&mut engine, shared, watchdog, &job);
        // Park and record the terminal *before* replying: the moment a
        // caller sees the verdict, a resubmission of the same launch id
        // must hit the replay cache, not the duplicate-in-flight check.
        {
            let mut g = shared.pool.lock().expect("pool state");
            let draining = g.shutdown;
            let requeue = if let Some(entry) = g.sessions.get_mut(&sid) {
                entry.running = false;
                entry.inflight = None;
                if let Some(id) = job.req.launch_id {
                    entry.completed.insert(id, resp.clone());
                }
                entry.engine = Some(engine);
                let requeue = !entry.queue.is_empty() && !entry.enqueued && !draining;
                if requeue {
                    entry.enqueued = true;
                }
                requeue
            } else {
                false
            };
            g.lru.push_back(sid);
            if requeue {
                g.ready.push_back(sid);
                shared.cv.notify_one();
            }
        }
        let _ = job.reply.send(resp);
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// The detection server (see the module docs).
pub struct Server {
    shared: Arc<Shared>,
    watchdog: Arc<Watchdog>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// A server with the given configuration.
    pub fn new(config: ServerConfig) -> Self {
        let worker_count = config.pool_workers.max(1);
        let shared = Arc::new(Shared {
            config,
            shutting_down: AtomicBool::new(false),
            stats: Counters::default(),
            cache: ModuleCache::shared(),
            pool: Mutex::new(PoolState::default()),
            cv: Condvar::new(),
        });
        let watchdog = Arc::new(Watchdog::spawn());
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let watchdog = Arc::clone(&watchdog);
                std::thread::spawn(move || pool_worker(&shared, &watchdog))
            })
            .collect();
        Server {
            shared,
            watchdog,
            workers: Mutex::new(workers),
        }
    }

    /// A server with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServerConfig::default())
    }

    /// Opens a new logical session (its own queue and replay cache; an
    /// engine materializes on its first job). Returns `None` once
    /// shutdown has begun.
    pub fn session(&self) -> Option<Session> {
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return None;
        }
        let mut g = self.shared.pool.lock().expect("pool state");
        if g.shutdown {
            return None;
        }
        let id = g.next_session;
        g.next_session += 1;
        g.sessions.insert(id, SessionEntry::default());
        self.shared.stats.sessions.fetch_add(1, Ordering::Relaxed);
        Some(Session {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// The process-wide instrumented-module cache shared by every engine
    /// this server builds (including quarantine and post-eviction
    /// rebuilds).
    pub fn module_cache(&self) -> Arc<ModuleCache> {
        Arc::clone(&self.shared.cache)
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.stats;
        ServerStats {
            sessions: c.sessions.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            quarantines: c.quarantines.load(Ordering::Relaxed),
            dropped_on_shutdown: c.dropped_on_shutdown.load(Ordering::Relaxed),
            deadlines_fired: self.watchdog.fired(),
            evictions: c.evictions.load(Ordering::Relaxed),
            engine_builds: c.engine_builds.load(Ordering::Relaxed),
            streamed_events: c.streamed_events.load(Ordering::Relaxed),
            replays: c.replays.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: refuses new work, lets the job in flight on
    /// each pool worker complete, answers queued-but-unstarted requests
    /// with [`Response::ShuttingDown`], joins every pool worker, and
    /// returns the final counters — including how much admitted work was
    /// dropped, reported honestly rather than silently discarded.
    pub fn shutdown(self) -> ServerStats {
        self.shared.shutting_down.store(true, Ordering::Release);
        {
            let mut g = self.shared.pool.lock().expect("pool state");
            g.shutdown = true;
            // Graceful drain: everything still queued was admitted but
            // will not run — say so, count it, and let the workers
            // finish their in-flight jobs.
            let sids: Vec<u64> = g.sessions.keys().copied().collect();
            for sid in sids {
                if let Some(entry) = g.sessions.get_mut(&sid) {
                    entry.enqueued = false;
                    while let Some(job) = entry.queue.pop_front() {
                        self.shared
                            .stats
                            .dropped_on_shutdown
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = job.reply.send(Response::ShuttingDown);
                    }
                }
            }
            g.ready.clear();
            self.shared.cv.notify_all();
        }
        for h in std::mem::take(&mut *self.workers.lock().expect("worker table")) {
            let _ = h.join();
        }
        self.stats()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
