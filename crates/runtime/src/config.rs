//! Engine configuration.

use barracuda_instrument::InstrumentOptions;
use barracuda_simt::{GpuConfig, SchedPolicy};
use barracuda_trace::FaultPlan;

/// How detector workers consume the device-side queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMode {
    /// Collect all records, then process them on the calling thread in
    /// emission order. Deterministic; used by tests.
    Synchronous,
    /// One host thread per queue, draining concurrently with the
    /// simulation — the paper's architecture (§4.3). With a persistent
    /// engine the worker threads outlive individual launches.
    Threaded,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct BarracudaConfig {
    /// Simulator configuration.
    pub gpu: GpuConfig,
    /// Instrumentation options.
    pub instrument: InstrumentOptions,
    /// Queue-consumption mode.
    pub mode: DetectionMode,
    /// Records per queue (the paper reserves a fraction of GPU memory;
    /// capacity expresses the same back-pressure).
    pub queue_capacity: usize,
    /// Queues per streaming multiprocessor; the paper found ~1.1–1.5
    /// optimal (§4.2).
    pub queues_per_sm: f64,
    /// Producer stall budget (spin-yield cycles) before a full queue
    /// sheds the record instead of blocking forever. Bounds the damage of
    /// a dead or wedged consumer: shed records surface as a
    /// [`LostRecords`] diagnostic rather than a deadlock. The default is
    /// generous enough that healthy runs never shed.
    ///
    /// [`LostRecords`]: barracuda_core::Diagnostic::LostRecords
    pub push_stall_budget: u64,
    /// Deterministic fault injection for the threaded pipeline
    /// (chaos testing); `None` injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Ignored: the threaded pipeline always routes a block's records to
    /// one queue (paper §4.2). Kept only because the benchmark sets it.
    pub sharded_routing: bool,
    /// Co-resident kernel interleaving: `None` (the default) runs every
    /// launch eagerly, `Some(policy)` interleaves under `policy`. Every
    /// launch executes as a co-resident group; this decides only *when*
    /// the group flushes. Eager, each launch is a group of one, flushed at
    /// once. Interleaved, [`launch_async`](crate::Engine::launch_async)
    /// *defers* the launch: kernels accumulate until a synchronization
    /// point (a memcpy, `stream_synchronize`, `device_synchronize`, or an
    /// explicit [`flush_pending`](crate::Engine::flush_pending)) and then
    /// execute as one co-resident group whose warps genuinely interleave,
    /// the policy picking which launch runs next. Same-stream launches keep
    /// their order inside the group; verdicts are schedule-independent
    /// because happens-before edges are fixed at registration time, before
    /// any schedule is chosen.
    pub interleave: Option<SchedPolicy>,
    /// Bound on the retained per-launch history ([`Engine::launches`]
    /// summaries and the [`HostOp`] trace): when a history vector
    /// exceeds the cap at a synchronization point, its oldest half is
    /// discarded. Cumulative totals keep counting. Device-lifetime
    /// sessions stay memory-bounded; short runs (and `--stats-json`)
    /// never notice.
    ///
    /// [`Engine::launches`]: crate::Engine::launches
    /// [`HostOp`]: crate::HostOp
    pub history_cap: usize,
}

impl Default for BarracudaConfig {
    fn default() -> Self {
        BarracudaConfig {
            gpu: GpuConfig::default(),
            instrument: InstrumentOptions::default(),
            mode: DetectionMode::Synchronous,
            queue_capacity: 16 * 1024,
            queues_per_sm: 1.25,
            push_stall_budget: 1 << 18,
            fault_plan: None,
            sharded_routing: false,
            interleave: None,
            history_cap: 4096,
        }
    }
}

impl BarracudaConfig {
    /// Number of queues for this configuration.
    pub fn num_queues(&self) -> usize {
        ((f64::from(self.gpu.num_sms) * self.queues_per_sm).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_queues_follows_sm_count() {
        let cfg = BarracudaConfig::default();
        // 24 SMs × 1.25 = 30 queues (paper: ~1.1–1.5 queues per SM).
        assert_eq!(cfg.num_queues(), 30);
    }
}
