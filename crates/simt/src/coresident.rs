//! Kernel launch: one warp scheduler over a group of co-resident
//! launches.
//!
//! Real GPUs keep kernels from independent streams resident together and
//! interleave their warps on the SMs. [`Gpu::launch_group`] executes a
//! whole group of launches under a single unified ready-warp pool, so
//! records from concurrent epochs genuinely interleave in the emitted
//! stream and planted inter-kernel races manifest as two live kernels
//! touching the same bytes. Every launch goes through this one loop: a
//! plain [`Gpu::launch_loaded`] is a group of one.
//!
//! Scheduling is two-level. The [`SchedPolicy`] picks only *which
//! launch* runs next; within that launch the warp is a uniform pick from
//! the device RNG (swap-remove from the launch's ready list), so a group
//! of one replays the same schedule under every policy. Determinism is
//! load-bearing: every pick is a pure function of the device seed, the
//! policy seed and the group contents, so the differential harness can
//! replay a schedule exactly and prove verdict stability across
//! schedules. The policies are:
//!
//! * [`SchedPolicy::RoundRobin`] — cycle fairly over the launches;
//! * [`SchedPolicy::Random`] — pick a launch with probability
//!   proportional to its ready warps, from a SplitMix64 stream
//!   (decoupled from the device RNG);
//! * [`SchedPolicy::StarveOne`] — adversarial chaos mode: one victim
//!   launch (chosen by seed) only runs when no other launch has a ready
//!   warp or once per [`STARVE_BUDGET`] picks, so cross-kernel handoffs
//!   still make progress but under maximal scheduling skew.
//!
//! Each slot's records are stamped with its [`Record::slot`] byte by a
//! per-slot sink wrapper, which is what lets one detection pipeline
//! demultiplex the interleaved stream back to per-launch detectors.

use std::sync::atomic::{AtomicU64, Ordering};

use barracuda_trace::backoff::splitmix;
use barracuda_trace::{CancelToken, GridDims, Record};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::config::SimError;
use crate::exec::{self, ExecCtx, StepOutcome};
use crate::kernel::LoadedKernel;
use crate::locals::LocalStore;
use crate::machine::{Gpu, LaunchStats, ParamValue};
use crate::mem::SharedMemory;
use crate::sink::EventSink;
use crate::warp::{WarpState, WarpStatus};

/// Most launches one group can hold: the slot tag is a single byte in
/// every record.
pub const MAX_GROUP_SLOTS: usize = 255;

/// The most bytes of register files and `.shared` segments one
/// co-resident group may allocate (every lane's registers are 8 bytes).
/// Device state is host memory here and scales with the grid, so a
/// hostile launch could otherwise ask for tens of GiB and abort the
/// process.
pub const MAX_RESIDENT_BYTES: u64 = 1 << 30;

/// Picks a victim launch once per this many non-victim picks under
/// [`SchedPolicy::StarveOne`], bounding starvation so spin-wait handoffs
/// (a consumer polling a flag the victim must set) still terminate.
pub const STARVE_BUDGET: u32 = 64;

/// One launch of a co-resident group.
#[derive(Clone, Copy)]
pub struct GroupLaunch<'a> {
    /// The pre-loaded kernel to execute.
    pub lk: &'a LoadedKernel,
    /// Launch dimensions.
    pub dims: GridDims,
    /// Kernel arguments.
    pub params: &'a [ParamValue],
    /// Group index of a same-stream predecessor this launch must wait
    /// for (stream order), if that predecessor is in the same group.
    /// The launch's warps only join the ready pool once the predecessor
    /// has fully retired.
    pub dep: Option<usize>,
}

impl std::fmt::Debug for GroupLaunch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupLaunch")
            .field("dims", &self.dims)
            .field("dep", &self.dep)
            .finish_non_exhaustive()
    }
}

/// Deterministic launch-selection policy for a co-resident group. It
/// chooses which launch runs next, never which warp within a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Fair rotation over launches.
    #[default]
    RoundRobin,
    /// Launch picked with probability proportional to its ready warps,
    /// from a SplitMix64 stream seeded with the payload.
    Random(u64),
    /// Adversarial: launch `seed % group_size` is starved — it runs only
    /// when nothing else is ready or once per [`STARVE_BUDGET`] picks.
    StarveOne(u64),
}

/// What [`Gpu::launch_group`] returns: per-slot launch statistics and
/// per-slot emitted-record counts (indexed by group slot).
#[derive(Debug, Clone, Default)]
pub struct GroupOutcome {
    /// Per-launch statistics, in group order.
    pub stats: Vec<LaunchStats>,
    /// Records each launch emitted to the sink, in group order.
    pub records: Vec<u64>,
}

/// Per-slot sink wrapper: stamps [`Record::slot`] and counts the slot's
/// records on the way through.
struct SlotStamp<'a> {
    inner: &'a dyn EventSink,
    slot: u8,
    records: AtomicU64,
}

impl EventSink for SlotStamp<'_> {
    fn emit(&self, block: u64, mut record: Record) {
        record.slot = self.slot;
        self.records.fetch_add(1, Ordering::Relaxed);
        self.inner.emit(block, record);
    }
}

/// The unified ready pool: one ready list per slot plus the policy state.
struct ReadyPool {
    slots: Vec<Vec<usize>>,
    total: usize,
    policy: SchedPolicy,
    /// Round-robin slot cursor (also used to rotate non-victim slots
    /// under `StarveOne`).
    cursor: usize,
    /// SplitMix64 state for `Random`.
    rng_state: u64,
    /// Non-victim picks since the victim last ran (`StarveOne`).
    since_victim: u32,
}

impl ReadyPool {
    fn new(nslots: usize, policy: SchedPolicy) -> Self {
        let rng_state = match policy {
            SchedPolicy::Random(seed) => seed,
            _ => 0,
        };
        ReadyPool {
            slots: vec![Vec::new(); nslots],
            total: 0,
            policy,
            cursor: 0,
            rng_state,
            since_victim: 0,
        }
    }

    fn push(&mut self, slot: usize, wi: usize) {
        self.slots[slot].push(wi);
        self.total += 1;
    }

    /// The first non-empty slot at or after the cursor, rotating; `skip`
    /// exempts one slot (the starvation victim). Advances the cursor past
    /// the slot it returns.
    fn rotate(&mut self, skip: Option<usize>) -> Option<usize> {
        let n = self.slots.len();
        let slot = (0..n)
            .map(|i| (self.cursor + i) % n)
            .find(|&s| Some(s) != skip && !self.slots[s].is_empty())?;
        self.cursor = (slot + 1) % n;
        Some(slot)
    }

    /// The policy's choice of launch to run next, or `None` when no warp
    /// is ready.
    fn pick_slot(&mut self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        match self.policy {
            SchedPolicy::RoundRobin => self.rotate(None),
            SchedPolicy::Random(_) => {
                let mut r = (splitmix(self.rng_state) % self.total as u64) as usize;
                self.rng_state = self.rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                for (slot, q) in self.slots.iter().enumerate() {
                    if r < q.len() {
                        return Some(slot);
                    }
                    r -= q.len();
                }
                unreachable!("total tracks ready-list lengths");
            }
            SchedPolicy::StarveOne(seed) => {
                let victim = (seed % self.slots.len() as u64) as usize;
                let victim_ready = !self.slots[victim].is_empty();
                let force_victim = victim_ready && self.since_victim >= STARVE_BUDGET;
                if !force_victim {
                    if let Some(slot) = self.rotate(Some(victim)) {
                        self.since_victim += 1;
                        return Some(slot);
                    }
                }
                // Either the budget ran out or only the victim is ready.
                self.since_victim = 0;
                Some(victim)
            }
        }
    }

    /// Picks the next `(slot, warp_index)` to run: the policy chooses
    /// the launch, the device RNG chooses uniformly among its ready
    /// warps. Returns `None` when no warp is ready.
    fn pick(&mut self, rng: &mut StdRng) -> Option<(usize, usize)> {
        let slot = self.pick_slot()?;
        let ready = &mut self.slots[slot];
        let wi = ready.swap_remove(rng.random_range(0..ready.len()));
        self.total -= 1;
        Some((slot, wi))
    }
}

/// Per-launch execution state while the launch is resident.
struct Resident {
    param_block: Vec<u8>,
    shareds: Vec<SharedMemory>,
    warps: Vec<WarpState>,
    locals: LocalStore,
    /// Warps of each launch-local block that are AtBarrier or Done.
    not_running: Vec<u64>,
    /// This launch's first block id in the group-global block space.
    block_offset: u64,
    stats: LaunchStats,
    /// Warps not yet Done; the launch has retired at zero (drives `dep`
    /// release).
    live: usize,
    /// Warps have joined the ready pool (deps satisfied).
    enqueued: bool,
}

impl Gpu {
    /// Executes a group of launches co-resident, interleaving their warps
    /// under `policy` through one unified ready pool. Blocks are remapped
    /// into a group-global id space (each launch gets a contiguous range
    /// starting at its block offset) so per-block store buffers and sink
    /// routing stay disjoint across launches; records keep their
    /// launch-local warp ids and are stamped with the launch's group slot.
    ///
    /// A launch with `dep = Some(i)` only becomes runnable after group
    /// member `i` has fully retired (same-stream ordering inside the
    /// group). The group shares one step budget of
    /// `max_steps × group_size`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for bad parameter blocks and runtime
    /// faults; barrier divergence, timeout or cancellation anywhere in
    /// the group fails the whole group.
    ///
    /// # Panics
    ///
    /// Panics if the group exceeds [`MAX_GROUP_SLOTS`] launches or a
    /// `dep` does not name an earlier group member.
    pub fn launch_group(
        &mut self,
        launches: &[GroupLaunch<'_>],
        policy: SchedPolicy,
        sink: Option<&dyn EventSink>,
    ) -> Result<GroupOutcome, SimError> {
        self.run_group(launches, policy, sink, exec::step)
    }

    /// [`Gpu::launch_group`] with the interpreter's step function as a
    /// parameter. The product instantiates it only with the decoded
    /// interpreter's `exec::step`; the AST-walking test oracle passes its
    /// own, so both run under the same scheduler and must agree step for
    /// step.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn run_group<S>(
        &mut self,
        launches: &[GroupLaunch<'_>],
        policy: SchedPolicy,
        sink: Option<&dyn EventSink>,
        step: S,
    ) -> Result<GroupOutcome, SimError>
    where
        S: Fn(&mut ExecCtx, &mut WarpState) -> Result<StepOutcome, SimError>,
    {
        let nslots = launches.len();
        assert!(
            nslots <= MAX_GROUP_SLOTS,
            "co-resident group larger than the record slot byte"
        );
        if nslots == 0 {
            return Ok(GroupOutcome::default());
        }
        for (i, l) in launches.iter().enumerate() {
            if let Some(dep) = l.dep {
                assert!(dep < i, "dep must name an earlier group member");
            }
        }

        // Register files and `.shared` segments are allocated up front
        // for every warp and block of the group: refuse a group whose
        // total would not fit before allocating any of it.
        let resident_bytes = launches.iter().fold(0u64, |sum, l| {
            let regs = (l.lk.kernel.regs.len() as u64)
                .saturating_mul(u64::from(l.dims.warp_size))
                .saturating_mul(8)
                .saturating_mul(l.dims.num_warps());
            let shared =
                l.lk.kernel
                    .shared_size()
                    .saturating_mul(l.dims.num_blocks());
            sum.saturating_add(regs).saturating_add(shared)
        });
        if resident_bytes > MAX_RESIDENT_BYTES {
            return Err(SimError::ResidentTooLarge {
                bytes: resident_bytes,
                cap: MAX_RESIDENT_BYTES,
            });
        }

        // Build every resident before touching global memory so a bad
        // param block fails the group cleanly.
        let mut residents: Vec<Resident> = Vec::with_capacity(nslots);
        let mut block_offset = 0u64;
        for l in launches {
            let param_block = l.lk.build_param_block(l.params)?;
            let dims = l.dims;
            let nregs = l.lk.kernel.regs.len();
            let shared_size = l.lk.kernel.shared_size();
            let num_blocks = dims.num_blocks();
            let num_warps = dims.num_warps();
            let shareds = (0..num_blocks)
                .map(|_| SharedMemory::new(shared_size))
                .collect();
            let warps = (0..num_warps)
                .map(|w| {
                    WarpState::new(
                        w,
                        block_offset + dims.block_of_warp(w),
                        dims.initial_mask(w),
                        nregs,
                        dims.warp_size,
                    )
                })
                .collect();
            residents.push(Resident {
                param_block,
                shareds,
                warps,
                locals: LocalStore::new(num_warps as usize, dims.warp_size as usize),
                not_running: vec![0; num_blocks as usize],
                block_offset,
                stats: LaunchStats::default(),
                live: num_warps as usize,
                enqueued: false,
            });
            block_offset += num_blocks;
        }
        let total_blocks = block_offset;

        let slot_sinks: Vec<SlotStamp<'_>> = sink
            .map(|inner| {
                (0..nslots)
                    .map(|slot| SlotStamp {
                        inner,
                        slot: slot as u8,
                        records: AtomicU64::new(0),
                    })
                    .collect()
            })
            .unwrap_or_default();

        // Split the borrow of `self` so the execution context can hold
        // global memory mutably across a whole scheduling slice while the
        // scheduler keeps using the RNG.
        let Gpu {
            config,
            global,
            rng,
            cancel,
        } = self;

        global.begin_kernel(total_blocks);
        let buffered = config.memory_model.buffered();

        let mut pool = ReadyPool::new(nslots, policy);
        let mut pending_deps = 0usize;
        for (slot, (l, r)) in launches.iter().zip(residents.iter_mut()).enumerate() {
            if l.dep.is_none() {
                r.enqueued = true;
                for wi in 0..r.warps.len() {
                    pool.push(slot, wi);
                }
            } else {
                pending_deps += 1;
            }
        }
        // A dep on a zero-warp launch is satisfied immediately.
        release_ready_deps(launches, &mut residents, &mut pool, &mut pending_deps);

        let group_budget = config.max_steps.saturating_mul(nslots as u64);
        let mut total_instructions = 0u64;

        let outcome = loop {
            // Cooperative cancellation: checked once per scheduling slice
            // (not per instruction) to keep the hot loop unaffected.
            if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                break Err(SimError::Cancelled {
                    steps: total_instructions,
                });
            }
            let Some((slot, wi)) = pool.pick(rng) else {
                if residents.iter().all(|r| r.live == 0) {
                    break Ok(());
                }
                // Some warp waits at a barrier that can never complete (a
                // sibling exited or arrived with a partial mask), which is
                // a divergence hang. (Warps gated behind an unsatisfied
                // dep only exist when their dep is itself stuck, so there
                // is always an AtBarrier warp to blame.)
                let block = residents
                    .iter()
                    .flat_map(|r| r.warps.iter())
                    .find(|w| w.status == WarpStatus::AtBarrier)
                    .map_or(0, |w| w.block);
                break Err(SimError::BarrierDivergence { block });
            };
            let r = &mut residents[slot];
            if r.warps[wi].status != WarpStatus::Ready {
                continue;
            }
            let dims = launches[slot].dims;
            let warps_per_block = dims.warps_per_block();
            // One context per scheduling slice, not per step: the block
            // (and hence the shared-memory bank) is fixed for the warp.
            let local_block = r.warps[wi].block - r.block_offset;
            let slot_sink: Option<&dyn EventSink> = if slot_sinks.is_empty() {
                None
            } else {
                Some(&slot_sinks[slot])
            };
            let mut ctx = ExecCtx {
                kernel: launches[slot].lk,
                dims: &dims,
                param_block: &r.param_block,
                global: &mut *global,
                shared: &mut r.shareds[local_block as usize],
                locals: &mut r.locals,
                sink: slot_sink,
                native_logging: config.native_access_logging,
                filter_same_value: config.filter_same_value,
            };
            let mut slice_left = config.slice;
            let res: Result<(), SimError> = loop {
                if slice_left == 0 {
                    pool.push(slot, wi);
                    break Ok(());
                }
                slice_left -= 1;
                r.stats.instructions += 1;
                total_instructions += 1;
                if total_instructions > group_budget {
                    break Err(SimError::Timeout {
                        steps: group_budget,
                    });
                }
                let out = match step(&mut ctx, &mut r.warps[wi]) {
                    Ok(o) => o,
                    Err(e) => break Err(e),
                };
                if buffered && rng.random::<f64>() < config.drain_probability {
                    ctx.global.drain_step(rng);
                }
                match out {
                    StepOutcome::Continue => {}
                    StepOutcome::Barrier | StepOutcome::Done => {
                        if out == StepOutcome::Done {
                            r.live -= 1;
                        }
                        r.not_running[local_block as usize] += 1;
                        if r.not_running[local_block as usize] == warps_per_block {
                            match resolve_barrier(&mut r.warps, local_block, warps_per_block) {
                                BarrierResolution::Released(n) => {
                                    r.stats.barriers += 1;
                                    r.not_running[local_block as usize] -= n;
                                    // Re-enqueue the released warps.
                                    let base = local_block * warps_per_block;
                                    for i in 0..warps_per_block {
                                        let idx = (base + i) as usize;
                                        if r.warps[idx].status == WarpStatus::Ready && idx != wi {
                                            pool.push(slot, idx);
                                        }
                                    }
                                    if r.warps[wi].status == WarpStatus::Ready {
                                        pool.push(slot, wi);
                                    }
                                }
                                BarrierResolution::AllDone => {}
                                BarrierResolution::Divergence => {
                                    break Err(SimError::BarrierDivergence {
                                        block: r.block_offset + local_block,
                                    });
                                }
                            }
                        }
                        break Ok(());
                    }
                }
            };
            if let Err(e) = res {
                break Err(e);
            }
            // The launch just retired: release its dependents.
            if r.live == 0 && pending_deps > 0 {
                release_ready_deps(launches, &mut residents, &mut pool, &mut pending_deps);
            }
        };
        global.end_kernel();
        outcome.map(|()| GroupOutcome {
            stats: residents.iter().map(|r| r.stats).collect(),
            records: if slot_sinks.is_empty() {
                vec![0; nslots]
            } else {
                slot_sinks
                    .iter()
                    .map(|s| s.records.load(Ordering::Relaxed))
                    .collect()
            },
        })
    }
}

/// Enqueues every not-yet-enqueued launch whose dep has retired.
/// Iterates to a fixed point so chains of empty launches release in one
/// call.
fn release_ready_deps(
    launches: &[GroupLaunch<'_>],
    residents: &mut [Resident],
    pool: &mut ReadyPool,
    pending_deps: &mut usize,
) {
    loop {
        let mut released_any = false;
        for slot in 0..launches.len() {
            if residents[slot].enqueued {
                continue;
            }
            let dep = launches[slot].dep.expect("unenqueued slots have deps");
            if residents[dep].live == 0 {
                residents[slot].enqueued = true;
                *pending_deps -= 1;
                for wi in 0..residents[slot].warps.len() {
                    pool.push(slot, wi);
                }
                released_any = true;
            }
        }
        if !released_any {
            break;
        }
    }
}

enum BarrierResolution {
    /// `n` warps were released back to Ready.
    Released(u64),
    /// Every warp of the block is Done (normal completion).
    AllDone,
    /// Barrier divergence: some threads exited or were inactive.
    Divergence,
}

/// Attempts to complete a block barrier once every warp of the block has
/// stopped running. Per the paper (§3.3.2) a barrier is only well-formed
/// when *all* threads of the block are active at it. `warps` is one
/// launch's warps and `block` indexes it launch-locally.
fn resolve_barrier(warps: &mut [WarpState], block: u64, warps_per_block: u64) -> BarrierResolution {
    let base = (block * warps_per_block) as usize;
    let ws = &mut warps[base..base + warps_per_block as usize];
    if ws.iter().all(|w| w.status == WarpStatus::Done) {
        return BarrierResolution::AllDone;
    }
    // Mixed Done/AtBarrier or partial arrival masks → divergence bug.
    let ok = ws
        .iter()
        .all(|w| w.status == WarpStatus::AtBarrier && w.barrier_mask == w.live_mask);
    if !ok {
        return BarrierResolution::Divergence;
    }
    let mut released = 0;
    for w in ws.iter_mut() {
        w.status = WarpStatus::Ready;
        w.barrier_mask = 0;
        let top = w.stack.last_mut().expect("barrier with empty stack");
        top.pc += 1;
        released += 1;
    }
    BarrierResolution::Released(released)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::sink::VecSink;
    use barracuda_ptx::Module;
    use parking_lot::Mutex;

    fn module(body: &str) -> Module {
        barracuda_ptx::parse(&format!(
            ".version 4.3\n.target sm_35\n.address_size 64\n\
             .visible .entry k(.param .u64 out)\n{{\n{body}\n}}"
        ))
        .unwrap()
    }

    /// Each thread stores three values to disjoint slots of `out`,
    /// emitting several records per warp.
    fn multi_store() -> Module {
        module(
            ".reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
             mov.u32 %r1, %tid.x;\n\
             mov.u32 %r2, %ctaid.x;\n\
             mov.u32 %r3, %ntid.x;\n\
             mad.lo.s32 %r4, %r2, %r3, %r1;\n\
             ld.param.u64 %rd1, [out];\n\
             mul.wide.s32 %rd2, %r4, 4;\n\
             add.s64 %rd3, %rd1, %rd2;\n\
             st.global.u32 [%rd3], %r4;\n\
             st.global.u32 [%rd3+512], %r4;\n\
             st.global.u32 [%rd3+1024], %r4;\n\
             ret;",
        )
    }

    fn logging_gpu() -> Gpu {
        Gpu::new(GpuConfig {
            native_access_logging: true,
            ..GpuConfig::default()
        })
    }

    /// Everything that identifies a record, for byte-level comparisons.
    type Sig = (u8, u64, u8, u8, u8, u32, [u64; 32]);

    fn sig(r: &Record) -> Sig {
        (r.slot, r.warp, r.kind, r.space, r.size, r.mask, r.addrs)
    }

    /// Runs a two-launch group of `multi_store` kernels over disjoint
    /// buffers and returns the emitted record stream.
    fn run_pair(policy: SchedPolicy) -> Vec<Record> {
        let m = multi_store();
        let lk = LoadedKernel::load(&m, "k").unwrap();
        let mut g = logging_gpu();
        let a = g.malloc(4096);
        let b = g.malloc(4096);
        let pa = [ParamValue::Ptr(a)];
        let pb = [ParamValue::Ptr(b)];
        let dims = GridDims::new(2u32, 64u32);
        let sink = VecSink::new();
        let gl = |p| GroupLaunch {
            lk: &lk,
            dims,
            params: p,
            dep: None,
        };
        g.launch_group(&[gl(&pa), gl(&pb)], policy, Some(&sink))
            .unwrap();
        sink.take()
    }

    #[test]
    fn same_seed_and_policy_replays_byte_identically() {
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::Random(42),
            SchedPolicy::StarveOne(1),
        ] {
            let first: Vec<Sig> = run_pair(policy).iter().map(sig).collect();
            let second: Vec<Sig> = run_pair(policy).iter().map(sig).collect();
            assert_eq!(first, second, "{policy:?} must replay exactly");
        }
    }

    #[test]
    fn policy_never_picks_the_warp_within_a_launch() {
        // A group of one: the policy has only one launch to choose, and
        // the device RNG alone orders that launch's warps.
        let run_one = |policy| {
            let m = multi_store();
            let lk = LoadedKernel::load(&m, "k").unwrap();
            let mut g = logging_gpu();
            let out = g.malloc(4096);
            let params = [ParamValue::Ptr(out)];
            let sink = VecSink::new();
            let launch = GroupLaunch {
                lk: &lk,
                dims: GridDims::new(4u32, 64u32),
                params: &params,
                dep: None,
            };
            g.launch_group(&[launch], policy, Some(&sink)).unwrap();
            sink.take().iter().map(sig).collect::<Vec<Sig>>()
        };
        let rr = run_one(SchedPolicy::RoundRobin);
        for policy in [
            SchedPolicy::Random(42),
            SchedPolicy::Random(0xfeed),
            SchedPolicy::StarveOne(0),
            SchedPolicy::StarveOne(1),
        ] {
            assert_eq!(run_one(policy), rr, "{policy:?} reordered a lone launch");
        }
    }

    #[test]
    fn policies_reorder_across_slots_but_never_within_a_slot() {
        let rr = run_pair(SchedPolicy::RoundRobin);
        let rand = run_pair(SchedPolicy::Random(0xfeed));
        assert_eq!(rr.len(), rand.len());
        // Each warp's own subsequence is its deterministic program
        // order — identical under every schedule (the scheduler may
        // reorder across warps and slots, never within a warp).
        let lanes: std::collections::BTreeSet<(u8, u64)> =
            rr.iter().map(|r| (r.slot, r.warp)).collect();
        assert!(lanes.iter().any(|&(s, _)| s == 1));
        for (slot, warp) in lanes {
            let a: Vec<Sig> = rr
                .iter()
                .filter(|r| r.slot == slot && r.warp == warp)
                .map(sig)
                .collect();
            let b: Vec<Sig> = rand
                .iter()
                .filter(|r| r.slot == slot && r.warp == warp)
                .map(sig)
                .collect();
            assert!(!a.is_empty());
            assert_eq!(
                a, b,
                "warp ({slot},{warp}) subsequence is schedule-invariant"
            );
        }
        // But the interleaving itself differs between the policies.
        let order_a: Vec<u8> = rr.iter().map(|r| r.slot).collect();
        let order_b: Vec<u8> = rand.iter().map(|r| r.slot).collect();
        assert_ne!(order_a, order_b, "schedules should differ across policies");
    }

    #[test]
    fn round_robin_genuinely_interleaves_the_trace() {
        let recs = run_pair(SchedPolicy::RoundRobin);
        let slots: Vec<u8> = recs.iter().map(|r| r.slot).collect();
        let first_one = slots.iter().position(|&s| s == 1).unwrap();
        let last_zero = slots.iter().rposition(|&s| s == 0).unwrap();
        assert!(
            first_one < last_zero,
            "slot-1 records must appear before slot 0 retires: {slots:?}"
        );
    }

    #[test]
    fn dep_serializes_same_stream_launches() {
        let m = multi_store();
        let lk = LoadedKernel::load(&m, "k").unwrap();
        let mut g = logging_gpu();
        let out = g.malloc(4096);
        let params = [ParamValue::Ptr(out)];
        let dims = GridDims::new(2u32, 64u32);
        let sink = VecSink::new();
        let launches = [
            GroupLaunch {
                lk: &lk,
                dims,
                params: &params,
                dep: None,
            },
            GroupLaunch {
                lk: &lk,
                dims,
                params: &params,
                dep: Some(0),
            },
        ];
        g.launch_group(&launches, SchedPolicy::Random(9), Some(&sink))
            .unwrap();
        let slots: Vec<u8> = sink.take().iter().map(|r| r.slot).collect();
        let first_one = slots.iter().position(|&s| s == 1).unwrap();
        let last_zero = slots.iter().rposition(|&s| s == 0).unwrap();
        assert!(
            last_zero < first_one,
            "dep'd launch may not start before its predecessor retires: {slots:?}"
        );
    }

    #[test]
    fn starved_producer_still_unblocks_a_spinning_consumer() {
        // Producer (slot 0) publishes data + flag; consumer (slot 1)
        // spins on the flag. StarveOne(0) starves the producer, so the
        // consumer only terminates because the starvation budget forces
        // the victim to run.
        let prod = module(
            ".reg .b64 %rd<2>;\n\
             ld.param.u64 %rd1, [out];\n\
             st.global.u32 [%rd1], 42;\n\
             st.global.u32 [%rd1+4], 1;\n\
             ret;",
        );
        let cons = module(
            ".reg .pred %p1;\n.reg .b32 %r<4>;\n.reg .b64 %rd<2>;\n\
             ld.param.u64 %rd1, [out];\n\
             L_wait:\n\
             ld.global.u32 %r1, [%rd1+4];\n\
             setp.eq.s32 %p1, %r1, 0;\n\
             @%p1 bra L_wait;\n\
             ld.global.u32 %r2, [%rd1];\n\
             st.global.u32 [%rd1+8], %r2;\n\
             ret;",
        );
        let lk_p = LoadedKernel::load(&prod, "k").unwrap();
        let lk_c = LoadedKernel::load(&cons, "k").unwrap();
        let mut g = logging_gpu();
        let buf = g.malloc(12);
        let params = [ParamValue::Ptr(buf)];
        let dims = GridDims::new(1u32, 1u32);
        let outcome = g
            .launch_group(
                &[
                    GroupLaunch {
                        lk: &lk_p,
                        dims,
                        params: &params,
                        dep: None,
                    },
                    GroupLaunch {
                        lk: &lk_c,
                        dims,
                        params: &params,
                        dep: None,
                    },
                ],
                SchedPolicy::StarveOne(0),
                None,
            )
            .unwrap();
        assert_eq!(g.read_u32s(buf, 3)[2], 42, "handoff must complete");
        assert!(outcome.stats[1].instructions > outcome.stats[0].instructions);
    }

    /// Sink that remembers which group-global block id each record was
    /// routed under.
    #[derive(Default)]
    struct BlockSink {
        seen: Mutex<Vec<(u64, u8)>>,
    }

    impl EventSink for BlockSink {
        fn emit(&self, block: u64, record: Record) {
            self.seen.lock().push((block, record.slot));
        }
    }

    #[test]
    fn blocks_are_remapped_into_a_group_global_id_space() {
        let m = multi_store();
        let lk = LoadedKernel::load(&m, "k").unwrap();
        let mut g = logging_gpu();
        let a = g.malloc(4096);
        let b = g.malloc(4096);
        let pa = [ParamValue::Ptr(a)];
        let pb = [ParamValue::Ptr(b)];
        let dims = GridDims::new(2u32, 32u32);
        let sink = BlockSink::default();
        let gl = |p| GroupLaunch {
            lk: &lk,
            dims,
            params: p,
            dep: None,
        };
        g.launch_group(&[gl(&pa), gl(&pb)], SchedPolicy::RoundRobin, Some(&sink))
            .unwrap();
        for (block, slot) in sink.seen.lock().iter() {
            let expect = if *slot == 0 { 0..2 } else { 2..4 };
            assert!(
                expect.contains(block),
                "slot {slot} routed under group-global block {block}"
            );
        }
    }

    #[test]
    fn empty_group_and_outcome_counters() {
        let mut g = logging_gpu();
        let out = g.launch_group(&[], SchedPolicy::RoundRobin, None).unwrap();
        assert!(out.stats.is_empty() && out.records.is_empty());

        let m = multi_store();
        let lk = LoadedKernel::load(&m, "k").unwrap();
        let buf = g.malloc(4096);
        let params = [ParamValue::Ptr(buf)];
        let sink = VecSink::new();
        let out = g
            .launch_group(
                &[GroupLaunch {
                    lk: &lk,
                    dims: GridDims::new(1u32, 32u32),
                    params: &params,
                    dep: None,
                }],
                SchedPolicy::RoundRobin,
                Some(&sink),
            )
            .unwrap();
        assert_eq!(out.records, vec![sink.len() as u64]);
        assert!(out.stats[0].instructions > 0);
    }
}
