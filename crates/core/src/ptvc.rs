//! Compressed per-thread vector clocks (PTVCs), managed at warp
//! granularity (paper §4.3.1, Fig. 7).
//!
//! A full per-thread vector clock for a million-thread kernel is
//! intractable (O(n²) storage). BARRACUDA exploits the warp/block/grid
//! hierarchy: threads of a warp execute in lockstep and therefore share
//! almost all of their clock state. This module represents every thread's
//! VC implicitly through a per-warp *group stack* that mirrors the SIMT
//! reconvergence stack:
//!
//! * the **active group** holds the lanes currently executing: they share
//!   one `own` clock (each lane's view of an active mate is `own − 1`, the
//!   mate's clock before the last join/fork);
//! * frozen groups (paths waiting on the other side of a divergent branch)
//!   sit in deeper stack frames;
//! * a uniform `block_clock` summarizes the view of every in-block thread
//!   outside the warp (maintained by barriers);
//! * an optional sparse [`HClock`] records point-to-point synchronization
//!   with arbitrary threads.
//!
//! The four formats of Fig. 7 fall out of this representation:
//! CONVERGED (one frame, uniform view, no external), DIVERGED (uniform
//! view of the frozen lanes), NESTEDDIVERGED (per-lane view), and SPARSEVC
//! (external map present).
//!
//! ## Clock bumping
//!
//! Joins use a *bump-to-max* discipline: rejoining lanes all continue at
//! `max(owns) + 1` rather than their individual `own + 1`. This is what
//! makes the uniform formats representable, and it is lossless: a thread's
//! clock jumps over values at which it performed no operations, so no
//! epoch comparison can distinguish the bumped clock from the exact one.
//! The property tests in `tests/ptvc_lossless.rs` validate verdict
//! equivalence against the uncompressed reference detector.

use crate::clock::Clock;
use crate::hclock::HClock;
use barracuda_trace::{GridDims, Tid};
use std::ops::Range;
use std::sync::Arc;

/// View of the warp lanes *outside* a group's mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpView {
    /// All outside lanes were last seen at the same time.
    Uniform(Clock),
    /// Per-lane times (nested divergence).
    PerLane(Box<[Clock; 32]>),
}

impl WarpView {
    /// The view of lane `l`.
    pub fn get(&self, l: u32) -> Clock {
        match self {
            WarpView::Uniform(c) => *c,
            WarpView::PerLane(v) => v[l as usize],
        }
    }
}

/// The clock state shared by a set of lanes executing in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupState {
    /// Lanes in this group.
    pub mask: u32,
    /// The shared own-clock `C_t(t)` of every lane in the group.
    pub own: Clock,
    /// View of warp lanes outside `mask`.
    pub warp_view: WarpView,
    /// View of all in-block threads outside the warp.
    pub block_clock: Clock,
    /// Sparse view of arbitrary threads (point-to-point synchronization);
    /// looked up with max semantics against the structural components.
    pub external: Option<Arc<HClock>>,
}

impl GroupState {
    fn join_external(&mut self, h: &HClock) {
        if h.is_bottom() {
            return;
        }
        match &mut self.external {
            Some(e) => Arc::make_mut(e).join(h),
            None => {
                let mut n = HClock::new();
                n.join(h);
                self.external = Some(Arc::new(n));
            }
        }
    }
}

/// The PTVC format currently in use (Fig. 7); reported for statistics and
/// tested against the paper's examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the four Fig. 7 format names
pub enum PtvcFormat {
    Converged,
    Diverged,
    NestedDiverged,
    SparseVc,
}

#[derive(Debug, Clone)]
enum Frame {
    /// A frozen not-yet-executed path plus the finished paths of one
    /// branch, waiting for reconvergence.
    Reconv {
        pre_mask: u32,
        frozen: GroupState,
        finished: Vec<GroupState>,
    },
    /// The currently-executing group (always the top frame).
    Active(GroupState),
}

/// The compressed clock state of one warp.
#[derive(Debug, Clone)]
pub struct WarpClocks {
    /// Global warp id.
    pub warp: u64,
    /// Lanes that exist (partial last warp support); format compression
    /// only needs uniformity across these lanes.
    live_mask: u32,
    stack: Vec<Frame>,
}

impl WarpClocks {
    /// Initial state: all live lanes converged at clock 1 (each thread's
    /// initial VC is `inc_t(⊥)`, paper §3.3).
    pub fn new(warp: u64, live_mask: u32) -> Self {
        WarpClocks {
            warp,
            live_mask,
            stack: vec![Frame::Active(GroupState {
                mask: live_mask,
                own: 1,
                warp_view: WarpView::Uniform(0),
                block_clock: 0,
                external: None,
            })],
        }
    }

    /// The currently-active group.
    ///
    /// # Panics
    ///
    /// Panics if the event stream is malformed (more `fi` than `if`).
    pub fn active(&self) -> &GroupState {
        match self.stack.last() {
            Some(Frame::Active(g)) => g,
            _ => panic!(
                "warp {} has no active group (unbalanced branch events)",
                self.warp
            ),
        }
    }

    fn active_mut(&mut self) -> &mut GroupState {
        match self.stack.last_mut() {
            Some(Frame::Active(g)) => g,
            _ => panic!("warp has no active group (unbalanced branch events)"),
        }
    }

    /// `C_t(t)` for an active lane.
    pub fn own_clock(&self) -> Clock {
        self.active().own
    }

    /// `C_t(target)` where `t` is the thread at `lane` of this warp
    /// (which must be active).
    pub fn clock_of(&self, lane: u32, target: Tid, dims: &GridDims) -> Clock {
        let g = self.active();
        let structural = self.clock_of_structural(lane, target, dims);
        match &g.external {
            Some(e) => structural.max(e.get(target.0, dims)),
            None => structural,
        }
    }

    /// The warp/block-structural component of [`WarpClocks::clock_of`],
    /// without the external [`HClock`]. The engine-mode detector uses
    /// this and resolves the external component itself (its external
    /// clocks are keyed by *global* TIDs, which the structural lookup
    /// must not see).
    pub fn clock_of_structural(&self, lane: u32, target: Tid, dims: &GridDims) -> Clock {
        let g = self.active();
        let self_tid = dims.tid_of_lane(self.warp, lane);
        if target == self_tid {
            g.own
        } else if dims.warp_of(target) == self.warp {
            let tl = dims.lane_of(target);
            if g.mask & (1 << tl) != 0 {
                g.own.saturating_sub(1)
            } else {
                g.warp_view.get(tl)
            }
        } else if dims.block_of(target) == dims.block_of(self_tid) {
            g.block_clock
        } else {
            0
        }
    }

    /// The ENDINSN rule: join and fork the active lanes. With shared group
    /// state this is a single increment.
    pub fn endi(&mut self) {
        self.active_mut().own += 1;
    }

    /// The IF rule: split the active group into then/else paths; the then
    /// path is joined-and-forked and starts executing.
    pub fn branch_if(&mut self, then_mask: u32, else_mask: u32) {
        let Frame::Active(g) = self.stack.pop().expect("branch on empty stack") else {
            panic!("branch without active group");
        };
        let pre_mask = g.mask;
        let live = self.live_mask;
        let sibling_view = g.own.saturating_sub(1);
        let child_view = |child_mask: u32, sibling_mask: u32| -> WarpView {
            // Lanes in the sibling were last seen at own-1; lanes outside
            // the pre-branch mask keep the parent's view. Only live lanes
            // matter for uniformity (dead lanes are never looked up).
            let outside = !child_mask & live;
            let mut uniform: Option<Clock> = None;
            let mut per_lane = [0 as Clock; 32];
            let mut needs_per_lane = false;
            for l in 0..32u32 {
                if outside & (1 << l) == 0 {
                    continue;
                }
                let v = if sibling_mask & (1 << l) != 0 {
                    sibling_view
                } else if pre_mask & (1 << l) != 0 {
                    // Lane is in the pre-branch mask but neither child:
                    // cannot happen for well-formed events; treat as sibling.
                    sibling_view
                } else {
                    g.warp_view.get(l)
                };
                per_lane[l as usize] = v;
                match uniform {
                    None => uniform = Some(v),
                    Some(u) if u == v => {}
                    Some(_) => needs_per_lane = true,
                }
            }
            if needs_per_lane {
                WarpView::PerLane(Box::new(per_lane))
            } else {
                WarpView::Uniform(uniform.unwrap_or(0))
            }
        };
        let then_g = GroupState {
            mask: then_mask,
            own: g.own + 1, // join-and-fork of the then lanes
            warp_view: child_view(then_mask, else_mask),
            block_clock: g.block_clock,
            external: g.external.clone(),
        };
        let else_g = GroupState {
            mask: else_mask,
            own: g.own, // frozen until the else event
            warp_view: child_view(else_mask, then_mask),
            block_clock: g.block_clock,
            external: g.external.clone(),
        };
        self.stack.push(Frame::Reconv {
            pre_mask,
            frozen: else_g,
            finished: Vec::new(),
        });
        self.stack.push(Frame::Active(then_g));
    }

    /// The ELSE rule: the then path's final state is set aside; the frozen
    /// else path is joined-and-forked and starts executing.
    pub fn branch_else(&mut self) {
        let Frame::Active(then_final) = self.stack.pop().expect("else on empty stack") else {
            panic!("else without active group");
        };
        let Some(Frame::Reconv {
            frozen, finished, ..
        }) = self.stack.last_mut()
        else {
            panic!("else without open branch");
        };
        finished.push(then_final);
        let mut else_g = frozen.clone();
        else_g.own += 1; // join-and-fork of the newly-active else lanes
        self.stack.push(Frame::Active(else_g));
    }

    /// The FI rule: both paths are finished; the pre-branch lanes rejoin
    /// (bump-to-max) and resume lockstep execution.
    pub fn branch_fi(&mut self) {
        let Frame::Active(else_final) = self.stack.pop().expect("fi on empty stack") else {
            panic!("fi without active group");
        };
        let Some(Frame::Reconv {
            pre_mask, finished, ..
        }) = self.stack.pop()
        else {
            panic!("fi without open branch");
        };
        let mut groups = finished;
        groups.push(else_final);
        let groups: Vec<GroupState> = groups.into_iter().filter(|g| g.mask != 0).collect();
        let merged = if groups.is_empty() {
            // Both paths empty (cannot normally happen): nothing to merge.
            GroupState {
                mask: pre_mask,
                own: 1,
                warp_view: WarpView::Uniform(0),
                block_clock: 0,
                external: None,
            }
        } else {
            let own = groups.iter().map(|g| g.own).max().expect("non-empty") + 1;
            let block_clock = groups
                .iter()
                .map(|g| g.block_clock)
                .max()
                .expect("non-empty");
            // Outside view: per-lane max over the merged groups.
            let mut per_lane = [0 as Clock; 32];
            let mut uniform: Option<Clock> = None;
            let mut needs_per_lane = false;
            for l in 0..32u32 {
                if pre_mask & (1 << l) != 0 || self.live_mask & (1 << l) == 0 {
                    continue;
                }
                let v = groups
                    .iter()
                    .map(|g| {
                        if g.mask & (1 << l) != 0 {
                            // A lane in a sibling group: seen at its own-1.
                            g.own.saturating_sub(1)
                        } else {
                            g.warp_view.get(l)
                        }
                    })
                    .max()
                    .expect("non-empty");
                per_lane[l as usize] = v;
                match uniform {
                    None => uniform = Some(v),
                    Some(u) if u == v => {}
                    Some(_) => needs_per_lane = true,
                }
            }
            let warp_view = if needs_per_lane {
                WarpView::PerLane(Box::new(per_lane))
            } else {
                WarpView::Uniform(uniform.unwrap_or(0))
            };
            let mut external: Option<Arc<HClock>> = None;
            for g in &groups {
                if let Some(e) = &g.external {
                    match &mut external {
                        None => external = Some(Arc::clone(e)),
                        Some(acc) => Arc::make_mut(acc).join(e),
                    }
                }
            }
            GroupState {
                mask: pre_mask,
                own,
                warp_view,
                block_clock,
                external,
            }
        };
        self.stack.push(Frame::Active(merged));
    }

    /// Joins an acquired clock into the active group (all active lanes
    /// performed the acquire). Inflates the PTVC to SPARSEVC if the
    /// acquired clock carries information the structural components cannot
    /// express.
    pub fn acquire(&mut self, h: &HClock) {
        self.active_mut().join_external(h);
    }

    /// Builds the full `C_t` of the thread at `lane` (which must be
    /// active) as a hierarchical clock — the value a release stores into
    /// `S_x`.
    pub fn release_snapshot(&self, lane: u32, dims: &GridDims) -> HClock {
        self.release_snapshot_scoped(lane, dims, 0, 0)
    }

    /// [`WarpClocks::release_snapshot`] with the thread and block keys
    /// offset into an engine's global id space: thread entries are keyed
    /// `tid_base + local`, the block floor `block_base + local block`.
    /// The external clock is joined as-is (in engine mode it is already
    /// globally keyed). With zero bases this is exactly the single-launch
    /// snapshot.
    pub fn release_snapshot_scoped(
        &self,
        lane: u32,
        dims: &GridDims,
        tid_base: u64,
        block_base: u64,
    ) -> HClock {
        let g = self.active();
        let mut h = HClock::new();
        let self_tid = dims.tid_of_lane(self.warp, lane);
        let block = dims.block_of(self_tid);
        h.set_thread(tid_base + self_tid.0, g.own);
        let live = dims.initial_mask(self.warp);
        for l in 0..dims.warp_size {
            if l == lane || live & (1 << l) == 0 {
                continue;
            }
            let t = dims.tid_of_lane(self.warp, l);
            let v = if g.mask & (1 << l) != 0 {
                g.own.saturating_sub(1)
            } else {
                g.warp_view.get(l)
            };
            if v > 0 {
                h.set_thread(tid_base + t.0, v);
            }
        }
        if g.block_clock > 0 {
            h.raise_block(block_base + block, g.block_clock);
        }
        if let Some(e) = &g.external {
            h.join(e);
        }
        h
    }

    /// Increments the active group's own clock (the `incr_t` of the
    /// release rules).
    pub fn bump(&mut self) {
        self.endi();
    }

    /// Resets the warp to CONVERGED after a block barrier: every lane
    /// continues at `block_clock + 1` having seen the whole block at
    /// `block_clock` (§4.3.2 broadcast optimization).
    pub fn barrier_reset(&mut self, block_clock: Clock, external: Option<Arc<HClock>>) {
        let live = match self.stack.first() {
            Some(Frame::Active(g)) => g.mask,
            Some(Frame::Reconv { pre_mask, .. }) => *pre_mask,
            None => 0,
        };
        self.stack.clear();
        self.stack.push(Frame::Active(GroupState {
            mask: live,
            own: block_clock + 1,
            warp_view: WarpView::Uniform(block_clock),
            block_clock,
            external,
        }));
    }

    /// Current stack depth (1 = no open branches).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The Fig. 7 format currently in use.
    pub fn format(&self) -> PtvcFormat {
        let g = self.active();
        if g.external.is_some() {
            return PtvcFormat::SparseVc;
        }
        match (&g.warp_view, self.stack.len()) {
            (WarpView::PerLane(_), _) => PtvcFormat::NestedDiverged,
            (WarpView::Uniform(_), 1) => PtvcFormat::Converged,
            (WarpView::Uniform(_), _) => PtvcFormat::Diverged,
        }
    }

    /// A lane-independent view of [`WarpClocks::clock_of_structural`] for
    /// a CONVERGED warp, or `None` when the warp is diverged or carries an
    /// external clock.
    ///
    /// When the format is [`PtvcFormat::Converged`] the active group is
    /// the sole frame, its mask covers every live lane, and there is no
    /// external [`HClock`] — so the structural clock a lane observes for
    /// any *other* thread does not depend on which lane is asking: warp
    /// mates sit at `own - 1`, in-block threads at `block_clock`, everyone
    /// else at 0. The detector computes this view once per warp record
    /// instead of rebuilding the per-lane closure context `lanes × bytes`
    /// times. The view is only valid for targets that differ from the
    /// querying thread (the detector's state machine resolves
    /// same-thread comparisons before consulting any clock).
    pub fn uniform_view(&self, dims: &GridDims) -> Option<UniformView> {
        if self.stack.len() != 1 {
            return None;
        }
        let g = self.active();
        if g.external.is_some() || !matches!(g.warp_view, WarpView::Uniform(_)) {
            return None;
        }
        let block = dims.block_of_warp(self.warp);
        let warp_lo = dims.tid_of_lane(self.warp, 0).0;
        let block_lo = block * dims.threads_per_block();
        Some(UniformView {
            warp: warp_lo..warp_lo + u64::from(dims.lanes_in_warp(self.warp)),
            block: block_lo..block_lo + dims.threads_per_block(),
            mate_clock: g.own.saturating_sub(1),
            block_clock: g.block_clock,
        })
    }
}

/// The shared structural clock view of a CONVERGED warp (see
/// [`WarpClocks::uniform_view`]): every active lane observes the same
/// clock for any thread other than itself. The warp's and the block's
/// threads are TID ranges, so a lookup is two range tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformView {
    warp: Range<u64>,
    block: Range<u64>,
    mate_clock: Clock,
    block_clock: Clock,
}

impl UniformView {
    /// The structural clock any active lane observes for `target`, which
    /// must be a thread other than the querying lane's own.
    pub fn get(&self, target: Tid) -> Clock {
        if self.warp.contains(&target.0) {
            self.mate_clock
        } else if self.block.contains(&target.0) {
            self.block_clock
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> GridDims {
        // 2 blocks × 6 threads, warp size 3 → 2 warps per block, like the
        // Fig. 7 example (3 threads per warp, 2 warps per block, 2 blocks).
        GridDims::with_warp_size(2u32, 6u32, 2)
    }

    fn dims3() -> GridDims {
        GridDims::with_warp_size(2u32, 6u32, 4) // wide enough for mask 0x7
    }

    #[test]
    fn initial_state_matches_paper() {
        let d = GridDims::with_warp_size(2u32, 6u32, 4);
        let w = WarpClocks::new(0, 0b111);
        assert_eq!(w.format(), PtvcFormat::Converged);
        assert_eq!(w.own_clock(), 1);
        // T1's view: itself at 1, warp mates at 0, everyone else 0.
        assert_eq!(w.clock_of(1, Tid(1), &d), 1);
        assert_eq!(w.clock_of(1, Tid(0), &d), 0);
        assert_eq!(w.clock_of(1, Tid(4), &d), 0);
        assert_eq!(w.clock_of(1, Tid(7), &d), 0);
    }

    #[test]
    fn endi_orders_consecutive_instructions_but_not_same_instruction() {
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        // Instruction 1: lane 0 writes at epoch 1@T0.
        let e1 = w.own_clock(); // 1
        w.endi();
        // Instruction 2: lane 1's view of T0 is 1 → ordered after e1.
        assert!(e1 <= w.clock_of(1, Tid(0), &d));
        // Same-instruction concurrency: lane 1's epoch is 2@T1 while lane
        // 0's view of T1 is 1 < 2.
        assert!(w.own_clock() > w.clock_of(0, Tid(1), &d));
    }

    #[test]
    fn fig7_diverged_format() {
        // 3 lanes, T0 takes one path, T1+T2 the other.
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        w.endi(); // local clock now 2 (mirrors Fig. 7 time 2)
        w.branch_if(0b110, 0b001); // T1,T2 then; T0 else
        assert_eq!(w.format(), PtvcFormat::Diverged);
        let g = w.active();
        assert_eq!(g.mask, 0b110);
        // Active lanes synchronized with the inactive lane at time
        // own-at-branch - 1.
        assert_eq!(w.clock_of(1, Tid(0), &d), 1);
        assert_eq!(w.clock_of(1, Tid(2), &d), g.own - 1);
    }

    #[test]
    fn fig7_nested_diverged_format() {
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        w.branch_if(0b110, 0b001); // outer: {T1,T2} vs {T0}
        w.branch_if(0b010, 0b100); // inner: {T1} vs {T2}
        assert_eq!(w.format(), PtvcFormat::NestedDiverged);
        // T1 sees T0 and T2 at the times they diverged — different values.
        let v0 = w.clock_of(1, Tid(0), &d);
        let v2 = w.clock_of(1, Tid(2), &d);
        assert!(v2 > v0, "inner sibling diverged later than outer sibling");
    }

    #[test]
    fn sparse_vc_after_acquire() {
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        let mut h = HClock::new();
        h.set_thread(7, 6); // T7 from another block released at time 6
        w.acquire(&h);
        assert_eq!(w.format(), PtvcFormat::SparseVc);
        assert_eq!(w.clock_of(1, Tid(7), &d), 6);
        assert_eq!(w.clock_of(1, Tid(8), &d), 0);
    }

    #[test]
    fn uniform_view_matches_structural_clocks_when_converged() {
        let d = dims3();
        // Every warp, the partial last warp of each block included.
        for warp in 0..d.num_warps() {
            // Live mask must match the dims, as BlockState guarantees.
            let mut w = WarpClocks::new(warp, d.initial_mask(warp));
            w.endi();
            w.endi();
            assert_eq!(w.format(), PtvcFormat::Converged);
            let u = w.uniform_view(&d).expect("converged warp has uniform view");
            // Every active lane sees the same structural clock for every
            // other thread: warp mates, in-block threads, foreign-block
            // threads.
            for lane in 0..d.lanes_in_warp(warp) {
                let self_tid = d.tid_of_lane(warp, lane);
                for t in 0..d.total_threads() {
                    let t = Tid(t);
                    if t == self_tid {
                        continue;
                    }
                    assert_eq!(
                        u.get(t),
                        w.clock_of_structural(lane, t, &d),
                        "warp {warp} lane {lane} target {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_view_absent_when_diverged_or_external() {
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        assert!(w.uniform_view(&d).is_some());
        w.branch_if(0b011, 0b100);
        assert!(w.uniform_view(&d).is_none(), "diverged warp");
        w.branch_else();
        w.branch_fi();
        assert!(w.uniform_view(&d).is_some(), "reconverged warp");
        let mut h = HClock::new();
        h.set_thread(9, 4);
        w.acquire(&h);
        assert!(w.uniform_view(&d).is_none(), "external clock present");
    }

    #[test]
    fn uniform_view_after_barrier_reset() {
        let d = dims();
        let mut w = WarpClocks::new(0, 0b11);
        w.branch_if(0b01, 0b10);
        w.branch_else();
        w.branch_fi();
        w.barrier_reset(7, None);
        let u = w.uniform_view(&d).expect("barrier reconverges the warp");
        // Warp mates at own-1 = block_clock + 1 - 1; in-block at the
        // broadcast clock; other blocks unseen.
        assert_eq!(u.get(Tid(1)), 7);
        assert_eq!(u.get(Tid(2)), 7);
        assert_eq!(u.get(Tid(6)), 0);
    }

    #[test]
    fn if_else_fi_round_trip_restores_lockstep() {
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        w.branch_if(0b011, 0b100);
        let then_own = w.own_clock();
        w.endi(); // work on then path
        w.branch_else();
        let else_own = w.own_clock();
        assert!(else_own > 1);
        w.branch_fi();
        assert_eq!(w.depth(), 1);
        assert_eq!(w.active().mask, 0b111);
        // Merged own exceeds both paths.
        assert!(w.own_clock() > then_own + 1);
        assert!(w.own_clock() > else_own);
        // After fi, mates are synchronized at own-1.
        assert_eq!(w.clock_of(0, Tid(2), &d), w.own_clock() - 1);
        let _ = d;
    }

    #[test]
    fn divergent_paths_are_concurrent() {
        // Branch-ordering: a write on the then path must NOT be ordered
        // before the else path.
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        w.branch_if(0b011, 0b100);
        let then_epoch = w.own_clock(); // epoch of a then-path write by T0
        w.endi();
        w.branch_else();
        // T2 (else path) must not have seen T0 at then_epoch.
        assert!(w.clock_of(2, Tid(0), &d) < then_epoch);
    }

    #[test]
    fn after_fi_paths_are_ordered() {
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        w.branch_if(0b011, 0b100);
        let then_epoch = w.own_clock();
        w.endi();
        w.branch_else();
        w.endi();
        w.branch_fi();
        // Everyone now sees the then write.
        assert!(w.clock_of(2, Tid(0), &d) >= then_epoch);
        assert!(w.clock_of(0, Tid(2), &d) >= 1);
    }

    #[test]
    fn empty_else_path() {
        let mut w = WarpClocks::new(0, 0b111);
        w.branch_if(0b111, 0);
        w.endi();
        w.branch_else();
        w.branch_fi();
        assert_eq!(w.depth(), 1);
        assert_eq!(w.active().mask, 0b111);
    }

    #[test]
    fn barrier_reset_broadcasts_block_clock() {
        let d = dims();
        let mut w = WarpClocks::new(0, 0b11);
        w.endi();
        w.endi();
        w.barrier_reset(10, None);
        assert_eq!(w.format(), PtvcFormat::Converged);
        assert_eq!(w.own_clock(), 11);
        // Sees the whole block (e.g. T4 in warp 1 of block 0) at 10.
        assert_eq!(w.clock_of(0, Tid(4), &d), 10);
        // Other blocks still unseen.
        assert_eq!(w.clock_of(0, Tid(6), &d), 0);
    }

    #[test]
    fn release_snapshot_reflects_full_view() {
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        w.endi();
        w.endi(); // own = 3
        let mut h = HClock::new();
        h.set_thread(9, 4);
        w.acquire(&h);
        let snap = w.release_snapshot(1, &d);
        assert_eq!(snap.get(1, &d), 3, "own clock");
        assert_eq!(snap.get(0, &d), 2, "mates at own-1");
        assert_eq!(snap.get(9, &d), 4, "external entries carried through");
        assert_eq!(snap.get(5, &d), 0);
    }

    #[test]
    fn invariant_own_exceeds_all_other_views() {
        // C_t(t) > C_u(t) for u ≠ t across branch shapes.
        let d = dims3();
        let mut w = WarpClocks::new(0, 0b111);
        for _ in 0..3 {
            w.endi();
        }
        w.branch_if(0b011, 0b100);
        w.endi();
        // Active lane 0's own vs active lane 1's view of T0.
        assert!(w.own_clock() > w.clock_of(1, Tid(0), &d));
        w.branch_else();
        // Else lane 2's view of T0 must be below T0's own (which froze at
        // the then path's final own).
        assert!(w.clock_of(2, Tid(0), &d) < 100);
        w.branch_fi();
        assert!(w.own_clock() > w.clock_of(1, Tid(0), &d));
    }

    #[test]
    #[should_panic(expected = "fi without open branch")]
    fn unbalanced_fi_panics() {
        let mut w = WarpClocks::new(0, 0b11);
        w.branch_fi(); // no open branch: pops the base Active frame, then panics
        let _ = w.active();
    }
}
