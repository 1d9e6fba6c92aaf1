//! Reference detector with *uncompressed* per-thread vector clocks.
//!
//! Implements the operational semantics of Figs. 2–3 literally: one dense
//! [`VectorClock`] per thread, exact joins (`⊔`) and per-thread
//! increments, a dense per-block clock array per synchronization location,
//! and always-map read metadata. It is exponentially more expensive than
//! the compressed detector (O(threads²) clock state) and exists to
//! validate that BARRACUDA's PTVC compression is lossless: on any event
//! stream both detectors must report the same set of racing locations.
//! (Clock *values* differ — the compressed detector bumps rejoining lanes
//! to a common clock — but verdicts cannot: threads skip clock values at
//! which they perform no operations.)

use crate::clock::{Clock, VectorClock};
use crate::report::{AccessType, Diagnostic, RaceClass, RaceReport, RaceSink};
use barracuda_trace::ops::{AccessKind, Event, Scope};
use barracuda_trace::{GridDims, MemSpace, Tid};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Loc {
    shared: bool,
    block: u64,
    byte: u64,
}

#[derive(Debug, Default, Clone)]
struct RefCell {
    write: Option<(Clock, u32, bool)>, // (clock, tid, atomic)
    /// Ascending TID order: a write racing with several readers reports
    /// the lowest racing TID, as the compressed detector does.
    readers: BTreeMap<u32, Clock>,
}

/// The uncompressed reference detector.
#[derive(Debug)]
pub struct ReferenceDetector {
    dims: GridDims,
    clocks: Vec<VectorClock>,
    /// Mask stack per warp (`K_w`).
    stacks: Vec<Vec<u32>>,
    shadow: HashMap<Loc, RefCell>,
    /// `S_x`: per-location, per-block vector clocks.
    sync: HashMap<Loc, Vec<VectorClock>>,
    arrived: Vec<Option<u32>>,
    exited: Vec<bool>,
    races: RaceSink,
    liberal_releases: bool,
}

impl ReferenceDetector {
    /// A detector implementing the §3.2 *definition* of synchronization
    /// order rather than the Fig. 3 rules: an acquire synchronizes with
    /// **every** earlier release of the location (releases *join into*
    /// `S_x` instead of assigning it).
    ///
    /// The paper's operational rules assign (`S'_x[b] := C_t`, as in
    /// FastTrack, where lock mutual exclusion makes the two equivalent);
    /// for bare flag releases from unordered threads the assignment drops
    /// the earlier release and the algorithm reports a race the definition
    /// would order. This oracle pins that asymmetry: its races are always
    /// a subset of the rule-based detector's, with equality whenever each
    /// synchronization location has a single releasing thread. See
    /// `tests/oracle.rs` and DESIGN.md.
    pub fn definition_oracle(dims: GridDims) -> Self {
        let mut r = Self::new(dims);
        r.liberal_releases = true;
        r
    }

    /// Creates the reference detector. Only feasible for small launches.
    pub fn new(dims: GridDims) -> Self {
        let n = dims.total_threads() as usize;
        let mut clocks = vec![VectorClock::bottom(n); n];
        for (t, c) in clocks.iter_mut().enumerate() {
            c.inc(t); // C_t = inc_t(⊥)
        }
        let stacks = (0..dims.num_warps())
            .map(|w| vec![dims.initial_mask(w)])
            .collect();
        ReferenceDetector {
            dims,
            clocks,
            stacks,
            shadow: HashMap::new(),
            sync: HashMap::new(),
            arrived: vec![None; dims.num_warps() as usize],
            exited: vec![false; dims.num_warps() as usize],
            races: RaceSink::new(),
            liberal_releases: false,
        }
    }

    /// The collected races.
    pub fn races(&self) -> &RaceSink {
        &self.races
    }

    /// The current clock of thread `t` (for invariant tests).
    pub fn clock(&self, t: Tid) -> &VectorClock {
        &self.clocks[t.0 as usize]
    }

    fn tids_of_mask(&self, warp: u64, mask: u32) -> Vec<usize> {
        (0..self.dims.warp_size)
            .filter(|l| mask & (1 << l) != 0)
            .map(|l| self.dims.tid_of_lane(warp, l).0 as usize)
            .collect()
    }

    /// ENDINSN / IF / ELSEENDIF / BAR all share this: join the clocks of
    /// `tids`, then fork each member from the join.
    fn join_fork(&mut self, tids: &[usize]) {
        if tids.is_empty() {
            return;
        }
        let mut vc = VectorClock::bottom(self.clocks.len());
        for &t in tids {
            vc.join(&self.clocks[t]);
        }
        for &t in tids {
            let mut c = vc.clone();
            c.inc(t);
            self.clocks[t] = c;
        }
    }

    fn loc(&self, space: MemSpace, warp: u64, byte: u64) -> Loc {
        Loc {
            shared: space == MemSpace::Shared,
            block: if space == MemSpace::Shared {
                self.dims.block_of_warp(warp)
            } else {
                0
            },
            byte,
        }
    }

    fn check_access(
        &mut self,
        warp: u64,
        lane: u32,
        space: MemSpace,
        addr: u64,
        size: u8,
        atype: AccessType,
    ) {
        let t = self.dims.tid_of_lane(warp, lane);
        let ti = t.0 as usize;
        let own = self.clocks[ti].get(ti);
        let mut first_race: Option<(u32, AccessType)> = None;
        for byte in addr..addr + u64::from(size) {
            let loc = self.loc(space, warp, byte);
            let ct = self.clocks[ti].clone();
            let cell = self.shadow.entry(loc).or_default();
            let mut race = None;
            let write_ordered = match cell.write {
                None => true,
                Some((c, wt, _)) => wt == ti as u32 || c <= ct.get(wt as usize),
            };
            match atype {
                AccessType::Read => {
                    if !write_ordered {
                        let (_, wt, at) = cell.write.expect("checked");
                        race = Some((
                            wt,
                            if at {
                                AccessType::Atomic
                            } else {
                                AccessType::Write
                            },
                        ));
                    }
                    cell.readers.insert(ti as u32, own);
                }
                AccessType::Write | AccessType::Atomic => {
                    let prev_atomic = cell.write.is_some_and(|(_, _, a)| a);
                    let skip_write_check = atype == AccessType::Atomic && prev_atomic;
                    if !skip_write_check && !write_ordered {
                        let (_, wt, at) = cell.write.expect("checked");
                        race = Some((
                            wt,
                            if at {
                                AccessType::Atomic
                            } else {
                                AccessType::Write
                            },
                        ));
                    }
                    if race.is_none() {
                        for (&rt, &rc) in &cell.readers {
                            if rt != ti as u32 && rc > ct.get(rt as usize) {
                                race = Some((rt, AccessType::Read));
                                break;
                            }
                        }
                    }
                    cell.write = Some((own, ti as u32, atype == AccessType::Atomic));
                    cell.readers.clear();
                }
            }
            if first_race.is_none() {
                first_race = race;
            }
        }
        if let Some((prev, ptype)) = first_race {
            let prev_t = Tid(u64::from(prev));
            let class = if self.dims.warp_of(prev_t) == warp {
                // Active mask of the warp decides intra-warp vs divergence.
                let mask = *self.stacks[warp as usize].last().expect("non-empty stack");
                if mask & (1 << self.dims.lane_of(prev_t)) != 0 {
                    RaceClass::IntraWarp
                } else {
                    RaceClass::Divergence
                }
            } else if self.dims.block_of(prev_t) == self.dims.block_of(t) {
                RaceClass::IntraBlock
            } else {
                RaceClass::InterBlock
            };
            self.races.report(RaceReport {
                space,
                block: (space == MemSpace::Shared).then(|| self.dims.block_of(t)),
                addr,
                current: (t, atype),
                previous: (prev_t, ptype),
                class,
            });
        }
    }

    fn process_sync(
        &mut self,
        warp: u64,
        mask: u32,
        space: MemSpace,
        addrs: &[u64; 32],
        acquire: Option<Scope>,
        release: Option<Scope>,
    ) {
        let block = self.dims.block_of_warp(warp) as usize;
        let nblocks = self.dims.num_blocks() as usize;
        let n = self.clocks.len();
        for lane in 0..self.dims.warp_size {
            if mask & (1 << lane) == 0 {
                continue;
            }
            let ti = self.dims.tid_of_lane(warp, lane).0 as usize;
            let loc = self.loc(space, warp, addrs[lane as usize]);
            let slots = self
                .sync
                .entry(loc)
                .or_insert_with(|| vec![VectorClock::bottom(n); nblocks]);
            if let Some(scope) = acquire {
                let mut acc = VectorClock::bottom(n);
                match scope {
                    Scope::Block => acc.join(&slots[block]),
                    Scope::Global => {
                        for s in slots.iter() {
                            acc.join(s);
                        }
                    }
                }
                self.clocks[ti].join(&acc);
            }
            if let Some(scope) = release {
                let snap = self.clocks[ti].clone();
                let liberal = self.liberal_releases;
                let slots = self.sync.get_mut(&loc).expect("just inserted");
                let assign = |slot: &mut VectorClock, snap: &VectorClock| {
                    if liberal {
                        slot.join(snap); // definition: all earlier releases remain visible
                    } else {
                        *slot = snap.clone(); // Fig. 3: assignment
                    }
                };
                match scope {
                    Scope::Block => assign(&mut slots[block], &snap),
                    Scope::Global => {
                        for s in slots.iter_mut() {
                            assign(s, &snap);
                        }
                    }
                }
                self.clocks[ti].inc(ti);
            }
        }
    }

    fn try_barrier(&mut self, block: u64) {
        let wpb = self.dims.warps_per_block();
        let base = (block * wpb) as usize;
        let range = base..base + wpb as usize;
        if !range
            .clone()
            .all(|i| self.exited[i] || self.arrived[i].is_some())
        {
            return;
        }
        if !range.clone().any(|i| self.arrived[i].is_some()) {
            return;
        }
        let mut divergence = false;
        for i in range.clone() {
            match (self.exited[i], self.arrived[i]) {
                (true, _) => divergence = true,
                (false, Some(m)) if m != self.dims.initial_mask(i as u64) => divergence = true,
                _ => {}
            }
        }
        if divergence {
            self.races.diagnose(Diagnostic::BarrierDivergence { block });
        }
        // BAR: join-fork all threads of the arrived warps.
        let mut tids = Vec::new();
        for i in range.clone() {
            if self.arrived[i].is_some() {
                let w = i as u64;
                tids.extend(self.tids_of_mask(w, self.dims.initial_mask(w)));
            }
        }
        self.join_fork(&tids);
        for i in range {
            self.arrived[i] = None;
        }
    }

    /// Processes one warp-level event (same input as the compressed
    /// detector's worker).
    pub fn process_event(&mut self, ev: &Event) {
        match ev {
            Event::Access {
                warp,
                kind,
                space,
                mask,
                addrs,
                size,
            } => {
                match kind {
                    AccessKind::Read | AccessKind::Write | AccessKind::Atomic => {
                        let atype = match kind {
                            AccessKind::Read => AccessType::Read,
                            AccessKind::Write => AccessType::Write,
                            _ => AccessType::Atomic,
                        };
                        for lane in 0..self.dims.warp_size {
                            if mask & (1 << lane) != 0 {
                                self.check_access(
                                    *warp,
                                    lane,
                                    *space,
                                    addrs[lane as usize],
                                    *size,
                                    atype,
                                );
                            }
                        }
                    }
                    AccessKind::Acquire(s) => {
                        self.process_sync(*warp, *mask, *space, addrs, Some(*s), None);
                    }
                    AccessKind::Release(s) => {
                        self.process_sync(*warp, *mask, *space, addrs, None, Some(*s));
                    }
                    AccessKind::AcquireRelease(s) => {
                        self.process_sync(*warp, *mask, *space, addrs, Some(*s), Some(*s));
                    }
                }
                // ENDINSN: join-fork the warp's currently-active lanes
                // (`amask = K_w.peek()`), not merely the event's lanes.
                let active = *self.stacks[*warp as usize].last().expect("non-empty stack");
                let tids = self.tids_of_mask(*warp, active);
                self.join_fork(&tids);
            }
            Event::If {
                warp,
                then_mask,
                else_mask,
            } => {
                let w = *warp as usize;
                self.stacks[w].push(*else_mask);
                self.stacks[w].push(*then_mask);
                let tids = self.tids_of_mask(*warp, *then_mask);
                self.join_fork(&tids);
            }
            Event::Else { warp } | Event::Fi { warp } => {
                let w = *warp as usize;
                self.stacks[w].pop();
                let mask = *self.stacks[w].last().expect("unbalanced branch events");
                let tids = self.tids_of_mask(*warp, mask);
                self.join_fork(&tids);
            }
            Event::Bar { warp, mask } => {
                self.arrived[*warp as usize] = Some(*mask);
                self.try_barrier(self.dims.block_of_warp(*warp));
            }
            Event::Exit { warp, .. } => {
                self.exited[*warp as usize] = true;
                self.try_barrier(self.dims.block_of_warp(*warp));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> GridDims {
        GridDims::with_warp_size(2u32, 8u32, 4)
    }

    fn write(warp: u64, mask: u32, addr: u64) -> Event {
        Event::Access {
            warp,
            kind: AccessKind::Write,
            space: MemSpace::Global,
            mask,
            addrs: [addr; 32],
            size: 4,
        }
    }

    #[test]
    fn detects_inter_block_race() {
        let mut r = ReferenceDetector::new(dims());
        r.process_event(&write(0, 0b0001, 0x100));
        r.process_event(&write(2, 0b0001, 0x100));
        assert_eq!(r.races().race_count(), 1);
    }

    #[test]
    fn lockstep_instructions_ordered() {
        let mut r = ReferenceDetector::new(dims());
        r.process_event(&write(0, 0b0001, 0x100));
        r.process_event(&write(0, 0b0010, 0x100));
        assert_eq!(r.races().race_count(), 0);
    }

    #[test]
    fn barrier_synchronizes_block() {
        let mut r = ReferenceDetector::new(dims());
        r.process_event(&write(0, 0b0001, 0x100));
        r.process_event(&Event::Bar {
            warp: 0,
            mask: 0b1111,
        });
        r.process_event(&Event::Bar {
            warp: 1,
            mask: 0b1111,
        });
        r.process_event(&write(1, 0b0001, 0x100));
        assert_eq!(r.races().race_count(), 0);
    }

    #[test]
    fn branch_paths_concurrent_then_ordered_after_fi() {
        let mut r = ReferenceDetector::new(dims());
        r.process_event(&Event::If {
            warp: 0,
            then_mask: 0b0011,
            else_mask: 0b1100,
        });
        r.process_event(&write(0, 0b0011, 0x100));
        r.process_event(&Event::Else { warp: 0 });
        r.process_event(&write(0, 0b0100, 0x100));
        assert_eq!(r.races().race_count(), 1, "divergent paths race");
        r.process_event(&Event::Fi { warp: 0 });
        r.process_event(&write(0, 0b1000, 0x200));
        assert_eq!(r.races().race_count(), 1, "post-fi writes are ordered");
    }

    #[test]
    fn fasttrack_invariant_own_entry_dominates() {
        let d = dims();
        let mut r = ReferenceDetector::new(d);
        r.process_event(&write(0, 0b1111, 0x100));
        r.process_event(&Event::If {
            warp: 0,
            then_mask: 0b0011,
            else_mask: 0b1100,
        });
        r.process_event(&write(0, 0b0011, 0x200));
        r.process_event(&Event::Else { warp: 0 });
        r.process_event(&Event::Fi { warp: 0 });
        for t in 0..d.total_threads() {
            for u in 0..d.total_threads() {
                if t != u {
                    assert!(
                        r.clock(Tid(t)).get(t as usize) > r.clock(Tid(u)).get(t as usize),
                        "C_{t}({t}) must exceed C_{u}({t})"
                    );
                }
            }
        }
    }
}
