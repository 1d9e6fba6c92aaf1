//! A model of NVIDIA's CUDA-Racecheck tool, the paper's comparator
//! (§6.1).
//!
//! The paper reports Racecheck correct on only 19 of the 66 suite
//! programs, for three documented reasons, each of which this model
//! reproduces faithfully:
//!
//! 1. **Shared memory only** — Racecheck is "a run time shared memory data
//!    access hazard detector"; every global-memory race is invisible to
//!    it.
//! 2. **No warp-lockstep awareness** — it reports *hazards* between
//!    threads within a barrier interval, including warp-synchronous
//!    accesses that lockstep execution actually orders, and same-value
//!    writes ("sometimes reporting races where there are none, with
//!    intra-warp synchronization").
//! 3. **Hangs on spin loops** — its serializing instrumentation deadlocks
//!    on inter-thread busy-waiting ("even hanging on the tests involving
//!    spinlocks"). Modeled with a static spin-loop heuristic: a
//!    conditional backward branch whose loop body re-reads global memory
//!    or retries an `atom.cas`.
//!
//! The absolute count differs from the paper's 19/66 because the suite
//! composition differs (see `EXPERIMENTS.md`), but all three failure
//! modes are demonstrated and BARRACUDA's 66/66 stands against a
//! substantially lower Racecheck score.

#![warn(missing_docs)]

use barracuda_ptx::ast::{AtomOp, Module, Op, Space, Statement};
use barracuda_simt::{Gpu, GpuConfig, SimError, VecSink};
use barracuda_suite::{Expectation, SuiteProgram, KERNEL};
use barracuda_trace::ops::{AccessKind, Event, MemSpace};
use barracuda_trace::GridDims;
use std::collections::HashMap;

/// Racecheck's verdict for a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RcVerdict {
    /// At least one shared-memory hazard reported.
    Race,
    /// No hazards reported.
    NoRace,
    /// The tool hung (spin loop under serializing instrumentation, or a
    /// barrier-divergence hang).
    Hang,
    /// Simulation failure.
    Error(String),
}

/// Static spin-loop detection: a guarded backward branch whose loop body
/// contains a global/generic load or a compare-and-swap.
pub fn spin_hang_heuristic(module: &Module, kernel: &str) -> bool {
    let Some(k) = module.kernel(kernel) else {
        return false;
    };
    // Map labels to statement indices.
    let mut label_at: HashMap<&str, usize> = HashMap::new();
    for (i, s) in k.stmts.iter().enumerate() {
        if let Statement::Label(l) = s {
            label_at.insert(l.as_str(), i);
        }
    }
    for (i, s) in k.stmts.iter().enumerate() {
        let Statement::Instr(instr) = s else { continue };
        let Op::Bra { target, .. } = &instr.op else {
            continue;
        };
        if instr.guard.is_none() {
            continue;
        }
        let Some(&t) = label_at.get(target.as_str()) else {
            continue;
        };
        if t >= i {
            continue; // forward branch
        }
        // Loop body: statements t..i.
        for body in &k.stmts[t..i] {
            let Statement::Instr(bi) = body else { continue };
            match &bi.op {
                Op::Ld {
                    space: Space::Global | Space::Generic,
                    ..
                } => return true,
                Op::Atom {
                    op: AtomOp::Cas, ..
                } => return true,
                _ => {}
            }
        }
    }
    false
}

/// The barrier-interval hazard detector over shared-memory accesses.
#[derive(Debug, Default)]
pub struct IntervalDetector {
    /// Current barrier interval per block.
    intervals: HashMap<u64, u32>,
    /// Barrier arrivals per block (warps counted, masks ignored —
    /// Racecheck has no divergence analysis).
    arrivals: HashMap<u64, u64>,
    /// Per (block, byte): last write `(tid, interval, atomic)` and reader
    /// list `(tid, interval)`.
    last_write: HashMap<(u64, u64), (u64, u32, bool)>,
    readers: HashMap<(u64, u64), Vec<(u64, u32)>>,
    hazards: usize,
}

impl IntervalDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hazards reported so far.
    pub fn hazard_count(&self) -> usize {
        self.hazards
    }

    /// Processes one warp-level event.
    pub fn process(&mut self, ev: &Event, dims: &GridDims) {
        match ev {
            Event::Bar { warp, .. } => {
                let block = dims.block_of_warp(*warp);
                let a = self.arrivals.entry(block).or_insert(0);
                *a += 1;
                if *a == dims.warps_per_block() {
                    *a = 0;
                    *self.intervals.entry(block).or_insert(0) += 1;
                }
            }
            Event::Access {
                warp,
                kind,
                space,
                mask,
                addrs,
                size,
            } => {
                if *space != MemSpace::Shared {
                    return; // global memory is invisible to Racecheck
                }
                let block = dims.block_of_warp(*warp);
                let interval = self.intervals.get(&block).copied().unwrap_or(0);
                let (is_read, is_atomic) = match kind {
                    AccessKind::Read => (true, false),
                    AccessKind::Write => (false, false),
                    AccessKind::Atomic => (false, true),
                    // Racecheck has no fence/acquire-release analysis:
                    // sync accesses are just loads/stores/atomics to it.
                    AccessKind::Acquire(_) => (true, false),
                    AccessKind::Release(_) => (false, false),
                    AccessKind::AcquireRelease(_) => (false, true),
                };
                for lane in 0..dims.warp_size {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let tid = dims.tid_of_lane(*warp, lane).0;
                    let base = addrs[lane as usize];
                    for byte in base..base + u64::from(*size) {
                        let key = (block, byte);
                        if is_read {
                            if let Some(&(wt, wi, _)) = self.last_write.get(&key) {
                                if wt != tid && wi == interval {
                                    self.hazards += 1; // RAW hazard
                                }
                            }
                            self.readers.entry(key).or_default().push((tid, interval));
                        } else {
                            if let Some(&(wt, wi, wa)) = self.last_write.get(&key) {
                                // Atomic-atomic pairs are not hazards.
                                if wt != tid && wi == interval && !(wa && is_atomic) {
                                    self.hazards += 1; // WAW hazard
                                }
                            }
                            if let Some(rs) = self.readers.get(&key) {
                                if rs.iter().any(|&(rt, ri)| rt != tid && ri == interval) {
                                    self.hazards += 1; // WAR hazard
                                }
                            }
                            self.last_write.insert(key, (tid, interval, is_atomic));
                            self.readers.remove(&key);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Runs Racecheck on one suite program.
pub fn check_program(p: &SuiteProgram) -> RcVerdict {
    let module = match barracuda_ptx::parse(&p.source) {
        Ok(m) => m,
        Err(e) => return RcVerdict::Error(e.to_string()),
    };
    if spin_hang_heuristic(&module, KERNEL) {
        return RcVerdict::Hang;
    }
    let mut gpu = Gpu::new(GpuConfig {
        native_access_logging: true,
        filter_same_value: false,
        ..GpuConfig::default()
    });
    let params = gpu.alloc_args(&p.args);
    let sink = VecSink::new();
    match gpu.launch_with_sink(&module, KERNEL, p.dims, &params, &sink) {
        Ok(_) => {}
        Err(SimError::BarrierDivergence { .. }) => return RcVerdict::Hang,
        Err(e) => return RcVerdict::Error(e.to_string()),
    }
    let mut det = IntervalDetector::new();
    for rec in sink.take() {
        det.process(&rec.decode(), &p.dims);
    }
    if det.hazard_count() > 0 {
        RcVerdict::Race
    } else {
        RcVerdict::NoRace
    }
}

/// True when Racecheck's verdict matches the program's expectation
/// (a hang is never correct).
pub fn correct_on(p: &SuiteProgram) -> bool {
    matches!(
        (check_program(p), p.expected),
        (RcVerdict::Race, Expectation::Race) | (RcVerdict::NoRace, Expectation::NoRace)
    )
}

/// Racecheck's score over the whole suite: `(correct, total)`.
pub fn suite_score() -> (usize, usize) {
    let programs = barracuda_suite::all_programs();
    let total = programs.len();
    let correct = programs.iter().filter(|p| correct_on(p)).count();
    (correct, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use barracuda_suite::program;

    #[test]
    fn misses_global_memory_races() {
        let p = program("global_ww_interblock_race").unwrap();
        assert_eq!(
            check_program(&p),
            RcVerdict::NoRace,
            "global races are invisible"
        );
    }

    #[test]
    fn detects_shared_memory_races() {
        let p = program("shared_ww_interwarp_race").unwrap();
        assert_eq!(check_program(&p), RcVerdict::Race);
    }

    #[test]
    fn respects_barrier_intervals() {
        let p = program("shared_ww_barrier_norace").unwrap();
        assert_eq!(check_program(&p), RcVerdict::NoRace);
    }

    #[test]
    fn false_positive_on_warp_synchronous_code() {
        // Lockstep execution orders these accesses; Racecheck reports a
        // hazard anyway (the paper's intra-warp false positive).
        let p = program("warp_synchronous_shuffle_norace").unwrap();
        assert_eq!(check_program(&p), RcVerdict::Race);
        assert!(!correct_on(&p));
    }

    #[test]
    fn false_positive_on_same_value_writes() {
        let p = program("shared_intrawarp_samevalue_norace").unwrap();
        assert_eq!(check_program(&p), RcVerdict::Race);
    }

    #[test]
    fn hangs_on_spinlocks() {
        for name in [
            "spinlock_gl_fences_norace",
            "spinlock_unfenced_cas_race",
            "shared_spinlock_norace",
        ] {
            let p = program(name).unwrap();
            assert_eq!(check_program(&p), RcVerdict::Hang, "{name}");
        }
    }

    #[test]
    fn hangs_on_flag_spin_loops() {
        let p = program("global_flag_gl_fences_norace").unwrap();
        assert_eq!(check_program(&p), RcVerdict::Hang);
    }

    #[test]
    fn no_spin_heuristic_on_counted_loops() {
        // The shared-memory reduction loop is bounded by a register
        // counter, not a global load: no hang.
        let p = program("reduction_barriers_norace").unwrap();
        assert_ne!(check_program(&p), RcVerdict::Hang);
    }

    #[test]
    fn barrier_divergence_hangs_the_tool() {
        let p = program("barrier_divergence_conditional").unwrap();
        assert_eq!(check_program(&p), RcVerdict::Hang);
    }

    #[test]
    fn score_is_far_below_barracuda() {
        let (correct, total) = suite_score();
        assert_eq!(total, 66);
        assert!(
            correct < 45,
            "racecheck must be substantially worse than 66/66, got {correct}"
        );
        assert!(
            correct > 10,
            "the model should still pass the easy cases, got {correct}"
        );
    }
}
