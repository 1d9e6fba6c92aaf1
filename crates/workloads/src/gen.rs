//! The synthetic-kernel generator.

use crate::Scale;
use barracuda_ptx::ast::{
    Address, AtomOp, BinOp, CmpOp, FenceLevel, Module, MulMode, Op, Operand, RegClass, Type,
};
use barracuda_ptx::KernelBuilder;
use barracuda_simt::{Gpu, ParamValue};
use barracuda_trace::GridDims;

/// Read-only region size in 4-byte words (power of two).
const RO_WORDS: u64 = 1024;

/// Idiomatic code injected for benchmarks whose races/synchronization the
/// paper describes specifically (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceSite {
    /// Direct conflicting write pairs across blocks 0 and 1.
    PlantedGlobal(u32),
    /// Direct conflicting intra-warp write pairs in block 0's shared
    /// memory.
    PlantedShared(u32),
    /// The GPU-TM hashtable bugs: an unfenced `atomicCAS` lock with a
    /// plain-store unlock protecting two words → 3 global racy locations.
    Hashtable,
    /// SHOC BFS: unsynchronized distance updates plus a flag set to 1
    /// from multiple blocks → 3 global racy locations.
    ShocBfs,
    /// The threadFenceReduction pattern: fenced atomic ticket; race-free
    /// by itself.
    ThreadFence,
}

/// Generator configuration for one benchmark.
#[derive(Debug, Clone)]
pub struct GenCfg {
    /// Kernel / benchmark name.
    pub name: &'static str,
    /// Paper's static instruction count (column 2).
    pub target_insns: u32,
    /// Paper's thread count (column 3).
    pub threads: u64,
    /// Threads per block (power of two).
    pub tpb: u32,
    /// Fraction of instructions that are memory accesses (drives Fig. 9).
    pub mem_frac: f64,
    /// Reads per write in the access mix.
    pub reads_per_write: u32,
    /// Shared-memory staging rounds with barriers.
    pub barrier_rounds: u32,
    /// Include a global atomic counter.
    pub atomics: bool,
    /// Divergent (but race-free) branch regions.
    pub branches: u32,
    /// Race content.
    pub sites: Vec<RaceSite>,
    /// Issue one quarter of the reads as `ld.v4` vector loads
    /// (bandwidth-style kernels).
    pub use_vector: bool,
    /// Include a warp-shuffle butterfly round (compute-style warp
    /// primitives, register-only).
    pub use_shfl: bool,
}

/// A generated, launchable workload.
#[derive(Debug, Clone)]
pub struct WorkloadInstance {
    /// Benchmark name.
    pub name: String,
    /// The generated PTX module.
    pub module: Module,
    /// Entry name to launch.
    pub kernel: String,
    /// Launch dimensions.
    pub dims: GridDims,
    /// Bytes to allocate for the single buffer parameter.
    pub buf_bytes: u64,
    /// Distinct racy global-memory locations planted.
    pub expected_global_races: u32,
    /// Distinct racy shared-memory locations planted.
    pub expected_shared_races: u32,
}

impl WorkloadInstance {
    /// Allocates the device buffer and returns the launch parameters.
    pub fn alloc_params(&self, gpu: &mut Gpu) -> Vec<ParamValue> {
        vec![ParamValue::Ptr(gpu.malloc(self.buf_bytes))]
    }

    /// The module as PTX text.
    pub fn ptx(&self) -> String {
        barracuda_ptx::printer::print_module(&self.module)
    }

    /// Total expected racy locations.
    pub fn expected_races(&self) -> u32 {
        self.expected_global_races + self.expected_shared_races
    }
}

struct Emitter {
    b: KernelBuilder,
    acc: barracuda_ptx::Reg,
    scratch: barracuda_ptx::Reg,
    lin: barracuda_ptx::Reg,
    tidx: barracuda_ptx::Reg,
    ctaid: barracuda_ptx::Reg,
    buf: barracuda_ptx::Reg,
    my: barracuda_ptx::Reg,
    ro: barracuda_ptx::Reg,
    pad_salt: i64,
}

impl Emitter {
    fn pad_alu(&mut self, n: usize) {
        for i in 0..n {
            self.pad_salt = self.pad_salt.wrapping_mul(0x9e37).wrapping_add(1) & 0xffff;
            let op = match i % 4 {
                0 => BinOp::Add,
                1 => BinOp::Xor,
                2 => BinOp::And,
                _ => BinOp::Or,
            };
            self.b.push(Op::Bin {
                op,
                ty: Type::B32,
                dst: self.acc,
                a: Operand::Reg(self.acc),
                b: Operand::Imm(self.pad_salt | 1),
            });
        }
    }
}

/// Generates the workload for `cfg` under `scale`.
#[allow(clippy::too_many_lines)]
pub fn generate(cfg: &GenCfg, scale: &Scale) -> WorkloadInstance {
    // --- scale the launch ---
    let tpb = cfg.tpb;
    let mut threads = cfg.threads.min(scale.max_threads);
    let min_blocks = if cfg.sites.iter().any(|s| {
        matches!(
            s,
            RaceSite::PlantedGlobal(_) | RaceSite::Hashtable | RaceSite::ShocBfs
        )
    }) {
        2
    } else {
        1
    };
    threads = threads.max(u64::from(tpb) * min_blocks);
    let blocks = (threads / u64::from(tpb)).max(min_blocks);
    let threads = blocks * u64::from(tpb);
    let dims = GridDims::new(blocks as u32, tpb);
    let target = ((f64::from(cfg.target_insns) * scale.insn_scale) as usize).max(48);

    // --- buffer layout (4-byte words) ---
    // [0, T)                      per-thread write cells
    // [T, T+RO_WORDS)             read-only region
    // [T+RO, T+RO+race_words)     planted-race region
    // [.., +8)                    counters / locks / flags
    let race_words: u64 = cfg
        .sites
        .iter()
        .map(|s| match s {
            RaceSite::PlantedGlobal(n) => u64::from(*n),
            RaceSite::Hashtable => 3,
            RaceSite::ShocBfs => 3,
            _ => 0,
        })
        .sum();
    let t_words = threads;
    let race_off = (t_words + RO_WORDS) * 4;
    let ctr_off = race_off + race_words * 4;
    let buf_bytes = (ctr_off + 32).min(scale.max_alloc_bytes.max(4096));

    let shared_races: u32 = cfg
        .sites
        .iter()
        .map(|s| match s {
            RaceSite::PlantedShared(n) => *n,
            _ => 0,
        })
        .sum();
    let global_races: u32 = cfg
        .sites
        .iter()
        .map(|s| match s {
            RaceSite::PlantedGlobal(n) => *n,
            RaceSite::Hashtable | RaceSite::ShocBfs => 3,
            _ => 0,
        })
        .sum();

    // --- build the kernel ---
    let mut b = KernelBuilder::new(cfg.name);
    b.param("buf", Type::U64);
    let lin = b.linear_tid();
    let tidx = b.fresh(RegClass::B32);
    let ctaid = b.fresh(RegClass::B32);
    b.push(Op::Mov {
        ty: Type::U32,
        dst: tidx,
        src: Operand::Special(barracuda_ptx::ast::SpecialReg::Tid(
            barracuda_ptx::ast::Dim::X,
        )),
    });
    b.push(Op::Mov {
        ty: Type::U32,
        dst: ctaid,
        src: Operand::Special(barracuda_ptx::ast::SpecialReg::Ctaid(
            barracuda_ptx::ast::Dim::X,
        )),
    });
    let buf = b.load_param_ptr("buf");
    let my = b.index_addr(buf, lin, 4);
    let ro = b.fresh(RegClass::B64);
    b.push(Op::Bin {
        op: BinOp::Add,
        ty: Type::S64,
        dst: ro,
        a: Operand::Reg(buf),
        b: Operand::Imm((t_words * 4) as i64),
    });
    let acc = b.fresh(RegClass::B32);
    let scratch = b.fresh(RegClass::B32);
    b.push(Op::Mov {
        ty: Type::U32,
        dst: acc,
        src: Operand::Reg(lin),
    });
    let mut e = Emitter {
        b,
        acc,
        scratch,
        lin,
        tidx,
        ctaid,
        buf,
        my,
        ro,
        pad_salt: 7,
    };

    // Shared staging + barriers (all threads participate).
    let needs_shared = cfg.barrier_rounds > 0 || shared_races > 0;
    if needs_shared {
        let sm_bytes = u64::from(tpb) * 4 + u64::from(shared_races) * 4;
        e.b.shared("sm", sm_bytes, 4);
        if cfg.barrier_rounds > 0 {
            let smp = e.b.fresh(RegClass::B64);
            let smn = e.b.fresh(RegClass::B64);
            let neigh = e.b.fresh(RegClass::B32);
            e.b.push(Op::Mov {
                ty: Type::U64,
                dst: smp,
                src: Operand::Sym("sm".into()),
            });
            let off = e.b.fresh(RegClass::B64);
            e.b.push(Op::Mul {
                mode: MulMode::Wide,
                ty: Type::U32,
                dst: off,
                a: Operand::Reg(e.tidx),
                b: Operand::Imm(4),
            });
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S64,
                dst: smp,
                a: Operand::Reg(smp),
                b: Operand::Reg(off),
            });
            // neighbour = (tidx + 1) & (tpb - 1)
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S32,
                dst: neigh,
                a: Operand::Reg(e.tidx),
                b: Operand::Imm(1),
            });
            e.b.push(Op::Bin {
                op: BinOp::And,
                ty: Type::B32,
                dst: neigh,
                a: Operand::Reg(neigh),
                b: Operand::Imm(i64::from(tpb) - 1),
            });
            e.b.push(Op::Mov {
                ty: Type::U64,
                dst: smn,
                src: Operand::Sym("sm".into()),
            });
            let noff = e.b.fresh(RegClass::B64);
            e.b.push(Op::Mul {
                mode: MulMode::Wide,
                ty: Type::U32,
                dst: noff,
                a: Operand::Reg(neigh),
                b: Operand::Imm(4),
            });
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S64,
                dst: smn,
                a: Operand::Reg(smn),
                b: Operand::Reg(noff),
            });
            for _ in 0..cfg.barrier_rounds {
                e.b.push(Op::St {
                    space: barracuda_ptx::Space::Shared,
                    cache: None,
                    volatile: false,
                    ty: Type::U32,
                    addr: Address::reg(smp),
                    src: Operand::Reg(e.acc),
                });
                e.b.push(Op::Bar { idx: 0 });
                e.b.push(Op::Ld {
                    space: barracuda_ptx::Space::Shared,
                    cache: None,
                    volatile: false,
                    ty: Type::U32,
                    dst: e.scratch,
                    addr: Address::reg(smn),
                });
                e.b.push(Op::Bar { idx: 0 });
            }
        }
    }

    // Divergent, race-free branch regions.
    for i in 0..cfg.branches {
        let p = e.b.fresh(RegClass::Pred);
        let l_else = e.b.fresh_label("else");
        let l_end = e.b.fresh_label("fi");
        e.b.push(Op::Bin {
            op: BinOp::And,
            ty: Type::B32,
            dst: e.scratch,
            a: Operand::Reg(e.tidx),
            b: Operand::Imm(1 << (i % 3)),
        });
        e.b.push(Op::Setp {
            cmp: CmpOp::Eq,
            ty: Type::S32,
            dst: p,
            a: Operand::Reg(e.scratch),
            b: Operand::Imm(0),
        });
        e.b.push_guarded(
            p,
            true,
            Op::Bra {
                uni: false,
                target: l_else.clone(),
            },
        );
        e.b.push(Op::Bin {
            op: BinOp::Xor,
            ty: Type::B32,
            dst: e.acc,
            a: Operand::Reg(e.acc),
            b: Operand::Imm(0x5a5a),
        });
        e.b.push(Op::Bra {
            uni: true,
            target: l_end.clone(),
        });
        e.b.label(l_else);
        e.b.push(Op::Bin {
            op: BinOp::Add,
            ty: Type::S32,
            dst: e.acc,
            a: Operand::Reg(e.acc),
            b: Operand::Imm(3),
        });
        e.b.label(l_end);
    }

    // Global atomic counter.
    if cfg.atomics {
        let ctr = e.b.fresh(RegClass::B64);
        e.b.push(Op::Bin {
            op: BinOp::Add,
            ty: Type::S64,
            dst: ctr,
            a: Operand::Reg(e.buf),
            b: Operand::Imm(ctr_off as i64),
        });
        let old = e.b.fresh(RegClass::B32);
        e.b.push(Op::Atom {
            space: barracuda_ptx::Space::Global,
            op: AtomOp::Add,
            ty: Type::U32,
            dst: old,
            addr: Address::reg(ctr),
            a: Operand::Imm(1),
            b: None,
        });
    }

    // Race sites.
    for site in &cfg.sites {
        emit_site(&mut e, site, race_off, ctr_off, tpb);
    }

    // Warp-shuffle butterfly round (register-only warp primitive).
    if cfg.use_shfl {
        let other = e.b.fresh(RegClass::B32);
        for sft in [16i64, 8, 4, 2, 1] {
            e.b.push(Op::Shfl {
                mode: barracuda_ptx::ast::ShflMode::Bfly,
                ty: Type::B32,
                dst: other,
                a: Operand::Reg(e.acc),
                b: Operand::Imm(sft),
                c: Operand::Imm(31),
            });
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S32,
                dst: e.acc,
                a: Operand::Reg(e.acc),
                b: Operand::Reg(other),
            });
        }
    }

    // Memory access mix: reads from the read-only region at constant
    // offsets, writes to the thread's own cell (repeat writes are
    // redundant → pruning opportunities for Fig. 9).
    let mem_ops = ((target as f64) * cfg.mem_frac) as usize;
    let group = cfg.reads_per_write as usize + 1;
    for i in 0..mem_ops {
        if i % group == group - 1 {
            e.b.push(Op::St {
                space: barracuda_ptx::Space::Global,
                cache: None,
                volatile: false,
                ty: Type::U32,
                addr: Address::reg(e.my),
                src: Operand::Reg(e.acc),
            });
        } else if cfg.use_vector && i % 4 == 1 {
            // Vector load of 4 consecutive read-only words.
            let off = ((i as u64 * 13 + 7) % (RO_WORDS - 4)) * 4;
            let d2 = e.b.fresh(RegClass::B32);
            let d3 = e.b.fresh(RegClass::B32);
            let d4 = e.b.fresh(RegClass::B32);
            e.b.push(Op::LdVec {
                space: barracuda_ptx::Space::Global,
                cache: None,
                volatile: false,
                ty: Type::U32,
                dsts: vec![e.scratch, d2, d3, d4],
                addr: Address::reg_off(e.ro, off as i64),
            });
        } else {
            let off = ((i as u64 * 13 + 7) % RO_WORDS) * 4;
            e.b.push(Op::Ld {
                space: barracuda_ptx::Space::Global,
                cache: None,
                volatile: false,
                ty: Type::U32,
                dst: e.scratch,
                addr: Address::reg_off(e.ro, off as i64),
            });
        }
    }

    // ALU padding to the target static instruction count.
    let used = e.b.len() + 1; // + ret
    if target > used {
        e.pad_alu(target - used);
    }
    e.b.push(Op::St {
        space: barracuda_ptx::Space::Global,
        cache: None,
        volatile: false,
        ty: Type::U32,
        addr: Address::reg(e.my),
        src: Operand::Reg(e.acc),
    });
    e.b.push(Op::Ret);

    WorkloadInstance {
        name: cfg.name.to_string(),
        module: e.b.build_module(),
        kernel: cfg.name.to_string(),
        dims,
        buf_bytes,
        expected_global_races: global_races,
        expected_shared_races: shared_races,
    }
}

/// Emits one race site's code.
fn emit_site(e: &mut Emitter, site: &RaceSite, race_off: u64, ctr_off: u64, tpb: u32) {
    match *site {
        RaceSite::PlantedGlobal(n) => {
            // Blocks 0 and 1: threads tidx < n write race_buf[tidx].
            let p1 = e.b.fresh(RegClass::Pred);
            let p2 = e.b.fresh(RegClass::Pred);
            let l_end = e.b.fresh_label("pg");
            e.b.push(Op::Setp {
                cmp: CmpOp::Ge,
                ty: Type::U32,
                dst: p1,
                a: Operand::Reg(e.ctaid),
                b: Operand::Imm(2),
            });
            e.b.push_guarded(
                p1,
                false,
                Op::Bra {
                    uni: false,
                    target: l_end.clone(),
                },
            );
            e.b.push(Op::Setp {
                cmp: CmpOp::Ge,
                ty: Type::U32,
                dst: p2,
                a: Operand::Reg(e.tidx),
                b: Operand::Imm(i64::from(n)),
            });
            e.b.push_guarded(
                p2,
                false,
                Op::Bra {
                    uni: false,
                    target: l_end.clone(),
                },
            );
            let addr = e.b.index_addr(e.buf, e.tidx, 4);
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S64,
                dst: addr,
                a: Operand::Reg(addr),
                b: Operand::Imm(race_off as i64),
            });
            e.b.push(Op::St {
                space: barracuda_ptx::Space::Global,
                cache: None,
                volatile: false,
                ty: Type::U32,
                addr: Address::reg(addr),
                src: Operand::Reg(e.lin),
            });
            e.b.label(l_end);
        }
        RaceSite::PlantedShared(n) => {
            // Block 0, threads tidx < 2n: lane pairs write sm_race[tidx/2].
            let p1 = e.b.fresh(RegClass::Pred);
            let p2 = e.b.fresh(RegClass::Pred);
            let l_end = e.b.fresh_label("ps");
            e.b.push(Op::Setp {
                cmp: CmpOp::Ne,
                ty: Type::U32,
                dst: p1,
                a: Operand::Reg(e.ctaid),
                b: Operand::Imm(0),
            });
            e.b.push_guarded(
                p1,
                false,
                Op::Bra {
                    uni: false,
                    target: l_end.clone(),
                },
            );
            e.b.push(Op::Setp {
                cmp: CmpOp::Ge,
                ty: Type::U32,
                dst: p2,
                a: Operand::Reg(e.tidx),
                b: Operand::Imm(i64::from(n) * 2),
            });
            e.b.push_guarded(
                p2,
                false,
                Op::Bra {
                    uni: false,
                    target: l_end.clone(),
                },
            );
            let slot = e.b.fresh(RegClass::B32);
            e.b.push(Op::Bin {
                op: BinOp::Shr,
                ty: Type::U32,
                dst: slot,
                a: Operand::Reg(e.tidx),
                b: Operand::Imm(1),
            });
            let sm = e.b.fresh(RegClass::B64);
            e.b.push(Op::Mov {
                ty: Type::U64,
                dst: sm,
                src: Operand::Sym("sm".into()),
            });
            // The race slots sit after the staging area (tpb words).
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S64,
                dst: sm,
                a: Operand::Reg(sm),
                b: Operand::Imm(i64::from(tpb) * 4),
            });
            let soff = e.b.fresh(RegClass::B64);
            e.b.push(Op::Mul {
                mode: MulMode::Wide,
                ty: Type::U32,
                dst: soff,
                a: Operand::Reg(slot),
                b: Operand::Imm(4),
            });
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S64,
                dst: sm,
                a: Operand::Reg(sm),
                b: Operand::Reg(soff),
            });
            e.b.push(Op::St {
                space: barracuda_ptx::Space::Shared,
                cache: None,
                volatile: false,
                ty: Type::U32,
                addr: Address::reg(sm),
                src: Operand::Reg(e.tidx),
            });
            e.b.label(l_end);
        }
        RaceSite::Hashtable => {
            // Buggy fine-grained lock (§6.3): unfenced CAS acquire, two
            // protected words, plain-store release → 3 racy locations.
            // One thread per block takes the lock.
            let p1 = e.b.fresh(RegClass::Pred);
            let p2 = e.b.fresh(RegClass::Pred);
            let l_end = e.b.fresh_label("ht");
            let l_acq = e.b.fresh_label("htacq");
            e.b.push(Op::Setp {
                cmp: CmpOp::Ne,
                ty: Type::U32,
                dst: p1,
                a: Operand::Reg(e.tidx),
                b: Operand::Imm(0),
            });
            e.b.push_guarded(
                p1,
                false,
                Op::Bra {
                    uni: false,
                    target: l_end.clone(),
                },
            );
            e.b.push(Op::Setp {
                cmp: CmpOp::Ge,
                ty: Type::U32,
                dst: p2,
                a: Operand::Reg(e.ctaid),
                b: Operand::Imm(2),
            });
            e.b.push_guarded(
                p2,
                false,
                Op::Bra {
                    uni: false,
                    target: l_end.clone(),
                },
            );
            let lock = e.b.fresh(RegClass::B64);
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S64,
                dst: lock,
                a: Operand::Reg(e.buf),
                b: Operand::Imm(race_off as i64),
            });
            let old = e.b.fresh(RegClass::B32);
            let pl = e.b.fresh(RegClass::Pred);
            e.b.label(l_acq.clone());
            // BUG 1: no fence after the CAS.
            e.b.push(Op::Atom {
                space: barracuda_ptx::Space::Global,
                op: AtomOp::Cas,
                ty: Type::B32,
                dst: old,
                addr: Address::reg(lock),
                a: Operand::Imm(0),
                b: Some(Operand::Imm(1)),
            });
            e.b.push(Op::Setp {
                cmp: CmpOp::Ne,
                ty: Type::S32,
                dst: pl,
                a: Operand::Reg(old),
                b: Operand::Imm(0),
            });
            e.b.push_guarded(
                pl,
                false,
                Op::Bra {
                    uni: false,
                    target: l_acq,
                },
            );
            // Critical section: two bucket words.
            e.b.push(Op::St {
                space: barracuda_ptx::Space::Global,
                cache: None,
                volatile: false,
                ty: Type::U32,
                addr: Address::reg_off(lock, 4),
                src: Operand::Reg(e.lin),
            });
            e.b.push(Op::St {
                space: barracuda_ptx::Space::Global,
                cache: None,
                volatile: false,
                ty: Type::U32,
                addr: Address::reg_off(lock, 8),
                src: Operand::Reg(e.lin),
            });
            // BUG 2: release via a plain, unfenced store.
            e.b.push(Op::St {
                space: barracuda_ptx::Space::Global,
                cache: None,
                volatile: false,
                ty: Type::U32,
                addr: Address::reg(lock),
                src: Operand::Imm(0),
            });
            e.b.label(l_end);
        }
        RaceSite::ShocBfs => {
            // Distance words updated without atomics from blocks 0 and 1,
            // plus a done-flag set to 1 from both.
            let p1 = e.b.fresh(RegClass::Pred);
            let p2 = e.b.fresh(RegClass::Pred);
            let l_end = e.b.fresh_label("bfs");
            e.b.push(Op::Setp {
                cmp: CmpOp::Ne,
                ty: Type::U32,
                dst: p1,
                a: Operand::Reg(e.tidx),
                b: Operand::Imm(0),
            });
            e.b.push_guarded(
                p1,
                false,
                Op::Bra {
                    uni: false,
                    target: l_end.clone(),
                },
            );
            e.b.push(Op::Setp {
                cmp: CmpOp::Ge,
                ty: Type::U32,
                dst: p2,
                a: Operand::Reg(e.ctaid),
                b: Operand::Imm(2),
            });
            e.b.push_guarded(
                p2,
                false,
                Op::Bra {
                    uni: false,
                    target: l_end.clone(),
                },
            );
            let base = e.b.fresh(RegClass::B64);
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S64,
                dst: base,
                a: Operand::Reg(e.buf),
                b: Operand::Imm(race_off as i64),
            });
            for w in 0..2i64 {
                e.b.push(Op::St {
                    space: barracuda_ptx::Space::Global,
                    cache: None,
                    volatile: false,
                    ty: Type::U32,
                    addr: Address::reg_off(base, w * 4),
                    src: Operand::Reg(e.ctaid),
                });
            }
            // Flag: same value from every writer, but cross-warp writes
            // are still racy (the same-value exemption is intra-warp).
            e.b.push(Op::St {
                space: barracuda_ptx::Space::Global,
                cache: None,
                volatile: false,
                ty: Type::U32,
                addr: Address::reg_off(base, 8),
                src: Operand::Imm(1),
            });
            e.b.label(l_end);
        }
        RaceSite::ThreadFence => {
            // threadFenceReduction's fenced atomic ticket (race-free).
            let ctr = e.b.fresh(RegClass::B64);
            e.b.push(Op::Bin {
                op: BinOp::Add,
                ty: Type::S64,
                dst: ctr,
                a: Operand::Reg(e.buf),
                b: Operand::Imm(ctr_off as i64 + 8),
            });
            let old = e.b.fresh(RegClass::B32);
            e.b.push(Op::Membar {
                level: FenceLevel::Gl,
            });
            e.b.push(Op::Atom {
                space: barracuda_ptx::Space::Global,
                op: AtomOp::Add,
                ty: Type::U32,
                dst: old,
                addr: Address::reg(ctr),
                a: Operand::Imm(1),
                b: None,
            });
            e.b.push(Op::Membar {
                level: FenceLevel::Gl,
            });
        }
    }
}
