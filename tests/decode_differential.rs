//! Differential testing of the two interpreters: the decoded micro-op hot
//! loop (`Gpu::launch_with_sink`, the product's only interpreter) against
//! the AST-walking reference interpreter
//! (`barracuda_simt::ast_oracle::launch_with_sink`, the seed semantics,
//! compiled only for tests through the `ast-oracle` feature).
//!
//! For random instrumented kernels executed under identical scheduler
//! seeds and memory presets, both interpreters must produce:
//!
//! * identical [`LaunchStats`] (instruction/barrier counts — equality also
//!   pins the RNG draw sequence, so the weak-memory drains align),
//! * identical final global-memory contents, and
//! * a byte-identical device-side event stream.

use barracuda_repro::instrument::{instrument_module, InstrumentOptions};
use barracuda_repro::ptx::ast::*;
use barracuda_repro::ptx::KernelBuilder;
use barracuda_repro::simt::{
    EventSink, Gpu, GpuConfig, LaunchStats, MemoryModel, ParamValue, SimError, VecSink,
};
use barracuda_repro::trace::GridDims;
use barracuda_simt::ast_oracle;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const WORDS: i64 = 64; // global buffer size in words (power of two)
const SM_WORDS: i64 = 32; // shared buffer size in words (power of two)

/// Generates a random, memory-safe kernel covering the decoded
/// instruction set: bounded global and shared accesses, atomics, fences,
/// forward divergent branches, shuffles, selp, vector ops and barriers
/// (same discipline as `pipeline_fuzz.rs`: barriers only outside branch
/// regions and before any early return).
fn random_kernel(seed: u64) -> barracuda_ptx::ast::Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = KernelBuilder::new("diff");
    b.param("buf", Type::U64);
    let sm = b.shared("sm", SM_WORDS as u64 * 4, 4);
    let lin = b.linear_tid();
    let buf = b.load_param_ptr("buf");
    let pred = b.reg("%p0", RegClass::Pred);
    let idx = b.reg("%idx", RegClass::B32);
    let val = b.reg("%val", RegClass::B32);
    let val2 = b.reg("%val2", RegClass::B32);
    let addr = b.reg("%addr", RegClass::B64);
    let smbase = b.reg("%smb", RegClass::B64);
    let tmp64 = b.reg("%tmp64", RegClass::B64);
    b.push(Op::Mov {
        ty: Type::U32,
        dst: idx,
        src: Operand::Reg(lin),
    });
    b.push(Op::Mov {
        ty: Type::U32,
        dst: val,
        src: Operand::Reg(lin),
    });
    // Shared-symbol operand: exercises decode-time symbol resolution.
    b.push(Op::Mov {
        ty: Type::U64,
        dst: smbase,
        src: Operand::Sym(sm.clone()),
    });

    // Materializes `addr = base + (idx & (words-1)) * 4`.
    let emit_addr = |b: &mut KernelBuilder, base: Reg, words: i64| {
        b.push(Op::Bin {
            op: BinOp::And,
            ty: Type::B32,
            dst: idx,
            a: Operand::Reg(idx),
            b: Operand::Imm(words - 1),
        });
        b.push(Op::Mul {
            mode: MulMode::Wide,
            ty: Type::U32,
            dst: tmp64,
            a: Operand::Reg(idx),
            b: Operand::Imm(4),
        });
        b.push(Op::Bin {
            op: BinOp::Add,
            ty: Type::S64,
            dst: addr,
            a: Operand::Reg(base),
            b: Operand::Reg(tmp64),
        });
    };

    let mut open: Vec<String> = Vec::new();
    let mut barriers_allowed = true;
    let n = rng.random_range(8..32);
    for _ in 0..n {
        match rng.random_range(0..14) {
            0 | 1 => {
                emit_addr(&mut b, buf, WORDS);
                b.push(Op::Ld {
                    space: Space::Global,
                    cache: None,
                    volatile: false,
                    ty: Type::U32,
                    dst: val,
                    addr: Address::reg(addr),
                });
            }
            2 | 3 => {
                emit_addr(&mut b, buf, WORDS);
                b.push(Op::St {
                    space: Space::Global,
                    cache: None,
                    volatile: false,
                    ty: Type::U32,
                    addr: Address::reg(addr),
                    src: Operand::Reg(val),
                });
            }
            4 => {
                emit_addr(&mut b, buf, WORDS);
                b.push(Op::Atom {
                    space: Space::Global,
                    op: [AtomOp::Add, AtomOp::Exch, AtomOp::Max][rng.random_range(0..3)],
                    ty: Type::U32,
                    dst: val,
                    addr: Address::reg(addr),
                    a: Operand::Reg(lin),
                    b: None,
                });
            }
            5 => {
                emit_addr(&mut b, smbase, SM_WORDS);
                b.push(Op::St {
                    space: Space::Shared,
                    cache: None,
                    volatile: false,
                    ty: Type::U32,
                    addr: Address::reg(addr),
                    src: Operand::Reg(val),
                });
            }
            6 => {
                emit_addr(&mut b, smbase, SM_WORDS);
                b.push(Op::Ld {
                    space: Space::Shared,
                    cache: None,
                    volatile: false,
                    ty: Type::U32,
                    dst: val2,
                    addr: Address::reg(addr),
                });
                b.push(Op::Bin {
                    op: BinOp::Add,
                    ty: Type::B32,
                    dst: val,
                    a: Operand::Reg(val),
                    b: Operand::Reg(val2),
                });
            }
            7 => {
                b.push(Op::Membar {
                    level: [FenceLevel::Cta, FenceLevel::Gl][rng.random_range(0..2)],
                });
            }
            8 if open.is_empty() && barriers_allowed => {
                b.push(Op::Bar { idx: 0 });
            }
            9 => {
                // Forward branch region over some lanes.
                let l = b.fresh_label("skip");
                b.push(Op::Setp {
                    cmp: CmpOp::Lt,
                    ty: Type::U32,
                    dst: pred,
                    a: Operand::Reg(lin),
                    b: Operand::Imm(rng.random_range(0..20)),
                });
                b.push_guarded(
                    pred,
                    rng.random::<bool>(),
                    Op::Bra {
                        uni: false,
                        target: l.clone(),
                    },
                );
                open.push(l);
            }
            10 if !open.is_empty() => {
                b.label(open.pop().expect("non-empty"));
            }
            11 => {
                b.push(Op::Shfl {
                    mode: [ShflMode::Up, ShflMode::Down, ShflMode::Bfly, ShflMode::Idx]
                        [rng.random_range(0..4)],
                    ty: Type::B32,
                    dst: val,
                    a: Operand::Reg(val),
                    b: Operand::Imm(rng.random_range(0..4)),
                    c: Operand::Imm(31),
                });
            }
            12 => {
                b.push(Op::Setp {
                    cmp: CmpOp::Gt,
                    ty: Type::U32,
                    dst: pred,
                    a: Operand::Reg(val),
                    b: Operand::Imm(7),
                });
                b.push(Op::Selp {
                    ty: Type::B32,
                    dst: val,
                    a: Operand::Reg(val),
                    b: Operand::Reg(idx),
                    p: pred,
                });
            }
            _ => {
                b.push(Op::Bin {
                    op: [BinOp::Add, BinOp::Xor, BinOp::Shl][rng.random_range(0..3)],
                    ty: Type::B32,
                    dst: idx,
                    a: Operand::Reg(idx),
                    b: Operand::Imm(rng.random_range(1..13)),
                });
            }
        }
        // A guarded early return disables all later barriers.
        if open.is_empty() && rng.random_range(0..20) == 0 {
            b.push(Op::Setp {
                cmp: CmpOp::Eq,
                ty: Type::U32,
                dst: pred,
                a: Operand::Reg(lin),
                b: Operand::Imm(63),
            });
            b.push_guarded(pred, false, Op::Ret);
            barriers_allowed = false;
        }
    }
    for l in open {
        b.label(l);
    }
    b.push(Op::Ret);
    b.build_module()
}

/// A comparable projection of one log record (Record itself is a raw
/// fixed-size struct without PartialEq).
type RecordKey = (u64, u8, u8, u8, u32, [u64; 32]);

/// Which interpreter a run goes through.
#[derive(Debug, Clone, Copy)]
enum Interp {
    /// The product's decoded micro-op loop.
    Decoded,
    /// The AST-walking oracle.
    AstWalk,
}

impl Interp {
    /// Launches `kernel` with a sink through this interpreter.
    fn launch(
        self,
        gpu: &mut Gpu,
        module: &Module,
        kernel: &str,
        dims: GridDims,
        params: &[ParamValue],
        sink: &dyn EventSink,
    ) -> Result<LaunchStats, SimError> {
        match self {
            Interp::Decoded => gpu.launch_with_sink(module, kernel, dims, params, sink),
            Interp::AstWalk => {
                ast_oracle::launch_with_sink(gpu, module, kernel, dims, params, sink)
            }
        }
    }
}

/// Runs the instrumented kernel through one interpreter, returning
/// (stats, final global memory, event stream).
fn run_mode(
    module: &Module,
    mode: Interp,
    model: MemoryModel,
    sched_seed: u64,
) -> (LaunchStats, Vec<u8>, Vec<RecordKey>) {
    let (instrumented, _) = instrument_module(module, &InstrumentOptions::default());
    let dims = GridDims::with_warp_size(2u32, 8u32, 4);
    let mut gpu = Gpu::new(GpuConfig {
        seed: sched_seed,
        slice: 3,
        memory_model: model,
        ..GpuConfig::default()
    });
    let size = WORDS as u64 * 4 + 8;
    let buf = gpu.malloc(size);
    let sink = VecSink::new();
    let stats = mode
        .launch(
            &mut gpu,
            &instrumented,
            "diff",
            dims,
            &[ParamValue::Ptr(buf)],
            &sink,
        )
        .unwrap_or_else(|e| panic!("mode {mode:?}: simulation failed: {e}"));
    let mut mem = vec![0u8; size as usize];
    gpu.read_bytes(buf, &mut mem);
    let records = sink
        .take()
        .iter()
        .map(|r| (r.warp, r.kind, r.space, r.size, r.mask, r.addrs))
        .collect();
    (stats, mem, records)
}

fn assert_modes_agree(seed: u64, model: MemoryModel, sched_seed: u64) {
    let module = random_kernel(seed);
    let (stats_d, mem_d, ev_d) = run_mode(&module, Interp::Decoded, model, sched_seed);
    let (stats_a, mem_a, ev_a) = run_mode(&module, Interp::AstWalk, model, sched_seed);
    assert_eq!(stats_d, stats_a, "seed {seed}: stats diverge");
    assert_eq!(mem_d, mem_a, "seed {seed}: memory diverges");
    assert_eq!(ev_d.len(), ev_a.len(), "seed {seed}: event count diverges");
    for (i, (d, a)) in ev_d.iter().zip(ev_a.iter()).enumerate() {
        assert_eq!(d, a, "seed {seed}: event {i} diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn decoded_matches_ast_walk_sc(seed in any::<u64>()) {
        assert_modes_agree(seed, MemoryModel::SequentiallyConsistent, 1);
    }

    #[test]
    fn decoded_matches_ast_walk_weak_memory(seed in any::<u64>()) {
        // Buffered model: agreement also proves the RNG consumption of
        // both interpreters is step-for-step identical, since every drain
        // decision draws from the shared scheduler RNG.
        assert_modes_agree(seed, MemoryModel::KeplerK520, 7);
    }
}

#[test]
fn decoded_matches_ast_walk_fixed_corpus() {
    for seed in 0..30u64 {
        assert_modes_agree(seed, MemoryModel::SequentiallyConsistent, 2);
        assert_modes_agree(seed, MemoryModel::MaxwellTitanX, 3);
    }
}

#[test]
fn decoded_matches_ast_walk_native_logging() {
    // Native access logging (no instrumentation pass): the interpreter
    // itself emits the events, including same-value write filtering.
    for seed in 0..10u64 {
        let module = random_kernel(seed);
        let run = |mode: Interp| {
            let dims = GridDims::with_warp_size(2u32, 8u32, 4);
            let mut gpu = Gpu::new(GpuConfig {
                seed: 5,
                slice: 3,
                native_access_logging: true,
                ..GpuConfig::default()
            });
            let size = WORDS as u64 * 4 + 8;
            let buf = gpu.malloc(size);
            let sink = VecSink::new();
            let stats = mode
                .launch(
                    &mut gpu,
                    &module,
                    "diff",
                    dims,
                    &[ParamValue::Ptr(buf)],
                    &sink,
                )
                .unwrap_or_else(|e| panic!("mode {mode:?}: simulation failed: {e}"));
            let mut mem = vec![0u8; size as usize];
            gpu.read_bytes(buf, &mut mem);
            let recs: Vec<RecordKey> = sink
                .take()
                .iter()
                .map(|r| (r.warp, r.kind, r.space, r.size, r.mask, r.addrs))
                .collect();
            (stats, mem, recs)
        };
        assert_eq!(run(Interp::Decoded), run(Interp::AstWalk), "seed {seed}");
    }
}

/// Global memory edges of the warp-wide `ld`/`st` path, as PTX text: full
/// 32-lane warps over a two-page buffer. Vector and signed loads; stores
/// and loads straddling the page boundary, all lanes at one address (the
/// highest lane's store wins); generic accesses whose lanes split
/// between shared and global memory; and, when `fault_stride` is set, a
/// store whose lanes (`lane * fault_stride`) run off the last page
/// mid-warp.
fn edge_kernel(fault_stride: u32) -> barracuda_ptx::ast::Module {
    let fault = if fault_stride == 0 {
        String::new()
    } else {
        format!(
            "mov.u32 %r8, %laneid;\n\
             mul.wide.u32 %rd7, %r8, {fault_stride};\n\
             add.s64 %rd7, %rd1, %rd7;\n\
             st.global.u32 [%rd7], %r1;\n"
        )
    };
    let src = format!(
        ".version 4.3\n.target sm_35\n.address_size 64\n\
         .visible .entry edge(.param .u64 buf)\n{{\n\
         .reg .pred %p<2>;\n.reg .b32 %r<12>;\n.reg .b64 %rd<12>;\n\
         .shared .align 8 .b8 sm[512];\n\
         ld.param.u64 %rd1, [buf];\n\
         mov.u32 %r1, %tid.x;\n\
         mul.lo.u32 %r2, %r1, 3;\n\
         sub.s32 %r3, 0, %r1;\n\
         mul.wide.u32 %rd2, %r1, 16;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.v4.u32 [%rd3], {{%r1, %r2, %r3, %r1}};\n\
         ld.global.v2.s8 {{%r4, %r5}}, [%rd3+8];\n\
         ld.global.s16 %r6, [%rd3+8];\n\
         st.global.v4.u32 [%rd3], {{%r4, %r5, %r6, %r2}};\n\
         st.global.u32 [%rd1+65534], %r3;\n\
         ld.global.u64 %rd4, [%rd1+65532];\n\
         st.global.u64 [%rd3+1024], %rd4;\n\
         mov.u64 %rd5, sm;\n\
         mul.wide.u32 %rd6, %r1, 4;\n\
         add.s64 %rd5, %rd5, %rd6;\n\
         add.s64 %rd6, %rd3, 2048;\n\
         setp.lt.u32 %p1, %r1, 16;\n\
         selp.b64 %rd8, %rd5, %rd6, %p1;\n\
         st.u32 [%rd8], %r2;\n\
         ld.u32 %r7, [%rd8];\n\
         st.global.u32 [%rd3+12], %r7;\n\
         {fault}\
         ret;\n}}"
    );
    barracuda_ptx::parse(&src).expect("edge kernel parses")
}

#[test]
fn warp_memory_edges_match_ast_walk() {
    for fault_stride in [0u32, 4096, 8192] {
        let module = edge_kernel(fault_stride);
        for model in [MemoryModel::SequentiallyConsistent, MemoryModel::KeplerK520] {
            let run = |mode: Interp| {
                let mut gpu = Gpu::new(GpuConfig {
                    seed: 3,
                    slice: 3,
                    memory_model: model,
                    native_access_logging: true,
                    ..GpuConfig::default()
                });
                let size = (1 << 17) - 64;
                let buf = gpu.malloc(size);
                let sink = VecSink::new();
                let dims = GridDims::new(2u32, 64u32);
                let res = mode.launch(
                    &mut gpu,
                    &module,
                    "edge",
                    dims,
                    &[ParamValue::Ptr(buf)],
                    &sink,
                );
                let mut mem = vec![0u8; size as usize];
                gpu.read_bytes(buf, &mut mem);
                let recs: Vec<RecordKey> = sink
                    .take()
                    .iter()
                    .map(|r| (r.warp, r.kind, r.space, r.size, r.mask, r.addrs))
                    .collect();
                (res, mem, recs)
            };
            let decoded = run(Interp::Decoded);
            assert_eq!(
                fault_stride == 8192,
                decoded.0.is_err(),
                "stride {fault_stride}, {model:?}: {:?}",
                decoded.0
            );
            assert!(
                decoded == run(Interp::AstWalk),
                "stride {fault_stride}, {model:?}: modes diverge"
            );
        }
    }
}

#[test]
fn malformed_kernels_fail_identically_at_load() {
    // Load-time validation is shared by both interpreters: a kernel with
    // an unknown call target, an undefined branch label or an undeclared
    // symbol never reaches either one, and both report the same error.
    let call = {
        let mut b = KernelBuilder::new("bad");
        b.push(Op::Call {
            target: "mystery".into(),
            args: vec![],
        });
        b.push(Op::Ret);
        b.build_module()
    };
    // The parser rejects undefined labels and symbols itself, so these
    // are injected into a parsed module.
    let inject = |op: Op| {
        let mut m = KernelBuilder::new("bad");
        m.push(Op::Ret);
        let mut m = m.build_module();
        m.kernels[0]
            .stmts
            .insert(0, Statement::Instr(Instruction::new(op)));
        m
    };
    let label = inject(Op::Bra {
        uni: true,
        target: "L_missing".into(),
    });
    let symbol = inject(Op::Ld {
        space: Space::Shared,
        cache: None,
        volatile: false,
        ty: Type::U32,
        dst: Reg(1),
        addr: Address {
            base: AddrBase::Sym("no_such_sym".into()),
            offset: 0,
        },
    });
    // Both interpreters' launch errors, checked equal.
    let load_error = |module: &Module| {
        let [d, a] = [Interp::Decoded, Interp::AstWalk].map(|mode| {
            let mut gpu = Gpu::new(GpuConfig::default());
            mode.launch(
                &mut gpu,
                module,
                "bad",
                GridDims::new(1u32, 4u32),
                &[],
                &VecSink::new(),
            )
            .unwrap_err()
        });
        assert_eq!(d, a, "interpreters disagree");
        d
    };
    let err = load_error(&call);
    assert!(
        matches!(err, SimError::BadInstruction { index: 0, .. }),
        "{err:?}"
    );
    let err = load_error(&label);
    assert!(
        matches!(err, SimError::UnknownLabel(ref l) if l == "L_missing"),
        "{err:?}"
    );
    let err = load_error(&symbol);
    assert!(
        matches!(err, SimError::UnknownSymbol(ref s) if s == "no_such_sym"),
        "{err:?}"
    );
}
