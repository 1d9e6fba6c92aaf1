//! PTX rewriting: logging-call insertion, predication transformation,
//! convergence markers and redundancy pruning (paper §4.1).

use crate::infer::infer_kinds;
use barracuda_ptx::ast::{
    AddrBase, Address, Dim, Guard, Instruction, Kernel, Module, MulMode, Op, Operand, RegClass,
    SpecialReg, Statement, Type,
};
use barracuda_ptx::cfg::{Cfg, FlatKernel};
use barracuda_trace::ops::{AccessKind, Scope};
use barracuda_trace::record::RecordKind;
use std::collections::{HashMap, HashSet};

/// Instrumentation options.
#[derive(Debug, Clone)]
pub struct InstrumentOptions {
    /// Intra-basic-block redundant-log elimination (the Fig. 9
    /// "optimized" configuration).
    pub prune_redundant: bool,
}

impl Default for InstrumentOptions {
    fn default() -> Self {
        InstrumentOptions {
            prune_redundant: true,
        }
    }
}

impl InstrumentOptions {
    /// The unoptimized configuration (no pruning), for the Fig. 9
    /// before/after comparison.
    pub fn unoptimized() -> Self {
        InstrumentOptions {
            prune_redundant: false,
        }
    }
}

/// Statistics of one instrumentation run (drives Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrumentStats {
    /// Static PTX instructions in the original kernel(s).
    pub static_instructions: usize,
    /// Original instructions that received instrumentation: logged memory
    /// accesses, fences, barriers and conditional branches.
    pub instrumented_instructions: usize,
    /// `__barracuda_log_access` call-sites inserted.
    pub log_calls: usize,
    /// `__barracuda_log_conv` markers inserted.
    pub convergence_markers: usize,
    /// Memory accesses whose log was pruned as redundant.
    pub pruned: usize,
    /// Predicated instructions rewritten into branch + unpredicated form.
    pub predicated_transformed: usize,
    /// Inferred acquire operations.
    pub acquires: usize,
    /// Inferred release operations.
    pub releases: usize,
    /// Inferred acquire-release operations.
    pub acqrels: usize,
    /// Atomics left as standalone `atm` operations.
    pub standalone_atomics: usize,
}

impl InstrumentStats {
    /// Fraction of static instructions instrumented (the Fig. 9 y-axis).
    pub fn instrumented_fraction(&self) -> f64 {
        if self.static_instructions == 0 {
            0.0
        } else {
            self.instrumented_instructions as f64 / self.static_instructions as f64
        }
    }

    fn add(&mut self, other: &InstrumentStats) {
        self.static_instructions += other.static_instructions;
        self.instrumented_instructions += other.instrumented_instructions;
        self.log_calls += other.log_calls;
        self.convergence_markers += other.convergence_markers;
        self.pruned += other.pruned;
        self.predicated_transformed += other.predicated_transformed;
        self.acquires += other.acquires;
        self.releases += other.releases;
        self.acqrels += other.acqrels;
        self.standalone_atomics += other.standalone_atomics;
    }
}

/// Key identifying an address expression for pruning.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum AddrKey {
    Reg(u32, i64),
    Sym(String, i64),
}

fn addr_key(addr: &Address) -> AddrKey {
    match &addr.base {
        AddrBase::Reg(r) => AddrKey::Reg(r.0, addr.offset),
        AddrBase::Sym(s) => AddrKey::Sym(s.clone(), addr.offset),
    }
}

/// What has already been logged for an address within the current block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoggedKind {
    Read,
    Write,
}

fn kind_code(kind: AccessKind) -> i64 {
    (match kind {
        AccessKind::Read => RecordKind::Read,
        AccessKind::Write => RecordKind::Write,
        AccessKind::Atomic => RecordKind::Atomic,
        AccessKind::Acquire(Scope::Block) => RecordKind::AcqBlk,
        AccessKind::Release(Scope::Block) => RecordKind::RelBlk,
        AccessKind::AcquireRelease(Scope::Block) => RecordKind::AcqRelBlk,
        AccessKind::Acquire(Scope::Global) => RecordKind::AcqGlb,
        AccessKind::Release(Scope::Global) => RecordKind::RelGlb,
        AccessKind::AcquireRelease(Scope::Global) => RecordKind::AcqRelGlb,
    }) as i64
}

fn space_code(space: barracuda_ptx::ast::Space) -> i64 {
    match space {
        barracuda_ptx::ast::Space::Global => 0,
        barracuda_ptx::ast::Space::Shared => 1,
        _ => 2, // generic: resolved at runtime
    }
}

/// Extracts `(space, access size in bytes, addr, store value)` from a
/// memory instruction.
fn access_parts(op: &Op) -> Option<(barracuda_ptx::ast::Space, u64, &Address, Option<&Operand>)> {
    match op {
        Op::Ld {
            space, ty, addr, ..
        } => Some((*space, ty.size(), addr, None)),
        Op::St {
            space,
            ty,
            addr,
            src,
            ..
        } => Some((*space, ty.size(), addr, Some(src))),
        Op::LdVec {
            space,
            ty,
            dsts,
            addr,
            ..
        } => Some((*space, ty.size() * dsts.len() as u64, addr, None)),
        // Vector stores carry several values: logged without the
        // same-value filter operand.
        Op::StVec {
            space,
            ty,
            srcs,
            addr,
            ..
        } => Some((*space, ty.size() * srcs.len() as u64, addr, None)),
        Op::Atom {
            space, ty, addr, ..
        } => Some((*space, ty.size(), addr, None)),
        Op::Red {
            space, ty, addr, ..
        } => Some((*space, ty.size(), addr, None)),
        _ => None,
    }
}

/// Convergence points: the statement indices of the reconvergence
/// targets of conditional branches, mapped back from flat instruction
/// indices. The flattened kernel and its CFG are dropped on return, so
/// they never coexist with the rewritten kernel.
fn convergence_stmts(kernel: &Kernel) -> HashSet<usize> {
    let flat = FlatKernel::from_kernel(kernel);
    let cfg = Cfg::build(&flat);
    let stmt_of_instr: Vec<usize> = kernel
        .stmts
        .iter()
        .enumerate()
        .filter_map(|(i, s)| matches!(s, Statement::Instr(_)).then_some(i))
        .collect();
    let mut conv_stmts = HashSet::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        if block.end == 0 || block.end > flat.instrs.len() {
            continue;
        }
        let last = &flat.instrs[block.end - 1];
        if matches!(last.op, Op::Bra { .. }) && last.guard.is_some() {
            if let Some(r) = cfg.reconvergence_point(b) {
                conv_stmts.insert(stmt_of_instr[r]);
            }
        }
    }
    conv_stmts
}

/// Instruments one kernel.
pub fn instrument_kernel(kernel: &Kernel, opts: &InstrumentOptions) -> (Kernel, InstrumentStats) {
    let mut stats = InstrumentStats {
        static_instructions: kernel.static_instruction_count(),
        ..Default::default()
    };
    let kinds: HashMap<usize, AccessKind> = infer_kinds(kernel)
        .into_iter()
        .map(|k| (k.stmt, k.kind))
        .collect();

    let conv_stmts = convergence_stmts(kernel);

    let mut regs = kernel.regs.clone();
    let mut out: Vec<Statement> = Vec::with_capacity(kernel.stmts.len() * 2);
    let mut skip_label = 0u32;
    let mut logged: HashMap<AddrKey, LoggedKind> = HashMap::new();

    // Unique-TID computation at kernel entry (§4.1).
    let t = regs.alloc(RegClass::B32);
    let c = regs.alloc(RegClass::B32);
    let n = regs.alloc(RegClass::B32);
    let lin = regs.alloc(RegClass::B32);
    let wide = regs.alloc(RegClass::B64);
    out.push(Statement::Instr(Instruction::new(Op::Mov {
        ty: Type::U32,
        dst: t,
        src: Operand::Special(SpecialReg::Tid(Dim::X)),
    })));
    out.push(Statement::Instr(Instruction::new(Op::Mov {
        ty: Type::U32,
        dst: c,
        src: Operand::Special(SpecialReg::Ctaid(Dim::X)),
    })));
    out.push(Statement::Instr(Instruction::new(Op::Mov {
        ty: Type::U32,
        dst: n,
        src: Operand::Special(SpecialReg::Ntid(Dim::X)),
    })));
    out.push(Statement::Instr(Instruction::new(Op::Mad {
        mode: MulMode::Lo,
        ty: Type::S32,
        dst: lin,
        a: Operand::Reg(c),
        b: Operand::Reg(n),
        c: Operand::Reg(t),
    })));
    out.push(Statement::Instr(Instruction::new(Op::Cvt {
        dty: Type::U64,
        sty: Type::U32,
        dst: wide,
        a: Operand::Reg(lin),
    })));

    for (i, stmt) in kernel.stmts.iter().enumerate() {
        if conv_stmts.contains(&i) {
            out.push(Statement::Instr(Instruction::new(Op::Call {
                target: "__barracuda_log_conv".to_string(),
                args: vec![],
            })));
            stats.convergence_markers += 1;
        }
        match stmt {
            Statement::Label(l) => {
                logged.clear();
                out.push(Statement::Label(l.clone()));
            }
            Statement::Instr(instr) => {
                // Fences, barriers and conditional branches are hooked by
                // the framework (counted as instrumented).
                match &instr.op {
                    Op::Membar { .. } | Op::Bar { .. } => {
                        stats.instrumented_instructions += 1;
                        logged.clear();
                    }
                    Op::Bra { .. } if instr.guard.is_some() => {
                        stats.instrumented_instructions += 1;
                    }
                    Op::Atom { .. } | Op::Red { .. } => logged.clear(),
                    _ => {}
                }
                if instr.op.is_terminator() {
                    logged.clear();
                }

                let mut emit_plain = true;
                if let Some(&kind) = kinds.get(&i) {
                    let (space, size, addr, value) =
                        access_parts(&instr.op).expect("inferred kinds are memory ops");
                    // Pruning: only plain reads/writes; sync kinds always log.
                    let key = addr_key(addr);
                    let prunable = matches!(kind, AccessKind::Read | AccessKind::Write)
                        && opts.prune_redundant
                        && instr.guard.is_none();
                    let covered = prunable
                        && matches!(
                            (logged.get(&key), kind),
                            (Some(LoggedKind::Write), _)
                                | (Some(LoggedKind::Read), AccessKind::Read)
                        );
                    if covered {
                        stats.pruned += 1;
                    } else {
                        stats.instrumented_instructions += 1;
                        stats.log_calls += 1;
                        match kind {
                            AccessKind::Acquire(_) => stats.acquires += 1,
                            AccessKind::Release(_) => stats.releases += 1,
                            AccessKind::AcquireRelease(_) => stats.acqrels += 1,
                            AccessKind::Atomic => stats.standalone_atomics += 1,
                            _ => {}
                        }
                        let mut args = vec![
                            Operand::Imm(kind_code(kind)),
                            Operand::Imm(space_code(space)),
                            Operand::Imm(size as i64),
                            match &addr.base {
                                AddrBase::Reg(r) => Operand::Reg(*r),
                                AddrBase::Sym(s) => Operand::Sym(s.clone()),
                            },
                            Operand::Imm(addr.offset),
                        ];
                        if kind == AccessKind::Write {
                            if let Some(v) = value {
                                args.push(v.clone());
                            }
                        }
                        let call = Instruction::new(Op::Call {
                            target: "__barracuda_log_access".to_string(),
                            args,
                        });
                        if let Some(Guard { pred, negated }) = instr.guard {
                            // Predication transform: cover the log call
                            // and the access with a branch.
                            let label = format!("__bar_skip_{skip_label}");
                            skip_label += 1;
                            out.push(Statement::Instr(Instruction::guarded(
                                pred,
                                !negated,
                                Op::Bra {
                                    uni: false,
                                    target: label.clone(),
                                },
                            )));
                            out.push(Statement::Instr(call));
                            out.push(Statement::Instr(Instruction::new(instr.op.clone())));
                            out.push(Statement::Label(label));
                            stats.predicated_transformed += 1;
                            logged.clear(); // new block boundaries
                            emit_plain = false;
                        } else {
                            out.push(Statement::Instr(call));
                            if prunable {
                                let lk = if kind == AccessKind::Write {
                                    LoggedKind::Write
                                } else {
                                    LoggedKind::Read
                                };
                                logged.insert(key, lk);
                            }
                        }
                    }
                }
                if emit_plain {
                    out.push(Statement::Instr(instr.clone()));
                }
                // Invalidate pruning entries whose base register this
                // instruction redefines.
                for def in instr.op.defs() {
                    logged.retain(|k, _| !matches!(k, AddrKey::Reg(r, _) if *r == def.0));
                }
            }
        }
    }

    let new_kernel = Kernel {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        regs,
        shared: kernel.shared.clone(),
        stmts: out,
    };
    (new_kernel, stats)
}

/// Instruments every kernel in a module, aggregating statistics.
pub fn instrument_module(module: &Module, opts: &InstrumentOptions) -> (Module, InstrumentStats) {
    let mut out = module.clone();
    let mut stats = InstrumentStats::default();
    out.kernels = module
        .kernels
        .iter()
        .map(|k| {
            let (nk, s) = instrument_kernel(k, opts);
            stats.add(&s);
            nk
        })
        .collect();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use barracuda_ptx::printer::print_module;

    fn module(body: &str) -> Module {
        barracuda_ptx::parse(&format!(
            ".version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k(.param .u64 p)\n{{\n\
             .reg .pred %pp;\n.reg .b32 %r<8>;\n.reg .b64 %rd<8>;\n{body}\n}}"
        ))
        .unwrap()
    }

    #[test]
    fn instrumented_module_reparses() {
        let m = module(
            "ld.param.u64 %rd1, [p];\nld.global.u32 %r1, [%rd1];\nst.global.u32 [%rd1], %r1;\nret;",
        );
        let (im, stats) = instrument_module(&m, &InstrumentOptions::default());
        let text = print_module(&im);
        barracuda_ptx::parse(&text).expect("instrumented PTX must reparse");
        assert_eq!(stats.log_calls, 2);
        assert!(text.contains("__barracuda_log_access"));
    }

    #[test]
    fn log_call_precedes_access() {
        let m = module("ld.param.u64 %rd1, [p];\nst.global.u32 [%rd1], 7;\nret;");
        let (im, _) = instrument_module(&m, &InstrumentOptions::default());
        let instrs: Vec<&Op> = im.kernels[0].instructions().map(|i| &i.op).collect();
        let call_pos = instrs
            .iter()
            .position(
                |o| matches!(o, Op::Call { target, .. } if target == "__barracuda_log_access"),
            )
            .expect("log call present");
        assert!(matches!(instrs[call_pos + 1], Op::St { .. }));
        // Store value passed for same-value filtering.
        match instrs[call_pos] {
            Op::Call { args, .. } => {
                assert_eq!(args.len(), 6);
                assert_eq!(args[5], Operand::Imm(7));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn param_loads_not_logged() {
        let m = module("ld.param.u64 %rd1, [p];\nret;");
        let (_, stats) = instrument_module(&m, &InstrumentOptions::default());
        assert_eq!(stats.log_calls, 0);
    }

    #[test]
    fn pruning_skips_repeated_access() {
        let m = module(
            "ld.param.u64 %rd1, [p];\n\
             ld.global.u32 %r1, [%rd1];\n\
             ld.global.u32 %r2, [%rd1];\n\
             st.global.u32 [%rd1+4], %r1;\n\
             st.global.u32 [%rd1+4], %r2;\n\
             ret;",
        );
        let (_, opt) = instrument_module(&m, &InstrumentOptions::default());
        assert_eq!(opt.pruned, 2, "second load and second store pruned");
        assert_eq!(opt.log_calls, 2);
        let (_, unopt) = instrument_module(&m, &InstrumentOptions::unoptimized());
        assert_eq!(unopt.pruned, 0);
        assert_eq!(unopt.log_calls, 4);
        assert!(opt.instrumented_fraction() < unopt.instrumented_fraction());
    }

    #[test]
    fn write_covers_subsequent_read_but_not_vice_versa() {
        let m = module(
            "ld.param.u64 %rd1, [p];\n\
             st.global.u32 [%rd1], 1;\n\
             ld.global.u32 %r1, [%rd1];\n\
             ret;",
        );
        let (_, s) = instrument_module(&m, &InstrumentOptions::default());
        assert_eq!(s.pruned, 1, "read after write to same address pruned");
        let m2 = module(
            "ld.param.u64 %rd1, [p];\n\
             ld.global.u32 %r1, [%rd1];\n\
             st.global.u32 [%rd1], 1;\n\
             ret;",
        );
        let (_, s2) = instrument_module(&m2, &InstrumentOptions::default());
        assert_eq!(s2.pruned, 0, "write after read must still be logged");
    }

    #[test]
    fn redefined_base_register_invalidates_pruning() {
        let m = module(
            "ld.param.u64 %rd1, [p];\n\
             ld.global.u32 %r1, [%rd1];\n\
             add.s64 %rd1, %rd1, 8;\n\
             ld.global.u32 %r2, [%rd1];\n\
             ret;",
        );
        let (_, s) = instrument_module(&m, &InstrumentOptions::default());
        assert_eq!(s.pruned, 0);
        assert_eq!(s.log_calls, 2);
    }

    #[test]
    fn fence_invalidates_pruning() {
        let m = module(
            "ld.param.u64 %rd1, [p];\n\
             ld.global.u32 %r1, [%rd1];\n\
             bar.sync 0;\n\
             ld.global.u32 %r2, [%rd1];\n\
             ret;",
        );
        let (_, s) = instrument_module(&m, &InstrumentOptions::default());
        assert_eq!(s.pruned, 0);
    }

    #[test]
    fn predicated_access_transformed_into_branch() {
        let m = module(
            "ld.param.u64 %rd1, [p];\n\
             @%pp st.global.u32 [%rd1], 1;\n\
             ret;",
        );
        let (im, s) = instrument_module(&m, &InstrumentOptions::default());
        assert_eq!(s.predicated_transformed, 1);
        let text = print_module(&im);
        assert!(text.contains("__bar_skip_0"), "{text}");
        // The store itself is now unguarded.
        let k = &im.kernels[0];
        for i in k.instructions() {
            if matches!(i.op, Op::St { .. }) {
                assert!(i.guard.is_none());
            }
        }
        barracuda_ptx::parse(&text).expect("reparses");
    }

    #[test]
    fn convergence_markers_at_reconvergence_points() {
        let m = module(
            "setp.eq.s32 %pp, %r1, 0;\n\
             @%pp bra L_end;\n\
             mov.u32 %r2, 1;\n\
             L_end:\n\
             ret;",
        );
        let (im, s) = instrument_module(&m, &InstrumentOptions::default());
        assert_eq!(s.convergence_markers, 1);
        let text = print_module(&im);
        assert!(text.contains("__barracuda_log_conv"));
        barracuda_ptx::parse(&text).expect("reparses");
    }

    #[test]
    fn inference_stats_counted() {
        let m = module(
            "ld.param.u64 %rd1, [p];\n\
             membar.gl;\n\
             st.global.u32 [%rd1], 1;\n\
             ld.global.u32 %r1, [%rd1+4];\n\
             membar.cta;\n\
             atom.global.add.u32 %r2, [%rd1+8], 1;\n\
             membar.cta;\n\
             atom.global.add.u32 %r3, [%rd1+16], 1;\n\
             ret;",
        );
        let (_, s) = instrument_module(&m, &InstrumentOptions::default());
        // membar.gl + st → release; ld + membar.cta → acquire; the first
        // atomic sits between two fences → acquire-release; the second is
        // fence-preceded (the fence after the first atomic binds forward
        // too) → conservative release half.
        assert_eq!(s.releases, 2);
        assert_eq!(s.acquires, 1);
        assert_eq!(s.acqrels, 1);
        assert_eq!(s.standalone_atomics, 0);
        assert_eq!(s.log_calls, 4);
    }

    #[test]
    fn tid_computation_injected() {
        let m = module("ret;");
        let (im, _) = instrument_module(&m, &InstrumentOptions::default());
        // tid.x, ctaid.x and ntid.x moves, the mad and the widening cvt,
        // then the original `ret`.
        let ops: Vec<&Op> = im.kernels[0].instructions().map(|i| &i.op).collect();
        assert_eq!(ops.len(), 6, "{ops:?}");
        assert!(matches!(
            ops[0],
            Op::Mov {
                src: Operand::Special(SpecialReg::Tid(Dim::X)),
                ..
            }
        ));
        assert!(matches!(ops[3], Op::Mad { .. }));
        assert!(matches!(ops[4], Op::Cvt { .. }));
    }
}
