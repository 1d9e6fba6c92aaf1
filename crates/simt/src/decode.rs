//! Decode-once micro-op IR.
//!
//! [`DecodedKernel::decode`] lowers a flattened kernel's AST instructions
//! into a dense `Vec` of fixed-size `Copy` micro-ops exactly once, at
//! kernel load time:
//!
//! * branch targets are resolved from label strings to instruction
//!   indices, with the branch's reconvergence point inlined;
//! * `.param` symbols become parameter-block byte offsets, `.shared`
//!   symbols become shared-segment base addresses;
//! * float immediates are pre-converted to the bit pattern the consuming
//!   instruction's type dictates;
//! * variable-length operand lists (vector loads/stores, call arguments)
//!   move into side pools referenced by `(start, len)` ranges;
//! * instrumentation call targets become an enum, and the per-step "is
//!   this a fused `__barracuda_log_access`" test becomes a precomputed
//!   bit.
//!
//! The interpreter hot loop (`exec.rs`) then dispatches on `DecodedInstr`
//! with zero allocation and zero string lookups per step. Anything that
//! cannot be resolved — unknown labels, undeclared symbols, undefined call
//! targets, malformed hooks — is a load-time [`SimError`], so execution
//! itself can no longer hit those faults.

use barracuda_ptx::ast::{
    AddrBase, Address, AtomOp, FenceLevel, Guard, Kernel, Op, Operand, Reg, ShflMode, Space,
    SpecialReg, Type,
};
use barracuda_ptx::cfg::FlatKernel;

use crate::config::SimError;
use crate::exec::{
    warp_bin_fn, warp_mad_fn, warp_mul_fn, warp_setp_fn, warp_un_fn, WarpBinFn, WarpMadFn, WarpUnFn,
};

/// A decoded operand: register, pre-converted immediate bits, or a special
/// register. Symbol operands were resolved to immediates at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DOperand {
    /// Read the lane's register.
    Reg(Reg),
    /// Immediate bits, already converted for the consuming type.
    Imm(u64),
    /// Special hardware register, evaluated per lane.
    Special(SpecialReg),
}

/// Base of a decoded address: a register or a pre-resolved constant
/// (parameter-block offset or shared-segment base).
#[derive(Debug, Clone, Copy)]
pub(crate) enum DBase {
    /// Read the lane's register.
    Reg(Reg),
    /// Constant base resolved at decode time.
    Const(u64),
}

/// A decoded address expression: `base + offset`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DAddr {
    pub base: DBase,
    pub offset: i64,
}

/// Recognized instrumentation call targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DCall {
    /// `__barracuda_log_access`: logs a memory/synchronization access.
    LogAccess,
    /// `__barracuda_log_conv`: convergence-point marker, runtime NOP.
    LogConv,
}

/// A `(start, len)` range into one of the [`DecodedKernel`] side pools.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DSlice {
    pub start: u32,
    pub len: u32,
}

/// Reconvergence of a conditional branch, resolved at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DRecon {
    /// The divergent paths only rejoin at kernel exit.
    Exit,
    /// Reconverge at this instruction index.
    At(u32),
}

impl DRecon {
    /// The `Option<usize>` form the SIMT stack stores.
    pub fn rpc(self) -> Option<usize> {
        match self {
            DRecon::Exit => None,
            DRecon::At(i) => Some(i as usize),
        }
    }
}

/// Decoded micro-operation. Mirrors [`Op`] with every name resolved and
/// every variable-length field moved into a side pool.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)]
pub(crate) enum DOp {
    Ld {
        space: Space,
        ty: Type,
        dst: Reg,
        addr: DAddr,
    },
    St {
        space: Space,
        ty: Type,
        addr: DAddr,
        src: DOperand,
    },
    LdVec {
        space: Space,
        ty: Type,
        dsts: DSlice,
        addr: DAddr,
    },
    StVec {
        space: Space,
        ty: Type,
        addr: DAddr,
        srcs: DSlice,
    },
    Atom {
        space: Space,
        op: AtomOp,
        ty: Type,
        dst: Reg,
        addr: DAddr,
        a: DOperand,
        b: Option<DOperand>,
    },
    Red {
        space: Space,
        op: AtomOp,
        ty: Type,
        addr: DAddr,
        a: DOperand,
    },
    Membar {
        global: bool,
    },
    Bar,
    Bra {
        target: u32,
        recon: DRecon,
    },
    Setp {
        f: WarpBinFn,
        dst: Reg,
        a: DOperand,
        b: DOperand,
    },
    Mov {
        dst: Reg,
        src: DOperand,
    },
    Bin {
        f: WarpBinFn,
        dst: Reg,
        a: DOperand,
        b: DOperand,
    },
    Un {
        f: WarpUnFn,
        dst: Reg,
        a: DOperand,
    },
    Mul {
        f: WarpBinFn,
        dst: Reg,
        a: DOperand,
        b: DOperand,
    },
    Mad {
        f: WarpMadFn,
        dst: Reg,
        a: DOperand,
        b: DOperand,
        c: DOperand,
    },
    Selp {
        dst: Reg,
        a: DOperand,
        b: DOperand,
        p: Reg,
    },
    Cvt {
        dty: Type,
        sty: Type,
        dst: Reg,
        a: DOperand,
    },
    Cvta {
        dst: Reg,
        a: DOperand,
    },
    Shfl {
        mode: ShflMode,
        dst: Reg,
        a: DOperand,
        b: DOperand,
        c: DOperand,
    },
    Call {
        target: DCall,
        args: DSlice,
    },
    Ret,
    Exit,
}

/// One decoded instruction: guard, precomputed fusion bit, micro-op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedInstr {
    /// Optional `@%p` guard (registers are already indices).
    pub guard: Option<Guard>,
    /// True for a `__barracuda_log_access` call, which fuses with the
    /// instruction it covers (the log record and the operation's effect
    /// must be atomic with respect to other warps).
    pub fused: bool,
    /// The operation.
    pub op: DOp,
}

/// A kernel lowered to the micro-op IR: dense instruction array plus the
/// operand/register side pools referenced by [`DSlice`] ranges.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodedKernel {
    pub instrs: Vec<DecodedInstr>,
    /// Pool for `StVec` sources and `Call` arguments.
    pub operands: Vec<DOperand>,
    /// Pool for `LdVec` destination registers.
    pub regs: Vec<Reg>,
}

impl DecodedKernel {
    /// Lowers a flattened kernel. `recon[i]` is the precomputed
    /// reconvergence entry for instruction `i` (see
    /// [`crate::kernel::reconvergence_table`]).
    ///
    /// # Errors
    ///
    /// Returns a load-time [`SimError`] for unknown branch labels
    /// ([`SimError::UnknownLabel`]), undeclared `.shared`/`.param` symbols
    /// ([`SimError::UnknownSymbol`]) and undefined or malformed call
    /// targets ([`SimError::BadInstruction`]).
    pub fn decode(
        kernel: &Kernel,
        flat: &FlatKernel,
        recon: &[Option<Option<usize>>],
    ) -> Result<Self, SimError> {
        let mut dk = DecodedKernel::default();
        dk.instrs.reserve(flat.instrs.len());
        for (i, instr) in flat.instrs.iter().enumerate() {
            let op = decode_op(kernel, flat, recon, i, &instr.op, &mut dk)?;
            let fused = matches!(
                op,
                DOp::Call {
                    target: DCall::LogAccess,
                    ..
                }
            );
            dk.instrs.push(DecodedInstr {
                guard: instr.guard,
                fused,
                op,
            });
        }
        Ok(dk)
    }
}

/// Pre-converts an operand for evaluation at type `ty` (the float-immediate
/// bit pattern depends on the consuming instruction's type).
fn operand(kernel: &Kernel, op: &Operand, ty: Type) -> Result<DOperand, SimError> {
    Ok(match op {
        Operand::Reg(r) => DOperand::Reg(*r),
        Operand::Imm(v) => DOperand::Imm(*v as u64),
        Operand::FImm(v) => DOperand::Imm(if ty == Type::F32 {
            u64::from((*v as f32).to_bits())
        } else {
            v.to_bits()
        }),
        Operand::Special(sr) => DOperand::Special(*sr),
        Operand::Sym(s) => DOperand::Imm(
            kernel
                .shared_offset(s)
                .ok_or_else(|| SimError::UnknownSymbol(s.clone()))?,
        ),
    })
}

fn addr(kernel: &Kernel, a: &Address, space: Space) -> Result<DAddr, SimError> {
    let base = match &a.base {
        AddrBase::Reg(r) => DBase::Reg(*r),
        AddrBase::Sym(s) => DBase::Const(match space {
            Space::Param => {
                kernel
                    .param_info(s)
                    .ok_or_else(|| SimError::UnknownSymbol(s.clone()))?
                    .0
            }
            _ => kernel
                .shared_offset(s)
                .ok_or_else(|| SimError::UnknownSymbol(s.clone()))?,
        }),
    };
    Ok(DAddr {
        base,
        offset: a.offset,
    })
}

fn pool_operands(
    kernel: &Kernel,
    ops: &[Operand],
    ty: Type,
    pool: &mut Vec<DOperand>,
) -> Result<DSlice, SimError> {
    let start = pool.len() as u32;
    for op in ops {
        pool.push(operand(kernel, op, ty)?);
    }
    Ok(DSlice {
        start,
        len: ops.len() as u32,
    })
}

#[allow(clippy::too_many_lines)]
fn decode_op(
    kernel: &Kernel,
    flat: &FlatKernel,
    recon: &[Option<Option<usize>>],
    i: usize,
    op: &Op,
    dk: &mut DecodedKernel,
) -> Result<DOp, SimError> {
    Ok(match op {
        Op::Ld {
            space,
            ty,
            dst,
            addr: a,
            ..
        } => DOp::Ld {
            space: *space,
            ty: *ty,
            dst: *dst,
            addr: addr(kernel, a, *space)?,
        },
        Op::St {
            space,
            ty,
            addr: a,
            src,
            ..
        } => DOp::St {
            space: *space,
            ty: *ty,
            addr: addr(kernel, a, *space)?,
            src: operand(kernel, src, *ty)?,
        },
        Op::LdVec {
            space,
            ty,
            dsts,
            addr: a,
            ..
        } => {
            let start = dk.regs.len() as u32;
            dk.regs.extend_from_slice(dsts);
            DOp::LdVec {
                space: *space,
                ty: *ty,
                dsts: DSlice {
                    start,
                    len: dsts.len() as u32,
                },
                addr: addr(kernel, a, *space)?,
            }
        }
        Op::StVec {
            space,
            ty,
            addr: a,
            srcs,
            ..
        } => DOp::StVec {
            space: *space,
            ty: *ty,
            addr: addr(kernel, a, *space)?,
            srcs: pool_operands(kernel, srcs, *ty, &mut dk.operands)?,
        },
        Op::Atom {
            space,
            op,
            ty,
            dst,
            addr: a,
            a: av,
            b,
        } => DOp::Atom {
            space: *space,
            op: *op,
            ty: *ty,
            dst: *dst,
            addr: addr(kernel, a, *space)?,
            a: operand(kernel, av, *ty)?,
            b: match b {
                Some(bv) => Some(operand(kernel, bv, *ty)?),
                None => None,
            },
        },
        Op::Red {
            space,
            op,
            ty,
            addr: a,
            a: av,
        } => DOp::Red {
            space: *space,
            op: *op,
            ty: *ty,
            addr: addr(kernel, a, *space)?,
            a: operand(kernel, av, *ty)?,
        },
        Op::Membar { level } => DOp::Membar {
            global: *level != FenceLevel::Cta,
        },
        Op::Bar { .. } => DOp::Bar,
        Op::Bra { target, .. } => {
            let tgt = flat
                .target(target)
                .ok_or_else(|| SimError::UnknownLabel(target.clone()))?;
            let recon = match recon.get(i).copied().unwrap_or(None) {
                Some(Some(r)) => DRecon::At(r as u32),
                _ => DRecon::Exit,
            };
            DOp::Bra {
                target: tgt as u32,
                recon,
            }
        }
        Op::Setp { cmp, ty, dst, a, b } => DOp::Setp {
            f: warp_setp_fn(*cmp, *ty),
            dst: *dst,
            a: operand(kernel, a, *ty)?,
            b: operand(kernel, b, *ty)?,
        },
        Op::Mov { ty, dst, src } => DOp::Mov {
            dst: *dst,
            src: operand(kernel, src, *ty)?,
        },
        Op::Bin { op, ty, dst, a, b } => DOp::Bin {
            f: warp_bin_fn(*op, *ty),
            dst: *dst,
            a: operand(kernel, a, *ty)?,
            b: operand(kernel, b, *ty)?,
        },
        Op::Un { op, ty, dst, a } => DOp::Un {
            f: warp_un_fn(*op, *ty),
            dst: *dst,
            a: operand(kernel, a, *ty)?,
        },
        Op::Mul {
            mode,
            ty,
            dst,
            a,
            b,
        } => DOp::Mul {
            f: warp_mul_fn(*mode, *ty),
            dst: *dst,
            a: operand(kernel, a, *ty)?,
            b: operand(kernel, b, *ty)?,
        },
        Op::Mad {
            mode,
            ty,
            dst,
            a,
            b,
            c,
        } => DOp::Mad {
            f: warp_mad_fn(*mode, *ty),
            dst: *dst,
            a: operand(kernel, a, *ty)?,
            b: operand(kernel, b, *ty)?,
            c: operand(kernel, c, *ty)?,
        },
        Op::Selp { ty, dst, a, b, p } => DOp::Selp {
            dst: *dst,
            a: operand(kernel, a, *ty)?,
            b: operand(kernel, b, *ty)?,
            p: *p,
        },
        Op::Cvt { dty, sty, dst, a } => DOp::Cvt {
            dty: *dty,
            sty: *sty,
            dst: *dst,
            a: operand(kernel, a, *sty)?,
        },
        Op::Cvta { ty, dst, a, .. } => DOp::Cvta {
            dst: *dst,
            a: operand(kernel, a, *ty)?,
        },
        Op::Shfl {
            mode,
            ty,
            dst,
            a,
            b,
            c,
        } => DOp::Shfl {
            mode: *mode,
            dst: *dst,
            a: operand(kernel, a, *ty)?,
            b: operand(kernel, b, *ty)?,
            c: operand(kernel, c, *ty)?,
        },
        Op::Call { target, args } => {
            let tgt = match target.as_str() {
                "__barracuda_log_access" => DCall::LogAccess,
                "__barracuda_log_conv" => DCall::LogConv,
                other if other.starts_with("__barracuda") => {
                    return Err(SimError::BadInstruction {
                        index: i,
                        reason: format!("unknown instrumentation hook {other}"),
                    })
                }
                other => {
                    return Err(SimError::BadInstruction {
                        index: i,
                        reason: format!("call to undefined function {other}"),
                    })
                }
            };
            if tgt == DCall::LogAccess && args.len() < 5 {
                return Err(SimError::BadInstruction {
                    index: i,
                    reason: format!("log_access requires 5+ args, got {}", args.len()),
                });
            }
            // log_access evaluates args 0..3 (kind/space/size) as u32 and
            // the rest (base/offset/value) as u64; only the bit pattern of
            // float immediates depends on the type, and pre-conversion
            // must match what the AST walk computes per call site.
            let start = dk.operands.len() as u32;
            for (j, a) in args.iter().enumerate() {
                let ty = if j < 3 { Type::U32 } else { Type::U64 };
                dk.operands.push(operand(kernel, a, ty)?);
            }
            DOp::Call {
                target: tgt,
                args: DSlice {
                    start,
                    len: args.len() as u32,
                },
            }
        }
        Op::Ret => DOp::Ret,
        Op::Exit => DOp::Exit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use barracuda_ptx::cfg::Cfg;
    use barracuda_ptx::Instruction;

    fn decode_src(body: &str) -> Result<DecodedKernel, SimError> {
        let m = barracuda_ptx::parse(&format!(
            ".version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k(.param .u64 p)\n{{\n{body}\n}}"
        ))
        .unwrap();
        let flat = FlatKernel::from_kernel(&m.kernels[0]);
        let recon = vec![None; flat.instrs.len()];
        DecodedKernel::decode(&m.kernels[0], &flat, &recon)
    }

    #[test]
    fn branch_targets_become_indices() {
        let dk = decode_src(".reg .b32 %r<2>;\nbra.uni L;\nmov.u32 %r1, 1;\nL:\nret;").unwrap();
        assert!(matches!(dk.instrs[0].op, DOp::Bra { target: 2, .. }));
    }

    #[test]
    fn param_symbol_resolves_to_offset() {
        let dk = decode_src(".reg .b64 %rd<2>;\nld.param.u64 %rd1, [p];\nret;").unwrap();
        match dk.instrs[0].op {
            DOp::Ld {
                addr:
                    DAddr {
                        base: DBase::Const(0),
                        offset: 0,
                    },
                ..
            } => {}
            ref op => panic!("{op:?}"),
        }
    }

    #[test]
    fn shared_symbol_resolves_to_base() {
        let m = barracuda_ptx::parse(
            ".version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k()\n{\n\
             .reg .b64 %rd<2>;\n.shared .align 4 .b8 sm[64];\n\
             mov.u64 %rd1, sm;\nret;\n}",
        )
        .unwrap();
        let flat = FlatKernel::from_kernel(&m.kernels[0]);
        let _cfg = Cfg::build(&flat);
        let dk = DecodedKernel::decode(&m.kernels[0], &flat, &[None, None]).unwrap();
        assert!(matches!(
            dk.instrs[0].op,
            DOp::Mov {
                src: DOperand::Imm(0),
                ..
            }
        ));
    }

    #[test]
    fn fused_bit_marks_log_access_calls() {
        let dk = decode_src(
            ".reg .b64 %rd<2>;\n\
             call.uni __barracuda_log_access, (0, 0, 4, %rd1, 0);\n\
             call.uni __barracuda_log_conv;\nret;",
        )
        .unwrap();
        assert!(dk.instrs[0].fused);
        assert!(!dk.instrs[1].fused);
        assert!(
            matches!(dk.instrs[0].op, DOp::Call { target: DCall::LogAccess, args } if args.len == 5)
        );
        assert!(matches!(
            dk.instrs[1].op,
            DOp::Call {
                target: DCall::LogConv,
                ..
            }
        ));
    }

    #[test]
    fn unknown_call_target_rejected_at_decode() {
        let err = decode_src(".reg .b32 %r<2>;\ncall.uni some_function;\nret;").unwrap_err();
        assert!(
            matches!(err, SimError::BadInstruction { index: 0, .. }),
            "{err:?}"
        );
        let err = decode_src(".reg .b32 %r<2>;\ncall.uni __barracuda_bogus;\nret;").unwrap_err();
        assert!(matches!(err, SimError::BadInstruction { .. }), "{err:?}");
    }

    #[test]
    fn short_log_access_rejected_at_decode() {
        let err = decode_src(".reg .b32 %r<2>;\ncall.uni __barracuda_log_access, (0, 0);\nret;")
            .unwrap_err();
        assert!(matches!(err, SimError::BadInstruction { .. }), "{err:?}");
    }

    #[test]
    fn unknown_shared_symbol_rejected() {
        let mut flat = FlatKernel {
            instrs: vec![Instruction::new(Op::Mov {
                ty: Type::U64,
                dst: Reg(0),
                src: Operand::Sym("nope".into()),
            })],
            labels: std::collections::HashMap::new(),
        };
        let m = barracuda_ptx::parse(
            ".version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k()\n{\nret;\n}",
        )
        .unwrap();
        let err = DecodedKernel::decode(&m.kernels[0], &flat, &[None]).unwrap_err();
        assert!(matches!(err, SimError::UnknownSymbol(s) if s == "nope"));
        // Same for an address-base symbol.
        flat.instrs[0] = Instruction::new(Op::Ld {
            space: Space::Shared,
            cache: None,
            volatile: false,
            ty: Type::U32,
            dst: Reg(0),
            addr: Address::sym("missing"),
        });
        let err = DecodedKernel::decode(&m.kernels[0], &flat, &[None]).unwrap_err();
        assert!(matches!(err, SimError::UnknownSymbol(s) if s == "missing"));
    }
}
