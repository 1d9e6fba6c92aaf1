//! The AST-walking reference interpreter: the simulator's test oracle.
//!
//! This is the original interpreter: it executes [`barracuda_ptx::ast::Op`]
//! values directly, resolving branch labels and memory symbols by name on
//! every step. It is the executable specification the decoded interpreter
//! ([`crate::exec`]) is differentially tested against — both must produce
//! identical results, statistics and event streams for every loadable
//! kernel — just as the detector's dense reference is the oracle of its
//! shadow checks. It shares the scheduler and the SIMT-stack, guard,
//! logging and byte-access helpers with the hot path; only instruction
//! dispatch and operand/address evaluation differ, and it keeps the
//! per-lane memory path where the decoded loop takes the warp-wide one.
//!
//! The module only compiles for the crate's own tests and under the
//! `ast-oracle` feature, which only `[dev-dependencies]` entries enable;
//! the product never links it. Its one entry point is
//! [`launch_with_sink`], re-exported as
//! `barracuda_simt::ast_oracle::launch_with_sink`.

use barracuda_ptx::ast::{AddrBase, Address, FenceLevel, Module, Op, Operand, Space, Type};
use barracuda_ptx::cfg::FlatKernel;
use barracuda_trace::ops::{AccessKind, Event, MemSpace};
use barracuda_trace::GridDims;

use crate::config::SimError;
use crate::coresident::{GroupLaunch, SchedPolicy};
use crate::exec::{
    access_kind, advance, filter_same_value, guard_mask, lanes, load_bytes, log_native_access,
    pop_emit, special_value, store_bytes, ExecCtx, ResolvedSpace, StepOutcome,
};
use crate::kernel::{reconvergence_table, LoadedKernel, ReconTable};
use crate::machine::{Gpu, LaunchStats, ParamValue};
use crate::sink::EventSink;
use crate::value;
use crate::warp::{EntryKind, StackEntry, WarpState, WarpStatus};

/// Launches `kernel` from `module` on `gpu` under the AST walker, with the
/// same scheduler, launch statistics and event stream as
/// [`Gpu::launch_with_sink`] runs the decoded interpreter under.
///
/// The kernel is loaded (and validated) as the product loads it; the flat
/// instruction list and reconvergence table the walker reads are rebuilt
/// from the module for this launch.
///
/// # Errors
///
/// Same as [`Gpu::launch_with_sink`].
pub fn launch_with_sink(
    gpu: &mut Gpu,
    module: &Module,
    kernel: &str,
    dims: GridDims,
    params: &[ParamValue],
    sink: &dyn EventSink,
) -> Result<LaunchStats, SimError> {
    let lk = LoadedKernel::load(module, kernel)?;
    let flat = FlatKernel::from_kernel(&lk.kernel);
    let recon = reconvergence_table(&flat)?;
    let launch = GroupLaunch {
        lk: &lk,
        dims,
        params,
        dep: None,
    };
    let outcome = gpu.run_group(
        &[launch],
        SchedPolicy::RoundRobin,
        Some(sink),
        |ctx: &mut ExecCtx, w: &mut WarpState| step(&flat, &recon, ctx, w),
    )?;
    Ok(outcome.stats[0])
}

/// Executes one instruction (or performs pending stack pops) for warp `w`,
/// walking the flattened PTX AST.
fn step(
    flat: &FlatKernel,
    recon: &ReconTable,
    ctx: &mut ExecCtx,
    w: &mut WarpState,
) -> Result<StepOutcome, SimError> {
    loop {
        let Some(top) = w.stack.last().copied() else {
            if w.status != WarpStatus::Done {
                ctx.emit(
                    w,
                    &Event::Exit {
                        warp: w.warp,
                        mask: w.live_mask,
                    },
                );
                w.status = WarpStatus::Done;
            }
            return Ok(StepOutcome::Done);
        };
        if Some(top.pc) == top.rpc {
            pop_emit(ctx, w);
            continue;
        }
        let eff = top.mask & !w.exited;
        if eff == 0 {
            pop_emit(ctx, w);
            continue;
        }
        let Some(instr) = flat.instrs.get(top.pc) else {
            // Ran past the end: implicit exit for this path's lanes.
            w.exited |= eff;
            pop_emit(ctx, w);
            continue;
        };
        // See `exec::step`: log_access fuses with the covered instruction.
        let fused = matches!(
            &instr.op,
            Op::Call { target, .. } if target == "__barracuda_log_access"
        );
        let out = exec_instr(flat, recon, ctx, w, top.pc, eff)?;
        if fused && out == StepOutcome::Continue {
            continue;
        }
        return Ok(out);
    }
}

fn operand_value(
    ctx: &ExecCtx,
    w: &WarpState,
    lane: u32,
    op: &Operand,
    ty: Type,
) -> Result<u64, SimError> {
    Ok(match op {
        Operand::Reg(r) => w.reg(lane, *r),
        Operand::Imm(v) => *v as u64,
        Operand::FImm(v) => {
            if ty == Type::F32 {
                u64::from((*v as f32).to_bits())
            } else {
                v.to_bits()
            }
        }
        Operand::Special(sr) => special_value(ctx.dims, w, lane, *sr),
        Operand::Sym(s) => ctx
            .kernel
            .kernel
            .shared_offset(s)
            .ok_or_else(|| SimError::Fault(format!("unknown symbol {s}")))?,
    })
}

/// Resolves a memory address for one lane, looking symbols up by name.
fn resolve_addr(
    ctx: &ExecCtx,
    w: &WarpState,
    lane: u32,
    addr: &Address,
    space: Space,
) -> Result<(ResolvedSpace, u64), SimError> {
    let base = match &addr.base {
        AddrBase::Reg(r) => w.reg(lane, *r),
        AddrBase::Sym(s) => match space {
            Space::Param => {
                let (off, _) = ctx
                    .kernel
                    .kernel
                    .param_info(s)
                    .ok_or_else(|| SimError::Fault(format!("unknown param {s}")))?;
                off
            }
            _ => ctx
                .kernel
                .kernel
                .shared_offset(s)
                .ok_or_else(|| SimError::Fault(format!("unknown shared symbol {s}")))?,
        },
    };
    let a = base.wrapping_add(addr.offset as u64);
    let rs = match space {
        Space::Param => ResolvedSpace::Param,
        Space::Shared => ResolvedSpace::Shared,
        Space::Local => ResolvedSpace::Local,
        Space::Global => ResolvedSpace::Global,
        Space::Generic => {
            if a < crate::GLOBAL_BASE {
                ResolvedSpace::Shared
            } else {
                ResolvedSpace::Global
            }
        }
    };
    Ok((rs, a))
}

#[allow(clippy::too_many_lines)]
fn exec_instr(
    flat: &FlatKernel,
    recon: &ReconTable,
    ctx: &mut ExecCtx,
    w: &mut WarpState,
    pc: usize,
    eff: u32,
) -> Result<StepOutcome, SimError> {
    let instr = &flat.instrs[pc];
    let exec = guard_mask(w, eff, instr.guard);
    let warp_size = ctx.dims.warp_size;

    // Guarded branches are conditional branches and handled specially;
    // for every other instruction an all-false guard is a NOP.
    if exec == 0 && !matches!(instr.op, Op::Bra { .. }) {
        advance(w);
        return Ok(StepOutcome::Continue);
    }

    match instr.op {
        Op::Bra { ref target, .. } => {
            let tgt = flat
                .target(target)
                .ok_or_else(|| SimError::Fault(format!("unknown label {target}")))?;
            if instr.guard.is_none() {
                let top = w.stack.last_mut().expect("non-empty");
                top.pc = tgt;
                return Ok(StepOutcome::Continue);
            }
            let taken = exec;
            let not_taken = eff & !taken;
            ctx.emit(
                w,
                &Event::If {
                    warp: w.warp,
                    then_mask: taken,
                    else_mask: not_taken,
                },
            );
            if taken == 0 || not_taken == 0 {
                // Uniform branch: no hardware divergence; the empty path is
                // an empty else (paper §3.1).
                ctx.emit(w, &Event::Else { warp: w.warp });
                ctx.emit(w, &Event::Fi { warp: w.warp });
                let top = w.stack.last_mut().expect("non-empty");
                top.pc = if not_taken == 0 { tgt } else { pc + 1 };
            } else {
                let rpc = recon[pc].unwrap_or(None);
                let top = w.stack.last_mut().expect("non-empty");
                // Current entry becomes the reconvergence continuation.
                top.pc = rpc.unwrap_or(usize::MAX);
                w.stack.push(StackEntry {
                    pc: pc + 1,
                    mask: not_taken,
                    rpc,
                    kind: EntryKind::Else,
                });
                w.stack.push(StackEntry {
                    pc: tgt,
                    mask: taken,
                    rpc,
                    kind: EntryKind::Then,
                });
            }
            Ok(StepOutcome::Continue)
        }
        Op::Ret | Op::Exit => {
            w.exited |= exec;
            if exec == eff {
                pop_emit(ctx, w);
            } else {
                advance(w);
            }
            Ok(StepOutcome::Continue)
        }
        Op::Bar { .. } => {
            w.status = WarpStatus::AtBarrier;
            w.barrier_mask = exec;
            ctx.emit(
                w,
                &Event::Bar {
                    warp: w.warp,
                    mask: exec,
                },
            );
            Ok(StepOutcome::Barrier)
        }
        Op::Membar { level } => {
            ctx.global.fence(w.block, level != FenceLevel::Cta);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::LdVec {
            space,
            ty,
            ref dsts,
            ref addr,
            ..
        } => {
            let elem = ty.size();
            let total = (elem * dsts.len() as u64) as u8;
            let mut addrs = [0u64; 32];
            let vals = [0u64; 32];
            let mut rspace = ResolvedSpace::Global;
            for lane in lanes(exec, warp_size) {
                let (rs, base) = resolve_addr(ctx, w, lane, addr, space)?;
                rspace = rs;
                addrs[lane as usize] = base;
                for (i, &dst) in dsts.iter().enumerate() {
                    let a = base + i as u64 * elem;
                    let raw = match rs {
                        ResolvedSpace::Global => ctx.global.load(w.block, a, elem as u8)?,
                        ResolvedSpace::Shared => ctx.shared.load(a, elem as u8)?,
                        _ => {
                            return Err(SimError::Fault("vector load on param/local space".into()))
                        }
                    };
                    let v = if ty.is_signed() {
                        value::sext(ty, raw) as u64
                    } else {
                        value::trunc(ty, raw)
                    };
                    w.set_reg(lane, dst, v);
                }
            }
            log_native_access(ctx, w, AccessKind::Read, rspace, exec, &addrs, &vals, total);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::StVec {
            space,
            ty,
            ref addr,
            ref srcs,
            ..
        } => {
            let elem = ty.size();
            let total = (elem * srcs.len() as u64) as u8;
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            let mut rspace = ResolvedSpace::Global;
            for lane in lanes(exec, warp_size) {
                let (rs, base) = resolve_addr(ctx, w, lane, addr, space)?;
                rspace = rs;
                addrs[lane as usize] = base;
                // Vector stores carry multiple values; disable the
                // same-value collapse by making lane tags distinct.
                vals[lane as usize] = u64::from(lane) + 1;
                for (i, src) in srcs.iter().enumerate() {
                    let a = base + i as u64 * elem;
                    let v = value::trunc(ty, operand_value(ctx, w, lane, src, ty)?);
                    match rs {
                        ResolvedSpace::Global => ctx.global.store(w.block, a, elem as u8, v)?,
                        ResolvedSpace::Shared => ctx.shared.store(a, elem as u8, v)?,
                        _ => {
                            return Err(SimError::Fault("vector store on param/local space".into()))
                        }
                    }
                }
            }
            log_native_access(
                ctx,
                w,
                AccessKind::Write,
                rspace,
                exec,
                &addrs,
                &vals,
                total,
            );
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Ld {
            space,
            ty,
            dst,
            ref addr,
            ..
        } => {
            let size = ty.size() as u8;
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            let mut rspace = ResolvedSpace::Global;
            for lane in lanes(exec, warp_size) {
                let (rs, a) = resolve_addr(ctx, w, lane, addr, space)?;
                rspace = rs;
                let raw = match rs {
                    ResolvedSpace::Global => ctx.global.load(w.block, a, size)?,
                    ResolvedSpace::Shared => ctx.shared.load(a, size)?,
                    ResolvedSpace::Param => load_bytes(ctx.param_block, a as usize, size, "param")?,
                    ResolvedSpace::Local => {
                        load_bytes(ctx.locals.lane(w.warp, lane), a as usize, size, "local")?
                    }
                };
                let v = if ty.is_signed() {
                    value::sext(ty, raw) as u64
                } else {
                    value::trunc(ty, raw)
                };
                addrs[lane as usize] = a;
                vals[lane as usize] = v;
                w.set_reg(lane, dst, v);
            }
            log_native_access(ctx, w, AccessKind::Read, rspace, exec, &addrs, &vals, size);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::St {
            space,
            ty,
            ref addr,
            ref src,
            ..
        } => {
            let size = ty.size() as u8;
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            let mut rspace = ResolvedSpace::Global;
            for lane in lanes(exec, warp_size) {
                let (rs, a) = resolve_addr(ctx, w, lane, addr, space)?;
                rspace = rs;
                let v = value::trunc(ty, operand_value(ctx, w, lane, src, ty)?);
                addrs[lane as usize] = a;
                vals[lane as usize] = v;
                match rs {
                    ResolvedSpace::Global => ctx.global.store(w.block, a, size, v)?,
                    ResolvedSpace::Shared => ctx.shared.store(a, size, v)?,
                    ResolvedSpace::Param => {
                        return Err(SimError::Fault("store to param space".into()))
                    }
                    ResolvedSpace::Local => {
                        store_bytes(ctx.locals.lane(w.warp, lane), a as usize, size, v, "local")?;
                    }
                }
            }
            log_native_access(ctx, w, AccessKind::Write, rspace, exec, &addrs, &vals, size);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Atom {
            space,
            op,
            ty,
            dst,
            ref addr,
            ref a,
            ref b,
        } => {
            let size = ty.size() as u8;
            let mut addrs = [0u64; 32];
            let vals = [0u64; 32];
            let mut rspace = ResolvedSpace::Global;
            // Lanes serialize their read-modify-writes in lane order.
            for lane in lanes(exec, warp_size) {
                let (rs, aaddr) = resolve_addr(ctx, w, lane, addr, space)?;
                rspace = rs;
                let av = operand_value(ctx, w, lane, a, ty)?;
                let bv = match b {
                    Some(bop) => operand_value(ctx, w, lane, bop, ty)?,
                    None => 0,
                };
                addrs[lane as usize] = aaddr;
                let old = match rs {
                    ResolvedSpace::Global => ctx.global.atomic(w.block, aaddr, size, |old| {
                        value::atom_rmw(op, ty, old, av, bv)
                    })?,
                    ResolvedSpace::Shared => ctx
                        .shared
                        .atomic(aaddr, size, |old| value::atom_rmw(op, ty, old, av, bv))?,
                    _ => return Err(SimError::Fault("atomic on non-global/shared space".into())),
                };
                w.set_reg(lane, dst, value::trunc(ty, old));
            }
            log_native_access(
                ctx,
                w,
                AccessKind::Atomic,
                rspace,
                exec,
                &addrs,
                &vals,
                size,
            );
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Red {
            space,
            op,
            ty,
            ref addr,
            ref a,
        } => {
            let size = ty.size() as u8;
            let mut addrs = [0u64; 32];
            let vals = [0u64; 32];
            let mut rspace = ResolvedSpace::Global;
            for lane in lanes(exec, warp_size) {
                let (rs, aaddr) = resolve_addr(ctx, w, lane, addr, space)?;
                rspace = rs;
                let av = operand_value(ctx, w, lane, a, ty)?;
                addrs[lane as usize] = aaddr;
                match rs {
                    ResolvedSpace::Global => {
                        ctx.global.atomic(w.block, aaddr, size, |old| {
                            value::atom_rmw(op, ty, old, av, 0)
                        })?;
                    }
                    ResolvedSpace::Shared => {
                        ctx.shared
                            .atomic(aaddr, size, |old| value::atom_rmw(op, ty, old, av, 0))?;
                    }
                    _ => return Err(SimError::Fault("red on non-global/shared space".into())),
                }
            }
            log_native_access(
                ctx,
                w,
                AccessKind::Atomic,
                rspace,
                exec,
                &addrs,
                &vals,
                size,
            );
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Setp {
            cmp,
            ty,
            dst,
            ref a,
            ref b,
        } => {
            for lane in lanes(exec, warp_size) {
                let av = operand_value(ctx, w, lane, a, ty)?;
                let bv = operand_value(ctx, w, lane, b, ty)?;
                w.set_reg(lane, dst, u64::from(value::cmp(cmp, ty, av, bv)));
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Mov { ty, dst, ref src } => {
            for lane in lanes(exec, warp_size) {
                let v = operand_value(ctx, w, lane, src, ty)?;
                w.set_reg(lane, dst, v);
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Bin {
            op,
            ty,
            dst,
            ref a,
            ref b,
        } => {
            for lane in lanes(exec, warp_size) {
                let av = operand_value(ctx, w, lane, a, ty)?;
                let bv = operand_value(ctx, w, lane, b, ty)?;
                w.set_reg(lane, dst, value::bin(op, ty, av, bv));
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Un { op, ty, dst, ref a } => {
            for lane in lanes(exec, warp_size) {
                let av = operand_value(ctx, w, lane, a, ty)?;
                w.set_reg(lane, dst, value::un(op, ty, av));
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Mul {
            mode,
            ty,
            dst,
            ref a,
            ref b,
        } => {
            for lane in lanes(exec, warp_size) {
                let av = operand_value(ctx, w, lane, a, ty)?;
                let bv = operand_value(ctx, w, lane, b, ty)?;
                w.set_reg(lane, dst, value::mul(mode, ty, av, bv));
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Mad {
            mode,
            ty,
            dst,
            ref a,
            ref b,
            ref c,
        } => {
            for lane in lanes(exec, warp_size) {
                let av = operand_value(ctx, w, lane, a, ty)?;
                let bv = operand_value(ctx, w, lane, b, ty)?;
                let cv = operand_value(ctx, w, lane, c, ty)?;
                w.set_reg(lane, dst, value::mad(mode, ty, av, bv, cv));
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Selp {
            ty,
            dst,
            ref a,
            ref b,
            p,
        } => {
            for lane in lanes(exec, warp_size) {
                let av = operand_value(ctx, w, lane, a, ty)?;
                let bv = operand_value(ctx, w, lane, b, ty)?;
                let pv = w.reg(lane, p) != 0;
                w.set_reg(lane, dst, if pv { av } else { bv });
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Cvt {
            dty,
            sty,
            dst,
            ref a,
        } => {
            for lane in lanes(exec, warp_size) {
                let av = operand_value(ctx, w, lane, a, sty)?;
                w.set_reg(lane, dst, value::cvt(dty, sty, av));
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Cvta { ty, dst, ref a, .. } => {
            // Flat address space: cvta is the identity.
            for lane in lanes(exec, warp_size) {
                let av = operand_value(ctx, w, lane, a, ty)?;
                w.set_reg(lane, dst, av);
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Shfl {
            mode,
            ty,
            dst,
            ref a,
            ref b,
            ref c,
        } => {
            // Evaluate the source operand on every active lane first, then
            // exchange: lanes whose source is inactive/out-of-range keep
            // their own value.
            let mut values = [0u64; 32];
            for lane in lanes(exec, warp_size) {
                values[lane as usize] = operand_value(ctx, w, lane, a, ty)?;
            }
            let mut results = [0u64; 32];
            for lane in lanes(exec, warp_size) {
                let bv = operand_value(ctx, w, lane, b, ty)? as i64;
                let _clamp = operand_value(ctx, w, lane, c, ty)?;
                let src = match mode {
                    barracuda_ptx::ast::ShflMode::Up => i64::from(lane) - bv,
                    barracuda_ptx::ast::ShflMode::Down => i64::from(lane) + bv,
                    barracuda_ptx::ast::ShflMode::Bfly => i64::from(lane) ^ bv,
                    barracuda_ptx::ast::ShflMode::Idx => bv,
                };
                let in_range = src >= 0 && src < i64::from(warp_size);
                let active = in_range && exec & (1 << src) != 0;
                results[lane as usize] = if active {
                    values[src as usize]
                } else {
                    values[lane as usize]
                };
            }
            for lane in lanes(exec, warp_size) {
                w.set_reg(lane, dst, results[lane as usize]);
            }
            advance(w);
            Ok(StepOutcome::Continue)
        }
        Op::Call {
            ref target,
            ref args,
        } => {
            exec_call(ctx, w, exec, target, args)?;
            advance(w);
            Ok(StepOutcome::Continue)
        }
    }
}

/// Executes an instrumentation hook call (see `exec::exec_call` for the
/// recognized targets and argument layout). Unknown targets fault here at
/// runtime; the decoder rejects them at load time, so for kernels loaded
/// through `LoadedKernel` these arms are unreachable in both modes.
fn exec_call(
    ctx: &mut ExecCtx,
    w: &mut WarpState,
    exec: u32,
    target: &str,
    args: &[Operand],
) -> Result<(), SimError> {
    match target {
        "__barracuda_log_conv" => Ok(()),
        "__barracuda_log_access" => {
            if ctx.sink.is_none() {
                return Ok(());
            }
            if args.len() < 5 {
                return Err(SimError::Fault("log_access requires 5+ args".into()));
            }
            let kind_code = operand_value(ctx, w, 0, &args[0], Type::U32)? as u8;
            let space_code = operand_value(ctx, w, 0, &args[1], Type::U32)?;
            let size = operand_value(ctx, w, 0, &args[2], Type::U32)? as u8;
            let offset = match args[4] {
                Operand::Imm(v) => v as u64,
                _ => operand_value(ctx, w, 0, &args[4], Type::U64)?,
            };
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            let mut resolved_shared = space_code == 1;
            for lane in lanes(exec, ctx.dims.warp_size) {
                let base = operand_value(ctx, w, lane, &args[3], Type::U64)?;
                let a = base.wrapping_add(offset);
                if space_code == 2 {
                    resolved_shared = a < crate::GLOBAL_BASE;
                }
                addrs[lane as usize] = a;
                if args.len() > 5 {
                    vals[lane as usize] = operand_value(ctx, w, lane, &args[5], Type::U64)?;
                }
            }
            let kind = access_kind(kind_code)?;
            let mask = if kind == AccessKind::Write && args.len() > 5 && ctx.filter_same_value {
                filter_same_value(exec, &addrs, &vals)
            } else {
                exec
            };
            let space = if resolved_shared {
                MemSpace::Shared
            } else {
                MemSpace::Global
            };
            ctx.emit(
                w,
                &Event::Access {
                    warp: w.warp,
                    kind,
                    space,
                    mask,
                    addrs,
                    size,
                },
            );
            Ok(())
        }
        other if other.starts_with("__barracuda") => Err(SimError::Fault(format!(
            "unknown instrumentation hook {other}"
        ))),
        other => Err(SimError::Fault(format!(
            "call to undefined function {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::sink::VecSink;

    #[test]
    fn oracle_agrees_with_the_decoded_loop_on_a_divergent_kernel() {
        // Odd lanes take a shared-memory detour, then every lane stores
        // through the reconvergence point; native logging records both.
        let module = barracuda_ptx::parse(
            r#"
            .version 4.3
            .target sm_35
            .address_size 64
            .visible .entry k(.param .u64 out)
            {
                .reg .pred %p;
                .reg .b32 %r<6>;
                .reg .b64 %rd<4>;
                .shared .align 4 .b8 sm[256];
                mov.u32 %r1, %tid.x;
                and.b32 %r2, %r1, 1;
                setp.eq.u32 %p, %r2, 0;
                mov.u32 %r3, 5;
                @%p bra L_join;
                st.shared.u32 [sm], %r1;
                ld.shared.u32 %r3, [sm];
            L_join:
                ld.param.u64 %rd1, [out];
                mul.wide.u32 %rd2, %r1, 4;
                add.s64 %rd3, %rd1, %rd2;
                st.global.u32 [%rd3], %r3;
                ret;
            }
            "#,
        )
        .unwrap();
        let dims = GridDims::with_warp_size(2u32, 16u32, 8);
        let run = |oracle: bool| {
            let mut gpu = Gpu::new(GpuConfig {
                native_access_logging: true,
                slice: 2,
                ..GpuConfig::default()
            });
            let out = gpu.malloc(16 * 4);
            let sink = VecSink::new();
            let params = [ParamValue::Ptr(out)];
            let stats = if oracle {
                launch_with_sink(&mut gpu, &module, "k", dims, &params, &sink)
            } else {
                gpu.launch_with_sink(&module, "k", dims, &params, &sink)
            }
            .unwrap();
            let records: Vec<_> = sink
                .take()
                .iter()
                .map(|r| (r.warp, r.kind, r.space, r.mask, r.addrs))
                .collect();
            (stats, gpu.read_u32s(out, 16), records)
        };
        let decoded = run(false);
        assert_eq!(decoded.1[0], 5);
        assert!(decoded.2.len() > 4, "{:?}", decoded.2.len());
        assert_eq!(decoded, run(true));
    }
}
