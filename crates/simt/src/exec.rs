//! The SIMT interpreter hot loop: executes one warp instruction at a time,
//! maintaining the reconvergence stack and emitting trace events.
//!
//! This module dispatches on the pre-decoded micro-op IR
//! ([`crate::decode`]): every instruction is a fixed-size `Copy` value
//! with branch targets, parameter offsets and shared-memory bases already
//! resolved, so a step performs **no allocation and no string lookups**.
//! It is the only interpreter the product runs. The original AST-walking
//! interpreter (`exec_ast.rs`) is the test-only oracle: it shares the
//! helpers defined here, runs under the same scheduler, and must produce
//! byte-identical event streams (see `tests/decode_differential.rs`).
//!
//! A global `ld`/`st`/`ld.vN`/`st.vN` whose active lanes all resolve to
//! global memory first tries to run as one warp operation through
//! [`GlobalMemory::try_load_lanes`] / [`GlobalMemory::try_store_lanes`],
//! which copy each lane at a fixed width when the model is SC and every
//! lane's bytes lie on one allocated page (see `mem.rs`). Otherwise the
//! instruction runs the per-lane loop, the only path that faults or goes
//! through a store buffer. Shared, local and param accesses, a generic
//! access with a lane in shared memory, and atomics stay per-lane. The AST
//! walker keeps its per-lane memory path, so the differential suite still
//! checks the warp path against an independent implementation.

use barracuda_ptx::ast::{BinOp, CmpOp, Guard, MulMode, Reg, SpecialReg, Type, UnOp};
use barracuda_trace::ops::{AccessKind, Event, MemSpace, Scope};
use barracuda_trace::record::RecordKind;
use barracuda_trace::{GridDims, Record};

use crate::config::SimError;
use crate::decode::{DAddr, DBase, DCall, DOp, DOperand, DecodedInstr};
use crate::kernel::LoadedKernel;
use crate::locals::LocalStore;
use crate::mem::{GlobalMemory, SharedMemory};
use crate::sink::EventSink;
use crate::value;
use crate::warp::{EntryKind, StackEntry, WarpState, WarpStatus};

/// Everything a warp needs to execute one step.
pub(crate) struct ExecCtx<'a> {
    pub kernel: &'a LoadedKernel,
    pub dims: &'a GridDims,
    pub param_block: &'a [u8],
    pub global: &'a mut GlobalMemory,
    pub shared: &'a mut SharedMemory,
    pub locals: &'a mut LocalStore,
    pub sink: Option<&'a dyn EventSink>,
    pub native_logging: bool,
    pub filter_same_value: bool,
}

/// Result of executing one step of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    Continue,
    Barrier,
    Done,
}

/// Where an address resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedSpace {
    Global,
    Shared,
    Local,
    Param,
}

impl ExecCtx<'_> {
    pub(crate) fn emit(&self, w: &WarpState, event: &Event) {
        if let Some(sink) = self.sink {
            sink.emit(w.block, Record::encode(event));
        }
    }
}

/// Pops the top stack entry, emitting the trace event its kind requires.
pub(crate) fn pop_emit(ctx: &ExecCtx, w: &mut WarpState) {
    let e = w.stack.pop().expect("pop on empty SIMT stack");
    match e.kind {
        EntryKind::Then => ctx.emit(w, &Event::Else { warp: w.warp }),
        EntryKind::Else => ctx.emit(w, &Event::Fi { warp: w.warp }),
        EntryKind::Base => {}
    }
}

/// Executes one instruction (or performs pending stack pops) for warp `w`,
/// dispatching on the decoded micro-op IR.
pub(crate) fn step(ctx: &mut ExecCtx, w: &mut WarpState) -> Result<StepOutcome, SimError> {
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
        // Fetch by reference — the micro-op stays in the decoded pool, no
        // per-step copy — with the end-of-code check folded into the fetch
        // (running past the end is an implicit exit for this path's lanes).
        let kernel = ctx.kernel;
        let Some(instr) = kernel.decoded.instrs.get(top.pc) else {
            w.exited |= eff;
            pop_emit(ctx, w);
            continue;
        };
        // A `__barracuda_log_access` call fuses with the instruction it
        // covers: the log record and the operation's effect must be
        // atomic with respect to other warps, or an acquire could be
        // logged before the release it synchronizes with (the record
        // stream must be a linearization of the synchronization order).
        // The decoder precomputed the test as `DecodedInstr::fused`.
        let fused = instr.fused;
        let out = exec_instr(ctx, w, top.pc, eff, instr)?;
        if fused && out == StepOutcome::Continue {
            continue;
        }
        return Ok(out);
    }
}

pub(crate) fn guard_mask(w: &WarpState, eff: u32, guard: Option<Guard>) -> u32 {
    match guard {
        None => eff,
        Some(g) => {
            // Test the whole contiguous predicate column, then mask: same
            // result as testing only `eff` lanes, but branchless.
            let col = w.col(g.pred);
            let mut m = 0u32;
            for (lane, &p) in col.iter().enumerate() {
                m |= u32::from((p != 0) != g.negated) << lane;
            }
            m & eff
        }
    }
}

pub(crate) fn special_value(dims: &GridDims, w: &WarpState, lane: u32, sr: SpecialReg) -> u64 {
    let t = dims.tid_of_lane(w.warp, lane);
    match sr {
        SpecialReg::Tid(d) => pick(dims.thread_coord(t), d),
        SpecialReg::Ntid(d) => pick(dims.block, d),
        SpecialReg::Ctaid(d) => pick(dims.block_coord(t), d),
        SpecialReg::Nctaid(d) => pick(dims.grid, d),
        SpecialReg::LaneId => u64::from(lane),
        SpecialReg::WarpSize => u64::from(dims.warp_size),
    }
}

pub(crate) fn pick(d: barracuda_trace::Dim3, which: barracuda_ptx::ast::Dim) -> u64 {
    use barracuda_ptx::ast::Dim;
    u64::from(match which {
        Dim::X => d.x,
        Dim::Y => d.y,
        Dim::Z => d.z,
    })
}

/// Evaluates a decoded operand for one lane. Infallible: symbols were
/// resolved to immediates at decode time.
#[inline(always)]
fn doperand_value(dims: &GridDims, w: &WarpState, lane: u32, op: DOperand) -> u64 {
    match op {
        DOperand::Reg(r) => w.reg(lane, r),
        DOperand::Imm(v) => v,
        DOperand::Special(sr) => special_value(dims, w, lane, sr),
    }
}

/// Evaluates one operand for the warp into `buf`. Register operands
/// become one contiguous copy from the column-major register file,
/// immediates a fill — the per-lane operand-kind match of the scalar
/// interpreter is paid once per instruction instead. Special registers
/// are evaluated only for `exec` lanes: a lane past the block's thread
/// count has no thread id.
#[inline(always)]
fn operand_warp(dims: &GridDims, w: &WarpState, exec: u32, op: DOperand, buf: &mut [u64; 32]) {
    let ws = dims.warp_size as usize;
    match op {
        DOperand::Reg(r) => buf[..ws].copy_from_slice(w.col(r)),
        DOperand::Imm(v) => buf[..ws].fill(v),
        DOperand::Special(sr) => {
            for lane in lanes(exec, dims.warp_size) {
                buf[lane as usize] = special_value(dims, w, lane, sr);
            }
        }
    }
}

/// Like [`operand_warp`], but register operands borrow their column
/// directly instead of being copied — the common register/register ALU
/// case touches no scratch memory on the input side.
#[inline(always)]
fn operand_slice<'a>(
    dims: &GridDims,
    w: &'a WarpState,
    exec: u32,
    op: DOperand,
    buf: &'a mut [u64; 32],
) -> &'a [u64] {
    match op {
        DOperand::Reg(r) => w.col(r),
        _ => {
            operand_warp(dims, w, exec, op, buf);
            &buf[..dims.warp_size as usize]
        }
    }
}

/// Blends `out` into the destination register column under `exec`. A
/// fully-active warp (the common converged case) takes one memcpy; the
/// branchless select otherwise vectorizes, and inactive lanes rewrite
/// their old value, which nothing can observe mid-instruction (warps are
/// single-threaded).
#[inline(always)]
fn write_masked(w: &mut WarpState, dst: Reg, exec: u32, out: &[u64; 32], ws: usize) {
    let col = w.col_mut(dst);
    if exec == full_mask(ws as u32) {
        col.copy_from_slice(&out[..ws]);
        return;
    }
    for lane in 0..ws {
        col[lane] = if exec & (1 << lane) != 0 {
            out[lane]
        } else {
            col[lane]
        };
    }
}

/// All-lanes mask for a warp of `ws` lanes.
#[inline(always)]
fn full_mask(ws: u32) -> u32 {
    u32::MAX >> (32 - ws)
}

/// A monomorphized whole-warp ALU loop for a two-operand instruction
/// (`bin`/`mul`/`setp`): the decode layer resolves `(op, ty)` to one of
/// these once, so the hot loop pays a single indirect call per
/// *instruction* with the operation, type width and signedness constant-
/// folded into the lane loop.
pub(crate) type WarpBinFn = fn(&GridDims, &mut WarpState, u32, Reg, DOperand, DOperand);

/// Monomorphized warp loop for one-operand ALU instructions.
pub(crate) type WarpUnFn = fn(&GridDims, &mut WarpState, u32, Reg, DOperand);

/// Monomorphized warp loop for `mad` (three operands).
pub(crate) type WarpMadFn = fn(&GridDims, &mut WarpState, u32, Reg, DOperand, DOperand, DOperand);

/// Expands `$cb!($($args)*, T)` for the [`Type`] selected by `$ty`.
macro_rules! with_each_type {
    ($cb:ident ! ($($args:tt)*), $ty:expr) => {
        match $ty {
            Type::Pred => $cb!($($args)*, Pred),
            Type::B8 => $cb!($($args)*, B8),
            Type::B16 => $cb!($($args)*, B16),
            Type::B32 => $cb!($($args)*, B32),
            Type::B64 => $cb!($($args)*, B64),
            Type::U8 => $cb!($($args)*, U8),
            Type::U16 => $cb!($($args)*, U16),
            Type::U32 => $cb!($($args)*, U32),
            Type::U64 => $cb!($($args)*, U64),
            Type::S8 => $cb!($($args)*, S8),
            Type::S16 => $cb!($($args)*, S16),
            Type::S32 => $cb!($($args)*, S32),
            Type::S64 => $cb!($($args)*, S64),
            Type::F32 => $cb!($($args)*, F32),
            Type::F64 => $cb!($($args)*, F64),
        }
    };
}

/// The lane loop shared by the `bin`/`mul`/`setp` warp functions. A
/// register/immediate pair (`add %acc, %acc, 1`) reads the register
/// column directly and folds the immediate into the loop, touching no
/// operand scratch buffer.
#[inline(always)]
fn warp_bin_loop(
    dims: &GridDims,
    w: &mut WarpState,
    exec: u32,
    dst: Reg,
    (a, b): (DOperand, DOperand),
    f: impl Fn(u64, u64) -> u64,
) {
    let ws = dims.warp_size as usize;
    let mut out = [0u64; 32];
    if let (DOperand::Reg(r), DOperand::Imm(y)) = (a, b) {
        for (o, &x) in out[..ws].iter_mut().zip(w.col(r)) {
            *o = f(x, y);
        }
    } else {
        let (mut ab, mut bb) = ([0u64; 32], [0u64; 32]);
        let av = operand_slice(dims, w, exec, a, &mut ab);
        let bv = operand_slice(dims, w, exec, b, &mut bb);
        for ((o, &x), &y) in out[..ws].iter_mut().zip(av).zip(bv) {
            *o = f(x, y);
        }
    }
    write_masked(w, dst, exec, &out, ws);
}

macro_rules! bin_arm {
    ($o:ident, $t:ident) => {
        (|dims: &GridDims, w: &mut WarpState, exec: u32, dst: Reg, a: DOperand, b: DOperand| {
            warp_bin_loop(dims, w, exec, dst, (a, b), |x, y| {
                value::bin(BinOp::$o, Type::$t, x, y)
            });
        }) as WarpBinFn
    };
}

/// Resolves a `bin` instruction to its monomorphized warp loop.
pub(crate) fn warp_bin_fn(op: BinOp, ty: Type) -> WarpBinFn {
    match op {
        BinOp::Add => with_each_type!(bin_arm!(Add), ty),
        BinOp::Sub => with_each_type!(bin_arm!(Sub), ty),
        BinOp::Div => with_each_type!(bin_arm!(Div), ty),
        BinOp::Rem => with_each_type!(bin_arm!(Rem), ty),
        BinOp::Min => with_each_type!(bin_arm!(Min), ty),
        BinOp::Max => with_each_type!(bin_arm!(Max), ty),
        BinOp::And => with_each_type!(bin_arm!(And), ty),
        BinOp::Or => with_each_type!(bin_arm!(Or), ty),
        BinOp::Xor => with_each_type!(bin_arm!(Xor), ty),
        BinOp::Shl => with_each_type!(bin_arm!(Shl), ty),
        BinOp::Shr => with_each_type!(bin_arm!(Shr), ty),
    }
}

macro_rules! mul_arm {
    ($m:ident, $t:ident) => {
        (|dims: &GridDims, w: &mut WarpState, exec: u32, dst: Reg, a: DOperand, b: DOperand| {
            warp_bin_loop(dims, w, exec, dst, (a, b), |x, y| {
                value::mul(MulMode::$m, Type::$t, x, y)
            });
        }) as WarpBinFn
    };
}

/// Resolves a `mul` instruction to its monomorphized warp loop.
pub(crate) fn warp_mul_fn(mode: MulMode, ty: Type) -> WarpBinFn {
    match mode {
        MulMode::Lo => with_each_type!(mul_arm!(Lo), ty),
        MulMode::Hi => with_each_type!(mul_arm!(Hi), ty),
        MulMode::Wide => with_each_type!(mul_arm!(Wide), ty),
    }
}

macro_rules! setp_arm {
    ($o:ident, $t:ident) => {
        (|dims: &GridDims, w: &mut WarpState, exec: u32, dst: Reg, a: DOperand, b: DOperand| {
            warp_bin_loop(dims, w, exec, dst, (a, b), |x, y| {
                u64::from(value::cmp(CmpOp::$o, Type::$t, x, y))
            });
        }) as WarpBinFn
    };
}

/// Resolves a `setp` instruction to its monomorphized warp loop.
pub(crate) fn warp_setp_fn(op: CmpOp, ty: Type) -> WarpBinFn {
    match op {
        CmpOp::Eq => with_each_type!(setp_arm!(Eq), ty),
        CmpOp::Ne => with_each_type!(setp_arm!(Ne), ty),
        CmpOp::Lt => with_each_type!(setp_arm!(Lt), ty),
        CmpOp::Le => with_each_type!(setp_arm!(Le), ty),
        CmpOp::Gt => with_each_type!(setp_arm!(Gt), ty),
        CmpOp::Ge => with_each_type!(setp_arm!(Ge), ty),
        CmpOp::Lo => with_each_type!(setp_arm!(Lo), ty),
        CmpOp::Ls => with_each_type!(setp_arm!(Ls), ty),
        CmpOp::Hi => with_each_type!(setp_arm!(Hi), ty),
        CmpOp::Hs => with_each_type!(setp_arm!(Hs), ty),
    }
}

macro_rules! un_arm {
    ($o:ident, $t:ident) => {
        (|dims: &GridDims, w: &mut WarpState, exec: u32, dst: Reg, a: DOperand| {
            let ws = dims.warp_size as usize;
            let (mut ab, mut out) = ([0u64; 32], [0u64; 32]);
            let av = operand_slice(dims, w, exec, a, &mut ab);
            for (o, &x) in out[..ws].iter_mut().zip(av) {
                *o = value::un(UnOp::$o, Type::$t, x);
            }
            write_masked(w, dst, exec, &out, ws);
        }) as WarpUnFn
    };
}

/// Resolves a `un` instruction to its monomorphized warp loop.
pub(crate) fn warp_un_fn(op: UnOp, ty: Type) -> WarpUnFn {
    match op {
        UnOp::Not => with_each_type!(un_arm!(Not), ty),
        UnOp::Neg => with_each_type!(un_arm!(Neg), ty),
        UnOp::Abs => with_each_type!(un_arm!(Abs), ty),
    }
}

macro_rules! mad_arm {
    ($m:ident, $t:ident) => {
        (|dims: &GridDims,
          w: &mut WarpState,
          exec: u32,
          dst: Reg,
          a: DOperand,
          b: DOperand,
          c: DOperand| {
            let ws = dims.warp_size as usize;
            let (mut ab, mut bb, mut cb, mut out) =
                ([0u64; 32], [0u64; 32], [0u64; 32], [0u64; 32]);
            let av = operand_slice(dims, w, exec, a, &mut ab);
            let bv = operand_slice(dims, w, exec, b, &mut bb);
            let cv = operand_slice(dims, w, exec, c, &mut cb);
            for (((o, &x), &y), &z) in out[..ws].iter_mut().zip(av).zip(bv).zip(cv) {
                *o = value::mad(MulMode::$m, Type::$t, x, y, z);
            }
            write_masked(w, dst, exec, &out, ws);
        }) as WarpMadFn
    };
}

/// Resolves a `mad` instruction to its monomorphized warp loop.
pub(crate) fn warp_mad_fn(mode: MulMode, ty: Type) -> WarpMadFn {
    match mode {
        MulMode::Lo => with_each_type!(mad_arm!(Lo), ty),
        MulMode::Hi => with_each_type!(mad_arm!(Hi), ty),
        MulMode::Wide => with_each_type!(mad_arm!(Wide), ty),
    }
}

/// Resolves a decoded memory address for one lane. Infallible: symbol
/// bases were resolved to constants at decode time.
fn dresolve_addr(
    w: &WarpState,
    lane: u32,
    addr: DAddr,
    space: barracuda_ptx::ast::Space,
) -> (ResolvedSpace, u64) {
    use barracuda_ptx::ast::Space;
    let base = match addr.base {
        DBase::Reg(r) => w.reg(lane, r),
        DBase::Const(c) => c,
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
    (rs, a)
}

/// Resolves every `exec` lane's address into `addrs` and reports whether
/// all of them lie in global memory — the case that may be served
/// warp-wide by [`GlobalMemory::try_load_lanes`] /
/// [`GlobalMemory::try_store_lanes`]. Shared, local and param accesses
/// (and a generic access with any lane below [`crate::GLOBAL_BASE`]) keep
/// the per-lane loop.
fn resolve_global_lanes(
    w: &WarpState,
    exec: u32,
    warp_size: u32,
    addr: DAddr,
    space: barracuda_ptx::ast::Space,
    addrs: &mut [u64; 32],
) -> bool {
    use barracuda_ptx::ast::Space;
    if !matches!(space, Space::Global | Space::Generic) {
        return false;
    }
    let mut global = true;
    for lane in lanes(exec, warp_size) {
        let (rs, a) = dresolve_addr(w, lane, addr, space);
        addrs[lane as usize] = a;
        global &= rs == ResolvedSpace::Global;
    }
    global
}

/// A loaded `ty` value as its register holds it: sign-extended for signed
/// types, truncated otherwise.
#[inline(always)]
fn loaded_value(ty: Type, raw: u64) -> u64 {
    if ty.is_signed() {
        value::sext(ty, raw) as u64
    } else {
        value::trunc(ty, raw)
    }
}

/// Same-value intra-warp write filtering (paper §3.3.1): lanes writing the
/// same value to the same address collapse to the lowest lane; differing
/// values are all kept so the detector reports the intra-warp race.
///
/// When the active lanes' addresses strictly increase in lane order (the
/// coalesced case), no two lanes share an address and the mask is
/// returned after one O(32) pass.
pub(crate) fn filter_same_value(mask: u32, addrs: &[u64; 32], vals: &[u64; 32]) -> u32 {
    let mut prev = None;
    let increasing = lanes(mask, 32).all(|l| {
        let a = addrs[l as usize];
        let up = prev.is_none_or(|p| a > p);
        prev = Some(a);
        up
    });
    if increasing {
        return mask;
    }
    let mut keep = mask;
    for lane in 0..32u32 {
        if keep & (1 << lane) == 0 {
            continue;
        }
        for other in (lane + 1)..32u32 {
            if keep & (1 << other) == 0 {
                continue;
            }
            if addrs[other as usize] == addrs[lane as usize]
                && vals[other as usize] == vals[lane as usize]
            {
                keep &= !(1 << other);
            }
        }
    }
    keep
}

pub(crate) fn mem_space_of(rs: ResolvedSpace) -> Option<MemSpace> {
    match rs {
        ResolvedSpace::Global => Some(MemSpace::Global),
        ResolvedSpace::Shared => Some(MemSpace::Shared),
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn log_native_access(
    ctx: &ExecCtx,
    w: &WarpState,
    kind: AccessKind,
    rs: ResolvedSpace,
    mask: u32,
    addrs: &[u64; 32],
    vals: &[u64; 32],
    size: u8,
) {
    if !ctx.native_logging || ctx.sink.is_none() {
        return;
    }
    let Some(space) = mem_space_of(rs) else {
        return;
    };
    let mask = if kind == AccessKind::Write && ctx.filter_same_value {
        filter_same_value(mask, addrs, vals)
    } else {
        mask
    };
    ctx.emit(
        w,
        &Event::Access {
            warp: w.warp,
            kind,
            space,
            mask,
            addrs: *addrs,
            size,
        },
    );
}

pub(crate) fn advance(w: &mut WarpState) {
    let top = w.stack.last_mut().expect("advance on empty stack");
    top.pc += 1;
}

/// Reads `size` little-endian bytes at `o` from a flat byte buffer.
pub(crate) fn load_bytes(buf: &[u8], o: usize, size: u8, what: &str) -> Result<u64, SimError> {
    if o + size as usize > buf.len() {
        return Err(SimError::Fault(format!("{what} read at {o} out of range")));
    }
    let mut out = [0u8; 8];
    out[..size as usize].copy_from_slice(&buf[o..o + size as usize]);
    Ok(u64::from_le_bytes(out))
}

/// Writes `size` little-endian bytes of `v` at `o` into a flat buffer.
pub(crate) fn store_bytes(
    buf: &mut [u8],
    o: usize,
    size: u8,
    v: u64,
    what: &str,
) -> Result<(), SimError> {
    if o + size as usize > buf.len() {
        return Err(SimError::Fault(format!("{what} write at {o} out of range")));
    }
    buf[o..o + size as usize].copy_from_slice(&v.to_le_bytes()[..size as usize]);
    Ok(())
}

pub(crate) fn lanes(mask: u32, warp_size: u32) -> impl Iterator<Item = u32> {
    (0..warp_size).filter(move |l| mask & (1 << l) != 0)
}

/// Decodes a `log_access` kind code into an [`AccessKind`].
pub(crate) fn access_kind(kind_code: u8) -> Result<AccessKind, SimError> {
    Ok(match kind_code {
        k if k == RecordKind::Read as u8 => AccessKind::Read,
        k if k == RecordKind::Write as u8 => AccessKind::Write,
        k if k == RecordKind::Atomic as u8 => AccessKind::Atomic,
        k if k == RecordKind::AcqBlk as u8 => AccessKind::Acquire(Scope::Block),
        k if k == RecordKind::RelBlk as u8 => AccessKind::Release(Scope::Block),
        k if k == RecordKind::AcqRelBlk as u8 => AccessKind::AcquireRelease(Scope::Block),
        k if k == RecordKind::AcqGlb as u8 => AccessKind::Acquire(Scope::Global),
        k if k == RecordKind::RelGlb as u8 => AccessKind::Release(Scope::Global),
        k if k == RecordKind::AcqRelGlb as u8 => AccessKind::AcquireRelease(Scope::Global),
        k => return Err(SimError::Fault(format!("bad log kind {k}"))),
    })
}

#[allow(clippy::too_many_lines)]
fn exec_instr(
    ctx: &mut ExecCtx,
    w: &mut WarpState,
    pc: usize,
    eff: u32,
    instr: &DecodedInstr,
) -> Result<StepOutcome, SimError> {
    let exec = guard_mask(w, eff, instr.guard);
    let warp_size = ctx.dims.warp_size;
    // The side pools live behind the kernel reference, not the mutable
    // context, so slices stay borrowable across memory operations.
    let kernel = ctx.kernel;
    let dims = ctx.dims;

    // Guarded branches are conditional branches and handled specially;
    // for every other instruction an all-false guard is a NOP.
    if exec == 0 && !matches!(instr.op, DOp::Bra { .. }) {
        advance(w);
        return Ok(StepOutcome::Continue);
    }

    match instr.op {
        DOp::Bra { target, recon } => {
            let tgt = target as usize;
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
                let rpc = recon.rpc();
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
        DOp::Ret | DOp::Exit => {
            w.exited |= exec;
            if exec == eff {
                pop_emit(ctx, w);
            } else {
                advance(w);
            }
            Ok(StepOutcome::Continue)
        }
        DOp::Bar => {
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
        DOp::Membar { global } => {
            ctx.global.fence(w.block, global);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::LdVec {
            space,
            ty,
            dsts,
            addr,
            ..
        } => {
            let dsts: &[Reg] =
                &kernel.decoded.regs[dsts.start as usize..(dsts.start + dsts.len) as usize];
            let elem = ty.size();
            let total = (elem * dsts.len() as u64) as u8;
            let mut addrs = [0u64; 32];
            let vals = [0u64; 32];
            let mut raw = [[0u64; 32]; 4];
            let rspace = if dsts.len() <= 4
                && resolve_global_lanes(w, exec, warp_size, addr, space, &mut addrs)
                && ctx
                    .global
                    .try_load_lanes(exec, &addrs, elem as u8, &mut raw[..dsts.len()])
            {
                for (&dst, col) in dsts.iter().zip(raw.iter_mut()) {
                    for lane in lanes(exec, warp_size) {
                        col[lane as usize] = loaded_value(ty, col[lane as usize]);
                    }
                    write_masked(w, dst, exec, col, warp_size as usize);
                }
                ResolvedSpace::Global
            } else {
                let mut rspace = ResolvedSpace::Global;
                for lane in lanes(exec, warp_size) {
                    let (rs, base) = dresolve_addr(w, lane, addr, space);
                    rspace = rs;
                    addrs[lane as usize] = base;
                    for (i, &dst) in dsts.iter().enumerate() {
                        let a = base + i as u64 * elem;
                        let raw = match rs {
                            ResolvedSpace::Global => ctx.global.load(w.block, a, elem as u8)?,
                            ResolvedSpace::Shared => ctx.shared.load(a, elem as u8)?,
                            _ => {
                                return Err(SimError::Fault(
                                    "vector load on param/local space".into(),
                                ))
                            }
                        };
                        w.set_reg(lane, dst, loaded_value(ty, raw));
                    }
                }
                rspace
            };
            log_native_access(ctx, w, AccessKind::Read, rspace, exec, &addrs, &vals, total);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::StVec {
            space,
            ty,
            addr,
            srcs,
            ..
        } => {
            let srcs: &[DOperand] =
                &kernel.decoded.operands[srcs.start as usize..(srcs.start + srcs.len) as usize];
            let elem = ty.size();
            let total = (elem * srcs.len() as u64) as u8;
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            // Vector stores carry multiple values; disable the same-value
            // collapse by making lane tags distinct.
            for lane in lanes(exec, warp_size) {
                vals[lane as usize] = u64::from(lane) + 1;
            }
            let mut direct = srcs.len() <= 4
                && resolve_global_lanes(w, exec, warp_size, addr, space, &mut addrs);
            if direct {
                let mut elems = [[0u64; 32]; 4];
                for (&src, col) in srcs.iter().zip(elems.iter_mut()) {
                    for lane in lanes(exec, warp_size) {
                        col[lane as usize] = value::trunc(ty, doperand_value(dims, w, lane, src));
                    }
                }
                let elems = &elems[..srcs.len()];
                direct = ctx.global.try_store_lanes(exec, &addrs, elem as u8, elems);
            }
            let rspace = if direct {
                ResolvedSpace::Global
            } else {
                let mut rspace = ResolvedSpace::Global;
                for lane in lanes(exec, warp_size) {
                    let (rs, base) = dresolve_addr(w, lane, addr, space);
                    rspace = rs;
                    addrs[lane as usize] = base;
                    for (i, &src) in srcs.iter().enumerate() {
                        let a = base + i as u64 * elem;
                        let v = value::trunc(ty, doperand_value(dims, w, lane, src));
                        match rs {
                            ResolvedSpace::Global => ctx.global.store(w.block, a, elem as u8, v)?,
                            ResolvedSpace::Shared => ctx.shared.store(a, elem as u8, v)?,
                            _ => {
                                return Err(SimError::Fault(
                                    "vector store on param/local space".into(),
                                ))
                            }
                        }
                    }
                }
                rspace
            };
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
        DOp::Ld {
            space,
            ty,
            dst,
            addr,
        } => {
            let size = ty.size() as u8;
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            let rspace = if resolve_global_lanes(w, exec, warp_size, addr, space, &mut addrs)
                && ctx
                    .global
                    .try_load_lanes(exec, &addrs, size, std::slice::from_mut(&mut vals))
            {
                for lane in lanes(exec, warp_size) {
                    vals[lane as usize] = loaded_value(ty, vals[lane as usize]);
                }
                write_masked(w, dst, exec, &vals, warp_size as usize);
                ResolvedSpace::Global
            } else {
                let mut rspace = ResolvedSpace::Global;
                for lane in lanes(exec, warp_size) {
                    let (rs, a) = dresolve_addr(w, lane, addr, space);
                    rspace = rs;
                    let raw = match rs {
                        ResolvedSpace::Global => ctx.global.load(w.block, a, size)?,
                        ResolvedSpace::Shared => ctx.shared.load(a, size)?,
                        ResolvedSpace::Param => {
                            load_bytes(ctx.param_block, a as usize, size, "param")?
                        }
                        ResolvedSpace::Local => {
                            load_bytes(ctx.locals.lane(w.warp, lane), a as usize, size, "local")?
                        }
                    };
                    let v = loaded_value(ty, raw);
                    addrs[lane as usize] = a;
                    vals[lane as usize] = v;
                    w.set_reg(lane, dst, v);
                }
                rspace
            };
            log_native_access(ctx, w, AccessKind::Read, rspace, exec, &addrs, &vals, size);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::St {
            space,
            ty,
            addr,
            src,
        } => {
            let size = ty.size() as u8;
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            let mut direct = resolve_global_lanes(w, exec, warp_size, addr, space, &mut addrs);
            if direct {
                for lane in lanes(exec, warp_size) {
                    vals[lane as usize] = value::trunc(ty, doperand_value(dims, w, lane, src));
                }
                let elems = std::slice::from_ref(&vals);
                direct = ctx.global.try_store_lanes(exec, &addrs, size, elems);
            }
            let rspace = if direct {
                ResolvedSpace::Global
            } else {
                let mut rspace = ResolvedSpace::Global;
                for lane in lanes(exec, warp_size) {
                    let (rs, a) = dresolve_addr(w, lane, addr, space);
                    rspace = rs;
                    let v = value::trunc(ty, doperand_value(dims, w, lane, src));
                    addrs[lane as usize] = a;
                    vals[lane as usize] = v;
                    match rs {
                        ResolvedSpace::Global => ctx.global.store(w.block, a, size, v)?,
                        ResolvedSpace::Shared => ctx.shared.store(a, size, v)?,
                        ResolvedSpace::Param => {
                            return Err(SimError::Fault("store to param space".into()))
                        }
                        ResolvedSpace::Local => {
                            let buf = ctx.locals.lane(w.warp, lane);
                            store_bytes(buf, a as usize, size, v, "local")?;
                        }
                    }
                }
                rspace
            };
            log_native_access(ctx, w, AccessKind::Write, rspace, exec, &addrs, &vals, size);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::Atom {
            space,
            op,
            ty,
            dst,
            addr,
            a,
            b,
        } => {
            let size = ty.size() as u8;
            let mut addrs = [0u64; 32];
            let vals = [0u64; 32];
            let mut rspace = ResolvedSpace::Global;
            // Lanes serialize their read-modify-writes in lane order.
            for lane in lanes(exec, warp_size) {
                let (rs, aaddr) = dresolve_addr(w, lane, addr, space);
                rspace = rs;
                let av = doperand_value(dims, w, lane, a);
                let bv = match b {
                    Some(bop) => doperand_value(dims, w, lane, bop),
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
        DOp::Red {
            space,
            op,
            ty,
            addr,
            a,
        } => {
            let size = ty.size() as u8;
            let mut addrs = [0u64; 32];
            let vals = [0u64; 32];
            let mut rspace = ResolvedSpace::Global;
            for lane in lanes(exec, warp_size) {
                let (rs, aaddr) = dresolve_addr(w, lane, addr, space);
                rspace = rs;
                let av = doperand_value(dims, w, lane, a);
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
        // Two-operand ALU forms: `f` is the warp loop the decoder resolved
        // from the instruction's op and type.
        DOp::Setp { f, dst, a, b } | DOp::Bin { f, dst, a, b } | DOp::Mul { f, dst, a, b } => {
            f(dims, w, exec, dst, a, b);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        // `cvta` is the identity in a flat address space, i.e. a move.
        DOp::Mov { dst, src } | DOp::Cvta { dst, a: src } => {
            let ws = warp_size as usize;
            let mut out = [0u64; 32];
            operand_warp(dims, w, exec, src, &mut out);
            write_masked(w, dst, exec, &out, ws);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::Un { f, dst, a } => {
            f(dims, w, exec, dst, a);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::Mad { f, dst, a, b, c } => {
            f(dims, w, exec, dst, a, b, c);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::Selp { dst, a, b, p } => {
            let ws = warp_size as usize;
            let (mut av, mut bv, mut out) = ([0u64; 32], [0u64; 32], [0u64; 32]);
            operand_warp(dims, w, exec, a, &mut av);
            operand_warp(dims, w, exec, b, &mut bv);
            let pcol = w.col(p);
            for lane in 0..ws {
                out[lane] = if pcol[lane] != 0 { av[lane] } else { bv[lane] };
            }
            write_masked(w, dst, exec, &out, ws);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::Cvt { dty, sty, dst, a } => {
            let ws = warp_size as usize;
            let (mut av, mut out) = ([0u64; 32], [0u64; 32]);
            operand_warp(dims, w, exec, a, &mut av);
            for lane in 0..ws {
                out[lane] = value::cvt(dty, sty, av[lane]);
            }
            write_masked(w, dst, exec, &out, ws);
            advance(w);
            Ok(StepOutcome::Continue)
        }
        DOp::Shfl {
            mode, dst, a, b, c, ..
        } => {
            // Evaluate the source operand on every active lane first, then
            // exchange: lanes whose source is inactive/out-of-range keep
            // their own value.
            let mut values = [0u64; 32];
            for lane in lanes(exec, warp_size) {
                values[lane as usize] = doperand_value(dims, w, lane, a);
            }
            let mut results = [0u64; 32];
            for lane in lanes(exec, warp_size) {
                let bv = doperand_value(dims, w, lane, b) as i64;
                let _clamp = doperand_value(dims, w, lane, c);
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
        DOp::Call { target, args } => {
            exec_call(ctx, w, exec, target, args)?;
            advance(w);
            Ok(StepOutcome::Continue)
        }
    }
}

/// Executes a decoded instrumentation hook call (the decoder already
/// rejected unknown targets and malformed argument lists):
///
/// * [`DCall::LogAccess`]: `(kind, space, size, base, offset [, value])` —
///   logs a memory/synchronization access for every active lane. `kind` is
///   a [`RecordKind`] discriminant; `space` is 0 = global, 1 = shared,
///   2 = generic (resolved at runtime); `base`+`offset` form the address.
/// * [`DCall::LogConv`] — a branch-convergence-point marker; counted
///   statically for instrumentation statistics, a NOP at runtime.
fn exec_call(
    ctx: &mut ExecCtx,
    w: &mut WarpState,
    exec: u32,
    target: DCall,
    args: crate::decode::DSlice,
) -> Result<(), SimError> {
    match target {
        DCall::LogConv => Ok(()),
        DCall::LogAccess => {
            if ctx.sink.is_none() {
                return Ok(());
            }
            let dims = ctx.dims;
            let args: &[DOperand] =
                &ctx.kernel.decoded.operands[args.start as usize..(args.start + args.len) as usize];
            let kind_code = doperand_value(dims, w, 0, args[0]) as u8;
            let space_code = doperand_value(dims, w, 0, args[1]);
            let size = doperand_value(dims, w, 0, args[2]) as u8;
            let offset = doperand_value(dims, w, 0, args[4]);
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            let mut resolved_shared = space_code == 1;
            for lane in lanes(exec, dims.warp_size) {
                let base = doperand_value(dims, w, lane, args[3]);
                let a = base.wrapping_add(offset);
                if space_code == 2 {
                    resolved_shared = a < crate::GLOBAL_BASE;
                }
                addrs[lane as usize] = a;
                if args.len() > 5 {
                    vals[lane as usize] = doperand_value(dims, w, lane, args[5]);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `filter_same_value` against its specification: a lane is kept
        /// iff no lower active lane writes the same value to the same
        /// address. Addresses are mostly increasing, mostly decreasing
        /// (both with runs of equal neighbours), drawn from a pool of four
        /// (interleaved), or all equal; values come from a pool of three.
        #[test]
        fn same_value_filter_keeps_the_lowest_lane_of_each_pair(
            mask in any::<u32>(),
            order in 0u8..4,
            lanes_in in prop::collection::vec((0u64..4, 0u64..3), 32..33),
        ) {
            let mut addrs = [0u64; 32];
            let mut vals = [0u64; 32];
            for (l, &(a, v)) in lanes_in.iter().enumerate() {
                let step = match order {
                    0 => l as u64,
                    1 => 31 - l as u64,
                    2 => a,
                    _ => 0,
                };
                addrs[l] = if order < 2 && a == 0 && l > 0 {
                    addrs[l - 1]
                } else {
                    0x1000 + 4 * step
                };
                vals[l] = v;
            }
            let active = |l: usize| mask & (1 << l) != 0;
            let want = (0..32).filter(|&l| {
                active(l) && !(0..l).any(|m| active(m) && (addrs[m], vals[m]) == (addrs[l], vals[l]))
            });
            let want = want.fold(0u32, |k, l| k | 1 << l);
            prop_assert_eq!(filter_same_value(mask, &addrs, &vals), want);
        }
    }

    #[test]
    fn same_value_filter_collapses_identical_writes() {
        let mut addrs = [0u64; 32];
        let mut vals = [0u64; 32];
        addrs[0] = 100;
        addrs[1] = 100;
        addrs[2] = 100;
        vals[0] = 7;
        vals[1] = 7;
        vals[2] = 7;
        assert_eq!(filter_same_value(0b111, &addrs, &vals), 0b001);
    }

    #[test]
    fn same_value_filter_keeps_differing_writes() {
        let mut addrs = [0u64; 32];
        let mut vals = [0u64; 32];
        addrs[0] = 100;
        addrs[1] = 100;
        vals[0] = 7;
        vals[1] = 8;
        assert_eq!(filter_same_value(0b11, &addrs, &vals), 0b11);
    }

    #[test]
    fn same_value_filter_distinct_addresses_untouched() {
        let mut addrs = [0u64; 32];
        let vals = [0u64; 32];
        addrs[0] = 100;
        addrs[1] = 104;
        assert_eq!(filter_same_value(0b11, &addrs, &vals), 0b11);
    }
}
