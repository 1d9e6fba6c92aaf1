//! Typed abstract syntax tree for the supported PTX subset.
//!
//! The subset covers everything the BARRACUDA paper relies on: loads and
//! stores to the global/shared/local/param state spaces, the full family of
//! `atom.*` read-modify-write operations, `membar.{cta,gl,sys}` memory
//! fences, `bar.sync` block barriers, conditional and unconditional
//! branches with predication, comparison/select/convert and the common ALU
//! instruction forms, plus `call.uni` (used by the instrumentation framework
//! for logging call-sites).

use std::fmt;

/// Scalar PTX type (the `.u32` in `ld.global.u32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum Type {
    /// Predicate (1-bit boolean) register type.
    Pred,
    B8,
    B16,
    B32,
    B64,
    U8,
    U16,
    U32,
    U64,
    S8,
    S16,
    S32,
    S64,
    F32,
    F64,
}

impl Type {
    /// Size of a value of this type in bytes (predicates count as 1).
    #[inline]
    pub fn size(self) -> u64 {
        match self {
            Type::Pred | Type::B8 | Type::U8 | Type::S8 => 1,
            Type::B16 | Type::U16 | Type::S16 => 2,
            Type::B32 | Type::U32 | Type::S32 | Type::F32 => 4,
            Type::B64 | Type::U64 | Type::S64 | Type::F64 => 8,
        }
    }

    /// True for the signed-integer types.
    #[inline]
    pub fn is_signed(self) -> bool {
        matches!(self, Type::S8 | Type::S16 | Type::S32 | Type::S64)
    }

    /// True for `f32`/`f64`.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// The register class a value of this type lives in.
    #[inline]
    pub fn reg_class(self) -> RegClass {
        match self {
            Type::Pred => RegClass::Pred,
            Type::B8 | Type::U8 | Type::S8 | Type::B16 | Type::U16 | Type::S16 => RegClass::B32,
            Type::B32 | Type::U32 | Type::S32 => RegClass::B32,
            Type::B64 | Type::U64 | Type::S64 => RegClass::B64,
            Type::F32 => RegClass::F32,
            Type::F64 => RegClass::F64,
        }
    }

    /// PTX spelling, e.g. `u32`.
    pub fn name(self) -> &'static str {
        match self {
            Type::Pred => "pred",
            Type::B8 => "b8",
            Type::B16 => "b16",
            Type::B32 => "b32",
            Type::B64 => "b64",
            Type::U8 => "u8",
            Type::U16 => "u16",
            Type::U32 => "u32",
            Type::U64 => "u64",
            Type::S8 => "s8",
            Type::S16 => "s16",
            Type::S32 => "s32",
            Type::S64 => "s64",
            Type::F32 => "f32",
            Type::F64 => "f64",
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Register storage class: determines which physical register file a
/// virtual register belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum RegClass {
    Pred,
    B32,
    B64,
    F32,
    F64,
}

/// PTX state space (the `.global` in `ld.global.u32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device-wide memory, visible to every thread in the grid.
    Global,
    /// Per-thread-block scratchpad memory.
    Shared,
    /// Per-thread private memory.
    Local,
    /// Kernel parameter space (read-only).
    Param,
    /// Generic address space (`ld.u32` with no space qualifier); resolved
    /// dynamically from the address value.
    Generic,
}

impl Space {
    /// PTX spelling, or `""` for the generic space.
    pub fn name(self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Shared => "shared",
            Space::Local => "local",
            Space::Param => "param",
            Space::Generic => "",
        }
    }
}

/// Cache operator on loads/stores (`.cg`, `.ca`, ...). BARRACUDA's litmus
/// tests use `.cg` (skip the incoherent L1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum CacheOp {
    /// Cache at all levels (`.ca`, default for loads).
    Ca,
    /// Cache at global level, skipping L1 (`.cg`).
    Cg,
    /// Cache streaming (`.cs`).
    Cs,
    /// Volatile-like write-through (`.wt`).
    Wt,
    /// Write-back (`.wb`, default for stores).
    Wb,
}

impl CacheOp {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            CacheOp::Ca => "ca",
            CacheOp::Cg => "cg",
            CacheOp::Cs => "cs",
            CacheOp::Wt => "wt",
            CacheOp::Wb => "wb",
        }
    }
}

/// Memory fence level for `membar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FenceLevel {
    /// `membar.cta`: orders memory within the thread block.
    Cta,
    /// `membar.gl`: orders memory across the whole device.
    Gl,
    /// `membar.sys`: orders memory across the system (treated as global for
    /// intra-kernel analysis, per paper footnote 1).
    Sys,
}

impl FenceLevel {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            FenceLevel::Cta => "cta",
            FenceLevel::Gl => "gl",
            FenceLevel::Sys => "sys",
        }
    }
}

/// Atomic read-modify-write operation kind for `atom.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum AtomOp {
    Add,
    /// Fetch-and-set; commonly used to *free* a lock (paper §3.1).
    Exch,
    /// Compare-and-swap; commonly used to *obtain* a lock (paper §3.1).
    Cas,
    Min,
    Max,
    And,
    Or,
    Xor,
    Inc,
    Dec,
}

impl AtomOp {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            AtomOp::Add => "add",
            AtomOp::Exch => "exch",
            AtomOp::Cas => "cas",
            AtomOp::Min => "min",
            AtomOp::Max => "max",
            AtomOp::And => "and",
            AtomOp::Or => "or",
            AtomOp::Xor => "xor",
            AtomOp::Inc => "inc",
            AtomOp::Dec => "dec",
        }
    }
}

/// Comparison operator for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Unsigned lower.
    Lo,
    /// Unsigned lower-or-same.
    Ls,
    /// Unsigned higher.
    Hi,
    /// Unsigned higher-or-same.
    Hs,
}

impl CmpOp {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Lo => "lo",
            CmpOp::Ls => "ls",
            CmpOp::Hi => "hi",
            CmpOp::Hs => "hs",
        }
    }
}

/// Two-operand ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum BinOp {
    Add,
    Sub,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl BinOp {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }
}

/// One-operand ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum UnOp {
    Not,
    Neg,
    Abs,
}

impl UnOp {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
            UnOp::Abs => "abs",
        }
    }
}

/// Multiplication width mode (`mul.lo`, `mul.hi`, `mul.wide`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum MulMode {
    Lo,
    Hi,
    Wide,
}

impl MulMode {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            MulMode::Lo => "lo",
            MulMode::Hi => "hi",
            MulMode::Wide => "wide",
        }
    }
}

/// Warp shuffle mode (`shfl.up/down/bfly/idx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShflMode {
    /// Source lane = lane − b.
    Up,
    /// Source lane = lane + b.
    Down,
    /// Source lane = lane ⊕ b.
    Bfly,
    /// Source lane = b.
    Idx,
}

impl ShflMode {
    /// PTX spelling.
    pub fn name(self) -> &'static str {
        match self {
            ShflMode::Up => "up",
            ShflMode::Down => "down",
            ShflMode::Bfly => "bfly",
            ShflMode::Idx => "idx",
        }
    }
}

/// Special (read-only) hardware register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum SpecialReg {
    Tid(Dim),
    Ntid(Dim),
    Ctaid(Dim),
    Nctaid(Dim),
    LaneId,
    WarpSize,
}

/// Dimension selector for 3-D special registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing
pub enum Dim {
    X,
    Y,
    Z,
}

impl Dim {
    /// Lower-case axis letter.
    pub fn name(self) -> &'static str {
        match self {
            Dim::X => "x",
            Dim::Y => "y",
            Dim::Z => "z",
        }
    }
}

impl SpecialReg {
    /// PTX spelling including the leading `%`.
    pub fn name(self) -> String {
        match self {
            SpecialReg::Tid(d) => format!("%tid.{}", d.name()),
            SpecialReg::Ntid(d) => format!("%ntid.{}", d.name()),
            SpecialReg::Ctaid(d) => format!("%ctaid.{}", d.name()),
            SpecialReg::Nctaid(d) => format!("%nctaid.{}", d.name()),
            SpecialReg::LaneId => "%laneid".to_string(),
            SpecialReg::WarpSize => "WARP_SZ".to_string(),
        }
    }
}

/// A virtual register, identified by its index into the kernel's
/// [`RegFile`]. The index encodes nothing about the class; look the register
/// up in the file for its name and type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// Index into the owning kernel's register file.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Metadata for one declared virtual register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegInfo {
    /// Register name including the `%` sigil, e.g. `%r3`.
    pub name: String,
    /// Declared register class type (`.pred`, `.b32`, `.b64`, `.f32`, `.f64`).
    pub class: RegClass,
}

/// The set of virtual registers declared by a kernel.
///
/// Registers are interned: instructions reference them by [`Reg`] index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegFile {
    regs: Vec<RegInfo>,
}

impl RegFile {
    /// Creates an empty register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of declared registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True if no registers are declared.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Declares a register with an explicit name, returning its handle.
    pub fn declare(&mut self, name: impl Into<String>, class: RegClass) -> Reg {
        let idx = self.regs.len() as u32;
        self.regs.push(RegInfo {
            name: name.into(),
            class,
        });
        Reg(idx)
    }

    /// Allocates a fresh register with a generated, collision-free name.
    ///
    /// Used by the instrumenter when rewriting predicated instructions.
    pub fn alloc(&mut self, class: RegClass) -> Reg {
        let prefix = match class {
            RegClass::Pred => "%__bp",
            RegClass::B32 => "%__br",
            RegClass::B64 => "%__brd",
            RegClass::F32 => "%__bf",
            RegClass::F64 => "%__bfd",
        };
        let name = format!("{prefix}{}", self.regs.len());
        self.declare(name, class)
    }

    /// Looks up a register's metadata.
    ///
    /// # Panics
    ///
    /// Panics if `reg` was not produced by this file.
    pub fn info(&self, reg: Reg) -> &RegInfo {
        &self.regs[reg.index()]
    }

    /// Finds a register by name.
    pub fn find(&self, name: &str) -> Option<Reg> {
        self.regs
            .iter()
            .position(|r| r.name == name)
            .map(|i| Reg(i as u32))
    }

    /// Iterates over `(handle, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &RegInfo)> {
        self.regs
            .iter()
            .enumerate()
            .map(|(i, r)| (Reg(i as u32), r))
    }
}

/// An instruction operand: register, immediate, special register or the
/// address of a named symbol.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum Operand {
    Reg(Reg),
    /// Integer immediate, stored as raw bits (sign-extended for negatives).
    Imm(i64),
    /// Floating-point immediate.
    FImm(f64),
    Special(SpecialReg),
    /// Address of a named `.shared` variable (`mov.u64 %rd, smem;` yields
    /// the variable's offset within the block's shared segment).
    Sym(String),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

/// A memory address expression: `[base + offset]` where base is a register
/// or a named symbol (kernel parameter or shared-memory variable).
#[derive(Debug, Clone, PartialEq)]
pub struct Address {
    /// Base register or symbol.
    pub base: AddrBase,
    /// Constant byte offset added to the base.
    pub offset: i64,
}

/// Base of an [`Address`].
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum AddrBase {
    Reg(Reg),
    /// Named symbol: a `.param` name or a `.shared` variable name.
    Sym(String),
}

impl Address {
    /// Address based at a register with zero offset.
    pub fn reg(r: Reg) -> Self {
        Address {
            base: AddrBase::Reg(r),
            offset: 0,
        }
    }

    /// Address based at a register with a byte offset.
    pub fn reg_off(r: Reg, offset: i64) -> Self {
        Address {
            base: AddrBase::Reg(r),
            offset,
        }
    }

    /// Address based at a named symbol.
    pub fn sym(name: impl Into<String>) -> Self {
        Address {
            base: AddrBase::Sym(name.into()),
            offset: 0,
        }
    }
}

/// Guard predicate on an instruction (`@%p` / `@!%p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    /// The predicate register tested.
    pub pred: Reg,
    /// `@!%p` form: execute when the predicate is false.
    pub negated: bool,
}

/// Instruction opcode with operands.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum Op {
    /// `ld.space.type dst, [addr]`
    Ld {
        space: Space,
        cache: Option<CacheOp>,
        volatile: bool,
        ty: Type,
        dst: Reg,
        addr: Address,
    },
    /// `st.space.type [addr], src`
    St {
        space: Space,
        cache: Option<CacheOp>,
        volatile: bool,
        ty: Type,
        addr: Address,
        src: Operand,
    },
    /// `ld.space.v2/v4.type {dsts...}, [addr]` — vectorized load of 2 or
    /// 4 consecutive elements.
    LdVec {
        space: Space,
        cache: Option<CacheOp>,
        volatile: bool,
        ty: Type,
        dsts: Vec<Reg>,
        addr: Address,
    },
    /// `st.space.v2/v4.type [addr], {srcs...}`
    StVec {
        space: Space,
        cache: Option<CacheOp>,
        volatile: bool,
        ty: Type,
        addr: Address,
        srcs: Vec<Operand>,
    },
    /// `atom.space.op.type dst, [addr], a (, b)` — `b` only for `cas`.
    Atom {
        space: Space,
        op: AtomOp,
        ty: Type,
        dst: Reg,
        addr: Address,
        a: Operand,
        b: Option<Operand>,
    },
    /// `red.space.op.type [addr], a` — reduction (atomic without result).
    Red {
        space: Space,
        op: AtomOp,
        ty: Type,
        addr: Address,
        a: Operand,
    },
    /// `membar.level`
    Membar { level: FenceLevel },
    /// `bar.sync idx`
    Bar { idx: u32 },
    /// `bra target` / `bra.uni target`. A guarded `bra` is a conditional
    /// branch.
    Bra { uni: bool, target: String },
    /// `setp.cmp.type dst, a, b`
    Setp {
        cmp: CmpOp,
        ty: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `mov.type dst, src`
    Mov { ty: Type, dst: Reg, src: Operand },
    /// Binary ALU: `op.type dst, a, b`
    Bin {
        op: BinOp,
        ty: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// Unary ALU: `op.type dst, a`
    Un {
        op: UnOp,
        ty: Type,
        dst: Reg,
        a: Operand,
    },
    /// `mul.mode.type dst, a, b`
    Mul {
        mode: MulMode,
        ty: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `mad.mode.type dst, a, b, c` — `dst = a*b + c`
    Mad {
        mode: MulMode,
        ty: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    /// `selp.type dst, a, b, p` — `dst = p ? a : b`
    Selp {
        ty: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
        p: Reg,
    },
    /// `cvt.dty.sty dst, a`
    Cvt {
        dty: Type,
        sty: Type,
        dst: Reg,
        a: Operand,
    },
    /// `cvta.to.space.type dst, a` (to=true) or `cvta.space.type dst, a`.
    /// Address-space conversion; a no-op in this flat-address simulator but
    /// parsed and preserved for compatibility with compiler output.
    Cvta {
        to: bool,
        space: Space,
        ty: Type,
        dst: Reg,
        a: Operand,
    },
    /// `call.uni target, (args...);` — used for instrumentation hooks.
    Call { target: String, args: Vec<Operand> },
    /// `shfl.mode.b32 dst, a, b, c` — intra-warp register exchange: every
    /// active lane receives `a` as evaluated on its source lane (its own
    /// value when the source lane is inactive or out of range). A pure
    /// register operation: no memory access, no logging.
    Shfl {
        mode: ShflMode,
        ty: Type,
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    /// `ret;`
    Ret,
    /// `exit;`
    Exit,
}

impl Op {
    /// The register written by this instruction, if any (the first, for
    /// vector loads — use [`Op::defs`] when all matter).
    pub fn def(&self) -> Option<Reg> {
        match self {
            Op::Ld { dst, .. }
            | Op::Atom { dst, .. }
            | Op::Setp { dst, .. }
            | Op::Mov { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Un { dst, .. }
            | Op::Mul { dst, .. }
            | Op::Mad { dst, .. }
            | Op::Selp { dst, .. }
            | Op::Cvt { dst, .. }
            | Op::Cvta { dst, .. }
            | Op::Shfl { dst, .. } => Some(*dst),
            Op::LdVec { dsts, .. } => dsts.first().copied(),
            _ => None,
        }
    }

    /// All registers written by this instruction.
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Op::LdVec { dsts, .. } => dsts.clone(),
            other => other.def().into_iter().collect(),
        }
    }

    /// True for instructions that access memory (loads, stores, atomics).
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            Op::Ld { .. }
                | Op::St { .. }
                | Op::LdVec { .. }
                | Op::StVec { .. }
                | Op::Atom { .. }
                | Op::Red { .. }
        )
    }

    /// True for control-transfer instructions ending a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Bra { .. } | Op::Ret | Op::Exit)
    }
}

/// A (possibly guarded) instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Optional `@%p` guard.
    pub guard: Option<Guard>,
    /// The operation.
    pub op: Op,
}

impl Instruction {
    /// Unguarded instruction.
    pub fn new(op: Op) -> Self {
        Instruction { guard: None, op }
    }

    /// Instruction guarded by `@pred` (or `@!pred` if `negated`).
    pub fn guarded(pred: Reg, negated: bool, op: Op) -> Self {
        Instruction {
            guard: Some(Guard { pred, negated }),
            op,
        }
    }
}

/// One statement in a kernel body: a label or an instruction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variants/fields are self-describing
pub enum Statement {
    Label(String),
    Instr(Instruction),
}

/// A kernel (`.entry`) parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter symbol name.
    pub name: String,
    /// Declared `.param` type.
    pub ty: Type,
}

/// A `.shared` memory declaration: `.shared .align A .b8 name[SIZE];`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedDecl {
    /// Variable name.
    pub name: String,
    /// Declared alignment in bytes.
    pub align: u32,
    /// Size in bytes.
    pub size: u64,
    /// Byte offset of this variable within the block's shared segment
    /// (assigned at parse/build time).
    pub offset: u64,
}

/// A compiled kernel: parameters, register file, shared-memory layout and a
/// flat statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Entry name.
    pub name: String,
    /// Declared `.param` list, in order.
    pub params: Vec<Param>,
    /// Declared virtual registers.
    pub regs: RegFile,
    /// `.shared` variables with assigned offsets.
    pub shared: Vec<SharedDecl>,
    /// Body: labels and instructions in order.
    pub stmts: Vec<Statement>,
}

impl Kernel {
    /// Total shared-memory bytes declared by the kernel.
    pub fn shared_size(&self) -> u64 {
        self.shared
            .iter()
            .map(|s| s.offset + s.size)
            .max()
            .unwrap_or(0)
    }

    /// Byte offset of a `.shared` symbol within the block's shared segment.
    pub fn shared_offset(&self, name: &str) -> Option<u64> {
        self.shared
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.offset)
    }

    /// Byte offset of a parameter within the (packed, 8-byte-aligned)
    /// parameter block, plus its type.
    pub fn param_info(&self, name: &str) -> Option<(u64, Type)> {
        let mut off = 0u64;
        for p in &self.params {
            if p.name == name {
                return Some((off, p.ty));
            }
            off += 8; // every param occupies one 8-byte slot
        }
        None
    }

    /// Number of instruction statements (static PTX instructions).
    pub fn static_instruction_count(&self) -> usize {
        self.stmts
            .iter()
            .filter(|s| matches!(s, Statement::Instr(_)))
            .count()
    }

    /// Iterates over the instructions, skipping labels.
    pub fn instructions(&self) -> impl Iterator<Item = &Instruction> {
        self.stmts.iter().filter_map(|s| match s {
            Statement::Instr(i) => Some(i),
            Statement::Label(_) => None,
        })
    }
}

/// A PTX module: header directives plus kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// `.version` major/minor.
    pub version: (u32, u32),
    /// `.target`, e.g. `sm_35`.
    pub target: String,
    /// `.address_size` (32 or 64).
    pub address_size: u32,
    /// Entry kernels in declaration order.
    pub kernels: Vec<Kernel>,
}

impl Module {
    /// An empty module with the defaults used throughout this repo
    /// (`.version 4.3`, `.target sm_35`, `.address_size 64`).
    pub fn new() -> Self {
        Module {
            version: (4, 3),
            target: "sm_35".to_string(),
            address_size: 64,
            kernels: Vec::new(),
        }
    }

    /// Finds a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Total static instruction count across all kernels.
    pub fn static_instruction_count(&self) -> usize {
        self.kernels
            .iter()
            .map(Kernel::static_instruction_count)
            .sum()
    }
}

impl Default for Module {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes() {
        assert_eq!(Type::U8.size(), 1);
        assert_eq!(Type::B16.size(), 2);
        assert_eq!(Type::F32.size(), 4);
        assert_eq!(Type::S64.size(), 8);
        assert_eq!(Type::Pred.size(), 1);
    }

    #[test]
    fn type_classes() {
        assert_eq!(Type::U32.reg_class(), RegClass::B32);
        assert_eq!(Type::S64.reg_class(), RegClass::B64);
        assert_eq!(Type::F64.reg_class(), RegClass::F64);
        assert_eq!(Type::Pred.reg_class(), RegClass::Pred);
        assert!(Type::S32.is_signed());
        assert!(!Type::U32.is_signed());
        assert!(Type::F32.is_float());
    }

    #[test]
    fn regfile_declare_find_alloc() {
        let mut rf = RegFile::new();
        let r1 = rf.declare("%r1", RegClass::B32);
        let p = rf.declare("%p1", RegClass::Pred);
        assert_eq!(rf.find("%r1"), Some(r1));
        assert_eq!(rf.find("%p1"), Some(p));
        assert_eq!(rf.find("%nope"), None);
        let t = rf.alloc(RegClass::B64);
        assert_ne!(rf.info(t).name, rf.info(r1).name);
        assert_eq!(rf.info(t).class, RegClass::B64);
        assert_eq!(rf.len(), 3);
    }

    #[test]
    fn op_def_and_kind_queries() {
        let mut rf = RegFile::new();
        let r = rf.declare("%r1", RegClass::B32);
        let ld = Op::Ld {
            space: Space::Global,
            cache: None,
            volatile: false,
            ty: Type::U32,
            dst: r,
            addr: Address::reg(r),
        };
        assert_eq!(ld.def(), Some(r));
        assert!(ld.is_memory_access());
        assert!(!ld.is_terminator());
        assert!(Op::Ret.is_terminator());
        assert!(Op::Bra {
            uni: true,
            target: "L".into()
        }
        .is_terminator());
        assert_eq!(Op::Ret.def(), None);
    }

    #[test]
    fn kernel_param_offsets() {
        let k = Kernel {
            name: "k".into(),
            params: vec![
                Param {
                    name: "a".into(),
                    ty: Type::U64,
                },
                Param {
                    name: "b".into(),
                    ty: Type::U32,
                },
            ],
            regs: RegFile::new(),
            shared: vec![],
            stmts: vec![],
        };
        assert_eq!(k.param_info("a"), Some((0, Type::U64)));
        assert_eq!(k.param_info("b"), Some((8, Type::U32)));
        assert_eq!(k.param_info("c"), None);
    }

    #[test]
    fn kernel_shared_layout() {
        let k = Kernel {
            name: "k".into(),
            params: vec![],
            regs: RegFile::new(),
            shared: vec![
                SharedDecl {
                    name: "a".into(),
                    align: 4,
                    size: 64,
                    offset: 0,
                },
                SharedDecl {
                    name: "b".into(),
                    align: 8,
                    size: 32,
                    offset: 64,
                },
            ],
            stmts: vec![],
        };
        assert_eq!(k.shared_size(), 96);
        assert_eq!(k.shared_offset("b"), Some(64));
        assert_eq!(k.shared_offset("z"), None);
    }
}
