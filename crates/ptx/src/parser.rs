//! Recursive-descent parser from token stream to [`Module`].

use crate::ast::*;
use crate::error::PtxError;
use crate::lexer::{lex, Tok, Token};
use std::collections::HashSet;

/// Most registers one module may declare, summed over its kernels. The
/// kernels in this repository declare at most 1,256 each; the cap refuses a
/// declaration such as `%r<4000000000>`, or many kernels that each declare
/// the cap, before any register is allocated.
pub const MAX_DECLARED_REGS: usize = 1 << 16;

/// Most bytes of static `.shared` memory one kernel may declare: CUDA's
/// 48 KiB static shared-memory limit per block. Every block of a launch
/// allocates this much.
pub const MAX_STATIC_SHARED_BYTES: u64 = 48 << 10;

/// Parses a complete PTX module.
///
/// # Errors
///
/// Returns [`PtxError`] on syntax errors, references to undeclared
/// registers/labels, duplicate labels, guards on non-predicate registers,
/// more than [`MAX_DECLARED_REGS`] registers in the module, or a kernel
/// declaring more than [`MAX_STATIC_SHARED_BYTES`] of static shared memory.
pub fn parse_module(source: &str) -> Result<Module, PtxError> {
    let toks = lex(source)?;
    let mut p = Parser {
        toks,
        pos: 0,
        declared_regs: 0,
    };
    p.module()
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Registers declared so far by every kernel of the module; never
    /// above [`MAX_DECLARED_REGS`].
    declared_regs: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> PtxError {
        PtxError::new(self.line(), msg)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), PtxError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, PtxError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<i64, PtxError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------------- module

    fn module(&mut self) -> Result<Module, PtxError> {
        let mut m = Module::new();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Dot => {
                    self.bump();
                    let dir = self.expect_ident("directive name")?;
                    match dir.as_str() {
                        "version" => m.version = self.version()?,
                        "target" => m.target = self.expect_ident(".target value")?,
                        "address_size" => {
                            m.address_size = self.expect_int(".address_size value")? as u32
                        }
                        "visible" | "extern" | "weak" => { /* linkage: skip */ }
                        "entry" => {
                            let k = self.kernel()?;
                            m.kernels.push(k);
                        }
                        other => {
                            return Err(self.err(format!("unsupported module directive .{other}")))
                        }
                    }
                }
                other => {
                    return Err(self.err(format!(
                        "expected directive at module scope, found {other:?}"
                    )))
                }
            }
        }
        validate(&m)?;
        Ok(m)
    }

    fn version(&mut self) -> Result<(u32, u32), PtxError> {
        match self.bump() {
            Some(Tok::Float(v)) => {
                let major = v.trunc() as u32;
                let minor = ((v - v.trunc()) * 10.0).round() as u32;
                Ok((major, minor))
            }
            Some(Tok::Int(v)) => Ok((v as u32, 0)),
            other => Err(self.err(format!("expected version number, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------------- kernel

    fn kernel(&mut self) -> Result<Kernel, PtxError> {
        let name = self.expect_ident("kernel name")?;
        let mut params = Vec::new();
        if self.eat(&Tok::LParen) {
            while !self.eat(&Tok::RParen) {
                self.expect(&Tok::Dot, ".param")?;
                let kw = self.expect_ident("param")?;
                if kw != "param" {
                    return Err(self.err(format!("expected .param, found .{kw}")));
                }
                self.expect(&Tok::Dot, "param type")?;
                let tyname = self.expect_ident("param type")?;
                let ty = parse_type(&tyname)
                    .ok_or_else(|| self.err(format!("bad param type .{tyname}")))?;
                // Optional `.ptr .space .align N` annotations.
                while self.peek() == Some(&Tok::Dot) {
                    self.bump();
                    let ann = self.expect_ident("param annotation")?;
                    if ann == "align" {
                        self.expect_int("alignment")?;
                    }
                    // `.ptr`, `.global`, etc. carry no operands.
                }
                let pname = self.expect_ident("param name")?;
                params.push(Param { name: pname, ty });
                if !self.eat(&Tok::Comma) {
                    self.expect(&Tok::RParen, "')' after params")?;
                    break;
                }
            }
        }
        self.expect(&Tok::LBrace, "'{' starting kernel body")?;
        let mut regs = RegFile::new();
        let mut shared: Vec<SharedDecl> = Vec::new();
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unexpected end of input in kernel body")),
                Some(Tok::RBrace) => {
                    self.bump();
                    break;
                }
                Some(Tok::Dot) => {
                    self.bump();
                    let dir = self.expect_ident("body directive")?;
                    match dir.as_str() {
                        "reg" => self.reg_decl(&mut regs)?,
                        "shared" => self.shared_decl(&mut shared)?,
                        "local" => self.skip_through_semi(),
                        other => {
                            return Err(self.err(format!("unsupported body directive .{other}")))
                        }
                    }
                }
                Some(Tok::Ident(_)) if self.peek2() == Some(&Tok::Colon) => {
                    let label = self.expect_ident("label")?;
                    self.bump(); // colon
                    stmts.push(Statement::Label(label));
                }
                _ => {
                    let instr = self.instruction(&regs)?;
                    stmts.push(Statement::Instr(instr));
                }
            }
        }
        Ok(Kernel {
            name,
            params,
            regs,
            shared,
            stmts,
        })
    }

    fn skip_through_semi(&mut self) {
        while let Some(t) = self.bump() {
            if t == Tok::Semi {
                break;
            }
        }
    }

    /// `.reg .b32 %r<16>;` or `.reg .pred %p, %q;`
    fn reg_decl(&mut self, regs: &mut RegFile) -> Result<(), PtxError> {
        self.expect(&Tok::Dot, "register class")?;
        let cname = self.expect_ident("register class")?;
        let class = match cname.as_str() {
            "pred" => RegClass::Pred,
            "b8" | "b16" | "b32" | "u8" | "u16" | "u32" | "s8" | "s16" | "s32" => RegClass::B32,
            "b64" | "u64" | "s64" => RegClass::B64,
            "f32" => RegClass::F32,
            "f64" => RegClass::F64,
            other => return Err(self.err(format!("bad register class .{other}"))),
        };
        loop {
            let base = match self.bump() {
                Some(Tok::Reg(name)) => name,
                other => return Err(self.err(format!("expected register name, found {other:?}"))),
            };
            if self.eat(&Tok::LAngle) {
                let count = self.expect_int("register count")?;
                self.expect(&Tok::RAngle, "'>'")?;
                self.count_regs(count)?;
                for i in 0..count {
                    regs.declare(format!("{base}{i}"), class);
                }
            } else {
                self.count_regs(1)?;
                regs.declare(base, class);
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Semi, "';' after .reg")?;
        Ok(())
    }

    /// Counts `n` more declared registers against [`MAX_DECLARED_REGS`].
    fn count_regs(&mut self, n: i64) -> Result<(), PtxError> {
        let n = n.max(0) as usize;
        if n > MAX_DECLARED_REGS - self.declared_regs {
            return Err(self.err(format!(
                "register declarations exceed {MAX_DECLARED_REGS} per module"
            )));
        }
        self.declared_regs += n;
        Ok(())
    }

    /// `.shared .align 4 .b8 name[SIZE];` or `.shared .u32 name;` /
    /// `.shared .f32 name[N];`
    fn shared_decl(&mut self, shared: &mut Vec<SharedDecl>) -> Result<(), PtxError> {
        let mut align = 4u32;
        self.expect(&Tok::Dot, "shared decl type")?;
        let mut word = self.expect_ident("shared decl type")?;
        if word == "align" {
            align = self.expect_int("alignment")? as u32;
            self.expect(&Tok::Dot, "shared decl type")?;
            word = self.expect_ident("shared decl type")?;
        }
        let ty = parse_type(&word).ok_or_else(|| self.err(format!("bad shared type .{word}")))?;
        let name = self.expect_ident("shared variable name")?;
        let size = if self.eat(&Tok::LBracket) {
            let n = self.expect_int("array length")?;
            self.expect(&Tok::RBracket, "']'")?;
            // A negative length is as unsatisfiable as an oversized one.
            u64::try_from(n).map_or(u64::MAX, |n| n.saturating_mul(ty.size()))
        } else {
            ty.size()
        };
        self.expect(&Tok::Semi, "';' after .shared")?;
        let prev_end = shared.iter().map(|s| s.offset + s.size).max().unwrap_or(0);
        let align64 = u64::from(align.max(1));
        let offset = prev_end.div_ceil(align64) * align64;
        if offset.saturating_add(size) > MAX_STATIC_SHARED_BYTES {
            return Err(self.err(format!(
                "static .shared declarations exceed {MAX_STATIC_SHARED_BYTES} bytes per kernel"
            )));
        }
        shared.push(SharedDecl {
            name,
            align,
            size,
            offset,
        });
        Ok(())
    }

    // ----------------------------------------------------------- instruction

    fn instruction(&mut self, regs: &RegFile) -> Result<Instruction, PtxError> {
        let guard = if self.eat(&Tok::At) {
            let negated = self.eat(&Tok::Bang);
            let pred = self.reg_operand(regs)?;
            if regs.info(pred).class != RegClass::Pred {
                return Err(self.err("guard register is not a predicate"));
            }
            Some(Guard { pred, negated })
        } else {
            None
        };
        let head = self.expect_ident("instruction mnemonic")?;
        let mut suffixes = Vec::new();
        while self.peek() == Some(&Tok::Dot) {
            self.bump();
            suffixes.push(self.expect_ident("mnemonic suffix")?);
        }
        let op = self.opcode(&head, &suffixes, regs)?;
        self.expect(&Tok::Semi, "';' after instruction")?;
        Ok(Instruction { guard, op })
    }

    fn opcode(&mut self, head: &str, suffixes: &[String], regs: &RegFile) -> Result<Op, PtxError> {
        match head {
            "ld" | "st" => self.ld_st(head == "ld", suffixes, regs),
            "atom" => self.atom(suffixes, regs, false),
            "red" => self.atom(suffixes, regs, true),
            "membar" => {
                let level = match suffixes.first().map(String::as_str) {
                    Some("cta") => FenceLevel::Cta,
                    Some("gl") => FenceLevel::Gl,
                    Some("sys") => FenceLevel::Sys,
                    other => return Err(self.err(format!("bad membar level {other:?}"))),
                };
                Ok(Op::Membar { level })
            }
            "bar" => {
                if suffixes.first().map(String::as_str) != Some("sync") {
                    return Err(self.err("only bar.sync is supported"));
                }
                let idx = self.expect_int("barrier index")? as u32;
                Ok(Op::Bar { idx })
            }
            "bra" => {
                let uni = suffixes.iter().any(|s| s == "uni");
                let target = self.expect_ident("branch target")?;
                Ok(Op::Bra { uni, target })
            }
            "setp" => {
                let cmp = suffixes
                    .first()
                    .and_then(|s| parse_cmp(s))
                    .ok_or_else(|| self.err("bad setp comparison"))?;
                let ty = self.type_from_suffixes(&suffixes[1..])?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let b = self.operand(regs)?;
                Ok(Op::Setp { cmp, ty, dst, a, b })
            }
            "mov" => {
                let ty = self.type_from_suffixes(suffixes)?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let src = self.operand(regs)?;
                Ok(Op::Mov { ty, dst, src })
            }
            "add" | "sub" | "div" | "rem" | "min" | "max" | "and" | "or" | "xor" | "shl"
            | "shr" => {
                let op = match head {
                    "add" => BinOp::Add,
                    "sub" => BinOp::Sub,
                    "div" => BinOp::Div,
                    "rem" => BinOp::Rem,
                    "min" => BinOp::Min,
                    "max" => BinOp::Max,
                    "and" => BinOp::And,
                    "or" => BinOp::Or,
                    "xor" => BinOp::Xor,
                    "shl" => BinOp::Shl,
                    _ => BinOp::Shr,
                };
                let ty = self.type_from_suffixes(suffixes)?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let b = self.operand(regs)?;
                Ok(Op::Bin { op, ty, dst, a, b })
            }
            "not" | "neg" | "abs" => {
                let op = match head {
                    "not" => UnOp::Not,
                    "neg" => UnOp::Neg,
                    _ => UnOp::Abs,
                };
                let ty = self.type_from_suffixes(suffixes)?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                Ok(Op::Un { op, ty, dst, a })
            }
            "mul" => {
                let (mode, rest) = take_mul_mode(suffixes);
                let ty = self.type_from_suffixes(rest)?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let b = self.operand(regs)?;
                Ok(Op::Mul {
                    mode,
                    ty,
                    dst,
                    a,
                    b,
                })
            }
            "mad" | "fma" => {
                let (mode, rest) = take_mul_mode(suffixes);
                let ty = self.type_from_suffixes(rest)?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let b = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let c = self.operand(regs)?;
                Ok(Op::Mad {
                    mode,
                    ty,
                    dst,
                    a,
                    b,
                    c,
                })
            }
            "selp" => {
                let ty = self.type_from_suffixes(suffixes)?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let b = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let p = self.reg_operand(regs)?;
                Ok(Op::Selp { ty, dst, a, b, p })
            }
            "cvt" => {
                let tys: Vec<Type> = suffixes.iter().filter_map(|s| parse_type(s)).collect();
                if tys.len() != 2 {
                    return Err(self.err("cvt requires destination and source types"));
                }
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                Ok(Op::Cvt {
                    dty: tys[0],
                    sty: tys[1],
                    dst,
                    a,
                })
            }
            "cvta" => {
                let to = suffixes.first().map(String::as_str) == Some("to");
                let space = suffixes
                    .iter()
                    .find_map(|s| parse_space(s))
                    .unwrap_or(Space::Generic);
                let ty = self.type_from_suffixes(suffixes)?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                Ok(Op::Cvta {
                    to,
                    space,
                    ty,
                    dst,
                    a,
                })
            }
            "shfl" => {
                let mode = match suffixes.first().map(String::as_str) {
                    Some("up") => ShflMode::Up,
                    Some("down") => ShflMode::Down,
                    Some("bfly") => ShflMode::Bfly,
                    Some("idx") => ShflMode::Idx,
                    other => return Err(self.err(format!("bad shfl mode {other:?}"))),
                };
                let ty = self.type_from_suffixes(&suffixes[1..])?;
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let a = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let b = self.operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let c = self.operand(regs)?;
                Ok(Op::Shfl {
                    mode,
                    ty,
                    dst,
                    a,
                    b,
                    c,
                })
            }
            "call" => {
                let target = self.expect_ident("call target")?;
                let mut args = Vec::new();
                if self.eat(&Tok::Comma) {
                    self.expect(&Tok::LParen, "'(' before call args")?;
                    while !self.eat(&Tok::RParen) {
                        args.push(self.operand(regs)?);
                        if !self.eat(&Tok::Comma) {
                            self.expect(&Tok::RParen, "')' after call args")?;
                            break;
                        }
                    }
                }
                Ok(Op::Call { target, args })
            }
            "ret" => Ok(Op::Ret),
            "exit" => Ok(Op::Exit),
            other => Err(self.err(format!("unsupported instruction '{other}'"))),
        }
    }

    fn ld_st(&mut self, is_ld: bool, suffixes: &[String], regs: &RegFile) -> Result<Op, PtxError> {
        let mut space = Space::Generic;
        let mut cache = None;
        let mut volatile = false;
        let mut ty = None;
        let mut vec: Option<usize> = None;
        for s in suffixes {
            if s == "volatile" {
                volatile = true;
            } else if s == "v2" {
                vec = Some(2);
            } else if s == "v4" {
                vec = Some(4);
            } else if let Some(sp) = parse_space(s) {
                space = sp;
            } else if let Some(c) = parse_cache(s) {
                cache = Some(c);
            } else if let Some(t) = parse_type(s) {
                ty = Some(t);
            } else {
                return Err(self.err(format!("bad ld/st suffix .{s}")));
            }
        }
        let ty = ty.ok_or_else(|| self.err("ld/st missing type suffix"))?;
        match (is_ld, vec) {
            (true, None) => {
                let dst = self.reg_operand(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let addr = self.address(regs)?;
                Ok(Op::Ld {
                    space,
                    cache,
                    volatile,
                    ty,
                    dst,
                    addr,
                })
            }
            (false, None) => {
                let addr = self.address(regs)?;
                self.expect(&Tok::Comma, "','")?;
                let src = self.operand(regs)?;
                Ok(Op::St {
                    space,
                    cache,
                    volatile,
                    ty,
                    addr,
                    src,
                })
            }
            (true, Some(n)) => {
                self.expect(&Tok::LBrace, "'{' before vector destinations")?;
                let mut dsts = Vec::with_capacity(n);
                for i in 0..n {
                    if i > 0 {
                        self.expect(&Tok::Comma, "','")?;
                    }
                    dsts.push(self.reg_operand(regs)?);
                }
                self.expect(&Tok::RBrace, "'}' after vector destinations")?;
                self.expect(&Tok::Comma, "','")?;
                let addr = self.address(regs)?;
                Ok(Op::LdVec {
                    space,
                    cache,
                    volatile,
                    ty,
                    dsts,
                    addr,
                })
            }
            (false, Some(n)) => {
                let addr = self.address(regs)?;
                self.expect(&Tok::Comma, "','")?;
                self.expect(&Tok::LBrace, "'{' before vector sources")?;
                let mut srcs = Vec::with_capacity(n);
                for i in 0..n {
                    if i > 0 {
                        self.expect(&Tok::Comma, "','")?;
                    }
                    srcs.push(self.operand(regs)?);
                }
                self.expect(&Tok::RBrace, "'}' after vector sources")?;
                Ok(Op::StVec {
                    space,
                    cache,
                    volatile,
                    ty,
                    addr,
                    srcs,
                })
            }
        }
    }

    fn atom(&mut self, suffixes: &[String], regs: &RegFile, is_red: bool) -> Result<Op, PtxError> {
        let mut space = Space::Generic;
        let mut op = None;
        let mut ty = None;
        for s in suffixes {
            if let Some(sp) = parse_space(s) {
                space = sp;
            } else if let Some(a) = parse_atom_op(s) {
                op = Some(a);
            } else if let Some(t) = parse_type(s) {
                ty = Some(t);
            } else {
                return Err(self.err(format!("bad atom suffix .{s}")));
            }
        }
        let op = op.ok_or_else(|| self.err("atom missing operation suffix"))?;
        let ty = ty.ok_or_else(|| self.err("atom missing type suffix"))?;
        if is_red {
            let addr = self.address(regs)?;
            self.expect(&Tok::Comma, "','")?;
            let a = self.operand(regs)?;
            return Ok(Op::Red {
                space,
                op,
                ty,
                addr,
                a,
            });
        }
        let dst = self.reg_operand(regs)?;
        self.expect(&Tok::Comma, "','")?;
        let addr = self.address(regs)?;
        self.expect(&Tok::Comma, "','")?;
        let a = self.operand(regs)?;
        let b = if op == AtomOp::Cas {
            self.expect(&Tok::Comma, "',' before cas swap value")?;
            Some(self.operand(regs)?)
        } else {
            None
        };
        Ok(Op::Atom {
            space,
            op,
            ty,
            dst,
            addr,
            a,
            b,
        })
    }

    // -------------------------------------------------------------- operands

    fn type_from_suffixes(&self, suffixes: &[String]) -> Result<Type, PtxError> {
        suffixes
            .iter()
            .rev()
            .find_map(|s| parse_type(s))
            .ok_or_else(|| self.err("missing type suffix"))
    }

    fn reg_operand(&mut self, regs: &RegFile) -> Result<Reg, PtxError> {
        match self.bump() {
            Some(Tok::Reg(name)) => regs
                .find(&name)
                .ok_or_else(|| self.err(format!("undeclared register {name}"))),
            other => Err(self.err(format!("expected register, found {other:?}"))),
        }
    }

    fn operand(&mut self, regs: &RegFile) -> Result<Operand, PtxError> {
        match self.bump() {
            Some(Tok::Reg(name)) => {
                // Special registers with a dimension suffix.
                if let Some(base) = special_base(&name) {
                    if self.eat(&Tok::Dot) {
                        let dim = match self.expect_ident("dimension")?.as_str() {
                            "x" => Dim::X,
                            "y" => Dim::Y,
                            "z" => Dim::Z,
                            d => return Err(self.err(format!("bad dimension .{d}"))),
                        };
                        return Ok(Operand::Special(base(dim)));
                    }
                    return Err(self.err(format!("{name} requires a .x/.y/.z suffix")));
                }
                if name == "%laneid" {
                    return Ok(Operand::Special(SpecialReg::LaneId));
                }
                let r = regs
                    .find(&name)
                    .ok_or_else(|| self.err(format!("undeclared register {name}")))?;
                Ok(Operand::Reg(r))
            }
            Some(Tok::Int(v)) => Ok(Operand::Imm(v)),
            Some(Tok::Float(v)) => Ok(Operand::FImm(v)),
            Some(Tok::Ident(s)) if s == "WARP_SZ" => Ok(Operand::Special(SpecialReg::WarpSize)),
            Some(Tok::Ident(s)) => Ok(Operand::Sym(s)),
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }

    fn address(&mut self, regs: &RegFile) -> Result<Address, PtxError> {
        self.expect(&Tok::LBracket, "'['")?;
        let base = match self.bump() {
            Some(Tok::Reg(name)) => {
                let r = regs
                    .find(&name)
                    .ok_or_else(|| self.err(format!("undeclared register {name}")))?;
                AddrBase::Reg(r)
            }
            Some(Tok::Ident(sym)) => AddrBase::Sym(sym),
            other => Err(self.err(format!("expected address base, found {other:?}")))?,
        };
        let mut offset = 0;
        if self.eat(&Tok::Plus) {
            offset = self.expect_int("address offset")?;
        } else if let Some(Tok::Int(v)) = self.peek() {
            // `[%r1+-4]` lexes the negative offset as a single Int.
            if *v < 0 {
                offset = *v;
                self.bump();
            }
        }
        self.expect(&Tok::RBracket, "']'")?;
        Ok(Address { base, offset })
    }
}

fn take_mul_mode(suffixes: &[String]) -> (MulMode, &[String]) {
    match suffixes.first().map(String::as_str) {
        Some("lo") => (MulMode::Lo, &suffixes[1..]),
        Some("hi") => (MulMode::Hi, &suffixes[1..]),
        Some("wide") => (MulMode::Wide, &suffixes[1..]),
        _ => (MulMode::Lo, suffixes),
    }
}

fn special_base(name: &str) -> Option<fn(Dim) -> SpecialReg> {
    match name {
        "%tid" => Some(SpecialReg::Tid),
        "%ntid" => Some(SpecialReg::Ntid),
        "%ctaid" => Some(SpecialReg::Ctaid),
        "%nctaid" => Some(SpecialReg::Nctaid),
        _ => None,
    }
}

fn parse_type(s: &str) -> Option<Type> {
    Some(match s {
        "pred" => Type::Pred,
        "b8" => Type::B8,
        "b16" => Type::B16,
        "b32" => Type::B32,
        "b64" => Type::B64,
        "u8" => Type::U8,
        "u16" => Type::U16,
        "u32" => Type::U32,
        "u64" => Type::U64,
        "s8" => Type::S8,
        "s16" => Type::S16,
        "s32" => Type::S32,
        "s64" => Type::S64,
        "f32" => Type::F32,
        "f64" => Type::F64,
        _ => return None,
    })
}

fn parse_space(s: &str) -> Option<Space> {
    Some(match s {
        "global" => Space::Global,
        "shared" => Space::Shared,
        "local" => Space::Local,
        "param" => Space::Param,
        _ => return None,
    })
}

fn parse_cache(s: &str) -> Option<CacheOp> {
    Some(match s {
        "ca" => CacheOp::Ca,
        "cg" => CacheOp::Cg,
        "cs" => CacheOp::Cs,
        "wt" => CacheOp::Wt,
        "wb" => CacheOp::Wb,
        _ => return None,
    })
}

fn parse_atom_op(s: &str) -> Option<AtomOp> {
    Some(match s {
        "add" => AtomOp::Add,
        "exch" => AtomOp::Exch,
        "cas" => AtomOp::Cas,
        "min" => AtomOp::Min,
        "max" => AtomOp::Max,
        "and" => AtomOp::And,
        "or" => AtomOp::Or,
        "xor" => AtomOp::Xor,
        "inc" => AtomOp::Inc,
        "dec" => AtomOp::Dec,
        _ => return None,
    })
}

fn parse_cmp(s: &str) -> Option<CmpOp> {
    Some(match s {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        "lo" => CmpOp::Lo,
        "ls" => CmpOp::Ls,
        "hi" => CmpOp::Hi,
        "hs" => CmpOp::Hs,
        _ => return None,
    })
}

/// Post-parse semantic validation: labels unique, branch targets resolve,
/// `ld.param` symbols exist, shared-space symbols exist.
fn validate(m: &Module) -> Result<(), PtxError> {
    for k in &m.kernels {
        let mut labels = HashSet::new();
        for s in &k.stmts {
            if let Statement::Label(l) = s {
                if !labels.insert(l.clone()) {
                    return Err(PtxError::new(
                        0,
                        format!("duplicate label {l} in kernel {}", k.name),
                    ));
                }
            }
        }
        for instr in k.instructions() {
            match &instr.op {
                Op::Bra { target, .. } if !labels.contains(target) => {
                    return Err(PtxError::new(
                        0,
                        format!("branch to undefined label {target} in kernel {}", k.name),
                    ));
                }
                Op::Ld {
                    space: Space::Param,
                    addr,
                    ..
                } => {
                    if let AddrBase::Sym(sym) = &addr.base {
                        if k.param_info(sym).is_none() {
                            return Err(PtxError::new(
                                0,
                                format!("unknown parameter {sym} in kernel {}", k.name),
                            ));
                        }
                    }
                }
                Op::Ld {
                    space: Space::Shared,
                    addr,
                    ..
                }
                | Op::St {
                    space: Space::Shared,
                    addr,
                    ..
                } => {
                    if let AddrBase::Sym(sym) = &addr.base {
                        if k.shared_offset(sym).is_none() {
                            return Err(PtxError::new(
                                0,
                                format!("unknown shared variable {sym} in kernel {}", k.name),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = ".version 4.3\n.target sm_35\n.address_size 64\n";

    fn parse_kernel_body(body: &str) -> Result<Module, PtxError> {
        parse_module(&format!(
            "{HEADER}.visible .entry k(.param .u64 p0, .param .u32 p1)\n{{\n{body}\n}}"
        ))
    }

    #[test]
    fn module_header() {
        let m = parse_module(HEADER).unwrap();
        assert_eq!(m.version, (4, 3));
        assert_eq!(m.target, "sm_35");
        assert_eq!(m.address_size, 64);
        assert!(m.kernels.is_empty());
    }

    #[test]
    fn kernel_with_params() {
        let m = parse_kernel_body(".reg .b32 %r<4>;\nret;").unwrap();
        let k = &m.kernels[0];
        assert_eq!(k.name, "k");
        assert_eq!(k.params.len(), 2);
        assert_eq!(k.params[0].ty, Type::U64);
        assert_eq!(k.params[1].ty, Type::U32);
        assert_eq!(k.static_instruction_count(), 1);
    }

    #[test]
    fn reg_ranges_and_lists() {
        let m = parse_kernel_body(".reg .b32 %r<3>;\n.reg .pred %p, %q;\nret;").unwrap();
        let k = &m.kernels[0];
        assert!(k.regs.find("%r0").is_some());
        assert!(k.regs.find("%r2").is_some());
        assert!(k.regs.find("%r3").is_none());
        assert_eq!(
            k.regs.info(k.regs.find("%p").unwrap()).class,
            RegClass::Pred
        );
        assert_eq!(
            k.regs.info(k.regs.find("%q").unwrap()).class,
            RegClass::Pred
        );
    }

    #[test]
    fn shared_decl_layout_and_alignment() {
        let m = parse_kernel_body(
            ".shared .align 4 .b8 a[10];\n.shared .align 8 .u64 b;\n.shared .f32 c[4];\nret;",
        )
        .unwrap();
        let k = &m.kernels[0];
        assert_eq!(k.shared_offset("a"), Some(0));
        assert_eq!(k.shared_offset("b"), Some(16)); // 10 rounded up to 8-align
        assert_eq!(k.shared_offset("c"), Some(24));
        assert_eq!(k.shared_size(), 40);
    }

    #[test]
    fn register_declarations_past_the_cap_are_refused() {
        let at_cap = format!(".reg .b32 %r<{MAX_DECLARED_REGS}>;\nret;");
        let m = parse_kernel_body(&at_cap).unwrap();
        assert_eq!(m.kernels[0].regs.len(), MAX_DECLARED_REGS);
        for body in [
            ".reg .b32 %r<4000000000>;\nret;".to_string(),
            format!(".reg .b32 %r<{}>;\nret;", MAX_DECLARED_REGS + 1),
            format!("{at_cap}\n.reg .pred %p;"),
            format!(".reg .pred %p;\n{at_cap}"),
        ] {
            let e = parse_kernel_body(&body).unwrap_err();
            assert!(e.message().contains("65536 per module"), "{body}: {e}");
        }
        // The cap counts the whole module: two kernels of half the cap
        // parse, and a third kernel of one register is refused.
        let half = format!(".reg .b32 %r<{}>;\nret;", MAX_DECLARED_REGS / 2);
        let two = format!("{HEADER}.entry a{{\n{half}\n}}\n.entry b{{\n{half}\n}}\n");
        assert_eq!(parse_module(&two).unwrap().kernels.len(), 2);
        let three = format!("{two}.entry c{{\n.reg .pred %p;\nret;\n}}\n");
        let e = parse_module(&three).unwrap_err();
        assert!(e.message().contains("65536 per module"), "{e}");
        assert_eq!(e.line(), 13);
    }

    #[test]
    fn static_shared_past_the_cap_is_refused() {
        let m =
            parse_kernel_body(".shared .b8 a[49000];\n.shared .align 8 .u64 b[19];\nret;").unwrap();
        assert_eq!(m.kernels[0].shared_size(), MAX_STATIC_SHARED_BYTES);
        for body in [
            ".shared .b8 sm[4000000000];\nret;",
            ".shared .b8 sm[49153];\nret;",
            ".shared .b8 a[49152];\n.shared .b8 b;\nret;",
            ".shared .u64 sm[2305843009213693952];\nret;",
            ".shared .b8 a;\n.shared .align 65536 .b8 b;\nret;",
        ] {
            let e = parse_kernel_body(body).unwrap_err();
            assert!(
                e.message().contains("49152 bytes per kernel"),
                "{body}: {e}"
            );
        }
        assert!(parse_kernel_body(".shared .u32 sm[-1];\nret;").is_err());
    }

    #[test]
    fn loads_and_stores() {
        let m = parse_kernel_body(
            ".reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
             ld.param.u64 %rd1, [p0];\n\
             ld.global.cg.u32 %r1, [%rd1+8];\n\
             st.global.u32 [%rd1], %r1;\n\
             ld.volatile.shared.u32 %r2, [%rd1];\n\
             .shared .b8 sm[64];\n\
             st.shared.u32 [sm+4], %r2;\nret;",
        )
        .unwrap();
        let k = &m.kernels[0];
        let ops: Vec<&Op> = k.instructions().map(|i| &i.op).collect();
        match ops[1] {
            Op::Ld {
                space,
                cache,
                ty,
                addr,
                ..
            } => {
                assert_eq!(*space, Space::Global);
                assert_eq!(*cache, Some(CacheOp::Cg));
                assert_eq!(*ty, Type::U32);
                assert_eq!(addr.offset, 8);
            }
            other => panic!("expected ld, got {other:?}"),
        }
        match ops[3] {
            Op::Ld {
                volatile, space, ..
            } => {
                assert!(volatile);
                assert_eq!(*space, Space::Shared);
            }
            other => panic!("expected volatile ld, got {other:?}"),
        }
        match ops[4] {
            Op::St { addr, .. } => {
                assert_eq!(addr.base, AddrBase::Sym("sm".into()));
                assert_eq!(addr.offset, 4);
            }
            other => panic!("expected st, got {other:?}"),
        }
    }

    #[test]
    fn atomics() {
        let m = parse_kernel_body(
            ".reg .b32 %r<4>;\n.reg .b64 %rd<2>;\n\
             atom.global.add.u32 %r1, [%rd1], 1;\n\
             atom.global.cas.b32 %r2, [%rd1], 0, 1;\n\
             atom.shared.exch.b32 %r3, [%rd1], 0;\n\
             red.global.add.u32 [%rd1], %r1;\nret;",
        )
        .unwrap();
        let ops: Vec<&Op> = m.kernels[0].instructions().map(|i| &i.op).collect();
        match ops[0] {
            Op::Atom { op, b, .. } => {
                assert_eq!(*op, AtomOp::Add);
                assert!(b.is_none());
            }
            other => panic!("{other:?}"),
        }
        match ops[1] {
            Op::Atom { op, b, .. } => {
                assert_eq!(*op, AtomOp::Cas);
                assert_eq!(*b, Some(Operand::Imm(1)));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            ops[3],
            Op::Red {
                op: AtomOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn fences_barriers_branches() {
        let m = parse_kernel_body(
            ".reg .pred %p<2>;\n.reg .b32 %r<2>;\n\
             membar.cta;\nmembar.gl;\nmembar.sys;\nbar.sync 0;\n\
             setp.eq.s32 %p1, %r1, 0;\n\
             @%p1 bra L1;\n\
             @!%p1 bra L1;\n\
             bra.uni L1;\nL1:\nret;",
        )
        .unwrap();
        let k = &m.kernels[0];
        let instrs: Vec<&Instruction> = k.instructions().collect();
        assert!(matches!(
            instrs[0].op,
            Op::Membar {
                level: FenceLevel::Cta
            }
        ));
        assert!(matches!(
            instrs[1].op,
            Op::Membar {
                level: FenceLevel::Gl
            }
        ));
        assert!(matches!(instrs[3].op, Op::Bar { idx: 0 }));
        assert!(instrs[5].guard.is_some());
        assert!(!instrs[5].guard.unwrap().negated);
        assert!(instrs[6].guard.unwrap().negated);
        assert!(matches!(&instrs[7].op, Op::Bra { uni: true, .. }));
    }

    #[test]
    fn specials_and_alu() {
        let m = parse_kernel_body(
            ".reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
             mov.u32 %r1, %tid.x;\n\
             mov.u32 %r2, %ctaid.y;\n\
             mov.u32 %r3, %ntid.x;\n\
             mov.u32 %r4, %laneid;\n\
             mov.u32 %r5, WARP_SZ;\n\
             mad.lo.s32 %r6, %r2, %r3, %r1;\n\
             mul.wide.s32 %rd1, %r6, 4;\n\
             cvt.u64.u32 %rd2, %r6;\n\
             selp.b32 %r7, 1, 0, %p;\n.reg .pred %p;\nret;",
        );
        // %p used before declared — our parser requires declaration first.
        assert!(m.is_err());
        let m = parse_kernel_body(
            ".reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n.reg .pred %p;\n\
             mov.u32 %r1, %tid.x;\n\
             mad.lo.s32 %r6, %r1, %r1, %r1;\n\
             mul.wide.s32 %rd1, %r6, 4;\n\
             selp.b32 %r7, 1, 0, %p;\nret;",
        )
        .unwrap();
        let ops: Vec<&Op> = m.kernels[0].instructions().map(|i| &i.op).collect();
        assert!(matches!(
            ops[0],
            Op::Mov {
                src: Operand::Special(SpecialReg::Tid(Dim::X)),
                ..
            }
        ));
        assert!(matches!(
            ops[2],
            Op::Mul {
                mode: MulMode::Wide,
                ..
            }
        ));
    }

    #[test]
    fn call_with_args() {
        let m = parse_kernel_body(
            ".reg .b64 %rd<2>;\ncall.uni __barracuda_log_ld, (%rd1, 4);\ncall.uni __noargs;\nret;",
        )
        .unwrap();
        let ops: Vec<&Op> = m.kernels[0].instructions().map(|i| &i.op).collect();
        match ops[0] {
            Op::Call { target, args } => {
                assert_eq!(target, "__barracuda_log_ld");
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(ops[1], Op::Call { args, .. } if args.is_empty()));
    }

    #[test]
    fn undeclared_register_rejected() {
        assert!(parse_kernel_body("mov.u32 %r1, 0;\nret;").is_err());
    }

    #[test]
    fn undefined_branch_target_rejected() {
        assert!(parse_kernel_body("bra.uni NOPE;\nret;").is_err());
    }

    #[test]
    fn duplicate_label_rejected() {
        assert!(parse_kernel_body("L:\nL:\nret;").is_err());
    }

    #[test]
    fn unknown_param_rejected() {
        assert!(parse_kernel_body(".reg .b64 %rd<2>;\nld.param.u64 %rd1, [nope];\nret;").is_err());
    }

    #[test]
    fn guard_on_non_predicate_rejected() {
        assert!(parse_kernel_body(".reg .b32 %r<2>;\n@%r1 bra L;\nL:\nret;").is_err());
    }

    #[test]
    fn mov_shared_symbol_address() {
        let m =
            parse_kernel_body(".shared .b8 sm[64];\n.reg .b64 %rd<2>;\nmov.u64 %rd1, sm;\nret;")
                .unwrap();
        let ops: Vec<&Op> = m.kernels[0].instructions().map(|i| &i.op).collect();
        assert!(matches!(ops[0], Op::Mov { src: Operand::Sym(s), .. } if s == "sm"));
    }

    #[test]
    fn negative_offset_address() {
        let m = parse_kernel_body(
            ".reg .b32 %r<2>;\n.reg .b64 %rd<2>;\nld.global.u32 %r1, [%rd1+-4];\nret;",
        )
        .unwrap();
        let instr = m.kernels[0].instructions().next().unwrap().clone();
        match &instr.op {
            Op::Ld { addr, .. } => assert_eq!(addr.offset, -4),
            other => panic!("{other:?}"),
        }
    }
}
