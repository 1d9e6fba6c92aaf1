//! Kernel loading: flattening, CFG construction, reconvergence-point
//! precomputation and micro-op decoding (the "JIT" step of the paper's
//! pipeline). Only the decoded IR outlives the load.

use std::sync::Arc;

use barracuda_ptx::ast::{Kernel, Module, Op, Type};
use barracuda_ptx::cfg::{Cfg, FlatKernel};

use crate::config::SimError;
use crate::decode::DecodedKernel;
use crate::machine::ParamValue;

/// A kernel prepared for execution: the source kernel and the decoded
/// micro-op IR the interpreter dispatches on.
///
/// Both components are behind [`Arc`]s, so cloning a `LoadedKernel` (e.g.
/// to hand one to each thread of a threaded session) is two reference
/// count bumps — the kernel AST is shared, never re-cloned per launch.
/// The flat instruction list and the CFG the decoder is built from are
/// dropped once decoding is done.
#[derive(Debug, Clone)]
pub struct LoadedKernel {
    /// The source kernel.
    pub kernel: Arc<Kernel>,
    /// Pre-decoded micro-op IR (see [`crate::decode`]).
    pub(crate) decoded: Arc<DecodedKernel>,
}

/// Per-instruction reconvergence entries of a flattened kernel: `None`
/// when the instruction is not a conditional branch; `Some(None)` for a
/// conditional branch whose paths only rejoin at kernel exit;
/// `Some(Some(r))` for reconvergence at instruction index `r`.
pub(crate) type ReconTable = Vec<Option<Option<usize>>>;

/// Builds the CFG of `flat` and returns the reconvergence entry of every
/// instruction (see [`ReconTable`]). The CFG itself is not kept.
///
/// # Errors
///
/// Returns [`SimError::UnknownLabel`] if a branch targets a label the
/// kernel does not define.
pub(crate) fn reconvergence_table(flat: &FlatKernel) -> Result<ReconTable, SimError> {
    let cfg = Cfg::try_build(flat).map_err(SimError::UnknownLabel)?;
    let mut recon = vec![None; flat.instrs.len()];
    for (b, block) in cfg.blocks.iter().enumerate() {
        if block.end == 0 {
            continue;
        }
        let last = block.end - 1;
        if let Op::Bra { .. } = flat.instrs[last].op {
            if flat.instrs[last].guard.is_some() {
                recon[last] = Some(cfg.reconvergence_point(b));
            }
        }
    }
    Ok(recon)
}

impl LoadedKernel {
    /// Loads one kernel from a module. The kernel AST is cloned out of the
    /// module exactly once, into a shared [`Arc`]; everything downstream
    /// (clones of the `LoadedKernel`, per-launch contexts) shares it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownKernel`] if `name` is not an entry in the
    /// module, or a load-time validation error ([`SimError::UnknownLabel`],
    /// [`SimError::UnknownSymbol`], [`SimError::BadInstruction`]) if the
    /// kernel references labels, symbols or call targets that do not exist.
    pub fn load(module: &Module, name: &str) -> Result<Self, SimError> {
        let kernel = module
            .kernel(name)
            .ok_or_else(|| SimError::UnknownKernel(name.to_string()))?
            .clone();
        Self::from_kernel(kernel)
    }

    /// Prepares an already-extracted kernel (no AST clone).
    ///
    /// # Errors
    ///
    /// Same load-time validation errors as [`LoadedKernel::load`].
    pub fn from_kernel(kernel: Kernel) -> Result<Self, SimError> {
        let kernel = Arc::new(kernel);
        let flat = FlatKernel::from_kernel(&kernel);
        let recon = reconvergence_table(&flat)?;
        let decoded = DecodedKernel::decode(&kernel, &flat, &recon)?;
        Ok(LoadedKernel {
            kernel,
            decoded: Arc::new(decoded),
        })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.decoded.instrs.len()
    }

    /// True for an empty kernel body.
    pub fn is_empty(&self) -> bool {
        self.decoded.instrs.is_empty()
    }

    /// Builds the parameter block bytes for a launch: each parameter
    /// occupies one little-endian 8-byte slot.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParamCount`] when the argument count does not
    /// match the kernel signature.
    pub fn build_param_block(&self, params: &[ParamValue]) -> Result<Vec<u8>, SimError> {
        if params.len() != self.kernel.params.len() {
            return Err(SimError::ParamCount {
                expected: self.kernel.params.len(),
                got: params.len(),
            });
        }
        let mut block = Vec::with_capacity(params.len() * 8);
        for p in params {
            block.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        Ok(block)
    }

    /// Reads a parameter value by symbol name from a parameter block.
    pub fn read_param(&self, block: &[u8], sym: &str) -> Option<(u64, Type)> {
        let (off, ty) = self.kernel.param_info(sym)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&block[off as usize..off as usize + 8]);
        let raw = u64::from_le_bytes(buf);
        Some((crate::value::trunc(ty, raw), ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ParamValue;

    fn module() -> Module {
        barracuda_ptx::parse(
            r#"
            .version 4.3
            .target sm_35
            .address_size 64
            .visible .entry k(.param .u64 buf, .param .u32 n)
            {
                .reg .pred %p;
                .reg .b32 %r<4>;
                mov.u32 %r1, %tid.x;
                setp.eq.s32 %p, %r1, 0;
                @%p bra L_end;
                mov.u32 %r2, 1;
            L_end:
                ret;
            }
            "#,
        )
        .unwrap()
    }

    fn bad_module(body: &str) -> Module {
        barracuda_ptx::parse(&format!(
            ".version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k()\n{{\n\
             .reg .pred %p;\n.reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n{body}\n}}"
        ))
        .unwrap()
    }

    #[test]
    fn load_finds_kernel() {
        let m = module();
        let lk = LoadedKernel::load(&m, "k").unwrap();
        assert_eq!(lk.len(), 5);
        assert!(LoadedKernel::load(&m, "nope").is_err());
    }

    #[test]
    fn clone_shares_the_ast() {
        let m = module();
        let lk = LoadedKernel::load(&m, "k").unwrap();
        let lk2 = lk.clone();
        assert!(Arc::ptr_eq(&lk.kernel, &lk2.kernel));
        assert!(Arc::ptr_eq(&lk.decoded, &lk2.decoded));
    }

    #[test]
    fn reconvergence_for_conditional_branch() {
        let m = module();
        let recon = reconvergence_table(&FlatKernel::from_kernel(&m.kernels[0])).unwrap();
        assert_eq!(recon.len(), 5);
        // Instruction 2 is the conditional branch; reconvergence at the
        // `ret` (instruction 4).
        assert_eq!(recon[2], Some(Some(4)));
        assert_eq!(recon[0], None);
    }

    #[test]
    fn param_block_layout() {
        let m = module();
        let lk = LoadedKernel::load(&m, "k").unwrap();
        let block = lk
            .build_param_block(&[ParamValue::U64(0xdead_beef), ParamValue::U32(42)])
            .unwrap();
        assert_eq!(block.len(), 16);
        assert_eq!(lk.read_param(&block, "buf"), Some((0xdead_beef, Type::U64)));
        assert_eq!(lk.read_param(&block, "n"), Some((42, Type::U32)));
        assert_eq!(lk.read_param(&block, "zzz"), None);
        assert!(lk.build_param_block(&[]).is_err());
    }

    // The parser validates labels and memory symbols itself, so malformed
    // references are injected into the parsed AST directly: load must
    // catch them too (defense in depth for programmatically-built kernels).

    fn inject(op: barracuda_ptx::ast::Op) -> Module {
        use barracuda_ptx::ast::{Instruction, Statement};
        let mut m = bad_module("ret;");
        m.kernels[0]
            .stmts
            .insert(0, Statement::Instr(Instruction::new(op)));
        m
    }

    #[test]
    fn unknown_branch_label_fails_at_load() {
        use barracuda_ptx::ast::Op;
        let m = inject(Op::Bra {
            uni: true,
            target: "L_missing".into(),
        });
        let err = LoadedKernel::load(&m, "k").unwrap_err();
        assert!(
            matches!(err, SimError::UnknownLabel(ref l) if l == "L_missing"),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_shared_symbol_fails_at_load() {
        use barracuda_ptx::ast::{AddrBase, Address, Op, Reg, Space};
        let m = inject(Op::Ld {
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
        let err = LoadedKernel::load(&m, "k").unwrap_err();
        assert!(
            matches!(err, SimError::UnknownSymbol(ref s) if s == "no_such_sym"),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_param_symbol_fails_at_load() {
        use barracuda_ptx::ast::{AddrBase, Address, Op, Reg, Space};
        let m = inject(Op::Ld {
            space: Space::Param,
            cache: None,
            volatile: false,
            ty: Type::U64,
            dst: Reg(1),
            addr: Address {
                base: AddrBase::Sym("no_such_param".into()),
                offset: 0,
            },
        });
        let err = LoadedKernel::load(&m, "k").unwrap_err();
        assert!(
            matches!(err, SimError::UnknownSymbol(ref s) if s == "no_such_param"),
            "{err:?}"
        );
    }

    #[test]
    fn undefined_call_target_fails_at_load() {
        let m = bad_module("call.uni mystery_fn;\nret;");
        let err = LoadedKernel::load(&m, "k").unwrap_err();
        assert!(
            matches!(err, SimError::BadInstruction { index: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn malformed_log_access_fails_at_load() {
        // Too few arguments for the hook — rejected even though the seed
        // interpreter would only have faulted when a sink was attached.
        let m = bad_module("call.uni __barracuda_log_access, (0, 1);\nret;");
        let err = LoadedKernel::load(&m, "k").unwrap_err();
        assert!(matches!(err, SimError::BadInstruction { .. }), "{err:?}");
    }

    #[test]
    fn unreachable_bad_code_still_fails_at_load() {
        // Validation covers the whole body, not just executed paths.
        let m = bad_module("bra.uni L_end;\ncall.uni undefined_helper;\nL_end:\nret;");
        assert!(LoadedKernel::load(&m, "k").is_err());
    }
}
