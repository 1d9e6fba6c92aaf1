//! A SIMT GPU simulator that executes PTX.
//!
//! This crate is the hardware substrate the BARRACUDA reproduction runs on
//! (the paper uses real NVIDIA GPUs; see `DESIGN.md` for the substitution
//! argument). It models exactly the machine the paper's analysis reasons
//! about:
//!
//! * **lockstep warp execution** — every instruction is executed by a whole
//!   warp at a time; per-lane effects happen "concurrently" within the
//!   instruction (paper §3.1);
//! * **branch divergence** via a SIMT reconvergence stack using
//!   immediate-post-dominator reconvergence (paper reference \[24\]);
//! * **block-wide barriers** (`bar.sync`) with barrier-divergence
//!   detection;
//! * **atomics and scoped memory fences** over a configurable weak memory
//!   model for global memory, with presets reproducing the paper's litmus
//!   observations (Fig. 4): per-block store buffers that drain out of
//!   order on the Kepler preset, in order on the Maxwell preset, and
//!   synchronously under `membar.gl`;
//! * **device-side event logging** — instrumented PTX contains
//!   `call.uni __barracuda_log_access` call-sites; the simulator implements
//!   the logging runtime (record construction, same-value intra-warp write
//!   filtering, queue push) natively;
//! * **decode-once execution** — at load time kernels are lowered to a
//!   dense micro-op IR with branch targets, symbols and parameter offsets
//!   resolved, so the interpreter hot loop performs no allocation and no
//!   string lookups. This is the only interpreter the product runs. The
//!   original AST-walking interpreter survives as the test oracle the
//!   decoded path is differentially tested against; it compiles only for
//!   this crate's tests and under the `ast-oracle` feature, which only
//!   `[dev-dependencies]` entries enable (see `ast_oracle`).
//!
//! # Example
//!
//! ```
//! use barracuda_simt::{Gpu, GpuConfig, ParamValue};
//! use barracuda_trace::GridDims;
//!
//! # fn main() -> Result<(), barracuda_simt::SimError> {
//! let module = barracuda_ptx::parse(r#"
//!     .version 4.3
//!     .target sm_35
//!     .address_size 64
//!     .visible .entry fill(.param .u64 out)
//!     {
//!         .reg .b32 %r<8>;
//!         .reg .b64 %rd<4>;
//!         mov.u32 %r1, %tid.x;
//!         ld.param.u64 %rd1, [out];
//!         mul.wide.u32 %rd2, %r1, 4;
//!         add.s64 %rd3, %rd1, %rd2;
//!         st.global.u32 [%rd3], %r1;
//!         ret;
//!     }
//! "#).unwrap();
//! let mut gpu = Gpu::new(GpuConfig::default());
//! let out = gpu.malloc(16 * 4);
//! gpu.launch(&module, "fill", GridDims::new(1u32, 16u32), &[ParamValue::Ptr(out)])?;
//! let vals = gpu.read_u32s(out, 16);
//! assert_eq!(vals[7], 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod coresident;
mod decode;
mod exec;
#[cfg(any(test, feature = "ast-oracle"))]
mod exec_ast;
pub mod kernel;
pub mod litmus;
mod locals;
pub mod machine;
pub mod mem;
pub mod sink;
pub mod value;
pub mod warp;

pub use config::{GpuConfig, MemoryModel, SimError};
pub use coresident::{GroupLaunch, GroupOutcome, SchedPolicy, MAX_GROUP_SLOTS, MAX_RESIDENT_BYTES};
pub use kernel::LoadedKernel;
pub use machine::{ArgSpec, DevicePtr, Gpu, LaunchStats, ParamValue};
pub use sink::{EventSink, VecSink};

/// The AST-walking reference interpreter, as a test oracle for the decoded
/// one: [`ast_oracle::launch_with_sink`] runs a kernel under the same
/// scheduler as [`Gpu::launch_with_sink`]. Test-only: compiled for this
/// crate's tests and under the `ast-oracle` feature, which only
/// `[dev-dependencies]` entries may enable.
#[cfg(any(test, feature = "ast-oracle"))]
pub mod ast_oracle {
    pub use crate::exec_ast::launch_with_sink;
}

/// First valid global-memory address handed out by [`Gpu::malloc`].
/// Addresses below this value in the *generic* space resolve to shared
/// memory (offsets within the accessing block's shared segment).
pub const GLOBAL_BASE: u64 = 0x1000_0000;
