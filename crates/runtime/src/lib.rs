//! BARRACUDA: binary-level dynamic race detection for CUDA (PTX) programs.
//!
//! This facade crate wires the full pipeline of the paper together
//! (Fig. 5): PTX is parsed and **instrumented** (`barracuda-instrument`),
//! executed on the **SIMT simulator** (`barracuda-simt`) whose device-side
//! logger streams fixed-size records through lock-free **queues**
//! (`barracuda-trace`) to host-side **detector** workers
//! (`barracuda-core`).
//!
//! The paper injects itself into real CUDA processes via `LD_PRELOAD` and
//! reloads instrumented PTX through the driver; here the same
//! parse → analyze → rewrite → reload pipeline runs against the simulator
//! (see `DESIGN.md` for the substitution table).
//!
//! # Quick start
//!
//! ```
//! use barracuda::{Engine, KernelRun};
//! use barracuda_simt::ParamValue;
//! use barracuda_trace::GridDims;
//!
//! # fn main() -> Result<(), barracuda::Error> {
//! // Two blocks increment the same global counter without atomics.
//! let ptx = r#"
//!     .version 4.3
//!     .target sm_35
//!     .address_size 64
//!     .visible .entry racy(.param .u64 ctr)
//!     {
//!         .reg .b32 %r<4>;
//!         .reg .b64 %rd<4>;
//!         ld.param.u64 %rd1, [ctr];
//!         ld.global.u32 %r1, [%rd1];
//!         add.s32 %r1, %r1, 1;
//!         st.global.u32 [%rd1], %r1;
//!         ret;
//!     }
//! "#;
//! let mut engine = Engine::new();
//! let ctr = engine.gpu_mut().malloc(4);
//! let analysis = engine.check(&KernelRun {
//!     source: ptx,
//!     kernel: "racy",
//!     dims: GridDims::new(2u32, 1u32),
//!     params: &[ParamValue::Ptr(ctr)],
//! })?;
//! assert!(analysis.race_count() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod analysis;
mod cache;
mod config;
mod device;
mod engine;
pub mod exitcode;
mod sink;
pub mod statsjson;

pub use analysis::{Analysis, AnalysisStats, PipelineStats, StreamTelemetry, WorkerTelemetry};
pub use cache::ModuleCache;
pub use config::{BarracudaConfig, DetectionMode};
pub use device::StreamId;
pub use engine::{Engine, KernelRun, LaunchSummary, RaceStream};
pub use sink::panic_message;
pub use statsjson::ReproInfo;

pub use barracuda_core::{Diagnostic, EngineFootprint, RaceClass, RaceReport};
pub use barracuda_instrument::{InstrumentOptions, InstrumentStats};
pub use barracuda_simt::{DevicePtr, GpuConfig, MemoryModel, ParamValue, SchedPolicy, SimError};
pub use barracuda_trace::{CancelToken, ConsumerStall, FaultPlan, GridDims, HostOp, WorkerPanic};

use std::fmt;

/// Top-level error: PTX parsing or simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// PTX lexing/parsing/validation failure.
    Ptx(barracuda_ptx::PtxError),
    /// Simulator fault (barrier divergence, invalid access, timeout, …).
    Sim(SimError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Ptx(e) => write!(f, "{e}"),
            Error::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Ptx(e) => Some(e),
            Error::Sim(e) => Some(e),
        }
    }
}

impl From<barracuda_ptx::PtxError> for Error {
    fn from(e: barracuda_ptx::PtxError) -> Self {
        Error::Ptx(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}
