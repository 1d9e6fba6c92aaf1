//! Simulator configuration and errors.

use std::fmt;
use std::str::FromStr;

/// Weak-memory behaviour of global memory, calibrated against the paper's
/// litmus observations (§3.3.3, Fig. 4).
///
/// Stores to global memory enter a per-thread-block store buffer and
/// become visible to other blocks only when *committed*. `membar.gl` (and
/// `membar.sys`) synchronously commits **every** block's pending stores —
/// this models the observation that a global fence in *either*
/// message-passing thread restores sequential consistency. `membar.cta`
/// never commits across blocks (it only orders within the block, which the
/// buffer's load-forwarding already guarantees). The presets differ in how
/// the background drain picks stores to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryModel {
    /// Stores commit immediately; fully sequentially consistent. The
    /// default for benchmark runs (fast, deterministic memory).
    SequentiallyConsistent,
    /// GRID K520 (Kepler) preset: the background drain commits pending
    /// stores in *random order*, so two stores separated only by
    /// `membar.cta` can become visible to another block out of order —
    /// the non-SC message-passing outcome of Fig. 4 row 1.
    KeplerK520,
    /// GTX Titan X (Maxwell) preset: the background drain commits in FIFO
    /// order; no weak outcome is observable (Fig. 4, Titan X column).
    MaxwellTitanX,
}

impl MemoryModel {
    /// True if stores are buffered (anything but SC).
    pub fn buffered(self) -> bool {
        !matches!(self, MemoryModel::SequentiallyConsistent)
    }
}

/// The one spelling of each preset, shared by `--memory-model`, fleet
/// target ids and the `--stats-json` repro block: `sc`, `kepler`,
/// `maxwell`.
impl fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemoryModel::SequentiallyConsistent => "sc",
            MemoryModel::KeplerK520 => "kepler",
            MemoryModel::MaxwellTitanX => "maxwell",
        })
    }
}

impl FromStr for MemoryModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sc" => Ok(MemoryModel::SequentiallyConsistent),
            "kepler" => Ok(MemoryModel::KeplerK520),
            "maxwell" => Ok(MemoryModel::MaxwellTitanX),
            other => Err(format!(
                "unknown memory model '{other}' (want sc, kepler or maxwell)"
            )),
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Memory model preset for global memory.
    pub memory_model: MemoryModel,
    /// Number of streaming multiprocessors; only used to size the queue
    /// set (~1.25 queues per SM, paper §4.2). The Titan X of the paper has
    /// 24 SMs.
    pub num_sms: u32,
    /// RNG seed for the warp scheduler and the weak-memory drain.
    pub seed: u64,
    /// Scheduler slice: how many instructions a warp runs before the
    /// scheduler may switch warps. 1 = maximally interleaved ("thread
    /// randomization" for litmus runs); larger is faster.
    pub slice: u32,
    /// Probability (0..=1) that one background drain step commits a
    /// pending store, evaluated once per scheduler step. Models the
    /// "memory stress" knob used to provoke weak behaviour (§3.3.3).
    pub drain_probability: f64,
    /// Abort execution after this many warp-instructions (deadlock /
    /// livelock guard). `u64::MAX` disables.
    pub max_steps: u64,
    /// When `true`, the interpreter itself logs every global/shared memory
    /// access as a plain read/write/atomic event (no acquire/release
    /// inference). Used by detector tests that bypass the instrumentation
    /// framework; instrumented PTX should run with this off.
    pub native_access_logging: bool,
    /// Apply BARRACUDA's same-value intra-warp write filter in the
    /// device-side logger (§3.3.1). Comparator tools without the filter
    /// (CUDA-Racecheck) run with this off.
    pub filter_same_value: bool,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            memory_model: MemoryModel::SequentiallyConsistent,
            num_sms: 24,
            seed: 0x0be5_11e5,
            slice: 64,
            drain_probability: 0.25,
            max_steps: 500_000_000,
            native_access_logging: false,
            filter_same_value: true,
        }
    }
}

impl GpuConfig {
    /// Configuration for litmus testing: maximal interleaving and the
    /// given memory model.
    pub fn litmus(model: MemoryModel, seed: u64) -> Self {
        GpuConfig {
            memory_model: model,
            slice: 1,
            seed,
            drain_probability: 0.35,
            ..Self::default()
        }
    }
}

/// Execution error raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // payload names are self-describing
pub enum SimError {
    /// The named kernel does not exist in the module.
    UnknownKernel(String),
    /// Mismatched parameter count at launch.
    ParamCount { expected: usize, got: usize },
    /// `bar.sync` executed while some threads of the block had exited or
    /// were inactive — "the code execution is likely to hang or produce
    /// unintended side effects" (paper §3.3.2).
    BarrierDivergence { block: u64 },
    /// Execution exceeded [`GpuConfig::max_steps`].
    Timeout { steps: u64 },
    /// Execution was cancelled cooperatively (deadline watchdog or
    /// shutdown) via [`Gpu::set_cancel_token`](crate::Gpu::set_cancel_token).
    Cancelled { steps: u64 },
    /// Access to an unallocated global address.
    InvalidAccess { addr: u64 },
    /// Access beyond the block's shared segment.
    SharedOutOfBounds { offset: u64, size: u64 },
    /// A branch targets a label the kernel does not define. Raised at
    /// kernel load time by the decoder's validation pass.
    UnknownLabel(String),
    /// An instruction references a `.shared` or `.param` symbol the kernel
    /// does not declare. Raised at kernel load time.
    UnknownSymbol(String),
    /// An instruction is structurally invalid (unknown call target,
    /// malformed instrumentation hook, …). Raised at kernel load time with
    /// the flat instruction index.
    BadInstruction { index: usize, reason: String },
    /// The group's register files and `.shared` segments would need
    /// `bytes`, over [`MAX_RESIDENT_BYTES`](crate::MAX_RESIDENT_BYTES).
    /// Raised before anything is allocated.
    ResidentTooLarge { bytes: u64, cap: u64 },
    /// Runtime fault (bad generic address, param-space store, …).
    Fault(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownKernel(k) => write!(f, "unknown kernel '{k}'"),
            SimError::ParamCount { expected, got } => {
                write!(f, "kernel expects {expected} params, got {got}")
            }
            SimError::BarrierDivergence { block } => {
                write!(
                    f,
                    "barrier divergence in block {block}: bar.sync with inactive or exited threads"
                )
            }
            SimError::Timeout { steps } => write!(f, "execution exceeded {steps} steps"),
            SimError::Cancelled { steps } => {
                write!(f, "execution cancelled after {steps} steps")
            }
            SimError::InvalidAccess { addr } => {
                write!(f, "invalid global memory access at {addr:#x}")
            }
            SimError::SharedOutOfBounds { offset, size } => {
                write!(
                    f,
                    "shared memory access at offset {offset} beyond segment of {size} bytes"
                )
            }
            SimError::UnknownLabel(l) => write!(f, "branch to unknown label '{l}'"),
            SimError::UnknownSymbol(s) => write!(f, "reference to unknown symbol '{s}'"),
            SimError::BadInstruction { index, reason } => {
                write!(f, "invalid instruction at index {index}: {reason}")
            }
            SimError::ResidentTooLarge { bytes, cap } => write!(
                f,
                "launch needs {bytes} bytes of registers and shared memory, over the {cap}-byte cap"
            ),
            SimError::Fault(m) => write!(f, "fault: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequentially_consistent() {
        let c = GpuConfig::default();
        assert_eq!(c.memory_model, MemoryModel::SequentiallyConsistent);
        assert!(!c.memory_model.buffered());
        assert!(MemoryModel::KeplerK520.buffered());
        assert!(MemoryModel::MaxwellTitanX.buffered());
    }

    #[test]
    fn memory_model_names_round_trip() {
        for model in [
            MemoryModel::SequentiallyConsistent,
            MemoryModel::KeplerK520,
            MemoryModel::MaxwellTitanX,
        ] {
            assert_eq!(model.to_string().parse::<MemoryModel>(), Ok(model));
        }
        assert_eq!(MemoryModel::KeplerK520.to_string(), "kepler");
        let err = "tso".parse::<MemoryModel>().unwrap_err();
        assert!(err.contains("'tso'"), "{err}");
    }

    #[test]
    fn litmus_config_interleaves_maximally() {
        let c = GpuConfig::litmus(MemoryModel::KeplerK520, 7);
        assert_eq!(c.slice, 1);
        assert_eq!(c.seed, 7);
        assert_eq!(c.memory_model, MemoryModel::KeplerK520);
    }

    #[test]
    fn errors_display() {
        assert!(SimError::BarrierDivergence { block: 3 }
            .to_string()
            .contains("block 3"));
        assert!(SimError::InvalidAccess { addr: 0x10 }
            .to_string()
            .contains("0x10"));
        assert!(SimError::UnknownLabel("L_x".into())
            .to_string()
            .contains("L_x"));
        assert!(SimError::UnknownSymbol("smem".into())
            .to_string()
            .contains("smem"));
        assert!(SimError::BadInstruction {
            index: 4,
            reason: "nope".into()
        }
        .to_string()
        .contains("index 4"));
    }
}
