//! The CUDA concurrency bug suite (paper §6.1).
//!
//! 66 small PTX programs exhibiting subtle data races or race-free
//! behaviour via global memory, shared memory, within and across warps
//! and blocks, using atomics and memory fences to implement locks,
//! whole-grid barriers and flag synchronization — plus barrier-divergence
//! and branch-ordering cases.
//!
//! Each [`SuiteProgram`] carries its expected verdict; [`run_program`]
//! checks it under BARRACUDA and [`Verdict::matches`] compares. The
//! paper reports BARRACUDA correct on all 66 programs while NVIDIA's
//! CUDA-Racecheck is correct on only 19; the `barracuda-racecheck` crate
//! models the comparator.

#![warn(missing_docs)]

mod atomics;
mod barriers;
mod branch;
mod global;
mod locks;
mod misc;
mod multi;
mod shared;

pub use multi::{
    multi_program, multi_programs, run_multi_races_with, MultiArg, MultiKernel, MultiProgram,
    MultiStep,
};

use barracuda::{Analysis, BarracudaConfig, Engine, Error, KernelRun, SimError};
pub use barracuda_simt::ArgSpec;
use barracuda_trace::GridDims;

/// Every suite kernel uses this entry name.
pub const KERNEL: &str = "k";

/// Expected verdict of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// At least one data race must be reported.
    Race,
    /// No race and no diagnostic.
    NoRace,
    /// A barrier-divergence bug must be reported.
    BarrierDivergence,
}

/// One suite program.
#[derive(Debug, Clone)]
pub struct SuiteProgram {
    /// Unique program name.
    pub name: &'static str,
    /// What the program exhibits.
    pub description: &'static str,
    /// Full PTX module source with entry [`KERNEL`].
    pub source: String,
    /// Launch dimensions.
    pub dims: GridDims,
    /// Kernel arguments to allocate.
    pub args: Vec<ArgSpec>,
    /// Ground-truth verdict.
    pub expected: Expectation,
}

/// Observed verdict of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variants are self-describing
pub enum Verdict {
    Race,
    NoRace,
    BarrierDivergence,
    /// Simulator fault other than barrier divergence (always a bug in the
    /// suite or simulator).
    Error(String),
}

impl Verdict {
    /// The verdict of one checked run. Degradation diagnostics
    /// ([`barracuda::Diagnostic::WorkerPanic`],
    /// [`barracuda::Diagnostic::LostRecords`]) do not affect it; only
    /// barrier divergence does.
    pub fn of(checked: &Result<Analysis, Error>) -> Verdict {
        match checked {
            Ok(analysis) => {
                let diverged = analysis
                    .diagnostics()
                    .iter()
                    .any(|d| matches!(d, barracuda::Diagnostic::BarrierDivergence { .. }));
                if diverged {
                    Verdict::BarrierDivergence
                } else if analysis.race_count() > 0 {
                    Verdict::Race
                } else {
                    Verdict::NoRace
                }
            }
            Err(Error::Sim(SimError::BarrierDivergence { .. })) => Verdict::BarrierDivergence,
            Err(e) => Verdict::Error(e.to_string()),
        }
    }

    /// True when this verdict is the one `e` expects (an `Error` never
    /// is).
    pub fn matches(&self, e: Expectation) -> bool {
        matches!(
            (self, e),
            (Verdict::Race, Expectation::Race)
                | (Verdict::NoRace, Expectation::NoRace)
                | (Verdict::BarrierDivergence, Expectation::BarrierDivergence)
        )
    }
}

/// The standard module header for suite kernels.
pub(crate) fn module_src(params: &str, body: &str) -> String {
    let plist = if params.is_empty() {
        String::new()
    } else {
        params.to_string()
    };
    format!(
        ".version 4.3\n.target sm_35\n.address_size 64\n\
         .visible .entry k({plist})\n{{\n\
         .reg .pred %p<8>;\n.reg .b32 %r<32>;\n.reg .b64 %rd<32>;\n\
         {body}\n}}"
    )
}

/// Common snippet: linear thread id in `%r27` (tid.x in `%r30`, ctaid.x in
/// `%r29`, ntid.x in `%r28`).
pub(crate) const LIN_TID: &str = "mov.u32 %r30, %tid.x;\n\
     mov.u32 %r29, %ctaid.x;\n\
     mov.u32 %r28, %ntid.x;\n\
     mad.lo.s32 %r27, %r29, %r28, %r30;\n";

/// All 66 programs.
pub fn all_programs() -> Vec<SuiteProgram> {
    let mut v = Vec::with_capacity(66);
    v.extend(global::programs());
    v.extend(shared::programs());
    v.extend(branch::programs());
    v.extend(barriers::programs());
    v.extend(locks::programs());
    v.extend(atomics::programs());
    v.extend(misc::programs());
    v
}

/// Looks up a program by name.
pub fn program(name: &str) -> Option<SuiteProgram> {
    all_programs().into_iter().find(|p| p.name == name)
}

/// Runs one program under BARRACUDA with the default configuration and
/// returns the observed verdict.
pub fn run_program(p: &SuiteProgram) -> Verdict {
    run_program_with(p, BarracudaConfig::default())
}

/// Runs one program under BARRACUDA with an explicit configuration
/// (detection mode, queue sizing, fault plan, …) and returns the observed
/// verdict (see [`Verdict::of`]).
pub fn run_program_with(p: &SuiteProgram, config: BarracudaConfig) -> Verdict {
    Verdict::of(&check_program(p, config))
}

/// Checks one program on a fresh engine with an explicit configuration
/// and returns the full analysis (stats included).
///
/// # Errors
///
/// Returns the engine's [`Error`] when the launch fails (barrier
/// divergence, timeout).
pub fn check_program(p: &SuiteProgram, config: BarracudaConfig) -> Result<Analysis, Error> {
    let mut engine = Engine::with_config(config);
    let params = engine.gpu_mut().alloc_args(&p.args);
    engine.check(&KernelRun {
        source: &p.source,
        kernel: KERNEL,
        dims: p.dims,
        params: &params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suite_has_66_programs_with_unique_names() {
        let ps = all_programs();
        assert_eq!(ps.len(), 66, "paper's suite has 66 programs");
        let names: HashSet<&str> = ps.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 66);
    }

    #[test]
    fn all_programs_parse() {
        for p in all_programs() {
            barracuda_ptx::parse(&p.source)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", p.name));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(program("global_ww_interblock_race").is_some());
        assert!(program("nonexistent").is_none());
    }
}
