//! Synthetic versions of the paper's 26 evaluation benchmarks (Table 1).
//!
//! The paper evaluates on Rodinia 3.1, SHOC, GPU-TM, the CUDA SDK samples
//! and the CUB SDK samples — closed build stacks targeting real GPUs.
//! This crate generates, for each benchmark, a synthetic PTX kernel
//! matched to the paper's Table 1 along the axes that drive every
//! downstream experiment:
//!
//! * **static PTX instruction count** (column 2; Fig. 9's denominator),
//!   with a per-benchmark memory-instruction fraction so instrumentation
//!   percentages spread like Fig. 9;
//! * **thread count** (column 3), scaled down by default (`Scale`) and
//!   restorable to paper scale;
//! * **global memory footprint** (column 4), capped by `Scale` so the
//!   host-side shadow stays laptop-sized;
//! * **races found** (column 5): the same number of distinct racy
//!   locations in the same memory space, planted through the mechanisms
//!   the paper describes (the hashtable's unfenced lock, SHOC BFS's
//!   unsynchronized distance/flag updates) or as direct conflicting
//!   access pairs.
//!
//! Each kernel also exercises the feature mix of its original: shared-
//!   memory staging with barriers, divergent branches, atomics, fences and
//!   redundant same-address accesses (so the Fig. 9 pruning optimization
//!   has something to remove).

#![warn(missing_docs)]

mod gen;
mod rows;

pub use gen::{GenCfg, RaceSite, WorkloadInstance};
pub use rows::{all_workloads, workload, PaperRow, Workload};

/// Scaling knobs for workload generation.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Cap on total threads (paper kernels reach 1,048,576).
    pub max_threads: u64,
    /// Cap on the *allocated* global-memory footprint in bytes (the
    /// paper's footprints reach 6.6 GB; shadow memory is 32× that).
    pub max_alloc_bytes: u64,
    /// Multiplier on the static-instruction target (1.0 = paper-faithful
    /// instruction counts).
    pub insn_scale: f64,
}

impl Scale {
    /// Default scale: ≤ 4096 threads, ≤ 16 MiB data, faithful instruction
    /// counts. Completes the full 26-benchmark sweep in seconds.
    pub fn default_scale() -> Self {
        Scale {
            max_threads: 4096,
            max_alloc_bytes: 16 << 20,
            insn_scale: 1.0,
        }
    }

    /// Quick scale for unit tests.
    pub fn quick() -> Self {
        Scale {
            max_threads: 512,
            max_alloc_bytes: 1 << 20,
            insn_scale: 0.25,
        }
    }

    /// The paper's scale (over a million threads; needs a large machine).
    pub fn paper() -> Self {
        Scale {
            max_threads: u64::MAX,
            max_alloc_bytes: u64::MAX,
            insn_scale: 1.0,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barracuda::{BarracudaConfig, Engine};

    #[test]
    fn all_26_workloads_generate_and_parse() {
        let ws = all_workloads();
        assert_eq!(ws.len(), 26);
        for w in &ws {
            let inst = w.generate(&Scale::quick());
            let text = inst.ptx();
            barracuda_ptx::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn static_instruction_counts_match_paper() {
        for w in all_workloads() {
            let inst = w.generate(&Scale::default_scale());
            let got = inst.module.static_instruction_count();
            let want = w.paper.static_insns as usize;
            let tol = (want / 10).max(30);
            assert!(
                got.abs_diff(want) <= tol,
                "{}: static insns {got} vs paper {want}",
                w.name
            );
        }
    }

    #[test]
    fn race_free_workload_is_clean_and_racy_workload_matches_count() {
        let scale = Scale::quick();
        // One race-free and two racy representatives (full sweep in the
        // bench harness).
        for name in ["backprop", "hashtable", "pathfinder"] {
            let w = workload(name).unwrap();
            let inst = w.generate(&scale);
            let mut bar = Engine::with_config(BarracudaConfig::default());
            let params = inst.alloc_params(bar.gpu_mut());
            let analysis = bar
                .check_module(&inst.module, &inst.kernel, inst.dims, &params)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (shared, global) = analysis.space_counts();
            assert_eq!(
                (shared as u32, global as u32),
                (inst.expected_shared_races, inst.expected_global_races),
                "{name}: race counts (shared, global)"
            );
        }
    }

    #[test]
    fn thread_scaling_respects_cap() {
        let w = workload("backprop").unwrap();
        let inst = w.generate(&Scale::quick());
        assert!(inst.dims.total_threads() <= 512);
        // Small-thread benchmarks are unscaled.
        let w2 = workload("hashtable").unwrap();
        let inst2 = w2.generate(&Scale::quick());
        assert_eq!(inst2.dims.total_threads(), 64);
    }
}
