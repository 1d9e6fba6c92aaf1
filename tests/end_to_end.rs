//! Cross-crate end-to-end properties: verdict stability across scheduler
//! seeds, agreement between synchronous and threaded detection, and
//! robustness of verdicts under the weak memory models.

use barracuda_repro::barracuda::{
    BarracudaConfig, DetectionMode, Engine, GpuConfig, KernelRun, MemoryModel,
};
use barracuda_repro::suite::{all_programs, program, run_program, SuiteProgram, Verdict, KERNEL};

fn run_with_config(p: &SuiteProgram, config: BarracudaConfig) -> Verdict {
    let mut bar = Engine::with_config(config);
    let params = bar.gpu_mut().alloc_args(&p.args);
    match bar.check(&KernelRun {
        source: &p.source,
        kernel: KERNEL,
        dims: p.dims,
        params: &params,
    }) {
        Ok(a) if !a.diagnostics().is_empty() => Verdict::BarrierDivergence,
        Ok(a) if a.race_count() > 0 => Verdict::Race,
        Ok(_) => Verdict::NoRace,
        Err(barracuda_repro::barracuda::Error::Sim(
            barracuda_repro::simt::SimError::BarrierDivergence { .. },
        )) => Verdict::BarrierDivergence,
        Err(e) => Verdict::Error(e.to_string()),
    }
}

/// Representative programs spanning the feature space.
const REPRESENTATIVES: [&str; 8] = [
    "global_ww_interblock_race",
    "global_flag_gl_fences_norace",
    "shared_staged_read_barrier_norace",
    "branch_ordering_race",
    "spinlock_gl_fences_norace",
    "spinlock_unfenced_cas_race",
    "threadfence_reduction_norace",
    "reduction_barriers_norace",
];

#[test]
fn verdicts_stable_across_scheduler_seeds() {
    for name in REPRESENTATIVES {
        let p = program(name).expect("known program");
        let base = run_program(&p);
        for seed in [1u64, 99, 4242] {
            let cfg = BarracudaConfig {
                gpu: GpuConfig {
                    seed,
                    slice: 4,
                    ..GpuConfig::default()
                },
                ..BarracudaConfig::default()
            };
            let v = run_with_config(&p, cfg);
            assert_eq!(v, base, "{name} diverged at seed {seed}");
        }
    }
}

#[test]
fn threaded_mode_agrees_with_synchronous_on_block_local_programs() {
    // Programs whose synchronization is intra-block (or absent) cannot be
    // affected by cross-queue processing order; both modes must agree.
    for name in [
        "global_ww_interblock_race",
        "shared_staged_read_barrier_norace",
        "branch_ordering_race",
        "reduction_barriers_norace",
        "shared_pingpong_two_barriers_norace",
        "global_disjoint_norace",
    ] {
        let p = program(name).expect("known program");
        let sync = run_with_config(&p, BarracudaConfig::default());
        let threaded = run_with_config(
            &p,
            BarracudaConfig {
                mode: DetectionMode::Threaded,
                ..BarracudaConfig::default()
            },
        );
        assert_eq!(sync, threaded, "{name}");
    }
}

#[test]
fn weak_memory_models_preserve_verdicts() {
    // Happens-before verdicts depend on synchronization, not on which
    // store drains first; the Kepler preset must not change them.
    for name in REPRESENTATIVES {
        let p = program(name).expect("known program");
        let base = run_program(&p);
        let cfg = BarracudaConfig {
            gpu: GpuConfig {
                memory_model: MemoryModel::KeplerK520,
                ..GpuConfig::default()
            },
            ..BarracudaConfig::default()
        };
        let weak = run_with_config(&p, cfg);
        assert_eq!(weak, base, "{name} under KeplerK520");
    }
}

#[test]
fn race_counts_are_deterministic_for_fixed_seed() {
    let p = program("reduction_missing_initial_barrier_race").expect("known program");
    let count = |seed: u64| {
        let mut bar = Engine::with_config(BarracudaConfig {
            gpu: GpuConfig {
                seed,
                ..GpuConfig::default()
            },
            ..BarracudaConfig::default()
        });
        let params = bar.gpu_mut().alloc_args(&p.args);
        bar.check(&KernelRun {
            source: &p.source,
            kernel: KERNEL,
            dims: p.dims,
            params: &params,
        })
        .expect("runs")
        .race_count()
    };
    assert_eq!(count(5), count(5));
}

#[test]
fn every_suite_program_has_plausible_structure() {
    // Sanity over the whole corpus: sources parse, dims are small enough
    // for CI, and racy programs declare at least one buffer or shared use.
    for p in all_programs() {
        assert!(
            p.dims.total_threads() <= 256,
            "{} too large for the suite",
            p.name
        );
        let m = barracuda_ptx::parse(&p.source).expect("parses");
        assert_eq!(m.kernels.len(), 1);
        assert!(m.kernels[0].static_instruction_count() >= 2, "{}", p.name);
    }
}

#[test]
fn warp_size_sweep_finds_latent_races() {
    // The §3.1 future-work extension: warp-synchronous code that is safe
    // at the hardware warp size races at smaller simulated warp sizes.
    let p = program("warp_synchronous_shuffle_norace").expect("known program");
    let mut bar = Engine::new();
    let params = bar.gpu_mut().alloc_args(&p.args);
    let run = KernelRun {
        source: &p.source,
        kernel: KERNEL,
        dims: p.dims,
        params: &params,
    };
    let results = bar.check_warp_sizes(&run, &[32, 8]).expect("sweep runs");
    assert_eq!(results[0].1.race_count(), 0, "safe at warp size 32");
    assert!(results[1].1.race_count() > 0, "latent race at warp size 8");
}
