//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6). The `figures` binary prints them; `EXPERIMENTS.md`
//! records paper-vs-measured.

#![warn(missing_docs)]

use barracuda::{BarracudaConfig, DetectionMode, Engine, KernelRun};
use barracuda_instrument::{instrument_module, InstrumentOptions};
use barracuda_simt::litmus::{mp_table, Fence, MpTableRow};
use barracuda_simt::MemoryModel;
use barracuda_suite::{all_programs, run_program};
use barracuda_trace::MemSpace;
use barracuda_workloads::{all_workloads, Scale, Workload};
use std::time::{Duration, Instant};

/// One row of the Fig. 4 litmus table across both GPU presets.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Fence between the writer's two stores.
    pub fence1: Fence,
    /// Fence between the reader's two loads.
    pub fence2: Fence,
    /// Weak outcomes observed on the K520 preset.
    pub kepler_weak: u64,
    /// Weak outcomes observed on the Titan X preset.
    pub maxwell_weak: u64,
    /// Runs per cell.
    pub iterations: u64,
}

/// Fig. 4: the mp litmus observation table on the K520 and Titan X
/// presets.
///
/// # Panics
///
/// Panics if the simulator rejects the generated litmus kernel (a bug).
pub fn fig4(iterations: u64, seed: u64) -> Vec<Fig4Row> {
    let kepler = mp_table(MemoryModel::KeplerK520, iterations, seed).expect("litmus runs");
    let maxwell = mp_table(MemoryModel::MaxwellTitanX, iterations, seed).expect("litmus runs");
    kepler
        .into_iter()
        .zip(maxwell)
        .map(|(k, m): (MpTableRow, MpTableRow)| Fig4Row {
            fence1: k.fence1,
            fence2: k.fence2,
            kepler_weak: k.result.weak,
            maxwell_weak: m.result.weak,
            iterations,
        })
        .collect()
}

/// One bar pair of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: String,
    /// Static PTX instructions in the generated kernel.
    pub static_insns: usize,
    /// Instrumented fraction without pruning.
    pub unoptimized_fraction: f64,
    /// Instrumented fraction with intra-block pruning.
    pub optimized_fraction: f64,
}

/// Fig. 9: percentage of static instructions instrumented before/after
/// pruning, per benchmark.
pub fn fig9(scale: &Scale) -> Vec<Fig9Row> {
    all_workloads()
        .iter()
        .map(|w| {
            let inst = w.generate(scale);
            let (_, unopt) = instrument_module(&inst.module, &InstrumentOptions::unoptimized());
            let (_, opt) = instrument_module(&inst.module, &InstrumentOptions::default());
            Fig9Row {
                name: w.name.to_string(),
                static_insns: inst.module.static_instruction_count(),
                unoptimized_fraction: unopt.instrumented_fraction(),
                optimized_fraction: opt.instrumented_fraction(),
            }
        })
        .collect()
}

/// One bar of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub name: String,
    /// Native (uninstrumented) execution time.
    pub native: Duration,
    /// Instrumented + detected execution time.
    pub detected: Duration,
    /// Slowdown factor (the Fig. 10 y-axis, log scale in the paper).
    pub overhead: f64,
}

/// Runs per side of a Fig. 10 bar: each side's time is the fastest of
/// them, so one host stall cannot decide the ratio.
const FIG10_RUNS: usize = 3;

/// Runs one workload natively and under detection, returning the timings.
/// Each run, native or detected, gets a fresh engine: a reused one would
/// report no race on a repeated check (its race sink keeps only new
/// races).
///
/// # Panics
///
/// Panics if the workload fails to execute (generator bug).
pub fn measure_workload(w: &Workload, scale: &Scale, mode: DetectionMode) -> Fig10Row {
    let inst = w.generate(scale);
    let text = inst.ptx();
    let engine = || {
        let mut bar = Engine::with_config(BarracudaConfig {
            mode,
            ..BarracudaConfig::default()
        });
        let params = inst.alloc_params(bar.gpu_mut());
        (bar, params)
    };
    let (mut native, mut detected) = (Duration::MAX, Duration::MAX);
    for _ in 0..FIG10_RUNS {
        let (mut bar, params) = engine();
        let run = KernelRun {
            source: &text,
            kernel: &inst.kernel,
            dims: inst.dims,
            params: &params,
        };
        let t0 = Instant::now();
        bar.run_native(&run)
            .unwrap_or_else(|e| panic!("{}: native run failed: {e}", w.name));
        native = native.min(t0.elapsed());
        let (mut bar, params) = engine();
        let t1 = Instant::now();
        let analysis = bar
            .check_module(&inst.module, &inst.kernel, inst.dims, &params)
            .unwrap_or_else(|e| panic!("{}: detection failed: {e}", w.name));
        detected = detected.min(t1.elapsed());
        assert_eq!(
            analysis.race_count() as u32,
            inst.expected_races(),
            "{}: race count drifted",
            w.name
        );
    }
    let overhead = detected.as_secs_f64() / native.as_secs_f64().max(1e-9);
    Fig10Row {
        name: w.name.to_string(),
        native,
        detected,
        overhead,
    }
}

/// Fig. 10: per-benchmark slowdown of detection vs native execution.
pub fn fig10(scale: &Scale, mode: DetectionMode) -> Vec<Fig10Row> {
    all_workloads()
        .iter()
        .map(|w| measure_workload(w, scale, mode))
        .collect()
}

/// One row of Table 1, paper values alongside measured ones.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // column names mirror Table 1
pub struct Table1Row {
    pub name: String,
    pub origin: String,
    pub paper_insns: u32,
    pub insns: usize,
    pub paper_threads: u64,
    pub threads: u64,
    pub paper_mem_mb: u32,
    pub paper_races: u32,
    pub races_found: u32,
    pub race_space: Option<MemSpace>,
}

/// Table 1: benchmark characteristics and races found.
///
/// # Panics
///
/// Panics if a workload fails to run.
pub fn table1(scale: &Scale) -> Vec<Table1Row> {
    all_workloads()
        .iter()
        .map(|w| {
            let inst = w.generate(scale);
            let mut bar = Engine::new();
            let params = inst.alloc_params(bar.gpu_mut());
            let analysis = bar
                .check_module(&inst.module, &inst.kernel, inst.dims, &params)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let (shared, global) = analysis.space_counts();
            let race_space = if shared > 0 {
                Some(MemSpace::Shared)
            } else if global > 0 {
                Some(MemSpace::Global)
            } else {
                None
            };
            Table1Row {
                name: w.name.to_string(),
                origin: w.origin.to_string(),
                paper_insns: w.paper.static_insns,
                insns: inst.module.static_instruction_count(),
                paper_threads: w.paper.total_threads,
                threads: inst.dims.total_threads(),
                paper_mem_mb: w.paper.global_mem_mb,
                paper_races: w.paper.races,
                races_found: analysis.race_count() as u32,
                race_space,
            }
        })
        .collect()
}

/// §6.1 summary: detector correctness over the 66-program suite.
#[derive(Debug, Clone)]
pub struct SuiteSummary {
    /// Programs BARRACUDA judged correctly (must equal `total`).
    pub barracuda_correct: usize,
    /// Programs the Racecheck model judged correctly.
    pub racecheck_correct: usize,
    /// Suite size (66).
    pub total: usize,
    /// Programs BARRACUDA misreported (must be empty).
    pub barracuda_failures: Vec<String>,
    /// Programs Racecheck misreported, with its verdict.
    pub racecheck_failures: Vec<(String, String)>,
}

/// Runs the full suite under both detectors.
pub fn suite_table() -> SuiteSummary {
    let programs = all_programs();
    let total = programs.len();
    let mut barracuda_correct = 0;
    let mut barracuda_failures = Vec::new();
    let mut racecheck_correct = 0;
    let mut racecheck_failures = Vec::new();
    for p in &programs {
        let verdict = run_program(p);
        if verdict.matches(p.expected) {
            barracuda_correct += 1;
        } else {
            barracuda_failures.push(p.name.to_string());
        }
        if barracuda_racecheck::correct_on(p) {
            racecheck_correct += 1;
        } else {
            racecheck_failures.push((
                p.name.to_string(),
                format!("{:?}", barracuda_racecheck::check_program(p)),
            ));
        }
    }
    SuiteSummary {
        barracuda_correct,
        racecheck_correct,
        total,
        barracuda_failures,
        racecheck_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape() {
        let rows = fig4(400, 11);
        assert_eq!(rows.len(), 4);
        assert!(
            rows[0].kepler_weak > 0,
            "cta/cta on K520 must show weak outcomes"
        );
        for r in &rows[1..] {
            assert_eq!(r.kepler_weak, 0, "{r:?}");
        }
        for r in &rows {
            assert_eq!(r.maxwell_weak, 0, "{r:?}");
        }
    }

    #[test]
    fn fig9_optimization_reduces_instrumentation() {
        let rows = fig9(&Scale::quick());
        assert_eq!(rows.len(), 26);
        for r in &rows {
            assert!(
                r.unoptimized_fraction <= 0.55,
                "{}: {}",
                r.name,
                r.unoptimized_fraction
            );
            assert!(r.optimized_fraction <= r.unoptimized_fraction, "{}", r.name);
            assert!(r.optimized_fraction > 0.0, "{}", r.name);
        }
        // Pruning must help at least some benchmarks.
        assert!(rows
            .iter()
            .any(|r| r.optimized_fraction < r.unoptimized_fraction));
    }

    #[test]
    fn fig10_overhead_is_positive() {
        let w = barracuda_workloads::workload("hashtable").unwrap();
        let row = measure_workload(&w, &Scale::quick(), DetectionMode::Synchronous);
        assert!(
            row.overhead > 1.0,
            "detection must cost more than native: {row:?}"
        );
    }

    #[test]
    fn table1_races_match_paper() {
        let rows = table1(&Scale::quick());
        for r in &rows {
            assert_eq!(r.races_found, r.paper_races, "{}", r.name);
        }
    }
}
