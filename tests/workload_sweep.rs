//! Full Table-1 sweep: all 26 synthetic benchmarks run under detection at
//! quick scale, in the synchronous and the threaded pipeline (at the
//! default queue count); every race count and memory space must match
//! the paper's Table 1.

use barracuda_repro::barracuda::{BarracudaConfig, DetectionMode, Engine};
use barracuda_repro::trace::MemSpace;
use barracuda_repro::workloads::{all_workloads, Scale};

fn pin_table1(mode: DetectionMode) {
    let scale = Scale::quick();
    let mut failures = Vec::new();
    for w in all_workloads() {
        let inst = w.generate(&scale);
        let mut bar = Engine::with_config(BarracudaConfig {
            mode,
            ..BarracudaConfig::default()
        });
        let params = inst.alloc_params(bar.gpu_mut());
        let analysis = match bar.check_module(&inst.module, &inst.kernel, inst.dims, &params) {
            Ok(a) => a,
            Err(e) => {
                failures.push(format!("{}: failed to run: {e}", w.name));
                continue;
            }
        };
        if analysis.race_count() as u32 != w.paper.races {
            failures.push(format!(
                "{}: found {} races, paper reports {}",
                w.name,
                analysis.race_count(),
                w.paper.races
            ));
            continue;
        }
        let (shared, global) = analysis.space_counts();
        let space_ok = match w.paper.race_space {
            None => shared == 0 && global == 0,
            Some(MemSpace::Shared) => shared as u32 == w.paper.races && global == 0,
            Some(MemSpace::Global) => global as u32 == w.paper.races && shared == 0,
        };
        if !space_ok {
            failures.push(format!(
                "{}: races in wrong space (shared {shared}, global {global})",
                w.name
            ));
        }
        if !analysis.diagnostics().is_empty() {
            failures.push(format!(
                "{}: unexpected diagnostics {:?}",
                w.name,
                analysis.diagnostics()
            ));
        }
    }
    assert!(failures.is_empty(), "{mode:?}:\n{}", failures.join("\n"));
}

#[test]
fn all_26_workloads_match_table1_race_content() {
    pin_table1(DetectionMode::Synchronous);
}

#[test]
fn all_26_workloads_match_table1_race_content_threaded() {
    pin_table1(DetectionMode::Threaded);
}

#[test]
fn instrumentation_stats_are_sane_across_workloads() {
    let scale = Scale::quick();
    for w in all_workloads() {
        let inst = w.generate(&scale);
        let (_, unopt) = barracuda_repro::instrument::instrument_module(
            &inst.module,
            &barracuda_repro::instrument::InstrumentOptions::unoptimized(),
        );
        let (_, opt) = barracuda_repro::instrument::instrument_module(
            &inst.module,
            &barracuda_repro::instrument::InstrumentOptions::default(),
        );
        // Fig. 9: "BARRACUDA never instruments more than half of the
        // instructions among our benchmarks".
        assert!(
            unopt.instrumented_fraction() <= 0.55,
            "{}: {:.2}",
            w.name,
            unopt.instrumented_fraction()
        );
        assert!(
            opt.instrumented_fraction() <= unopt.instrumented_fraction(),
            "{}",
            w.name
        );
        assert!(opt.log_calls > 0, "{}", w.name);
    }
}
