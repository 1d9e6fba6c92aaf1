//! The GPU-TM hashtable bugs (paper §6.3).
//!
//! Each bucket is protected by a fine-grained lock — but the lock is
//! broken twice: the `atomicCAS` acquire has no trailing fence (so the
//! critical section can be reordered before it), and the release is a
//! plain, unfenced store. BARRACUDA finds races on the bucket's data
//! words and on the lock word itself, all in **global memory** — invisible
//! to shared-memory-only tools.
//!
//! Run with: `cargo run --example hashtable`

use barracuda_repro::barracuda::{Engine, RaceClass};
use barracuda_repro::workloads::{workload, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload("hashtable").expect("hashtable workload");
    println!(
        "hashtable (GPU-TM): paper reports {} races in global memory, {} static insns, {} threads\n",
        w.paper.races, w.paper.static_insns, w.paper.total_threads
    );

    let inst = w.generate(&Scale::default_scale());
    let mut bar = Engine::new();
    let params = inst.alloc_params(bar.gpu_mut());
    let analysis = bar.check_module(&inst.module, &inst.kernel, inst.dims, &params)?;

    println!(
        "races found: {} (expected {})",
        analysis.race_count(),
        inst.expected_races()
    );
    for race in analysis.races() {
        println!("  {race}");
    }
    let (shared, global) = analysis.space_counts();
    println!("\nby space: {global} global, {shared} shared");
    println!(
        "inter-block: {}  intra-block: {}  intra-warp: {}  divergence: {}",
        analysis.count_class(RaceClass::InterBlock),
        analysis.count_class(RaceClass::IntraBlock),
        analysis.count_class(RaceClass::IntraWarp),
        analysis.count_class(RaceClass::Divergence),
    );
    assert_eq!(analysis.race_count() as u32, inst.expected_races());
    assert_eq!(global, 3, "all three hashtable races are in global memory");
    println!("\n(the bug fixes: membar.gl after the CAS, and release via membar.gl + atom.exch)");
    Ok(())
}
