//! Shape of the multi-launch / host-interaction program family, and a
//! trace check that a racy pair run co-resident interleaves its
//! conflicting accesses. Verdicts, race sets and race classes are pinned
//! by `pipeline_parity`, in every detection mode and schedule.

use barracuda_simt::{Gpu, GpuConfig, GroupLaunch, LoadedKernel, ParamValue, SchedPolicy, VecSink};
use barracuda_suite::{multi_program, multi_programs, Expectation, MultiStep, KERNEL};

#[test]
fn multi_family_has_racy_and_race_free_programs() {
    let ps = multi_programs();
    assert!(ps.len() >= 8, "family has {} programs", ps.len());
    let racy = ps
        .iter()
        .filter(|p| p.expected == Expectation::Race)
        .count();
    let clean = ps
        .iter()
        .filter(|p| p.expected == Expectation::NoRace)
        .count();
    assert!(racy >= 3, "{racy} racy programs");
    assert!(clean >= 3, "{clean} race-free programs");
    let names: std::collections::HashSet<_> = ps.iter().map(|p| p.name).collect();
    assert_eq!(names.len(), ps.len(), "names are unique");
}

#[test]
fn racy_conflicts_manifest_in_a_genuinely_interleaved_trace() {
    // Trace inspection, not happens-before inference: run the program's
    // two launches of the striding writer co-resident and require that
    // records from both launches touching the *same address* appear in
    // both orders — each launch accesses contested bytes while the other
    // is still live.
    let p = multi_program("multi_stride_overlap_race").unwrap();
    let cfg = GpuConfig {
        native_access_logging: true,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    let buf = gpu.malloc(p.buffers[0]);
    let params = [ParamValue::Ptr(buf)];
    let modules: Vec<_> = p
        .kernels
        .iter()
        .map(|k| barracuda_ptx::parse(&k.source).unwrap())
        .collect();
    let loaded: Vec<_> = modules
        .iter()
        .map(|m| LoadedKernel::load(m, KERNEL).unwrap())
        .collect();
    let launches: Vec<GroupLaunch<'_>> = p
        .steps
        .iter()
        .map(|step| match *step {
            MultiStep::Launch { kernel, .. } => GroupLaunch {
                lk: &loaded[kernel],
                dims: p.kernels[kernel].dims,
                params: &params,
                dep: None,
            },
            other => panic!("expected only launches, got {other:?}"),
        })
        .collect();
    assert_eq!(launches.len(), 2);
    let sink = VecSink::new();
    gpu.launch_group(&launches, SchedPolicy::RoundRobin, Some(&sink))
        .unwrap();
    let recs = sink.take();

    // (address touched, slot, position) for every lane of every record.
    let mut touches: Vec<(u64, u8, usize)> = Vec::new();
    for (pos, r) in recs.iter().enumerate() {
        for lane in 0..32 {
            if r.mask & (1 << lane) != 0 {
                touches.push((r.addrs[lane], r.slot, pos));
            }
        }
    }
    let mut zero_then_one = false;
    let mut one_then_zero = false;
    for &(addr, slot, pos) in &touches {
        for &(addr2, slot2, pos2) in &touches {
            if addr == addr2 && slot == 0 && slot2 == 1 {
                if pos < pos2 {
                    zero_then_one = true;
                } else {
                    one_then_zero = true;
                }
            }
        }
    }
    assert!(
        zero_then_one && one_then_zero,
        "conflicting accesses must interleave in both orders \
         (0→1: {zero_then_one}, 1→0: {one_then_zero})"
    );
}
