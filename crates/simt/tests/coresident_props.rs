//! Property tests for co-resident kernel scheduling: on generated
//! two-kernel workloads, (1) the same policy + seed replays a
//! byte-identical record stream, and (2) every scheduling policy yields
//! the same race sets — per launch and across the pair — because race
//! verdicts are a function of the program, not the schedule.

use std::collections::BTreeSet;

use barracuda_core::{Detector, Worker};
use barracuda_simt::{Gpu, GpuConfig, GroupLaunch, LoadedKernel, ParamValue, SchedPolicy, VecSink};
use barracuda_trace::ops::Event;
use barracuda_trace::record::Record;
use barracuda_trace::GridDims;
use proptest::prelude::*;

/// One generated access in a kernel body: a load or store of `u32` at
/// word offset `word` into the shared buffer.
#[derive(Debug, Clone, Copy)]
struct Access {
    store: bool,
    word: u8,
}

/// A generated kernel: a straight line of whole-warp accesses into a
/// 16-word buffer that both kernels of the group share.
#[derive(Debug, Clone)]
struct Prog {
    warps: u32,
    accesses: Vec<Access>,
}

impl Prog {
    fn ptx(&self) -> String {
        let mut body = String::from(
            ".reg .b32 %r<4>;\n.reg .b64 %rd<2>;\n\
             ld.param.u64 %rd1, [out];\n\
             mov.u32 %r1, %tid.x;\n",
        );
        for a in &self.accesses {
            let off = u32::from(a.word) * 4;
            if a.store {
                body.push_str(&format!("st.global.u32 [%rd1+{off}], %r1;\n"));
            } else {
                body.push_str(&format!("ld.global.u32 %r2, [%rd1+{off}];\n"));
            }
        }
        body.push_str("ret;");
        format!(
            ".version 4.3\n.target sm_35\n.address_size 64\n\
             .visible .entry k(.param .u64 out)\n{{\n{body}\n}}"
        )
    }

    fn dims(&self) -> GridDims {
        GridDims::new(1u32, self.warps * 32)
    }
}

fn access_strategy() -> impl Strategy<Value = Access> {
    (any::<bool>(), 0u8..16).prop_map(|(store, word)| Access { store, word })
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    (1u32..=2, prop::collection::vec(access_strategy(), 1..6))
        .prop_map(|(warps, accesses)| Prog { warps, accesses })
}

/// Everything that identifies a record, for byte-level comparison.
type Sig = (u8, u64, u8, u8, u8, u32, [u64; 32]);

fn sig(r: &Record) -> Sig {
    (r.slot, r.warp, r.kind, r.space, r.size, r.mask, r.addrs)
}

/// Runs the pair as one co-resident group under `policy` and returns the
/// interleaved record stream.
fn run_group(a: &Prog, b: &Prog, policy: SchedPolicy) -> Vec<Record> {
    let ma = barracuda_ptx::parse(&a.ptx()).unwrap();
    let mb = barracuda_ptx::parse(&b.ptx()).unwrap();
    let la = LoadedKernel::load(&ma, "k").unwrap();
    let lb = LoadedKernel::load(&mb, "k").unwrap();
    let cfg = GpuConfig {
        native_access_logging: true,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    let buf = gpu.malloc(64);
    let params = [ParamValue::Ptr(buf)];
    let sink = VecSink::new();
    gpu.launch_group(
        &[
            GroupLaunch {
                lk: &la,
                dims: a.dims(),
                params: &params,
                dep: None,
            },
            GroupLaunch {
                lk: &lb,
                dims: b.dims(),
                params: &params,
                dep: None,
            },
        ],
        policy,
        Some(&sink),
    )
    .unwrap();
    sink.take()
}

fn remap_warp(ev: &mut Event, offset: u64) {
    match ev {
        Event::Access { warp, .. }
        | Event::If { warp, .. }
        | Event::Else { warp }
        | Event::Fi { warp }
        | Event::Bar { warp, .. }
        | Event::Exit { warp, .. } => *warp += offset,
    }
}

/// `(space, addr)` races of one launch's records, detected in isolation.
fn slot_races(recs: &[Record], slot: u8, dims: GridDims) -> BTreeSet<(u8, u64)> {
    let det = Detector::new(dims, 32);
    let mut worker = Worker::new(&det);
    for r in recs.iter().filter(|r| r.slot == slot) {
        let ev = r.try_decode().expect("well-formed record");
        worker.process_event(&ev);
    }
    extract(&det)
}

/// Combined race set of the whole group: both launches mapped into one
/// logical kernel (kernel B's block becomes block 1), so unsynchronized
/// cross-kernel conflicts surface as cross-block races. The mapping is
/// schedule-independent, so so must be the result.
fn group_races(recs: &[Record], a: &Prog, b: &Prog) -> BTreeSet<(u8, u64)> {
    let warps = a.warps.max(b.warps);
    let dims = GridDims::new(2u32, warps * 32);
    let det = Detector::new(dims, 32);
    let mut worker = Worker::new(&det);
    for r in recs {
        let mut ev = r.try_decode().expect("well-formed record");
        if r.slot == 1 {
            remap_warp(&mut ev, dims.warps_per_block());
        }
        worker.process_event(&ev);
    }
    extract(&det)
}

fn extract(det: &Detector) -> BTreeSet<(u8, u64)> {
    det.races()
        .reports()
        .iter()
        .map(|r| {
            (
                match r.space {
                    barracuda_trace::ops::MemSpace::Global => 0u8,
                    barracuda_trace::ops::MemSpace::Shared => 1,
                },
                r.addr,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_seed_and_policy_is_byte_identical(
        a in prog_strategy(),
        b in prog_strategy(),
        seed in any::<u64>(),
    ) {
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::Random(seed),
            SchedPolicy::StarveOne(seed),
        ] {
            let r1: Vec<Sig> = run_group(&a, &b, policy).iter().map(sig).collect();
            let r2: Vec<Sig> = run_group(&a, &b, policy).iter().map(sig).collect();
            prop_assert_eq!(&r1, &r2, "{:?} must replay byte-identically", policy);
        }
    }

    #[test]
    fn race_sets_agree_across_policies(
        a in prog_strategy(),
        b in prog_strategy(),
        seed in any::<u64>(),
    ) {
        let rr = run_group(&a, &b, SchedPolicy::RoundRobin);
        let rand = run_group(&a, &b, SchedPolicy::Random(seed));
        let starve = run_group(&a, &b, SchedPolicy::StarveOne(seed));
        // Per-launch verdicts: each slot's own records are its program
        // order, so isolating them must give identical races under any
        // schedule.
        for slot in 0..2u8 {
            let dims = if slot == 0 { a.dims() } else { b.dims() };
            let want = slot_races(&rr, slot, dims);
            prop_assert_eq!(&slot_races(&rand, slot, dims), &want, "slot {} random", slot);
            prop_assert_eq!(&slot_races(&starve, slot, dims), &want, "slot {} starve", slot);
        }
        // Cross-kernel verdicts: the combined (group-as-one-kernel) race
        // set is also schedule-independent.
        let want = group_races(&rr, &a, &b);
        prop_assert_eq!(&group_races(&rand, &a, &b), &want, "group random");
        prop_assert_eq!(&group_races(&starve, &a, &b), &want, "group starve");
    }
}
