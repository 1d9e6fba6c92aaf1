//! End-to-end tests of co-resident kernel interleaving
//! ([`BarracudaConfig::interleave`]): deferred launches, barrier flushes,
//! scheduler policies, spin-wait handoffs that *require* genuine
//! interleaving to terminate, and per-stream telemetry attribution. These
//! pin engine-API details — race counts per call, memory contents,
//! telemetry, forced flushes; the verdicts of the multi-launch programs
//! under every policy are `barracuda-suite`'s `pipeline_parity` matrix.

use barracuda::{
    BarracudaConfig, DetectionMode, Engine, GridDims, KernelRun, ParamValue, RaceClass,
    SchedPolicy, StreamId,
};

const HEADER: &str = ".version 4.3\n.target sm_35\n.address_size 64\n";

/// One thread stores 1 to `[p]`.
fn writer() -> String {
    format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b64 %rd<2>;\n\
         ld.param.u64 %rd1, [p];\n\
         st.global.u32 [%rd1], 1;\n\
         ret;\n}}"
    )
}

/// Per-thread disjoint writer: thread i stores to `p[i]`.
fn striding_writer() -> String {
    format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b32 %r<2>;\n.reg .b64 %rd<4>;\n\
         mov.u32 %r1, %tid.x;\n\
         ld.param.u64 %rd1, [p];\n\
         mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r1;\n\
         ret;\n}}"
    )
}

/// Intra-kernel race: every thread stores its own `%tid.x` to `[p]`.
fn racy_writer() -> String {
    format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b32 %r<2>;\n.reg .b64 %rd<2>;\n\
         mov.u32 %r1, %tid.x;\n\
         ld.param.u64 %rd1, [p];\n\
         st.global.u32 [%rd1], %r1;\n\
         ret;\n}}"
    )
}

/// Flag-handoff producer without a fence: `p[0] = 42; p[1] = 1`.
fn producer() -> String {
    format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b64 %rd<2>;\n\
         ld.param.u64 %rd1, [p];\n\
         st.global.u32 [%rd1], 42;\n\
         st.global.u32 [%rd1+4], 1;\n\
         ret;\n}}"
    )
}

/// Flag-handoff consumer: spin until `p[1] != 0`, then read `p[0]` and
/// publish it to `p[2]`. Terminates only if the producer runs *while*
/// this kernel spins (or already ran).
fn consumer() -> String {
    format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .pred %p1;\n.reg .b32 %r<4>;\n.reg .b64 %rd<2>;\n\
         ld.param.u64 %rd1, [p];\n\
         L_wait:\n\
         ld.global.u32 %r1, [%rd1+4];\n\
         setp.eq.s32 %p1, %r1, 0;\n\
         @%p1 bra L_wait;\n\
         ld.global.u32 %r2, [%rd1];\n\
         st.global.u32 [%rd1+8], %r2;\n\
         ret;\n}}"
    )
}

fn run<'a>(source: &'a str, params: &'a [ParamValue], threads: u32) -> KernelRun<'a> {
    KernelRun {
        source,
        kernel: "k",
        dims: GridDims::new(1u32, threads),
        params,
    }
}

fn interleave_config(policy: SchedPolicy, mode: DetectionMode) -> BarracudaConfig {
    let mut cfg = BarracudaConfig {
        interleave: Some(policy),
        mode,
        ..BarracudaConfig::default()
    };
    // Keep the worker pool small: these tests spawn many engines.
    cfg.gpu.num_sms = 4;
    cfg
}

const POLICIES: [SchedPolicy; 5] = [
    SchedPolicy::RoundRobin,
    SchedPolicy::Random(1),
    SchedPolicy::Random(0xdead_beef),
    SchedPolicy::StarveOne(0),
    SchedPolicy::StarveOne(1),
];

#[test]
fn launch_is_deferred_until_a_barrier_flushes_it() {
    let mut eng = Engine::with_config(interleave_config(
        SchedPolicy::RoundRobin,
        DetectionMode::Synchronous,
    ));
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let s1 = eng.create_stream();
    let a1 = eng
        .launch_async(StreamId::DEFAULT, &run(&src, &params, 1))
        .unwrap();
    let a2 = eng.launch_async(s1, &run(&src, &params, 1)).unwrap();
    // Deferred: no execution yet, so no races yet and nothing written.
    assert_eq!(a1.race_count() + a2.race_count(), 0);
    assert_eq!(eng.pending_launches(), 2);
    assert_eq!(eng.gpu().read_u32(buf), 0, "kernel must not have run yet");

    let races = eng.device_synchronize().unwrap();
    assert_eq!(eng.pending_launches(), 0);
    assert_eq!(eng.gpu().read_u32(buf), 1, "flush executed the group");
    assert_eq!(races.len(), 1, "{races:?}");
    assert_eq!(races[0].class, RaceClass::InterKernel);
}

#[test]
fn same_stream_order_is_kept_inside_a_group() {
    for policy in POLICIES {
        let mut eng = Engine::with_config(interleave_config(policy, DetectionMode::Synchronous));
        let buf = eng.gpu_mut().malloc(4);
        let src = writer();
        let params = [ParamValue::Ptr(buf)];
        eng.launch_async(StreamId::DEFAULT, &run(&src, &params, 1))
            .unwrap();
        eng.launch_async(StreamId::DEFAULT, &run(&src, &params, 1))
            .unwrap();
        let races = eng.device_synchronize().unwrap();
        assert!(
            races.is_empty(),
            "same-stream launches are ordered under {policy:?}: {races:?}"
        );
    }
}

#[test]
fn check_in_interleave_mode_matches_eager_verdict_and_stats() {
    let src = striding_writer();
    let mut eager = Engine::new();
    let ebuf = eager.gpu_mut().malloc(256);
    let ea = eager
        .check(&run(&src, &[ParamValue::Ptr(ebuf)], 64))
        .unwrap();

    for policy in POLICIES {
        for mode in [DetectionMode::Synchronous, DetectionMode::Threaded] {
            let mut eng = Engine::with_config(interleave_config(policy, mode));
            let buf = eng.gpu_mut().malloc(256);
            let a = eng.check(&run(&src, &[ParamValue::Ptr(buf)], 64)).unwrap();
            assert_eq!(a.race_count(), ea.race_count(), "{policy:?}/{mode:?}");
            assert_eq!(
                a.stats().records,
                ea.stats().records,
                "a singleton group emits exactly the eager record stream ({policy:?}/{mode:?})"
            );
            assert_eq!(a.stats().events, ea.stats().events, "{policy:?}/{mode:?}");
            assert!(a.stats().launch.instructions > 0);
            assert_eq!(eng.pending_launches(), 0, "check flushes its group");
        }
    }
}

#[test]
fn flag_handoff_terminates_only_through_genuine_interleaving() {
    // The consumer spins on a flag only the co-resident producer sets:
    // under every policy the group must make cross-kernel progress, and
    // the unfenced handoff must surface as inter-kernel races.
    for policy in POLICIES {
        for mode in [DetectionMode::Synchronous, DetectionMode::Threaded] {
            let mut eng = Engine::with_config(interleave_config(policy, mode));
            let buf = eng.gpu_mut().malloc(12);
            let params = [ParamValue::Ptr(buf)];
            let prod = producer();
            let cons = consumer();
            let s1 = eng.create_stream();
            eng.launch_async(StreamId::DEFAULT, &run(&prod, &params, 1))
                .unwrap();
            eng.launch_async(s1, &run(&cons, &params, 1)).unwrap();
            let races = eng.device_synchronize().unwrap();
            assert_eq!(
                eng.gpu().read_u32s(buf, 3)[2],
                42,
                "consumer observed the handoff under {policy:?}/{mode:?}"
            );
            assert!(!races.is_empty(), "{policy:?}/{mode:?}");
            assert!(
                races.iter().all(|r| r.class == RaceClass::InterKernel),
                "{policy:?}/{mode:?}: {races:?}"
            );
        }
    }
}

#[test]
fn per_stream_telemetry_attributes_interleaved_launches_by_slot() {
    // Two streams with very different record volumes (64 threads vs 1):
    // interleaved execution must attribute records, events and launch
    // counts to the emitting launch's own stream, not smear them across
    // the group.
    let big = striding_writer();
    let small = writer();

    // Eager reference for the exact per-launch record/event counts.
    let mut eager = Engine::new();
    let b0 = eager.gpu_mut().malloc(256);
    let b1 = eager.gpu_mut().malloc(4);
    let s1 = eager.create_stream();
    eager
        .launch_async(StreamId::DEFAULT, &run(&big, &[ParamValue::Ptr(b0)], 64))
        .unwrap();
    eager
        .launch_async(s1, &run(&small, &[ParamValue::Ptr(b1)], 1))
        .unwrap();
    let eager_records: Vec<u64> = eager.launches().iter().map(|l| l.records).collect();
    let eager_events: Vec<u64> = eager.launches().iter().map(|l| l.events).collect();
    assert!(eager_records[0] > eager_records[1]);

    for mode in [DetectionMode::Synchronous, DetectionMode::Threaded] {
        let mut eng = Engine::with_config(interleave_config(SchedPolicy::RoundRobin, mode));
        let b0 = eng.gpu_mut().malloc(256);
        let b1 = eng.gpu_mut().malloc(4);
        let s1 = eng.create_stream();
        eng.launch_async(StreamId::DEFAULT, &run(&big, &[ParamValue::Ptr(b0)], 64))
            .unwrap();
        eng.launch_async(s1, &run(&small, &[ParamValue::Ptr(b1)], 1))
            .unwrap();
        let races = eng.device_synchronize().unwrap();
        assert!(races.is_empty(), "{mode:?}: {races:?}");

        let summaries = eng.launches();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].stream, 0);
        assert_eq!(summaries[1].stream, s1.0);
        for i in 0..2 {
            assert_eq!(
                summaries[i].records, eager_records[i],
                "{mode:?}: launch {i} record attribution"
            );
            assert_eq!(
                summaries[i].events, eager_events[i],
                "{mode:?}: launch {i} event attribution"
            );
            assert_eq!(summaries[i].races, 0);
        }

        // The per-stream rollup seen by the next analysis carries the
        // same split: stream 1 ran exactly one small launch.
        let probe = eng.gpu_mut().malloc(4);
        let a = eng
            .check(&run(&small, &[ParamValue::Ptr(probe)], 1))
            .unwrap();
        let streams = &a.stats().pipeline.per_stream;
        assert_eq!(streams.len(), 2, "{mode:?}: {streams:?}");
        assert_eq!(streams[1].stream, s1.0);
        assert_eq!(streams[1].launches, 1);
        assert_eq!(streams[1].records, eager_records[1], "{mode:?}");
        assert_eq!(streams[1].dropped, 0);
        assert_eq!(streams[0].launches, 2); // big launch + the probe
    }
}

#[test]
fn check_keeps_the_races_of_a_full_groups_forced_flush() {
    // 255 deferred racy launches fill the group; the check's launch
    // forces their flush before it joins a group of its own, and the
    // check must report the forced flush's races with its own.
    const FULL_GROUP: usize = 255;
    let racy = racy_writer();
    let clean = striding_writer();
    for mode in [DetectionMode::Synchronous, DetectionMode::Threaded] {
        let mut eng = Engine::with_config(interleave_config(SchedPolicy::RoundRobin, mode));
        for _ in 0..FULL_GROUP {
            let buf = eng.gpu_mut().malloc(4);
            eng.launch_async(StreamId::DEFAULT, &run(&racy, &[ParamValue::Ptr(buf)], 2))
                .unwrap();
        }
        assert_eq!(eng.pending_launches(), FULL_GROUP);
        let buf = eng.gpu_mut().malloc(256);
        let a = eng
            .check(&run(&clean, &[ParamValue::Ptr(buf)], 64))
            .unwrap();
        assert_eq!(eng.pending_launches(), 0, "{mode:?}");
        assert_eq!(a.race_count(), FULL_GROUP, "{mode:?}");
        assert!(
            a.races().iter().all(|r| r.class == RaceClass::IntraWarp),
            "{mode:?}"
        );
    }
}
