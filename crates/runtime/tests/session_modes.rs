//! Behavior of one-shot `Engine::check` calls across detection modes,
//! including the chaos-hardening guarantees of the threaded pipeline.

use barracuda::{
    BarracudaConfig, DetectionMode, Engine, Error, FaultPlan, GridDims, KernelRun, ParamValue,
    RaceClass, SimError,
};
use std::time::{Duration, Instant};

const HEADER: &str = ".version 4.3\n.target sm_35\n.address_size 64\n";

fn src(body: &str, params: &str) -> String {
    format!("{HEADER}.visible .entry k({params})\n{{\n{body}\n}}")
}

#[test]
fn racy_counter_detected_in_both_modes() {
    let source = src(
        ".reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [ctr];\n\
         ld.global.u32 %r1, [%rd1];\n\
         add.s32 %r1, %r1, 1;\n\
         st.global.u32 [%rd1], %r1;\n\
         ret;",
        ".param .u64 ctr",
    );
    for mode in [DetectionMode::Synchronous, DetectionMode::Threaded] {
        let mut bar = Engine::with_config(BarracudaConfig {
            mode,
            ..BarracudaConfig::default()
        });
        let ctr = bar.gpu_mut().malloc(4);
        let a = bar
            .check(&KernelRun {
                source: &source,
                kernel: "k",
                dims: GridDims::new(4u32, 1u32),
                params: &[ParamValue::Ptr(ctr)],
            })
            .unwrap();
        assert!(a.race_count() > 0, "{mode:?}");
        assert!(a.count_class(RaceClass::InterBlock) > 0, "{mode:?}");
    }
}

/// A store whose 8 bytes would run past `u64::MAX` is logged before it
/// faults. Every pipeline must return the fault promptly, without
/// overflowing on the address in the detector.
#[test]
fn store_past_the_top_of_the_address_space_faults_in_every_mode() {
    let source = src(
        ".reg .b64 %rd<4>;\n\
         mov.u64 %rd1, 0xFFFFFFFFFFFFFFFC;\n\
         st.global.u64 [%rd1], %rd1;\n\
         ret;",
        "",
    );
    for mode in [DetectionMode::Synchronous, DetectionMode::Threaded] {
        let mut bar = Engine::with_config(BarracudaConfig {
            mode,
            ..BarracudaConfig::default()
        });
        let start = Instant::now();
        let r = bar.check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(1u32, 32u32),
            params: &[],
        });
        assert!(
            matches!(r, Err(Error::Sim(SimError::InvalidAccess { .. }))),
            "{mode:?}: {r:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "{mode:?}: slow fault"
        );
    }
}

/// A shared store far past a 128-byte segment is logged before it
/// faults. Every pipeline must return the fault; the threaded workers see
/// the record while the launch runs and must not size the block's
/// shared shadow to the offset it names.
#[test]
fn shared_store_past_the_segment_faults_in_every_mode() {
    let source = src(
        ".reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
         .shared .align 4 .b8 sm[128];\n\
         mov.u32 %r1, %tid.x;\n\
         st.shared.u32 [sm+16777216], %r1;\n\
         ret;",
        "",
    );
    for mode in [DetectionMode::Synchronous, DetectionMode::Threaded] {
        let mut bar = Engine::with_config(BarracudaConfig {
            mode,
            ..BarracudaConfig::default()
        });
        let r = bar.check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(1u32, 32u32),
            params: &[],
        });
        assert!(
            matches!(r, Err(Error::Sim(SimError::SharedOutOfBounds { .. }))),
            "{mode:?}: {r:?}"
        );
    }
}

#[test]
fn disjoint_writes_clean() {
    let source = src(
        ".reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u32 %r2, %ctaid.x;\n\
         mov.u32 %r3, %ntid.x;\n\
         mad.lo.s32 %r4, %r2, %r3, %r1;\n\
         ld.param.u64 %rd1, [buf];\n\
         mul.wide.s32 %rd2, %r4, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r4;\n\
         ret;",
        ".param .u64 buf",
    );
    let mut bar = Engine::new();
    let buf = bar.gpu_mut().malloc(64 * 4);
    let a = bar
        .check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(2u32, 32u32),
            params: &[ParamValue::Ptr(buf)],
        })
        .unwrap();
    assert!(a.is_clean(), "{:?}", a.races());
    assert!(a.stats().records > 0);
    assert!(a.stats().events > 0);
}

#[test]
fn native_run_produces_no_detection() {
    let source = src(
        ".reg .b64 %rd<4>;\nld.param.u64 %rd1, [b];\nst.global.u32 [%rd1], 1;\nret;",
        ".param .u64 b",
    );
    let mut bar = Engine::new();
    let b = bar.gpu_mut().malloc(4);
    let stats = bar
        .run_native(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(1u32, 1u32),
            params: &[ParamValue::Ptr(b)],
        })
        .unwrap();
    assert!(stats.instructions > 0);
    assert_eq!(bar.gpu().read_u32(b), 1);
}

#[test]
fn threaded_and_sync_agree() {
    // A mixed workload with barriers and shared memory.
    let source = src(
        ".reg .b32 %r<8>;\n.reg .b64 %rd<8>;\n\
         .shared .align 4 .b8 sm[128];\n\
         mov.u32 %r1, %tid.x;\n\
         mul.wide.s32 %rd2, %r1, 4;\n\
         mov.u64 %rd4, sm;\n\
         add.s64 %rd5, %rd4, %rd2;\n\
         st.shared.u32 [%rd5], %r1;\n\
         bar.sync 0;\n\
         ld.param.u64 %rd1, [buf];\n\
         ld.shared.u32 %r2, [%rd5];\n\
         st.global.u32 [%rd1], %r2;\n\
         ret;",
        ".param .u64 buf",
    );
    let run_with = |mode| {
        let mut bar = Engine::with_config(BarracudaConfig {
            mode,
            ..Default::default()
        });
        let buf = bar.gpu_mut().malloc(4);
        bar.check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(2u32, 32u32),
            params: &[ParamValue::Ptr(buf)],
        })
        .unwrap()
        .race_count()
    };
    assert_eq!(
        run_with(DetectionMode::Synchronous),
        run_with(DetectionMode::Threaded)
    );
}

#[test]
fn barrier_divergence_surfaces_as_sim_error() {
    let source = src(
        ".reg .pred %p;\n.reg .b32 %r<4>;\n\
         mov.u32 %r1, %tid.x;\n\
         setp.eq.s32 %p, %r1, 0;\n\
         @%p bra L;\n\
         bar.sync 0;\n\
         L:\n\
         ret;",
        "",
    );
    let mut bar = Engine::new();
    let err = bar
        .check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(1u32, 8u32),
            params: &[],
        })
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Sim(barracuda::SimError::BarrierDivergence { .. })
    ));
}

#[test]
fn parse_errors_propagate() {
    let mut bar = Engine::new();
    let err = bar
        .check(&KernelRun {
            source: "this is not ptx",
            kernel: "k",
            dims: GridDims::new(1u32, 1u32),
            params: &[],
        })
        .unwrap_err();
    assert!(matches!(err, Error::Ptx(_)));
}

/// A racy whole-grid counter: every thread of every block increments
/// `[ctr]` without atomics, producing records on every queue.
fn racy_counter_src() -> String {
    src(
        ".reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [ctr];\n\
         ld.global.u32 %r1, [%rd1];\n\
         add.s32 %r1, %r1, 1;\n\
         st.global.u32 [%rd1], %r1;\n\
         ret;",
        ".param .u64 ctr",
    )
}

fn chaos_config(plan: FaultPlan) -> BarracudaConfig {
    BarracudaConfig {
        mode: DetectionMode::Threaded,
        gpu: barracuda::GpuConfig {
            num_sms: 2,
            ..Default::default()
        },
        queues_per_sm: 1.0, // → 2 queues / 2 workers
        queue_capacity: 64,
        push_stall_budget: 4_096,
        fault_plan: Some(plan),
        ..BarracudaConfig::default()
    }
}

#[test]
fn injected_worker_panic_degrades_instead_of_aborting() {
    let source = racy_counter_src();
    let plan = FaultPlan::default().with_worker_panic(barracuda::WorkerPanic {
        worker: 0,
        after_records: 5,
    });
    let mut cfg = chaos_config(plan);
    // Small enough that the dead worker's queue overflows its stall
    // budget and sheds records.
    cfg.queue_capacity = 8;
    cfg.push_stall_budget = 512;
    let mut bar = Engine::with_config(cfg);
    let ctr = bar.gpu_mut().malloc(4);
    let a = bar
        .check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(32u32, 32u32),
            params: &[ParamValue::Ptr(ctr)],
        })
        .expect("check completes despite the panic");
    assert!(a.is_degraded(), "{:?}", a.diagnostics());
    assert!(a
        .diagnostics()
        .iter()
        .any(|d| matches!(d, barracuda::Diagnostic::WorkerPanic { worker: 0, .. })));
    let p = &a.stats().pipeline;
    assert_eq!(p.worker_panics, 1);
    assert_eq!(p.queues, 2);
    assert!(p.per_worker[0].panicked && !p.per_worker[1].panicked);
    // The surviving worker still processed its queue's events.
    assert!(p.per_worker[1].events > 0);
    // The panicked worker's queue backed up and shed records once the
    // stall budget ran out — accounted, not deadlocked.
    assert!(p.records_dropped > 0, "{p:?}");
    assert!(a
        .diagnostics()
        .iter()
        .any(|d| matches!(d, barracuda::Diagnostic::LostRecords { dropped, .. } if *dropped > 0)));
}

#[test]
fn full_queue_stall_window_counts_pressure_without_losing_records() {
    let source = racy_counter_src();
    // A consumer that stalls after every record for far longer than the
    // simulator takes to fill a 4-deep queue, so producers wait by
    // construction rather than by winning a race between the two
    // threads. The wait is bounded by a budget 64x the stall, and with a
    // live consumer nothing is lost.
    let plan = FaultPlan::default().with_consumer_stall(barracuda::ConsumerStall {
        every_records: 1,
        yields: 1 << 14,
    });
    let mut cfg = chaos_config(plan);
    cfg.queue_capacity = 4;
    cfg.push_stall_budget = 1 << 20;
    let mut bar = Engine::with_config(cfg);
    let ctr = bar.gpu_mut().malloc(4);
    let a = bar
        .check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(4u32, 32u32),
            params: &[ParamValue::Ptr(ctr)],
        })
        .unwrap();
    let p = &a.stats().pipeline;
    assert_eq!(
        p.records_dropped, 0,
        "stall-only chaos must not lose records"
    );
    assert_eq!(p.records_corrupt, 0);
    assert_eq!(p.worker_panics, 0);
    assert!(!a.is_degraded());
    assert!(p.queue_high_water >= 1 && p.queue_high_water <= 4, "{p:?}");
    assert!(
        p.producer_stall_cycles > 0,
        "a 4-deep queue must have stalled producers"
    );
    // All produced records were processed.
    assert_eq!(
        a.stats().records,
        p.per_worker.iter().map(|w| w.events).sum::<u64>()
    );
    assert!(
        a.race_count() > 0,
        "the racy counter must still be detected"
    );
}

#[test]
fn injected_drops_and_corruption_are_accounted() {
    let source = racy_counter_src();
    let plan = FaultPlan {
        seed: 9,
        drop_rate: 0.5,
        corrupt_rate: 0.2,
        ..FaultPlan::default()
    };
    let mut bar = Engine::with_config(chaos_config(plan));
    let ctr = bar.gpu_mut().malloc(4);
    let a = bar
        .check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(8u32, 32u32),
            params: &[ParamValue::Ptr(ctr)],
        })
        .unwrap();
    let p = &a.stats().pipeline;
    assert!(p.records_dropped > 0);
    assert!(p.records_corrupt > 0);
    assert!(a.is_degraded());
    // Produced = delivered-and-decoded + corrupt + dropped.
    let delivered: u64 = p.per_worker.iter().map(|w| w.events).sum();
    assert_eq!(
        a.stats().records,
        delivered + p.records_corrupt + p.records_dropped
    );
}

#[test]
fn stall_only_chaos_agrees_with_synchronous_verdict() {
    let source = racy_counter_src();
    let race_count = |cfg: BarracudaConfig| {
        let mut bar = Engine::with_config(cfg);
        let ctr = bar.gpu_mut().malloc(4);
        bar.check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(4u32, 32u32),
            params: &[ParamValue::Ptr(ctr)],
        })
        .unwrap()
        .race_count()
    };
    let sync = race_count(BarracudaConfig::default());
    for seed in [1u64, 2, 3] {
        assert_eq!(
            race_count(chaos_config(FaultPlan::stalls_only(seed))),
            sync,
            "seed {seed}"
        );
    }
}

#[test]
fn persistent_pool_survives_a_panicked_launch() {
    // A worker panic fails one launch; the *same* engine's next launch
    // must run on healthy workers again (the pool catches the panic in
    // its command loop instead of losing the thread).
    let source = racy_counter_src();
    let plan = FaultPlan::default().with_worker_panic(barracuda::WorkerPanic {
        worker: 0,
        after_records: 5,
    });
    // The default stall budget: the healed and baseline checks below
    // must not shed records when a healthy worker is descheduled. The
    // dead worker's queue still costs only one budget per launch, after
    // which the sink marks it wedged and drops at once.
    let mut cfg = chaos_config(plan);
    cfg.queue_capacity = 8;
    cfg.push_stall_budget = BarracudaConfig::default().push_stall_budget;
    let mut bar = Engine::with_config(cfg);
    let ctr = bar.gpu_mut().malloc(4);
    let run = |bar: &mut Engine, ctr| {
        bar.check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(32u32, 32u32),
            params: &[ParamValue::Ptr(ctr)],
        })
        .unwrap()
    };
    let first = run(&mut bar, ctr);
    assert!(first.is_degraded());
    // The fault plan re-fires per launch (deterministic coordinates), so
    // the second launch also degrades — but it *completes*, proving the
    // pool recovered the worker and purged the dead queue.
    let second = run(&mut bar, ctr);
    assert_eq!(second.stats().pipeline.worker_panics, 1);
    assert!(second.stats().pipeline.per_worker[1].events > 0);

    // Stronger than liveness: with the faults cleared, the *same* engine
    // must produce the exact verdict a fresh engine produces — the
    // panicked launches left no queue residue, no stale sync tickets and
    // no poisoned shadow behind. (A fresh buffer avoids carryover from
    // the degraded launches; same-stream ordering covers the rest.)
    bar.set_fault_plan(None);
    let fresh_ctr = bar.gpu_mut().malloc(4);
    let healed = bar
        .check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(32u32, 32u32),
            params: &[ParamValue::Ptr(fresh_ctr)],
        })
        .unwrap();
    assert!(!healed.is_degraded(), "{:?}", healed.diagnostics());
    assert_eq!(healed.stats().pipeline.worker_panics, 0);
    assert_eq!(healed.stats().pipeline.records_dropped, 0);

    let mut baseline_cfg = chaos_config(FaultPlan::default());
    baseline_cfg.fault_plan = None;
    baseline_cfg.queue_capacity = 8;
    baseline_cfg.push_stall_budget = BarracudaConfig::default().push_stall_budget;
    let mut fresh = Engine::with_config(baseline_cfg);
    let ctr2 = fresh.gpu_mut().malloc(4);
    let baseline = fresh
        .check(&KernelRun {
            source: &source,
            kernel: "k",
            dims: GridDims::new(32u32, 32u32),
            params: &[ParamValue::Ptr(ctr2)],
        })
        .unwrap();
    assert_eq!(
        healed.race_count(),
        baseline.race_count(),
        "post-panic engine must match a fresh engine's verdict"
    );
}

#[test]
fn per_stream_telemetry_tracks_each_streams_launches() {
    use barracuda::{Engine, StreamId};
    let source = racy_counter_src();
    let mut cfg = chaos_config(FaultPlan::default());
    cfg.fault_plan = None;
    let mut eng = Engine::with_config(cfg);
    let a_buf = eng.gpu_mut().malloc(4);
    let b_buf = eng.gpu_mut().malloc(4);
    let s1 = eng.create_stream();
    let launch = |eng: &mut Engine, sid: StreamId, buf| {
        eng.launch_async(
            sid,
            &KernelRun {
                source: &source,
                kernel: "k",
                dims: GridDims::new(4u32, 32u32),
                params: &[ParamValue::Ptr(buf)],
            },
        )
        .unwrap()
    };
    // Two launches on the default stream, one on stream 1.
    launch(&mut eng, StreamId::DEFAULT, a_buf);
    launch(&mut eng, StreamId::DEFAULT, a_buf);
    let last = launch(&mut eng, s1, b_buf);

    let streams = &last.stats().pipeline.per_stream;
    assert_eq!(streams.len(), 2, "{streams:?}");
    assert_eq!(streams[0].stream, 0);
    assert_eq!(streams[0].launches, 2);
    assert!(streams[0].records > 0);
    assert_eq!(streams[1].stream, s1.0);
    assert_eq!(streams[1].launches, 1);
    assert!(streams[1].records > 0);
    // Lossless run: per-stream drop counters stay zero, and the peak
    // depth observed by the later launch can only grow.
    assert_eq!(streams[0].dropped + streams[1].dropped, 0);
    assert!(streams[1].peak_depth >= 1);

    // The JSON schema carries the same counters.
    let text = barracuda::statsjson::document(&last, None, None).dump();
    let doc = barracuda::statsjson::parse(&text).unwrap();
    let js = doc
        .get("stats")
        .and_then(|s| s.get("pipeline"))
        .and_then(|p| p.get("per_stream"))
        .and_then(barracuda::statsjson::Json::as_arr)
        .expect("per_stream array");
    assert_eq!(js.len(), 2);
    assert_eq!(
        js[1]
            .get("launches")
            .and_then(barracuda::statsjson::Json::as_u64),
        Some(1)
    );
}
