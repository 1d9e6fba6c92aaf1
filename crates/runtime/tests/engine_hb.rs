//! Happens-before litmus tests for the persistent engine's CUDA-style
//! host API: stream ordering, synchronization edges, and host↔device
//! memcpy races — checked end-to-end through real PTX launches.

use barracuda::{
    BarracudaConfig, DetectionMode, Engine, Error, GridDims, HostOp, KernelRun, ParamValue,
    RaceClass, SimError, StreamId,
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

/// One thread loads from `[p]`.
fn reader() -> String {
    format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .b32 %r<2>;\n.reg .b64 %rd<2>;\n\
         ld.param.u64 %rd1, [p];\n\
         ld.global.u32 %r1, [%rd1];\n\
         ret;\n}}"
    )
}

fn run<'a>(source: &'a str, params: &'a [ParamValue]) -> KernelRun<'a> {
    KernelRun {
        source,
        kernel: "k",
        dims: GridDims::new(1u32, 1u32),
        params,
    }
}

/// Every thread stores its tid to `p[tid]`; with `diverge`, thread 0
/// then returns while the rest wait at `bar.sync` (barrier divergence).
fn tid_writer(diverge: bool) -> String {
    let tail = if diverge {
        "setp.eq.u32 %p1, %r1, 0;\n@%p1 bra L_out;\nbar.sync 0;\nL_out:\n"
    } else {
        ""
    };
    format!(
        "{HEADER}.visible .entry k(.param .u64 p)\n{{\n\
         .reg .pred %p<2>;\n.reg .b32 %r<2>;\n.reg .b64 %rd<4>;\n\
         mov.u32 %r1, %tid.x;\n\
         ld.param.u64 %rd1, [p];\n\
         mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r1;\n\
         {tail}ret;\n}}"
    )
}

#[test]
fn failed_launch_still_orders_its_stream() {
    // A launch that dies at a divergent barrier has already logged its
    // stores (and, threaded, applied them to the persistent shadow). It
    // keeps its place in stream order, so the next same-stream launch
    // writing the same bytes is ordered after it: no inter-kernel race.
    let (failing, clean) = (tid_writer(true), tid_writer(false));
    for mode in [DetectionMode::Synchronous, DetectionMode::Threaded] {
        let mut eng = Engine::with_config(BarracudaConfig {
            mode,
            ..BarracudaConfig::default()
        });
        let buf = eng.gpu_mut().malloc(64 * 4);
        let params = [ParamValue::Ptr(buf)];
        let dims = GridDims::new(1u32, 64u32);
        let err = eng
            .launch_async(
                StreamId::DEFAULT,
                &KernelRun {
                    dims,
                    ..run(&failing, &params)
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, Error::Sim(SimError::BarrierDivergence { .. })),
            "{mode:?}: {err}"
        );
        let a = eng
            .launch_async(
                StreamId::DEFAULT,
                &KernelRun {
                    dims,
                    ..run(&clean, &params)
                },
            )
            .unwrap();
        assert_eq!(a.race_count(), 0, "{mode:?}: {:?}", a.races());
        // The failed launch keeps its summary and host-trace entry.
        assert_eq!(eng.launches().len(), 2, "{mode:?}");
        let launches = eng
            .host_trace()
            .iter()
            .filter(|op| matches!(op, HostOp::LaunchKernel { .. }))
            .count();
        assert_eq!(launches, 2, "{mode:?}");
    }
}

#[test]
fn same_stream_launches_are_ordered() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let a1 = eng
        .launch_async(StreamId::DEFAULT, &run(&src, &params))
        .unwrap();
    let a2 = eng
        .launch_async(StreamId::DEFAULT, &run(&src, &params))
        .unwrap();
    assert_eq!(a1.race_count(), 0);
    assert_eq!(a2.race_count(), 0, "{:?}", a2.races());
}

#[test]
fn cross_stream_conflict_is_an_inter_kernel_race() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let s1 = eng.create_stream();
    let a1 = eng
        .launch_async(StreamId::DEFAULT, &run(&src, &params))
        .unwrap();
    let a2 = eng.launch_async(s1, &run(&src, &params)).unwrap();
    assert_eq!(a1.race_count(), 0);
    assert_eq!(a2.race_count(), 1, "{:?}", a2.races());
    assert_eq!(a2.races()[0].class, RaceClass::InterKernel);
}

#[test]
fn cross_stream_disjoint_addresses_are_clean() {
    let mut eng = Engine::new();
    let a = eng.gpu_mut().malloc(4);
    let b = eng.gpu_mut().malloc(4);
    let src = writer();
    let pa = [ParamValue::Ptr(a)];
    let pb = [ParamValue::Ptr(b)];
    let s1 = eng.create_stream();
    let a1 = eng
        .launch_async(StreamId::DEFAULT, &run(&src, &pa))
        .unwrap();
    let a2 = eng.launch_async(s1, &run(&src, &pb)).unwrap();
    assert_eq!(a1.race_count() + a2.race_count(), 0);
}

#[test]
fn device_synchronize_cuts_the_cross_stream_race() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let s1 = eng.create_stream();
    eng.launch_async(StreamId::DEFAULT, &run(&src, &params))
        .unwrap();
    eng.device_synchronize().unwrap();
    let a2 = eng.launch_async(s1, &run(&src, &params)).unwrap();
    assert_eq!(a2.race_count(), 0, "{:?}", a2.races());
}

#[test]
fn stream_synchronize_cuts_the_cross_stream_race() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let s1 = eng.create_stream();
    eng.launch_async(StreamId::DEFAULT, &run(&src, &params))
        .unwrap();
    eng.stream_synchronize(StreamId::DEFAULT).unwrap();
    let a2 = eng.launch_async(s1, &run(&src, &params)).unwrap();
    assert_eq!(a2.race_count(), 0, "{:?}", a2.races());
}

#[test]
fn h2d_memcpy_races_with_inflight_kernel() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let s1 = eng.create_stream();
    // Kernel writes buf on stream 1; the host memcpy on the default
    // stream does not wait for stream 1.
    eng.launch_async(s1, &run(&src, &params)).unwrap();
    let races = eng
        .memcpy_h2d(StreamId::DEFAULT, buf, &7u32.to_le_bytes())
        .unwrap();
    assert_eq!(races.len(), 1, "{races:?}");
    assert_eq!(races[0].class, RaceClass::HostDevice);
}

#[test]
fn d2h_memcpy_races_with_inflight_kernel_write() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let s1 = eng.create_stream();
    eng.launch_async(s1, &run(&src, &params)).unwrap();
    let mut out = [0u8; 4];
    let races = eng.memcpy_d2h(StreamId::DEFAULT, buf, &mut out).unwrap();
    assert_eq!(races.len(), 1, "{races:?}");
    assert_eq!(races[0].class, RaceClass::HostDevice);
}

#[test]
fn memcpy_after_stream_synchronize_is_clean() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let s1 = eng.create_stream();
    eng.launch_async(s1, &run(&src, &params)).unwrap();
    eng.stream_synchronize(s1).unwrap();
    let races = eng
        .memcpy_h2d(StreamId::DEFAULT, buf, &7u32.to_le_bytes())
        .unwrap();
    assert!(races.is_empty(), "{races:?}");
    assert_eq!(eng.gpu().read_u32(buf), 7);
}

#[test]
fn same_stream_memcpy_is_ordered_with_its_kernel() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    // Same stream: the copy waits for the kernel (stream order), no race.
    eng.launch_async(StreamId::DEFAULT, &run(&src, &params))
        .unwrap();
    let races = eng
        .memcpy_h2d(StreamId::DEFAULT, buf, &7u32.to_le_bytes())
        .unwrap();
    assert!(races.is_empty(), "{races:?}");
}

#[test]
fn kernel_after_h2d_sees_the_host_write() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = reader();
    let params = [ParamValue::Ptr(buf)];
    let s1 = eng.create_stream();
    // Launches are ordered after all prior host operations, on any stream.
    let races = eng
        .memcpy_h2d(StreamId::DEFAULT, buf, &7u32.to_le_bytes())
        .unwrap();
    assert!(races.is_empty());
    let a = eng.launch_async(s1, &run(&src, &params)).unwrap();
    assert_eq!(a.race_count(), 0, "{:?}", a.races());
}

#[test]
fn host_trace_records_the_device_lifetime() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let other = eng.gpu_mut().malloc(8);
    let s1 = eng.create_stream();
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    eng.memcpy_h2d(StreamId::DEFAULT, buf, &0u32.to_le_bytes())
        .unwrap();
    eng.launch_async(StreamId::DEFAULT, &run(&src, &params))
        .unwrap();
    eng.stream_synchronize(StreamId::DEFAULT).unwrap();
    let mut out = [0u8; 4];
    eng.memcpy_d2h(StreamId::DEFAULT, buf, &mut out).unwrap();
    eng.memcpy_h2d(s1, other, &[7u8; 8]).unwrap();
    eng.memcpy_d2h(s1, other.offset(4), &mut out).unwrap();
    eng.device_synchronize().unwrap();
    assert_eq!(out, [7u8; 4]);
    assert_eq!(
        eng.host_trace(),
        [
            HostOp::MemcpyH2D {
                stream: 0,
                dst: buf.0,
                len: 4
            },
            HostOp::LaunchKernel {
                stream: 0,
                epoch: 0
            },
            HostOp::StreamSynchronize { stream: 0 },
            HostOp::MemcpyD2H {
                stream: 0,
                src: buf.0,
                len: 4
            },
            HostOp::MemcpyH2D {
                stream: 1,
                dst: other.0,
                len: 8
            },
            HostOp::MemcpyD2H {
                stream: 1,
                src: other.0 + 4,
                len: 4
            },
            HostOp::DeviceSynchronize,
        ]
    );
    assert_eq!(eng.launches().len(), 1);
    assert_eq!(eng.launches()[0].kernel, "k");
}

#[test]
fn module_cache_reuses_one_instrumentation() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    eng.check(&run(&src, &params)).unwrap();
    eng.check(&run(&src, &params)).unwrap();
    eng.check(&run(&src, &params)).unwrap();
    assert_eq!(eng.module_cache_len(), 1, "one source → one rewrite");
    assert_eq!(eng.module_cache_hits(), 2);
    // A different module is a different cache entry.
    let src2 = reader();
    eng.check(&run(&src2, &params)).unwrap();
    assert_eq!(eng.module_cache_len(), 2);
}

#[test]
fn warp_size_sweep_reuses_the_cached_module() {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(4);
    let src = writer();
    let params = [ParamValue::Ptr(buf)];
    let results = eng
        .check_warp_sizes(&run(&src, &params), &[32, 16, 8, 4])
        .unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(eng.module_cache_len(), 1);
    assert_eq!(eng.module_cache_hits(), 3);
}
