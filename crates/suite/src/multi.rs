//! Multi-launch programs: inter-kernel and host↔device races.
//!
//! Unlike the 66 single-kernel programs, each [`MultiProgram`] is a small
//! *host program* — a sequence of kernel launches on CUDA streams, async
//! memcpys, and synchronization calls — run against one persistent
//! detection [`Engine`]. These exercise happens-before edges that only
//! exist because the engine's shadow memory and synchronization-location
//! map survive across launches: write-write conflicts between kernels on
//! different streams, host memcpys racing with in-flight kernels, and
//! flag handoffs whose release happened in an *earlier* launch. Each racy
//! program has synchronized or disjoint twins that must stay clean under
//! every co-resident schedule.

use crate::{module_src, Expectation, KERNEL, LIN_TID};
use barracuda::{BarracudaConfig, Engine, Error, KernelRun, RaceClass, RaceReport, StreamId};
use barracuda_simt::ParamValue;
use barracuda_trace::GridDims;

/// A kernel used by a multi-launch program.
#[derive(Debug, Clone)]
pub struct MultiKernel {
    /// Full PTX module source with entry [`KERNEL`].
    pub source: String,
    /// Launch dimensions.
    pub dims: GridDims,
    /// Arguments; `Buf(i)` is the i-th program buffer.
    pub args: Vec<MultiArg>,
}

/// Argument of a [`MultiKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiArg {
    /// Pointer to the i-th buffer of the program.
    Buf(usize),
    /// A scalar.
    U32(u32),
}

/// One step of a multi-launch program's host timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiStep {
    /// Launch `kernels[kernel]` on the stream.
    Launch {
        /// Stream index (0 is the default stream).
        stream: u32,
        /// Index into [`MultiProgram::kernels`].
        kernel: usize,
    },
    /// Async host→device copy of `bytes` bytes into the buffer's base.
    H2D {
        /// Stream index.
        stream: u32,
        /// Index into [`MultiProgram::buffers`].
        buf: usize,
        /// Bytes to copy.
        bytes: u64,
    },
    /// Async device→host copy of `bytes` bytes from the buffer's base.
    D2H {
        /// Stream index.
        stream: u32,
        /// Index into [`MultiProgram::buffers`].
        buf: usize,
        /// Bytes to copy.
        bytes: u64,
    },
    /// `cudaStreamSynchronize`.
    SyncStream {
        /// Stream index.
        stream: u32,
    },
    /// `cudaDeviceSynchronize`.
    SyncDevice,
}

/// A multi-launch / host-interaction program with its expected verdict.
#[derive(Debug, Clone)]
pub struct MultiProgram {
    /// Unique program name.
    pub name: &'static str,
    /// What the program exhibits.
    pub description: &'static str,
    /// Device buffer sizes (zero-initialized allocations).
    pub buffers: Vec<u64>,
    /// Streams beyond the default stream; steps may use ids `0..=extra_streams`.
    pub extra_streams: u32,
    /// Kernels the steps launch.
    pub kernels: Vec<MultiKernel>,
    /// The host timeline.
    pub steps: Vec<MultiStep>,
    /// Ground-truth verdict ([`Expectation::Race`] or [`Expectation::NoRace`]).
    pub expected: Expectation,
    /// When racy: the class every reported race must carry.
    pub class: Option<RaceClass>,
}

/// Runs a multi-launch program on one persistent engine built from
/// `config` and returns every race reported across the whole host
/// timeline. The pipeline-parity matrix replays every program this way in
/// both detection modes, eager and under every co-resident scheduling
/// policy, and compares race sets against the eager default. A trailing
/// [`Engine::flush_pending`] picks up launches still deferred when the
/// timeline ends (programs that end without a synchronization step).
pub fn run_multi_races_with(
    p: &MultiProgram,
    config: BarracudaConfig,
) -> Result<Vec<RaceReport>, Error> {
    let mut eng = Engine::with_config(config);
    for _ in 0..p.extra_streams {
        eng.create_stream();
    }
    let bufs: Vec<_> = p.buffers.iter().map(|b| eng.gpu_mut().malloc(*b)).collect();
    let mut races = Vec::new();
    for step in &p.steps {
        match *step {
            MultiStep::Launch { stream, kernel } => {
                let k = &p.kernels[kernel];
                let params: Vec<ParamValue> = k
                    .args
                    .iter()
                    .map(|a| match *a {
                        MultiArg::Buf(i) => ParamValue::Ptr(bufs[i]),
                        MultiArg::U32(v) => ParamValue::U32(v),
                    })
                    .collect();
                let run = KernelRun {
                    source: &k.source,
                    kernel: KERNEL,
                    dims: k.dims,
                    params: &params,
                };
                races.extend(eng.launch_async(StreamId(stream), &run)?.races().to_vec());
            }
            MultiStep::H2D { stream, buf, bytes } => {
                let data = vec![0xabu8; bytes as usize];
                races.extend(eng.memcpy_h2d(StreamId(stream), bufs[buf], &data)?);
            }
            MultiStep::D2H { stream, buf, bytes } => {
                let mut out = vec![0u8; bytes as usize];
                races.extend(eng.memcpy_d2h(StreamId(stream), bufs[buf], &mut out)?);
            }
            MultiStep::SyncStream { stream } => {
                races.extend(eng.stream_synchronize(StreamId(stream))?);
            }
            MultiStep::SyncDevice => races.extend(eng.device_synchronize()?),
        }
    }
    races.extend(eng.flush_pending()?);
    Ok(races)
}

/// Per-thread disjoint writer: thread i stores to `buf[i]`.
fn writer_kernel(dims: GridDims) -> MultiKernel {
    MultiKernel {
        source: module_src(
            ".param .u64 buf",
            &format!(
                "{LIN_TID}\
                 ld.param.u64 %rd1, [buf];\n\
                 mul.wide.u32 %rd2, %r27, 4;\n\
                 add.s64 %rd3, %rd1, %rd2;\n\
                 st.global.u32 [%rd3], %r27;\n\
                 ret;"
            ),
        ),
        dims,
        args: vec![MultiArg::Buf(0)],
    }
}

/// Per-thread disjoint reader: thread i loads `buf[i]`.
fn reader_kernel(dims: GridDims) -> MultiKernel {
    MultiKernel {
        source: module_src(
            ".param .u64 buf",
            &format!(
                "{LIN_TID}\
                 ld.param.u64 %rd1, [buf];\n\
                 mul.wide.u32 %rd2, %r27, 4;\n\
                 add.s64 %rd3, %rd1, %rd2;\n\
                 ld.global.u32 %r1, [%rd3];\n\
                 ret;"
            ),
        ),
        dims,
        args: vec![MultiArg::Buf(0)],
    }
}

/// Single-thread producer of a flag handoff: `buf[0]=42; fence; buf[4]=1`.
fn producer_kernel(fence: &str) -> MultiKernel {
    let body = if fence.is_empty() {
        "ld.param.u64 %rd1, [buf];\n\
         st.global.u32 [%rd1], 42;\n\
         st.global.u32 [%rd1+4], 1;\n\
         ret;"
            .to_string()
    } else {
        format!(
            "ld.param.u64 %rd1, [buf];\n\
             st.global.u32 [%rd1], 42;\n\
             {fence};\n\
             st.global.u32 [%rd1+4], 1;\n\
             ret;"
        )
    };
    MultiKernel {
        source: module_src(".param .u64 buf", &body),
        dims: GridDims::new(1u32, 1u32),
        args: vec![MultiArg::Buf(0)],
    }
}

/// Single-thread consumer of a flag handoff: spin on `buf[4]`, then read
/// `buf[0]` and publish it to `buf[8]`.
fn consumer_kernel(fence: &str) -> MultiKernel {
    let fence_line = if fence.is_empty() {
        String::new()
    } else {
        format!("{fence};\n")
    };
    MultiKernel {
        source: module_src(
            ".param .u64 buf",
            &format!(
                "ld.param.u64 %rd1, [buf];\n\
                 L_wait:\n\
                 ld.global.u32 %r1, [%rd1+4];\n\
                 {fence_line}\
                 setp.eq.s32 %p1, %r1, 0;\n\
                 @%p1 bra L_wait;\n\
                 ld.global.u32 %r2, [%rd1];\n\
                 st.global.u32 [%rd1+8], %r2;\n\
                 ret;"
            ),
        ),
        dims: GridDims::new(1u32, 1u32),
        args: vec![MultiArg::Buf(0)],
    }
}

/// All multi-launch programs. These are a separate family from
/// [`crate::all_programs`]'s 66 single-kernel programs.
pub fn multi_programs() -> Vec<MultiProgram> {
    let dims = GridDims::new(1u32, 8u32);
    // Two blocks of one full warp each.
    let wide = GridDims::new(2u32, 32u32);
    vec![
        MultiProgram {
            name: "multi_xstream_ww_interkernel_race",
            description: "same writer kernel on two streams, overlapping addresses; \
                      the conflict spans launches and is visible only because \
                      shadow memory persists across them",
            buffers: vec![32],
            extra_streams: 1,
            kernels: vec![writer_kernel(dims)],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::Launch {
                    stream: 1,
                    kernel: 0,
                },
            ],
            expected: Expectation::Race,
            class: Some(RaceClass::InterKernel),
        },
        MultiProgram {
            name: "multi_same_stream_ww_norace",
            description: "same writer kernel twice on one stream: stream order is HB",
            buffers: vec![32],
            extra_streams: 0,
            kernels: vec![writer_kernel(dims)],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_device_sync_cuts_race",
            description: "cross-stream writer conflict separated by cudaDeviceSynchronize",
            buffers: vec![32],
            extra_streams: 1,
            kernels: vec![writer_kernel(dims)],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::SyncDevice,
                MultiStep::Launch {
                    stream: 1,
                    kernel: 0,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_stream_sync_cuts_race",
            description: "cross-stream writer conflict separated by cudaStreamSynchronize \
                      of the first stream",
            buffers: vec![32],
            extra_streams: 1,
            kernels: vec![writer_kernel(dims)],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::SyncStream { stream: 0 },
                MultiStep::Launch {
                    stream: 1,
                    kernel: 0,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_h2d_vs_inflight_kernel_race",
            description: "host memcpy into a buffer a kernel on another stream is writing",
            buffers: vec![32],
            extra_streams: 1,
            kernels: vec![writer_kernel(dims)],
            steps: vec![
                MultiStep::Launch {
                    stream: 1,
                    kernel: 0,
                },
                MultiStep::H2D {
                    stream: 0,
                    buf: 0,
                    bytes: 32,
                },
            ],
            expected: Expectation::Race,
            class: Some(RaceClass::HostDevice),
        },
        MultiProgram {
            name: "multi_h2d_after_stream_sync_norace",
            description: "host memcpy after synchronizing the writing stream",
            buffers: vec![32],
            extra_streams: 1,
            kernels: vec![writer_kernel(dims)],
            steps: vec![
                MultiStep::Launch {
                    stream: 1,
                    kernel: 0,
                },
                MultiStep::SyncStream { stream: 1 },
                MultiStep::H2D {
                    stream: 0,
                    buf: 0,
                    bytes: 32,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_d2h_vs_inflight_kernel_race",
            description: "host readback of a buffer a kernel on another stream is writing",
            buffers: vec![32],
            extra_streams: 1,
            kernels: vec![writer_kernel(dims)],
            steps: vec![
                MultiStep::Launch {
                    stream: 1,
                    kernel: 0,
                },
                MultiStep::D2H {
                    stream: 0,
                    buf: 0,
                    bytes: 32,
                },
            ],
            expected: Expectation::Race,
            class: Some(RaceClass::HostDevice),
        },
        MultiProgram {
            name: "multi_h2d_then_launch_read_norace",
            description: "kernel reads a buffer the host populated before the launch: \
                      launches are ordered after prior host operations",
            buffers: vec![32],
            extra_streams: 1,
            kernels: vec![reader_kernel(dims)],
            steps: vec![
                MultiStep::H2D {
                    stream: 0,
                    buf: 0,
                    bytes: 32,
                },
                MultiStep::Launch {
                    stream: 1,
                    kernel: 0,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_flag_handoff_across_launches_norace",
            description: "producer kernel releases a flag with membar.gl; a later \
                      consumer launch on another stream acquires it — HB exists \
                      only because sync locations persist across launches",
            buffers: vec![12],
            extra_streams: 1,
            kernels: vec![producer_kernel("membar.gl"), consumer_kernel("membar.gl")],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::Launch {
                    stream: 1,
                    kernel: 1,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_flag_handoff_no_fence_race",
            description: "the same cross-launch handoff without fences: plain flag \
                      accesses do not synchronize, so the data transfer races",
            buffers: vec![12],
            extra_streams: 1,
            kernels: vec![producer_kernel(""), consumer_kernel("")],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::Launch {
                    stream: 1,
                    kernel: 1,
                },
            ],
            expected: Expectation::Race,
            class: Some(RaceClass::InterKernel),
        },
        MultiProgram {
            name: "multi_parallel_readers_norace",
            description: "one writer launch, device sync, then concurrent read-only \
                      launches on two streams: reads never conflict",
            buffers: vec![32],
            extra_streams: 2,
            kernels: vec![writer_kernel(dims), reader_kernel(dims)],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::SyncDevice,
                MultiStep::Launch {
                    stream: 1,
                    kernel: 1,
                },
                MultiStep::Launch {
                    stream: 2,
                    kernel: 1,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_flag_handoff_device_sync_norace",
            description: "the unfenced handoff with cudaDeviceSynchronize between the \
                      launches: the host barrier orders the consumer after the producer",
            buffers: vec![12],
            extra_streams: 1,
            kernels: vec![producer_kernel(""), consumer_kernel("")],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::SyncDevice,
                MultiStep::Launch {
                    stream: 1,
                    kernel: 1,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_flag_handoff_stream_sync_norace",
            description: "the unfenced handoff with cudaStreamSynchronize of the \
                      producer's stream between the launches",
            buffers: vec![12],
            extra_streams: 1,
            kernels: vec![producer_kernel(""), consumer_kernel("")],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::SyncStream { stream: 0 },
                MultiStep::Launch {
                    stream: 1,
                    kernel: 1,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
        MultiProgram {
            name: "multi_stride_overlap_race",
            description: "multi_xstream_ww_interkernel_race with two blocks of a \
                      full warp per launch: each launch has more than one warp, so \
                      a co-resident schedule interleaves the two launches' stores",
            buffers: vec![256],
            extra_streams: 1,
            kernels: vec![writer_kernel(wide)],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::Launch {
                    stream: 1,
                    kernel: 0,
                },
            ],
            expected: Expectation::Race,
            class: Some(RaceClass::InterKernel),
        },
        MultiProgram {
            name: "multi_stride_disjoint_norace",
            description: "the two-block writer on two streams, each launch over its \
                      own buffer",
            buffers: vec![256, 256],
            extra_streams: 1,
            kernels: vec![
                writer_kernel(wide),
                MultiKernel {
                    args: vec![MultiArg::Buf(1)],
                    ..writer_kernel(wide)
                },
            ],
            steps: vec![
                MultiStep::Launch {
                    stream: 0,
                    kernel: 0,
                },
                MultiStep::Launch {
                    stream: 1,
                    kernel: 1,
                },
            ],
            expected: Expectation::NoRace,
            class: None,
        },
    ]
}

/// Looks up a multi-launch program by name.
pub fn multi_program(name: &str) -> Option<MultiProgram> {
    multi_programs().into_iter().find(|p| p.name == name)
}
