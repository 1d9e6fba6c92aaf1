//! The device: memory, configuration and the kernel-launch entry points
//! (the warp scheduler itself is in [`crate::coresident`]).

use barracuda_ptx::ast::Module;
use barracuda_trace::{CancelToken, GridDims};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{GpuConfig, SimError};
use crate::coresident::{GroupLaunch, SchedPolicy};
use crate::kernel::LoadedKernel;
use crate::mem::GlobalMemory;
use crate::sink::EventSink;

/// A device global-memory address returned by [`Gpu::malloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// The raw address, offset by `bytes`.
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }
}

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
pub enum ParamValue {
    Ptr(DevicePtr),
    U64(u64),
    U32(u32),
    I32(i32),
    F32(f32),
    F64(f64),
}

impl ParamValue {
    /// The 8-byte slot representation of this argument.
    pub fn to_bits(self) -> u64 {
        match self {
            ParamValue::Ptr(p) => p.0,
            ParamValue::U64(v) => v,
            ParamValue::U32(v) => u64::from(v),
            ParamValue::I32(v) => u64::from(v as u32),
            ParamValue::F32(v) => u64::from(v.to_bits()),
            ParamValue::F64(v) => v.to_bits(),
        }
    }
}

/// A kernel argument as a request describes it: a zeroed device buffer to
/// allocate, or a scalar. Written `buf:<bytes>` / `u32:<value>` on the
/// command line ([`FromStr`](std::str::FromStr) and
/// [`Display`](std::fmt::Display) round-trip that syntax); turned into
/// [`ParamValue`]s by [`Gpu::alloc_args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgSpec {
    /// A zero-initialized device buffer of this many bytes.
    Buf(u64),
    /// A `u32` scalar.
    U32(u32),
}

impl std::str::FromStr for ArgSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.split_once(':') {
            Some(("buf", n)) => n
                .parse()
                .map(ArgSpec::Buf)
                .map_err(|e| format!("bad buffer size '{n}': {e}")),
            Some(("u32", v)) => v
                .parse()
                .map(ArgSpec::U32)
                .map_err(|e| format!("bad u32 '{v}': {e}")),
            _ => Err(format!(
                "bad argument '{s}' (expected buf:<bytes> or u32:<value>)"
            )),
        }
    }
}

impl std::fmt::Display for ArgSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgSpec::Buf(n) => write!(f, "buf:{n}"),
            ArgSpec::U32(v) => write!(f, "u32:{v}"),
        }
    }
}

/// Statistics from one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Warp-instructions executed.
    pub instructions: u64,
    /// Block barriers completed.
    pub barriers: u64,
}

/// The simulated GPU: global memory plus the warp scheduler.
#[derive(Debug)]
pub struct Gpu {
    pub(crate) config: GpuConfig,
    pub(crate) global: GlobalMemory,
    pub(crate) rng: StdRng,
    pub(crate) cancel: Option<CancelToken>,
}

impl Gpu {
    /// Creates a device with the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let global = GlobalMemory::new(config.memory_model);
        Gpu {
            config,
            global,
            rng,
            cancel: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Attaches a cooperative cancellation token: the scheduler checks it
    /// at every slice boundary and aborts the launch with
    /// [`SimError::Cancelled`] once it fires. `None` detaches.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Overrides the step budget ([`GpuConfig::max_steps`]) for future
    /// launches — the per-request deadline knob of a serving engine.
    pub fn set_max_steps(&mut self, max_steps: u64) {
        self.config.max_steps = max_steps;
    }

    /// Reseeds the scheduler / weak-memory RNG (for litmus campaigns).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Allocates `size` zeroed bytes of global memory.
    pub fn malloc(&mut self, size: u64) -> DevicePtr {
        DevicePtr(self.global.malloc(size))
    }

    /// Allocates a fresh zeroed buffer for each [`ArgSpec::Buf`] and
    /// returns the launch arguments in order.
    pub fn alloc_args(&mut self, args: &[ArgSpec]) -> Vec<ParamValue> {
        args.iter()
            .map(|a| match *a {
                ArgSpec::Buf(bytes) => ParamValue::Ptr(self.malloc(bytes)),
                ArgSpec::U32(v) => ParamValue::U32(v),
            })
            .collect()
    }

    /// Total global memory allocated so far (Table 1, column 4).
    pub fn allocated_bytes(&self) -> u64 {
        self.global.allocated_bytes()
    }

    /// Host write to device memory.
    ///
    /// # Panics
    ///
    /// Panics on writes to unallocated memory.
    pub fn write_bytes(&mut self, ptr: DevicePtr, data: &[u8]) {
        self.global
            .write_bytes(ptr.0, data)
            .expect("host write to unallocated memory");
    }

    /// Host read from device memory.
    ///
    /// # Panics
    ///
    /// Panics on reads from unallocated memory.
    pub fn read_bytes(&self, ptr: DevicePtr, out: &mut [u8]) {
        self.global
            .read_bytes(ptr.0, out)
            .expect("host read from unallocated memory");
    }

    /// Writes a slice of `u32`s starting at `ptr`.
    pub fn write_u32s(&mut self, ptr: DevicePtr, vals: &[u32]) {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_bytes(ptr, &bytes);
    }

    /// Reads `n` `u32`s starting at `ptr`.
    pub fn read_u32s(&self, ptr: DevicePtr, n: usize) -> Vec<u32> {
        let mut bytes = vec![0u8; n * 4];
        self.read_bytes(ptr, &mut bytes);
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect()
    }

    /// Reads one `u32`.
    pub fn read_u32(&self, ptr: DevicePtr) -> u32 {
        self.read_u32s(ptr, 1)[0]
    }

    /// Launches `kernel` from `module` without event logging.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for unknown kernels, bad parameter counts
    /// and runtime faults (barrier divergence, invalid accesses, timeout).
    pub fn launch(
        &mut self,
        module: &Module,
        kernel: &str,
        dims: GridDims,
        params: &[ParamValue],
    ) -> Result<LaunchStats, SimError> {
        let lk = LoadedKernel::load(module, kernel)?;
        self.launch_loaded(&lk, dims, params, None)
    }

    /// Launches with an event sink receiving the device-side log records.
    ///
    /// # Errors
    ///
    /// Same as [`Gpu::launch`].
    pub fn launch_with_sink(
        &mut self,
        module: &Module,
        kernel: &str,
        dims: GridDims,
        params: &[ParamValue],
        sink: &dyn EventSink,
    ) -> Result<LaunchStats, SimError> {
        let lk = LoadedKernel::load(module, kernel)?;
        self.launch_loaded(&lk, dims, params, Some(sink))
    }

    /// Launches a pre-loaded kernel (avoids repeated CFG construction):
    /// a co-resident group of one (see [`Gpu::launch_group`]), so every
    /// launch runs through the same scheduler.
    ///
    /// # Errors
    ///
    /// Same as [`Gpu::launch`].
    pub fn launch_loaded(
        &mut self,
        lk: &LoadedKernel,
        dims: GridDims,
        params: &[ParamValue],
        sink: Option<&dyn EventSink>,
    ) -> Result<LaunchStats, SimError> {
        let launch = GroupLaunch {
            lk,
            dims,
            params,
            dep: None,
        };
        let outcome = self.launch_group(&[launch], SchedPolicy::RoundRobin, sink)?;
        Ok(outcome.stats[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryModel;

    fn module(body: &str, params: &str) -> Module {
        barracuda_ptx::parse(&format!(
            ".version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k({params})\n{{\n{body}\n}}"
        ))
        .unwrap()
    }

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::default())
    }

    #[test]
    fn arg_specs_parse_print_and_allocate() {
        for (text, spec) in [("buf:64", ArgSpec::Buf(64)), ("u32:7", ArgSpec::U32(7))] {
            assert_eq!(text.parse::<ArgSpec>(), Ok(spec));
            assert_eq!(spec.to_string(), text);
        }
        for bad in ["buf", "buf:-1", "u32:4294967296", "f32:1.0"] {
            assert!(bad.parse::<ArgSpec>().is_err(), "{bad}");
        }
        let mut g = gpu();
        let params = g.alloc_args(&[ArgSpec::Buf(8), ArgSpec::U32(3), ArgSpec::Buf(8)]);
        assert!(
            matches!(params[..], [ParamValue::Ptr(a), ParamValue::U32(3), ParamValue::Ptr(b)] if a != b)
        );
        assert_eq!(g.allocated_bytes(), 16);
    }

    #[test]
    fn fill_with_linear_tid() {
        let m = module(
            ".reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
             mov.u32 %r1, %tid.x;\n\
             mov.u32 %r2, %ctaid.x;\n\
             mov.u32 %r3, %ntid.x;\n\
             mad.lo.s32 %r4, %r2, %r3, %r1;\n\
             ld.param.u64 %rd1, [out];\n\
             mul.wide.s32 %rd2, %r4, 4;\n\
             add.s64 %rd3, %rd1, %rd2;\n\
             st.global.u32 [%rd3], %r4;\n\
             ret;",
            ".param .u64 out",
        );
        let mut g = gpu();
        let out = g.malloc(32 * 4);
        g.launch(&m, "k", GridDims::new(4u32, 8u32), &[ParamValue::Ptr(out)])
            .unwrap();
        let v = g.read_u32s(out, 32);
        assert_eq!(v, (0..32).collect::<Vec<u32>>());
    }

    #[test]
    fn divergent_branch_both_paths_execute() {
        // Even lanes write 1, odd lanes write 2.
        let m = module(
            ".reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
             mov.u32 %r1, %tid.x;\n\
             ld.param.u64 %rd1, [out];\n\
             mul.wide.s32 %rd2, %r1, 4;\n\
             add.s64 %rd3, %rd1, %rd2;\n\
             and.b32 %r2, %r1, 1;\n\
             setp.eq.s32 %p, %r2, 0;\n\
             @%p bra L_even;\n\
             st.global.u32 [%rd3], 2;\n\
             bra.uni L_end;\n\
             L_even:\n\
             st.global.u32 [%rd3], 1;\n\
             L_end:\n\
             ret;",
            ".param .u64 out",
        );
        let mut g = gpu();
        let out = g.malloc(8 * 4);
        g.launch(&m, "k", GridDims::new(1u32, 8u32), &[ParamValue::Ptr(out)])
            .unwrap();
        let v = g.read_u32s(out, 8);
        assert_eq!(v, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn loop_accumulates() {
        // Each thread computes sum 0..10 and stores it.
        let m = module(
            ".reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
             mov.u32 %r1, 0;\n\
             mov.u32 %r2, 0;\n\
             L_loop:\n\
             add.s32 %r1, %r1, %r2;\n\
             add.s32 %r2, %r2, 1;\n\
             setp.lt.s32 %p, %r2, 10;\n\
             @%p bra L_loop;\n\
             ld.param.u64 %rd1, [out];\n\
             mov.u32 %r3, %tid.x;\n\
             mul.wide.s32 %rd2, %r3, 4;\n\
             add.s64 %rd3, %rd1, %rd2;\n\
             st.global.u32 [%rd3], %r1;\n\
             ret;",
            ".param .u64 out",
        );
        let mut g = gpu();
        let out = g.malloc(4 * 4);
        g.launch(&m, "k", GridDims::new(1u32, 4u32), &[ParamValue::Ptr(out)])
            .unwrap();
        assert_eq!(g.read_u32s(out, 4), vec![45; 4]);
    }

    #[test]
    fn shared_memory_with_barrier_reverses() {
        // Block-local reverse through shared memory.
        let m = module(
            ".reg .b32 %r<8>;\n.reg .b64 %rd<8>;\n\
             .shared .align 4 .b8 sm[32];\n\
             mov.u32 %r1, %tid.x;\n\
             ld.param.u64 %rd1, [out];\n\
             mul.wide.s32 %rd2, %r1, 4;\n\
             mov.u64 %rd4, sm;\n\
             add.s64 %rd5, %rd4, %rd2;\n\
             st.shared.u32 [%rd5], %r1;\n\
             bar.sync 0;\n\
             sub.s32 %r2, 7, %r1;\n\
             mul.wide.s32 %rd6, %r2, 4;\n\
             add.s64 %rd7, %rd4, %rd6;\n\
             ld.shared.u32 %r3, [%rd7];\n\
             add.s64 %rd3, %rd1, %rd2;\n\
             st.global.u32 [%rd3], %r3;\n\
             ret;",
            ".param .u64 out",
        );
        let mut g = gpu();
        let out = g.malloc(8 * 4);
        let stats = g
            .launch(
                &m,
                "k",
                GridDims::with_warp_size(1u32, 8u32, 4),
                &[ParamValue::Ptr(out)],
            )
            .unwrap();
        assert_eq!(g.read_u32s(out, 8), vec![7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(stats.barriers, 1);
    }

    #[test]
    fn atomics_count_all_threads() {
        let m = module(
            ".reg .b32 %r<4>;\n.reg .b64 %rd<2>;\n\
             ld.param.u64 %rd1, [ctr];\n\
             atom.global.add.u32 %r1, [%rd1], 1;\n\
             ret;",
            ".param .u64 ctr",
        );
        let mut g = gpu();
        let ctr = g.malloc(4);
        g.launch(&m, "k", GridDims::new(4u32, 32u32), &[ParamValue::Ptr(ctr)])
            .unwrap();
        assert_eq!(g.read_u32(ctr), 128);
    }

    #[test]
    fn barrier_divergence_detected() {
        // Only even threads reach the barrier.
        let m = module(
            ".reg .pred %p;\n.reg .b32 %r<4>;\n\
             mov.u32 %r1, %tid.x;\n\
             and.b32 %r2, %r1, 1;\n\
             setp.eq.s32 %p, %r2, 1;\n\
             @%p bra L_skip;\n\
             bar.sync 0;\n\
             L_skip:\n\
             ret;",
            "",
        );
        let mut g = gpu();
        let err = g
            .launch(&m, "k", GridDims::new(1u32, 8u32), &[])
            .unwrap_err();
        assert!(matches!(err, SimError::BarrierDivergence { .. }), "{err:?}");
    }

    #[test]
    fn exited_thread_hangs_barrier() {
        // Thread 0 returns before the barrier → divergence.
        let m = module(
            ".reg .pred %p;\n.reg .b32 %r<4>;\n\
             mov.u32 %r1, %tid.x;\n\
             setp.eq.s32 %p, %r1, 0;\n\
             @%p bra L_out;\n\
             bar.sync 0;\n\
             L_out:\n\
             ret;",
            "",
        );
        let mut g = gpu();
        let err = g
            .launch(&m, "k", GridDims::new(1u32, 4u32), &[])
            .unwrap_err();
        assert!(matches!(err, SimError::BarrierDivergence { .. }), "{err:?}");
    }

    #[test]
    fn guarded_ret_partial_exit() {
        // Lanes 0..2 exit early; lanes 2..4 still write.
        let m = module(
            ".reg .pred %p;\n.reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
             mov.u32 %r1, %tid.x;\n\
             setp.lt.s32 %p, %r1, 2;\n\
             @%p ret;\n\
             ld.param.u64 %rd1, [out];\n\
             mul.wide.s32 %rd2, %r1, 4;\n\
             add.s64 %rd3, %rd1, %rd2;\n\
             st.global.u32 [%rd3], 9;\n\
             ret;",
            ".param .u64 out",
        );
        let mut g = gpu();
        let out = g.malloc(4 * 4);
        g.launch(&m, "k", GridDims::new(1u32, 4u32), &[ParamValue::Ptr(out)])
            .unwrap();
        assert_eq!(g.read_u32s(out, 4), vec![0, 0, 9, 9]);
    }

    #[test]
    fn multi_block_grid_under_weak_memory_completes() {
        let m = module(
            ".reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
             ld.param.u64 %rd1, [out];\n\
             mov.u32 %r1, %ctaid.x;\n\
             mul.wide.s32 %rd2, %r1, 4;\n\
             add.s64 %rd3, %rd1, %rd2;\n\
             st.global.u32 [%rd3], %r1;\n\
             membar.cta;\n\
             st.global.u32 [%rd3], %r1;\n\
             ret;",
            ".param .u64 out",
        );
        let mut g = Gpu::new(GpuConfig {
            memory_model: MemoryModel::KeplerK520,
            ..GpuConfig::default()
        });
        let out = g.malloc(4 * 4);
        g.launch(&m, "k", GridDims::new(4u32, 1u32), &[ParamValue::Ptr(out)])
            .unwrap();
        // end_kernel drains buffers: final values must be visible.
        assert_eq!(g.read_u32s(out, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn timeout_on_infinite_loop() {
        let m = module("L:\nbra.uni L;\nret;", "");
        let mut g = Gpu::new(GpuConfig {
            max_steps: 10_000,
            ..GpuConfig::default()
        });
        let err = g
            .launch(&m, "k", GridDims::new(1u32, 1u32), &[])
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }));
    }

    #[test]
    fn param_count_mismatch() {
        let m = module("ret;", ".param .u64 a");
        let mut g = gpu();
        assert!(matches!(
            g.launch(&m, "k", GridDims::new(1u32, 1u32), &[]),
            Err(SimError::ParamCount {
                expected: 1,
                got: 0
            })
        ));
        assert!(matches!(
            g.launch(&m, "nope", GridDims::new(1u32, 1u32), &[]),
            Err(SimError::UnknownKernel(_))
        ));
    }

    #[test]
    fn nested_divergence_executes_correctly() {
        // tid 0..4: quadrant classification via nested ifs.
        let m = module(
            ".reg .pred %p<3>;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
             mov.u32 %r1, %tid.x;\n\
             ld.param.u64 %rd1, [out];\n\
             mul.wide.s32 %rd2, %r1, 4;\n\
             add.s64 %rd3, %rd1, %rd2;\n\
             setp.lt.s32 %p1, %r1, 2;\n\
             @!%p1 bra L_hi;\n\
             setp.eq.s32 %p2, %r1, 0;\n\
             @!%p2 bra L_one;\n\
             st.global.u32 [%rd3], 10;\n\
             bra.uni L_end;\n\
             L_one:\n\
             st.global.u32 [%rd3], 11;\n\
             bra.uni L_end;\n\
             L_hi:\n\
             setp.eq.s32 %p2, %r1, 2;\n\
             @!%p2 bra L_three;\n\
             st.global.u32 [%rd3], 12;\n\
             bra.uni L_end;\n\
             L_three:\n\
             st.global.u32 [%rd3], 13;\n\
             L_end:\n\
             ret;",
            ".param .u64 out",
        );
        let mut g = gpu();
        let out = g.malloc(4 * 4);
        g.launch(&m, "k", GridDims::new(1u32, 4u32), &[ParamValue::Ptr(out)])
            .unwrap();
        assert_eq!(g.read_u32s(out, 4), vec![10, 11, 12, 13]);
    }

    #[test]
    fn scheduler_is_deterministic_for_fixed_seed() {
        let m = module(
            ".reg .b32 %r<4>;\n.reg .b64 %rd<2>;\n\
             ld.param.u64 %rd1, [ctr];\n\
             atom.global.exch.b32 %r1, [%rd1], %r2;\n\
             ret;",
            ".param .u64 ctr",
        );
        let run = |seed: u64| {
            let mut g = Gpu::new(GpuConfig {
                seed,
                ..GpuConfig::default()
            });
            let ctr = g.malloc(4);
            g.launch(&m, "k", GridDims::new(8u32, 32u32), &[ParamValue::Ptr(ctr)])
                .unwrap();
            g.read_u32(ctr)
        };
        assert_eq!(run(1), run(1));
    }
}
