//! Interpreter perf regression harness.
//!
//! Times the SIMT interpreter — the decoded micro-op hot loop — on four
//! workload shapes that stress different parts of the dispatch path:
//!
//! * `alu_loop` — converged ALU-heavy loop (pure dispatch throughput);
//! * `divergent_loop` — per-iteration warp divergence (SIMT stack churn);
//! * `shared_barrier` — shared-memory traffic with block barriers;
//! * `atomic_contention` — all threads hammering one global counter.
//!
//! Writes machine-readable results to `BENCH_interp.json` (current
//! directory unless `--out <path>` is given), reporting warp-instructions
//! per second per workload. `--quick` runs one launch per measurement for
//! CI smoke.

use std::fmt::Write as _;
use std::time::Instant;

use barracuda_ptx::ast::Module;
use barracuda_simt::{Gpu, GpuConfig, LoadedKernel, ParamValue};
use barracuda_trace::GridDims;

/// Minimum wall-clock time per measurement round in full mode.
const MIN_MEASURE_SECS: f64 = 0.3;

/// Measurement rounds per workload in full mode; the best round is
/// reported. Throughput noise on a shared machine is one-sided
/// (interference only slows a run down), so max-of-N is the noise-robust
/// estimator, and the workloads' rounds are interleaved so all see
/// similar conditions.
const ROUNDS: usize = 8;

struct Workload {
    name: &'static str,
    module: Module,
    dims: GridDims,
}

fn parse(body: &str, params: &str) -> Module {
    barracuda_ptx::parse(&format!(
        ".version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k({params})\n{{\n{body}\n}}"
    ))
    .expect("workload kernel parses")
}

fn workloads() -> Vec<Workload> {
    let alu = parse(
        ".reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u32 %r2, 0;\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         add.s32 %r2, %r2, %r1;\n\
         xor.b32 %r2, %r2, %r3;\n\
         mad.lo.s32 %r2, %r2, 3, 7;\n\
         shl.b32 %r4, %r3, 1;\n\
         add.s32 %r2, %r2, %r4;\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p, %r3, 256;\n\
         @%p bra L_loop;\n\
         ld.param.u64 %rd1, [out];\n\
         mul.wide.s32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         ret;",
        ".param .u64 out",
    );
    let divergent = parse(
        ".reg .pred %p<3>;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u32 %r2, 0;\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         and.b32 %r4, %r1, 1;\n\
         setp.eq.s32 %p2, %r4, 0;\n\
         @%p2 bra L_even;\n\
         mad.lo.s32 %r2, %r2, 3, 1;\n\
         bra.uni L_join;\n\
         L_even:\n\
         mad.lo.s32 %r2, %r2, 5, 2;\n\
         L_join:\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p1, %r3, 200;\n\
         @%p1 bra L_loop;\n\
         ld.param.u64 %rd1, [out];\n\
         mul.wide.s32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         ret;",
        ".param .u64 out",
    );
    let shared_barrier = parse(
        ".reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<8>;\n\
         .shared .align 4 .b8 sm[512];\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u64 %rd4, sm;\n\
         mul.wide.s32 %rd2, %r1, 4;\n\
         add.s64 %rd5, %rd4, %rd2;\n\
         xor.b32 %r5, %r1, 1;\n\
         mul.wide.s32 %rd6, %r5, 4;\n\
         add.s64 %rd7, %rd4, %rd6;\n\
         mov.u32 %r2, 0;\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         st.shared.u32 [%rd5], %r1;\n\
         bar.sync 0;\n\
         ld.shared.u32 %r4, [%rd7];\n\
         add.s32 %r2, %r2, %r4;\n\
         bar.sync 0;\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p, %r3, 64;\n\
         @%p bra L_loop;\n\
         ld.param.u64 %rd1, [out];\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         ret;",
        ".param .u64 out",
    );
    let atomic = parse(
        ".reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<2>;\n\
         ld.param.u64 %rd1, [out];\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         atom.global.add.u32 %r1, [%rd1], 1;\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p, %r3, 128;\n\
         @%p bra L_loop;\n\
         ret;",
        ".param .u64 out",
    );
    vec![
        Workload {
            name: "alu_loop",
            module: alu,
            dims: GridDims::new(4u32, 128u32),
        },
        Workload {
            name: "divergent_loop",
            module: divergent,
            dims: GridDims::new(4u32, 128u32),
        },
        Workload {
            name: "shared_barrier",
            module: shared_barrier,
            dims: GridDims::new(4u32, 128u32),
        },
        Workload {
            name: "atomic_contention",
            module: atomic,
            dims: GridDims::new(4u32, 128u32),
        },
    ]
}

/// One timed round: repeated launches until the measurement window
/// elapses, returning (warp-instructions per launch, warp-instructions
/// per second).
fn round(w: &Workload, lk: &LoadedKernel, quick: bool) -> (u64, f64) {
    let run = || {
        let mut gpu = Gpu::new(GpuConfig::default());
        let out = gpu.malloc(4 * u64::from(w.dims.block.x) * 4);
        gpu.launch_loaded(lk, w.dims, &[ParamValue::Ptr(out)], None)
            .expect("workload runs")
            .instructions
    };
    let instructions_per_launch = run(); // warmup + instruction count
    let mut launches = 0u64;
    let start = Instant::now();
    let ips = loop {
        run();
        launches += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if quick || elapsed >= MIN_MEASURE_SECS {
            break (instructions_per_launch * launches) as f64 / elapsed;
        }
    };
    (instructions_per_launch, ips)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_interp.json", |s| s.as_str());

    let workloads = workloads();
    let loaded: Vec<LoadedKernel> = workloads
        .iter()
        .map(|w| LoadedKernel::load(&w.module, "k").expect("workload loads"))
        .collect();
    // (instructions per launch, best ips) per workload.
    let mut best = vec![(0u64, 0.0f64); workloads.len()];
    let rounds = if quick { 1 } else { ROUNDS };
    for _ in 0..rounds {
        for ((w, lk), b) in workloads.iter().zip(&loaded).zip(&mut best) {
            let (n, ips) = round(w, lk, quick);
            *b = (n, b.1.max(ips));
        }
    }

    let mut rows = String::new();
    for (i, (w, (n, ips))) in workloads.iter().zip(&best).enumerate() {
        println!(
            "{:<18} {n:>9} instr/launch   decoded {ips:>12.0} ips",
            w.name
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{\n      \"workload\": \"{}\",\n      \"instructions_per_launch\": {n},\n      \
             \"decoded_ips\": {ips:.0}\n    }}",
            w.name
        )
        .expect("write to string");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"interp\",\n  \"description\": \"SIMT interpreter throughput: \
         decoded micro-op IR, best of {rounds} interleaved rounds\",\n  \"unit\": \
         \"warp-instructions per second\",\n  \"nproc\": {nproc},\n  \"quick\": {quick},\n  \"workloads\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(out_path, &json).expect("write BENCH_interp.json");
    println!("wrote {out_path}");
}
