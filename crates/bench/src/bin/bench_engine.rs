//! Engine-reuse perf harness.
//!
//! Times full detection launches (`check`: parse → instrument → simulate →
//! detect) through two session shapes:
//!
//! * `reuse` — one persistent [`Engine`], repeated launches: the module
//!   cache eliminates re-parsing/re-instrumentation and the worker pool,
//!   shadow memory, and queues persist across launches;
//! * `fresh` — a brand-new [`Engine`] per launch, the pre-reuse
//!   cost model.
//!
//! Two kernel shapes are measured: `tiny` (launch overhead dominates) and
//! `compute` (simulation amortizes the fixed costs). Writes
//! machine-readable results to `BENCH_engine.json` (current directory
//! unless `--out <path>` is given), reporting launches per second for both
//! shapes and the reuse speedup. `--quick` runs one launch per measurement
//! for CI smoke.

use std::fmt::Write as _;
use std::time::Instant;

use barracuda::{Engine, KernelRun, ParamValue, StreamId};
use barracuda_trace::GridDims;

/// Minimum wall-clock time per measurement round in full mode.
const MIN_MEASURE_SECS: f64 = 0.3;

/// Measurement rounds per shape; the best round is reported. Interference
/// on a shared machine only slows rounds down, so max-of-N is the
/// noise-robust estimator, and the two session shapes' rounds are
/// interleaved so both see similar conditions.
const ROUNDS: usize = 8;

struct Shape {
    name: &'static str,
    source: String,
    dims: GridDims,
    buf_bytes: u64,
}

fn module(body: &str) -> String {
    format!(
        ".version 4.3\n.target sm_35\n.address_size 64\n\
         .visible .entry k(.param .u64 out)\n{{\n\
         .reg .pred %p<2>;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         {body}\n}}"
    )
}

fn shapes() -> Vec<Shape> {
    let tiny = module(
        "mov.u32 %r1, %tid.x;\n\
         ld.param.u64 %rd1, [out];\n\
         mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r1;\n\
         ret;",
    );
    let compute = module(
        "mov.u32 %r4, %tid.x;\n\
         mov.u32 %r5, %ctaid.x;\n\
         mov.u32 %r6, %ntid.x;\n\
         mad.lo.s32 %r1, %r5, %r6, %r4;\n\
         mov.u32 %r2, 0;\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         mad.lo.s32 %r2, %r2, 3, 7;\n\
         xor.b32 %r2, %r2, %r1;\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p1, %r3, 64;\n\
         @%p1 bra L_loop;\n\
         ld.param.u64 %rd1, [out];\n\
         mul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         ret;",
    );
    vec![
        Shape {
            name: "tiny",
            source: tiny,
            dims: GridDims::new(1u32, 32u32),
            buf_bytes: 32 * 4,
        },
        Shape {
            name: "compute",
            source: compute,
            dims: GridDims::new(4u32, 64u32),
            buf_bytes: 4 * 64 * 4,
        },
    ]
}

/// One timed round of persistent-engine launches: same-stream launches on
/// one engine, so the module cache and worker pool are reused and stream
/// order keeps the shadow state race-free.
fn round_reuse(s: &Shape, quick: bool) -> f64 {
    let mut eng = Engine::new();
    let buf = eng.gpu_mut().malloc(s.buf_bytes);
    let params = [ParamValue::Ptr(buf)];
    let run = KernelRun {
        source: &s.source,
        kernel: "k",
        dims: s.dims,
        params: &params,
    };
    let warm = eng
        .launch_async(StreamId::DEFAULT, &run)
        .expect("bench kernel runs");
    assert_eq!(warm.race_count(), 0, "bench kernel must be race-free");
    let mut launches = 0u64;
    let start = Instant::now();
    loop {
        eng.launch_async(StreamId::DEFAULT, &run)
            .expect("bench kernel runs");
        launches += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if quick || elapsed >= MIN_MEASURE_SECS {
            break launches as f64 / elapsed;
        }
    }
}

/// One timed round of fresh-session launches: a new `Engine` per
/// launch, paying parse, instrumentation, and pipeline setup every time.
fn round_fresh(s: &Shape, quick: bool) -> f64 {
    let run_once = || {
        let mut bar = Engine::new();
        let buf = bar.gpu_mut().malloc(s.buf_bytes);
        let params = [ParamValue::Ptr(buf)];
        let run = KernelRun {
            source: &s.source,
            kernel: "k",
            dims: s.dims,
            params: &params,
        };
        bar.check(&run).expect("bench kernel runs");
    };
    run_once(); // warmup
    let mut launches = 0u64;
    let start = Instant::now();
    loop {
        run_once();
        launches += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if quick || elapsed >= MIN_MEASURE_SECS {
            break launches as f64 / elapsed;
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_engine.json", |s| s.as_str());

    let rounds = if quick { 1 } else { ROUNDS };
    let mut rows = String::new();
    for (i, s) in shapes().iter().enumerate() {
        let mut reuse = 0.0f64;
        let mut fresh = 0.0f64;
        for _ in 0..rounds {
            reuse = reuse.max(round_reuse(s, quick));
            fresh = fresh.max(round_fresh(s, quick));
        }
        let speedup = reuse / fresh;
        println!(
            "{:<10} reuse {:>10.0} launches/s   fresh {:>10.0} launches/s   speedup {:.2}x",
            s.name, reuse, fresh, speedup
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{\n      \"shape\": \"{}\",\n      \"reuse_launches_per_sec\": {:.0},\n      \
             \"fresh_launches_per_sec\": {:.0},\n      \"speedup\": {:.3}\n    }}",
            s.name, reuse, fresh, speedup
        )
        .expect("write to string");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"description\": \"full detection launches: one \
         persistent engine reused across launches (after) vs a fresh session per launch \
         (before)\",\n  \"unit\": \"launches per second\",\n  \"nproc\": {nproc},\n  \"quick\": {quick},\n  \
         \"shapes\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
