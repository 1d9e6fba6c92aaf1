//! Byte-identity gate for the simulator: a digest of the device record
//! stream, the launch statistics and the final buffer contents of every
//! Table-1 kernel and suite program under two memory models, plus the
//! Fig. 4 litmus outcome counts, compared with a checked-in golden.
//!
//! A simulator change that is meant to be invisible (a faster memory
//! path, a new dispatch scheme) must leave every line unchanged. A change
//! that is meant to alter the schedule or the stream regenerates the
//! golden and says why: on a mismatch the test prints the full new text.

use barracuda_instrument::{instrument_module, InstrumentOptions};
use barracuda_simt::litmus::{mp_table, run_corr, run_sb, Fence};
use barracuda_simt::{DevicePtr, Gpu, GpuConfig, LoadedKernel, MemoryModel, ParamValue, VecSink};
use barracuda_suite::{all_programs, ArgSpec, KERNEL};
use barracuda_trace::GridDims;
use barracuda_workloads::{all_workloads, Scale};
use std::fmt::Write;

const GOLDEN: &str = include_str!("sim_digest.golden");

/// Table-1 kernels at 128 threads and a twentieth of their static
/// instructions, small enough for a debug build (Kepler store buffers
/// make dwt2d's cost grow faster than its length).
const SCALE: Scale = Scale {
    max_threads: 128,
    max_alloc_bytes: 1 << 20,
    insn_scale: 0.05,
};

const MODELS: [(MemoryModel, &str); 2] = [
    (MemoryModel::SequentiallyConsistent, "sc"),
    (MemoryModel::KeplerK520, "kepler"),
];

const LITMUS_ITERS: u64 = 400;
const LITMUS_SEED: u64 = 42;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Runs the instrumented `kernel` of `module` on a fresh device with the
/// given buffers and scalars, and returns its digest line.
fn digest_launch(
    module: &barracuda_ptx::Module,
    kernel: &str,
    dims: GridDims,
    args: &[ArgSpec],
    model: MemoryModel,
) -> String {
    let (module, _) = instrument_module(module, &InstrumentOptions::default());
    let lk = LoadedKernel::load(&module, kernel).expect("kernel loads");
    let mut gpu = Gpu::new(GpuConfig {
        memory_model: model,
        ..GpuConfig::default()
    });
    // A pad puts the first buffer 1 KiB before the end of the first
    // 64 KiB page, so its accesses and the host read below cross pages.
    gpu.malloc(63 << 10);
    let params = gpu.alloc_args(args);
    let bufs: Vec<(DevicePtr, u64)> = params
        .iter()
        .zip(args)
        .filter_map(|(p, a)| match (*p, *a) {
            (ParamValue::Ptr(p), ArgSpec::Buf(bytes)) => Some((p, bytes)),
            _ => None,
        })
        .collect();
    // Addresses inside a buffer are digested as (buffer, offset), so the
    // digest does not depend on where the allocator put the buffers.
    let rel = |a: u64| {
        bufs.iter()
            .enumerate()
            .find(|(_, (p, len))| (p.0..p.0 + len).contains(&a))
            .map_or(a, |(i, (p, _))| ((i as u64 + 1) << 48) | (a - p.0))
    };
    let sink = VecSink::new();
    let outcome = gpu.launch_loaded(&lk, dims, &params, Some(&sink));
    let records = sink.take();
    let mut h = Fnv::new();
    for r in &records {
        h.word(r.warp);
        h.word(u64::from(r.kind) | u64::from(r.space) << 8 | u64::from(r.size) << 16);
        h.word(u64::from(r.mask));
        // Slot 0 also carries a branch record's else-path mask.
        h.word(rel(r.addrs[0]));
        for lane in 1..32 {
            if r.mask & (1 << lane) != 0 {
                h.word(rel(r.addrs[lane]));
            }
        }
    }
    let mut mem = Fnv::new();
    for &(p, len) in &bufs {
        let mut bytes = vec![0u8; len as usize];
        gpu.read_bytes(p, &mut bytes);
        for c in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            mem.word(u64::from_le_bytes(w));
        }
    }
    let stats = match outcome {
        Ok(s) => format!("insns={} bars={}", s.instructions, s.barriers),
        Err(e) => format!("err={e:?}"),
    };
    format!(
        "records={} stream={:016x} mem={:016x} {stats}",
        records.len(),
        h.0,
        mem.0
    )
}

fn fence_name(f: Fence) -> &'static str {
    match f {
        Fence::Cta => "cta",
        Fence::Gl => "gl",
    }
}

fn digest_all() -> String {
    let mut out = String::new();
    for (model, mname) in MODELS {
        for w in all_workloads() {
            let inst = w.generate(&SCALE);
            let line = digest_launch(
                &inst.module,
                &inst.kernel,
                inst.dims,
                &[ArgSpec::Buf(inst.buf_bytes)],
                model,
            );
            writeln!(out, "table1 {} {mname}: {line}", inst.name).unwrap();
        }
        for p in all_programs() {
            let module = barracuda_ptx::parse(&p.source).expect("suite program parses");
            let line = digest_launch(&module, KERNEL, p.dims, &p.args, model);
            writeln!(out, "suite {} {mname}: {line}", p.name).unwrap();
        }
    }
    for (model, mname) in [
        (MemoryModel::KeplerK520, "kepler"),
        (MemoryModel::MaxwellTitanX, "maxwell"),
    ] {
        for row in mp_table(model, LITMUS_ITERS, LITMUS_SEED).expect("mp runs") {
            writeln!(
                out,
                "fig4 mp {}/{} {mname}: weak={}/{}",
                fence_name(row.fence1),
                fence_name(row.fence2),
                row.result.weak,
                row.result.total
            )
            .unwrap();
        }
        for f in [Fence::Cta, Fence::Gl] {
            let r = run_sb(f, f, model, LITMUS_ITERS, LITMUS_SEED).expect("sb runs");
            let f = fence_name(f);
            writeln!(out, "fig4 sb {f}/{f} {mname}: weak={}/{}", r.weak, r.total).unwrap();
        }
        let r = run_corr(model, LITMUS_ITERS, LITMUS_SEED).expect("coRR runs");
        writeln!(out, "fig4 coRR {mname}: weak={}/{}", r.weak, r.total).unwrap();
    }
    out
}

#[test]
fn simulation_matches_the_golden_digest() {
    let actual = digest_all();
    let diffs: Vec<String> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        diffs.is_empty() && GOLDEN.lines().count() == actual.lines().count(),
        "{} of {} lines differ from tests/sim_digest.golden:\n{}\n\nfull new digest:\n{actual}",
        diffs.len(),
        actual.lines().count(),
        diffs.join("\n")
    );
}
