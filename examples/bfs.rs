//! Level-synchronous BFS — the §6.3 SHOC BFS bug as a runnable program.
//!
//! The graph lives in global memory; one kernel launch per BFS level, one
//! thread per node. Frontier nodes relax their neighbours' distances. In
//! the buggy variant (as in SHOC) the distance update and the `changed`
//! flag are plain stores: two frontier nodes sharing a neighbour race,
//! and every frontier node races on the flag. The fixed variant uses
//! `atom.min` / `atom.exch`.
//!
//! Run with: `cargo run --example bfs`

use barracuda_repro::barracuda::{Analysis, Engine, Error, KernelRun};
use barracuda_repro::simt::{DevicePtr, ParamValue};
use barracuda_repro::trace::GridDims;

const INF: u32 = u32::MAX;

fn kernel_src(fixed: bool) -> String {
    let (frontier_load, frontier_check_note) = if fixed {
        // Atomic read (add 0): neighbours update dist with atomics, and
        // mixed atomic/non-atomic accesses race (paper §3.3.2).
        (
            "atom.global.add.u32 %r2, [%rd6], 0;\n    ",
            "reads atomically: other blocks atom.min this word concurrently.",
        )
    } else {
        (
            "ld.global.u32 %r2, [%rd6];\n    ",
            "is a plain load (racy against concurrent relaxations).",
        )
    };
    let relax = if fixed {
        // dist[nbr] = min(dist[nbr], level+1), atomically; signal via an
        // atomic exchange when we improved the distance.
        "atom.global.min.u32 %r10, [%rd13], %r6;\n\
         setp.le.u32 %p2, %r10, %r6;\n\
         @%p2 bra L_next;\n\
         atom.global.exch.b32 %r11, [%rd4], 1;\n"
    } else {
        // Plain read-compare-write and a plain flag store (the bug).
        "ld.global.u32 %r10, [%rd13];\n\
         setp.le.u32 %p2, %r10, %r6;\n\
         @%p2 bra L_next;\n\
         st.global.u32 [%rd13], %r6;\n\
         st.global.u32 [%rd4], 1;\n"
    };
    format!(
        r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry bfs_level(.param .u64 rows, .param .u64 cols, .param .u64 dist, .param .u64 changed, .param .u32 level)
{{
    .reg .pred %p<4>;
    .reg .b32 %r<16>;
    .reg .b64 %rd<16>;
    ld.param.u64 %rd1, [rows];
    ld.param.u64 %rd2, [cols];
    ld.param.u64 %rd3, [dist];
    ld.param.u64 %rd4, [changed];
    ld.param.u32 %r5, [level];
    // node = ctaid.x * ntid.x + tid.x
    mov.u32 %r12, %tid.x;
    mov.u32 %r13, %ctaid.x;
    mov.u32 %r14, %ntid.x;
    mad.lo.s32 %r1, %r13, %r14, %r12;
    // Only frontier nodes (dist == level) relax. The frontier check
    // {frontier_check_note}
    mul.wide.u32 %rd5, %r1, 4;
    add.s64 %rd6, %rd3, %rd5;
    {frontier_load}setp.ne.u32 %p1, %r2, %r5;
    @%p1 bra L_end;
    // Edge range rows[node] .. rows[node+1].
    add.s64 %rd7, %rd1, %rd5;
    ld.global.u32 %r3, [%rd7];
    ld.global.u32 %r4, [%rd7+4];
    add.s32 %r6, %r5, 1;
    mov.u32 %r7, %r3;
L_edges:
    setp.ge.u32 %p3, %r7, %r4;
    @%p3 bra L_end;
    mul.wide.u32 %rd10, %r7, 4;
    add.s64 %rd11, %rd2, %rd10;
    ld.global.u32 %r8, [%rd11];
    mul.wide.u32 %rd12, %r8, 4;
    add.s64 %rd13, %rd3, %rd12;
    {relax}L_next:
    add.s32 %r7, %r7, 1;
    bra.uni L_edges;
L_end:
    ret;
}}
"#
    )
}

struct BfsRun {
    distances: Vec<u32>,
    total_races: usize,
    levels: u32,
}

fn run_bfs(fixed: bool) -> Result<BfsRun, Error> {
    // Diamond graph: 0→1, 0→2, 1→3, 2→3 — nodes 1 and 2 both relax node 3.
    let rows: Vec<u32> = vec![0, 2, 3, 4, 4];
    let cols: Vec<u32> = vec![1, 2, 3, 3];
    let n = 4u32;
    let src = kernel_src(fixed);

    let mut bar = Engine::new();
    let d_rows = bar.gpu_mut().malloc(u64::from(n + 1) * 4);
    let d_cols = bar.gpu_mut().malloc(cols.len() as u64 * 4);
    let d_dist = bar.gpu_mut().malloc(u64::from(n) * 4);
    let d_changed: DevicePtr = bar.gpu_mut().malloc(4);
    bar.gpu_mut().write_u32s(d_rows, &rows);
    bar.gpu_mut().write_u32s(d_cols, &cols);
    let mut init = vec![INF; n as usize];
    init[0] = 0;
    bar.gpu_mut().write_u32s(d_dist, &init);

    let mut total_races = 0;
    let mut level = 0u32;
    loop {
        bar.gpu_mut().write_u32s(d_changed, &[0]);
        let analysis: Analysis = bar.check(&KernelRun {
            source: &src,
            kernel: "bfs_level",
            // Two blocks of two nodes: the two frontier nodes that share
            // a neighbour sit in *different* blocks (lockstep ordering and
            // the same-value filter make the intra-warp variant of this
            // pattern well-defined — the bug is the cross-block case).
            dims: GridDims::new(2u32, n / 2),
            params: &[
                ParamValue::Ptr(d_rows),
                ParamValue::Ptr(d_cols),
                ParamValue::Ptr(d_dist),
                ParamValue::Ptr(d_changed),
                ParamValue::U32(level),
            ],
        })?;
        total_races += analysis.race_count();
        if bar.gpu().read_u32(d_changed) == 0 {
            break;
        }
        level += 1;
    }
    Ok(BfsRun {
        distances: bar.gpu().read_u32s(d_dist, n as usize),
        total_races,
        levels: level,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let buggy = run_bfs(false)?;
    println!(
        "buggy BFS:  distances {:?} after {} levels, {} racy location(s) found",
        buggy.distances, buggy.levels, buggy.total_races
    );
    let fixed = run_bfs(true)?;
    println!(
        "fixed BFS:  distances {:?} after {} levels, {} racy location(s) found",
        fixed.distances, fixed.levels, fixed.total_races
    );
    assert_eq!(buggy.distances, vec![0, 1, 1, 2]);
    assert_eq!(fixed.distances, vec![0, 1, 1, 2]);
    assert!(buggy.total_races >= 2, "dist[3] and the changed flag race");
    assert_eq!(fixed.total_races, 0);
    println!(
        "\nboth variants compute the same answer here — the races are real nonetheless: \
         the paper notes no ordering guarantee exists for cross-warp writes (§6.3)."
    );
    Ok(())
}
