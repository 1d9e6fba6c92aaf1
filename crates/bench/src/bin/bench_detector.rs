//! Detector-core perf harness: the warp-coalesced shadow checks in a
//! single worker, and in the sharded page-partitioned pipeline.
//!
//! Drives `Worker::process_event` / `Worker::process_sharded_record`
//! directly on synthetic warp-level event streams — no parsing,
//! instrumentation, or simulation — so the numbers isolate the
//! shadow-check hot loop. Five access patterns:
//!
//! * `coalesced` — all 32 lanes at consecutive word addresses, with the
//!   base rotating across 64 distinct shadow pages so page-hash routing
//!   has something to partition;
//! * `strided` — lanes 512 bytes apart, spreading one record over
//!   several shadow pages (page batching still coalesces lanes that
//!   share a page, and routing splits the record across owners);
//! * `divergent` — accesses under half-warp branches, which disable the
//!   converged-warp uniform clock view;
//! * `atomic` — whole-warp atomics contending on one word (a single hot
//!   page: the worst case for page partitioning, kept honest by
//!   weighting throughput by each worker's share of the stream);
//! * `broadcast` — every lane of every warp reads the same word (one of
//!   16), so each word's cells hold one reader set of all 256 threads:
//!   the word-granularity merge must share that set across the word's
//!   cells, not compare and copy it per byte.
//!
//! Each pattern runs in two worker modes: `sync` (one worker processes
//! every block's stream in order) and `threaded` (the sharded pipeline:
//! records pre-routed to `SHARDED_WORKERS` page-owner workers exactly as
//! the runtime routes them — global accesses split at page boundaries to
//! the owner's queue, control records replicated — each worker touching
//! its partition without any page lock).
//!
//! Extras:
//!
//! * a worker-count scaling sweep (1/2/4/8 sharded workers on the
//!   coalesced pattern) lands in the JSON `scaling` array;
//! * a steady-state pass over each of the `coalesced`, `strided`,
//!   `atomic` and `broadcast` streams is asserted to perform **zero heap
//!   allocations** (counting global allocator), so a regression that
//!   puts a `Vec` back in the hot loop, or copies a shared reader set
//!   per cell, fails the bench. This runs in every mode, `--gate`
//!   included;
//! * `--gate` also asserts that the sharded-threaded mode is at least as
//!   fast as sync on the coalesced pattern (worker scaling) — the gates
//!   `verify.sh` runs.
//!
//! Writes machine-readable results to `BENCH_detector.json` (current
//! directory unless `--out <path>` is given), reporting access records
//! per second per (pattern, mode). `--quick` runs one pass per
//! measurement for CI smoke.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use barracuda_core::{Detector, Worker};
use barracuda_trace::ops::{AccessKind, Event, MemSpace};
use barracuda_trace::queue::launch_block_hash;
use barracuda_trace::route::{route_class, split_global_access, RouteClass, SeqStamper};
use barracuda_trace::{GridDims, Record};

/// Counting wrapper around the system allocator: the zero-alloc
/// assertion reads the delta across one steady-state detector pass.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Minimum wall-clock time per measurement in full mode.
const MIN_MEASURE_SECS: f64 = 0.3;

/// Measurement rounds per configuration; the best round is reported
/// (interference only slows rounds down, so max-of-N is noise-robust).
const ROUNDS: usize = 5;

/// Access records per warp per pass.
const RECORDS_PER_WARP: usize = 256;

/// Worker count reported as the `threaded` mode: the runtime's default
/// pipeline width for the sharded configuration, capped at the machine's
/// parallelism (on a single-core host extra workers only pay scheduling
/// overhead — the scaling sweep still reports the full 1/2/4/8 curve).
const SHARDED_WORKERS: usize = 4;

fn threaded_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(SHARDED_WORKERS))
}

/// Worker counts swept for the JSON `scaling` array.
const SCALING_WORKERS: [usize; 4] = [1, 2, 4, 8];

struct Pattern {
    name: &'static str,
    /// Event streams, one per block (all of a block's events must be
    /// processed by one worker, in order — the pipeline's block-affinity
    /// invariant).
    per_block: Vec<Vec<Event>>,
    /// Access records in one pass over all blocks.
    records_per_pass: u64,
}

fn count_records(per_block: &[Vec<Event>]) -> u64 {
    per_block
        .iter()
        .flatten()
        .filter(|e| matches!(e, Event::Access { .. }))
        .count() as u64
}

fn patterns(dims: &GridDims) -> Vec<Pattern> {
    let wpb = dims.num_warps() / dims.num_blocks();
    let mut out = Vec::new();
    for name in ["coalesced", "strided", "divergent", "atomic", "broadcast"] {
        let mut per_block = Vec::new();
        for b in 0..dims.num_blocks() {
            let mut evs = Vec::new();
            for wib in 0..wpb {
                let w = b * wpb + wib;
                let mask = dims.initial_mask(w);
                // Disjoint per-warp regions (broadcast only reads): the
                // bench must stay race-free so report handling never
                // enters the loop.
                let region = w * 0x10_0000;
                for i in 0..RECORDS_PER_WARP as u64 {
                    match name {
                        "coalesced" => {
                            // Consecutive words; the base rotates through
                            // a couple of pages per warp so the page
                            // table is exercised (and, with 8 warps × 2
                            // pages hashed across the sharded workers,
                            // page-hash routing has keys to partition)
                            // while the shadow working set stays
                            // cache-resident.
                            let base = region + (i % 64) * 128;
                            let mut addrs = [0u64; 32];
                            for l in 0..32u64 {
                                addrs[l as usize] = base + l * 4;
                            }
                            evs.push(Event::Access {
                                warp: w,
                                kind: AccessKind::Write,
                                space: MemSpace::Global,
                                mask,
                                addrs,
                                size: 4,
                            });
                        }
                        "strided" => {
                            let base = region + (i % 8) * 4;
                            let mut addrs = [0u64; 32];
                            for l in 0..32u64 {
                                addrs[l as usize] = base + l * 512;
                            }
                            evs.push(Event::Access {
                                warp: w,
                                kind: AccessKind::Write,
                                space: MemSpace::Global,
                                mask,
                                addrs,
                                size: 4,
                            });
                        }
                        "divergent" => {
                            let half = mask & 0xFFFF;
                            let other = mask & !half;
                            let base = region + (i % 64) * 128;
                            let mut addrs = [0u64; 32];
                            for l in 0..32u64 {
                                addrs[l as usize] = base + l * 4;
                            }
                            evs.push(Event::If {
                                warp: w,
                                then_mask: half,
                                else_mask: other,
                            });
                            evs.push(Event::Access {
                                warp: w,
                                kind: AccessKind::Write,
                                space: MemSpace::Global,
                                mask: half,
                                addrs,
                                size: 4,
                            });
                            evs.push(Event::Else { warp: w });
                            evs.push(Event::Access {
                                warp: w,
                                kind: AccessKind::Write,
                                space: MemSpace::Global,
                                mask: other,
                                addrs,
                                size: 4,
                            });
                            evs.push(Event::Fi { warp: w });
                        }
                        "broadcast" => {
                            // Every lane of every warp reads one word of
                            // a region all warps share.
                            let addrs = [0x4000_0000 + (i % 16) * 4; 32];
                            evs.push(Event::Access {
                                warp: w,
                                kind: AccessKind::Read,
                                space: MemSpace::Global,
                                mask,
                                addrs,
                                size: 4,
                            });
                        }
                        _ => {
                            // Whole warp atomically updating one counter.
                            let addrs = [region + (i % 16) * 4; 32];
                            evs.push(Event::Access {
                                warp: w,
                                kind: AccessKind::Atomic,
                                space: MemSpace::Global,
                                mask,
                                addrs,
                                size: 4,
                            });
                        }
                    }
                }
            }
            per_block.push(evs);
        }
        let records_per_pass = count_records(&per_block);
        out.push(Pattern {
            name,
            per_block,
            records_per_pass,
        });
    }
    out
}

/// One measurement: repeated passes over the pattern's streams until the
/// deadline, single worker, emission order. Returns records per second.
fn run_sync(dims: GridDims, p: &Pattern, quick: bool) -> f64 {
    let det = Detector::new(dims, 64);
    let mut worker = Worker::new(&det);
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        for evs in &p.per_block {
            for ev in evs {
                worker.process_event(ev);
            }
        }
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if quick || elapsed >= MIN_MEASURE_SECS {
            assert_eq!(
                det.races().race_count(),
                0,
                "bench stream must be race-free"
            );
            break (passes * p.records_per_pass) as f64 / elapsed;
        }
    }
}

/// Pre-routes a pattern's emission sequence to `workers` sharded queues
/// exactly as `PipelineSink` does: plain global accesses split at shadow
/// page boundaries to the page owner, plain shared accesses to the block
/// owner, sync/control records replicated to every queue. Returns the
/// per-worker record streams plus each worker's throughput weight (its
/// share of the original access records, fragment bytes pro-rated), so
/// unbalanced partitions — e.g. the single hot page of `atomic` — are
/// not over-counted.
fn route_pattern(det: &Detector, dims: &GridDims, p: &Pattern, workers: usize) -> RoutedPattern {
    let mut stamper = SeqStamper::new();
    let mut streams: Vec<Vec<Record>> = vec![Vec::new(); workers];
    let mut weights = vec![0.0f64; workers];
    for evs in &p.per_block {
        for ev in evs {
            let mut rec = Record::encode(ev);
            stamper.stamp(&mut rec);
            match route_class(&rec) {
                RouteClass::PlainGlobal => {
                    let total: u64 = (0..32)
                        .filter(|l| rec.mask & (1 << l) != 0)
                        .map(|_| u64::from(rec.size.max(1)))
                        .sum();
                    split_global_access(&rec, workers, |qi, frag| {
                        let wlen = if frag.frag_len == 0 {
                            frag.size.max(1)
                        } else {
                            frag.frag_len
                        };
                        let lanes = u64::from(frag.mask.count_ones());
                        weights[qi] += (lanes * u64::from(wlen)) as f64 / total as f64;
                        streams[qi].push(frag);
                    });
                }
                RouteClass::PlainShared => {
                    let block = dims.block_of_warp(rec.warp);
                    let qi = (launch_block_hash(det.epoch(), block) % workers as u64) as usize;
                    weights[qi] += 1.0;
                    streams[qi].push(rec);
                }
                RouteClass::Sync | RouteClass::Control => {
                    for q in streams.iter_mut() {
                        q.push(rec);
                    }
                }
            }
        }
    }
    RoutedPattern { streams, weights }
}

struct RoutedPattern {
    streams: Vec<Vec<Record>>,
    /// Original access records represented in each worker's stream.
    weights: Vec<f64>,
}

/// One measurement of the sharded pipeline: records pre-routed to
/// `workers` page-owner partitions, one thread per worker looping passes
/// over its own stream until the deadline. Throughput is the sum over
/// workers of (share of original records) × passes, per second — i.e.
/// original access records per second, comparable to `run_sync`.
fn run_sharded(dims: GridDims, p: &Pattern, workers: usize, quick: bool) -> f64 {
    let det = Detector::new(dims, 64);
    let routed = route_pattern(&det, &dims, p, workers);
    let deadline = Instant::now() + Duration::from_secs_f64(MIN_MEASURE_SECS);
    let start = Instant::now();
    let records: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = routed
            .streams
            .iter()
            .enumerate()
            .map(|(i, recs)| {
                let det = &det;
                let weight = routed.weights[i];
                s.spawn(move || {
                    let mut worker = Worker::new_sharded(det, i, workers);
                    if recs.is_empty() {
                        // Nothing routed here (e.g. `atomic`'s single hot
                        // page): don't spin, don't count.
                        return 0.0;
                    }
                    let mut passes = 0u64;
                    loop {
                        for rec in recs {
                            worker.process_sharded_record(rec);
                        }
                        passes += 1;
                        if quick || Instant::now() >= deadline {
                            break weight * passes as f64;
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        det.races().race_count(),
        0,
        "bench stream must be race-free"
    );
    records / elapsed
}

/// Asserts the steady-state detector hot loop performs no heap
/// allocations: after two warm-up passes (page-table, block-state and
/// reader-set population), a full pass over the pattern's stream must
/// leave the counting allocator untouched.
fn assert_zero_alloc_steady_state(dims: GridDims, p: &Pattern) {
    let det = Detector::new(dims, 64);
    let mut worker = Worker::new(&det);
    for _ in 0..2 {
        for evs in &p.per_block {
            for ev in evs {
                worker.process_event(ev);
            }
        }
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for evs in &p.per_block {
        for ev in evs {
            worker.process_event(ev);
        }
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state {} pass allocated {delta} times (hot loop must be zero-alloc)",
        p.name
    );
    println!(
        "zero-alloc: steady-state {} pass performed 0 heap allocations",
        p.name
    );
}

fn measure_best(rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..rounds).map(|_| f()).fold(0.0, f64::max)
}

fn pattern<'a>(all: &'a [Pattern], name: &str) -> &'a Pattern {
    all.iter().find(|p| p.name == name).expect("known pattern")
}

/// Asserts that `better` measures at least as many records per second as
/// `base` (best of 3 rounds each), allowing three attempts so scheduler
/// noise cannot fail the smoke gate spuriously.
fn gate_at_least(what: &str, mut base: impl FnMut() -> f64, mut better: impl FnMut() -> f64) {
    for attempt in 1..=3 {
        let b = measure_best(3, &mut base);
        let f = measure_best(3, &mut better);
        println!(
            "gate[{attempt}]: {what}: {b:.0} vs {f:.0} records/s ({:.2}x)",
            f / b
        );
        if f >= b {
            return;
        }
    }
    panic!("gate failed in 3 attempts: {what}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_detector.json", |s| s.as_str());

    // 4 blocks × 2 full warps of 32: enough parallelism for the threaded
    // mode without swamping a small CI machine.
    let dims = GridDims::with_warp_size(4u32, 64u32, 32);
    let rounds = if quick { 1 } else { ROUNDS };
    let all = patterns(&dims);

    // `divergent` is left out: each branch's reconvergence allocates one
    // `Reconv.finished` `Vec` (2,048 allocations per 4,096-record pass).
    for name in ["coalesced", "strided", "atomic", "broadcast"] {
        assert_zero_alloc_steady_state(dims, pattern(&all, name));
    }

    if gate {
        // Worker-scaling gate: the sharded threaded mode must beat the
        // single-worker sync mode on the coalesced pattern. The sharded
        // win is structural but modest on a single-core host (no page
        // locks, no per-access clock bump, decode-free hot path).
        let coalesced = pattern(&all, "coalesced");
        gate_at_least(
            "coalesced sync vs sharded",
            || run_sync(dims, coalesced, false),
            || run_sharded(dims, coalesced, threaded_workers(), false),
        );
        return;
    }

    let mut rows = String::new();
    for p in &all {
        // Interleave both modes within each round so the sync-vs-threaded
        // comparison isn't skewed by machine drift between two disjoint
        // measurement windows.
        let mut best = [0.0f64; 2]; // [sync, threaded]
        for _ in 0..rounds {
            best[0] = best[0].max(run_sync(dims, p, quick));
            best[1] = best[1].max(run_sharded(dims, p, threaded_workers(), quick));
        }
        for (mode, rps) in ["sync", "threaded"].into_iter().zip(best) {
            println!("{:<10} {:<9} {:>11.0} records/s", p.name, mode, rps);
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            write!(
                rows,
                "    {{ \"pattern\": \"{}\", \"mode\": \"{}\", \"records_per_sec\": {:.0} }}",
                p.name, mode, rps
            )
            .expect("write to string");
        }
    }

    // Worker-count scaling sweep: coalesced pattern, sharded pipeline at
    // each worker count.
    let mut scaling = String::new();
    for (k, &workers) in SCALING_WORKERS.iter().enumerate() {
        let rps = measure_best(rounds, || run_sharded(dims, &all[0], workers, quick));
        println!("scaling   sharded({workers})   {rps:>11.0} records/s");
        if k > 0 {
            scaling.push_str(",\n");
        }
        write!(
            scaling,
            "    {{ \"workers\": {workers}, \"records_per_sec\": {rps:.0} }}"
        )
        .expect("write to string");
    }

    let tw = threaded_workers();
    let json = format!(
        "{{\n  \"bench\": \"detector\",\n  \"description\": \"warp-level access records \
         through the detector hot loop (one page lock per record, one state-machine run \
         per lane group and word run, reader sets by warp chunk, converged-warp clock \
         views); threaded mode is the sharded pipeline \
         (page-hash routing to owner-partitioned lock-free workers, worker count capped \
         at machine parallelism)\",\n  \
         \"unit\": \"records per second\",\n  \"threaded_workers\": {tw},\n  \"quick\": {quick},\n  \"patterns\": [\n{rows}\n  \
         ],\n  \"scaling\": [\n{scaling}\n  ]\n}}\n"
    );
    std::fs::write(out_path, &json).expect("write BENCH_detector.json");
    println!("wrote {out_path}");
}
