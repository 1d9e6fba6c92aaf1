//! Detector-core perf harness: the warp-coalesced shadow checks in one
//! worker.
//!
//! Drives `Worker::process_event` directly on synthetic warp-level event
//! streams — no parsing, instrumentation, simulation or queues — so the
//! numbers isolate the shadow-check hot loop. One worker processes every
//! block's stream in order (the `sync` mode). Five access patterns:
//!
//! * `coalesced` — all 32 lanes at consecutive word addresses, with the
//!   base rotating across 64 distinct shadow pages;
//! * `strided` — lanes 512 bytes apart, spreading one record over
//!   several shadow pages (page batching still coalesces lanes that
//!   share a page);
//! * `divergent` — accesses under half-warp branches, which disable the
//!   converged-warp uniform clock view;
//! * `atomic` — whole-warp atomics contending on one word;
//! * `broadcast` — every lane of every warp reads the same word (one of
//!   16), so each word's cells hold one reader set of all 256 threads:
//!   the word-granularity merge must share that set across the word's
//!   cells, not compare and copy it per byte.
//!
//! A steady-state pass over each of the `coalesced`, `strided`, `atomic`
//! and `broadcast` streams is asserted to perform **zero heap
//! allocations** (counting global allocator), so a regression that puts
//! a `Vec` back in the hot loop, or copies a shared reader set per cell,
//! fails the bench. This runs in every mode; `--gate` runs only it (the
//! gate `verify.sh` runs).
//!
//! A second section is the PTVC compression ablation (paper §4.3.1): one
//! access stream at 64, 256 and 1024 threads through the compressed
//! detector and through the dense `ReferenceDetector`, each pass building
//! a fresh detector. Every pass asserts both report the same race set,
//! which includes one planted race, so the timing never compares a
//! detector that skipped work.
//!
//! Writes machine-readable results to `BENCH_detector.json` (current
//! directory unless `--out <path>` is given), reporting access records
//! per second per pattern and milliseconds per ablation stream. `--quick`
//! runs one pass per measurement for CI smoke.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use barracuda_core::{Detector, RaceReport, ReferenceDetector, Worker};
use barracuda_trace::ops::{AccessKind, Event, MemSpace};
use barracuda_trace::GridDims;

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
                            // table is exercised while the shadow working
                            // set stays cache-resident.
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

/// Events in each ablation stream.
const ABLATION_EVENTS: usize = 400;

/// The ablation stream: warps in turn, each lane touching its own word
/// (one write, then three reads), then one planted race: lane 0 of the
/// first and of the last warp write one shared word, unordered.
fn ablation_stream(dims: &GridDims) -> Vec<Event> {
    let access = |warp: u64, kind, mask, addrs| Event::Access {
        warp,
        kind,
        space: MemSpace::Global,
        mask,
        addrs,
        size: 4,
    };
    let mut out: Vec<Event> = (0..ABLATION_EVENTS - 2)
        .map(|i| {
            let warp = i as u64 % dims.num_warps();
            let mut addrs = [0u64; 32];
            for l in 0..dims.warp_size {
                addrs[l as usize] = 0x1000 + dims.tid_of_lane(warp, l).0 * 8;
            }
            let kind = if i % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            access(warp, kind, dims.initial_mask(warp), addrs)
        })
        .collect();
    for warp in [0, dims.num_warps() - 1] {
        out.push(access(warp, AccessKind::Write, 1, [0x10; 32]));
    }
    out
}

/// One ablation measurement: repeated passes, each through a fresh
/// detector of the given kind, until the deadline. Every pass's race set
/// must equal `want`. Returns streams per second.
fn run_ablation(
    dims: GridDims,
    stream: &[Event],
    dense: bool,
    want: &[RaceReport],
    quick: bool,
) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        let got = if dense {
            let mut r = ReferenceDetector::new(dims);
            stream.iter().for_each(|ev| r.process_event(ev));
            r.races().reports()
        } else {
            let det = Detector::new(dims, 0);
            let mut w = Worker::new(&det);
            stream.iter().for_each(|ev| w.process_event(ev));
            det.races().reports()
        };
        assert_eq!(
            got,
            want,
            "{} threads: the compressed and dense detectors disagree",
            dims.total_threads()
        );
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if quick || elapsed >= MIN_MEASURE_SECS {
            break passes as f64 / elapsed;
        }
    }
}

fn measure_best(rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..rounds).map(|_| f()).fold(0.0, f64::max)
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

    // 4 blocks × 2 full warps of 32.
    let dims = GridDims::with_warp_size(4u32, 64u32, 32);
    let rounds = if quick { 1 } else { ROUNDS };
    let all = patterns(&dims);

    // `divergent` is left out: each branch's reconvergence allocates one
    // `Reconv.finished` `Vec` (2,048 allocations per 4,096-record pass).
    for p in all.iter().filter(|p| p.name != "divergent") {
        assert_zero_alloc_steady_state(dims, p);
    }
    if gate {
        return;
    }

    let mut rows = String::new();
    for p in &all {
        let rps = measure_best(rounds, || run_sync(dims, p, quick));
        println!("{:<10} sync      {:>11.0} records/s", p.name, rps);
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{ \"pattern\": \"{}\", \"mode\": \"sync\", \"records_per_sec\": {:.0} }}",
            p.name, rps
        )
        .expect("write to string");
    }

    // Per thread count: dims, stream, the dense oracle's race set, and the
    // best rate of the compressed and of the dense detector.
    let mut cases = Vec::new();
    for threads in [64u32, 256, 1024] {
        let dims = GridDims::new(threads / 64, 64u32);
        let stream = ablation_stream(&dims);
        let mut oracle = ReferenceDetector::new(dims);
        stream.iter().for_each(|ev| oracle.process_event(ev));
        let want = oracle.races().reports();
        assert!(!want.is_empty(), "the planted race must be reported");
        cases.push((dims, stream, want, [0f64; 2]));
    }
    // Rounds interleave across the cases, so a burst of host load slows
    // one round of each rather than every round of one.
    for _ in 0..rounds {
        for (dims, stream, want, best) in &mut cases {
            for (i, dense) in [false, true].into_iter().enumerate() {
                best[i] = best[i].max(run_ablation(*dims, stream, dense, want, quick));
            }
        }
    }
    let mut ablation = String::new();
    for (dims, stream, want, best) in &cases {
        let threads = dims.total_threads();
        for (detector, rate) in ["compressed", "dense"].into_iter().zip(best) {
            let ms = 1e3 / rate;
            println!("ablation {threads:>5} threads {detector:<10} {ms:>8.3} ms/stream");
            if !ablation.is_empty() {
                ablation.push_str(",\n");
            }
            write!(
                ablation,
                "    {{ \"threads\": {threads}, \"detector\": \"{detector}\", \"events\": {}, \
                 \"races\": {}, \"ms_per_stream\": {ms:.3} }}",
                stream.len(),
                want.len()
            )
            .expect("write to string");
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"detector\",\n  \"description\": \"warp-level access records \
         through one detector worker's hot loop (one page lock per record, one state-machine \
         run per lane group and word run, reader sets by warp chunk, converged-warp clock \
         views)\",\n  \
         \"unit\": \"records per second\",\n  \"nproc\": {nproc},\n  \"quick\": {quick},\n  \"patterns\": [\n{rows}\n  \
         ],\n  \"ablation_description\": \"PTVC compression ablation: one access stream through \
         a fresh compressed detector and a fresh dense reference detector, same race set asserted \
         per pass\",\n  \"ablation\": [\n{ablation}\n  ]\n}}\n"
    );
    std::fs::write(out_path, &json).expect("write BENCH_detector.json");
    println!("wrote {out_path}");
}
