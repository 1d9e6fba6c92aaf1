//! Shared generators for the detector differential tests: well-formed
//! multi-warp event streams whose accesses cluster around shadow-page
//! boundaries (the place where batching and page splitting can go
//! wrong), plus the race-set extraction used for verdict comparison.
#![allow(dead_code)]

use barracuda_core::shadow::SHADOW_PAGE_SIZE;
use barracuda_core::{Detector, ReferenceDetector, Worker};
use barracuda_trace::ops::{AccessKind, Event, MemSpace, Scope};
use barracuda_trace::GridDims;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Shared-segment size every detector in these tests declares: it covers
/// each shared address the generators emit (page boundaries up to the
/// third, plus a warp of 8-byte strides), as the simulator guarantees for
/// every record of a launch that completes. The detector keeps no shadow
/// past the declared segment.
pub const SHARED_BYTES: u64 = 4 * SHADOW_PAGE_SIZE;

/// Picks a base address near a shadow page boundary: for size `s`, the
/// offsets `boundary - s .. boundary + 1` cover fully-before, straddling
/// (every split point), and fully-after placements.
pub fn boundary_addr(rng: &mut StdRng, size: u8) -> u64 {
    let page = 1 + rng.random_range(0..3); // pages 1..=3
    let boundary = page * SHADOW_PAGE_SIZE;
    let lo = boundary - u64::from(size);
    lo + rng.random_range(0..u64::from(size) + 1)
}

fn random_scope(rng: &mut StdRng) -> Scope {
    if rng.random::<bool>() {
        Scope::Block
    } else {
        Scope::Global
    }
}

/// One access event with lane addresses clustered around page boundaries.
///
/// Three layouts:
/// * **coalesced** — consecutive lanes at `base + lane*size`, so the warp
///   window itself may cross the boundary;
/// * **shared-word** — all lanes at one (possibly straddling) address,
///   maximising same-cell conflicts under a single page sweep;
/// * **scattered** — each lane draws its own boundary-straddling address,
///   possibly on different pages.
pub fn gen_access(rng: &mut StdRng, warp: u64, mask: u32) -> Event {
    let kind = match rng.random_range(0..10) {
        0..=3 => AccessKind::Read,
        4..=6 => AccessKind::Write,
        7 => AccessKind::Atomic,
        8 => {
            if rng.random::<bool>() {
                AccessKind::Acquire(random_scope(rng))
            } else {
                AccessKind::Release(random_scope(rng))
            }
        }
        _ => AccessKind::AcquireRelease(random_scope(rng)),
    };
    let space = if rng.random_range(0..4) == 0 {
        MemSpace::Shared
    } else {
        MemSpace::Global
    };
    let size = [1u8, 2, 4, 8][rng.random_range(0..4)];
    let mut addrs = [0u64; 32];
    match rng.random_range(0..3) {
        0 => {
            let base = boundary_addr(rng, size);
            for l in 0..32u32 {
                if mask & (1 << l) != 0 {
                    addrs[l as usize] = base + u64::from(l) * u64::from(size);
                }
            }
        }
        1 => {
            let base = boundary_addr(rng, size);
            for l in 0..32u32 {
                if mask & (1 << l) != 0 {
                    addrs[l as usize] = base;
                }
            }
        }
        _ => {
            for l in 0..32u32 {
                if mask & (1 << l) != 0 {
                    addrs[l as usize] = boundary_addr(rng, size);
                }
            }
        }
    }
    Event::Access {
        warp,
        kind,
        space,
        mask,
        addrs,
        size,
    }
}

/// Balanced per-warp program: straight-line accesses with occasional
/// divergent branches (which force the detector off the uniform-view
/// path and back on again at `Fi`).
fn gen_body(rng: &mut StdRng, warp: u64, mask: u32, depth: u32, out: &mut Vec<Event>) {
    let steps = rng.random_range(1..4);
    for _ in 0..steps {
        if depth < 2 && mask.count_ones() >= 2 && rng.random::<f64>() < 0.3 {
            let mut then_mask = 0u32;
            for l in 0..32 {
                if mask & (1 << l) != 0 && rng.random::<bool>() {
                    then_mask |= 1 << l;
                }
            }
            let else_mask = mask & !then_mask;
            out.push(Event::If {
                warp,
                then_mask,
                else_mask,
            });
            if then_mask != 0 {
                gen_body(rng, warp, then_mask, depth + 1, out);
            }
            out.push(Event::Else { warp });
            if else_mask != 0 {
                gen_body(rng, warp, else_mask, depth + 1, out);
            }
            out.push(Event::Fi { warp });
        } else {
            out.push(gen_access(rng, warp, mask));
        }
    }
}

/// Well-formed multi-warp stream: interleaved per-warp programs with
/// barrier rounds, ending in `Exit`.
pub fn gen_stream(seed: u64, dims: &GridDims, rounds: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for round in 0..rounds {
        let mut programs: Vec<Vec<Event>> = (0..dims.num_warps())
            .map(|w| {
                let mut p = Vec::new();
                gen_body(&mut rng, w, dims.initial_mask(w), 0, &mut p);
                p.reverse();
                p
            })
            .collect();
        loop {
            let alive: Vec<usize> = (0..programs.len())
                .filter(|&i| !programs[i].is_empty())
                .collect();
            if alive.is_empty() {
                break;
            }
            let w = alive[rng.random_range(0..alive.len())];
            out.push(programs[w].pop().expect("non-empty"));
        }
        if round + 1 < rounds || rng.random::<bool>() {
            for w in 0..dims.num_warps() {
                out.push(Event::Bar {
                    warp: w,
                    mask: dims.initial_mask(w),
                });
            }
        }
    }
    for w in 0..dims.num_warps() {
        out.push(Event::Exit {
            warp: w,
            mask: dims.initial_mask(w),
        });
    }
    out
}

/// `(space, block, base address)` — the verdict identity compared across
/// detector configurations.
pub type RaceKey = (u8, u64, u64);

pub fn race_set(reports: &[barracuda_core::RaceReport]) -> BTreeSet<RaceKey> {
    reports
        .iter()
        .map(|r| {
            (
                match r.space {
                    MemSpace::Global => 0u8,
                    MemSpace::Shared => 1,
                },
                r.block.unwrap_or(0),
                r.addr,
            )
        })
        .collect()
}

/// Unified single-worker run of the production detector.
pub fn run_config(dims: GridDims, stream: &[Event]) -> BTreeSet<RaceKey> {
    let det = Detector::new(dims, SHARED_BYTES);
    let mut worker = Worker::new(&det);
    for ev in stream {
        worker.process_event(ev);
    }
    race_set(&det.races().reports())
}

/// Uncompressed dense-vector-clock reference run.
pub fn run_reference(dims: GridDims, stream: &[Event]) -> BTreeSet<RaceKey> {
    let mut reference = ReferenceDetector::new(dims);
    for ev in stream {
        reference.process_event(ev);
    }
    race_set(&reference.races().reports())
}

/// Shifts every warp id in `ev` by `offset` — the remapping the
/// co-resident scheduler's demux applies when two kernels are folded
/// into one logical launch (kernel B's warps land in later blocks).
pub fn offset_warps(ev: &Event, offset: u64) -> Event {
    let mut out = ev.clone();
    match &mut out {
        Event::Access { warp, .. }
        | Event::If { warp, .. }
        | Event::Else { warp }
        | Event::Fi { warp }
        | Event::Bar { warp, .. }
        | Event::Exit { warp, .. } => *warp += offset,
    }
    out
}

/// A two-stream workload folded into one logical launch: two
/// independently generated kernels, each a block of `per_kernel` dims,
/// with kernel B's warps offset into block 1. Returned per-kernel
/// streams are valid inputs for [`interleave_two`].
pub fn gen_two_stream(
    seed: u64,
    per_kernel: &GridDims,
    rounds: usize,
) -> (GridDims, Vec<Event>, Vec<Event>) {
    assert_eq!(per_kernel.num_blocks(), 1, "one block per kernel");
    let combined = GridDims::with_warp_size(2u32, per_kernel.block, per_kernel.warp_size);
    let a = gen_stream(seed, per_kernel, rounds);
    let b: Vec<Event> = gen_stream(seed.wrapping_add(0x9e37_79b9), per_kernel, rounds)
        .iter()
        .map(|ev| offset_warps(ev, per_kernel.num_warps()))
        .collect();
    (combined, a, b)
}

/// Deterministically interleaves two event streams, preserving each
/// stream's internal order — the schedule a co-resident warp scheduler
/// would produce. `seed = 0` concatenates (fully serial schedule).
pub fn interleave_two(seed: u64, a: &[Event], b: &[Event]) -> Vec<Event> {
    if seed == 0 {
        return a.iter().chain(b).cloned().collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ia, mut ib) = (0, 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    while ia < a.len() || ib < b.len() {
        let take_a = ia < a.len() && (ib == b.len() || rng.random::<bool>());
        if take_a {
            out.push(a[ia].clone());
            ia += 1;
        } else {
            out.push(b[ib].clone());
            ib += 1;
        }
    }
    out
}
