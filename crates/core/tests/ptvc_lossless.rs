//! Losslessness of the PTVC compression (paper §4.3.1: "BARRACUDA's PTVC
//! compression is lossless, and always functionally equivalent to a full
//! vector clock").
//!
//! Property: on any well-formed warp-level event stream, the compressed
//! detector and the uncompressed reference detector (dense per-thread
//! vector clocks, literal Fig. 2–3 semantics) report exactly the same set
//! of racing locations.

use barracuda_core::{Detector, ReferenceDetector, Worker};
use barracuda_trace::ops::{AccessKind, Event, MemSpace, Scope};
use barracuda_trace::GridDims;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Declared shared-segment size: covers every shared address the
/// generator emits (`0x1000` plus at most 21, then 4 bytes). The detector
/// keeps no shadow past the declared segment.
const SHARED_BYTES: u64 = 0x1020;

/// Generates a balanced (possibly branching) program for one warp with
/// the given active mask.
fn gen_body(rng: &mut StdRng, warp: u64, mask: u32, depth: u32, out: &mut Vec<Event>) {
    let steps = rng.random_range(1..4);
    for _ in 0..steps {
        if depth < 2 && mask.count_ones() >= 2 && rng.random::<f64>() < 0.35 {
            // Random divergent (or one-sided) branch.
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

fn gen_access(rng: &mut StdRng, warp: u64, mask: u32) -> Event {
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
    let space = if rng.random::<bool>() {
        MemSpace::Global
    } else {
        MemSpace::Shared
    };
    let size = [1u8, 2, 4][rng.random_range(0..3)];
    let mut addrs = [0u64; 32];
    for l in 0..32 {
        if mask & (1 << l) != 0 {
            // Small pool of addresses to force conflicts; slight misalign
            // to stress byte granularity.
            addrs[l as usize] = 0x1000 + rng.random_range(0..6) * 4 + rng.random_range(0..2);
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

fn random_scope(rng: &mut StdRng) -> Scope {
    if rng.random::<bool>() {
        Scope::Block
    } else {
        Scope::Global
    }
}

/// Builds a well-formed multi-warp stream: rounds of per-warp balanced
/// programs randomly interleaved, separated by full block barriers.
fn gen_stream(seed: u64, dims: &GridDims, rounds: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for round in 0..rounds {
        // Per-warp programs.
        let mut programs: Vec<Vec<Event>> = (0..dims.num_warps())
            .map(|w| {
                let mut p = Vec::new();
                gen_body(&mut rng, w, dims.initial_mask(w), 0, &mut p);
                p.reverse(); // pop from the back below
                p
            })
            .collect();
        // Random interleaving preserving per-warp order.
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
        // Barrier round (not after the last round half the time).
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

type RaceKey = (u8, u64, u64);

fn race_set(reports: &[barracuda_core::RaceReport]) -> BTreeSet<RaceKey> {
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

fn run_both(dims: GridDims, stream: &[Event]) -> (BTreeSet<RaceKey>, BTreeSet<RaceKey>) {
    let det = Detector::new(dims, SHARED_BYTES);
    let mut worker = Worker::new(&det);
    let mut reference = ReferenceDetector::new(dims);
    for ev in stream {
        worker.process_event(ev);
        reference.process_event(ev);
    }
    (
        race_set(&det.races().reports()),
        race_set(&reference.races().reports()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline losslessness property.
    #[test]
    fn compressed_and_reference_verdicts_match(
        seed in any::<u64>(),
        blocks in 1u32..3,
        warps_per_block in 1u32..3,
        rounds in 1usize..4,
    ) {
        let warp_size = 4;
        let dims = GridDims::with_warp_size(blocks, warps_per_block * warp_size, warp_size);
        let stream = gen_stream(seed, &dims, rounds);
        let (compressed, reference) = run_both(dims, &stream);
        prop_assert_eq!(
            &compressed, &reference,
            "verdict divergence on seed {} (stream of {} events)", seed, stream.len()
        );
    }

    /// Partial last warps (thread counts not divisible by the warp size)
    /// must not change the equivalence.
    #[test]
    fn verdicts_match_with_partial_warps(
        seed in any::<u64>(),
        tpb in 1u32..8,
    ) {
        let dims = GridDims::with_warp_size(2u32, tpb, 4);
        let stream = gen_stream(seed, &dims, 2);
        let (compressed, reference) = run_both(dims, &stream);
        prop_assert_eq!(compressed, reference);
    }

    /// Streams where every thread touches its own address are race-free.
    #[test]
    fn disjoint_accesses_are_race_free(seed in any::<u64>()) {
        let dims = GridDims::with_warp_size(2u32, 8u32, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let det = Detector::new(dims, 64);
        let mut worker = Worker::new(&det);
        for _ in 0..40 {
            let warp = rng.random_range(0..dims.num_warps());
            let mask = dims.initial_mask(warp);
            let mut addrs = [0u64; 32];
            for l in 0..4u32 {
                let t = dims.tid_of_lane(warp, l).0;
                addrs[l as usize] = 0x1000 + t * 8;
            }
            let kind = if rng.random::<bool>() { AccessKind::Read } else { AccessKind::Write };
            worker.process_event(&Event::Access {
                warp, kind, space: MemSpace::Global, mask, addrs, size: 4,
            });
        }
        prop_assert_eq!(det.races().race_count(), 0);
    }
}

/// A deterministic regression case exercising every event kind once.
#[test]
fn smoke_stream_matches() {
    let dims = GridDims::with_warp_size(2u32, 8u32, 4);
    for seed in 0..50 {
        let stream = gen_stream(seed, &dims, 3);
        let (compressed, reference) = run_both(dims, &stream);
        assert_eq!(compressed, reference, "seed {seed}");
    }
}
