//! Verdict equivalence of the warp-coalesced shadow checks.
//!
//! The detector (`check_warp_access`: one page lock per record,
//! word-granularity cell merging, converged-warp uniform clock views)
//! must report exactly the same racing locations as the uncompressed
//! reference detector (dense vector clocks, per-byte cells, literal
//! Fig. 2–3 semantics).
//!
//! The generators (see `common`) deliberately stress the cases where
//! batching could go wrong: unaligned accesses of sizes 1/2/4/8 placed at
//! offsets that straddle `SHADOW_PAGE_SIZE` boundaries (a single access
//! split across two page locks), lanes of one warp hitting different
//! pages, and divergent masks that disable the uniform-view path
//! mid-stream. A second generator broadcast-reads one span from every
//! warp, so word runs share one reader set that narrower or shifted
//! reads must copy before they update it. A third splits records into
//! lane groups (one span per group, checked once per group) over warps
//! that straddle reader-set chunks or carry an external clock.

mod common;

use barracuda_core::shadow::SHADOW_PAGE_SIZE;
use barracuda_core::{Detector, ReferenceDetector, Worker};
use barracuda_trace::ops::{AccessKind, Event, MemSpace, Scope};
use barracuda_trace::{GridDims, Tid};
use common::{boundary_addr, gen_stream, run_config, run_reference, SHARED_BYTES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Every warp of every block reads one span a few times, all active
/// lanes at one address, with sizes 1/2/4/8 at offsets that partially
/// overlap. After a barrier (usually) one or two warps read 1 or 2 bytes
/// of the span again, into cells whose reader set other cells share, so
/// the update must copy it; then one lane writes (or atomically updates)
/// part of the span.
fn gen_broadcast(seed: u64, dims: &GridDims) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = if rng.random_range(0..4) == 0 {
        MemSpace::Shared
    } else {
        MemSpace::Global
    };
    let base = match space {
        MemSpace::Shared => rng.random_range(0..56),
        MemSpace::Global => boundary_addr(&mut rng, 8),
    };
    let read = |rng: &mut StdRng, warp: u64, sizes: &[u8]| {
        let full = dims.initial_mask(warp);
        let mask = if rng.random_range(0..4) == 0 {
            (rng.random::<u32>() & full).max(1)
        } else {
            full
        };
        let size = sizes[rng.random_range(0..sizes.len())];
        Event::Access {
            warp,
            kind: AccessKind::Read,
            space,
            mask,
            addrs: [base + rng.random_range(0..9 - u64::from(size)); 32],
            size,
        }
    };
    let mut left: Vec<(u64, u32)> = (0..dims.num_warps())
        .map(|w| (w, rng.random_range(1..4)))
        .collect();
    let mut out = Vec::new();
    while !left.is_empty() {
        let i = rng.random_range(0..left.len());
        out.push(read(&mut rng, left[i].0, &[1, 2, 4, 8]));
        left[i].1 -= 1;
        if left[i].1 == 0 {
            left.swap_remove(i);
        }
    }
    if rng.random_range(0..4) != 0 {
        for w in 0..dims.num_warps() {
            out.push(Event::Bar {
                warp: w,
                mask: dims.initial_mask(w),
            });
        }
    }
    for _ in 0..rng.random_range(1..3) {
        let warp = rng.random_range(0..dims.num_warps());
        out.push(read(&mut rng, warp, &[1, 2]));
    }
    let warp = rng.random_range(0..dims.num_warps());
    let lane = rng.random_range(0..dims.initial_mask(warp).count_ones());
    let size = [1u8, 2, 4, 8][rng.random_range(0..4)];
    out.push(Event::Access {
        warp,
        kind: if rng.random::<bool>() {
            AccessKind::Write
        } else {
            AccessKind::Atomic
        },
        space,
        mask: 1 << lane,
        addrs: [base + rng.random_range(0..9 - u64::from(size)); 32],
        size,
    });
    for w in 0..dims.num_warps() {
        out.push(Event::Exit {
            warp: w,
            mask: dims.initial_mask(w),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Verdict equality with the reference on streams of unaligned,
    /// page-straddling accesses.
    #[test]
    fn verdicts_match_reference(
        seed in any::<u64>(),
        blocks in 1u32..3,
        warps_per_block in 1u32..3,
        rounds in 1usize..4,
    ) {
        let warp_size = 4;
        let dims = GridDims::with_warp_size(blocks, warps_per_block * warp_size, warp_size);
        let stream = gen_stream(seed, &dims, rounds);
        prop_assert_eq!(
            run_config(dims, &stream), run_reference(dims, &stream),
            "divergence from the reference on seed {} (stream of {} events)", seed, stream.len()
        );
    }

    /// Partial last warps must not change the equivalence (the uniform
    /// view keys on the dims-provided live mask).
    #[test]
    fn partial_warps_match_reference(
        seed in any::<u64>(),
        tpb in 1u32..8,
    ) {
        let dims = GridDims::with_warp_size(2u32, tpb, 4);
        let stream = gen_stream(seed, &dims, 2);
        prop_assert_eq!(run_config(dims, &stream), run_reference(dims, &stream));
    }
}

proptest! {
    // Only about one stream in thirty can tell a shared reader set
    // updated in place from a copied one, so this runs more cases.
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Verdict equality with the reference on broadcast reads of one
    /// span by many warps and blocks, followed by one writer.
    #[test]
    fn broadcast_reads_match_reference(
        seed in any::<u64>(),
        blocks in 1u32..4,
        warps_per_block in 1u32..4,
        warp_log in 2u32..6,
    ) {
        let warp_size = 1 << warp_log;
        let dims = GridDims::with_warp_size(blocks, warps_per_block * warp_size, warp_size);
        let stream = gen_broadcast(seed, &dims);
        prop_assert_eq!(
            run_config(dims, &stream), run_reference(dims, &stream),
            "divergence from the reference on seed {}", seed
        );
    }
}

/// Lane-group streams: every read record splits its active lanes into
/// one or two groups (the whole mask at one address, or a low and a high
/// half at different addresses) over one span; some warps acquire a flag
/// at global scope first, so their reads carry an external clock and no
/// uniform view; writes and atomics hit the span from groups of several
/// lanes. Global or shared space, chosen per stream.
fn gen_lane_groups(seed: u64, dims: &GridDims) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = if rng.random_range(0..3) == 0 {
        MemSpace::Shared
    } else {
        MemSpace::Global
    };
    let base = match space {
        MemSpace::Shared => rng.random_range(0..56),
        MemSpace::Global => boundary_addr(&mut rng, 8),
    };
    let flag = 0x10_0000u64;
    let addr_of = |rng: &mut StdRng, size: u8| base + rng.random_range(0..9 - u64::from(size));
    let mut out = Vec::new();
    // One warp releases the flag; some warps acquire it (a global acquire
    // gives the acquirer an external clock).
    let releaser = rng.random_range(0..dims.num_warps());
    out.push(Event::Access {
        warp: releaser,
        kind: AccessKind::Release(Scope::Global),
        space: MemSpace::Global,
        mask: 1,
        addrs: [flag; 32],
        size: 4,
    });
    let mut steps: Vec<u64> = (0..dims.num_warps())
        .flat_map(|w| std::iter::repeat_n(w, rng.random_range(1..4)))
        .collect();
    for i in (1..steps.len()).rev() {
        steps.swap(i, rng.random_range(0..i + 1));
    }
    for warp in steps {
        let full = dims.initial_mask(warp);
        if rng.random_range(0..4) == 0 {
            out.push(Event::Access {
                warp,
                kind: AccessKind::Acquire(Scope::Global),
                space: MemSpace::Global,
                mask: full,
                addrs: [flag; 32],
                size: 4,
            });
        }
        let mask = if rng.random_range(0..4) == 0 {
            (rng.random::<u32>() & full).max(1)
        } else {
            full
        };
        let kind = match rng.random_range(0..8) {
            0 => AccessKind::Write,
            1 => AccessKind::Atomic,
            _ => AccessKind::Read,
        };
        let size = [1u8, 2, 4, 8][rng.random_range(0..4)];
        let (lo, hi) = (addr_of(&mut rng, size), addr_of(&mut rng, size));
        let split = rng.random_range(0..dims.warp_size + 1);
        let two_halves = rng.random::<bool>();
        let mut addrs = [lo; 32];
        if two_halves {
            for a in &mut addrs[split as usize..] {
                *a = hi;
            }
        }
        out.push(Event::Access {
            warp,
            kind,
            space,
            mask,
            addrs,
            size,
        });
        if rng.random_range(0..6) == 0 {
            for w in 0..dims.num_warps() {
                out.push(Event::Bar {
                    warp: w,
                    mask: dims.initial_mask(w),
                });
            }
        }
    }
    let warp = rng.random_range(0..dims.num_warps());
    let size = [1u8, 2, 4, 8][rng.random_range(0..4)];
    out.push(Event::Access {
        warp,
        kind: AccessKind::Write,
        space,
        mask: 1 << rng.random_range(0..dims.initial_mask(warp).count_ones()),
        addrs: [addr_of(&mut rng, size); 32],
        size,
    });
    for w in 0..dims.num_warps() {
        out.push(Event::Exit {
            warp: w,
            mask: dims.initial_mask(w),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Verdict equality with the reference when one record's lanes form
    /// lane groups: block sizes that are not a multiple of the warp size
    /// (so warps straddle 32-thread reader-set chunks, e.g. 48 threads
    /// per block at warp size 32), reads after a global acquire (no
    /// uniform view), two half-warp groups at different addresses, and
    /// shared-space broadcasts.
    #[test]
    fn lane_groups_match_reference(
        seed in any::<u64>(),
        blocks in 1u32..4,
        tpb in 1u32..100,
        warp_log in 3u32..6,
    ) {
        let warp_size = 1 << warp_log;
        let dims = GridDims::with_warp_size(blocks, tpb, warp_size);
        let stream = gen_lane_groups(seed, &dims);
        prop_assert_eq!(
            run_config(dims, &stream), run_reference(dims, &stream),
            "divergence from the reference on seed {}", seed
        );
    }
}

/// Block size 48 at warp size 32: block 1's first warp (TIDs 48..80)
/// straddles two reader-set chunks; its broadcast read after a global
/// acquire races with a later write exactly as in the reference, which
/// names the same (lowest) reader.
#[test]
fn straddling_warp_groups_after_an_acquire_match_reference() {
    let dims = GridDims::with_warp_size(2u32, 48u32, 32);
    let read = |warp: u64, kind: AccessKind, addr: u64| Event::Access {
        warp,
        kind,
        space: MemSpace::Global,
        mask: dims.initial_mask(warp),
        addrs: [addr; 32],
        size: 4,
    };
    let stream = [
        read(0, AccessKind::Release(Scope::Global), 0x8000),
        read(2, AccessKind::Acquire(Scope::Global), 0x8000),
        read(2, AccessKind::Read, 0x1000),
        read(1, AccessKind::Read, 0x1000),
        Event::Access {
            warp: 3,
            kind: AccessKind::Write,
            space: MemSpace::Global,
            mask: 1,
            addrs: [0x1000; 32],
            size: 4,
        },
    ];
    let det = Detector::new(dims, 64);
    let mut worker = Worker::new(&det);
    let mut reference = ReferenceDetector::new(dims);
    for ev in &stream {
        worker.process_event(ev);
        reference.process_event(ev);
    }
    let (got, want) = (det.races().reports(), reference.races().reports());
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got, want);
    // Warp 1 (TIDs 32..48) is block 0; warp 2 (48..80) is block 1, and
    // TID 32 is the lowest racing reader of warp 3's (TID 80) write.
    assert_eq!(got[0].previous.0, Tid(32));
}

/// Deterministic page-straddle sweep: two conflicting warps write a
/// window that crosses a page boundary at every possible split point, for
/// every access size. Each byte of the straddling window must race, as
/// in the reference.
#[test]
fn straddling_writes_race_identically_at_every_split() {
    let dims = GridDims::with_warp_size(2u32, 4u32, 4);
    for size in [1u8, 2, 4, 8] {
        for off in 0..=u64::from(size) {
            let base = 2 * SHADOW_PAGE_SIZE - u64::from(size) + off;
            let ev = |warp: u64| Event::Access {
                warp,
                kind: AccessKind::Write,
                space: MemSpace::Global,
                mask: 0b1,
                addrs: [base; 32],
                size,
            };
            let stream = [ev(0), ev(1)];
            let races = run_config(dims, &stream);
            assert_eq!(
                races,
                run_reference(dims, &stream),
                "size {size} offset {off}"
            );
            assert!(
                !races.is_empty(),
                "size {size} offset {off}: conflicting writes must race"
            );
        }
    }
}

/// The batched sweep's shortcuts actually engage on these streams (the
/// differential is vacuous if they never fire).
#[test]
fn fast_path_counters_prove_engagement() {
    let dims = GridDims::with_warp_size(2u32, 8u32, 4);
    let stream = gen_stream(7, &dims, 3);
    let det = Detector::new(dims, SHARED_BYTES);
    let mut worker = Worker::new(&det);
    for ev in &stream {
        worker.process_event(ev);
    }
    let stats = worker.path_stats();
    assert!(stats.batched_records > 0, "no batched records: {stats:?}");
    assert!(stats.page_locks > 0, "no page locks counted");
    assert!(stats.uniform_records > 0, "uniform view never engaged");
}
