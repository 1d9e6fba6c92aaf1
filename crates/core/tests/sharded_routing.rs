//! Verdict equivalence of the sharded (page-hash-routed) detector.
//!
//! The sharded pipeline replays each event stream through N
//! owner-partitioned workers exactly as the runtime does: plain global
//! accesses split at shadow-page boundaries and route to the page
//! owner's worker, plain shared accesses route to the block owner, and
//! sync/control records replicate to every worker (sync records applied
//! in ascending worker order — the broadcast ticket's sub-turn
//! serialization). The racing locations must equal the unified
//! single-worker detector's on the same stream, for every worker count.
//!
//! The proptests run on *aligned* streams (every lane address rounded to
//! its access size), where lane windows are equal or disjoint and the
//! race sets must match the unified detector exactly. Unaligned
//! page-straddles are pinned by a deterministic single-lane sweep
//! instead: with *overlapping* unaligned windows, lanes of one
//! instruction are concurrent, and fragment grouping may attribute an
//! intra-instruction race to a different (equally valid) lane base
//! address than the unified sweep — the racing pair is still reported,
//! the key may differ (see DESIGN.md §sharding).

mod common;

use barracuda_core::{Detector, Worker};
use barracuda_trace::ops::{AccessKind, Event, MemSpace};
use barracuda_trace::queue::launch_block_hash;
use barracuda_trace::route::{
    page_key_of, page_partition, route_class, split_global_access, RouteClass, SeqStamper,
};
use barracuda_trace::{GridDims, Record};
use common::{gen_stream, race_set, run_config, RaceKey, SHARED_BYTES};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Rounds every lane address down to its access size, so lane windows of
/// one instruction are equal or disjoint (no partial overlap) and the
/// sharded fragment order cannot swap intra-instruction attribution.
fn align_stream(stream: &mut [Event]) {
    for ev in stream.iter_mut() {
        if let Event::Access { addrs, size, .. } = ev {
            for a in addrs.iter_mut() {
                *a -= *a % u64::from(*size);
            }
        }
    }
}

/// Replays `stream` through `workers` sharded workers with the runtime's
/// routing rules, in the deterministic schedule the sync-order ticketing
/// enforces (emission order; sync sub-turns ascending by worker index).
/// Returns `(race keys, barrier-divergence diagnostic count)`.
fn run_sharded(dims: GridDims, stream: &[Event], workers: usize) -> (BTreeSet<RaceKey>, usize) {
    let det = Detector::new(dims, SHARED_BYTES);
    let epoch = det.epoch();
    let mut ws: Vec<Worker> = (0..workers)
        .map(|i| Worker::new_sharded(&det, i, workers))
        .collect();
    let mut stamper = SeqStamper::new();
    for ev in stream {
        let mut rec = Record::encode(ev);
        stamper.stamp(&mut rec);
        match route_class(&rec) {
            RouteClass::PlainGlobal => {
                split_global_access(&rec, workers, |qi, frag| {
                    assert!(ws[qi].process_sharded_record(&frag), "fragment must decode");
                });
            }
            RouteClass::PlainShared => {
                let block = dims.block_of_warp(rec.warp);
                let qi = (launch_block_hash(epoch, block) % workers as u64) as usize;
                assert!(ws[qi].process_sharded_record(&rec), "record must decode");
            }
            RouteClass::Sync | RouteClass::Control => {
                for w in ws.iter_mut() {
                    assert!(w.process_sharded_record(&rec), "broadcast must decode");
                }
            }
        }
    }
    let diag = det.races().diagnostics().len();
    (race_set(&det.races().reports()), diag)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Sharded verdicts equal unified verdicts for 1, 2 and 4 workers.
    #[test]
    fn sharded_verdicts_match_unified(
        seed in any::<u64>(),
        blocks in 1u32..3,
        warps_per_block in 1u32..3,
        rounds in 1usize..4,
    ) {
        let warp_size = 4;
        let dims = GridDims::with_warp_size(blocks, warps_per_block * warp_size, warp_size);
        let mut stream = gen_stream(seed, &dims, rounds);
        align_stream(&mut stream);
        let unified = run_config(dims, &stream);
        for workers in [1usize, 2, 4] {
            let (sharded, _) = run_sharded(dims, &stream, workers);
            prop_assert_eq!(
                &sharded, &unified,
                "sharded({})/unified divergence on seed {} ({} events)",
                workers, seed, stream.len()
            );
        }
    }
}

/// Deterministic straddle: two warps write a window crossing a page
/// boundary at every split point. The fragments land on whichever
/// workers own the two pages, yet the race must be found at the base
/// address exactly as in unified mode — including when the two pages
/// hash to *different* workers (asserted to happen at least once so the
/// cross-worker case is genuinely covered).
#[test]
fn straddling_writes_race_identically_when_split_across_workers() {
    let dims = GridDims::with_warp_size(2u32, 4u32, 4);
    let workers = 4usize;
    let mut cross_worker_splits = 0u32;
    for size in [2u8, 4, 8] {
        for off in 1..u64::from(size) {
            let boundary = 2 * barracuda_core::shadow::SHADOW_PAGE_SIZE;
            let base = boundary - u64::from(size) + off;
            let ev = |warp: u64| Event::Access {
                warp,
                kind: AccessKind::Write,
                space: MemSpace::Global,
                mask: 0b1,
                addrs: [base; 32],
                size,
            };
            let stream = [ev(0), ev(1)];
            let lo = page_partition(page_key_of(base), workers);
            let hi = page_partition(page_key_of(base + u64::from(size) - 1), workers);
            if lo != hi {
                cross_worker_splits += 1;
            }
            let unified = run_config(dims, &stream);
            let (sharded, _) = run_sharded(dims, &stream, workers);
            assert_eq!(sharded, unified, "size {size} offset {off}");
            assert!(
                sharded.contains(&(0, 0, base)),
                "size {size} offset {off}: straddling race must report at the base address"
            );
        }
    }
    assert!(
        cross_worker_splits > 0,
        "test never exercised a cross-worker split"
    );
}

/// Barrier divergence is diagnosed exactly once in sharded mode: every
/// worker replays the block's control stream, but only the block's owner
/// shard reports.
#[test]
fn barrier_divergence_is_diagnosed_once_across_shards() {
    let dims = GridDims::with_warp_size(1u32, 8u32, 4);
    // Warp 0 arrives with a partial mask; warp 1 arrives full: divergence.
    let stream = [
        Event::Bar {
            warp: 0,
            mask: 0b0011,
        },
        Event::Bar {
            warp: 1,
            mask: 0b1111,
        },
        Event::Exit {
            warp: 0,
            mask: 0b1111,
        },
        Event::Exit {
            warp: 1,
            mask: 0b1111,
        },
    ];
    let det = Detector::new(dims, 64);
    let mut w = Worker::new(&det);
    for ev in &stream {
        w.process_event(ev);
    }
    let unified_diags = det.races().diagnostics().len();
    assert!(unified_diags > 0, "stream must diverge at the barrier");
    for workers in [1usize, 2, 4] {
        let (_, diags) = run_sharded(dims, &stream, workers);
        assert_eq!(
            diags, unified_diags,
            "{workers} sharded workers must not duplicate barrier diagnostics"
        );
    }
}
