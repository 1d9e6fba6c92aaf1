//! Edge cases of the detection rules: read inflation, release assignment
//! semantics, fenced-atomic chains, partial warps, and sparse clocks
//! inside divergent regions.

use barracuda_core::{Detector, RaceClass, Worker};
use barracuda_trace::ops::{AccessKind, Event, MemSpace, Scope};
use barracuda_trace::GridDims;

/// 2 blocks × 8 threads, warp size 4.
fn dims() -> GridDims {
    GridDims::with_warp_size(2u32, 8u32, 4)
}

fn access(warp: u64, kind: AccessKind, mask: u32, addr: u64) -> Event {
    Event::Access {
        warp,
        kind,
        space: MemSpace::Global,
        mask,
        addrs: [addr; 32],
        size: 4,
    }
}

fn bar_all(w: &mut Worker<'_>, dims: &GridDims, block: u64) {
    let wpb = dims.warps_per_block();
    for i in 0..wpb {
        let warp = block * wpb + i;
        w.process_event(&Event::Bar {
            warp,
            mask: dims.initial_mask(warp),
        });
    }
}

#[test]
fn three_concurrent_readers_inflate_then_barrier_write_is_clean() {
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    // Readers across both warps of block 0 (concurrent → reader map).
    w.process_event(&access(0, AccessKind::Read, 0b0001, 0x1000));
    w.process_event(&access(1, AccessKind::Read, 0b0001, 0x1000));
    w.process_event(&access(0, AccessKind::Read, 0b0010, 0x1000));
    assert_eq!(det.races().race_count(), 0, "reads never race");
    // Barrier orders all of block 0, then a write from warp 1: clean.
    bar_all(&mut w, &d, 0);
    w.process_event(&access(1, AccessKind::Write, 0b0001, 0x1000));
    assert_eq!(det.races().race_count(), 0);
}

#[test]
fn write_races_with_one_of_many_readers() {
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    w.process_event(&access(0, AccessKind::Read, 0b0001, 0x1000));
    w.process_event(&access(1, AccessKind::Read, 0b0001, 0x1000));
    // Block 1 writes without synchronization: races with the reader map.
    w.process_event(&access(2, AccessKind::Write, 0b0001, 0x1000));
    assert_eq!(det.races().race_count(), 1);
    assert_eq!(det.races().reports()[0].class, RaceClass::InterBlock);
}

#[test]
fn acquire_of_never_released_location_is_a_noop() {
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    w.process_event(&access(0, AccessKind::Write, 0b0001, 0x1000));
    // Block 1 acquires a flag nobody released: no ordering created.
    w.process_event(&access(
        2,
        AccessKind::Acquire(Scope::Global),
        0b0001,
        0x2000,
    ));
    w.process_event(&access(2, AccessKind::Write, 0b0001, 0x1000));
    assert_eq!(det.races().race_count(), 1);
}

#[test]
fn release_is_assignment_not_join() {
    // Per RELBLOCK/RELGLOBAL, a release *assigns* S_x := C_t. A second
    // release by an unsynchronized thread overwrites the first, so an
    // acquirer only synchronizes with the last releaser.
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    let data = 0x1000;
    let flag = 0x2000;
    // Warp 0 lane 0 (T0) writes data and releases.
    w.process_event(&access(0, AccessKind::Write, 0b0001, data));
    w.process_event(&access(0, AccessKind::Release(Scope::Global), 0b0001, flag));
    // Warp 1 lane 0 (T4, same block, unsynchronized with T0) re-releases.
    w.process_event(&access(1, AccessKind::Release(Scope::Global), 0b0001, flag));
    // Block 1 acquires: sees only T4's clock → T0's write unordered.
    w.process_event(&access(2, AccessKind::Acquire(Scope::Global), 0b0001, flag));
    w.process_event(&access(2, AccessKind::Write, 0b0001, data));
    assert_eq!(
        det.races().race_count(),
        1,
        "the first release was overwritten"
    );
}

#[test]
fn acqrel_ticket_chain_orders_all_participants() {
    // threadFenceReduction at the rule level: each block writes its
    // partial, then performs a global acquire-release on the ticket. The
    // last participant is ordered after every earlier partial write.
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    let ticket = 0x3000;
    // Block 0 warp 0 writes partial 0 and acq-rels the ticket.
    w.process_event(&access(0, AccessKind::Write, 0b0001, 0x1000));
    w.process_event(&access(
        0,
        AccessKind::AcquireRelease(Scope::Global),
        0b0001,
        ticket,
    ));
    // Block 1 warp 0 writes partial 1 and acq-rels the ticket (joins block
    // 0's clock before re-assigning — the C' ⊔ S_x step).
    w.process_event(&access(2, AccessKind::Write, 0b0001, 0x1004));
    w.process_event(&access(
        2,
        AccessKind::AcquireRelease(Scope::Global),
        0b0001,
        ticket,
    ));
    // Block 1 then reads both partials: fully ordered.
    w.process_event(&access(2, AccessKind::Read, 0b0001, 0x1000));
    w.process_event(&access(2, AccessKind::Read, 0b0001, 0x1004));
    assert_eq!(det.races().race_count(), 0);
}

#[test]
fn partial_last_warp_barrier_is_well_formed() {
    // 1 block × 6 threads with warp size 4: warp 0 has 4 lanes, warp 1
    // has 2. A barrier with exactly the initial masks completes without a
    // divergence diagnostic.
    let d = GridDims::with_warp_size(1u32, 6u32, 4);
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    w.process_event(&access(0, AccessKind::Write, 0b0001, 0x1000));
    w.process_event(&Event::Bar {
        warp: 0,
        mask: 0b1111,
    });
    w.process_event(&Event::Bar {
        warp: 1,
        mask: 0b0011,
    });
    assert!(det.races().diagnostics().is_empty());
    // And the barrier ordered the write for warp 1's lanes.
    w.process_event(&access(1, AccessKind::Write, 0b0001, 0x1000));
    assert_eq!(det.races().race_count(), 0);
}

#[test]
fn same_thread_never_races_with_itself() {
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    for kind in [
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::Atomic,
        AccessKind::Write,
    ] {
        w.process_event(&access(0, kind, 0b0001, 0x1000));
    }
    assert_eq!(det.races().race_count(), 0);
}

#[test]
fn atomic_races_with_unordered_earlier_read() {
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    w.process_event(&access(0, AccessKind::Read, 0b0001, 0x1000));
    // INITATOM* check previous reads: unordered read vs atomic → race.
    w.process_event(&access(2, AccessKind::Atomic, 0b0001, 0x1000));
    assert_eq!(det.races().race_count(), 1);
}

#[test]
fn sparse_acquire_inside_divergent_branch_survives_fi() {
    // Lane 0 acquires a remote release while diverged; after fi the whole
    // warp must be ordered after the releaser.
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    let data = 0x1000;
    let flag = 0x2000;
    // Block 1 warp (warp 2) releases after writing data.
    w.process_event(&access(2, AccessKind::Write, 0b0001, data));
    w.process_event(&access(2, AccessKind::Release(Scope::Global), 0b0001, flag));
    // Warp 0 diverges; the then-path (lane 0) acquires.
    w.process_event(&Event::If {
        warp: 0,
        then_mask: 0b0001,
        else_mask: 0b1110,
    });
    w.process_event(&access(0, AccessKind::Acquire(Scope::Global), 0b0001, flag));
    w.process_event(&Event::Else { warp: 0 });
    w.process_event(&Event::Fi { warp: 0 });
    // After reconvergence lane 3 writes data: ordered through the
    // acquire that was merged at fi.
    w.process_event(&access(0, AccessKind::Write, 0b1000, data));
    assert_eq!(det.races().race_count(), 0, "{:?}", det.races().reports());
}

#[test]
fn divergent_else_path_does_not_inherit_then_acquire() {
    // The acquire happens on the then path only; the else path is
    // logically concurrent and must NOT be ordered after the releaser.
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    let data = 0x1000;
    let flag = 0x2000;
    w.process_event(&access(2, AccessKind::Write, 0b0001, data));
    w.process_event(&access(2, AccessKind::Release(Scope::Global), 0b0001, flag));
    w.process_event(&Event::If {
        warp: 0,
        then_mask: 0b0001,
        else_mask: 0b1110,
    });
    w.process_event(&access(0, AccessKind::Acquire(Scope::Global), 0b0001, flag));
    w.process_event(&Event::Else { warp: 0 });
    // Else-path lane 1 writes the data without having acquired.
    w.process_event(&access(0, AccessKind::Write, 0b0010, data));
    assert_eq!(det.races().race_count(), 1);
    w.process_event(&Event::Fi { warp: 0 });
}

#[test]
fn consecutive_barriers_each_form_a_round() {
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    for _ in 0..3 {
        bar_all(&mut w, &d, 0);
    }
    assert!(det.races().diagnostics().is_empty());
    // Writes on either side of the barriers are ordered.
    w.process_event(&access(0, AccessKind::Write, 0b0001, 0x1000));
    bar_all(&mut w, &d, 0);
    w.process_event(&access(1, AccessKind::Write, 0b0001, 0x1000));
    assert_eq!(det.races().race_count(), 0);
}

#[test]
fn shadow_memory_costs_about_32x_tracked_bytes() {
    // Fig. 8: per-byte metadata padded to 32 bytes → host shadow ≈ 32×
    // the GPU memory it tracks (allocated at page granularity).
    let d = dims();
    let det = Detector::new(d, 0);
    let mut w = Worker::new(&det);
    // Touch 4 full shadow pages of global memory.
    let page = barracuda_core::shadow::SHADOW_PAGE_SIZE;
    for p in 0..4u64 {
        w.process_event(&access(
            0,
            AccessKind::Write,
            0b0001,
            0x1000_0000 + p * page,
        ));
    }
    assert_eq!(det.shadow_page_count(), 4);
    let tracked = 4 * page;
    let ratio = det.shadow_bytes() as f64 / tracked as f64;
    assert!(
        (8.0..=32.0).contains(&ratio),
        "shadow/tracked ratio {ratio} outside the Fig. 8 ballpark"
    );
}

/// A write that races with several concurrent readers reports the lowest
/// racing reader TID, in both detectors and in every fresh detector of
/// one process (a hash-ordered reader map made the reported reader, and
/// with it the race class, vary from run to run).
#[test]
fn a_write_racing_many_readers_reports_the_lowest_reader_tid() {
    use barracuda_core::{AccessType, RaceReport, ReferenceDetector};
    use barracuda_trace::Tid;

    let d = GridDims::new(2u32, 64u32);
    let full = u32::MAX;
    // Warps 1 (block 0) and 2 (block 1) broadcast-read, warp 0 lane 1
    // reads, then warp 0 lane 0 writes: lane 1 is ordered before the
    // write (an earlier instruction of the same warp), TIDs 32..96 race.
    let stream = [
        access(1, AccessKind::Read, full, 0x1000),
        access(2, AccessKind::Read, full, 0x1000),
        access(0, AccessKind::Read, 0b10, 0x1000),
        access(0, AccessKind::Write, 0b01, 0x1000),
    ];
    let check = |reports: Vec<RaceReport>, who: &str| {
        assert_eq!(reports.len(), 1, "{who}: {reports:?}");
        assert_eq!(reports[0].current, (Tid(0), AccessType::Write), "{who}");
        assert_eq!(reports[0].previous, (Tid(32), AccessType::Read), "{who}");
        assert_eq!(reports[0].class, RaceClass::IntraBlock, "{who}");
    };
    for run in 0..32 {
        let det = Detector::new(d, 0);
        let mut w = Worker::new(&det);
        let mut reference = ReferenceDetector::new(d);
        for ev in &stream {
            w.process_event(ev);
            reference.process_event(ev);
        }
        check(det.races().reports(), &format!("detector, run {run}"));
        check(
            reference.races().reports(),
            &format!("reference, run {run}"),
        );
    }
}
