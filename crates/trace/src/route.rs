//! Page-hash record routing for the sharded detection pipeline.
//!
//! The classic pipeline (§4.2) routes every record of a block to one
//! queue by `(epoch, block)` hash, and workers serialize on per-page
//! mutexes because any worker may touch any shadow page. The sharded
//! mode instead partitions *pages* over workers: a plain global access is
//! routed to the worker that owns the shadow page it touches, making that
//! worker the exclusive owner of those cells — the hot path then needs no
//! page lock at all. Ownership is a pure function of the page key
//! ([`page_partition`]), so producer and consumers always agree.
//!
//! Three consequences, all handled here:
//!
//! * an access that straddles a page boundary may touch pages owned by
//!   different workers — [`split_global_access`] splits it into
//!   per-owner *fragments*, each carrying the original lane addresses
//!   plus a byte window (`frag_off`/`frag_len`) restricting the copy to
//!   the owner's bytes (races still report at the lane's base address);
//! * a worker no longer sees every record of a warp, so it cannot count
//!   instructions to maintain the warp's logical clock — every record
//!   carries a [`seq`](crate::Record::seq) stamp ([`SeqStamper`]) with
//!   the number of plain accesses the warp emitted before it, and each
//!   worker fast-forwards its clock replica by the stamp delta;
//! * control and synchronization records are *broadcast* to every queue
//!   (each worker keeps a full replica of every warp's clocks), which is
//!   what makes barriers resolvable worker-locally — see
//!   [`route_class`] and the runtime pipeline sink.

use crate::backoff::splitmix;
use crate::record::{Record, RecordKind};

/// Bytes covered by one shadow page. This is the canonical constant; the
/// detector's `barracuda_core::shadow::SHADOW_PAGE_SIZE` aliases it so
/// the producer-side router and the consumer-side shadow always agree.
pub const SHADOW_PAGE_SIZE: u64 = 4096;

/// The shadow-page key covering `addr`.
pub fn page_key_of(addr: u64) -> u64 {
    addr / SHADOW_PAGE_SIZE
}

/// The worker (queue index) that owns shadow page `page_key` when the
/// page space is partitioned over `shards` workers.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn page_partition(page_key: u64, shards: usize) -> usize {
    assert!(shards > 0, "page partition needs at least one shard");
    (splitmix(page_key) % shards as u64) as usize
}

/// Coarse routing class of a record in the sharded pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteClass {
    /// Plain (non-sync) access to global memory: page-partitioned, may
    /// be split into per-owner fragments.
    PlainGlobal,
    /// Plain access to shared memory: routed whole to the block's owner
    /// queue (shared shadow is per-block state).
    PlainShared,
    /// Synchronization record (either space): broadcast to every queue
    /// under a broadcast [`SyncOrder`](crate::SyncOrder) ticket.
    Sync,
    /// Control-flow / barrier / exit record: broadcast to every queue so
    /// all clock replicas stay exact.
    Control,
}

/// Classifies a record for sharded routing. Corrupted kind bytes are
/// classified as [`RouteClass::Control`] (broadcast; every consumer
/// counts them as damaged).
pub fn route_class(rec: &Record) -> RouteClass {
    let plain = rec.kind == RecordKind::Read as u8
        || rec.kind == RecordKind::Write as u8
        || rec.kind == RecordKind::Atomic as u8;
    if plain {
        if rec.space == 0 {
            RouteClass::PlainGlobal
        } else {
            RouteClass::PlainShared
        }
    } else if rec.is_sync() {
        RouteClass::Sync
    } else {
        RouteClass::Control
    }
}

/// True for plain (non-synchronizing) access kinds — the records that
/// advance a warp's logical clock and therefore bump its seq counter.
pub fn is_plain_access_kind(kind: u8) -> bool {
    kind == RecordKind::Read as u8
        || kind == RecordKind::Write as u8
        || kind == RecordKind::Atomic as u8
}

/// Per-warp sequence stamping for a single-threaded record producer.
///
/// `seq` counts the warp's *plain accesses* (the instructions whose
/// clock tick the sharded workers must reconstruct); sync and control
/// records are stamped with the current count without incrementing it —
/// their clock effects are applied by every replica directly.
#[derive(Debug, Default)]
pub struct SeqStamper {
    /// Keyed by `(slot, warp)`: warp ids are launch-local, so records
    /// from co-resident kernels in an interleaved group reuse the same
    /// warp numbers and must keep independent counters.
    counters: std::collections::HashMap<(u8, u64), u32>,
}

impl SeqStamper {
    /// A stamper with no warps seen yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps `rec.seq` and advances the warp's counter for plain
    /// accesses.
    pub fn stamp(&mut self, rec: &mut Record) {
        let c = self.counters.entry((rec.slot, rec.warp)).or_insert(0);
        rec.seq = *c;
        if is_plain_access_kind(rec.kind) {
            *c += 1;
        }
    }
}

/// One routed fragment of a plain global access: the owning shard and
/// the sub-record to enqueue there.
#[derive(Debug, Clone, Copy)]
struct Group {
    shard: u16,
    off: u8,
    len: u8,
    mask: u32,
}

/// Splits a plain global-access record over `shards` page partitions,
/// invoking `emit(shard, fragment)` once per (owner, byte-window) group
/// in deterministic first-lane order.
///
/// Every fragment keeps the original per-lane base addresses, size, warp
/// and seq stamp; its `mask` selects the lanes participating in this
/// group and `frag_off`/`frag_len` select the byte window of each lane's
/// access that falls on pages owned by `shard`. Lanes with identical
/// windows going to the same shard share one fragment, so per-page lane
/// order (ascending lane index within a fragment, fragments in order of
/// their first lane) matches the unsharded page-major sweep.
///
/// Accesses are at most 8 bytes wide, so a lane straddles at most one
/// page boundary and contributes at most two windows. Bytes past
/// `u64::MAX` do not exist: a lane whose access would wrap keeps only
/// the window up to the top of the address space.
pub fn split_global_access(rec: &Record, shards: usize, mut emit: impl FnMut(usize, Record)) {
    debug_assert!(is_plain_access_kind(rec.kind) && rec.space == 0);
    let size = u64::from(rec.size.max(1));
    // ≤ 32 lanes × ≤ 2 windows each.
    let mut groups = [Group {
        shard: 0,
        off: 0,
        len: 0,
        mask: 0,
    }; 64];
    let mut ngroups = 0usize;
    for lane in 0..32u32 {
        if rec.mask & (1 << lane) == 0 {
            continue;
        }
        let base = rec.addrs[lane as usize];
        let mut off = 0u64;
        while off < size {
            // Window = intersection of [base, base+size) with one page.
            let Some(addr) = base.checked_add(off) else {
                break;
            };
            let len = (size - off).min(SHADOW_PAGE_SIZE - addr % SHADOW_PAGE_SIZE);
            let shard = page_partition(page_key_of(addr), shards) as u16;
            let (o8, l8) = (off as u8, len as u8);
            match groups[..ngroups]
                .iter_mut()
                .find(|g| g.shard == shard && g.off == o8 && g.len == l8)
            {
                Some(g) => g.mask |= 1 << lane,
                None => {
                    groups[ngroups] = Group {
                        shard,
                        off: o8,
                        len: l8,
                        mask: 1 << lane,
                    };
                    ngroups += 1;
                }
            }
            off += len;
        }
    }
    for g in &groups[..ngroups] {
        let mut frag = *rec;
        frag.mask = g.mask;
        frag.frag_off = g.off;
        frag.frag_len = g.len;
        emit(g.shard as usize, frag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AccessKind, Event, MemSpace};

    fn access(warp: u64, mask: u32, size: u8, addr_of: impl Fn(u32) -> u64) -> Record {
        let mut addrs = [0u64; 32];
        for (lane, a) in addrs.iter_mut().enumerate() {
            *a = addr_of(lane as u32);
        }
        Record::encode(&Event::Access {
            warp,
            kind: AccessKind::Write,
            space: MemSpace::Global,
            mask,
            addrs,
            size,
        })
    }

    #[test]
    fn partition_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8, 30] {
            for key in 0..256u64 {
                let p = page_partition(key, shards);
                assert!(p < shards);
                assert_eq!(p, page_partition(key, shards), "pure function");
            }
        }
        // Adjacent pages should not all collapse onto one shard.
        let hits: std::collections::HashSet<_> = (0..64u64).map(|k| page_partition(k, 8)).collect();
        assert!(hits.len() > 1, "mixer must spread adjacent pages");
    }

    #[test]
    fn whole_page_access_is_not_split() {
        // 32 lanes × 4B contiguous inside one page.
        let rec = access(3, u32::MAX, 4, |l| 4096 + u64::from(l) * 4);
        let mut frags = Vec::new();
        split_global_access(&rec, 4, |shard, f| frags.push((shard, f)));
        assert_eq!(frags.len(), 1);
        let (shard, f) = &frags[0];
        assert_eq!(*shard, page_partition(1, 4));
        assert_eq!(f.mask, u32::MAX);
        assert_eq!((f.frag_off, f.frag_len), (0, 4));
        assert_eq!(f.addrs, rec.addrs, "fragments keep base addresses");
        assert_eq!(f.seq, rec.seq);
    }

    /// Satellite: page-split fragments cover every (lane, byte) exactly
    /// once, each byte lands on its page's owner, and per-page lane
    /// order is preserved (fragment masks ascend; fragments for one
    /// shard appear in first-lane order).
    #[test]
    fn page_split_covers_bytes_once_and_preserves_lane_order() {
        // Lanes 0..31 × 8B starting 100 bytes before a page boundary:
        // lanes 0..12 straddle or sit around the 3*4096 boundary.
        let base = 3 * 4096 - 100;
        let rec = access(7, u32::MAX, 8, |l| base + u64::from(l) * 8);
        for shards in [1usize, 2, 4, 8] {
            let mut frags: Vec<(usize, Record)> = Vec::new();
            split_global_access(&rec, shards, |s, f| frags.push((s, f)));
            // Every (lane, byte-offset) appears exactly once, on the
            // shard owning its page.
            let mut seen = std::collections::HashMap::new();
            for (shard, f) in &frags {
                let len = if f.frag_len == 0 { f.size } else { f.frag_len };
                for lane in 0..32u32 {
                    if f.mask & (1 << lane) == 0 {
                        continue;
                    }
                    for b in 0..len {
                        let byte = f.addrs[lane as usize] + u64::from(f.frag_off) + u64::from(b);
                        assert_eq!(
                            page_partition(page_key_of(byte), shards),
                            *shard,
                            "byte routed to its page owner"
                        );
                        assert!(
                            seen.insert((lane, u64::from(f.frag_off) + u64::from(b)), ())
                                .is_none(),
                            "byte covered once"
                        );
                    }
                }
            }
            assert_eq!(seen.len(), 32 * 8, "all bytes covered (shards={shards})");
            // Per-shard fragments appear in first-lane order.
            for target in 0..shards {
                let firsts: Vec<u32> = frags
                    .iter()
                    .filter(|(s, _)| *s == target)
                    .map(|(_, f)| f.mask.trailing_zeros())
                    .collect();
                let mut sorted = firsts.clone();
                sorted.sort_unstable();
                assert_eq!(firsts, sorted, "lane order per shard");
            }
        }
    }

    /// A lane window running past `u64::MAX` stops at the top of the
    /// address space.
    #[test]
    fn windows_stop_at_the_top_of_the_address_space() {
        let rec = access(0, 0b11, 8, |l| u64::MAX - 3 - 4 * u64::from(l));
        let last_page = page_key_of(u64::MAX);
        for shards in [1usize, 4] {
            let mut frags = Vec::new();
            split_global_access(&rec, shards, |shard, f| frags.push((shard, f)));
            let windows: Vec<_> = frags
                .iter()
                .map(|(shard, f)| (*shard, f.mask, f.frag_off, f.frag_len))
                .collect();
            let owner = page_partition(last_page, shards);
            assert_eq!(
                windows,
                vec![(owner, 0b01, 0, 4), (owner, 0b10, 0, 8)],
                "lane 0 at MAX-3 keeps 4 bytes, lane 1 at MAX-7 all 8 (shards={shards})"
            );
        }
    }

    #[test]
    fn seq_stamper_counts_plain_accesses_per_warp() {
        let mut st = SeqStamper::new();
        let mut w0a = access(0, 1, 4, |_| 0);
        let mut w1a = access(1, 1, 4, |_| 0);
        let mut w0b = access(0, 1, 4, |_| 8);
        st.stamp(&mut w0a);
        st.stamp(&mut w1a);
        st.stamp(&mut w0b);
        assert_eq!((w0a.seq, w1a.seq, w0b.seq), (0, 0, 1));
        // Sync and control records carry the count without advancing it.
        let mut sync = Record::encode(&Event::Access {
            warp: 0,
            kind: AccessKind::Release(crate::ops::Scope::Global),
            space: MemSpace::Global,
            mask: 1,
            addrs: [0; 32],
            size: 4,
        });
        let mut bar = Record::encode(&Event::Bar { warp: 0, mask: 1 });
        st.stamp(&mut sync);
        st.stamp(&mut bar);
        assert_eq!((sync.seq, bar.seq), (2, 2));
        let mut w0c = access(0, 1, 4, |_| 16);
        st.stamp(&mut w0c);
        assert_eq!(w0c.seq, 2, "sync/control do not consume seq numbers");
    }

    #[test]
    fn seq_stamper_keeps_slots_independent() {
        // Co-resident kernels reuse launch-local warp ids; the stamper
        // must not let slot 1's accesses consume slot 0's seq numbers.
        let mut st = SeqStamper::new();
        let mut a0 = access(0, 1, 4, |_| 0);
        let mut b0 = access(0, 1, 4, |_| 0);
        b0.slot = 1;
        let mut a1 = access(0, 1, 4, |_| 8);
        st.stamp(&mut a0);
        st.stamp(&mut b0);
        st.stamp(&mut a1);
        assert_eq!((a0.seq, b0.seq, a1.seq), (0, 0, 1));
    }

    #[test]
    fn route_classes() {
        let g = access(0, 1, 4, |_| 0);
        assert_eq!(route_class(&g), RouteClass::PlainGlobal);
        let mut s = g;
        s.space = 1;
        assert_eq!(route_class(&s), RouteClass::PlainShared);
        let sync = Record::encode(&Event::Access {
            warp: 0,
            kind: AccessKind::Acquire(crate::ops::Scope::Block),
            space: MemSpace::Shared,
            mask: 1,
            addrs: [0; 32],
            size: 4,
        });
        assert_eq!(route_class(&sync), RouteClass::Sync);
        let bar = Record::encode(&Event::Bar { warp: 0, mask: 1 });
        assert_eq!(route_class(&bar), RouteClass::Control);
        let mut corrupt = g;
        corrupt.kind = 0xC3;
        assert_eq!(route_class(&corrupt), RouteClass::Control);
    }
}
