//! Shadow memory (paper §4.3.3, Fig. 8).
//!
//! Per-location (1-byte granularity, "for generality") metadata: a
//! last-write epoch with an atomic bit, a last-read epoch that inflates to
//! a [`ReaderSet`] under concurrent readers, and attribute flags.
//! Shared-memory shadow is preallocated per block (its size is known at
//! launch); global-memory shadow is allocated on demand, a page at a
//! time, in a page map behind one read-write lock (the paper's page-table
//! root lock), and each page carries its own mutex, since any worker may
//! touch any page.
//!
//! # Reader sets
//!
//! READSHARED reader sets are compressed along the warp hierarchy the way
//! PTVCs compress clocks (§4.3): a warp's lanes are consecutive global
//! TIDs and one warp instruction reads at one clock, so a [`ReaderSet`]
//! stores *32-thread chunks* (`tid >> 5`) with a lane bit mask and one
//! clock per entry. A whole-warp read that lands in an inflated set is a
//! single insert touching at most two chunks. Entries are kept sorted by
//! `(chunk, clock)`, one per pair, with disjoint bit masks inside a chunk,
//! so the layout is lossless and canonical (equal sets compare equal
//! entry by entry), and iteration yields readers in ascending TID order —
//! which is what makes a write that races with several readers report the
//! lowest racing TID.

use crate::clock::{Clock, Epoch};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// One entry of a [`ReaderSet`]: the threads `chunk * 32 + b` for every
/// set bit `b` of `lanes`, each last read at `clock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkEntry {
    chunk: u32,
    lanes: u32,
    clock: Clock,
}

/// The READSHARED reader map `TID → clock`, stored by 32-thread chunk
/// (see the [module docs](self#reader-sets)).
///
/// A flat vector sorted by `(chunk, clock)` and searched by binary
/// search: a block's worth of readers is a handful of entries, and an
/// insert that replaces a warp's previous read reuses the entry it
/// empties, so steady-state re-reads never allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReaderSet {
    entries: Vec<ChunkEntry>,
}

/// The set bits of `mask`, in ascending order (a lane group's lanes).
pub(crate) fn lanes_of(mut mask: u32) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            bit
        })
    })
}

impl ReaderSet {
    /// The set `{a, b}` READINFLATE builds from the last-read epoch and
    /// the concurrent reader.
    pub fn pair(a: Epoch, b: Epoch) -> Self {
        let mut s = ReaderSet {
            entries: Vec::with_capacity(2),
        };
        s.insert(a.tid, a.clock);
        s.insert(b.tid, b.clock);
        s
    }

    /// Records that thread `tid` read at `clock`.
    pub fn insert(&mut self, tid: u32, clock: Clock) {
        self.insert_chunk(tid >> 5, 1 << (tid & 31), clock);
    }

    /// Records that the threads `base + l`, for every set bit `l` of
    /// `lanes`, all read at `clock` — one warp instruction's lane group,
    /// whose TIDs are consecutive from `base` (the TID of lane 0). Touches
    /// at most two chunks. Every TID must fit in `u32`.
    pub fn insert_group(&mut self, base: u32, lanes: u32, clock: Clock) {
        debug_assert!(
            lanes == 0
                || u64::from(base) + u64::from(31 - lanes.leading_zeros()) <= u64::from(u32::MAX),
            "group TIDs past u32::MAX"
        );
        let (chunk, shift) = (base >> 5, base & 31);
        let low = lanes << shift;
        if low != 0 {
            self.insert_chunk(chunk, low, clock);
        }
        if shift != 0 {
            let high = lanes >> (32 - shift);
            if high != 0 {
                self.insert_chunk(chunk + 1, high, clock);
            }
        }
    }

    /// Sets the clock of every thread of `chunk` in `lanes` to `clock`,
    /// keeping the entries canonical: the bits move out of the chunk's
    /// other entries into the one entry for `clock` (reusing an entry the
    /// move empties before growing the vector), and empty entries go.
    fn insert_chunk(&mut self, chunk: u32, lanes: u32, clock: Clock) {
        let v = &mut self.entries;
        let lo = v.partition_point(|e| e.chunk < chunk);
        let mut hi = lo;
        let mut merged = false;
        while hi < v.len() && v[hi].chunk == chunk {
            let e = &mut v[hi];
            if e.clock == clock {
                e.lanes |= lanes;
                merged = true;
            } else {
                e.lanes &= !lanes;
            }
            hi += 1;
        }
        if !merged {
            let fresh = ChunkEntry {
                chunk,
                lanes,
                clock,
            };
            match v[lo..hi].iter().position(|e| e.lanes == 0) {
                Some(i) => v[lo + i] = fresh,
                None => {
                    v.insert(hi, fresh);
                    hi += 1;
                }
            }
            v[lo..hi].sort_unstable_by_key(|e| e.clock);
        }
        // Drop emptied entries, keeping the rest in order.
        let mut kept = lo;
        for i in lo..hi {
            if v[i].lanes != 0 {
                v.swap(kept, i);
                kept += 1;
            }
        }
        v.drain(kept..hi);
    }

    /// The clock at which `tid` last read, if it is in the set.
    pub fn get(&self, tid: u32) -> Option<Clock> {
        let chunk = tid >> 5;
        let bit = 1 << (tid & 31);
        let lo = self.entries.partition_point(|e| e.chunk < chunk);
        self.entries[lo..]
            .iter()
            .take_while(|e| e.chunk == chunk)
            .find(|e| e.lanes & bit != 0)
            .map(|e| e.clock)
    }

    /// Number of readers.
    pub fn len(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.lanes.count_ones() as usize)
            .sum()
    }

    /// True when the set holds no reader.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every `(tid, clock)` pair, in ascending TID order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Clock)> + '_ {
        self.entries
            .chunk_by(|a, b| a.chunk == b.chunk)
            .flat_map(|run| {
                let all = run.iter().fold(0u32, |acc, e| acc | e.lanes);
                lanes_of(all).map(move |b| {
                    let e = run
                        .iter()
                        .find(|e| e.lanes & (1 << b) != 0)
                        .expect("a chunk's bits come from its entries");
                    ((run[0].chunk << 5) | b, e.clock)
                })
            })
    }
}

/// Read metadata: an epoch for totally-ordered readers, inflated to a
/// [`ReaderSet`] under concurrent readers.
///
/// The set is a copy-on-write allocation: the cells of one word run
/// (`check_cells_run`) all point at one reader set, and a cell that
/// updates a set it still shares copies it first (`Arc::make_mut`), so
/// no cell ever sees another cell's update through an alias.
#[derive(Debug, Clone)]
pub enum ReadMeta {
    /// Totally-ordered readers: a single epoch.
    Epoch(Epoch),
    /// Concurrent readers: TID → clock, by warp chunk.
    Shared(Arc<ReaderSet>),
}

impl PartialEq for ReadMeta {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ReadMeta::Epoch(a), ReadMeta::Epoch(b)) => a == b,
            // Cells of one run share a set: identity settles it without
            // walking the entries.
            (ReadMeta::Shared(a), ReadMeta::Shared(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Eq for ReadMeta {}

impl ReadMeta {
    /// True when no read has been recorded.
    pub fn is_bottom(&self) -> bool {
        matches!(self, ReadMeta::Epoch(e) if e.is_bottom())
    }
}

/// Per-byte shadow cell. The paper packs this into 32 bytes; this struct
/// has the same fields (write epoch, read epoch / reader set, atomic /
/// read-shared / sync-location flags) and a matching footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowCell {
    /// Most recent write (`W_x`).
    pub write: Epoch,
    /// Read metadata (`R_x`).
    pub read: ReadMeta,
    /// The most recent write came from an atomic operation (§3.3.2).
    pub write_atomic: bool,
    /// The location has been used with acquire/release operations.
    pub sync_loc: bool,
}

impl Default for ShadowCell {
    fn default() -> Self {
        ShadowCell {
            write: Epoch::BOTTOM,
            read: ReadMeta::Epoch(Epoch::BOTTOM),
            write_atomic: false,
            sync_loc: false,
        }
    }
}

/// Bytes of tracked memory per shadow page.
pub const SHADOW_PAGE_SIZE: u64 = 4096;

/// One page of global-memory shadow.
#[derive(Debug)]
pub struct ShadowPage {
    /// One cell per tracked byte.
    pub cells: Vec<ShadowCell>,
}

impl ShadowPage {
    fn new() -> Self {
        ShadowPage {
            cells: vec![ShadowCell::default(); SHADOW_PAGE_SIZE as usize],
        }
    }

    /// The cell for `addr` (which must belong to this page).
    pub fn cell_mut(&mut self, addr: u64) -> &mut ShadowCell {
        &mut self.cells[(addr % SHADOW_PAGE_SIZE) as usize]
    }
}

/// An allocated shadow page behind its lock: the paper's per-location
/// lock, taken once per page a warp access touches (§4.3.3). Every access
/// locks the page: the host sweep, the synchronous pipeline and the
/// threaded workers alike, since any worker may touch any page.
pub type ShadowPageSlot = Mutex<ShadowPage>;

/// On-demand paged shadow for global memory, safe for concurrent detector
/// threads: the paper's page table behind a root lock, here a read-write
/// lock over a key → page map. A lookup takes the read lock and clones the
/// page's `Arc`; only a first touch takes the write lock.
#[derive(Default)]
pub struct GlobalShadow {
    pages: RwLock<HashMap<u64, Arc<ShadowPageSlot>>>,
}

impl std::fmt::Debug for GlobalShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalShadow")
            .field("pages", &self.page_count())
            .finish()
    }
}

impl GlobalShadow {
    /// An empty shadow.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page with key `key` (`addr / SHADOW_PAGE_SIZE`), allocating it
    /// on first touch. Every caller gets the same page for a key: pages
    /// are never replaced or removed. A new page is filled before the
    /// write lock is taken, so lookups of other pages never wait behind
    /// a page fill; a thread that loses the insert race drops its copy.
    pub fn page_by_key(&self, key: u64) -> Arc<ShadowPageSlot> {
        if let Some(page) = self.pages.read().get(&key) {
            return Arc::clone(page);
        }
        let fresh = Arc::new(Mutex::new(ShadowPage::new()));
        Arc::clone(self.pages.write().entry(key).or_insert(fresh))
    }

    /// The pages covering `len` bytes starting at `addr`, in ascending
    /// address order, allocating on first touch. Each item pairs the page
    /// key (`addr / SHADOW_PAGE_SIZE`) with the page, so callers can lock
    /// each page exactly once and sweep every byte of the range that
    /// lands on it under the single guard. Returns a lazy iterator — no
    /// allocation per call beyond first-touch pages.
    pub fn pages_for_range(
        &self,
        addr: u64,
        len: u64,
    ) -> impl Iterator<Item = (u64, Arc<ShadowPageSlot>)> + '_ {
        let (first, last) = if len == 0 {
            (1, 0) // empty range
        } else {
            (addr / SHADOW_PAGE_SIZE, (addr + len - 1) / SHADOW_PAGE_SIZE)
        };
        (first..=last).map(move |k| (k, self.page_by_key(k)))
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.pages.read().len()
    }
}

/// Preallocated shadow for one block's shared memory (lock-free: all of a
/// block's shared-memory events are processed by the same detector
/// thread, §4.2).
#[derive(Debug)]
pub struct SharedShadow {
    cells: Vec<ShadowCell>,
}

impl SharedShadow {
    /// Shadow for a `size`-byte shared segment.
    pub fn new(size: u64) -> Self {
        SharedShadow {
            cells: vec![ShadowCell::default(); size as usize],
        }
    }

    /// The cells of bytes `[offset, offset + len)` that lie inside the
    /// segment. The table never grows: a record naming bytes past the
    /// declared segment belongs to an access the simulator faults (the
    /// record is logged first), and a failed launch's reports are
    /// discarded, so those bytes have no shadow to check.
    pub fn range_mut(&mut self, offset: u64, len: u64) -> &mut [ShadowCell] {
        let end = self.cells.len() as u64;
        let start = offset.min(end);
        &mut self.cells[start as usize..offset.saturating_add(len).min(end) as usize]
    }

    /// Segment size covered.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True for zero-length segments.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::HOST_TID;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The page covering `addr`, allocated on first touch.
    fn page_of(g: &GlobalShadow, addr: u64) -> Arc<ShadowPageSlot> {
        g.page_by_key(addr / SHADOW_PAGE_SIZE)
    }

    #[test]
    fn default_cell_is_bottom() {
        let c = ShadowCell::default();
        assert!(c.write.is_bottom());
        assert!(c.read.is_bottom());
        assert!(!c.write_atomic);
        assert!(!c.sync_loc);
    }

    #[test]
    fn cell_footprint_is_modest() {
        // The paper packs per-location metadata into 32 bytes; ours must
        // stay in the same ballpark (8B write epoch + shared read meta +
        // flags).
        assert!(
            std::mem::size_of::<ShadowCell>() <= 32,
            "{}",
            std::mem::size_of::<ShadowCell>()
        );
    }

    /// Applies `op` to both the set and a `BTreeMap` model: `(base,
    /// lanes, clock)` adds the group `base + l` for each set bit `l`.
    fn apply(set: &mut ReaderSet, model: &mut BTreeMap<u32, Clock>, op: (u32, u32, Clock)) {
        let (base, lanes, clock) = op;
        set.insert_group(base, lanes, clock);
        for l in (0..32).filter(|l| lanes & (1 << l) != 0) {
            model.insert(base + l, clock);
        }
    }

    /// One insert: a lane group at a base biased towards few chunks (so
    /// inserts collide, at every alignment) or the top of the TID space,
    /// a single TID, or [`HOST_TID`]; lane masks are cut so every TID
    /// fits in `u32`.
    fn insert_op() -> impl Strategy<Value = (u32, u32, Clock)> {
        (0u8..6, any::<u32>(), any::<u32>(), 1u32..6).prop_map(|(kind, raw, lanes, clock)| {
            let (base, lanes) = match kind {
                0 => (raw % 200, u32::MAX),
                1 => (raw % 200, lanes),
                2 => (u32::MAX - raw % 70, lanes),
                3 => (raw, lanes),
                4 => (raw % 200, 1),
                _ => (HOST_TID, 1),
            };
            let room = u32::MAX - base; // highest lane index that fits
            let lanes = if room < 31 {
                lanes & ((2u32 << room) - 1)
            } else {
                lanes
            };
            (base, lanes, clock)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chunked layout is lossless: after every single or group
        /// insert, iteration is strictly ascending by TID and equals a
        /// plain `TID → clock` map, and `get`/`len` agree with it.
        #[test]
        fn reader_set_matches_a_btreemap_model(
            ops in proptest::collection::vec(insert_op(), 1..40),
        ) {
            let mut set = ReaderSet::default();
            let mut model = BTreeMap::new();
            for op in ops {
                apply(&mut set, &mut model, op);
                let got: Vec<(u32, Clock)> = set.iter().collect();
                prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "not ascending: {:?}", got);
                let want: Vec<(u32, Clock)> = model.iter().map(|(&t, &c)| (t, c)).collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.get(op.0), model.get(&op.0).copied());
            }
        }
    }

    #[test]
    fn reader_set_is_canonical_and_reuses_emptied_entries() {
        // Two sets with the same readers built in different orders
        // compare equal entry by entry.
        let mut a = ReaderSet::default();
        a.insert_group(40, u32::MAX, 3); // chunks 1 and 2
        a.insert(45, 4);
        let mut b = ReaderSet::default();
        b.insert(45, 4);
        b.insert_group(40, !(1 << 5), 3);
        assert_eq!(a, b);
        // A warp re-reading at a new clock replaces its entries without
        // growing the vector.
        let mut s = ReaderSet::default();
        s.insert_group(64, u32::MAX, 1);
        let cap = s.entries.capacity();
        for clock in 2..10 {
            s.insert_group(64, u32::MAX, clock);
        }
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries.capacity(), cap);
        assert_eq!(s.get(95), Some(9));
        assert_eq!(s.get(96), None);
    }

    #[test]
    fn global_shadow_allocates_on_demand() {
        let g = GlobalShadow::new();
        assert_eq!(g.page_count(), 0);
        page_of(&g, 0x1000_0000).lock().cell_mut(0x1000_0000).write = Epoch::new(3, 1);
        assert_eq!(g.page_count(), 1);
        // Same page reused.
        assert_eq!(
            page_of(&g, 0x1000_0004).lock().cell_mut(0x1000_0000).write,
            Epoch::new(3, 1)
        );
        assert_eq!(g.page_count(), 1);
        // Different page.
        page_of(&g, 0x1000_0000 + SHADOW_PAGE_SIZE);
        assert_eq!(g.page_count(), 2);
    }

    #[test]
    fn shared_shadow_range_mut_slices_inside_the_segment() {
        let mut s = SharedShadow::new(8);
        for c in s.range_mut(2, 4).iter_mut() {
            c.write = Epoch::new(2, 7);
        }
        assert!(s.range_mut(1, 1)[0].write.is_bottom());
        assert!(s
            .range_mut(2, 4)
            .iter()
            .all(|c| c.write == Epoch::new(2, 7)));
        assert!(s.range_mut(6, 2)[0].write.is_bottom());
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn shared_shadow_never_grows_past_the_segment() {
        let mut s = SharedShadow::new(16);
        assert_eq!(
            s.range_mut(14, 4).len(),
            2,
            "a straddling access is clipped"
        );
        assert!(s.range_mut(16, 1).is_empty());
        assert!(s.range_mut(u64::MAX - 2, 8).is_empty());
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn pages_for_range_spans_boundaries() {
        let g = GlobalShadow::new();
        assert_eq!(g.pages_for_range(0x1000, 0).count(), 0);
        let one: Vec<_> = g.pages_for_range(SHADOW_PAGE_SIZE - 4, 4).collect();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].0, 0);
        let two: Vec<_> = g.pages_for_range(SHADOW_PAGE_SIZE - 4, 8).collect();
        assert_eq!(two.len(), 2);
        assert_eq!((two[0].0, two[1].0), (0, 1));
        // Keys match what an address lookup resolves, and the pages are
        // shared.
        two[0].1.lock().cell_mut(SHADOW_PAGE_SIZE - 1).write = Epoch::new(5, 3);
        assert_eq!(
            page_of(&g, SHADOW_PAGE_SIZE - 1)
                .lock()
                .cell_mut(SHADOW_PAGE_SIZE - 1)
                .write,
            Epoch::new(5, 3)
        );
        assert_eq!(g.page_count(), 2);
    }

    #[test]
    fn page_identity_is_stable_across_lookups_and_growth() {
        let g = GlobalShadow::new();
        // Force several rehashes of the map and check that every key
        // keeps resolving to the very same page.
        let keys: Vec<u64> = (0..2048u64).collect();
        let first: Vec<Arc<ShadowPageSlot>> = keys.iter().map(|&k| g.page_by_key(k)).collect();
        assert_eq!(g.page_count(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&g.page_by_key(k), &first[i]),
                "key {k} moved after growth"
            );
        }
        assert_eq!(g.page_count(), keys.len(), "lookups never re-insert");
    }

    #[test]
    fn concurrent_page_access() {
        let g = GlobalShadow::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let g = &g;
                s.spawn(move || {
                    for i in 0..100u64 {
                        let addr = 0x1000_0000 + i * 64;
                        page_of(g, addr).lock().cell_mut(addr).write =
                            Epoch::new(i as Clock + 1, t);
                    }
                });
            }
        });
        assert!(g.page_count() >= 1);
    }

    /// N threads hammering `page_by_key` insertions must all
    /// observe the same `ShadowPage` identity for every key.
    #[test]
    fn concurrent_inserts_agree_on_page_identity() {
        let g = GlobalShadow::new();
        let per_thread: Vec<Vec<(u64, usize)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let g = &g;
                    s.spawn(move || {
                        // Every thread visits the same keys, in a
                        // thread-dependent order, racing the inserts.
                        (0..512u64)
                            .map(|i| {
                                let k = (i * 31 + t * 7) % 512;
                                (k, Arc::as_ptr(&g.page_by_key(k)) as usize)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut identity = std::collections::HashMap::new();
        for obs in &per_thread {
            for &(k, p) in obs {
                let prev = identity.insert(k, p);
                assert!(
                    prev.is_none() || prev == Some(p),
                    "threads disagree on the page for key {k}"
                );
            }
        }
        assert_eq!(identity.len(), 512);
        assert_eq!(g.page_count(), 512, "losing racers must not double-insert");
    }
}
