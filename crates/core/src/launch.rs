//! Launch epochs: the global thread-id space of a persistent engine.
//!
//! The paper's detector observes one kernel launch; the persistent engine
//! observes a device lifetime — many launches plus host memory
//! operations. Each launch is assigned an *epoch* and a contiguous range
//! of the global 32-bit TID space (shadow epochs store `u32` thread ids,
//! Fig. 8), so per-byte shadow state written by launch *k* remains
//! attributable — and orderable — when launch *k+1* touches the same
//! byte. The [`LaunchRegistry`] maps a global TID back to its epoch,
//! launch-local TID, and *global block id* (blocks are offset the same
//! way, keeping synchronization-location slots distinct across launches).
//!
//! # Epoch-space recycling
//!
//! A device-lifetime session issues millions of launches; an append-only
//! registry would grow without bound and eventually exhaust the 32-bit
//! TID space. Two complementary mechanisms keep the registry
//! memory-bounded:
//!
//! * **Floor compaction** ([`compact_below`](LaunchRegistry::compact_below)):
//!   once the engine's host view watermark proves every epoch below `w`
//!   fully ordered before all future work, their `LaunchInfo` records are
//!   dropped and `(epoch_floor, tid_floor)` advance. A TID below the
//!   floor is *ancient*: any shadow cell still naming it is
//!   happens-before everything that can still run, which
//!   [`HClock::get_scoped`](crate::HClock::get_scoped) encodes by
//!   answering [`Clock::MAX`](crate::Clock) for ancient ids.
//! * **Generation reset** ([`reset_generation`](LaunchRegistry::reset_generation)):
//!   when *every* epoch is dead the engine wholesale replaces its shadow
//!   and sync-location state, and the registry restarts epochs, TIDs and
//!   block ids from zero — genuine TID reuse, sound because no metadata
//!   naming the old generation survives the reset.

use barracuda_trace::{GridDims, Tid, MAX_LAUNCH_THREADS};

/// Sentinel TID for the host thread (never a device thread: the registry
/// caps cumulative device TIDs below it).
pub const HOST_TID: u32 = u32::MAX;

// Device TIDs `0..MAX_LAUNCH_THREADS` end just below the host's.
const _: () = assert!(MAX_LAUNCH_THREADS == HOST_TID as u64);

/// [`HOST_TID`] widened to the `u64` key space used by [`HClock`]
/// entries and race reports.
///
/// [`HClock`]: crate::HClock
pub const HOST_TID_KEY: u64 = HOST_TID as u64;

/// Identity of one kernel launch within an engine's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchInfo {
    /// Launch epoch (index into the registry).
    pub epoch: u32,
    /// First global TID of this launch.
    pub tid_base: u64,
    /// Total threads in this launch.
    pub threads: u64,
    /// First global block id of this launch.
    pub block_base: u64,
    /// Number of blocks in this launch.
    pub blocks: u64,
    /// The launch dimensions.
    pub dims: GridDims,
}

impl LaunchInfo {
    /// The global block id owning global TID `t` (which must belong to
    /// this launch).
    pub fn global_block_of(&self, t: u64) -> u64 {
        self.block_base + self.dims.block_of(Tid(t - self.tid_base))
    }
}

/// Map from global TIDs to launches, shared (via `Arc`) by every clock
/// that needs to resolve foreign thread ids. Holds only the *live*
/// launches of the current generation: dead epochs below the floor are
/// compacted away (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct LaunchRegistry {
    /// Live launches: epochs `[epoch_floor, next_epoch)`, ascending.
    launches: Vec<LaunchInfo>,
    /// Every epoch below this has been compacted away.
    epoch_floor: u32,
    /// Every device TID below this belongs to a compacted launch.
    tid_floor: u64,
    /// Next epoch to assign.
    next_epoch: u32,
    /// Next global TID to assign.
    next_tid: u64,
    /// Next global block id to assign.
    next_block: u64,
    /// Completed generation resets (TID-space reuses).
    generation: u64,
    /// Most live launches ever resident at once.
    high_water: usize,
}

impl LaunchRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a launch, assigning it the next epoch and TID/block
    /// ranges; returns the epoch.
    ///
    /// # Panics
    ///
    /// Panics when the cumulative thread count would pass
    /// [`MAX_LAUNCH_THREADS`], the device TIDs below [`HOST_TID`]: one
    /// launch that passed [`GridDims::try_with_warp_size`] always fits an
    /// empty registry. Generation resets reclaim the space before a
    /// long-lived session gets there.
    pub fn register(&mut self, dims: GridDims) -> u32 {
        let threads = dims.total_threads();
        assert!(
            self.next_tid + threads <= MAX_LAUNCH_THREADS,
            "cumulative launch TIDs must fit in u32 (engine epoch space exhausted)"
        );
        let epoch = self.next_epoch;
        self.launches.push(LaunchInfo {
            epoch,
            tid_base: self.next_tid,
            threads,
            block_base: self.next_block,
            blocks: dims.num_blocks(),
            dims,
        });
        self.next_epoch += 1;
        self.next_tid += threads;
        self.next_block += dims.num_blocks();
        self.high_water = self.high_water.max(self.launches.len());
        epoch
    }

    /// The launch record for `epoch`, which must be live (not compacted).
    pub fn info(&self, epoch: u32) -> &LaunchInfo {
        &self.launches[(epoch - self.epoch_floor) as usize]
    }

    /// Number of launches registered in the current generation
    /// (including compacted ones: epochs keep their meaning).
    pub fn len(&self) -> usize {
        self.next_epoch as usize
    }

    /// True before the first launch of the current generation.
    pub fn is_empty(&self) -> bool {
        self.next_epoch == 0
    }

    /// Live (uncompacted) launches currently resident.
    pub fn live(&self) -> usize {
        self.launches.len()
    }

    /// Most live launches ever resident at once — the registry's memory
    /// high-water mark, pinned flat by the epoch-recycling soak.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// First live epoch; everything below has been compacted.
    pub fn epoch_floor(&self) -> u32 {
        self.epoch_floor
    }

    /// First live device TID; everything below is ancient.
    pub fn tid_floor(&self) -> u64 {
        self.tid_floor
    }

    /// Completed generation resets (each one reused the TID space).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True when `t` names a device thread of a compacted launch: its
    /// every access is happens-before anything that can still run, so
    /// clocks resolve it to `Clock::MAX`. The host sentinel is never
    /// ancient.
    pub fn is_ancient(&self, t: u64) -> bool {
        t < self.tid_floor
    }

    /// The launch owning global TID `t`, or `None` for the host
    /// sentinel, ancient ids, and out-of-range ids.
    pub fn lookup(&self, t: u64) -> Option<&LaunchInfo> {
        let idx = self.launches.partition_point(|l| l.tid_base <= t);
        let info = self.launches.get(idx.checked_sub(1)?)?;
        (t < info.tid_base + info.threads).then_some(info)
    }

    /// Drops every launch with epoch below `watermark` (clamped to the
    /// registered range), advancing the epoch and TID floors. Returns
    /// the number of launches compacted away. The caller must have
    /// proved the dropped epochs dead: fully ordered before every
    /// future access (the engine's host-view watermark).
    pub fn compact_below(&mut self, watermark: u32) -> usize {
        let w = watermark.min(self.next_epoch);
        if w <= self.epoch_floor {
            return 0;
        }
        let dead = (w - self.epoch_floor) as usize;
        self.launches.drain(..dead);
        self.epoch_floor = w;
        self.tid_floor = match self.launches.first() {
            Some(l) => l.tid_base,
            None => self.next_tid,
        };
        dead
    }

    /// Restarts the epoch, TID and block spaces from zero, beginning a
    /// new generation. Only sound when the caller discards *all* state
    /// naming the old generation (shadow memory, sync locations,
    /// per-epoch clocks) in the same breath — the engine's generation
    /// reset does exactly that.
    pub fn reset_generation(&mut self) {
        self.launches.clear();
        self.epoch_floor = 0;
        self.tid_floor = 0;
        self.next_epoch = 0;
        self.next_tid = 0;
        self.next_block = 0;
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_contiguous_ranges() {
        let mut r = LaunchRegistry::new();
        let d1 = GridDims::with_warp_size(2u32, 8u32, 4); // 16 threads, 2 blocks
        let d2 = GridDims::with_warp_size(3u32, 4u32, 4); // 12 threads, 3 blocks
        assert_eq!(r.register(d1), 0);
        assert_eq!(r.register(d2), 1);
        assert_eq!(r.info(1).tid_base, 16);
        assert_eq!(r.info(1).block_base, 2);
        assert_eq!(r.info(1).blocks, 3);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn lookup_resolves_epochs_and_rejects_host() {
        let mut r = LaunchRegistry::new();
        let d = GridDims::with_warp_size(2u32, 8u32, 4);
        r.register(d);
        r.register(d);
        assert_eq!(r.lookup(0).unwrap().epoch, 0);
        assert_eq!(r.lookup(15).unwrap().epoch, 0);
        assert_eq!(r.lookup(16).unwrap().epoch, 1);
        assert_eq!(r.lookup(31).unwrap().epoch, 1);
        assert!(r.lookup(32).is_none());
        assert!(r.lookup(HOST_TID_KEY).is_none());
    }

    #[test]
    fn global_block_ids_are_offset() {
        let mut r = LaunchRegistry::new();
        let d = GridDims::with_warp_size(2u32, 8u32, 4);
        r.register(d);
        r.register(d);
        let second = r.lookup(24).unwrap(); // thread 8 of launch 1 → its block 1
        assert_eq!(second.global_block_of(24), 3);
    }

    #[test]
    #[should_panic(expected = "epoch space exhausted")]
    fn tid_overflow_panics() {
        let mut r = LaunchRegistry::new();
        // 65,537 × 65,535 = u32::MAX threads: the largest launch fits an
        // empty registry, and its TIDs end just below the host's.
        let d = GridDims::new(65537u32, 65535u32);
        r.register(d);
        assert_eq!(r.lookup(HOST_TID_KEY - 1).map(|l| l.epoch), Some(0));
        assert!(r.lookup(HOST_TID_KEY).is_none());
        // One more thread no longer fits.
        r.register(GridDims::new(1u32, 1u32));
    }

    #[test]
    fn compaction_drops_dead_launches_and_marks_their_tids_ancient() {
        let mut r = LaunchRegistry::new();
        let d = GridDims::with_warp_size(2u32, 8u32, 4); // 16 threads each
        for _ in 0..4 {
            r.register(d);
        }
        assert_eq!(r.compact_below(2), 2);
        assert_eq!(r.epoch_floor(), 2);
        assert_eq!(r.tid_floor(), 32);
        assert_eq!(r.live(), 2);
        assert_eq!(r.len(), 4, "epochs keep their meaning after compaction");
        // Dead TIDs are ancient and unresolvable; live ones still resolve.
        assert!(r.is_ancient(0));
        assert!(r.is_ancient(31));
        assert!(!r.is_ancient(32));
        assert!(!r.is_ancient(HOST_TID_KEY));
        assert!(r.lookup(5).is_none());
        assert_eq!(r.lookup(32).unwrap().epoch, 2);
        assert_eq!(r.info(3).epoch, 3);
        // Compacting below the floor is a no-op; over the end clamps.
        assert_eq!(r.compact_below(1), 0);
        assert_eq!(r.compact_below(99), 2);
        assert_eq!(r.live(), 0);
        assert_eq!(r.tid_floor(), 64);
        // New launches continue the epoch/TID spaces past the floor.
        assert_eq!(r.register(d), 4);
        assert_eq!(r.lookup(64).unwrap().epoch, 4);
    }

    #[test]
    fn generation_reset_reuses_the_tid_space() {
        let mut r = LaunchRegistry::new();
        let d = GridDims::with_warp_size(2u32, 8u32, 4);
        for _ in 0..3 {
            r.register(d);
        }
        r.compact_below(3);
        r.reset_generation();
        assert_eq!(r.generation(), 1);
        assert!(r.is_empty());
        assert!(!r.is_ancient(0), "floors rewound with the new generation");
        assert_eq!(r.register(d), 0, "epochs restart");
        assert_eq!(r.lookup(0).unwrap().tid_base, 0, "TIDs reused");
        assert_eq!(
            r.high_water(),
            3,
            "high-water survives resets for the soak's plateau assertion"
        );
    }
}
