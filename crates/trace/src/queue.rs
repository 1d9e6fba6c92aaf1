//! The lock-free GPU→host event queue of paper §4.2 (Fig. 6).
//!
//! > "The queue contents are tracked via three pointers: a write head, a
//! > commit index, and a read head … The queue uses a virtual indexing
//! > scheme with monotonically increasing indices, which are mapped to
//! > physical locations by taking their modulus with the queue size. The
//! > queue is considered full when the write head is queue-size entries
//! > ahead of the read head."
//!
//! Producers (simulated warps) reserve a slot by bumping the write head,
//! fill the record, then publish it by advancing the commit index in
//! order. The single consumer (the host detector thread owning this queue)
//! reads between the read head and the commit index.
//!
//! An idle consumer may block in [`Queue::wait`] instead of spinning; the
//! next commit (or [`Queue::wake`]) unparks it. On a machine with fewer
//! cores than threads a spinning consumer takes CPU time from the
//! producer it waits for.

use crate::backoff::splitmix;
use crate::record::Record;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Duration;

/// A fixed-capacity multi-producer / single-consumer ring of [`Record`]s.
///
/// Any number of threads may append through the one push,
/// [`Queue::push_bounded`]; at most one thread at a time may consume via
/// [`Queue::try_pop`] (the runtime assigns one host thread per queue, as
/// in the paper).
pub struct Queue {
    slots: Box<[UnsafeCell<Record>]>,
    write_head: AtomicU64,
    commit: AtomicU64,
    read_head: AtomicU64,
    // Telemetry (monotonic; written by producers, read by anyone).
    high_water: AtomicU64,
    stall_cycles: AtomicU64,
    dropped: AtomicU64,
    /// Set while the consumer is (about to be) parked in [`Queue::wait`].
    parked: AtomicBool,
    /// The thread that last waited, unparked by a commit or a wake.
    consumer: Mutex<Option<Thread>>,
}

// SAFETY: slot access is mediated by the write-head / commit / read-head
// protocol — a slot is written exclusively by the producer that reserved
// it, and read only after the commit index has passed it (Release/Acquire
// pairs on `commit` and `read_head` provide the necessary ordering). The
// other fields are atomics and a mutex, which are `Send + Sync` already.
unsafe impl Sync for Queue {}
unsafe impl Send for Queue {}

impl Queue {
    /// Creates a queue with room for `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        // Zeroed, not written: the allocator hands back untouched pages,
        // which the OS maps only as the ring first reaches them, so an idle
        // queue costs no resident memory.
        // SAFETY: `Record` is `repr(C)` and all integers (arrays of
        // integers included) with no implicit padding, and `UnsafeCell`
        // is `repr(transparent)`, so all-zero bytes are a valid slot; they
        // are the same value `Record::default()` builds.
        let slots =
            unsafe { Box::<[UnsafeCell<Record>]>::new_zeroed_slice(capacity).assume_init() };
        Queue {
            slots,
            write_head: AtomicU64::new(0),
            commit: AtomicU64::new(0),
            read_head: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            stall_cycles: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            consumer: Mutex::new(None),
        }
    }

    /// Number of records this queue can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records currently committed but unread.
    pub fn len(&self) -> usize {
        let c = self.commit.load(Ordering::Acquire);
        let r = self.read_head.load(Ordering::Acquire);
        (c - r) as usize
    }

    /// True when no committed records are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, virt: u64) -> *mut Record {
        self.slots[(virt % self.slots.len() as u64) as usize].get()
    }

    /// Highest committed-but-unread depth ever observed at a publish
    /// (queue pressure high-water mark).
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Total producer spin-yield cycles spent waiting for space or for
    /// earlier slots to commit.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles.load(Ordering::Relaxed)
    }

    /// Records dropped by [`Queue::push_bounded`] after exhausting their
    /// stall budget.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends a record, spinning while the queue is full (the GPU logger
    /// "waits for the CPU to drain queue entries if necessary", §4.2), but
    /// for at most `max_stalls` spin-yield cycles (spent waiting either for
    /// space or for earlier producers to commit). A record that cannot be
    /// committed within the budget is dropped, counted in
    /// [`Queue::dropped`], and `false` is returned — the degradation path
    /// for a dead or wedged consumer, instead of deadlocking the producer.
    /// `u64::MAX` waits for the consumer as long as it takes.
    ///
    /// Note the budget is only consulted *before* the slot reservation:
    /// once the reservation CAS succeeds the slot must be committed (a
    /// reservation cannot be rolled back), so the publish wait runs to
    /// completion and may overshoot the budget while earlier producers
    /// finish. That wait is bounded by the other producers' progress, not
    /// the consumer's, so it cannot deadlock on a dead consumer.
    pub fn push_bounded(&self, record: Record, max_stalls: u64) -> bool {
        let cap = self.slots.len() as u64;
        let mut stalled = 0u64;
        // Reserve a slot.
        let idx = loop {
            let w = self.write_head.load(Ordering::Relaxed);
            // `w` may be stale: other producers and the consumer can have
            // moved past it since it was read. Then the CAS below fails
            // and the loop reads it again.
            if w.saturating_sub(self.read_head.load(Ordering::Acquire)) >= cap {
                if stalled >= max_stalls {
                    self.stall_cycles.fetch_add(stalled, Ordering::Relaxed);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                std::hint::spin_loop();
                std::thread::yield_now();
                stalled += 1;
                continue;
            }
            if self
                .write_head
                .compare_exchange_weak(w, w + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                break w;
            }
        };
        // Fill the record. SAFETY: we exclusively own slot `idx` until we
        // advance the commit index past it.
        unsafe {
            *self.slot(idx) = record;
        }
        // Publish in order: wait until all earlier slots are committed.
        // Yield while waiting — on oversubscribed machines a pure spin can
        // starve the producer holding the earlier slot.
        while self.commit.load(Ordering::Acquire) != idx {
            std::hint::spin_loop();
            std::thread::yield_now();
            stalled += 1;
        }
        self.commit.store(idx + 1, Ordering::Release);
        self.notify();
        // read_head may already have raced past idx+1; saturate to zero.
        let depth = (idx + 1).saturating_sub(self.read_head.load(Ordering::Relaxed));
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        if stalled > 0 {
            self.stall_cycles.fetch_add(stalled, Ordering::Relaxed);
        }
        true
    }

    /// Wakes a parked consumer after a commit. The fence orders the
    /// commit before the `parked` load, against the consumer's store of
    /// `parked` before its emptiness check, so one of the two sees the
    /// other.
    fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            self.wake();
        }
    }

    /// Unparks the consumer if it is parked in [`Queue::wait`] (or about
    /// to park there). Call it after setting whatever `stop` condition
    /// the consumer passed to `wait`, with `SeqCst` ordering.
    pub fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = &*self.consumer.lock().expect("queue consumer poisoned") {
                t.unpark();
            }
        }
    }

    /// Blocks the consumer until a record is committed, [`Queue::wake`]
    /// is called or `timeout` passes; returns at once when records are
    /// pending or `stop()` holds. Must be called from the consumer thread.
    pub fn wait(&self, timeout: Duration, stop: impl Fn() -> bool) {
        *self.consumer.lock().expect("queue consumer poisoned") = Some(std::thread::current());
        self.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.is_empty() && !stop() {
            std::thread::park_timeout(timeout);
        }
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Removes and returns the oldest committed record, if any.
    ///
    /// Must be called from a single consumer thread at a time.
    pub fn try_pop(&self) -> Option<Record> {
        let r = self.read_head.load(Ordering::Relaxed);
        if r >= self.commit.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: slot `r` was committed (Acquire above) and will not be
        // reused by producers until `read_head` passes it.
        let rec = unsafe { *self.slot(r) };
        self.read_head.store(r + 1, Ordering::Release);
        Some(rec)
    }
}

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Queue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

/// SplitMix64 finalizer over `(epoch, block)`: the queue-affinity hash.
/// Deterministic (replayable chaos plans depend on stable routing) and
/// cheap enough for the producer hot path.
#[inline]
pub fn launch_block_hash(epoch: u32, block: u64) -> u64 {
    splitmix((u64::from(epoch) << 32) ^ block)
}

/// A set of queues with thread-block affinity (§4.2): "Each thread block
/// sends events to a single queue, though multiple thread blocks may use
/// the same queue." Shared-memory events of a block therefore always reach
/// the same host thread, which lets the detector skip locking on
/// block-local state.
#[derive(Debug, Clone)]
pub struct QueueSet {
    queues: Vec<Arc<Queue>>,
}

impl QueueSet {
    /// Creates `n` queues of `capacity` records each.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, capacity: usize) -> Self {
        assert!(n > 0, "need at least one queue");
        QueueSet {
            queues: (0..n).map(|_| Arc::new(Queue::new(capacity))).collect(),
        }
    }

    /// Number of queues.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True if the set has no queues (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Queue index for `block` of launch `epoch` — the serving-path
    /// affinity. Hashing `(epoch, block)` instead of `block` alone keeps
    /// the per-launch invariant (one block, one queue: shared-memory
    /// events of a block always reach one worker) while decorrelating
    /// *launches*: consecutive launches spread their blocks differently,
    /// so one stream's burst of small grids cannot pin every record to
    /// the same few queues and starve another stream's workers.
    pub fn index_for(&self, epoch: u32, block: u64) -> usize {
        (launch_block_hash(epoch, block) % self.queues.len() as u64) as usize
    }

    /// Queue `i`.
    pub fn queue(&self, i: usize) -> &Arc<Queue> {
        &self.queues[i]
    }

    /// Iterates over all queues.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Queue>> {
        self.queues.iter()
    }

    /// Largest high-water mark across all queues.
    pub fn max_high_water(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.high_water())
            .max()
            .unwrap_or(0)
    }

    /// Total producer stall cycles across all queues.
    pub fn total_stall_cycles(&self) -> u64 {
        self.queues.iter().map(|q| q.stall_cycles()).sum()
    }

    /// Total records dropped by bounded pushes across all queues.
    pub fn total_dropped(&self) -> u64 {
        self.queues.iter().map(|q| q.dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AccessKind, Event, MemSpace};

    fn rec(warp: u64) -> Record {
        Record::encode(&Event::Access {
            warp,
            kind: AccessKind::Read,
            space: MemSpace::Global,
            mask: 1,
            addrs: [warp; 32],
            size: 4,
        })
    }

    #[test]
    fn fresh_slots_hold_default_records() {
        // The zeroed allocation must be bit for bit the record `Default`
        // builds.
        fn bytes(r: &Record) -> &[u8] {
            // SAFETY: `Record` is `repr(C)` integers without padding.
            unsafe {
                std::slice::from_raw_parts(
                    (r as *const Record).cast::<u8>(),
                    std::mem::size_of::<Record>(),
                )
            }
        }
        let q = Queue::new(3);
        for slot in q.slots.iter() {
            // SAFETY: no producer or consumer runs, so nothing writes the
            // slot while it is read.
            let r = unsafe { &*slot.get() };
            assert_eq!(bytes(r), bytes(&Record::default()));
        }
    }

    #[test]
    fn fifo_single_thread() {
        let q = Queue::new(8);
        for i in 0..5 {
            q.push_bounded(rec(i), u64::MAX);
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.try_pop().unwrap().warp, i);
        }
        assert!(q.try_pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn wraps_around_capacity() {
        let q = Queue::new(4);
        for round in 0..10u64 {
            for i in 0..4 {
                q.push_bounded(rec(round * 4 + i), u64::MAX);
            }
            for i in 0..4 {
                assert_eq!(q.try_pop().unwrap().warp, round * 4 + i);
            }
        }
        assert_eq!(q.commit.load(Ordering::Acquire), 40);
    }

    #[test]
    fn concurrent_producers_no_loss_no_dup() {
        let q = Arc::new(Queue::new(64));
        let producers = 4u32;
        let per = 2_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.push_bounded(rec(u64::from(p) * per + i), u64::MAX);
                }
            }));
        }
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while seen.len() < (u64::from(producers) * per) as usize {
                    if let Some(r) = q.try_pop() {
                        seen.push(r.warp);
                    } else {
                        std::thread::yield_now();
                    }
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..u64::from(producers) * per).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn producer_blocks_until_drained() {
        // A capacity-1 queue forces the producer to wait for the consumer.
        let q = Arc::new(Queue::new(1));
        let p = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..100 {
                    q.push_bounded(rec(i), u64::MAX);
                }
            })
        };
        let mut got = 0u64;
        while got < 100 {
            if let Some(r) = q.try_pop() {
                assert_eq!(r.warp, got);
                got += 1;
            }
        }
        p.join().unwrap();
    }

    #[test]
    fn queue_set_block_affinity() {
        let qs = QueueSet::new(3, 16);
        assert_eq!(qs.len(), 3);
        // Every record of one block reaches the one queue its index
        // names, and no other.
        let qi = qs.index_for(7, 4);
        for w in 0..4 {
            qs.queue(qs.index_for(7, 4)).push_bounded(rec(w), u64::MAX);
        }
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.len(), if i == qi { 4 } else { 0 }, "queue {i}");
        }
        assert_eq!(qs.queue(qi).try_pop().unwrap().warp, 0);
    }

    #[test]
    fn push_bounded_drops_when_consumer_is_dead() {
        let q = Queue::new(2);
        assert!(q.push_bounded(rec(0), 16));
        assert!(q.push_bounded(rec(1), 16));
        assert_eq!(q.stall_cycles(), 0, "room to spare: no stall");
        // Queue full, nobody draining: the budget runs out and the record
        // is dropped instead of deadlocking.
        assert!(!q.push_bounded(rec(2), 16));
        assert_eq!(q.dropped(), 1);
        assert!(q.stall_cycles() >= 16);
        // Draining restores the push path.
        q.try_pop().unwrap();
        assert!(q.push_bounded(rec(3), 16));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let q = Queue::new(8);
        assert_eq!(q.high_water(), 0);
        for i in 0..5 {
            q.push_bounded(rec(i), u64::MAX);
        }
        assert_eq!(q.high_water(), 5);
        for _ in 0..5 {
            q.try_pop().unwrap();
        }
        // Draining does not lower the mark; shallow refills do not raise it.
        q.push_bounded(rec(9), u64::MAX);
        assert_eq!(q.high_water(), 5);
    }

    #[test]
    fn mpsc_stress_no_loss_no_dup_per_producer_fifo() {
        // N producers push tagged records through a deliberately tiny
        // queue; the consumer checks global no-loss/no-dup and that each
        // producer's records arrive in its emission order.
        let q = Arc::new(Queue::new(8));
        let producers = 8u64;
        let per = 3_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..per {
                        // warp field carries (producer, sequence).
                        q.push_bounded(rec(p * per + i), u64::MAX);
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut next = vec![0u64; producers as usize];
                let mut total = 0u64;
                while total < producers * per {
                    if let Some(r) = q.try_pop() {
                        let p = (r.warp / per) as usize;
                        let seq = r.warp % per;
                        assert_eq!(next[p], seq, "producer {p} out of order");
                        next[p] += 1;
                        total += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                next
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let next = consumer.join().unwrap();
        assert!(
            next.iter().all(|&n| n == per),
            "loss or duplication: {next:?}"
        );
        assert_eq!(q.commit.load(Ordering::Acquire), producers * per);
        assert!(q.is_empty());
        assert!(q.high_water() <= 8);
    }

    #[test]
    fn queue_set_aggregates_telemetry() {
        let qs = QueueSet::new(2, 4);
        for i in 0..4 {
            qs.queue(0).push_bounded(rec(i), u64::MAX);
        }
        qs.queue(1).push_bounded(rec(9), u64::MAX);
        assert_eq!(qs.max_high_water(), 4);
        assert_eq!(qs.total_dropped(), 0);
        assert!(!qs.queue(0).push_bounded(rec(5), 4));
        assert_eq!(qs.total_dropped(), 1);
        assert!(qs.total_stall_cycles() >= 4);
    }

    /// A wait long enough that a lost wake fails the test's time bound.
    const NEVER: Duration = Duration::from_secs(30);

    #[test]
    fn every_commit_reaches_a_parked_consumer() {
        // Ping-pong: the producer pushes the next record only after the
        // consumer took the last one, so the consumer is usually parked
        // (or about to park) when the commit lands. A lost wake would
        // stall the run for `NEVER`.
        let q = Arc::new(Queue::new(4));
        let taken = Arc::new(AtomicU64::new(0));
        let n = 2_000u64;
        let consumer = {
            let (q, taken) = (Arc::clone(&q), Arc::clone(&taken));
            std::thread::spawn(move || {
                for i in 0..n {
                    let r = loop {
                        match q.try_pop() {
                            Some(r) => break r,
                            None => q.wait(NEVER, || false),
                        }
                    };
                    assert_eq!(r.warp, i);
                    taken.store(i + 1, Ordering::Release);
                }
            })
        };
        let start = std::time::Instant::now();
        for i in 0..n {
            while taken.load(Ordering::Acquire) < i {
                std::thread::yield_now();
            }
            q.push_bounded(rec(i), u64::MAX);
        }
        consumer.join().unwrap();
        assert!(
            start.elapsed() < NEVER / 2,
            "a commit did not wake the consumer"
        );
    }

    #[test]
    fn wake_after_stop_releases_a_parked_consumer() {
        let q = Arc::new(Queue::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let (q, stop) = (Arc::clone(&q), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    q.wait(NEVER, || stop.load(Ordering::SeqCst));
                }
            })
        };
        // Wake only once the consumer has announced it is parking.
        while !q.parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let start = std::time::Instant::now();
        stop.store(true, Ordering::SeqCst);
        q.wake();
        consumer.join().unwrap();
        assert!(
            start.elapsed() < NEVER / 2,
            "wake did not release the consumer"
        );
        // Nothing pending and the stop condition holds: no parking.
        q.wait(NEVER, || true);
    }

    #[test]
    fn launch_affinity_is_stable_within_a_launch() {
        // The per-launch invariant the detector depends on: one block,
        // one queue — every lookup of (epoch, block) must agree.
        let qs = QueueSet::new(3, 8);
        for epoch in [0u32, 1, 7, 1000] {
            for block in 0..64u64 {
                let qi = qs.index_for(epoch, block);
                assert!(qi < 3);
                assert_eq!(qi, qs.index_for(epoch, block));
            }
        }
    }

    #[test]
    fn launch_affinity_decorrelates_consecutive_epochs() {
        // Routing must not be epoch-invariant (that was the old
        // block-only scheme): across epochs, some block lands on a
        // different queue, so back-to-back launches spread differently.
        let qs = QueueSet::new(4, 8);
        let moved = (0..32u64).any(|b| qs.index_for(0, b) != qs.index_for(1, b));
        assert!(moved, "epoch must influence queue routing");
        // And each single launch still uses every queue eventually.
        for epoch in 0..4u32 {
            let mut used = [false; 4];
            for block in 0..256u64 {
                used[qs.index_for(epoch, block)] = true;
            }
            assert!(used.iter().all(|&u| u), "epoch {epoch}: {used:?}");
        }
    }
}
