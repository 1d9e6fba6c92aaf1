//! Cross-queue ordering of synchronization operations (paper §4.3).
//!
//! Records of one block always land on one queue, so intra-block ordering
//! is free. But a release and the acquire that reads it can sit on
//! *different* queues, and the detector's synchronization-location map is
//! order-sensitive: if a worker applies the acquire before the releasing
//! worker has applied the release, the happens-before edge is lost and a
//! false race is reported. Consumer timing must not change verdicts — the
//! chaos differential suite pins exactly that.
//!
//! [`SyncOrder`] restores the device's emission order for the records
//! that touch cross-queue synchronization state: the producer *issues* a
//! ticket (a position in the global emission order) for every such record
//! it enqueues, and each worker, on popping one, waits for its turn,
//! applies the operation, and completes the ticket. All other records —
//! the overwhelming majority — stay unordered and fully parallel.
//!
//! A worker that dies (panic) would otherwise wedge the order at its next
//! ticket; [`SyncOrder::mark_dead`] skips the pending and future tickets
//! of its queue so the surviving workers keep draining (the lost edges
//! are covered by the session's degradation diagnostics).

use std::sync::Mutex;

#[derive(Debug)]
struct Inner {
    /// Ticket → queue it was issued to (append-only, producer order).
    queue_of: Vec<u32>,
    /// Queue → its tickets, in queue order.
    per_queue: Vec<Vec<u64>>,
    /// The next ticket to apply.
    next: u64,
    /// Queues whose worker died; their tickets are skipped.
    dead: Vec<bool>,
}

impl Inner {
    /// Advances `next` past tickets owned by dead queues.
    fn advance(&mut self) {
        while let Some(&q) = self.queue_of.get(self.next as usize) {
            if !self.dead[q as usize] {
                break;
            }
            self.next += 1;
        }
    }
}

/// A total order over cross-queue synchronization records, issued by the
/// single producer in emission order and applied by the workers in turn.
#[derive(Debug)]
pub struct SyncOrder {
    inner: Mutex<Inner>,
}

impl SyncOrder {
    /// An empty order over `nqueues` queues.
    pub fn new(nqueues: usize) -> Self {
        SyncOrder {
            inner: Mutex::new(Inner {
                queue_of: Vec::new(),
                per_queue: vec![Vec::new(); nqueues],
                next: 0,
                dead: vec![false; nqueues],
            }),
        }
    }

    /// Producer: assigns the next ticket to `queue`. Call *after* the
    /// record was enqueued (a ticket must never wait on a record that is
    /// not coming); the consumer spins on [`SyncOrder::ticket`] for the
    /// brief window between the push and the issue.
    pub fn issue(&self, queue: usize) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let t = g.queue_of.len() as u64;
        g.queue_of.push(queue as u32);
        g.per_queue[queue].push(t);
        g.advance(); // a dead queue's ticket is skipped immediately
        t
    }

    /// Consumer: the ticket of the `idx`-th ordered record popped from
    /// `queue`, or `None` while the producer has not issued it yet.
    pub fn ticket(&self, queue: usize, idx: usize) -> Option<u64> {
        self.inner.lock().unwrap().per_queue[queue]
            .get(idx)
            .copied()
    }

    /// Consumer: true when `ticket` is the next to apply.
    pub fn is_turn(&self, ticket: u64) -> bool {
        let mut g = self.inner.lock().unwrap();
        g.advance();
        g.next == ticket
    }

    /// Consumer: marks `ticket` applied, unblocking the next one.
    pub fn complete(&self, ticket: u64) {
        let mut g = self.inner.lock().unwrap();
        debug_assert_eq!(g.next, ticket, "tickets complete in order");
        g.next = ticket + 1;
        g.advance();
    }

    /// The worker of `queue` died: skip its pending and future tickets.
    pub fn mark_dead(&self, queue: usize) {
        let mut g = self.inner.lock().unwrap();
        g.dead[queue] = true;
        g.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn tickets_are_global_positions_and_align_per_queue() {
        let o = SyncOrder::new(2);
        assert_eq!(o.issue(0), 0);
        assert_eq!(o.issue(1), 1);
        assert_eq!(o.issue(0), 2);
        assert_eq!(o.ticket(0, 0), Some(0));
        assert_eq!(o.ticket(0, 1), Some(2));
        assert_eq!(o.ticket(1, 0), Some(1));
        assert_eq!(o.ticket(1, 1), None, "not issued yet");
    }

    #[test]
    fn turns_come_strictly_in_issue_order() {
        let o = SyncOrder::new(2);
        let a = o.issue(0);
        let b = o.issue(1);
        assert!(o.is_turn(a));
        assert!(!o.is_turn(b), "queue 1 must wait for queue 0's release");
        o.complete(a);
        assert!(o.is_turn(b));
        o.complete(b);
    }

    #[test]
    fn dead_queue_tickets_are_skipped() {
        let o = SyncOrder::new(3);
        let a = o.issue(1); // pending ticket of the queue that will die
        let b = o.issue(2);
        assert!(!o.is_turn(b));
        o.mark_dead(1);
        assert!(o.is_turn(b), "dead queue must not wedge the order");
        o.complete(b);
        // Future tickets of the dead queue are skipped on issue.
        let _ = o.issue(1);
        let c = o.issue(0);
        assert!(o.is_turn(c));
        let _ = a;
    }

    #[test]
    fn threads_apply_in_global_order() {
        let o = Arc::new(SyncOrder::new(4));
        let applied = Arc::new(Mutex::new(Vec::new()));
        let ready = Arc::new(AtomicBool::new(false));
        // Issue 40 tickets round-robin before the workers start.
        for i in 0..40usize {
            o.issue(i % 4);
        }
        let handles: Vec<_> = (0..4)
            .map(|q| {
                let o = Arc::clone(&o);
                let applied = Arc::clone(&applied);
                let ready = Arc::clone(&ready);
                std::thread::spawn(move || {
                    while !ready.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    for idx in 0..10usize {
                        let t = o.ticket(q, idx).unwrap();
                        while !o.is_turn(t) {
                            std::thread::yield_now();
                        }
                        applied.lock().unwrap().push(t);
                        o.complete(t);
                    }
                })
            })
            .collect();
        ready.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let applied = applied.lock().unwrap();
        assert_eq!(*applied, (0..40).collect::<Vec<u64>>());
    }
}
