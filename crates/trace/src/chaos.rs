//! Deterministic fault injection for the GPU→host detection pipeline.
//!
//! A [`FaultPlan`] describes a set of faults to inject into the threaded
//! detection pipeline — stalled consumers, worker panics, dropped and
//! corrupted records — so that the degradation paths (partial results,
//! lost-record accounting, bounded-stall backpressure) can be exercised
//! reproducibly. Every decision is a pure function of the plan's seed and
//! the record's position in its queue's stream, so a plan replays
//! identically across runs: the simulator emits records in a
//! deterministic order, therefore the same records are dropped, the same
//! bytes are corrupted and the same worker panics at the same event.
//!
//! The plan lives in this crate because it speaks the queue's vocabulary
//! (queue indices, record sequence numbers); the runtime session threads
//! it from `BarracudaConfig` through the producer sink and the consumer
//! workers.

use crate::backoff::splitmix;

/// A slow-consumer fault: the selected workers pause periodically, which
/// builds queue backpressure without losing records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerStall {
    /// Stall once every this many processed records (0 disables).
    pub every_records: u64,
    /// Length of each stall, in spin-yield iterations.
    pub yields: u32,
}

/// A worker-crash fault: the selected worker panics after processing a
/// fixed number of records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the worker (taken modulo the worker count at run time).
    pub worker: usize,
    /// Panic after this many processed records.
    pub after_records: u64,
}

/// A deterministic, seeded fault-injection plan for one detection run.
///
/// The default plan injects nothing; builder-style methods switch on
/// individual fault classes. Probabilities are evaluated per record from
/// the seed and the record's `(queue, sequence)` coordinates, so two runs
/// of the same workload with the same plan fault identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    /// Slow-consumer injection, applied to every worker.
    pub consumer_stall: Option<ConsumerStall>,
    /// Crash injection for one worker.
    pub worker_panic: Option<WorkerPanic>,
    /// Probability that a produced record is silently dropped before it
    /// reaches its queue.
    pub drop_rate: f64,
    /// Probability that a produced record has its kind byte corrupted
    /// before it reaches its queue.
    pub corrupt_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            consumer_stall: None,
            worker_panic: None,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// A stall-only plan: consumers pause periodically but no records are
    /// lost or damaged, so race verdicts must be unaffected. The stall
    /// cadence and length are derived from the seed so different seeds
    /// exercise different interleavings.
    pub fn stalls_only(seed: u64) -> Self {
        let h = splitmix(seed);
        FaultPlan {
            seed,
            consumer_stall: Some(ConsumerStall {
                every_records: 16 + (h % 49),          // every 16..64 records
                yields: 64 + ((h >> 32) % 448) as u32, // stall 64..512 yields
            }),
            ..Self::default()
        }
    }

    /// Sets the consumer-stall fault.
    #[must_use]
    pub fn with_consumer_stall(mut self, stall: ConsumerStall) -> Self {
        self.consumer_stall = Some(stall);
        self
    }

    /// Sets the worker-panic fault.
    #[must_use]
    pub fn with_worker_panic(mut self, panic: WorkerPanic) -> Self {
        self.worker_panic = Some(panic);
        self
    }

    /// Uniform `[0, 1)` draw for record `seq` of stream `stream` under
    /// fault class `class`.
    fn draw(&self, class: u64, stream: u64, seq: u64) -> f64 {
        let z = splitmix(self.seed ^ splitmix(class) ^ splitmix(stream).rotate_left(17) ^ seq);
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Should record `seq` of queue `queue` be dropped on the producer
    /// side?
    pub fn should_drop(&self, queue: u64, seq: u64) -> bool {
        self.drop_rate > 0.0 && self.draw(1, queue, seq) < self.drop_rate
    }

    /// Should record `seq` of queue `queue` be corrupted on the producer
    /// side? Returns the byte to splat over the record's kind field.
    pub fn corrupt_kind(&self, queue: u64, seq: u64) -> Option<u8> {
        if self.corrupt_rate > 0.0 && self.draw(2, queue, seq) < self.corrupt_rate {
            // Any value ≥ 14 fails to decode; keep it obviously bogus.
            Some(0xC0 | (splitmix(self.seed ^ seq) as u8 & 0x3F))
        } else {
            None
        }
    }

    /// Number of spin-yield iterations worker `worker` must stall for
    /// after processing its `processed`-th record (0 = no stall now).
    pub fn consumer_stall_yields(&self, worker: usize, processed: u64) -> u32 {
        match self.consumer_stall {
            Some(s) if s.every_records > 0 && processed > 0 => {
                // Offset the phase per worker so stalls do not align.
                let phase = splitmix(self.seed ^ worker as u64) % s.every_records;
                if (processed + phase).is_multiple_of(s.every_records) {
                    s.yields
                } else {
                    0
                }
            }
            _ => 0,
        }
    }

    /// If worker `worker` (of `nworkers`) must panic, the record count at
    /// which it does.
    pub fn panic_after(&self, worker: usize, nworkers: usize) -> Option<u64> {
        self.worker_panic
            .filter(|p| nworkers > 0 && p.worker % nworkers == worker)
            .map(|p| p.after_records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let p = FaultPlan::default();
        for seq in 0..1000 {
            assert!(!p.should_drop(0, seq));
            assert!(p.corrupt_kind(0, seq).is_none());
            assert_eq!(p.consumer_stall_yields(0, seq), 0);
        }
        assert_eq!(p.panic_after(0, 4), None);
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan {
            seed: 42,
            drop_rate: 0.3,
            corrupt_rate: 0.2,
            ..FaultPlan::default()
        };
        let b = a.clone();
        for q in 0..4u64 {
            for seq in 0..500 {
                assert_eq!(a.should_drop(q, seq), b.should_drop(q, seq));
                assert_eq!(a.corrupt_kind(q, seq), b.corrupt_kind(q, seq));
            }
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let p = FaultPlan {
            seed: 7,
            drop_rate: 0.25,
            ..FaultPlan::default()
        };
        let n = 20_000;
        let dropped = (0..n).filter(|&s| p.should_drop(3, s)).count();
        let frac = dropped as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "observed drop fraction {frac}");
    }

    #[test]
    fn seeds_decorrelate_decisions() {
        let a = FaultPlan {
            seed: 1,
            drop_rate: 0.5,
            ..FaultPlan::default()
        };
        let b = FaultPlan {
            seed: 2,
            drop_rate: 0.5,
            ..FaultPlan::default()
        };
        let differing = (0..1000)
            .filter(|&s| a.should_drop(0, s) != b.should_drop(0, s))
            .count();
        assert!(
            differing > 200,
            "seeds 1 and 2 agree too often ({differing} differ)"
        );
    }

    #[test]
    fn stalls_only_plans_stall_but_never_lose() {
        for seed in 0..16 {
            let p = FaultPlan::stalls_only(seed);
            assert!(p.drop_rate == 0.0 && p.corrupt_rate == 0.0 && p.worker_panic.is_none());
            let stall = p.consumer_stall.expect("stall plan has a stall");
            assert!(stall.every_records >= 16 && stall.every_records < 65);
            assert!(stall.yields >= 64 && stall.yields < 512);
            let stalled: u32 = (1..=1000).map(|n| p.consumer_stall_yields(0, n)).sum();
            assert!(stalled > 0, "seed {seed} never stalls in 1000 records");
        }
    }

    #[test]
    fn corrupt_kind_is_undecodable() {
        let p = FaultPlan {
            seed: 3,
            corrupt_rate: 1.0,
            ..FaultPlan::default()
        };
        for seq in 0..100 {
            let k = p.corrupt_kind(0, seq).expect("rate 1.0 always corrupts");
            assert!(k >= 14, "corrupted kind {k} would still decode");
        }
    }

    #[test]
    fn panic_targets_one_worker_by_modulo() {
        let p = FaultPlan::default().with_worker_panic(WorkerPanic {
            worker: 5,
            after_records: 10,
        });
        assert_eq!(p.panic_after(1, 4), Some(10)); // 5 % 4 == 1
        assert_eq!(p.panic_after(0, 4), None);
        assert_eq!(p.panic_after(5, 8), Some(10));
        assert_eq!(p.panic_after(4, 8), None);
    }
}
