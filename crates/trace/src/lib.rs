//! Trace operations, event records and GPU→host queues.
//!
//! This crate is the shared vocabulary between the SIMT simulator (the
//! "device side") and the race detector (the "host side"):
//!
//! * [`ids`] — the thread hierarchy: grids, blocks, warps, lanes, and the
//!   globally-unique 64-bit TID of paper §4.1;
//! * [`ops`] — the warp-level [`ops::Event`] the device logs (one per warp
//!   instruction, standing for the thread-level operations of paper §3.1)
//!   and the [`ops::HostOp`]s the engine records at host API calls;
//! * [`record`] — the fixed-size 272-byte log record of paper §4.2
//!   (Fig. 6);
//! * [`queue`] — the lock-free ring queue with write head / commit index /
//!   read head (Fig. 6), plus the multi-queue set with block→queue
//!   affinity of §4.2;
//! * [`order`] — the ticketed total order over cross-queue
//!   synchronization records (§4.3): consumer timing must never change
//!   which happens-before edges the detector sees;
//! * [`chaos`] — deterministic fault injection (stalled consumers, worker
//!   panics, dropped/corrupted records) for hardening the pipeline;
//! * [`cancel`] — the cooperative cancellation token shared by the
//!   interpreter and the detector workers (deadline enforcement);
//! * [`backoff`] — the shared retry schedule (exponential backoff with
//!   deterministic SplitMix64 jitter) used by the serve client and the
//!   fleet coordinator.

#![warn(missing_docs)]

pub mod backoff;
pub mod cancel;
pub mod chaos;
pub mod ids;
pub mod ops;
pub mod order;
pub mod queue;
pub mod record;

pub use backoff::RetryPolicy;
pub use cancel::CancelToken;
pub use chaos::{ConsumerStall, FaultPlan, WorkerPanic};
pub use ids::{Dim3, GridDims, Tid, MAX_LAUNCH_THREADS};
pub use ops::{AccessKind, Event, HostOp, MemSpace, Scope};
pub use order::SyncOrder;
pub use queue::{Queue, QueueSet};
pub use record::Record;
