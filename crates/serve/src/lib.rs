//! BARRACUDA as a service: a long-running detection server over
//! persistent [`Engine`](barracuda::Engine)s.
//!
//! The paper's tool attaches to one CUDA process; this crate serves
//! *many* clients from one resident process, the way a CI fleet or an
//! IDE integration would use a race detector. The pieces:
//!
//! * [`server`] — per-client session isolation (an engine per session),
//!   bounded admission queues with `Retry-After`-style load shedding,
//!   wall-clock deadlines enforced by a watchdog that cancels launches
//!   *cooperatively*, panic quarantine that rebuilds a poisoned engine,
//!   and graceful shutdown that reports dropped work honestly; and
//!   [`run_request`], the one path from a [`CheckRequest`] to a launch,
//!   which the `barracuda check` / `trace` subcommands share.
//! * [`proto`] — the typed request/verdict protocol and its
//!   newline-JSON wire encoding (no external dependencies).
//! * [`client`] — retry with exponential backoff and deterministic
//!   jitter for rejected submissions.
//! * [`wire`] — the one wire transport, newline-delimited JSON over a
//!   Unix socket or TCP (one connection = one session), with explicit
//!   backpressure (bounded admission, a line cap, blocking writes); used
//!   by the `barracuda serve` / `barracuda client` subcommands.
//!
//! v2 of the serving layer multiplexes N sessions over a bounded pool
//! of M engines (LRU-evicted, rebuilt from a process-wide shared module
//! cache), streams incremental [`Response::RaceEvent`] verdicts during
//! slow launches, and resumes interrupted streams idempotently by
//! launch id — see the [`server`] module docs for the architecture and
//! its soundness arguments.
//!
//! The server config can inject worker-level panics to exercise
//! quarantine deterministically; the soak test pins served verdicts
//! against direct engine calls.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod wire;

/// The kernel-argument type of [`CheckRequest::params`]; `ParamSpec` is
/// its older name.
pub use barracuda_simt::{ArgSpec, ArgSpec as ParamSpec};
pub use client::{Client, RetryPolicy, Transport};
pub use proto::{CheckRequest, DoneBody, Request, Response};
pub use server::{run_request, Server, ServerConfig, ServerStats, Session};
pub use wire::{serve_tcp_listener, Connection, Endpoint, MAX_FRAME};
