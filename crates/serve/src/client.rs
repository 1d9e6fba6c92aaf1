//! Client-side retry with exponential backoff, deterministic jitter,
//! and reconnect-and-resume for interrupted streams.
//!
//! [`Response::Rejected`] is the server shedding load; a well-behaved
//! client backs off and resubmits rather than hammering the admission
//! queue. [`Client`] wraps any transport (an in-process [`Session`] or a
//! wire connection over a Unix socket or TCP) and retries rejected
//! submissions under a [`RetryPolicy`]: delay `max(retry_after, base ×
//! 2^attempt)` capped at `cap`, plus up to 50% deterministic jitter
//! derived from the policy seed and the attempt number (SplitMix64, the
//! repo's standard PRNG), so a fleet of clients born at the same instant
//! does not retry in lockstep — and a test replaying the same seed sees
//! the same delays.
//!
//! Streamed checks ([`Client::check_streamed`]) add **resume**: every
//! streamed request carries a launch id (client-assigned when absent),
//! so when the transport dies mid-stream the client reconnects and
//! resubmits the *same* id — the server either replays the cached
//! terminal verdict (the launch finished while we were gone) or refuses
//! the duplicate with `Rejected` until it finishes. The launch never
//! runs twice. Only when reconnection itself fails does the client
//! synthesize [`Response::Interrupted`] (exit code 5): a cut stream is
//! a lower bound, never a verdict — and in particular never "clean".

use crate::proto::{CheckRequest, Response};
use crate::server::Session;
use barracuda_trace::backoff::splitmix;

/// The shared retry schedule (exponential backoff + deterministic
/// SplitMix64 jitter), re-exported from its home in `barracuda-trace`
/// so existing `barracuda_serve::RetryPolicy` callers keep working.
pub use barracuda_trace::backoff::RetryPolicy;

/// Anything a request can be submitted to: the in-process session or a
/// wire [`Connection`](crate::Connection) over a Unix socket or TCP.
pub trait Transport {
    /// Submits one request and blocks for its verdict.
    fn submit(&mut self, req: &CheckRequest) -> Response;

    /// Submits one request, forwarding each non-terminal frame to
    /// `on_event`, and returns the terminal frame. A transport error
    /// mid-stream is returned as `Err` so the caller can distinguish "the
    /// link died" (resumable by launch id) from a served refusal. The
    /// default forwards to [`Transport::submit`] (no events, no
    /// mid-stream failures — correct for in-process transports).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the connection breaks
    /// before the terminal frame arrives.
    fn submit_streamed(
        &mut self,
        req: &CheckRequest,
        on_event: &mut dyn FnMut(&Response),
    ) -> std::io::Result<Response> {
        let _ = &on_event;
        Ok(self.submit(req))
    }

    /// Attempts to re-establish a broken connection; returns true on
    /// success. In-process transports have nothing to reconnect and
    /// return false.
    fn reconnect(&mut self) -> bool {
        false
    }

    /// Asks the server to shut down gracefully. Only remote transports
    /// can do this; the default refuses.
    ///
    /// # Errors
    ///
    /// Returns `Unsupported` for transports without a shutdown channel,
    /// or the underlying I/O error.
    fn shutdown_server(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "this transport cannot request server shutdown",
        ))
    }
}

impl Transport for Session {
    fn submit(&mut self, req: &CheckRequest) -> Response {
        Session::submit(self, req.clone())
    }

    fn submit_streamed(
        &mut self,
        req: &CheckRequest,
        on_event: &mut dyn FnMut(&Response),
    ) -> std::io::Result<Response> {
        Ok(Session::submit_streamed(self, req.clone(), on_event))
    }
}

/// A retrying client over any [`Transport`].
#[derive(Debug)]
pub struct Client<T> {
    transport: T,
    policy: RetryPolicy,
    retries: u64,
    resumes: u64,
    next_launch: u64,
}

impl<T: Transport> Client<T> {
    /// A client over `transport` with the given retry policy.
    pub fn new(transport: T, policy: RetryPolicy) -> Self {
        Client {
            transport,
            policy,
            retries: 0,
            resumes: 0,
            next_launch: 0,
        }
    }

    /// Submits, retrying rejections with exponential backoff + jitter.
    /// Every non-`Rejected` response returns immediately; after
    /// `max_attempts` rejections the last one is returned so the caller
    /// sees the overload instead of a fabricated verdict.
    pub fn check(&mut self, req: &CheckRequest) -> Response {
        let mut last = Response::Rejected { retry_after_ms: 0 };
        for attempt in 0..self.policy.max_attempts {
            match self.transport.submit(req) {
                Response::Rejected { retry_after_ms } => {
                    last = Response::Rejected { retry_after_ms };
                    self.retries += 1;
                    if attempt + 1 < self.policy.max_attempts {
                        std::thread::sleep(self.policy.delay(attempt, retry_after_ms));
                    }
                }
                resp => return resp,
            }
        }
        last
    }

    /// Submits a streamed check: `on_event` observes each
    /// [`Response::RaceEvent`] as it arrives and the terminal verdict is
    /// returned. Forces `stream: true` and assigns a deterministic
    /// launch id (derived from the policy seed) when the request carries
    /// none, making the submission idempotent: if the transport breaks
    /// mid-stream the client reconnects and resubmits the same id —
    /// the server replays the cached terminal or refuses the duplicate
    /// until the original finishes (retried like any rejection). Events
    /// are at-least-once across a resume; the terminal body is the
    /// complete verdict. When reconnection fails, returns
    /// [`Response::Interrupted`] — exit code 5, never a clean verdict.
    pub fn check_streamed(
        &mut self,
        req: &CheckRequest,
        on_event: &mut dyn FnMut(&Response),
    ) -> Response {
        let mut req = req.clone();
        req.stream = true;
        let launch_id = req.launch_id.unwrap_or_else(|| {
            self.next_launch += 1;
            splitmix(self.policy.seed ^ self.next_launch)
        });
        req.launch_id = Some(launch_id);
        let mut events = 0u64;
        let mut broken = false;
        let mut last = Response::Rejected { retry_after_ms: 0 };
        {
            let mut forward = |ev: &Response| {
                events += 1;
                on_event(ev);
            };
            for attempt in 0..self.policy.max_attempts {
                match self.transport.submit_streamed(&req, &mut forward) {
                    Ok(Response::Rejected { retry_after_ms }) => {
                        last = Response::Rejected { retry_after_ms };
                        self.retries += 1;
                        if attempt + 1 < self.policy.max_attempts {
                            std::thread::sleep(self.policy.delay(attempt, retry_after_ms));
                        }
                    }
                    Ok(resp) => return resp,
                    Err(_) => {
                        // The link died mid-stream. Resume by launch id:
                        // the server either has the cached terminal or is
                        // still running the launch (in which case the
                        // resubmission is refused and retried above).
                        broken = true;
                        self.resumes += 1;
                        if !self.transport.reconnect() {
                            break;
                        }
                    }
                }
            }
        }
        if broken {
            // The stream was cut at least once and we never recovered a
            // terminal frame: the honest answer is "interrupted", not the
            // last refusal — and never a fabricated verdict.
            Response::Interrupted { launch_id, events }
        } else {
            // Pure overload, no broken link: surface the rejection like
            // Client::check does.
            last
        }
    }

    /// Rejections retried so far (backoff telemetry).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Mid-stream reconnect attempts so far (resume telemetry).
    pub fn resumes(&self) -> u64 {
        self.resumes
    }

    /// The underlying transport.
    pub fn into_inner(self) -> T {
        self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_are_capped_and_honour_the_hint() {
        let p = RetryPolicy {
            base_ms: 4,
            cap_ms: 64,
            max_attempts: 8,
            seed: 1,
        };
        let d0 = p.delay(0, 0).as_millis();
        let d3 = p.delay(3, 0).as_millis();
        assert!((4..8).contains(&d0), "base + <50% jitter, got {d0}");
        assert!((32..48).contains(&d3), "4*2^3 + jitter, got {d3}");
        // The cap bounds the exponent; jitter stays proportional.
        assert!(p.delay(20, 0).as_millis() < 96);
        // The server hint floors the delay.
        assert!(p.delay(0, 40).as_millis() >= 40);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(2, 0), p.delay(2, 0));
        let q = RetryPolicy {
            seed: p.seed + 1,
            ..p.clone()
        };
        // Different seeds almost surely jitter differently at some attempt.
        assert!((0..8).any(|a| p.delay(a, 0) != q.delay(a, 0)));
    }

    struct Flaky {
        rejections_left: u32,
    }

    impl Transport for Flaky {
        fn submit(&mut self, _req: &CheckRequest) -> Response {
            if self.rejections_left > 0 {
                self.rejections_left -= 1;
                Response::Rejected { retry_after_ms: 0 }
            } else {
                Response::ShuttingDown
            }
        }
    }

    #[test]
    fn client_retries_until_accepted_or_exhausted() {
        let policy = RetryPolicy {
            base_ms: 0,
            cap_ms: 0,
            max_attempts: 5,
            seed: 9,
        };
        let mut c = Client::new(Flaky { rejections_left: 3 }, policy.clone());
        let req = CheckRequest::new("", "", 1, 32);
        assert_eq!(c.check(&req), Response::ShuttingDown);
        assert_eq!(c.retries(), 3);

        let mut c = Client::new(
            Flaky {
                rejections_left: 99,
            },
            policy,
        );
        assert!(matches!(c.check(&req), Response::Rejected { .. }));
        assert_eq!(c.retries(), 5, "every attempt was rejected");
    }
}
