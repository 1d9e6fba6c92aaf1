//! Cooperative cancellation for in-flight detection work.
//!
//! A [`CancelToken`] is a shared flag connecting the party that decides a
//! launch must stop (a deadline watchdog, a shutting-down server) to the
//! loops that must notice: the SIMT interpreter checks it at scheduling
//! slice boundaries and the detector workers check it between records.
//! Cancellation is *cooperative* — nothing is killed; the interpreter
//! returns a `Cancelled` error and the workers stop draining — so the
//! engine's persistent state stays coherent and the worker threads stay
//! reusable for the next launch.
//!
//! The token lives in this crate because both sides of the pipeline (the
//! device simulator and the host detector) speak it; neither depends on
//! the other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, resettable cancellation flag (cheap to clone; clones all
/// observe the same flag).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: every loop holding a clone of this token
    /// stops at its next check point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] was called (and not yet reset).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Re-arms the token for the next unit of work. Only the owner of the
    /// work loop should reset; a watchdog only ever cancels.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        c.reset();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn distinct_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn cancel_crosses_threads() {
        let t = CancelToken::new();
        let seen = {
            let t = t.clone();
            std::thread::spawn(move || {
                while !t.is_cancelled() {
                    std::thread::yield_now();
                }
                true
            })
        };
        t.cancel();
        assert!(seen.join().unwrap());
    }
}
