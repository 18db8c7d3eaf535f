//! The batch thread budget and cooperative cancellation.
//!
//! The job scheduler (`sa_bench::jobs`) owns the worker threads that run
//! sweep units; this module supplies the two primitives it shares with the
//! CLI: the worker budget of a batch `sa run` ([`thread_count`]) and the
//! [`CancelToken`] that stops a unit at its next step boundary.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};

/// The worker budget of a batch `sa run`: the machine's available
/// parallelism, overridable through the `SA_BENCH_THREADS` environment
/// variable (set it to `1` to run units one at a time).
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("SA_BENCH_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A shared cancellation flag.
///
/// Work consults the token at safe points: the sweep runner checks it
/// between steps and, once it fires, stops the unit with a resumable
/// checkpoint. The token is cheap to share by reference across threads and
/// can be triggered from inside a work item, from a signal handler thread,
/// or from a supervising server loop.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every later [`CancelToken::is_cancelled`]
    /// returns `true`.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn cancel_token_latches_across_threads() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        std::thread::scope(|scope| {
            scope.spawn(|| token.cancel());
        });
        assert!(token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled(), "cancelling twice keeps the token set");
    }
}
