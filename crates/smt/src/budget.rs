//! Solve budgets: wall-clock deadlines and search-effort caps threaded
//! through every engine.
//!
//! The evaluation harness imposes the paper's per-benchmark timeouts by
//! handing each solver a [`Budget`]; engines poll
//! [`Budget::exhausted`] at loop heads and surface
//! `Unknown`/`Timeout` results instead of being killed. One SAT search
//! is also capped at [`CONFLICT_LIMIT`] conflicts, whatever the budget.
//!
//! # Cooperative cancellation
//!
//! The portfolio driver races several engines under one budget and
//! needs to stop the losers the moment a winner is certified. A budget
//! can therefore carry a shared [`CancelToken`]
//! ([`Budget::with_cancel_token`]): flipping the token makes
//! [`Budget::exhausted`] return `true` on every clone, so each engine
//! winds down at its next poll site — the same poll sites that already
//! observe deadlines.
//! Cancellation is level-triggered and irreversible for the life of
//! the token.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The CDCL conflict cap of one SAT search: a runaway guard under
/// every budget, unlimited ones included.
pub(crate) const CONFLICT_LIMIT: u64 = 500_000;

/// A shared cancellation flag for cooperative early termination.
///
/// Cheap to clone (one `Arc`); once [`cancel`](CancelToken::cancel) is
/// called every budget carrying this token reports
/// [`exhausted`](Budget::exhausted), and every engine polling it winds
/// down. Used by the portfolio driver to stop losing engines promptly.
///
/// ```
/// use linarb_smt::{Budget, CancelToken};
/// let token = CancelToken::new();
/// let b = Budget::unlimited().with_cancel_token(token.clone());
/// assert!(!b.exhausted());
/// token.cancel();
/// assert!(b.exhausted());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the flag; every budget sharing this token is now
    /// exhausted. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has [`cancel`](CancelToken::cancel) been called?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A wall-clock budget for a solving task, with an optional shared
/// cancellation token.
///
/// Cloning a budget is cheap and shares the cancellation token (if
/// any); the deadline is a plain value.
///
/// ```
/// use linarb_smt::Budget;
/// use std::time::Duration;
///
/// let b = Budget::unlimited();
/// assert!(!b.exhausted());
///
/// let t = Budget::timeout(Duration::from_millis(0));
/// assert!(t.exhausted());
/// ```
#[derive(Clone, Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// A budget that never expires (one SAT search is still capped at
    /// 500k conflicts).
    pub fn unlimited() -> Budget {
        Budget { deadline: None, cancel: None }
    }

    /// A budget expiring `d` from now.
    pub fn timeout(d: Duration) -> Budget {
        Budget::until(Instant::now() + d)
    }

    /// A budget expiring at the given instant.
    pub fn until(deadline: Instant) -> Budget {
        Budget { deadline: Some(deadline), cancel: None }
    }

    /// Attaches a shared [`CancelToken`]: once the token is cancelled
    /// (typically by a racing engine that produced a certified
    /// verdict), this budget and every clone of it report
    /// [`exhausted`](Budget::exhausted). Replaces any previously
    /// attached token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// A copy of this budget with the cancellation token stripped.
    /// The portfolio driver certificate-checks a winner *after*
    /// cancelling the losers; the check must keep running under the
    /// original deadline even though the shared token has flipped.
    pub fn without_cancel(&self) -> Budget {
        let mut b = self.clone();
        b.cancel = None;
        b
    }

    /// Was this budget cancelled through its token? (`false` without
    /// one; deadline expiry is *not* reported here — use
    /// [`exhausted`](Budget::exhausted) for the union.)
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Returns `true` once the deadline has passed or the cancellation
    /// token (if any) has been flipped. Engines poll it at every
    /// unbounded loop head, so portfolio cancellation is prompt.
    pub fn exhausted(&self) -> bool {
        if self.cancelled() {
            return true;
        }
        match self.deadline {
            None => false,
            Some(d) => Instant::now() >= d,
        }
    }

    /// Time left, or `None` for unlimited budgets.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.exhausted());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn timeout_expires() {
        let b = Budget::timeout(Duration::from_millis(0));
        assert!(b.exhausted());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        let later = Budget::timeout(Duration::from_secs(3600));
        assert!(!later.exhausted());
        assert!(later.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn budget_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Budget>();
        assert_send_sync::<CancelToken>();
    }

    #[test]
    fn cancel_token_trips_every_clone() {
        let token = CancelToken::new();
        let a = Budget::unlimited().with_cancel_token(token.clone());
        let b = a.clone();
        assert!(!a.exhausted() && !b.exhausted() && !a.cancelled());
        token.cancel();
        assert!(a.cancelled() && b.cancelled());
        assert!(a.exhausted() && b.exhausted());
        // idempotent
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancellation_is_independent_of_other_limits() {
        let token = CancelToken::new();
        let b = Budget::timeout(Duration::from_secs(3600)).with_cancel_token(token.clone());
        assert!(!b.exhausted());
        token.cancel();
        assert!(b.exhausted(), "cancel wins even with time and conflicts left");
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }
}
