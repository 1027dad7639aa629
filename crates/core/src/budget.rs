//! Resource budgets and cooperative cancellation.
//!
//! A verification run is bounded along two axes: the size of the intermediate
//! polynomials ([`Budget::max_terms`], the analogue of the paper's memory
//! limit) and wall-clock time ([`Budget::deadline`], the analogue of the
//! paper's 100-hour timeout). The deadline is enforced *cooperatively*: at the
//! start of a run the budget is turned into a [`DeadlineToken`] that the
//! rewrite, reduction and SAT phases poll, so a run that crosses its deadline
//! — or is cancelled from another thread, e.g. by a [`crate::Portfolio`] race
//! winner — stops at the next polling point instead of running to completion.
//! The token is the only clock: no engine keeps a timeout of its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Abort when any polynomial (tail or intermediate remainder) exceeds
    /// this many terms. Diverging strategies stop with
    /// [`crate::Outcome::ResourceLimit`] instead of exhausting memory.
    pub max_terms: usize,
    /// Wall-clock budget for the whole run; `None` means unlimited.
    pub deadline: Option<Duration>,
    /// Worker threads the indexed engine ([`crate::ParallelReduction`])
    /// shards large substitution steps over; `0` means auto: the
    /// `GBMV_THREADS` environment variable if set, otherwise the machine's
    /// available parallelism. Results do not depend on it, and the scan-based
    /// strategies ignore it.
    pub threads: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_terms: 10_000_000,
            deadline: Some(Duration::from_secs(600)),
            threads: 0,
        }
    }
}

impl Budget {
    /// A budget with no term or time limit.
    pub fn unlimited() -> Self {
        Budget {
            max_terms: usize::MAX,
            deadline: None,
            threads: 0,
        }
    }

    /// Replaces the term limit.
    pub fn with_max_terms(mut self, max_terms: usize) -> Self {
        self.max_terms = max_terms;
        self
    }

    /// Replaces the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the worker-thread count of the indexed engine (`0` = auto;
    /// see [`Budget::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Resolves [`Budget::threads`] to a concrete worker count: the explicit
    /// value if non-zero, else the `GBMV_THREADS` environment variable, else
    /// the machine's available parallelism (at least 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Ok(value) = std::env::var("GBMV_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Starts the clock: creates a token whose deadline is now plus
    /// [`Budget::deadline`].
    pub fn token(&self) -> DeadlineToken {
        match self.deadline {
            Some(d) => DeadlineToken::with_deadline(d),
            None => DeadlineToken::new(),
        }
    }
}

/// A shared cancellation token with an optional absolute deadline.
///
/// Clones share the cancellation flag: cancelling any clone cancels them all.
/// The token is polled (never blocked on) by the rewrite and reduction inner
/// loops and by the SAT solver's search loop, giving cooperative cancellation
/// across phases and across the threads of a [`crate::Portfolio`] race.
#[derive(Debug, Clone, Default)]
pub struct DeadlineToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl DeadlineToken {
    /// A token with no deadline that only expires when cancelled.
    pub fn new() -> Self {
        DeadlineToken::default()
    }

    /// A token that expires `timeout` from now (or when cancelled, whichever
    /// comes first).
    pub fn with_deadline(timeout: Duration) -> Self {
        DeadlineToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// Cancels this token (and every clone of it).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Returns `true` if [`DeadlineToken::cancel`] was called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Returns `true` if the deadline (if any) has passed.
    pub fn deadline_expired(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// Returns `true` if the token is cancelled or past its deadline — the
    /// check the phase inner loops poll.
    pub fn expired(&self) -> bool {
        self.is_cancelled() || self.deadline_expired()
    }

    /// Time left until the deadline (`None` if the token has no deadline;
    /// zero if it has already passed or the token is cancelled).
    pub fn remaining(&self) -> Option<Duration> {
        if self.is_cancelled() {
            return Some(Duration::ZERO);
        }
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_never_expires() {
        let token = DeadlineToken::new();
        assert!(!token.expired());
        assert!(token.remaining().is_none());
    }

    #[test]
    fn cancellation_is_shared_between_clones() {
        let token = DeadlineToken::with_deadline(Duration::from_secs(3600));
        let clone = token.clone();
        assert!(!clone.expired());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.expired());
        assert_eq!(clone.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn deadline_expiry() {
        let token = DeadlineToken::with_deadline(Duration::ZERO);
        assert!(token.deadline_expired());
        assert!(token.expired());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn budget_token_carries_deadline() {
        let unlimited = Budget::unlimited().token();
        assert!(unlimited.remaining().is_none());
        let bounded = Budget::default()
            .with_deadline(Duration::from_secs(60))
            .token();
        assert!(bounded.remaining().unwrap() <= Duration::from_secs(60));
    }
}
