//! Worker-count leases: arbitration of one shared thread budget across
//! concurrent sharded campaigns.
//!
//! A multi-executor service runs several sharded campaigns at once, but
//! the machine has one pool of cores. [`ThreadBudget`] is the shared
//! ledger of that pool; each campaign acquires a [`Lease`] for the worker
//! count it wants and the budget grants what it can. Three properties
//! keep the scheme deadlock-free and deterministic:
//!
//! 1. **Grants never block.** [`ThreadBudget::lease`] returns immediately
//!    with `clamp(available, 1, want)` workers. A drained pool still
//!    grants 1 — every admitted campaign always makes progress, at worst
//!    serially (the ledger may go negative; that bounded oversubscription
//!    is the price of liveness).
//! 2. **Shrinks take effect at shard boundaries.** A lease holder's
//!    workers observe [`Lease::allowed`] before pulling their next shard
//!    (see `worker_allowed` on `CancelToken`), so an arbiter can take
//!    threads back from a running campaign without killing it — and
//!    worker 0 is never subject to the lease, so a shrunk campaign still
//!    finishes.
//! 3. **Releases are idempotent and automatic.** [`Lease::release`]
//!    returns the remaining grant to the budget exactly once; dropping
//!    the last clone of an unreleased lease does the same, so a panicking
//!    campaign cannot leak budget.
//!
//! None of this touches result determinism: the shard layout and merge
//! order are pure functions of the trial count (see the crate docs), so a
//! campaign shrunk from 8 workers to 1 mid-run still produces
//! byte-identical output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The shared worker-thread ledger a set of concurrent campaigns draws
/// from. Clones share the ledger.
#[derive(Debug, Clone)]
pub struct ThreadBudget {
    inner: Arc<BudgetInner>,
}

#[derive(Debug)]
struct BudgetInner {
    total: usize,
    /// Signed: minimum-grant liveness can oversubscribe a drained pool.
    available: Mutex<i64>,
}

impl ThreadBudget {
    /// A budget of `total` workers (clamped to at least 1).
    #[must_use]
    pub fn new(total: usize) -> Self {
        let total = total.max(1);
        ThreadBudget { inner: Arc::new(BudgetInner { total, available: Mutex::new(total as i64) }) }
    }

    /// The configured pool size.
    #[must_use]
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Workers currently unleased. Negative while the minimum-grant rule
    /// has the pool oversubscribed.
    #[must_use]
    pub fn available(&self) -> i64 {
        *self.inner.available.lock().expect("thread budget poisoned")
    }

    /// Acquires a lease for up to `want` workers (at least 1 requested).
    /// Non-blocking: grants `min(want, available)` but never less than 1,
    /// debiting the ledger immediately.
    #[must_use]
    pub fn lease(&self, want: usize) -> Lease {
        let want = want.max(1);
        let mut avail = self.inner.available.lock().expect("thread budget poisoned");
        let grant = usize::try_from((*avail).max(1)).unwrap_or(1).min(want).max(1);
        *avail -= grant as i64;
        Lease {
            inner: Arc::new(LeaseInner {
                allowed: AtomicUsize::new(grant),
                budget: Arc::clone(&self.inner),
            }),
        }
    }
}

/// One campaign's claim on the shared [`ThreadBudget`]. Clones share the
/// claim; the remaining grant returns to the budget on
/// [`release`](Lease::release) (idempotent) or when the last clone drops.
#[derive(Debug, Clone)]
pub struct Lease {
    inner: Arc<LeaseInner>,
}

#[derive(Debug)]
struct LeaseInner {
    /// Workers the holder may currently run. Read lock-free by workers at
    /// shard boundaries; mutated only under the budget lock (plus the
    /// final drop).
    allowed: AtomicUsize,
    budget: Arc<BudgetInner>,
}

impl Lease {
    /// Workers the holder may currently run (0 after
    /// [`release`](Lease::release)).
    #[must_use]
    pub fn allowed(&self) -> usize {
        self.inner.allowed.load(Ordering::SeqCst)
    }

    /// Shrinks the grant down to `to` workers (at least 1 — use
    /// [`release`](Lease::release) to give everything back), returning the
    /// freed count to the budget. Growing is not supported; asking for
    /// more than the current grant frees nothing. Running workers observe
    /// the new bound at their next shard boundary.
    pub fn shrink(&self, to: usize) -> usize {
        let to = to.max(1);
        let mut avail = self.inner.budget.available.lock().expect("thread budget poisoned");
        let cur = self.inner.allowed.load(Ordering::SeqCst);
        if cur <= to {
            return 0;
        }
        self.inner.allowed.store(to, Ordering::SeqCst);
        let freed = cur - to;
        *avail += freed as i64;
        freed
    }

    /// Returns the whole remaining grant to the budget and drops the
    /// holder to 0 workers. Idempotent; returns the count freed.
    pub fn release(&self) -> usize {
        let mut avail = self.inner.budget.available.lock().expect("thread budget poisoned");
        let cur = self.inner.allowed.swap(0, Ordering::SeqCst);
        *avail += cur as i64;
        cur
    }
}

impl Drop for LeaseInner {
    fn drop(&mut self) {
        let cur = *self.allowed.get_mut();
        if cur > 0 {
            if let Ok(mut avail) = self.budget.available.lock() {
                *avail += cur as i64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_clamp_to_availability() {
        let budget = ThreadBudget::new(4);
        assert_eq!(budget.total(), 4);
        assert_eq!(budget.available(), 4);
        let a = budget.lease(3);
        assert_eq!(a.allowed(), 3);
        assert_eq!(budget.available(), 1);
        // Only 1 left: a want of 8 gets 1.
        let b = budget.lease(8);
        assert_eq!(b.allowed(), 1);
        assert_eq!(budget.available(), 0);
        drop((a, b));
        assert_eq!(budget.available(), 4);
    }

    #[test]
    fn drained_pool_still_grants_one() {
        let budget = ThreadBudget::new(2);
        let a = budget.lease(2);
        // The pool is empty; liveness demands a minimum grant of 1, which
        // oversubscribes the ledger.
        let b = budget.lease(4);
        assert_eq!(b.allowed(), 1);
        assert_eq!(budget.available(), -1);
        a.release();
        b.release();
        assert_eq!(budget.available(), 2);
    }

    #[test]
    fn zero_want_and_zero_total_clamp_to_one() {
        let budget = ThreadBudget::new(0);
        assert_eq!(budget.total(), 1);
        let l = budget.lease(0);
        assert_eq!(l.allowed(), 1);
    }

    #[test]
    fn shrink_frees_the_difference() {
        let budget = ThreadBudget::new(8);
        let l = budget.lease(6);
        assert_eq!(budget.available(), 2);
        assert_eq!(l.shrink(2), 4);
        assert_eq!(l.allowed(), 2);
        assert_eq!(budget.available(), 6);
        // Shrinking below 1 clamps; shrinking up frees nothing.
        assert_eq!(l.shrink(0), 1);
        assert_eq!(l.allowed(), 1);
        assert_eq!(l.shrink(5), 0);
        assert_eq!(l.allowed(), 1);
        assert_eq!(budget.available(), 7);
    }

    #[test]
    fn release_is_idempotent_and_drop_frees_nothing_more() {
        let budget = ThreadBudget::new(4);
        let l = budget.lease(3);
        assert_eq!(l.release(), 3);
        assert_eq!(l.release(), 0, "second release is a no-op");
        assert_eq!(l.allowed(), 0);
        drop(l);
        assert_eq!(budget.available(), 4, "drop after release frees nothing more");
    }

    #[test]
    fn clones_share_the_claim() {
        let budget = ThreadBudget::new(4);
        let l = budget.lease(4);
        let c = l.clone();
        assert_eq!(c.shrink(2), 2);
        assert_eq!(l.allowed(), 2);
        drop(c);
        assert_eq!(budget.available(), 2, "grant survives while a clone lives");
        drop(l);
        assert_eq!(budget.available(), 4);
    }
}
