//! Priority classes and the multi-executor dispatch queue.
//!
//! Jobs are scheduled in three classes — [`Priority::High`],
//! [`Priority::Normal`], [`Priority::Batch`] — strict priority between
//! classes, FIFO within a class. Two mechanisms keep the scheme both
//! responsive and starvation-free:
//!
//! * **Preemption** (implemented in the supervisor): a High submission
//!   that finds every executor busy parks a running Batch job at its next
//!   trial boundary; the parked job re-enters the *front* of the Batch
//!   queue and resumes from its checkpoint later.
//! * **Aging** (implemented here): every time a High/Normal job is
//!   dispatched while Batch work waits, a skip counter ticks; at the
//!   configured threshold the oldest Batch job is promoted to the tail of
//!   the Normal queue. The counter is dispatch-count based — no wall
//!   clock — so the promotion sequence is a deterministic function of the
//!   submit/dispatch sequence.

use std::collections::VecDeque;
use std::fmt;

/// A job's scheduling class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Interactive work: dispatched first, never preempted, allowed to
    /// finish (up to its deadline) during shutdown drain.
    High,
    /// The default class.
    Normal,
    /// Throughput work: yields its workers to High jobs, parked first on
    /// shutdown, protected from starvation by aging.
    Batch,
}

impl Priority {
    /// Every class, dispatch order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Batch];

    /// Stable lowercase name, used in specs and on the wire.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parses the stable name.
    #[must_use]
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "high" => Priority::High,
            "normal" => Priority::Normal,
            "batch" => Priority::Batch,
            _ => return None,
        })
    }

    /// Dispatch-order index (0 = High).
    #[must_use]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three class queues plus the deterministic aging counter.
#[derive(Debug, Default)]
pub(crate) struct ClassQueues {
    queues: [VecDeque<u64>; 3],
    /// Dispatches of higher-class work since Batch last ran (or last was
    /// promoted) while Batch work waited.
    batch_skips: u64,
}

impl ClassQueues {
    pub(crate) fn new() -> Self {
        ClassQueues::default()
    }

    /// Appends a job to the tail of its class (submit, rescan).
    pub(crate) fn push_back(&mut self, class: Priority, id: u64) {
        self.queues[class.index()].push_back(id);
    }

    /// Returns a job to the *front* of its class (park, preempt): it was
    /// already dispatched once and resumes before its queue peers.
    pub(crate) fn push_front(&mut self, class: Priority, id: u64) {
        self.queues[class.index()].push_front(id);
    }

    /// Removes a job wherever it is queued (cancel while queued).
    pub(crate) fn remove(&mut self, id: u64) {
        for q in &mut self.queues {
            q.retain(|&p| p != id);
        }
    }

    /// Jobs waiting in one class.
    pub(crate) fn depth(&self, class: Priority) -> usize {
        self.queues[class.index()].len()
    }

    /// Jobs waiting across all classes.
    pub(crate) fn total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Pops the next job to dispatch: High before Normal before Batch,
    /// FIFO within a class. Applies aging with the given threshold
    /// (0 disables): returns `(popped, promoted)` where `promoted` is a
    /// Batch job that just moved to the Normal tail, if the threshold
    /// tripped. The caller owns re-classifying the promoted job and
    /// emitting its event.
    pub(crate) fn pop(&mut self, aging_threshold: u64) -> Option<(u64, Option<u64>)> {
        let (class, id) = Priority::ALL
            .into_iter()
            .find_map(|c| self.queues[c.index()].pop_front().map(|id| (c, id)))?;
        let mut promoted = None;
        if class == Priority::Batch {
            self.batch_skips = 0;
        } else if aging_threshold > 0 && !self.queues[Priority::Batch.index()].is_empty() {
            self.batch_skips += 1;
            if self.batch_skips >= aging_threshold {
                self.batch_skips = 0;
                promoted = self.queues[Priority::Batch.index()].pop_front();
                if let Some(b) = promoted {
                    self.queues[Priority::Normal.index()].push_back(b);
                }
            }
        }
        Some((id, promoted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_names_round_trip() {
        for p in Priority::ALL {
            assert_eq!(Priority::from_name(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(Priority::from_name("urgent"), None);
        assert_eq!(Priority::High.index(), 0);
        assert_eq!(Priority::Batch.index(), 2);
    }

    #[test]
    fn classes_dispatch_in_strict_priority_fifo_within() {
        let mut q = ClassQueues::new();
        q.push_back(Priority::Batch, 1);
        q.push_back(Priority::Normal, 2);
        q.push_back(Priority::High, 3);
        q.push_back(Priority::High, 4);
        q.push_back(Priority::Normal, 5);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(0).map(|(id, _)| id)).collect();
        assert_eq!(order, vec![3, 4, 2, 5, 1]);
    }

    #[test]
    fn push_front_resumes_before_queue_peers() {
        let mut q = ClassQueues::new();
        q.push_back(Priority::Batch, 1);
        q.push_front(Priority::Batch, 2);
        assert_eq!(q.pop(0), Some((2, None)));
        assert_eq!(q.pop(0), Some((1, None)));
    }

    #[test]
    fn remove_takes_a_job_out_of_any_class() {
        let mut q = ClassQueues::new();
        q.push_back(Priority::Normal, 1);
        q.push_back(Priority::Batch, 2);
        assert_eq!(q.total(), 2);
        q.remove(2);
        assert_eq!(q.depth(Priority::Batch), 0);
        assert_eq!(q.pop(0), Some((1, None)));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn aging_promotes_the_oldest_batch_job_after_the_threshold() {
        let mut q = ClassQueues::new();
        q.push_back(Priority::Batch, 10);
        q.push_back(Priority::Batch, 11);
        for id in 1..=3 {
            q.push_back(Priority::Normal, id);
        }
        // Threshold 2: the second Normal dispatch that bypasses waiting
        // Batch work promotes Batch's front job to the Normal tail.
        assert_eq!(q.pop(2), Some((1, None)));
        assert_eq!(q.pop(2), Some((2, Some(10))));
        assert_eq!(q.depth(Priority::Batch), 1);
        // Job 10 now sits behind Normal job 3, ahead of Batch job 11 —
        // and its own (now-Normal) dispatch keeps aging job 11.
        assert_eq!(q.pop(2), Some((3, None)));
        assert_eq!(q.pop(2), Some((10, Some(11))));
        assert_eq!(q.pop(2), Some((11, None)));
    }

    #[test]
    fn dispatching_batch_resets_the_skip_counter() {
        let mut q = ClassQueues::new();
        q.push_back(Priority::Batch, 10);
        q.push_back(Priority::Normal, 1);
        assert_eq!(q.pop(2), Some((1, None)), "one skip, below threshold");
        // Batch runs: the counter resets, so the next Normal bypass
        // starts counting from zero again.
        assert_eq!(q.pop(2), Some((10, None)));
        q.push_back(Priority::Batch, 11);
        q.push_back(Priority::Normal, 2);
        q.push_back(Priority::Normal, 3);
        assert_eq!(q.pop(2), Some((2, None)));
        assert_eq!(q.pop(2), Some((3, Some(11))), "threshold counted from the reset");
    }

    #[test]
    fn aging_disabled_never_promotes() {
        let mut q = ClassQueues::new();
        q.push_back(Priority::Batch, 10);
        for id in 1..=50 {
            q.push_back(Priority::Normal, id);
            assert_eq!(q.pop(0), Some((id, None)));
        }
        assert_eq!(q.depth(Priority::Batch), 1, "batch job still waiting, unpromoted");
    }

    #[test]
    fn empty_queues_pop_nothing() {
        let mut q = ClassQueues::new();
        assert_eq!(q.pop(4), None);
        assert_eq!(q.total(), 0);
    }
}
