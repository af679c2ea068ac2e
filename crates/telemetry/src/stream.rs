//! A bounded, backpressure-aware in-process event bus.
//!
//! [`EventBus`] is the concrete [`EventSink`] campaigns install when a
//! live consumer (the `repro --live-out` JSONL writer + progress line,
//! or the roadmap's campaign daemon) wants the stream: a fixed-capacity
//! queue under a `Mutex` + two `Condvar`s, dependency-free like the rest
//! of the workspace.
//!
//! ## Backpressure policy
//!
//! The bus distinguishes the two event kinds of
//! [`events`](crate::events):
//!
//! * [`EventBus::emit`] **blocks** when the queue is full — used for
//!   replayable events, which are part of the result and must never be
//!   lost. A slow consumer therefore throttles the producer instead of
//!   silently truncating the stream; the queue bound keeps memory O(1).
//! * [`EventBus::try_emit`] **drops** when the queue is full (counting
//!   the drops) — used for operational progress events, where the most
//!   recent state is all a progress line needs and stalling a worker
//!   pool to preserve every heartbeat would invert the priorities.
//!
//! The [`EventSink`] impl routes by [`Event::is_replayable`], so
//! producers that only know "here is a sink" still get the right policy
//! per event.

use crate::events::{Event, EventSink};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Default queue capacity: deep enough that a consumer flushing to disk
/// never stalls a worker in practice, small enough to bound memory.
const DEFAULT_BUS_CAPACITY: usize = 1024;

#[derive(Debug)]
struct BusState {
    queue: VecDeque<Event>,
    dropped: u64,
    /// Drops broken down by [`Event::kind`]. A `BTreeMap` keyed by the
    /// static kind tag keeps the readout deterministically ordered.
    dropped_kinds: BTreeMap<&'static str, u64>,
    closed: bool,
}

/// A bounded multi-producer single-consumer event queue.
///
/// Producers call [`emit`](EventBus::emit) (or go through the
/// [`EventSink`] impl); one consumer loops on
/// [`drain_wait`](EventBus::drain_wait) until the producer side calls
/// [`close`](EventBus::close).
#[derive(Debug)]
pub struct EventBus {
    state: Mutex<BusState>,
    /// Signalled when events arrive or the bus closes (consumer waits).
    ready: Condvar,
    /// Signalled when the consumer drains (blocked producers wait).
    space: Condvar,
    capacity: usize,
}

impl EventBus {
    /// A bus holding at most `capacity` queued events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        EventBus {
            state: Mutex::new(BusState {
                queue: VecDeque::new(),
                dropped: 0,
                dropped_kinds: BTreeMap::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a lossless event, blocking while the queue is full.
    /// After [`close`](EventBus::close) the event is discarded (the
    /// consumer is gone).
    pub fn emit(&self, event: Event) {
        let mut st = self.state.lock().expect("event bus poisoned");
        while st.queue.len() >= self.capacity && !st.closed {
            st = self.space.wait(st).expect("event bus poisoned");
        }
        if st.closed {
            return;
        }
        st.queue.push_back(event);
        drop(st);
        self.ready.notify_one();
    }

    /// Enqueues a lossy event; if the queue is full (or the bus is
    /// closed) the event is dropped and counted instead of blocking.
    pub(crate) fn try_emit(&self, event: Event) {
        let mut st = self.state.lock().expect("event bus poisoned");
        if st.closed || st.queue.len() >= self.capacity {
            st.dropped = st.dropped.saturating_add(1);
            let per_kind = st.dropped_kinds.entry(event.kind()).or_insert(0);
            *per_kind = per_kind.saturating_add(1);
            return;
        }
        st.queue.push_back(event);
        drop(st);
        self.ready.notify_one();
    }

    /// Moves every queued event into `buf`, waiting for at least one if
    /// the queue is empty. Returns `false` once the bus is closed *and*
    /// drained — the consumer's loop condition.
    pub fn drain_wait(&self, buf: &mut Vec<Event>) -> bool {
        let mut st = self.state.lock().expect("event bus poisoned");
        while st.queue.is_empty() && !st.closed {
            st = self.ready.wait(st).expect("event bus poisoned");
        }
        let had = !st.queue.is_empty();
        buf.extend(st.queue.drain(..));
        let open = had || !st.closed;
        drop(st);
        self.space.notify_all();
        open
    }

    /// Closes the bus: blocked producers unblock (their events are
    /// dropped), and the consumer drains what remains and stops.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("event bus poisoned");
        st.closed = true;
        drop(st);
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Number of lossy events dropped under backpressure so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("event bus poisoned").dropped
    }

    /// The drops broken down by event kind, ascending by kind tag.
    /// Entries sum to [`EventBus::dropped`].
    #[must_use]
    pub fn dropped_by_kind(&self) -> Vec<(String, u64)> {
        let st = self.state.lock().expect("event bus poisoned");
        st.dropped_kinds.iter().map(|(&k, &n)| (k.to_string(), n)).collect()
    }

    /// Events currently queued (diagnostic).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("event bus poisoned").queue.len()
    }

    /// Whether the queue is currently empty (diagnostic).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for EventBus {
    fn default() -> Self {
        Self::new(DEFAULT_BUS_CAPACITY)
    }
}

impl EventSink for EventBus {
    /// Replayable events take the lossless blocking path; operational
    /// events take the lossy one.
    fn emit(&self, event: Event) {
        if event.is_replayable() {
            EventBus::emit(self, event);
        } else {
            self.try_emit(event);
        }
    }

    /// Operational events dropped under backpressure so far.
    fn dropped(&self) -> u64 {
        EventBus::dropped(self)
    }

    /// The drops broken down by event kind.
    fn dropped_by_kind(&self) -> Vec<(String, u64)> {
        EventBus::dropped_by_kind(self)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_is_preserved() {
        let bus = EventBus::new(8);
        for t in 0..5 {
            bus.emit(Event::TrialCompleted { trial: t });
        }
        bus.close();
        let mut buf = Vec::new();
        while bus.drain_wait(&mut buf) {}
        let trials: Vec<u64> = buf
            .iter()
            .map(|e| match e {
                Event::TrialCompleted { trial } => *trial,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(trials, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drops_are_counted_per_kind() {
        let bus = EventBus::new(1);
        bus.try_emit(Event::TrialCompleted { trial: 0 }); // fills the queue
        bus.try_emit(Event::TrialCompleted { trial: 1 });
        bus.try_emit(Event::TrialCompleted { trial: 2 });
        bus.try_emit(Event::ShardCompleted { shard: 0, len: 4 });
        assert_eq!(bus.dropped(), 3);
        assert_eq!(
            bus.dropped_by_kind(),
            vec![("shard_completed".to_string(), 1), ("trial_completed".to_string(), 2)],
            "ascending by kind tag"
        );
        let total: u64 = EventSink::dropped_by_kind(&bus).iter().map(|(_, n)| n).sum();
        assert_eq!(total, EventSink::dropped(&bus), "breakdown sums to the aggregate");
    }

    #[test]
    fn try_emit_drops_and_counts_when_full() {
        let bus = EventBus::new(2);
        bus.try_emit(Event::TrialCompleted { trial: 0 });
        bus.try_emit(Event::TrialCompleted { trial: 1 });
        bus.try_emit(Event::TrialCompleted { trial: 2 });
        assert_eq!(bus.len(), 2);
        assert_eq!(bus.dropped(), 1);
    }

    #[test]
    fn blocking_emit_waits_for_the_consumer() {
        let bus = EventBus::new(1);
        bus.emit(Event::CampaignCompleted {
            trials: 1,
            dropped_events: 0,
            dropped_by_kind: vec![],
        });
        thread::scope(|scope| {
            scope.spawn(|| {
                // Blocks until the consumer below makes space.
                bus.emit(Event::CampaignCompleted {
                    trials: 2,
                    dropped_events: 0,
                    dropped_by_kind: vec![],
                });
                bus.close();
            });
            let mut buf = Vec::new();
            while bus.drain_wait(&mut buf) {}
            assert_eq!(buf.len(), 2);
            assert_eq!(bus.dropped(), 0, "lossless path never drops");
        });
    }

    #[test]
    fn close_unblocks_producers_and_ends_the_consumer() {
        let bus = EventBus::new(1);
        bus.emit(Event::CampaignCompleted {
            trials: 1,
            dropped_events: 0,
            dropped_by_kind: vec![],
        });
        thread::scope(|scope| {
            scope.spawn(|| {
                bus.close();
            });
            // The blocked emit must return (dropping its event) …
            bus.emit(Event::CampaignCompleted {
                trials: 2,
                dropped_events: 0,
                dropped_by_kind: vec![],
            });
            // … and the consumer must terminate after draining.
            let mut buf = Vec::new();
            while bus.drain_wait(&mut buf) {}
            assert_eq!(buf.len(), 1);
        });
    }

    #[test]
    fn drain_after_all_senders_drop_yields_every_buffered_event() {
        let bus = EventBus::new(8);
        thread::scope(|scope| {
            for p in 0..3u64 {
                let bus = &bus;
                scope.spawn(move || {
                    bus.emit(Event::FaultOutcome { trial: p, outcome: "no-effect".into() });
                });
            }
        });
        // Every producer has exited; nothing further can arrive. A close
        // followed by a drain must still surface everything buffered.
        bus.close();
        let mut buf = Vec::new();
        while bus.drain_wait(&mut buf) {}
        assert_eq!(buf.len(), 3, "buffered events survive sender teardown");
        assert!(!bus.drain_wait(&mut buf), "a closed, empty bus ends the consumer");
        assert_eq!(bus.dropped(), 0, "the lossless path dropped nothing");
    }

    #[test]
    fn sink_dropped_surfaces_the_bus_counter() {
        let bus = EventBus::new(1);
        EventSink::emit(&bus, Event::TrialCompleted { trial: 0 });
        EventSink::emit(&bus, Event::TrialCompleted { trial: 1 });
        assert_eq!(EventSink::dropped(&bus), 1);
        assert_eq!(EventSink::dropped(&&bus), 1, "forwarding impl keeps the counter visible");
    }

    #[test]
    fn sink_impl_routes_by_replayability() {
        let bus = EventBus::new(1);
        // Operational events on a full queue drop instead of deadlocking
        // a single-threaded producer.
        EventSink::emit(&bus, Event::TrialCompleted { trial: 0 });
        EventSink::emit(&bus, Event::TrialCompleted { trial: 1 });
        assert_eq!(bus.dropped(), 1);
    }

    #[test]
    fn concurrent_producers_lose_nothing_on_the_lossless_path() {
        let bus = EventBus::new(4);
        const PER: u64 = 200;
        thread::scope(|scope| {
            for p in 0..3u64 {
                let bus = &bus;
                scope.spawn(move || {
                    for t in 0..PER {
                        bus.emit(Event::FaultOutcome {
                            trial: p * PER + t,
                            outcome: "no-effect".into(),
                        });
                    }
                });
            }
            scope.spawn(|| {
                // Give producers a head start against the tiny queue.
                let mut buf = Vec::new();
                let mut seen = 0;
                while bus.drain_wait(&mut buf) {
                    seen += buf.len();
                    buf.clear();
                    if seen == 3 * PER as usize {
                        bus.close();
                    }
                }
                assert_eq!(seen, 3 * PER as usize);
            });
        });
        assert_eq!(bus.dropped(), 0);
    }
}
