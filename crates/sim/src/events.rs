//! The time-ordered event queue.
//!
//! The queue is the core of the discrete-event engine: events are popped in
//! non-decreasing time order, with FIFO order among events scheduled for the
//! same instant (insertion order breaks ties).  Deterministic tie-breaking is
//! required for reproducible fault-injection campaigns.
//!
//! [`EventQueue`] is two binary heaps keyed by `(time, seq)`: one holds the
//! pending one-shot events, the other the periodic **trains**.  That is all
//! the shipped workloads need: the engine-driven scenario families keep one
//! or two resident events, and their fixed-period traffic (TDMA slot ticks,
//! pulse-sync rounds, middleware publish and drain loops) runs as at most two
//! trains per family (see ARCHITECTURE.md, "Event core").
//!
//! # Periodic event trains
//!
//! [`EventQueue::schedule_periodic`] registers a train: one lazily
//! materialized generator whose next tick sits in the train heap.  Popping a
//! tick clones the payload and advances the train in place (`peek_mut`), so
//! a tick costs one sift of a heap that holds a handful of trains, and no
//! per-tick schedule or sequence number.
//!
//! Train determinism contract (the **seq allocation rules**):
//!
//! * `schedule_periodic` consumes exactly **one** sequence number from the
//!   same counter one-shot schedules use; every tick of the train carries
//!   that rank.  A train therefore behaves *exactly* as if all of its ticks
//!   had been scheduled up front, back-to-back, at the moment of the
//!   `schedule_periodic` call: its ticks win FIFO ties against anything
//!   scheduled later and lose them against anything scheduled earlier.
//! * Ticks of one train never tie with each other (the period is non-zero),
//!   and ticks of different trains tie-break by their trains' ranks.
//! * [`EventQueue::cancel_train`] stops a train immediately (no further
//!   ticks); [`EventQueue::retune_train`] changes the period for the
//!   intervals *after* the already-materialized next tick.  Neither affects
//!   any other event's order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A pending one-shot event.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

/// Handle to a periodic event train created by
/// [`EventQueue::schedule_periodic`], used to cancel or retune it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrainId(u64);

/// A lazily-materialized fixed-period event generator.
#[derive(Debug, Clone)]
struct Train<E> {
    id: TrainId,
    /// FIFO tie-break rank of *every* tick: the sequence number consumed by
    /// the `schedule_periodic` call (see the module docs).
    seq: u64,
    /// Firing time of the next (not yet emitted) tick.
    next: SimTime,
    period: SimDuration,
    payload: E,
}

/// Orders heap entries by their `(time, seq)` key, earliest first.  `seq` is
/// unique per queue, so the order is total and pop order never depends on
/// the heap's internal layout.
trait Keyed {
    fn key(&self) -> (SimTime, u64);
}

impl<E> Keyed for Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> Keyed for Train<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.next, self.seq)
    }
}

macro_rules! min_heap_order {
    ($ty:ident) => {
        impl<E> PartialEq for $ty<E> {
            fn eq(&self, other: &Self) -> bool {
                self.key() == other.key()
            }
        }
        impl<E> Eq for $ty<E> {}
        impl<E> Ord for $ty<E> {
            fn cmp(&self, other: &Self) -> Ordering {
                // BinaryHeap is a max-heap; invert so the earliest pops first.
                other.key().cmp(&self.key())
            }
        }
        impl<E> PartialOrd for $ty<E> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
    };
}

min_heap_order!(Scheduled);
min_heap_order!(Train);

/// A priority queue of events ordered by firing time (earliest first), with
/// deterministic FIFO tie-breaking for simultaneous events and periodic
/// [trains](EventQueue::schedule_periodic) merged at pop time.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    one_shots: BinaryHeap<Scheduled<E>>,
    trains: BinaryHeap<Train<E>>,
    next_seq: u64,
    next_train_id: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            one_shots: BinaryHeap::new(),
            trains: BinaryHeap::new(),
            next_seq: 0,
            next_train_id: 0,
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.take_seq();
        self.one_shots.push(Scheduled { time, seq, payload });
    }

    /// Registers a periodic event **train**: `payload` fires at `start`,
    /// `start + period`, `start + 2·period`, … until
    /// [cancelled](EventQueue::cancel_train).  Each tick clones the payload.
    ///
    /// The train consumes one sequence number at this call; see the module
    /// docs for the resulting FIFO tie-order contract (the train behaves as
    /// if every tick had been scheduled up front at this instant).
    ///
    /// # Panics
    /// Panics if `period` is zero (the tick train would never advance time).
    pub fn schedule_periodic(
        &mut self,
        start: SimTime,
        period: SimDuration,
        payload: E,
    ) -> TrainId {
        assert!(!period.is_zero(), "a periodic train needs a non-zero period");
        let seq = self.take_seq();
        let id = TrainId(self.next_train_id);
        self.next_train_id += 1;
        self.trains.push(Train { id, seq, next: start, period, payload });
        id
    }

    /// Cancels a train: no further ticks fire.  Returns the train's payload,
    /// or `None` if `id` is unknown (e.g. already cancelled).
    pub fn cancel_train(&mut self, id: TrainId) -> Option<E> {
        // Cancels are rare and the train heap is tiny: rebuild it.
        let mut trains = std::mem::take(&mut self.trains).into_vec();
        let removed = trains.iter().position(|t| t.id == id).map(|at| trains.swap_remove(at));
        self.trains = trains.into();
        removed.map(|t| t.payload)
    }

    /// Changes a train's period for the intervals *after* its next
    /// (already-materialized) tick.  Returns false if `id` is unknown.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn retune_train(&mut self, id: TrainId, period: SimDuration) -> bool {
        assert!(!period.is_zero(), "a periodic train needs a non-zero period");
        // The period is not part of the heap key, so editing it in place
        // keeps the heap order valid.
        let mut trains = std::mem::take(&mut self.trains).into_vec();
        let found = match trains.iter_mut().find(|t| t.id == id) {
            Some(train) => {
                train.period = period;
                true
            }
            None => false,
        };
        self.trains = trains.into();
        found
    }

    /// Number of active periodic trains.
    pub fn active_trains(&self) -> usize {
        self.trains.len()
    }

    /// The firing time of the earliest pending event (one-shot or train
    /// tick), if any.
    pub fn next_time(&self) -> Option<SimTime> {
        let one_shot = self.one_shots.peek().map(|s| s.time);
        let tick = self.trains.peek().map(|t| t.next);
        match (one_shot, tick) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.  Each active train counts as one (its
    /// materialized next tick); popping a tick does not shrink the queue,
    /// because the following tick takes its place.
    pub fn len(&self) -> usize {
        self.one_shots.len() + self.trains.len()
    }

    /// True when no events are pending and no train is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events and cancels all trains.
    pub fn clear(&mut self) {
        self.one_shots.clear();
        self.trains.clear();
    }
}

impl<E: Clone> EventQueue<E> {
    /// Removes and returns the earliest pending event as `(time, payload)`.
    ///
    /// A train tick clones the train's payload and materializes the
    /// following tick in place.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(mut train) = self.trains.peek_mut() {
            // Keys never collide: train seqs come from the same counter.
            if self.one_shots.peek().map_or(true, |s| train.key() < s.key()) {
                let time = train.next;
                train.next = time + train.period;
                return Some((time, train.payload.clone()));
            }
        }
        self.one_shots.pop().map(|s| (s.time, s.payload))
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.next_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(q.pop_until(SimTime::from_millis(15)), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop_until(SimTime::from_millis(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_time_and_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.next_time(), Some(SimTime::from_secs(1)));
        q.clear();
        assert!(q.is_empty());
        // The queue is reusable after a clear.
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), ())));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0u64);
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, v)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
            if v < 20 {
                q.schedule(t + SimDuration::from_millis(3), v + 1);
                q.schedule(t + SimDuration::from_millis(1), v + 1);
            }
        }
        assert!(popped > 20);
    }

    #[test]
    fn scheduling_earlier_than_the_last_pop_is_honoured() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.schedule(SimTime::from_secs(20), "later");
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "late")));
        q.schedule(SimTime::from_secs(1), "early");
        q.schedule(SimTime::from_millis(500), "earlier");
        assert_eq!(q.pop(), Some((SimTime::from_millis(500), "earlier")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(20), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn periodic_train_emits_the_expected_ticks() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_periodic(SimTime::from_millis(10), SimDuration::from_millis(5), "tick");
        assert_eq!(q.len(), 1, "a train counts as one pending event");
        assert!(!q.is_empty());
        for k in 0..5u64 {
            assert_eq!(q.next_time(), Some(SimTime::from_millis(10 + 5 * k)));
            assert_eq!(q.pop(), Some((SimTime::from_millis(10 + 5 * k), "tick")));
        }
        assert_eq!(q.len(), 1, "the train regenerates after every tick");
    }

    #[test]
    fn train_ticks_win_ties_against_later_one_shots_and_lose_to_earlier() {
        // Rank contract: the train holds the seq of its creation call.
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "before");
        q.schedule_periodic(SimTime::from_millis(5), SimDuration::from_millis(5), "tick");
        q.schedule(SimTime::from_millis(5), "after");
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), "tick")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), "after")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "before")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "tick")));
    }

    #[test]
    fn coincident_trains_tie_break_by_creation_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule_periodic(SimTime::from_millis(1), SimDuration::from_millis(2), 1);
        q.schedule_periodic(SimTime::from_millis(1), SimDuration::from_millis(2), 2);
        for _ in 0..3 {
            let (ta, a) = q.pop().unwrap();
            let (tb, b) = q.pop().unwrap();
            assert_eq!(ta, tb);
            assert_eq!((a, b), (1, 2), "creation order breaks coincident-tick ties");
        }
    }

    #[test]
    fn cancel_train_stops_ticks_and_returns_the_payload() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let id = q.schedule_periodic(SimTime::ZERO, SimDuration::from_millis(1), "tick");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "tick")));
        assert_eq!(q.cancel_train(id), Some("tick"));
        assert_eq!(q.cancel_train(id), None, "double cancel is inert");
        assert_eq!(q.active_trains(), 0);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancelling_one_train_leaves_the_others_in_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let a = q.schedule_periodic(SimTime::from_millis(1), SimDuration::from_millis(3), 1);
        q.schedule_periodic(SimTime::from_millis(2), SimDuration::from_millis(3), 2);
        q.schedule_periodic(SimTime::from_millis(3), SimDuration::from_millis(3), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        assert_eq!(q.cancel_train(a), Some(1));
        let ticks: Vec<_> = (0..4).map(|_| q.pop().unwrap()).collect();
        assert_eq!(
            ticks,
            vec![
                (SimTime::from_millis(2), 2),
                (SimTime::from_millis(3), 3),
                (SimTime::from_millis(5), 2),
                (SimTime::from_millis(6), 3),
            ]
        );
    }

    #[test]
    fn retune_train_changes_the_cadence_after_the_next_tick() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let id = q.schedule_periodic(SimTime::ZERO, SimDuration::from_millis(10), "tick");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "tick")));
        // The next tick (10 ms) is already materialized; the new 3 ms period
        // applies to the intervals after it.
        assert!(q.retune_train(id, SimDuration::from_millis(3)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "tick")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(13), "tick")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(16), "tick")));
        assert!(!q.retune_train(TrainId(99), SimDuration::from_millis(1)));
    }

    #[test]
    fn clear_cancels_trains_too() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule_periodic(SimTime::ZERO, SimDuration::from_millis(1), 1);
        q.schedule(SimTime::from_millis(4), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.active_trains(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "non-zero period")]
    fn zero_period_trains_are_rejected() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule_periodic(SimTime::ZERO, SimDuration::ZERO, 1);
    }

    /// A train must behave exactly as if every tick had been scheduled up
    /// front at the `schedule_periodic` call (the eager-materialization
    /// reading of the seq contract), for any interleaving with one-shots.
    #[test]
    fn train_matches_eager_materialization() {
        let horizon = SimTime::from_millis(200);
        let mut train_q: EventQueue<u64> = EventQueue::new();
        let mut eager_q: EventQueue<u64> = EventQueue::new();
        // one-shot before the train, coincident with tick times
        for q in [&mut train_q, &mut eager_q] {
            q.schedule(SimTime::from_millis(30), 100);
        }
        train_q.schedule_periodic(SimTime::from_millis(10), SimDuration::from_millis(10), 7);
        let mut t = SimTime::from_millis(10);
        while t <= horizon {
            eager_q.schedule(t, 7);
            t += SimDuration::from_millis(10);
        }
        // one-shots after the train, again coincident
        for q in [&mut train_q, &mut eager_q] {
            q.schedule(SimTime::from_millis(30), 200);
            q.schedule(SimTime::from_millis(70), 201);
        }
        loop {
            let expected = eager_q.pop_until(horizon);
            assert_eq!(train_q.pop_until(horizon), expected);
            if expected.is_none() {
                break;
            }
        }
    }
}
