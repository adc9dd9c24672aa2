//! The event-driven simulator.
//!
//! [`Sim<M>`] owns a user model `M` plus the event heap and clock.
//! Events are boxed `FnOnce(&mut Sim<M>)` closures; ties at the same
//! instant are broken by submission order so execution is fully
//! deterministic. Events can be cancelled by id (used heavily by the
//! fluid-flow drivers, which keep exactly one pending completion event).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event; usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// Sentinel for "no event scheduled".
    pub const NONE: EventId = EventId(u64::MAX);
}

type Action<M> = Box<dyn FnOnce(&mut Sim<M>)>;

struct Entry<M> {
    time: SimTime,
    seq: u64,
    id: EventId,
    action: Action<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first,
        // with submission order as the deterministic tie-breaker.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event simulator wrapping a user-supplied model.
pub struct Sim<M> {
    now: SimTime,
    heap: BinaryHeap<Entry<M>>,
    next_seq: u64,
    cancelled: HashSet<EventId>,
    executed: u64,
    rng: SimRng,
    /// The domain model (cluster, network, daemons...). Public so event
    /// closures can reach it; borrows of `model` and the scheduling API
    /// must be sequenced, not overlapped.
    pub model: M,
}

impl<M> Sim<M> {
    pub fn new(model: M, seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
            executed: 0,
            rng: SimRng::seed_from_u64(seed),
            model,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of events executed so far (for diagnostics and budget
    /// guards in tests).
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedule `action` to run at absolute time `at`. Scheduling in
    /// the past is a bug in the model and panics.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Sim<M>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        let id = EventId(self.next_seq);
        self.heap.push(Entry {
            time: at,
            seq: self.next_seq,
            id,
            action: Box::new(action),
        });
        self.next_seq += 1;
        id
    }

    /// Schedule `action` to run `after` from now.
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        action: impl FnOnce(&mut Sim<M>) + 'static,
    ) -> EventId {
        let at = self.now + after;
        self.schedule_at(at, action)
    }

    /// Schedule an action to run at the current instant, after all
    /// events already queued for this instant.
    pub fn schedule_now(&mut self, action: impl FnOnce(&mut Sim<M>) + 'static) -> EventId {
        self.schedule_at(self.now, action)
    }

    /// Cancel a pending event. Cancelling an already-fired or unknown
    /// event is a no-op (returns false).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id == EventId::NONE || id.0 >= self.next_seq {
            return false;
        }
        // We cannot remove from the heap cheaply; mark and skip on pop.
        self.cancelled.insert(id)
    }

    /// Execute the next event, if any. Returns false when the queue is
    /// exhausted.
    pub fn step(&mut self) -> bool {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            debug_assert!(entry.time >= self.now, "time went backwards");
            self.now = entry.time;
            self.executed += 1;
            (entry.action)(self);
            return true;
        }
        false
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the clock would pass `deadline`; events at exactly
    /// `deadline` are executed. The clock is left at
    /// `min(deadline, time of last event)`.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            let next = loop {
                match self.heap.peek() {
                    Some(e) if self.cancelled.contains(&e.id) => {
                        let e = self.heap.pop().unwrap();
                        self.cancelled.remove(&e.id);
                    }
                    Some(e) => break Some(e.time),
                    None => break None,
                }
            };
            match next {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => {
                    if deadline > self.now && deadline != SimTime::MAX {
                        self.now = deadline;
                    }
                    return;
                }
            }
        }
    }

    /// Run with a safety cap on executed events; panics if exceeded.
    /// Useful in tests to catch runaway models.
    pub fn run_capped(&mut self, max_events: u64) {
        let start = self.executed;
        while self.step() {
            assert!(
                self.executed - start <= max_events,
                "simulation exceeded event budget of {max_events}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct Trace {
        log: Rc<RefCell<Vec<(u64, &'static str)>>>,
    }

    fn record(sim: &mut Sim<Trace>, tag: &'static str) {
        let now = sim.now().as_nanos();
        sim.model.log.borrow_mut().push((now, tag));
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Trace::default(), 0);
        sim.schedule_at(SimTime::from_nanos(30), |s| record(s, "c"));
        sim.schedule_at(SimTime::from_nanos(10), |s| record(s, "a"));
        sim.schedule_at(SimTime::from_nanos(20), |s| record(s, "b"));
        sim.run();
        let log = sim.model.log.borrow().clone();
        assert_eq!(log, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(sim.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn ties_break_by_submission_order() {
        let mut sim = Sim::new(Trace::default(), 0);
        let t = SimTime::from_nanos(5);
        sim.schedule_at(t, |s| record(s, "first"));
        sim.schedule_at(t, |s| record(s, "second"));
        sim.schedule_at(t, |s| record(s, "third"));
        sim.run();
        let log = sim.model.log.borrow().clone();
        assert_eq!(
            log.iter().map(|(_, tag)| *tag).collect::<Vec<_>>(),
            vec!["first", "second", "third"]
        );
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(Trace::default(), 0);
        sim.schedule_at(SimTime::from_nanos(10), |s| {
            record(s, "outer");
            s.schedule_in(SimDuration::from_nanos(5), |s| record(s, "inner"));
        });
        sim.run();
        let log = sim.model.log.borrow().clone();
        assert_eq!(log, vec![(10, "outer"), (15, "inner")]);
    }

    #[test]
    fn cancellation_suppresses_execution() {
        let mut sim = Sim::new(Trace::default(), 0);
        let id = sim.schedule_at(SimTime::from_nanos(10), |s| record(s, "cancelled"));
        sim.schedule_at(SimTime::from_nanos(20), |s| record(s, "kept"));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel is a no-op");
        sim.run();
        let log = sim.model.log.borrow().clone();
        assert_eq!(log, vec![(20, "kept")]);
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut sim = Sim::new(Trace::default(), 0);
        assert!(!sim.cancel(EventId::NONE));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(Trace::default(), 0);
        sim.schedule_at(SimTime::from_nanos(10), |s| record(s, "a"));
        sim.schedule_at(SimTime::from_nanos(50), |s| record(s, "late"));
        sim.run_until(SimTime::from_nanos(25));
        assert_eq!(sim.now(), SimTime::from_nanos(25));
        assert_eq!(sim.model.log.borrow().len(), 1);
        // The late event is still pending and fires afterwards.
        sim.run();
        assert_eq!(sim.model.log.borrow().len(), 2);
    }

    #[test]
    fn run_until_executes_events_at_deadline() {
        let mut sim = Sim::new(Trace::default(), 0);
        sim.schedule_at(SimTime::from_nanos(25), |s| record(s, "edge"));
        sim.run_until(SimTime::from_nanos(25));
        assert_eq!(sim.model.log.borrow().len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(Trace::default(), 0);
        sim.schedule_at(SimTime::from_nanos(10), |s| {
            s.schedule_at(SimTime::from_nanos(5), |_| {});
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn run_capped_catches_runaway() {
        struct Loopy;
        let mut sim = Sim::new(Loopy, 0);
        fn again(s: &mut Sim<Loopy>) {
            s.schedule_in(SimDuration::from_nanos(1), again);
        }
        sim.schedule_now(again);
        sim.run_capped(100);
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        let mk = || {
            let mut sim = Sim::new(Trace::default(), 99);
            let mut out = Vec::new();
            for _ in 0..10 {
                out.push(sim.rng().gen_u64());
            }
            out
        };
        assert_eq!(mk(), mk());
    }
}
