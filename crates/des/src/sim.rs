//! The simulation core: a clock plus a deterministic future-event list.
//!
//! [`Sim`] is generic over a user-supplied model type `M`. An event is
//! plain data: a function pointer, either `fn(&mut Sim<M>)` or
//! `fn(&mut Sim<M>, usize)` with one payload word, so scheduling is a heap
//! push and firing is a call — nothing is boxed. State an event needs
//! beyond its word lives in the model (via [`Sim::model_mut`]), which the
//! event may inspect and mutate, scheduling further events. Two events
//! scheduled for the same instant fire in the order they were scheduled
//! (FIFO tie-breaking on a monotone sequence number), which makes every run
//! bit-reproducible.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// What an event calls when it fires.
enum Fire<M> {
    Plain(fn(&mut Sim<M>)),
    Word(fn(&mut Sim<M>, usize), usize),
}

struct Scheduled<M> {
    at: SimTime,
    id: EventId,
    fire: Fire<M>,
}

// Ordering for the max-heap: earliest time first, then lowest id (FIFO).
impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, id) pops first.
        (other.at, other.id).cmp(&(self.at, self.id))
    }
}

/// A discrete-event simulator owning a model of type `M`.
pub struct Sim<M> {
    now: SimTime,
    next_id: u64,
    heap: BinaryHeap<Scheduled<M>>,
    cancelled: HashSet<EventId>,
    model: M,
}

impl<M> Sim<M> {
    /// Create a simulator at time zero owning `model`.
    pub fn new(model: M) -> Self {
        Sim {
            now: SimTime::ZERO,
            next_id: 0,
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            model,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the model.
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    #[inline]
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the simulator, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    fn push(&mut self, at: SimTime, fire: Fire<M>) -> EventId {
        assert!(at >= self.now, "cannot schedule an event in the past ({at} < {})", self.now);
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.heap.push(Scheduled { at, id, fire });
        id
    }

    /// Schedule `fire` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past: events cannot rewrite history.
    pub fn schedule_at(&mut self, at: SimTime, fire: fn(&mut Sim<M>)) -> EventId {
        self.push(at, Fire::Plain(fire))
    }

    /// Schedule `fire(sim, word)` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_at_with(
        &mut self,
        at: SimTime,
        fire: fn(&mut Sim<M>, usize),
        word: usize,
    ) -> EventId {
        self.push(at, Fire::Word(fire, word))
    }

    /// Schedule `fire` to run `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, fire: fn(&mut Sim<M>)) -> EventId {
        self.schedule_at(self.now + after, fire)
    }

    /// Schedule `fire(sim, word)` to run `after` from now.
    pub fn schedule_in_with(
        &mut self,
        after: SimDuration,
        fire: fn(&mut Sim<M>, usize),
        word: usize,
    ) -> EventId {
        self.schedule_at_with(self.now + after, fire, word)
    }

    /// Schedule `fire` to run at the current instant, after all events
    /// already scheduled for this instant.
    pub fn schedule_now(&mut self, fire: fn(&mut Sim<M>)) -> EventId {
        self.schedule_at(self.now, fire)
    }

    /// Cancel an event so it never fires. Returns `false` for an id this
    /// simulator never issued, and for one already cancelled and not yet
    /// reaped. Otherwise it returns `true`, which does not mean the event
    /// was pending: `cancel` cannot tell a fired event from a pending one,
    /// so cancelling an id that already fired returns `true` and changes
    /// nothing, and so does cancelling again an id a compaction pass has
    /// reaped.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_id {
            return false;
        }
        // Record the cancellation and let the pop path drop it. Inserting
        // an id that already fired is harmless: it can never pop again.
        let fresh = self.cancelled.insert(id);
        // Lazy compaction: once cancellations outweigh half the queue, the
        // heap is mostly dead entries (or the cancelled set is mostly ids
        // that already fired). Rebuild both so long-horizon runs with heavy
        // cancellation stay bounded instead of reaping only on pop.
        if self.cancelled.len() > self.heap.len() / 2 {
            self.compact();
        }
        fresh
    }

    /// Drop every cancelled entry from the heap and clear the cancelled set.
    /// Ids left in the set but absent from the heap have already fired and
    /// can never pop again, so forgetting them is safe.
    fn compact(&mut self) {
        let heap = std::mem::take(&mut self.heap);
        let cancelled = std::mem::take(&mut self.cancelled);
        self.heap = heap.into_iter().filter(|ev| !cancelled.contains(&ev.id)).collect();
    }

    /// Execute the next event, if any. Returns `false` when the future-event
    /// list is empty.
    pub fn step(&mut self) -> bool {
        while let Some(ev) = self.heap.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&ev.id) {
                continue;
            }
            debug_assert!(ev.at >= self.now);
            self.now = ev.at;
            match ev.fire {
                Fire::Plain(fire) => fire(self),
                Fire::Word(fire, word) => fire(self, word),
            }
            return true;
        }
        false
    }

    /// Run until the future-event list is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }
}

impl<M: Default> Default for Sim<M> {
    fn default() -> Self {
        Sim::new(M::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct Log(Vec<(u64, &'static str)>);

    fn push(s: &mut Sim<Log>, name: &'static str) {
        let t = s.now().0;
        s.model_mut().0.push((t, name));
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Log::default());
        sim.schedule_at(SimTime(30), |s| push(s, "c"));
        sim.schedule_at(SimTime(10), |s| push(s, "a"));
        sim.schedule_at(SimTime(20), |s| push(s, "b"));
        sim.run();
        assert_eq!(sim.model().0, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn same_time_events_fire_fifo() {
        const NAMES: [&str; 4] = ["first", "second", "third", "fourth"];
        let mut sim = Sim::new(Log::default());
        fn push_nth(s: &mut Sim<Log>, i: usize) {
            s.model_mut().0.push((i as u64, NAMES[i]));
        }
        for i in 0..NAMES.len() {
            sim.schedule_at_with(SimTime(5), push_nth, i);
        }
        sim.run();
        let names: Vec<_> = sim.model().0.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, NAMES);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(Log::default());
        sim.schedule_at(SimTime(1), |s| {
            push(s, "outer");
            s.schedule_in(SimDuration(9), |s| push(s, "inner"));
        });
        sim.run();
        assert_eq!(sim.model().0, vec![(1, "outer"), (10, "inner")]);
    }

    #[test]
    fn schedule_now_runs_after_events_already_due() {
        let mut sim = Sim::new(Log::default());
        sim.schedule_at(SimTime::ZERO, |s| {
            s.schedule_now(|s| push(s, "late"));
            push(s, "early");
        });
        sim.schedule_at(SimTime::ZERO, |s| push(s, "mid"));
        sim.run();
        let names: Vec<_> = sim.model().0.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["early", "mid", "late"]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new(Log::default());
        let id = sim.schedule_at(SimTime(5), |s| s.model_mut().0.push((5, "cancelled")));
        sim.schedule_at(SimTime(6), |s| s.model_mut().0.push((6, "kept")));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run();
        assert_eq!(sim.model().0, vec![(6, "kept")]);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim = Sim::new(Log::default());
        assert!(!sim.cancel(EventId(42)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(Log::default());
        sim.schedule_at(SimTime(10), |s| {
            s.schedule_at(SimTime(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn periodic_self_rescheduling_pattern() {
        // A timer that re-arms itself five times.
        let count = Rc::new(RefCell::new(0u32));
        fn tick(s: &mut Sim<Rc<RefCell<u32>>>) {
            *s.model().borrow_mut() += 1;
            if *s.model().borrow() < 5 {
                s.schedule_in(SimDuration::from_millis(10), tick);
            }
        }
        let mut sim = Sim::new(Rc::clone(&count));
        sim.schedule_now(tick);
        sim.run();
        assert_eq!(*count.borrow(), 5);
        assert_eq!(sim.now(), SimTime(40_000_000));
    }

    #[test]
    fn heavy_cancellation_keeps_queue_bounded() {
        // Regression: cancelled events used to sit in the heap until they
        // popped, so schedule-then-cancel churn grew the queue without
        // bound over a long horizon.
        let mut sim = Sim::new(Log::default());
        sim.schedule_at(SimTime(2_000_000), |s| s.model_mut().0.push((0, "keeper")));
        let mut high_water = 0usize;
        for round in 0..100_000u64 {
            let id = sim.schedule_at(SimTime(1_000_000 + round), |_| {
                panic!("cancelled event fired");
            });
            assert!(sim.cancel(id));
            high_water = high_water.max(sim.heap.len());
        }
        assert!(
            high_water <= 8,
            "queue grew to {high_water} entries under schedule/cancel churn"
        );
        sim.run();
        assert_eq!(sim.model().0, vec![(0, "keeper")]);
    }

    #[test]
    fn compaction_preserves_survivors_and_order() {
        let mut sim = Sim::new(Log::default());
        // Interleave keepers with cancelled decoys so several compaction
        // passes run while keepers are in the heap.
        let mut decoys = Vec::new();
        for i in 0..50u64 {
            sim.schedule_at(SimTime(10 + i), |s| push(s, "keep"));
            for j in 0..10u64 {
                decoys.push(sim.schedule_at(SimTime(500 + i * 10 + j), |_| {
                    panic!("cancelled event fired");
                }));
            }
        }
        for id in decoys {
            assert!(sim.cancel(id));
        }
        sim.run();
        let times: Vec<u64> = sim.model().0.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, (10..60).collect::<Vec<_>>());
    }
}
