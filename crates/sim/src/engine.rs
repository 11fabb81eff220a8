//! Deterministic event queue and simulation run loop.
//!
//! The kernel is intentionally minimal: a calendar-queue future event
//! list (`calendar.rs`) with a FIFO tie-break sequence number (so
//! same-timestamp events execute in scheduling order, which keeps runs
//! bit-reproducible), and a [`Simulation`] driver that pops events and
//! hands them to the [`Model`].

use crate::calendar::CalendarQueue;
use crate::time::{Duration, Time};

/// A simulation model: owns all mutable world state and interprets events.
///
/// The model is driven by [`Simulation::run`]; each popped event is passed to
/// [`Model::handle`] together with the current simulated time and a
/// [`Scheduler`] for enqueueing future events.
pub trait Model {
    /// The event vocabulary of this model.
    type Event;

    /// Processes one event at simulated instant `now`.
    fn handle(&mut self, now: Time, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The future event list.
///
/// Events at the same timestamp are delivered in the order they were
/// scheduled, which makes simulations deterministic for a fixed seed.
/// Backed by one calendar queue at every scale; its bytes stay
/// proportional to the pending events ([`Scheduler::state_bytes`]).
pub struct Scheduler<E> {
    queue: CalendarQueue<E>,
    now: Time,
    seq: u64,
    executed: u64,
    /// Peak simultaneous pending events over the scheduler's lifetime.
    peak_pending: usize,
    /// `(time, seq)` of the last popped event, for the debug-build
    /// invariant checks (popped times never decrease; same-time pops obey
    /// FIFO order).
    #[cfg(debug_assertions)]
    last_pop: Option<(Time, u64)>,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            queue: CalendarQueue::new(),
            now: Time::ZERO,
            seq: 0,
            executed: 0,
            peak_pending: 0,
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// The current simulated time (the timestamp of the event being
    /// processed, or the last processed event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Peak simultaneous pending events over the scheduler's lifetime —
    /// the event-list high-water mark the `scaling` experiment reports.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Total events ever scheduled (the tie-break sequence counter).
    #[inline]
    pub fn events_scheduled(&self) -> u64 {
        self.seq
    }

    /// Always `true`: the calendar queue is the only backend. Kept for
    /// readers of the old heap/calendar flag, such as the benchmark trace's
    /// `sim.calendar` metric.
    pub fn calendar_backed(&self) -> bool {
        true
    }

    /// Bytes the event list reserves (calendar slab plus bucket table),
    /// by capacity.
    pub fn state_bytes(&self) -> u64 {
        self.queue.state_bytes()
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (strictly before the current time);
    /// causality violations are programming errors.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, self.seq, event);
        self.seq += 1;
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Schedules `event` after `delay` from the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at the current instant (after all events already
    /// queued for this instant).
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.queue.peek().map(|(at, _)| at)
    }

    /// Pops the next event, returning its timestamp, tie-break sequence
    /// number, and payload, and advancing the clock.
    ///
    /// Exposing the sequence number lets differential tests compare the
    /// *exact* delivery order against a reference priority queue rather
    /// than just the timestamps.
    pub fn pop_scheduled(&mut self) -> Option<(Time, u64, E)> {
        self.pop_due(Time::MAX).ok()
    }

    /// [`Scheduler::pop_scheduled`] for the next event only if it is due
    /// by `horizon`, in one calendar search. Otherwise nothing changes and
    /// the error says why: [`StopReason::Drained`] or
    /// [`StopReason::Horizon`].
    fn pop_due(&mut self, horizon: Time) -> Result<(Time, u64, E), StopReason> {
        let (at, seq, event) = self.queue.pop_due(horizon).map_err(|next| match next {
            None => StopReason::Drained,
            Some(_) => StopReason::Horizon,
        })?;
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                at >= self.now && self.last_pop < Some((at, seq)),
                "pops must follow (time, seq): times never decrease and \
                 same-time events pop in FIFO (scheduling) order"
            );
            self.last_pop = Some((at, seq));
        }
        self.now = at;
        self.executed += 1;
        Ok((at, seq, event))
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// Drives a [`Model`] until its event queue drains (or a horizon/budget is
/// reached).
pub struct Simulation<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
}

/// Why a call to [`Simulation::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The future event list drained.
    Drained,
    /// The time horizon was reached with events still pending.
    Horizon,
    /// The event-count budget was exhausted.
    Budget,
    /// The [`Simulation::run_until_observed`] observer asked to stop
    /// (e.g. a runtime oracle detected livelock — continuing would only
    /// spin to the horizon).
    Stopped,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation around `model` with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new(),
        }
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Shared access to the scheduler (e.g. to read the clock).
    pub fn scheduler(&self) -> &Scheduler<M::Event> {
        &self.sched
    }

    /// Exclusive access to the scheduler (e.g. to seed initial events).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Simultaneous exclusive access to model and scheduler, for
    /// initialization code that must call model methods which themselves
    /// schedule events.
    pub fn split(&mut self) -> (&mut M, &mut Scheduler<M::Event>) {
        (&mut self.model, &mut self.sched)
    }

    /// Executes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop_scheduled() {
            Some((now, _, ev)) => {
                self.model.handle(now, ev, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains. Returns the final simulated time.
    pub fn run(&mut self) -> Time {
        while self.step() {}
        self.sched.now()
    }

    /// Runs until the queue drains, `horizon` is passed, or `max_events`
    /// events have executed in this call.
    pub fn run_until(&mut self, horizon: Time, max_events: u64) -> StopReason {
        self.run_until_observed(horizon, max_events, u64::MAX, |_, _| true)
    }

    /// [`Simulation::run_until`] with a periodic observation hook: after
    /// every `every` events executed in this call, `observe` sees the
    /// model and the clock. Returning `false` stops the run
    /// ([`StopReason::Stopped`]).
    ///
    /// This is how release-mode runtime oracles (stuck-flow watermarks,
    /// invariant sweeps) get scheduled without an event-queue presence:
    /// the cadence is in executed events, not simulated time, so the
    /// hook is deterministic — the same run observes at the same points
    /// regardless of wall clock or thread count.
    pub fn run_until_observed(
        &mut self,
        horizon: Time,
        max_events: u64,
        every: u64,
        mut observe: impl FnMut(&mut M, Time) -> bool,
    ) -> StopReason {
        let mut budget = max_events;
        let every = every.max(1);
        let mut until_observe = every;
        loop {
            // A drained queue or a horizon outranks a spent budget.
            if budget == 0 {
                return match self.sched.peek_time() {
                    None => StopReason::Drained,
                    Some(t) if t > horizon => StopReason::Horizon,
                    Some(_) => StopReason::Budget,
                };
            }
            let (now, _, ev) = match self.sched.pop_due(horizon) {
                Ok(popped) => popped,
                Err(stop) => return stop,
            };
            budget -= 1;
            self.model.handle(now, ev, &mut self.sched);
            until_observe -= 1;
            if until_observe == 0 {
                until_observe = every;
                if !observe(&mut self.model, self.sched.now()) {
                    return StopReason::Stopped;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: Time, ev: u32, sched: &mut Scheduler<u32>) {
            self.log.push((now.as_ps(), ev));
            if ev == 1 {
                // Fan out two same-time events; FIFO order must hold.
                sched.schedule_now(10);
                sched.schedule_now(11);
                sched.schedule_in(Duration::from_ps(5), 2);
            }
        }
    }

    #[test]
    fn events_execute_in_time_then_fifo_order() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.scheduler_mut().schedule_at(Time::from_ps(100), 1);
        sim.run();
        assert_eq!(
            sim.model().log,
            vec![(100, 1), (100, 10), (100, 11), (105, 2)]
        );
    }

    #[test]
    fn run_until_respects_horizon() {
        struct Ticker;
        impl Model for Ticker {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), s: &mut Scheduler<()>) {
                s.schedule_in(Duration::from_ns(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker);
        sim.scheduler_mut().schedule_at(Time::ZERO, ());
        let r = sim.run_until(Time::from_ns(10), u64::MAX);
        assert_eq!(r, StopReason::Horizon);
        assert!(sim.scheduler().now() <= Time::from_ns(10));
        assert_eq!(sim.scheduler().events_executed(), 11); // t=0..=10ns
    }

    #[test]
    fn run_until_respects_budget() {
        struct Ticker;
        impl Model for Ticker {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), s: &mut Scheduler<()>) {
                s.schedule_in(Duration::from_ns(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker);
        sim.scheduler_mut().schedule_at(Time::ZERO, ());
        let r = sim.run_until(Time::MAX, 7);
        assert_eq!(r, StopReason::Budget);
        assert_eq!(sim.scheduler().events_executed(), 7);
    }

    #[test]
    fn observer_fires_on_cadence_and_can_stop() {
        struct Ticker;
        impl Model for Ticker {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), s: &mut Scheduler<()>) {
                s.schedule_in(Duration::from_ns(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker);
        sim.scheduler_mut().schedule_at(Time::ZERO, ());
        let mut seen: Vec<u64> = Vec::new();
        let r = sim.run_until_observed(Time::MAX, u64::MAX, 3, |_, now| {
            seen.push(now.as_ps());
            seen.len() < 2
        });
        assert_eq!(r, StopReason::Stopped);
        // Observed after events 3 and 6 (t = 2 ns and 5 ns: the first
        // event runs at t=0).
        assert_eq!(sim.scheduler().events_executed(), 6);
        assert_eq!(seen, vec![2_000, 5_000]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sched: Scheduler<()> = Scheduler::new();
        sched.schedule_at(Time::from_ns(5), ());
        // Force time forward.
        sched.pop_scheduled();
        sched.schedule_at(Time::from_ns(1), ());
    }

    #[test]
    fn counters_track_pushes_pops_and_the_pending_peak() {
        let mut sched = Scheduler::<u64>::new();
        let n = 17_384u64;
        // A colliding timestamp pattern so FIFO tie-breaks matter.
        for i in 0..n {
            sched.schedule_at(Time::from_ps((i * 7919) % 4_096), i);
        }
        assert!(sched.calendar_backed());
        assert_eq!(sched.peak_pending(), 17_384);
        let mut last = None;
        while let Some((at, seq, _)) = sched.pop_scheduled() {
            assert!(last < Some((at, seq)), "pop order regressed");
            last = Some((at, seq));
        }
        assert_eq!(sched.events_executed(), n);
        assert_eq!(sched.pending(), 0);
        assert_eq!(sched.peak_pending(), 17_384, "the peak survives the drain");
        assert_eq!(sched.events_scheduled(), n);
    }

    #[test]
    fn stop_reasons_keep_their_precedence_under_any_budget() {
        struct Nop;
        impl Model for Nop {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), _s: &mut Scheduler<()>) {}
        }
        let sim_at = |times: &[u64]| {
            let mut sim = Simulation::new(Nop);
            for &t in times {
                sim.scheduler_mut().schedule_at(Time::from_ps(t), ());
            }
            sim
        };
        // A zero budget still reports an empty queue or a horizon first,
        // and executes nothing.
        assert_eq!(sim_at(&[]).run_until(Time::MAX, 0), StopReason::Drained);
        let mut past = sim_at(&[50]);
        assert_eq!(past.run_until(Time::from_ps(49), 0), StopReason::Horizon);
        let mut due = sim_at(&[50]);
        assert_eq!(due.run_until(Time::from_ps(50), 0), StopReason::Budget);
        for sim in [&past, &due] {
            assert_eq!(sim.scheduler().events_executed(), 0);
            assert_eq!(sim.scheduler().pending(), 1);
            assert_eq!(sim.scheduler().now(), Time::ZERO);
        }
        // An event exactly at the horizon runs; the next one, past it,
        // stays queued and the clock stays at the last executed event.
        let mut sim = sim_at(&[10, 20, 30]);
        assert_eq!(sim.run_until(Time::from_ps(20), 5), StopReason::Horizon);
        assert_eq!(sim.scheduler().events_executed(), 2);
        assert_eq!(sim.scheduler().pending(), 1);
        assert_eq!(sim.scheduler().now(), Time::from_ps(20));
        assert_eq!(sim.scheduler().peek_time(), Some(Time::from_ps(30)));
        // A budget spent on the last event reports the drain; one event
        // short of it reports the budget.
        assert_eq!(sim_at(&[1, 2]).run_until(Time::MAX, 2), StopReason::Drained);
        let mut short = sim_at(&[1, 2]);
        assert_eq!(short.run_until(Time::MAX, 1), StopReason::Budget);
        assert_eq!(short.scheduler().pending(), 1);
    }

    #[test]
    fn drained_queue_reports_drained() {
        struct Nop;
        impl Model for Nop {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), _s: &mut Scheduler<()>) {}
        }
        let mut sim = Simulation::new(Nop);
        sim.scheduler_mut().schedule_at(Time::ZERO, ());
        assert_eq!(sim.run_until(Time::MAX, u64::MAX), StopReason::Drained);
        assert_eq!(sim.scheduler().pending(), 0);
    }
}
