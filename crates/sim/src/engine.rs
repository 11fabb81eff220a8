//! Deterministic event queue and simulation run loop.
//!
//! The kernel is intentionally minimal: a calendar-queue future event
//! list (`calendar.rs`) with a FIFO tie-break sequence number (so
//! same-timestamp events execute in scheduling order, which keeps runs
//! bit-reproducible), and a [`Simulation`] driver that pops events and
//! hands them to the [`Model`].
//!
//! Beside the calendar sit up to [`LANES`] fixed-delay lanes, filled by
//! [`Scheduler::schedule_in`]: one FIFO ring per delay, opened by the
//! first push at that delay. The clock never runs backwards, so pushes at
//! `now + delay` for one fixed `delay` arrive in time order and a lane
//! needs no sorting: a push appends to its ring, and a pop takes the
//! smallest `(time, seq)` of the lane heads and one calendar search. A
//! delay that finds every lane taken goes on the calendar. Lanes and
//! calendar share one sequence counter, so the pop order is the exact
//! `(time, seq)` order wherever an event was queued. Both lane lookups are
//! branch-free over fixed arrays: a push compares its delay with every
//! open lane's at once, and a pop takes the minimum of the lane heads as
//! `u128` keys (time in the high word, sequence number in the low).

use std::collections::VecDeque;

use crate::calendar::{CalendarQueue, Head};
use crate::time::{Duration, Time};

/// The most fixed-delay lanes a scheduler opens; a push at any further
/// delay goes on the calendar. The router model uses five or six delays
/// (zero, the serialization time and a few link delays), the Baldur
/// model five to eight.
pub const LANES: usize = 8;

/// The head key of an empty or unopened lane: it sorts after every
/// queued event.
const NO_HEAD: u128 = u128::MAX;

/// `(at, seq)` as one key that sorts like the pair.
#[inline]
fn key(at: Time, seq: u64) -> u128 {
    (u128::from(at.as_ps()) << 64) | u128::from(seq)
}

/// The time half of a [`key`].
#[inline]
fn key_time(key: u128) -> Time {
    Time((key >> 64) as u64)
}

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
/// Backed by one calendar queue at every scale plus the fixed-delay
/// lanes; their bytes stay proportional to the pending events
/// ([`Scheduler::state_bytes`]).
pub struct Scheduler<E> {
    queue: CalendarQueue<E>,
    /// The events pushed at one fixed delay from the clock, in `(time,
    /// seq)` order: one ring per open lane, at most [`LANES`], in the
    /// order their delays were first pushed.
    lanes: Vec<VecDeque<(Time, u64, E)>>,
    /// The delay of each open lane in picoseconds; the entries from
    /// `lanes.len()` on belong to no lane and are never matched.
    delays: [u64; LANES],
    /// The [`key`] of each lane's head, [`NO_HEAD`] when it is empty or
    /// unopened: a pop compares these without touching the rings.
    heads: [u128; LANES],
    /// The calendar's head as its last search found it, kept while no
    /// calendar push or pop intervenes, so a pop that a lane wins costs
    /// no calendar search at all.
    calendar_head: Option<Head>,
    /// Events queued on the calendar and the lanes together.
    pending: usize,
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
            lanes: Vec::with_capacity(LANES),
            delays: [0; LANES],
            heads: [NO_HEAD; LANES],
            calendar_head: None,
            pending: 0,
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

    /// Number of events still pending (calendar and lanes).
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
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

    /// Always `true`: the calendar queue is the only backend (the lanes
    /// ride beside it, they do not replace it). Kept for readers of the
    /// old heap/calendar flag, such as the benchmark trace's
    /// `sim.calendar` metric.
    pub fn calendar_backed(&self) -> bool {
        true
    }

    /// The calendar's `(resizes, relinked)` counts: geometry changes so
    /// far and the events they re-linked into new buckets.
    pub fn calendar_resizes(&self) -> (u64, u64) {
        (self.queue.resizes(), self.queue.relinked())
    }

    /// Bytes the event list reserves (calendar slab, bucket table and the
    /// lanes' rings), by capacity.
    pub fn state_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<(Time, u64, E)>();
        let lanes: usize = self.lanes.iter().map(|ring| ring.capacity() * entry).sum();
        self.queue.state_bytes() + lanes as u64
    }

    /// Counts one push and its sequence number.
    #[inline]
    fn pushed(&mut self) {
        self.seq += 1;
        self.pending += 1;
        self.peak_pending = self.peak_pending.max(self.pending);
    }

    /// Schedules `event` at absolute instant `at`, on the calendar.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (strictly before the current time);
    /// causality violations are programming errors.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.calendar_head = None;
        self.queue.push(at, self.seq, event);
        self.pushed();
    }

    /// Schedules `event` after `delay` from the current time, on the lane
    /// for `delay`: the lane already open for it, else a new one while
    /// fewer than [`LANES`] are open, else the calendar. Each lane takes
    /// pushes in time order, so it gives the calendar's delivery order
    /// (time, then scheduling order) without its bucket walk.
    #[inline]
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        let at = self.now + delay;
        let lane = match self.find_lane(delay) {
            Some(i) => i,
            None if self.lanes.len() < LANES => {
                self.delays[self.lanes.len()] = delay.as_ps();
                self.lanes.push(VecDeque::new());
                self.lanes.len() - 1
            }
            None => return self.schedule_at(at, event),
        };
        let ring = &mut self.lanes[lane];
        if let Some(&(tail, _, _)) = ring.back() {
            assert!(at >= tail, "lane pushes must not go back in time");
        }
        if ring.len() == ring.capacity() {
            // Grow by half, like the calendar's slab, but in steps of at
            // least 1,024 entries: a 1K-node fabric's lane then never
            // reallocates, and a run of small reallocations fragments the
            // allocator's heap (at 16-entry steps it put 3 MB on a 20 MB
            // storm_1k peak RSS).
            ring.reserve_exact((ring.len() / 2).max(1024));
        }
        if ring.is_empty() {
            self.heads[lane] = key(at, self.seq);
        }
        ring.push_back((at, self.seq, event));
        self.pushed();
    }

    /// Schedules `event` at the current instant (after all events already
    /// queued for this instant), on the zero-delay lane.
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_in(Duration::ZERO, event);
    }

    /// The pending events of the lane for `delay`, next to pop first
    /// (none if no lane holds that delay). A model may read ahead through
    /// them, e.g. to load the state the next events touch.
    pub fn lane(&self, delay: Duration) -> impl Iterator<Item = &E> + '_ {
        self.find_lane(delay)
            .into_iter()
            .flat_map(|lane| self.lanes[lane].iter().map(|(_, _, event)| event))
    }

    /// The open lane for `delay`: every delay is compared at once, and the
    /// entries past the open lanes are masked off.
    #[inline]
    fn find_lane(&self, delay: Duration) -> Option<usize> {
        let mut hits = 0u32;
        for (i, &d) in self.delays.iter().enumerate() {
            hits |= u32::from(d == delay.as_ps()) << i;
        }
        hits &= (1u32 << self.lanes.len()) - 1;
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// The lane whose head pops first, with that head's [`key`]: a
    /// minimum over every slot of `heads`, selected without branches.
    #[inline]
    fn lane_head(&self) -> Option<(usize, u128)> {
        let (mut first, mut best) = (0, self.heads[0]);
        for (i, &head) in self.heads.iter().enumerate().skip(1) {
            let less = head < best;
            best = if less { head } else { best };
            first = if less { i } else { first };
        }
        (best != NO_HEAD).then_some((first, best))
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        let lane = self.lane_head().map(|(_, head)| key_time(head));
        let calendar = self.queue.peek().map(|(at, _)| at);
        lane.into_iter().chain(calendar).min()
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
    /// by `horizon`, in at most one calendar search (none while the
    /// calendar's head is known). Otherwise no event
    /// moves and the error says why: [`StopReason::Drained`] or
    /// [`StopReason::Horizon`].
    #[inline]
    fn pop_due(&mut self, horizon: Time) -> Result<(Time, u64, E), StopReason> {
        let calendar = match self.calendar_head {
            Some(head) => Some(head),
            None => self.queue.seek(),
        };
        self.calendar_head = calendar;
        let lane = self.lane_head();
        let popped = match calendar {
            Some(head) if lane.is_none_or(|(_, first)| key(head.at, head.seq) < first) => {
                if head.at > horizon {
                    Err(StopReason::Horizon)
                } else {
                    self.calendar_head = None;
                    self.queue.pop_head(head).ok_or(StopReason::Drained)
                }
            }
            _ => match lane {
                None => Err(StopReason::Drained),
                Some((_, first)) if key_time(first) > horizon => Err(StopReason::Horizon),
                Some((lane, _)) => {
                    let ring = &mut self.lanes[lane];
                    let popped = ring.pop_front().ok_or(StopReason::Drained);
                    self.heads[lane] = ring.front().map_or(NO_HEAD, |&(at, seq, _)| key(at, seq));
                    popped
                }
            },
        };
        let (at, seq, event) = popped?;
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                at >= self.now && self.last_pop < Some((at, seq)),
                "pops must follow (time, seq): times never decrease and \
                 same-time events pop in FIFO (scheduling) order"
            );
            self.last_pop = Some((at, seq));
        }
        self.pending -= 1;
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

    /// Runs until the event queue drains. Returns the final simulated time.
    pub fn run(&mut self) -> Time {
        self.run_until(Time::MAX, u64::MAX);
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
        // Ten doublings from 16 to 16,384 buckets, each re-linking one
        // more than twice the old count: 33 + 65 + ... + 16,385 events.
        assert_eq!(sched.calendar_resizes(), (10, 32_746));
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

        // The same precedence when the earliest event is on a lane, with a
        // later calendar event behind it.
        let lane_at = |lane: &[u64], calendar: u64| {
            let mut sim = sim_at(&[calendar]);
            for &t in lane {
                sim.scheduler_mut().schedule_in(Duration::from_ps(t), ());
            }
            sim
        };
        let mut past = lane_at(&[40], 50);
        assert_eq!(past.run_until(Time::from_ps(39), 0), StopReason::Horizon);
        let mut due = lane_at(&[40], 50);
        assert_eq!(due.run_until(Time::from_ps(40), 0), StopReason::Budget);
        for sim in [&past, &due] {
            assert_eq!(sim.scheduler().events_executed(), 0);
            assert_eq!(sim.scheduler().pending(), 2);
            assert_eq!(sim.scheduler().peek_time(), Some(Time::from_ps(40)));
        }
        let mut sim = lane_at(&[10, 20, 60], 30);
        assert_eq!(sim.run_until(Time::from_ps(20), 5), StopReason::Horizon);
        assert_eq!(sim.scheduler().events_executed(), 2);
        assert_eq!(sim.scheduler().now(), Time::from_ps(20));
        assert_eq!(sim.scheduler().peek_time(), Some(Time::from_ps(30)));
        assert_eq!(sim.run_until(Time::from_ps(59), 5), StopReason::Horizon);
        assert_eq!(sim.scheduler().peek_time(), Some(Time::from_ps(60)));
        assert_eq!(
            lane_at(&[1], 2).run_until(Time::MAX, 2),
            StopReason::Drained
        );
        let mut short = lane_at(&[1], 2);
        assert_eq!(short.run_until(Time::MAX, 1), StopReason::Budget);
        assert_eq!(short.scheduler().peek_time(), Some(Time::from_ps(2)));
    }

    #[test]
    fn lanes_and_calendar_pop_in_time_then_scheduling_order() {
        let mut sched = Scheduler::<&str>::new();
        let ps = Duration::from_ps;
        sched.schedule_in(ps(10), "lane 10");
        sched.schedule_at(Time::from_ps(10), "calendar 10");
        sched.schedule_at(Time::from_ps(5), "calendar 5");
        sched.schedule_in(ps(10), "lane 10 again");
        sched.schedule_in(ps(12), "lane 12");
        sched.schedule_in(ps(10), "lane 10 third");
        sched.schedule_now("now");
        let lane: Vec<&str> = sched.lane(ps(10)).copied().collect();
        assert_eq!(lane, ["lane 10", "lane 10 again", "lane 10 third"]);
        assert_eq!(sched.lane(ps(11)).count(), 0);
        assert_eq!((sched.pending(), sched.peak_pending()), (7, 7));
        let order: Vec<_> = std::iter::from_fn(|| sched.pop_scheduled())
            .map(|(at, seq, ev)| (at.as_ps(), seq, ev))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, 6, "now"),
                (5, 2, "calendar 5"),
                (10, 0, "lane 10"),
                (10, 1, "calendar 10"),
                (10, 3, "lane 10 again"),
                (10, 5, "lane 10 third"),
                (12, 4, "lane 12"),
            ]
        );
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn lane_ties_pop_in_scheduling_order_across_lanes() {
        // Three lanes whose pushes land on the same instants from
        // different clocks: ties resolve by scheduling order, not by lane.
        let mut sched = Scheduler::<u64>::new();
        let ps = Duration::from_ps;
        sched.schedule_in(ps(30), 0); // t = 30, lane 30
        sched.schedule_at(Time::from_ps(10), 1);
        sched.schedule_at(Time::from_ps(20), 2);
        assert_eq!(sched.pop_scheduled().map(|(at, _, _)| at.as_ps()), Some(10));
        sched.schedule_in(ps(20), 3); // t = 30, lane 20
        assert_eq!(sched.pop_scheduled().map(|(at, _, _)| at.as_ps()), Some(20));
        sched.schedule_in(ps(10), 4); // t = 30, lane 10
        sched.schedule_in(Duration::ZERO, 5); // t = 20, lane 0
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| sched.pop_scheduled())
            .map(|(at, seq, _)| (at.as_ps(), seq))
            .collect();
        assert_eq!(order, [(20, 5), (30, 0), (30, 3), (30, 4)]);
    }

    #[test]
    fn delays_past_the_lane_cap_go_on_the_calendar() {
        let mut sched = Scheduler::<u64>::new();
        // One more distinct delay than there are lanes, twice over, in
        // descending order so every delay's pushes interleave.
        let delays: Vec<u64> = (0..=LANES as u64).rev().collect();
        for round in 0..2 {
            for &d in &delays {
                sched.schedule_in(Duration::from_ps(d), round * 100 + d);
            }
        }
        assert_eq!(sched.lanes.len(), LANES);
        assert_eq!(sched.queue.len(), 2, "the last delay has no lane");
        assert_eq!(sched.pending(), 2 * delays.len());
        let lane_bytes = LANES * 1024 * std::mem::size_of::<(Time, u64, u64)>();
        assert_eq!(
            sched.state_bytes(),
            sched.queue.state_bytes() + lane_bytes as u64
        );
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| sched.pop_scheduled())
            .map(|(at, _, ev)| (at.as_ps(), ev))
            .collect();
        let mut expect: Vec<(u64, u64)> = (0..=LANES as u64)
            .flat_map(|d| [(d, d), (d, 100 + d)])
            .collect();
        expect.sort_unstable();
        assert_eq!(order, expect);
    }

    #[test]
    fn lanes_open_in_first_push_order_and_unopened_slots_match_nothing() {
        let mut sched = Scheduler::<u64>::new();
        let ps = Duration::from_ps;
        // Every unopened slot holds delay 0, and none of them is a lane.
        assert_eq!(sched.find_lane(Duration::ZERO), None);
        assert_eq!(sched.lane(Duration::ZERO).count(), 0);
        assert_eq!(sched.lane_head(), None);
        sched.schedule_in(ps(7), 0);
        sched.schedule_in(ps(3), 1);
        sched.schedule_now(2);
        sched.schedule_in(ps(7), 3);
        assert_eq!(sched.delays[..sched.lanes.len()], [7, 3, 0]);
        assert_eq!(
            [ps(7), ps(3), Duration::ZERO, ps(5)].map(|d| sched.find_lane(d)),
            [Some(0), Some(1), Some(2), None]
        );
        assert_eq!(sched.lane(ps(7)).copied().collect::<Vec<_>>(), [0, 3]);
        // The head of lane 2 (t = 0, seq 2) sorts first.
        assert_eq!(sched.lane_head(), Some((2, key(Time::ZERO, 2))));
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
