//! Always-on runtime invariant oracle for the network models.
//!
//! The oracle ships in **release** builds: O(1) incremental checkers on
//! the models' hot paths plus an O(state) drain audit, recording
//! structured [`OracleReport`]s instead of panicking. Debug builds add
//! `debug_assert!`s on top (scheduler pop order, and a drained run's
//! audit must record nothing), so a `cargo test` run fails loudly where
//! a release run only reports. In a release chaos run a violated
//! invariant is data — the chaos harness shrinks the fault plan around
//! it and prints a reproduction — so the oracle must never tear the
//! process down, and must itself be mechanically panic-free (it is
//! inside the `fault-path-panic` lint wall).
//!
//! Checkers (see DESIGN.md "Runtime oracle & chaos convergence" for the
//! cost budget):
//!
//! * **packet conservation ledger** — at drain, `generated ==
//!   delivered + abandoned` and no packet left `Pending`;
//! * **credit-balance accounting** — electrical models: credits never
//!   exceed the VC cap, and at drain every credit counter is back to the
//!   cap (a leak means repair did not restore state exactly);
//! * **bounded-queue growth** — an input queue deeper than the credit
//!   cap means flow control is broken;
//! * **stuck-flow / livelock** — a progress watermark (last delivery or
//!   abandonment) that falls more than [`OracleConfig::stall_ps`] behind
//!   the clock while work is still outstanding.
//!
//! Violations carry the violation kind, the simulation time, the recent
//! event window (a fixed ring of model events), and the fault-epoch
//! index, and are routed through `core::error` (`BaldurError::Oracle`)
//! by the chaos experiment.

use baldur_sim::Time;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Capacity of the recent-event ring carried into a report.
const TRACE_WINDOW: usize = 32;

/// Tuning knobs for the oracle. Not part of `RunConfig` (and therefore
/// not part of any sweep cache key): the oracle observes a run, it does
/// not define one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Maximum silent gap (ps) between progress events while work is
    /// outstanding before the stuck-flow detector fires. The default is
    /// far above any legitimate backoff gap (the capped BEB timeout is
    /// ~256 µs with paper parameters) so it only fires on genuine
    /// livelock.
    pub stall_ps: u64,
    /// Reports kept verbatim; further violations only bump
    /// [`OracleSummary::suppressed`].
    pub max_reports: usize,
    /// Consecutive *fair-share rounds* a flow may make zero progress —
    /// while it has work outstanding and *other* flows deliver — before
    /// the starvation watermark fires. An observation window only counts
    /// as a round when the network delivered at least one packet per
    /// contending flow in it, so the budget is denominated in missed
    /// fair shares, not wall-clock windows, and is invariant to both the
    /// oracle-tick cadence and the contention level. 0 disables the
    /// checker.
    pub starvation_windows: u32,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            // 50 ms of simulated silence with work outstanding.
            stall_ps: 50_000_000_000,
            max_reports: 8,
            starvation_windows: 16,
        }
    }
}

/// One invariant violation, as structured data (integers and strings
/// only, so reports are `Eq` and can ride inside the `core::error`
/// taxonomy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// The drain-time packet ledger does not balance.
    Conservation {
        /// Packets the workload generated.
        generated: u64,
        /// Packets delivered.
        delivered: u64,
        /// Packets abandoned after the retry budget.
        abandoned: u64,
        /// Packets still `Pending` at drain (should be zero).
        stranded: u64,
    },
    /// A monotone counter would have gone negative (the decrement is
    /// skipped and reported instead of wrapping).
    CounterUnderflow {
        /// Which counter.
        counter: String,
    },
    /// State that must be empty at drain was not.
    ResidualState {
        /// What was left over (e.g. `"ack_refs"`, `"nic_queue"`).
        what: String,
        /// How much of it.
        count: u64,
    },
    /// A credit counter exceeded the VC cap (the increment is capped and
    /// reported).
    CreditOverflow {
        /// Router index (`u32::MAX` = a NIC).
        router: u32,
        /// Port/VC slot index.
        port: u32,
        /// The counter value before the offending increment.
        credits: u32,
        /// The VC cap.
        cap: u32,
    },
    /// A credit counter was below the cap at drain — credits leaked,
    /// i.e. a fault/repair cycle failed to restore flow-control state.
    CreditLeak {
        /// `"router"` or `"nic"`.
        element: String,
        /// Element index.
        index: u32,
        /// Port/VC slot index.
        port: u32,
        /// The counter value at drain.
        credits: u32,
        /// The VC cap it should have returned to.
        cap: u32,
    },
    /// An input queue grew past the credit cap: flow control is broken.
    QueueOverflow {
        /// Router index.
        router: u32,
        /// Queue slot index.
        queue: u32,
        /// Queue depth after the offending push.
        len: u64,
        /// The bound (VC cap).
        bound: u64,
    },
    /// No progress (delivery or abandonment) for longer than the stall
    /// budget while work was still outstanding.
    StuckFlow {
        /// Picoseconds since the progress watermark.
        idle_ps: u64,
        /// Work items outstanding when the detector fired.
        outstanding: u64,
    },
    /// One flow made zero delivery progress for
    /// [`OracleConfig::starvation_windows`] consecutive fair-share
    /// rounds — windows in which the network delivered at least one
    /// packet per contending flow — while it had work outstanding:
    /// per-flow starvation, not a global stall and not fair-share
    /// queueing under contention.
    Starvation {
        /// The starved source node / flow index.
        flow: u32,
        /// Consecutive zero-progress fair-share rounds observed.
        windows: u32,
        /// The flow's outstanding work when the watermark fired.
        outstanding: u64,
    },
    /// A bounded ingress queue was observed deeper than its configured
    /// cap: the admission-control drop policy is not being enforced.
    OccupancyBound {
        /// The node whose ingress queue overflowed.
        node: u32,
        /// Observed queue depth.
        len: u64,
        /// The configured cap it must stay within.
        bound: u64,
    },
}

/// One entry of the recent-event window attached to a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Event time, ps.
    pub at_ps: u64,
    /// Event tag (e.g. `"inject"`, `"drop"`, `"deliver"`, `"fault"`).
    pub what: String,
    /// First event operand (model-specific: packet id, router, …).
    pub a: u64,
    /// Second event operand.
    pub b: u64,
}

/// A structured invariant-violation report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleReport {
    /// What went wrong.
    pub violation: Violation,
    /// When, on the simulation clock (ps).
    pub at_ps: u64,
    /// The fault epoch containing `at_ps` (0 when the run had no fault
    /// plan).
    pub epoch: u32,
    /// The most recent model events before the violation, oldest first.
    pub trace: Vec<TraceEntry>,
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "oracle violation at {} ps (fault epoch {}): {:?} [{} trace events]",
            self.at_ps,
            self.epoch,
            self.violation,
            self.trace.len()
        )
    }
}

/// What a run's oracle observed, attached to every
/// [`crate::metrics::LatencyReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Violations, in detection order (capped at
    /// [`OracleConfig::max_reports`]).
    pub reports: Vec<OracleReport>,
    /// Violations beyond the cap, counted but not kept.
    pub suppressed: u64,
}

impl OracleSummary {
    /// True when the run violated nothing.
    pub fn is_clean(&self) -> bool {
        self.reports.is_empty() && self.suppressed == 0
    }

    /// Total violations observed (kept + suppressed).
    pub fn total(&self) -> u64 {
        self.reports.len() as u64 + self.suppressed
    }
}

/// The live oracle a network model owns. All hot-path operations are
/// O(1) and allocation-free (the trace ring holds `&'static str` tags;
/// strings are materialized only when a violation is recorded), and the
/// periodic starvation tick touches only flows that changed since the
/// previous tick plus the flows it fires on.
#[derive(Debug, Clone)]
pub struct Oracle {
    cfg: OracleConfig,
    boundaries: Vec<u64>,
    ring: Vec<(u64, &'static str, u64, u64)>,
    pos: usize,
    reports: Vec<OracleReport>,
    suppressed: u64,
    last_progress_ps: u64,
    stall_latched: bool,
    /// Per-flow watermark state, indexed by source node; grows on the
    /// first transition a flow reports.
    flows: Vec<FlowWatch>,
    /// Flows whose delivered or outstanding count changed since the last
    /// tick (each at most once: see [`FlowWatch::dirty`]).
    dirty: Vec<u32>,
    /// Armed contending flows as `(flow, reset_round)`, oldest stamp
    /// first. An entry is live while its flow is still armed with that
    /// stamp; stale entries are skipped when they reach the front, or
    /// dropped by compaction.
    armed: VecDeque<(u32, u64)>,
    /// Fair-share rounds observed so far.
    fair_rounds: u64,
    /// Deliveries since the last tick.
    delivered_since_tick: u64,
    /// Flows with outstanding work right now.
    contenders: u64,
    /// Outstanding work summed over all flows.
    outstanding_total: u64,
    /// The delivered counts of the last snapshot the slice adapter saw.
    #[cfg(test)]
    snapshot_delivered: Vec<u64>,
}

/// `FlowWatch::queued` of a flow with no [`Oracle::armed`] entry yet.
const NOT_QUEUED: u64 = u64::MAX;

/// Per-flow starvation-watermark state.
///
/// A flow's consecutive zero-progress fair-share rounds are
/// `fair_rounds - reset_round` while it contends, so a tick never has to
/// touch a flow that did not change.
#[derive(Debug, Clone, Copy)]
struct FlowWatch {
    /// Work items the flow has outstanding right now.
    outstanding: u64,
    /// The fair round at the flow's last reset (a delivery, or an
    /// observation with nothing outstanding).
    reset_round: u64,
    /// The stamp of the flow's newest entry in [`Oracle::armed`].
    queued: u64,
    /// Delivered at least once since the last tick.
    delivered: bool,
    /// On the dirty list.
    dirty: bool,
    /// Had work outstanding at the last tick that observed it. A flow
    /// off the dirty list has not changed, so this also holds at every
    /// tick since.
    contending: bool,
    /// Fired already; re-arms on the flow's next delivery.
    latched: bool,
}

impl Default for FlowWatch {
    fn default() -> Self {
        FlowWatch {
            outstanding: 0,
            reset_round: 0,
            queued: NOT_QUEUED,
            delivered: false,
            dirty: false,
            contending: false,
            latched: false,
        }
    }
}

impl FlowWatch {
    /// Armed and contending: a candidate for the next crossing.
    fn is_armed(&self) -> bool {
        self.contending && !self.latched
    }
}

impl Oracle {
    /// A fresh oracle with no fault-epoch context.
    pub fn new(cfg: OracleConfig) -> Self {
        Oracle {
            cfg,
            boundaries: Vec::new(),
            ring: Vec::with_capacity(TRACE_WINDOW),
            pos: 0,
            reports: Vec::new(),
            suppressed: 0,
            last_progress_ps: 0,
            stall_latched: false,
            flows: Vec::new(),
            dirty: Vec::new(),
            armed: VecDeque::new(),
            fair_rounds: 0,
            delivered_since_tick: 0,
            contenders: 0,
            outstanding_total: 0,
            #[cfg(test)]
            snapshot_delivered: Vec::new(),
        }
    }

    /// Supplies the fault-epoch boundaries (ascending, ps) reports are
    /// annotated with.
    pub fn set_boundaries(&mut self, boundaries_ps: Vec<u64>) {
        self.boundaries = boundaries_ps;
    }

    /// Records one model event into the recent-event ring.
    #[inline]
    pub fn note(&mut self, at_ps: u64, what: &'static str, a: u64, b: u64) {
        if self.ring.len() < TRACE_WINDOW {
            self.ring.push((at_ps, what, a, b));
            self.pos = self.ring.len() % TRACE_WINDOW;
        } else {
            if let Some(slot) = self.ring.get_mut(self.pos) {
                *slot = (at_ps, what, a, b);
            }
            self.pos = (self.pos + 1) % TRACE_WINDOW;
        }
    }

    /// Advances the progress watermark (a delivery or abandonment
    /// happened at `at_ps`).
    #[inline]
    pub fn progress(&mut self, at_ps: u64) {
        self.last_progress_ps = self.last_progress_ps.max(at_ps);
        self.stall_latched = false;
    }

    /// Records a violation with the current trace window and epoch
    /// context. Never panics, never stops the run.
    pub fn record(&mut self, at_ps: u64, violation: Violation) {
        if self.reports.len() >= self.cfg.max_reports {
            self.suppressed += 1;
            return;
        }
        let epoch = Time::from_ps(at_ps).epoch_index(&self.boundaries) as u32;
        self.reports.push(OracleReport {
            violation,
            at_ps,
            epoch,
            trace: self.trace_window(),
        });
    }

    /// The stuck-flow check: with `outstanding > 0` work items and no
    /// progress for more than the stall budget, fires once (re-arms on
    /// the next progress event). Returns true when it fired — callers
    /// may abort the run early, since a livelocked model would otherwise
    /// spin to the horizon.
    pub fn check_stall(&mut self, now_ps: u64, outstanding: u64) -> bool {
        if self.stall_latched || outstanding == 0 {
            return false;
        }
        let idle = now_ps.saturating_sub(self.last_progress_ps);
        if idle <= self.cfg.stall_ps {
            return false;
        }
        self.stall_latched = true;
        self.record(
            now_ps,
            Violation::StuckFlow {
                idle_ps: idle,
                outstanding,
            },
        );
        true
    }

    /// The flow's watch entry, marked dirty; the table grows to cover
    /// `flow` on its first transition.
    fn touch(&mut self, flow: u32) -> Option<&mut FlowWatch> {
        let idx = flow as usize;
        if idx >= self.flows.len() {
            self.flows.resize(idx + 1, FlowWatch::default());
        }
        let w = self.flows.get_mut(idx)?;
        if !w.dirty {
            w.dirty = true;
            self.dirty.push(flow);
        }
        Some(w)
    }

    /// One more work item outstanding for `flow` (a packet admitted).
    #[inline]
    pub fn flow_opened(&mut self, flow: u32) {
        let Some(w) = self.touch(flow) else { return };
        w.outstanding += 1;
        let first = w.outstanding == 1;
        self.outstanding_total += 1;
        self.contenders += u64::from(first);
    }

    /// One work item of `flow` reached a terminal outcome or released
    /// its buffer slot. Saturates at zero, like the models' counters.
    #[inline]
    pub fn flow_closed(&mut self, flow: u32) {
        let Some(w) = self.touch(flow) else { return };
        if w.outstanding == 0 {
            return;
        }
        w.outstanding -= 1;
        let last = w.outstanding == 0;
        self.outstanding_total -= 1;
        self.contenders -= u64::from(last);
    }

    /// `flow` delivered one packet.
    #[inline]
    pub fn flow_delivered(&mut self, flow: u32) {
        let Some(w) = self.touch(flow) else { return };
        w.delivered = true;
        self.delivered_since_tick += 1;
    }

    /// Outstanding work summed over every flow's
    /// [`Oracle::flow_opened`]/[`Oracle::flow_closed`] transitions.
    pub fn outstanding_total(&self) -> u64 {
        self.outstanding_total
    }

    /// The per-flow starvation watermark. Call once per observation
    /// window (the models' oracle-tick cadence); flows report their
    /// deliveries and outstanding work through [`Oracle::flow_opened`],
    /// [`Oracle::flow_closed`] and [`Oracle::flow_delivered`] as they
    /// happen. A flow that makes zero progress for
    /// [`OracleConfig::starvation_windows`] consecutive *fair-share
    /// rounds* — while it has work outstanding at each observation —
    /// records a [`Violation::Starvation`] once, re-arming on the flow's
    /// next delivery. A window counts as a round only when the network
    /// delivered at least one packet per flow that had work outstanding:
    /// under heavy contention (an incast sink shared by hundreds of
    /// senders) a flow legitimately waits many windows for its fair
    /// share, and that wait must not read as starvation at one topology
    /// scale and not another. A globally stalled network is *not*
    /// starvation either (that is [`Oracle::check_stall`]'s job), so
    /// windows without global progress also leave the counters
    /// untouched.
    ///
    /// Cost is O(changed flows + fired flows): a flow's stall count is
    /// the fair rounds since its stamp, and armed flows wait in stamp
    /// order, so crossings are found at the front of that queue.
    pub fn starvation_tick(&mut self, now_ps: u64) {
        let fair_round = self.delivered_since_tick >= self.contenders.max(1);
        self.delivered_since_tick = 0;
        let before = self.fair_rounds;
        self.fair_rounds += u64::from(fair_round);
        let now_round = self.fair_rounds;
        for &flow in &self.dirty {
            let Some(w) = self.flows.get_mut(flow as usize) else {
                continue;
            };
            w.dirty = false;
            if w.delivered {
                w.delivered = false;
                w.latched = false;
                w.reset_round = now_round;
            } else if w.outstanding == 0 {
                w.reset_round = now_round;
            } else if !w.contending {
                // Idle at the previous observation, so reset then.
                w.reset_round = before;
            }
            w.contending = w.outstanding > 0;
            if w.is_armed() && w.queued != w.reset_round {
                w.queued = w.reset_round;
                if w.reset_round == before {
                    self.armed.push_back((flow, before));
                }
            }
        }
        // Flows stamped with this tick's new round queue behind every
        // older stamp, so the queue stays in stamp order.
        if fair_round {
            for &flow in &self.dirty {
                if self
                    .flows
                    .get(flow as usize)
                    .is_some_and(|w| w.queued == now_round)
                {
                    self.armed.push_back((flow, now_round));
                }
            }
        }
        self.dirty.clear();
        // Stamps never decrease, so only a flow's newest entry can ever
        // be live again; keeping just those when the queue reaches twice
        // the table size bounds it at O(flows), amortized O(1) per push.
        if self.armed.len() > 2 * self.flows.len() {
            let flows = &self.flows;
            self.armed.retain(|&(flow, stamp)| {
                flows.get(flow as usize).is_some_and(|w| w.queued == stamp)
            });
        }
        let windows = self.cfg.starvation_windows;
        if windows == 0 || !fair_round {
            return;
        }
        // Stall counts move only on fair rounds, by one, so every
        // crossing is found the round it happens, at exactly `windows`.
        let mut fired: Vec<(u32, u64)> = Vec::new();
        while let Some(&(flow, stamp)) = self.armed.front() {
            if now_round - stamp < u64::from(windows) {
                break;
            }
            self.armed.pop_front();
            let Some(w) = self.flows.get_mut(flow as usize) else {
                continue;
            };
            if w.is_armed() && w.reset_round == stamp {
                w.latched = true;
                fired.push((flow, w.outstanding));
            }
        }
        fired.sort_unstable();
        for (flow, outstanding) in fired {
            self.record(
                now_ps,
                Violation::Starvation {
                    flow,
                    windows,
                    outstanding,
                },
            );
        }
    }

    /// Test adapter for snapshot-style callers: turns each flow's change
    /// since the previous snapshot into transitions, then ticks.
    #[cfg(test)]
    pub(crate) fn check_starvation(
        &mut self,
        now_ps: u64,
        flow_delivered: &[u64],
        flow_outstanding: &[u64],
    ) {
        let tracked = flow_delivered.len().max(flow_outstanding.len());
        if self.snapshot_delivered.len() < tracked {
            self.snapshot_delivered.resize(tracked, 0);
        }
        for i in 0..tracked {
            let flow = i as u32;
            let d = flow_delivered.get(i).copied().unwrap_or(0);
            let prev = self.snapshot_delivered.get(i).copied().unwrap_or(0);
            for _ in prev..d {
                self.flow_delivered(flow);
            }
            if let Some(slot) = self.snapshot_delivered.get_mut(i) {
                *slot = d;
            }
            let o = flow_outstanding.get(i).copied().unwrap_or(0);
            let cur = self.flows.get(i).map_or(0, |w| w.outstanding);
            for _ in cur..o {
                self.flow_opened(flow);
            }
            for _ in o..cur {
                self.flow_closed(flow);
            }
        }
        self.starvation_tick(now_ps);
    }

    /// The bounded-queue occupancy checker: records a violation when an
    /// ingress queue is observed deeper than its cap (`bound == 0`
    /// means unbounded / unchecked).
    pub fn check_occupancy(&mut self, at_ps: u64, node: u32, len: u64, bound: u64) {
        if bound == 0 || len <= bound {
            return;
        }
        self.record(at_ps, Violation::OccupancyBound { node, len, bound });
    }

    /// True when nothing has been reported.
    pub fn is_clean(&self) -> bool {
        self.reports.is_empty() && self.suppressed == 0
    }

    /// Violations recorded so far (kept + suppressed).
    pub fn total(&self) -> u64 {
        self.reports.len() as u64 + self.suppressed
    }

    /// Snapshot of everything observed so far.
    pub fn summary(&self) -> OracleSummary {
        OracleSummary {
            reports: self.reports.clone(),
            suppressed: self.suppressed,
        }
    }

    fn trace_window(&self) -> Vec<TraceEntry> {
        let entry = |&(at_ps, what, a, b): &(u64, &'static str, u64, u64)| TraceEntry {
            at_ps,
            what: what.to_string(),
            a,
            b,
        };
        if self.ring.len() < TRACE_WINDOW {
            self.ring.iter().map(entry).collect()
        } else {
            // Oldest-first: the slot at `pos` is the next to be
            // overwritten, i.e. the oldest.
            let (newer, older) = self.ring.split_at(self.pos.min(self.ring.len()));
            older.iter().chain(newer.iter()).map(entry).collect()
        }
    }
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new(OracleConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baldur_sim::rng::StreamRng;

    #[test]
    fn clean_oracle_reports_nothing() {
        let mut o = Oracle::default();
        o.note(10, "inject", 1, 0);
        o.progress(20);
        assert!(o.is_clean());
        assert!(o.summary().is_clean());
        assert_eq!(o.summary().total(), 0);
    }

    #[test]
    fn records_carry_trace_epoch_and_cap() {
        let mut o = Oracle::new(OracleConfig {
            stall_ps: 1,
            max_reports: 2,
            ..OracleConfig::default()
        });
        o.set_boundaries(vec![1_000, 2_000]);
        for i in 0..40u64 {
            o.note(i, "ev", i, 0);
        }
        o.record(
            1_500,
            Violation::CounterUnderflow {
                counter: "in_flight".into(),
            },
        );
        let s = o.summary();
        assert_eq!(s.reports.len(), 1);
        let r = &s.reports[0];
        assert_eq!(r.epoch, 1, "1_500 is between the boundaries");
        assert_eq!(r.trace.len(), TRACE_WINDOW);
        // Oldest-first window over the last 32 of 40 notes.
        assert_eq!(r.trace[0].at_ps, 8);
        assert_eq!(r.trace[31].at_ps, 39);
        // The cap suppresses, never drops silently.
        o.record(
            1_600,
            Violation::CounterUnderflow {
                counter: "x".into(),
            },
        );
        o.record(
            1_700,
            Violation::CounterUnderflow {
                counter: "y".into(),
            },
        );
        let s = o.summary();
        assert_eq!(s.reports.len(), 2);
        assert_eq!(s.suppressed, 1);
        assert_eq!(s.total(), 3);
        assert!(!s.is_clean());
        assert!(s.reports[0].to_string().contains("fault epoch 1"));
    }

    #[test]
    fn starvation_fires_only_when_others_progress() {
        let mut o = Oracle::new(OracleConfig {
            starvation_windows: 3,
            ..OracleConfig::default()
        });
        // Flow 1 is stuck with outstanding work while flow 0 delivers.
        let outstanding = [0u64, 5];
        let mut delivered = [0u64, 0];
        for tick in 1..=2u64 {
            delivered[0] = tick;
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        assert!(o.is_clean(), "two stalled windows are under the budget");
        delivered[0] = 3;
        o.check_starvation(3_000, &delivered, &outstanding);
        let s = o.summary();
        assert_eq!(s.reports.len(), 1, "third window fires");
        match &s.reports[0].violation {
            Violation::Starvation {
                flow,
                windows,
                outstanding,
            } => {
                assert_eq!(*flow, 1);
                assert_eq!(*windows, 3);
                assert_eq!(*outstanding, 5);
            }
            other => panic!("wrong violation: {other:?}"),
        }
        // Latched: more stalled windows don't re-fire...
        delivered[0] = 4;
        o.check_starvation(4_000, &delivered, &outstanding);
        assert_eq!(o.summary().total(), 1);
        // ...until the starved flow finally delivers, which re-arms it.
        delivered[1] = 1;
        o.check_starvation(5_000, &delivered, &outstanding);
        for tick in 6..=8u64 {
            delivered[0] += 1;
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        assert_eq!(o.summary().total(), 2, "re-armed after progress");
    }

    #[test]
    fn fair_share_waiting_is_not_starvation() {
        let mut o = Oracle::new(OracleConfig {
            starvation_windows: 2,
            ..OracleConfig::default()
        });
        // Three contenders share a slow sink: one delivery per window is
        // less than one fair-share round, so no window counts against
        // flow 2 no matter how many pass.
        let outstanding = [5u64, 5, 5];
        let mut delivered = [0u64, 0, 0];
        for tick in 1..=20u64 {
            delivered[(tick % 2) as usize] += 1;
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        assert!(o.is_clean(), "fair-share waiting under contention");
        // When the sink serves a full round per window and flow 2 still
        // gets nothing, that IS starvation.
        for tick in 21..=22u64 {
            delivered[0] += 2;
            delivered[1] += 1;
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        let s = o.summary();
        assert_eq!(s.reports.len(), 1);
        match &s.reports[0].violation {
            Violation::Starvation {
                flow, outstanding, ..
            } => {
                assert_eq!(*flow, 2);
                assert_eq!(*outstanding, 5);
            }
            other => panic!("wrong violation: {other:?}"),
        }
    }

    #[test]
    fn global_stall_is_not_starvation() {
        let mut o = Oracle::new(OracleConfig {
            starvation_windows: 2,
            ..OracleConfig::default()
        });
        // Nobody delivers: every flow is stuck, so no flow is starved.
        let outstanding = [4u64, 4];
        let delivered = [1u64, 1];
        o.check_starvation(1_000, &delivered, &outstanding);
        for tick in 2..=10u64 {
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        assert!(o.is_clean());
        // A flow with no outstanding work is idle, not starved.
        let outstanding = [0u64, 4];
        let mut d = delivered;
        for tick in 11..=20u64 {
            d[1] += 1;
            o.check_starvation(tick * 1_000, &d, &outstanding);
        }
        assert!(o.is_clean());
    }

    #[test]
    fn occupancy_bound_checks_only_bounded_queues() {
        let mut o = Oracle::default();
        o.check_occupancy(100, 3, 1_000, 0);
        assert!(o.is_clean(), "bound 0 = unbounded, never flagged");
        o.check_occupancy(100, 3, 8, 8);
        assert!(o.is_clean(), "at the cap is within bounds");
        o.check_occupancy(200, 3, 9, 8);
        let s = o.summary();
        assert_eq!(s.reports.len(), 1);
        assert_eq!(
            s.reports[0].violation,
            Violation::OccupancyBound {
                node: 3,
                len: 9,
                bound: 8
            }
        );
    }

    #[test]
    fn stall_fires_once_and_rearms_on_progress() {
        let mut o = Oracle::new(OracleConfig {
            stall_ps: 100,
            max_reports: 8,
            ..OracleConfig::default()
        });
        o.progress(50);
        assert!(!o.check_stall(100, 3), "within budget");
        assert!(!o.check_stall(100, 0), "no outstanding work, no stall");
        assert!(o.check_stall(200, 3), "101 ps silent > 100 ps budget");
        assert!(!o.check_stall(300, 3), "latched until progress");
        o.progress(300);
        assert!(o.check_stall(500, 1), "re-armed");
        assert_eq!(o.summary().reports.len(), 2);
        match &o.summary().reports[0].violation {
            Violation::StuckFlow {
                idle_ps,
                outstanding,
            } => {
                assert_eq!(*idle_ps, 150);
                assert_eq!(*outstanding, 3);
            }
            other => panic!("wrong violation: {other:?}"),
        }
    }

    /// The slice-scanning starvation checker the incremental tick
    /// replaced, kept as the reference it must match: every tick it sums
    /// all delivered counts, counts contenders and walks every flow.
    struct ScanReference {
        oracle: Oracle,
        flows: Vec<ScanWatch>,
        starve_total: u64,
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct ScanWatch {
        last: u64,
        stalled: u32,
        latched: bool,
    }

    impl ScanReference {
        fn new(cfg: OracleConfig) -> Self {
            ScanReference {
                oracle: Oracle::new(cfg),
                flows: Vec::new(),
                starve_total: 0,
            }
        }

        fn check_starvation(
            &mut self,
            now_ps: u64,
            flow_delivered: &[u64],
            flow_outstanding: &[u64],
        ) {
            let windows = self.oracle.cfg.starvation_windows;
            if windows == 0 {
                return;
            }
            let total: u64 = flow_delivered.iter().sum();
            let delta = total.saturating_sub(self.starve_total);
            self.starve_total = total;
            let contenders = flow_outstanding.iter().filter(|&&o| o > 0).count() as u64;
            let fair_round = delta >= contenders.max(1);
            let tracked = flow_delivered.len().max(flow_outstanding.len());
            if self.flows.len() < tracked {
                self.flows.resize(tracked, ScanWatch::default());
            }
            let mut fired: Vec<(u32, u32, u64)> = Vec::new();
            for (i, w) in self.flows.iter_mut().enumerate() {
                let d = flow_delivered.get(i).copied().unwrap_or(0);
                let outstanding = flow_outstanding.get(i).copied().unwrap_or(0);
                if d > w.last {
                    w.last = d;
                    w.stalled = 0;
                    w.latched = false;
                } else if outstanding == 0 {
                    w.stalled = 0;
                } else if fair_round {
                    w.stalled = w.stalled.saturating_add(1);
                    if w.stalled >= windows && !w.latched {
                        w.latched = true;
                        fired.push((i as u32, w.stalled, outstanding));
                    }
                }
            }
            for (flow, stalled, outstanding) in fired {
                self.oracle.record(
                    now_ps,
                    Violation::Starvation {
                        flow,
                        windows: stalled,
                        outstanding,
                    },
                );
            }
        }
    }

    /// The incremental oracle and the reference scan, fed the same flow
    /// transitions; every tick must leave both with the same summary.
    struct Twin {
        inc: Oracle,
        reference: ScanReference,
        delivered: Vec<u64>,
        outstanding: Vec<u64>,
    }

    impl Twin {
        fn new(cfg: OracleConfig, flows: usize) -> Self {
            let mut inc = Oracle::new(cfg);
            inc.set_boundaries(vec![20_000, 40_000]);
            let mut reference = ScanReference::new(cfg);
            reference.oracle.set_boundaries(vec![20_000, 40_000]);
            Twin {
                inc,
                reference,
                delivered: vec![0; flows],
                outstanding: vec![0; flows],
            }
        }

        fn open(&mut self, f: usize) {
            self.outstanding[f] += 1;
            self.inc.flow_opened(f as u32);
        }

        /// Closing an idle flow saturates in both.
        fn close(&mut self, f: usize) {
            self.outstanding[f] = self.outstanding[f].saturating_sub(1);
            self.inc.flow_closed(f as u32);
        }

        fn deliver(&mut self, f: usize) {
            self.delivered[f] += 1;
            self.inc.flow_delivered(f as u32);
        }

        fn tick(&mut self, now_ps: u64, context: &str) {
            self.reference
                .check_starvation(now_ps, &self.delivered, &self.outstanding);
            self.inc.starvation_tick(now_ps);
            assert_eq!(
                self.inc.summary(),
                self.reference.oracle.summary(),
                "{context}"
            );
            assert!(self.inc.dirty.is_empty());
            assert!(
                self.inc.armed.len() <= 2 * self.inc.flows.len(),
                "queue stays O(flows)"
            );
            let total: u64 = self.outstanding.iter().sum();
            assert_eq!(self.inc.outstanding_total(), total);
        }
    }

    /// Scenario counters the property test must hit, so a generator
    /// change cannot quietly stop exercising a case.
    #[derive(Debug, Default)]
    struct Coverage {
        starved: u64,
        dip_between_ticks: u64,
        zero_at_tick: u64,
        latched_idle_and_back: u64,
        non_fair_windows: u64,
        suppressed: u64,
        windows_off: u64,
        compactions: u64,
    }

    #[test]
    fn incremental_tick_matches_the_reference_scan() {
        let mut cov = Coverage::default();
        for case in 0..300u64 {
            let mut rng = StreamRng::named(0xBA1D, "oracleeq", case);
            let flows = if case % 10 == 9 {
                40
            } else {
                rng.gen_range(1..=8usize)
            };
            let windows = [0u32, 1, 2, 3, 5][rng.gen_range(0..5usize)];
            let cfg = OracleConfig {
                starvation_windows: windows,
                max_reports: 3,
                ..OracleConfig::default()
            };
            let mut twin = Twin::new(cfg, flows);
            // Per-flow delivery odds: some flows never deliver (starve),
            // some deliver most of the time.
            let odds: Vec<f64> = (0..flows)
                .map(|_| [0.0, 0.1, 0.5, 0.9][rng.gen_range(0..4usize)])
                .collect();
            let mut prev_outstanding = vec![0u64; flows];
            let mut prev_total = 0u64;
            let mut idle_latched = vec![false; flows];
            for tick in 1..=60u64 {
                let mut dipped = vec![false; flows];
                for _ in 0..rng.gen_range(0..=4 * flows) {
                    let f = rng.gen_range(0..flows);
                    match rng.gen_range(0..10u32) {
                        0..=2 => twin.open(f),
                        3..=4 => {
                            twin.close(f);
                            dipped[f] |= twin.outstanding[f] == 0;
                        }
                        5 => {
                            // Dip to zero and back between two ticks.
                            let n = twin.outstanding[f];
                            (0..n).for_each(|_| twin.close(f));
                            (0..n).for_each(|_| twin.open(f));
                            dipped[f] = true;
                        }
                        _ => {
                            if rng.gen_bool(odds[f]) {
                                twin.deliver(f);
                            }
                        }
                    }
                }

                let total: u64 = twin.delivered.iter().sum();
                let contenders = twin.outstanding.iter().filter(|&&o| o > 0).count() as u64;
                if contenders > 0 && total - prev_total < contenders {
                    cov.non_fair_windows += 1;
                }
                prev_total = total;
                for f in 0..flows {
                    let (was, now) = (prev_outstanding[f], twin.outstanding[f]);
                    if was > 0 && now > 0 && dipped[f] {
                        cov.dip_between_ticks += 1;
                    }
                    if was > 0 && now == 0 {
                        cov.zero_at_tick += 1;
                    }
                }
                prev_outstanding.clone_from(&twin.outstanding);
                if twin.inc.armed.len() + twin.inc.dirty.len() > 2 * twin.inc.flows.len() {
                    cov.compactions += 1;
                }

                twin.tick(
                    tick * 1_000,
                    &format!("case {case} tick {tick} (flows {flows}, windows {windows})"),
                );

                for (f, w) in twin.reference.flows.iter().enumerate() {
                    let busy = twin.outstanding[f] > 0;
                    if w.latched && !busy {
                        idle_latched[f] = true;
                    } else if w.latched && idle_latched[f] {
                        cov.latched_idle_and_back += 1;
                        idle_latched[f] = false;
                    }
                }
            }
            let s = twin.inc.summary();
            cov.starved += s.total();
            cov.suppressed += s.suppressed;
            if windows == 0 {
                cov.windows_off += 1;
            }
        }
        let Coverage {
            starved,
            dip_between_ticks,
            zero_at_tick,
            latched_idle_and_back,
            non_fair_windows,
            suppressed,
            windows_off,
            compactions,
        } = cov;
        for (what, n) in [
            ("starved", starved),
            ("dip_between_ticks", dip_between_ticks),
            ("zero_at_tick", zero_at_tick),
            ("latched_idle_and_back", latched_idle_and_back),
            ("non_fair_windows", non_fair_windows),
            ("suppressed", suppressed),
            ("windows_off", windows_off),
            ("compactions", compactions),
        ] {
            assert!(n > 0, "scenario {what} never exercised");
        }
    }

    #[test]
    fn compaction_keeps_an_idle_flows_entry() {
        // Flow 0 is stamped at round 4, goes idle on a non-fair tick
        // whose pushes compact the queue, and contends again before the
        // next fair round, so it resumes its old stamp and entry. It
        // must still fire once five fair rounds pass without delivery.
        let cfg = OracleConfig {
            starvation_windows: 5,
            ..OracleConfig::default()
        };
        let mut twin = Twin::new(cfg, 3);
        let mut at = 0;
        let mut tick = |twin: &mut Twin| {
            at += 1_000;
            twin.tick(at, &format!("tick at {at} ps"));
        };
        (0..3).for_each(|f| twin.open(f));
        for _ in 0..4 {
            // Fair rounds 1-4: flow 0 alone delivers a full round.
            (0..3).for_each(|_| twin.deliver(0));
            tick(&mut twin);
        }
        twin.close(0);
        twin.deliver(1); // 1 delivery for 2 contenders: not fair
        tick(&mut twin);
        assert!(twin.inc.armed.len() <= twin.inc.flows.len(), "compacted");
        twin.open(0);
        tick(&mut twin); // still round 4
        for _ in 0..5 {
            // Fair rounds 5-9: flows 1 and 2 deliver, flow 0 starves.
            (0..2).for_each(|_| twin.deliver(1));
            twin.deliver(2);
            tick(&mut twin);
        }
        let s = twin.inc.summary();
        assert_eq!(s.reports.len(), 1);
        assert_eq!(
            s.reports[0].violation,
            Violation::Starvation {
                flow: 0,
                windows: 5,
                outstanding: 1
            }
        );
    }
}
