//! Deterministic fault injection for the network models.
//!
//! The paper's architecture (Sec. IV-F, V) leans entirely on
//! drop-and-retransmit for correctness, which makes component failure a
//! first-class input rather than an exceptional condition: a dead TL
//! switch, a failed inter-stage link, or a dark laser all look — to a
//! source — exactly like contention, and the same timeout/backoff
//! machinery recovers around them (or gives up after its retry budget).
//!
//! This module supplies the *schedule* of such failures:
//!
//! * [`FaultKind`] — what can fail (switches, links, per-port lasers),
//!   recover, or transiently degrade (bit-error bursts derived from the
//!   Sec. IV-F jitter model via [`baldur_tl::health::SwitchHealth`]);
//! * [`FaultEvent`] / [`FaultPlan`] — a seeded, time-ordered schedule of
//!   fault events on the simulation clock. Plans are plain data
//!   (serde-serializable, comparable) so they live inside
//!   [`crate::runner::RunConfig`] and travel with a run's provenance;
//! * [`FaultState`] — the live fault state a network model consults on
//!   its hot paths, with an all-healthy fast-out;
//! * [`nested_kill_set`] — the seeded "fail a fraction of elements"
//!   resolver. Kill sets are *nested*: for one seed, the elements dead at
//!   fraction `f1 < f2` are a subset of those dead at `f2`, so degradation
//!   sweeps are monotone by construction instead of by luck.
//!
//! Everything is a pure function of `(plan seed, sim clock)`; a faulted
//! run is exactly as reproducible as a healthy one.

use baldur_sim::rng::StreamRng;
use baldur_tl::health::SwitchHealth;
use baldur_tl::reliability::JitterModel;
use baldur_topo::mask::EdgeMask;
use serde::{Deserialize, Serialize};

use crate::config::BaldurParams;

/// One kind of fault (or recovery) event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A TL switch dies: every packet reaching it is lost.
    SwitchDown {
        /// Stage index.
        stage: u32,
        /// Switch index within the stage.
        switch: u32,
    },
    /// A previously dead switch returns to service (repair).
    SwitchUp {
        /// Stage index.
        stage: u32,
        /// Switch index within the stage.
        switch: u32,
    },
    /// One inter-stage link (an output port of a switch) fails; the
    /// arbitration scan skips it, so traffic shifts to the remaining
    /// `m - 1` paths of that direction.
    LinkDown {
        /// Stage index.
        stage: u32,
        /// Switch index within the stage.
        switch: u32,
        /// Routing direction (0/1).
        dir: u32,
        /// Path index within the direction (`< m`).
        path: u32,
    },
    /// A failed link returns to service.
    LinkUp {
        /// Stage index.
        stage: u32,
        /// Switch index within the stage.
        switch: u32,
        /// Routing direction (0/1).
        dir: u32,
        /// Path index within the direction (`< m`).
        path: u32,
    },
    /// A node's transmit laser dies: frames it sends never enter the
    /// fabric (they are charged as attempts and recovered by the
    /// timeout/backoff path until the laser returns or the retry budget
    /// runs out).
    LaserDown {
        /// The node whose transmitter fails.
        node: u32,
    },
    /// A dead laser returns to service.
    LaserUp {
        /// The node whose transmitter recovers.
        node: u32,
    },
    /// An electrical router dies (electrical baselines only): its queues
    /// flush with upstream credit refunds and arriving packets are
    /// dropped-and-refunded until repair. The staged (Baldur) model
    /// ignores this kind.
    RouterDown {
        /// The router index in the electrical topology.
        router: u32,
    },
    /// A dead router returns to service (repair). Credit state needs no
    /// reconstruction: credits kept flowing back to the dead router while
    /// it was down, so clearing the down flag restores service exactly.
    RouterUp {
        /// The router index in the electrical topology.
        router: u32,
    },
    /// Kill the seeded nested fraction of elements: staged switches in
    /// the Baldur model, routers in the electrical models. Fractions are
    /// cumulative per plan seed — the set at 0.10 contains the set at
    /// 0.05 — so staircase plans and sweep comparisons degrade
    /// monotonically.
    FailFraction {
        /// Fraction of elements to have dead from this event on, in
        /// `[0, 1]`.
        fraction: f64,
    },
    /// Every dead element returns to service (lasers and links included).
    ReviveAll,
    /// A transient bit-error burst: for `duration_ps` after this event,
    /// every switch traversal corrupts the packet with probability
    /// `corruption_prob` (the packet is then dropped — CRC at the NIC —
    /// and recovered by retransmission).
    BitErrorBurst {
        /// Burst length in picoseconds.
        duration_ps: u64,
        /// Per-traversal corruption probability in `[0, 1]`.
        corruption_prob: f64,
    },
}

impl FaultKind {
    /// The matched repair event for a failure kind, or `None` for kinds
    /// that are not a single-element outage (fraction kills, revives,
    /// bursts — a burst expires on its own clock). This is what fault
    /// lifecycles (flapping, maintenance waves, chaos schedules) pair
    /// each failure with so the post-repair state is exactly the
    /// pre-failure state.
    pub fn repair(&self) -> Option<FaultKind> {
        match *self {
            FaultKind::SwitchDown { stage, switch } => Some(FaultKind::SwitchUp { stage, switch }),
            FaultKind::LinkDown {
                stage,
                switch,
                dir,
                path,
            } => Some(FaultKind::LinkUp {
                stage,
                switch,
                dir,
                path,
            }),
            FaultKind::LaserDown { node } => Some(FaultKind::LaserUp { node }),
            FaultKind::RouterDown { router } => Some(FaultKind::RouterUp { router }),
            FaultKind::SwitchUp { .. }
            | FaultKind::LinkUp { .. }
            | FaultKind::LaserUp { .. }
            | FaultKind::RouterUp { .. }
            | FaultKind::FailFraction { .. }
            | FaultKind::ReviveAll
            | FaultKind::BitErrorBurst { .. } => None,
        }
    }

    /// True for events that restore service (the repair side of a
    /// lifecycle): the per-element `*Up` kinds and [`FaultKind::ReviveAll`].
    pub fn is_repair(&self) -> bool {
        matches!(
            self,
            FaultKind::SwitchUp { .. }
                | FaultKind::LinkUp { .. }
                | FaultKind::LaserUp { .. }
                | FaultKind::RouterUp { .. }
                | FaultKind::ReviveAll
        )
    }
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the event applies, on the simulation clock (ps).
    pub at_ps: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seeded schedule of fault events.
///
/// The `seed` feeds only the fault layer (which elements a
/// [`FaultKind::FailFraction`] kills, retry-jitter draws, bit-error
/// coin flips); it is independent of the workload seed so the same
/// failure story can replay under different traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every random choice the fault layer makes.
    pub seed: u64,
    /// The schedule; kept sorted by [`FaultEvent::at_ps`].
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event, keeping the schedule sorted by time (stable for
    /// equal times, so same-instant events apply in insertion order).
    pub fn at(mut self, at_ps: u64, kind: FaultKind) -> Self {
        let pos = self.events.partition_point(|e| e.at_ps <= at_ps);
        self.events.insert(pos, FaultEvent { at_ps, kind });
        self
    }

    /// The canonical degradation-sweep plan: the nested `fraction` of
    /// elements is dead from time zero.
    pub fn degradation(seed: u64, fraction: f64) -> Self {
        FaultPlan::new(seed).at(0, FaultKind::FailFraction { fraction })
    }

    /// A staircase plan: exactly `fractions[i]` of the elements are dead
    /// from `i * epoch_ps`. Each boundary revives everything and then
    /// fails the (nested) fraction, so steps down recover — equal-time
    /// events apply in insertion order.
    pub fn staircase(seed: u64, epoch_ps: u64, fractions: &[f64]) -> Self {
        let mut plan = FaultPlan::new(seed);
        for (i, &fraction) in fractions.iter().enumerate() {
            let at = i as u64 * epoch_ps;
            if i > 0 {
                plan = plan.at(at, FaultKind::ReviveAll);
            }
            plan = plan.at(at, FaultKind::FailFraction { fraction });
        }
        plan
    }

    /// A bit-error burst whose corruption probability is derived from a
    /// degraded switch health under the Sec. IV-F jitter model:
    /// `transitions` routing-bit edges are exposed per traversal.
    pub fn with_burst_from_health(
        self,
        at_ps: u64,
        duration_ps: u64,
        health: SwitchHealth,
        transitions: u32,
    ) -> Self {
        let model = JitterModel::paper();
        self.at(
            at_ps,
            FaultKind::BitErrorBurst {
                duration_ps,
                corruption_prob: health.packet_corruption_probability(&model, transitions),
            },
        )
    }

    /// The distinct nonzero event times, ascending — the fault-epoch
    /// boundaries metrics bucket observations against (epoch 0 is
    /// everything before the first boundary).
    pub fn epoch_boundaries(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .events
            .iter()
            .map(|e| e.at_ps)
            .filter(|&t| t > 0)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The distinct times at which something is repaired (per-element
    /// `*Up` events and [`FaultKind::ReviveAll`]), ascending — the
    /// instants recovery metrics measure time-to-recover from.
    pub fn repair_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.kind.is_repair())
            .map(|e| e.at_ps)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Adds a matched fail→repair pair: `kind` (a `*Down` event) at
    /// `at_ps` and its [`FaultKind::repair`] at `at_ps + outage_ps`.
    /// Kinds without a matched repair are ignored.
    pub fn outage(self, at_ps: u64, outage_ps: u64, kind: FaultKind) -> Self {
        match kind.repair() {
            Some(up) => self.at(at_ps, kind).at(at_ps.saturating_add(outage_ps), up),
            None => self,
        }
    }

    /// A flapping element: `cycles` down/up duty cycles of `kind`
    /// starting at `start_ps`, each `down_ps` down then `up_ps` up.
    /// Kinds without a matched repair are ignored. The last cycle's
    /// repair lands at `start_ps + cycles*down_ps + (cycles-1)*up_ps`,
    /// so the plan ends with the element in service.
    pub fn flapping(
        mut self,
        kind: FaultKind,
        start_ps: u64,
        down_ps: u64,
        up_ps: u64,
        cycles: u32,
    ) -> Self {
        if kind.repair().is_none() {
            return self;
        }
        let period = down_ps.saturating_add(up_ps);
        for k in 0..u64::from(cycles) {
            let at = start_ps.saturating_add(k.saturating_mul(period));
            self = self.outage(at, down_ps, kind);
        }
        self
    }

    /// A rolling maintenance wave over every switch of a staged fabric:
    /// switch `(stage, switch)` is taken down for `outage_ps` starting at
    /// `start_ps + (stage*width + switch) * stride_ps`, row-major, one
    /// matched repair per outage. With `stride_ps >= outage_ps` at most
    /// one switch is ever out — the planned-maintenance regime the laser
    /// co-design work treats as normal operation.
    pub fn rolling_maintenance(
        mut self,
        start_ps: u64,
        outage_ps: u64,
        stride_ps: u64,
        stages: u32,
        width: u32,
    ) -> Self {
        for stage in 0..stages {
            for switch in 0..width {
                let i = u64::from(stage) * u64::from(width) + u64::from(switch);
                let at = start_ps.saturating_add(i.saturating_mul(stride_ps));
                self = self.outage(at, outage_ps, FaultKind::SwitchDown { stage, switch });
            }
        }
        self
    }

    /// A seeded random chaos schedule: `profile.pairs` matched
    /// fail→repair pairs over the elements of `shape`, every repair
    /// landing at or before `profile.last_repair_ps` so the plan ends
    /// with the fabric fully healthy. A pure function of
    /// `(seed, shape, profile)` — same inputs, same plan.
    pub fn chaos(seed: u64, shape: &ChaosShape, profile: &ChaosProfile) -> Self {
        let mut plan = FaultPlan::new(seed);
        let window = profile
            .last_repair_ps
            .saturating_sub(profile.warmup_ps)
            .max(2);
        for i in 0..u64::from(profile.pairs) {
            let mut rng = StreamRng::named(seed, "chaospln", i);
            let kind = chaos_kind(&mut rng, shape);
            // Start anywhere in the window's first half; hold for up to
            // half the window so the repair stays inside it.
            let start = profile.warmup_ps + rng.gen_range(0..window / 2);
            let outage = 1 + rng.gen_range(0..window / 2);
            plan = plan.outage(start, outage, kind);
        }
        plan
    }
}

/// How many of each element a [`FaultPlan::chaos`] schedule can hit.
/// With `routers > 0` the schedule targets the electrical model
/// (router outages); otherwise the staged fabric (switches, links,
/// transmit lasers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosShape {
    /// Stages in the staged fabric.
    pub stages: u32,
    /// Switches per stage.
    pub width: u32,
    /// Path multiplicity (output ports per direction).
    pub m: u32,
    /// Server count (transmit lasers).
    pub nodes: u32,
    /// Router count for electrical targets (0 = staged fabric).
    pub routers: u32,
}

/// Timing envelope of a [`FaultPlan::chaos`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosProfile {
    /// No fault fires before this (the pre-fault baseline window the
    /// recovery metrics measure goodput against).
    pub warmup_ps: u64,
    /// Every repair lands at or before this.
    pub last_repair_ps: u64,
    /// Matched fail→repair pairs to draw.
    pub pairs: u32,
}

fn chaos_kind(rng: &mut StreamRng, shape: &ChaosShape) -> FaultKind {
    if shape.routers > 0 {
        return FaultKind::RouterDown {
            router: rng.gen_range(0..shape.routers),
        };
    }
    let stage = rng.gen_range(0..shape.stages.max(1));
    let switch = rng.gen_range(0..shape.width.max(1));
    match rng.gen_range(0u32..4) {
        // Half the pairs are link outages: the mildest fault (traffic
        // shifts to the other m-1 paths), so chaos exercises partial as
        // well as total element loss.
        0 | 1 => FaultKind::LinkDown {
            stage,
            switch,
            dir: rng.gen_range(0u32..2),
            path: rng.gen_range(0..shape.m.max(1)),
        },
        2 => FaultKind::SwitchDown { stage, switch },
        _ => FaultKind::LaserDown {
            node: rng.gen_range(0..shape.nodes.max(1)),
        },
    }
}

/// Greedy delta-debugging over a failing fault plan: repeatedly try
/// dropping each event and keep the removal whenever `fails` still
/// returns true, looping until no single removal preserves the failure.
/// The result is 1-minimal — removing any one remaining event makes the
/// failure disappear — which is what the chaos harness prints as a
/// reproduction when an oracle violation shows up.
///
/// `fails` must be deterministic (a pure function of the plan); it is
/// called O(n²) times in the worst case for an n-event plan.
pub fn shrink_plan(plan: &FaultPlan, mut fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut current = plan.clone();
    if !fails(&current) {
        return current;
    }
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.events.len() {
            let mut candidate = current.clone();
            candidate.events.remove(i);
            if fails(&candidate) {
                current = candidate;
                shrunk = true;
                // Same index now holds the next event; retry it.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

/// The seeded nested kill set: which of `total` elements are dead at
/// `fraction`. For a fixed `seed` the set grows monotonically with
/// `fraction` (it is a prefix of one fixed random permutation), which is
/// what makes degradation curves monotone by construction.
pub fn nested_kill_set(seed: u64, total: u32, fraction: f64) -> Vec<bool> {
    let mut dead = vec![false; total as usize];
    let kill = ((f64::from(total) * fraction.clamp(0.0, 1.0)).round() as usize).min(dead.len());
    if kill == 0 {
        return dead;
    }
    let mut rng = StreamRng::named(seed, "faultset", 0);
    for idx in rng.permutation(total as usize).into_iter().take(kill) {
        if let Some(slot) = dead.get_mut(idx) {
            *slot = true;
        }
    }
    dead
}

/// The retransmission timeout for `attempt` (1-based) with the NIC's
/// current extra backoff, plus the seeded per-(packet, attempt) jitter
/// extension when [`BaldurParams::retry_jitter_pct`] is nonzero.
///
/// Jitter desynchronizes sources that lost packets to the same fault at
/// the same instant (their pure-BEB retries would otherwise collide
/// forever in lockstep); capping it below 100% of the base keeps the
/// schedule monotone in `attempt` up to the backoff cap. Deterministic:
/// a pure function of `(params, seed, pkt, attempt, backoff_exp)`.
pub fn jittered_timeout_ps(
    params: &BaldurParams,
    seed: u64,
    pkt: u32,
    attempt: u32,
    backoff_exp: u32,
) -> u64 {
    let base = params.backoff_timeout_ps(attempt, backoff_exp);
    let pct = u64::from(params.retry_jitter_pct.min(99));
    if pct == 0 {
        return base;
    }
    let span = (base / 100).saturating_mul(pct).max(1);
    let mut rng = StreamRng::named(
        seed,
        "retryjit",
        (u64::from(pkt) << 32) | u64::from(attempt),
    );
    base + rng.gen_range(0..span)
}

/// Live fault state for the staged (Baldur) network model.
///
/// All queries are O(1); [`FaultState::is_all_healthy`] lets the model
/// skip every check in the (default) fault-free configuration, keeping
/// the healthy hot path bit-identical to the pre-fault-layer code.
#[derive(Debug, Clone)]
pub struct FaultState {
    stages: u32,
    width: u32,
    m: u32,
    switch_down: Vec<bool>,
    dead_switches: usize,
    links: EdgeMask,
    laser_down: Vec<bool>,
    dead_lasers: usize,
    bit_error_prob: f64,
    bit_error_until_ps: u64,
}

impl FaultState {
    /// An all-healthy state for a staged topology of `stages` stages of
    /// `width` switches with multiplicity `m`, serving `nodes` servers.
    pub fn healthy(stages: u32, width: u32, m: u32, nodes: u32) -> Self {
        FaultState {
            stages,
            width,
            m,
            switch_down: vec![false; (stages * width) as usize],
            dead_switches: 0,
            links: EdgeMask::new(stages, width * 2 * m),
            laser_down: vec![false; nodes as usize],
            dead_lasers: 0,
            bit_error_prob: 0.0,
            bit_error_until_ps: 0,
        }
    }

    /// True when nothing is failed and no burst is armed — the hot-path
    /// fast-out.
    #[inline]
    pub fn is_all_healthy(&self) -> bool {
        self.dead_switches == 0
            && self.dead_lasers == 0
            && self.links.is_all_healthy()
            && self.bit_error_prob <= 0.0
    }

    fn switch_index(&self, stage: u32, switch: u32) -> Option<usize> {
        if stage < self.stages && switch < self.width {
            Some((stage * self.width + switch) as usize)
        } else {
            None
        }
    }

    fn set_switch(&mut self, stage: u32, switch: u32, down: bool) {
        let Some(i) = self.switch_index(stage, switch) else {
            return;
        };
        if let Some(slot) = self.switch_down.get_mut(i) {
            if *slot != down {
                *slot = down;
                if down {
                    self.dead_switches += 1;
                } else {
                    self.dead_switches -= 1;
                }
            }
        }
    }

    fn set_laser(&mut self, node: u32, down: bool) {
        if let Some(l) = self.laser_down.get_mut(node as usize) {
            if *l != down {
                *l = down;
                if down {
                    self.dead_lasers += 1;
                } else {
                    self.dead_lasers -= 1;
                }
            }
        }
    }

    /// True when switch `(stage, switch)` is dead.
    #[inline]
    pub fn switch_is_down(&self, stage: u32, switch: u32) -> bool {
        match self.switch_index(stage, switch) {
            Some(i) => self.switch_down.get(i).copied().unwrap_or(false),
            None => false,
        }
    }

    /// True when the output port `(switch, dir, path)` of `stage` is on
    /// a failed link.
    #[inline]
    pub fn link_is_down(&self, stage: u32, switch: u32, dir: u32, path: u32) -> bool {
        self.links
            .is_failed(stage, switch * 2 * self.m + dir * self.m + path)
    }

    /// True when `node`'s transmit laser is dead.
    #[inline]
    pub fn laser_is_down(&self, node: u32) -> bool {
        self.laser_down.get(node as usize).copied().unwrap_or(false)
    }

    /// The corruption probability per traversal at `now_ps` (0 outside
    /// any burst).
    #[inline]
    pub fn corruption_prob(&self, now_ps: u64) -> f64 {
        if now_ps < self.bit_error_until_ps {
            self.bit_error_prob
        } else {
            0.0
        }
    }

    /// The live inter-stage link mask (for exact-repair comparisons:
    /// after a matched fail→repair plan this must equal a never-faulted
    /// state's mask).
    pub fn links(&self) -> &EdgeMask {
        &self.links
    }

    /// How many switches are currently dead.
    pub fn dead_switch_count(&self) -> usize {
        self.dead_switches
    }

    /// The [`SwitchHealth`] the fault layer implies for `(stage, switch)`
    /// — `Dead` while the switch is down, `Healthy` otherwise. This is
    /// the `tl::health` view of the fault state, and the value
    /// exact-repair tests compare against a never-faulted fabric.
    pub fn switch_health(&self, stage: u32, switch: u32) -> SwitchHealth {
        if self.switch_is_down(stage, switch) {
            SwitchHealth::Dead
        } else {
            SwitchHealth::Healthy
        }
    }

    /// Applies one fault event (at simulation time `now_ps`, using the
    /// plan `seed` for [`FaultKind::FailFraction`] resolution).
    pub fn apply(&mut self, seed: u64, now_ps: u64, kind: &FaultKind) {
        match *kind {
            FaultKind::SwitchDown { stage, switch } => self.set_switch(stage, switch, true),
            FaultKind::SwitchUp { stage, switch } => self.set_switch(stage, switch, false),
            FaultKind::LinkDown {
                stage,
                switch,
                dir,
                path,
            } => self
                .links
                .fail(stage, switch * 2 * self.m + dir * self.m + path),
            FaultKind::LinkUp {
                stage,
                switch,
                dir,
                path,
            } => self
                .links
                .restore(stage, switch * 2 * self.m + dir * self.m + path),
            FaultKind::LaserDown { node } => self.set_laser(node, true),
            FaultKind::LaserUp { node } => self.set_laser(node, false),
            // Router lifecycles target the electrical models; the staged
            // fabric has no routers.
            FaultKind::RouterDown { .. } | FaultKind::RouterUp { .. } => {}
            FaultKind::FailFraction { fraction } => {
                let dead = nested_kill_set(seed, self.stages * self.width, fraction);
                for (i, &d) in dead.iter().enumerate() {
                    if d {
                        let (stage, switch) = (i as u32 / self.width, i as u32 % self.width);
                        self.set_switch(stage, switch, true);
                    }
                }
            }
            FaultKind::ReviveAll => {
                self.switch_down.iter_mut().for_each(|d| *d = false);
                self.dead_switches = 0;
                self.laser_down.iter_mut().for_each(|d| *d = false);
                self.dead_lasers = 0;
                self.links.restore_all();
            }
            FaultKind::BitErrorBurst {
                duration_ps,
                corruption_prob,
            } => {
                self.bit_error_prob = corruption_prob.clamp(0.0, 1.0);
                self.bit_error_until_ps = now_ps.saturating_add(duration_ps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stays_sorted_and_reports_epochs() {
        let plan = FaultPlan::new(7)
            .at(5_000, FaultKind::ReviveAll)
            .at(
                1_000,
                FaultKind::SwitchDown {
                    stage: 0,
                    switch: 1,
                },
            )
            .at(5_000, FaultKind::LaserDown { node: 3 })
            .at(0, FaultKind::FailFraction { fraction: 0.05 });
        let times: Vec<u64> = plan.events.iter().map(|e| e.at_ps).collect();
        assert_eq!(times, vec![0, 1_000, 5_000, 5_000]);
        assert_eq!(plan.epoch_boundaries(), vec![1_000, 5_000]);
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::default().epoch_boundaries().is_empty());
    }

    #[test]
    fn kill_sets_are_nested_and_sized() {
        let total = 64;
        let mut last = 0;
        let mut prev = vec![false; total as usize];
        for fraction in [0.0, 0.05, 0.10, 0.20, 0.50, 1.0] {
            let dead = nested_kill_set(9, total, fraction);
            let count = dead.iter().filter(|&&d| d).count();
            assert_eq!(count, (f64::from(total) * fraction).round() as usize);
            assert!(count >= last);
            for i in 0..dead.len() {
                assert!(!prev[i] || dead[i], "kill sets must nest");
            }
            last = count;
            prev = dead;
        }
        // Different seeds pick different sets.
        assert_ne!(nested_kill_set(1, 64, 0.25), nested_kill_set(2, 64, 0.25));
        // Same seed is reproducible.
        assert_eq!(nested_kill_set(5, 64, 0.25), nested_kill_set(5, 64, 0.25));
    }

    #[test]
    fn fault_state_round_trips_every_kind() {
        let mut st = FaultState::healthy(4, 8, 3, 16);
        assert!(st.is_all_healthy());
        st.apply(
            1,
            0,
            &FaultKind::SwitchDown {
                stage: 2,
                switch: 5,
            },
        );
        st.apply(
            1,
            0,
            &FaultKind::LinkDown {
                stage: 1,
                switch: 3,
                dir: 1,
                path: 2,
            },
        );
        st.apply(1, 0, &FaultKind::LaserDown { node: 7 });
        assert!(st.switch_is_down(2, 5));
        assert!(!st.switch_is_down(2, 4));
        assert!(st.link_is_down(1, 3, 1, 2));
        assert!(!st.link_is_down(1, 3, 1, 1));
        assert!(st.laser_is_down(7));
        assert!(!st.is_all_healthy());
        st.apply(
            1,
            0,
            &FaultKind::SwitchUp {
                stage: 2,
                switch: 5,
            },
        );
        st.apply(
            1,
            0,
            &FaultKind::LinkUp {
                stage: 1,
                switch: 3,
                dir: 1,
                path: 2,
            },
        );
        st.apply(1, 0, &FaultKind::LaserUp { node: 7 });
        assert!(st.is_all_healthy());
    }

    #[test]
    fn fail_fraction_and_revive_all() {
        let mut st = FaultState::healthy(4, 8, 3, 16);
        st.apply(9, 0, &FaultKind::FailFraction { fraction: 0.25 });
        let dead: usize = (0..4)
            .flat_map(|s| (0..8).map(move |w| (s, w)))
            .filter(|&(s, w)| st.switch_is_down(s, w))
            .count();
        assert_eq!(dead, 8);
        st.apply(9, 0, &FaultKind::ReviveAll);
        assert!(st.is_all_healthy());
    }

    #[test]
    fn bursts_expire_on_the_clock() {
        let mut st = FaultState::healthy(2, 4, 2, 8);
        st.apply(
            3,
            1_000,
            &FaultKind::BitErrorBurst {
                duration_ps: 500,
                corruption_prob: 0.25,
            },
        );
        assert!((st.corruption_prob(1_000) - 0.25).abs() < 1e-12);
        assert!((st.corruption_prob(1_499) - 0.25).abs() < 1e-12);
        assert!(st.corruption_prob(1_500).abs() < 1e-12);
        assert!(!st.is_all_healthy(), "an armed burst is not healthy");
    }

    #[test]
    fn health_derived_bursts_scale_with_degradation() {
        let mild = FaultPlan::new(1).with_burst_from_health(
            0,
            1_000,
            SwitchHealth::Degraded { margin_scale: 0.6 },
            8,
        );
        let severe = FaultPlan::new(1).with_burst_from_health(
            0,
            1_000,
            SwitchHealth::Degraded { margin_scale: 0.2 },
            8,
        );
        let prob = |p: &FaultPlan| match p.events[0].kind {
            FaultKind::BitErrorBurst {
                corruption_prob, ..
            } => corruption_prob,
            _ => unreachable!(),
        };
        assert!(prob(&severe) > prob(&mild));
        assert!(prob(&mild) > 0.0 && prob(&severe) < 1.0);
    }

    #[test]
    fn repair_pairs_cover_every_outage_kind() {
        let down = [
            FaultKind::SwitchDown {
                stage: 1,
                switch: 2,
            },
            FaultKind::LinkDown {
                stage: 0,
                switch: 1,
                dir: 1,
                path: 0,
            },
            FaultKind::LaserDown { node: 5 },
            FaultKind::RouterDown { router: 3 },
        ];
        for kind in down {
            let up = kind.repair().expect("every outage kind has a repair");
            assert!(up.is_repair());
            assert!(!kind.is_repair());
            assert_eq!(up.repair(), None, "repairs have no repair");
        }
        assert_eq!(FaultKind::ReviveAll.repair(), None);
        assert_eq!(FaultKind::FailFraction { fraction: 0.1 }.repair(), None);
        assert!(FaultKind::ReviveAll.is_repair());
    }

    #[test]
    fn flapping_builds_matched_duty_cycles() {
        let plan = FaultPlan::new(1).flapping(FaultKind::LaserDown { node: 2 }, 1_000, 300, 700, 3);
        let times: Vec<u64> = plan.events.iter().map(|e| e.at_ps).collect();
        assert_eq!(times, vec![1_000, 1_300, 2_000, 2_300, 3_000, 3_300]);
        assert_eq!(plan.repair_times(), vec![1_300, 2_300, 3_300]);
        // Unrepairable kinds are ignored, not half-scheduled.
        let noop = FaultPlan::new(1).flapping(FaultKind::ReviveAll, 0, 10, 10, 4);
        assert!(noop.is_empty());
    }

    #[test]
    fn rolling_maintenance_waves_end_healthy() {
        let plan = FaultPlan::new(3).rolling_maintenance(500, 100, 250, 2, 3);
        assert_eq!(plan.events.len(), 2 * 3 * 2);
        let mut st = FaultState::healthy(2, 3, 2, 8);
        for e in &plan.events {
            st.apply(plan.seed, e.at_ps, &e.kind);
        }
        assert!(st.is_all_healthy());
        // stride > outage: at most one switch is down at any instant.
        let mut st = FaultState::healthy(2, 3, 2, 8);
        let mut i = 0;
        while i < plan.events.len() {
            let t = plan.events[i].at_ps;
            while i < plan.events.len() && plan.events[i].at_ps == t {
                st.apply(plan.seed, t, &plan.events[i].kind);
                i += 1;
            }
            assert!(st.dead_switch_count() <= 1, "at t={t}");
        }
    }

    #[test]
    fn chaos_plans_are_matched_seeded_and_bounded() {
        let shape = ChaosShape {
            stages: 3,
            width: 8,
            m: 3,
            nodes: 16,
            routers: 0,
        };
        let profile = ChaosProfile {
            warmup_ps: 10_000,
            last_repair_ps: 90_000,
            pairs: 12,
        };
        let plan = FaultPlan::chaos(42, &shape, &profile);
        assert_eq!(plan, FaultPlan::chaos(42, &shape, &profile));
        assert_ne!(plan, FaultPlan::chaos(43, &shape, &profile));
        assert_eq!(plan.events.len(), 24, "every pair lands both halves");
        for e in &plan.events {
            assert!(e.at_ps >= profile.warmup_ps);
            assert!(e.at_ps <= profile.last_repair_ps);
        }
        // Router-shaped chaos only draws router lifecycles.
        let rshape = ChaosShape {
            routers: 6,
            ..shape
        };
        let rplan = FaultPlan::chaos(7, &rshape, &profile);
        assert!(rplan.events.iter().all(|e| matches!(
            e.kind,
            FaultKind::RouterDown { .. } | FaultKind::RouterUp { .. }
        )));
    }

    #[test]
    fn matched_plans_restore_fault_state_byte_identically() {
        let shape = ChaosShape {
            stages: 3,
            width: 8,
            m: 3,
            nodes: 16,
            routers: 0,
        };
        let profile = ChaosProfile {
            warmup_ps: 5_000,
            last_repair_ps: 200_000,
            pairs: 20,
        };
        let fresh = FaultState::healthy(shape.stages, shape.width, shape.m, shape.nodes);
        for seed in 0..32 {
            let plan = FaultPlan::chaos(seed, &shape, &profile);
            let mut st = FaultState::healthy(shape.stages, shape.width, shape.m, shape.nodes);
            for e in &plan.events {
                st.apply(plan.seed, e.at_ps, &e.kind);
            }
            // EdgeMask, switch health, and laser state all restored
            // exactly; the Debug rendering covers every field, so equal
            // strings is byte-identical state.
            assert!(st.is_all_healthy(), "seed {seed}");
            assert_eq!(st.links(), fresh.links(), "seed {seed}");
            for stage in 0..shape.stages {
                for switch in 0..shape.width {
                    assert_eq!(
                        st.switch_health(stage, switch),
                        SwitchHealth::Healthy,
                        "seed {seed}"
                    );
                }
            }
            assert_eq!(format!("{st:?}"), format!("{fresh:?}"), "seed {seed}");
        }
    }

    #[test]
    fn shrink_finds_the_one_guilty_event() {
        // A synthetic predicate: the "violation" persists exactly while
        // the plan still contains LaserDown{99} (a node index chaos can
        // never draw, so only the appended event matches). The shrinker must strip
        // all 15 innocent events and keep that one.
        let shape = ChaosShape {
            stages: 3,
            width: 8,
            m: 3,
            nodes: 16,
            routers: 0,
        };
        let profile = ChaosProfile {
            warmup_ps: 1_000,
            last_repair_ps: 50_000,
            pairs: 7,
        };
        let plan =
            FaultPlan::chaos(11, &shape, &profile).at(2_500, FaultKind::LaserDown { node: 99 });
        let guilty = |p: &FaultPlan| {
            p.events
                .iter()
                .any(|e| e.kind == FaultKind::LaserDown { node: 99 })
        };
        assert!(plan.events.len() > 1);
        let shrunk = shrink_plan(&plan, guilty);
        assert_eq!(shrunk.events.len(), 1);
        assert_eq!(shrunk.events[0].kind, FaultKind::LaserDown { node: 99 });
        assert_eq!(shrunk.seed, plan.seed);
        // A plan that never fails comes back untouched.
        let healthy = FaultPlan::chaos(11, &shape, &profile);
        assert_eq!(shrink_plan(&healthy, guilty), healthy);
    }

    #[test]
    fn jittered_timeouts_are_deterministic_and_bounded() {
        let mut params = BaldurParams::paper_1k();
        params.retry_jitter_pct = 50;
        for attempt in 1..=10 {
            let a = jittered_timeout_ps(&params, 42, 7, attempt, 0);
            let b = jittered_timeout_ps(&params, 42, 7, attempt, 0);
            assert_eq!(a, b, "same (seed, pkt, attempt) must agree");
            let base = params.backoff_timeout_ps(attempt, 0);
            assert!(a >= base && a < base + base / 2 + 1, "attempt {attempt}");
        }
        // Different packets draw different jitter.
        let xs: Vec<u64> = (0..16)
            .map(|pkt| jittered_timeout_ps(&params, 42, pkt, 1, 0))
            .collect();
        let all_same = xs.iter().all(|&x| x == xs[0]);
        assert!(!all_same, "{xs:?}");
        // Jitter off is the pure BEB schedule.
        params.retry_jitter_pct = 0;
        assert_eq!(
            jittered_timeout_ps(&params, 42, 7, 3, 1),
            params.backoff_timeout_ps(3, 1)
        );
    }
}
