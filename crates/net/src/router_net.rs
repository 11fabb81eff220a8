//! The buffered electrical network model (paper Table VI baselines).
//!
//! Virtual-cut-through, input-queued routers with credit-based flow
//! control: 24 KB of buffering per port split over 3 VCs, 90 ns
//! port-to-port switch latency (Mellanox SB7700), and per-output
//! round-robin arbitration. The same engine runs the electrical
//! multi-butterfly, dragonfly, and fat-tree — only the [`RoutingAlg`]
//! differs. Electrical networks are lossless: congestion backs packets up
//! through credits instead of dropping them.
//!
//! # State layout (datacenter scale)
//!
//! Router state is struct-of-arrays flattened across the whole machine:
//! one offset table (`port_off`, cumulative radix) maps a router to its
//! slice of the flat per-output (`out_pending`, request sets) and
//! per-(input port, VC) (`credits`, input queues) tables — radix varies
//! per router, so offsets rather than a fixed stride. Input and NIC
//! queues are one [`FifoSet`] of intrusive FIFOs over packet ids (a
//! packet sits in at most one queue at a time): the flat input queues
//! first, then one queue per NIC. Arbitration reads per-output
//! request sets instead of scanning every input queue: one bitset of
//! `ceil(max radix × vcs / 64)` words per (router, output port), where
//! bit `qi` is set exactly when input queue `qi` is non-empty and its
//! head is routed to that output. Beside them, one mask of `ceil(max
//! radix / 64)` words per router marks the outputs whose request set is
//! non-empty, so an arbitration round visits only requested outputs, in
//! ascending port order. The queue push/pop helpers keep both current,
//! so a pop mid-arbitration exposes the new head to the later ports of
//! the same round. A grant takes the first set bit cyclically from the
//! round-robin pointer whose downstream VC has credit; an output whose
//! downstream VCs all lack credit is passed over without a probe. No
//! output is busy when its router arbitrates (DESIGN.md, "Arbitration
//! over requesting outputs"), so a round checks no busy times, and one
//! busy-until time per router (its last granting round's) is all the
//! model keeps, for a debug-build check. The retired map-based model's
//! reports are pinned by fingerprint in
//! `results/golden/soa_fingerprints.json`. The run loop and drain audit
//! protocol is the shell in [`crate::runner`], shared with the Baldur
//! model.
//!
//! Almost every event is scheduled a fixed delay after `now` and goes
//! through [`Scheduler::schedule_in`] onto the scheduler's fixed-delay
//! lanes: credit refunds (after the serialization time, or at once for a
//! drop), arrivals (`switch_latency_ps` plus the link's delay, one lane
//! per distinct delay), deliveries, every arbitration wakeup (at `now`,
//! or at `now` plus the serialization time after a grant) and injection
//! wakeups at either offset. An injection wakeup at an earlier
//! transmission's busy-until time, deadline re-checks, driver wakeups
//! and faults stay on the calendar.

use baldur_sim::rng::StreamRng;
use baldur_sim::{Duration, FifoSet, Model, Scheduler, Time};
use baldur_topo::graph::{Endpoint, NodeId, RouterGraph};

use crate::baldur_net::StateStats;
use crate::config::{LinkParams, RouterParams, RunSpec};
use crate::driver::Driver;
use crate::faults::{nested_kill_set, FaultKind, FaultPlan};
use crate::metrics::{Collector, LatencyReport};
use crate::oracle::{Oracle, OracleConfig, Violation};
use crate::routing::{RouteState, RoutingAlg};
use crate::runner::{self, PacketModel};

type PktId = u32;

#[derive(Debug, Clone, Copy)]
struct RPacket {
    src: NodeId,
    dst: NodeId,
    generated_at: Time,
    route: RouteState,
    /// Output decision at the current router: (port, next vc).
    decision: (u32, u32),
}

/// Events of the electrical model.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Driver wakeup.
    Wake(u32),
    /// NIC attempts to inject.
    NicTry(u32),
    /// Packet head arrives at a router input.
    Arrive {
        /// Packet id.
        pkt: PktId,
        /// Router index.
        router: u32,
        /// Input port.
        port: u32,
        /// Virtual channel.
        vc: u32,
    },
    /// Run the router's allocation loop.
    Arb(u32),
    /// A buffer slot freed upstream (tail passed): return one credit.
    Credit {
        /// Upstream router (or `u32::MAX` for a NIC).
        router: u32,
        /// Port on the upstream router (or node id for a NIC).
        port: u32,
        /// VC whose slot freed.
        vc: u32,
    },
    /// Packet tail reaches the destination node.
    Deliver {
        /// Packet id.
        pkt: PktId,
        /// Destination node.
        node: u32,
    },
    /// Apply fault-plan event `idx` (scheduled at its `at_ps`).
    Fault(u32),
}

/// The electrical network simulation model.
pub struct RouterNet {
    graph: RouterGraph,
    alg: RoutingAlg,
    /// Serialization time of a packet on the run's links.
    ser: Duration,
    rp: RouterParams,
    driver: Driver,
    /// Cumulative radix per router, then the total port count: router
    /// `r` owns output slots `port_off[r]..port_off[r + 1]` of the flat
    /// per-output tables and slots `port_off[r]*vcs..` of the flat
    /// per-(port, VC) tables.
    port_off: Vec<u32>,
    // ---- per (router, input port, VC), flat ----
    /// Free slots downstream of each output, `[q_base + out*vcs + vc]`.
    credits: Vec<u32>,
    /// Input-queue occupancy; the input queues are `queues`' first
    /// `q_len.len()` queues.
    q_len: Vec<u32>,
    // ---- per (router, output port), flat ----
    /// Buffered packets routed to each output (adaptive-routing signal).
    out_pending: Vec<u32>,
    /// Request sets, `req_words` words per output at
    /// `[(port_off[r] + out) * req_words ..]`: bit `qi` is set exactly
    /// when input queue `qi` of router `r` is non-empty and its head is
    /// routed to `out`.
    requests: Vec<u64>,
    req_words: usize,
    // ---- per router ----
    /// Time until which the outputs granted in the router's last granting
    /// round are busy (its `now` plus the serialization time): the latest
    /// busy-until of any of its outputs. Never past the clock when the
    /// router arbitrates (checked in debug builds).
    busy_until: Vec<Time>,
    /// Requested outputs, `act_words` words per router at
    /// `[router * act_words ..]`: bit `out` is set exactly when the
    /// request set of output `out` is non-empty.
    active: Vec<u64>,
    act_words: usize,
    arb_scheduled: Vec<bool>,
    rr: Vec<u32>,
    // ---- per NIC (node) ----
    /// NIC-queue occupancy ([`RouterNet::nic_q`] names the queue).
    nic_len: Vec<u32>,
    nic_tx_busy: Vec<Time>,
    /// Injection credits, `[node * vcs + vc]`.
    nic_credits: Vec<u32>,
    nic_try_scheduled: Vec<bool>,
    /// Every input queue (flat, per router, port and VC), then every NIC
    /// queue.
    queues: FifoSet,
    packets: Vec<RPacket>,
    metrics: Collector,
    rng: StreamRng,
    vc_cap: u32,
    /// Dead routers (fault injection). The electrical baselines have no
    /// retransmission layer, so a packet reaching a dead router is a
    /// terminal loss (counted as abandoned) — the credit it held is
    /// returned upstream so the lossless machinery stays live.
    router_down: Vec<bool>,
    /// Number of `true` entries in `router_down`.
    down_count: u32,
    /// The fault schedule this run executes (empty by default). Only
    /// router-granularity kinds apply here ([`FaultKind::FailFraction`],
    /// [`FaultKind::RouterDown`]/[`FaultKind::RouterUp`],
    /// [`FaultKind::ReviveAll`]); element-level kinds are Baldur-specific
    /// and ignored.
    plan: FaultPlan,
    /// Always-on runtime invariant oracle (credit balance, bounded
    /// queues, stuck-flow, drain conservation). Its starvation
    /// watermark counts, per source, the packets still owed a terminal
    /// outcome (admitted, not yet delivered or lost).
    oracle: Oracle,
}

impl RouterNet {
    /// Builds the model.
    pub fn new(
        graph: RouterGraph,
        alg: RoutingAlg,
        link: LinkParams,
        rp: RouterParams,
        driver: Driver,
        seed: u64,
        sample_cap: usize,
    ) -> Self {
        let vc_cap = rp.vc_capacity(link.packet_bytes);
        let vcs = rp.vcs as usize;
        let router_count = graph.router_count();
        let mut port_off = Vec::with_capacity(router_count as usize + 1);
        let mut total_ports = 0u32;
        let mut max_radix = 0;
        for r in 0..router_count {
            port_off.push(total_ports);
            total_ports += graph.radix(r);
            max_radix = max_radix.max(graph.radix(r));
        }
        port_off.push(total_ports);
        let req_words = (max_radix as usize * vcs).div_ceil(64);
        let act_words = (max_radix as usize).div_ceil(64);
        let nq_total = total_ports as usize * vcs;
        let nodes = driver.nodes() as usize;
        RouterNet {
            graph,
            alg,
            ser: link.packet_time(),
            rp,
            driver,
            port_off,
            credits: vec![vc_cap; nq_total],
            q_len: vec![0; nq_total],
            out_pending: vec![0; total_ports as usize],
            requests: vec![0; total_ports as usize * req_words],
            req_words,
            busy_until: vec![Time::ZERO; router_count as usize],
            active: vec![0; router_count as usize * act_words],
            act_words,
            arb_scheduled: vec![false; router_count as usize],
            rr: vec![0; router_count as usize],
            nic_len: vec![0; nodes],
            nic_tx_busy: vec![Time::ZERO; nodes],
            nic_credits: vec![vc_cap; nodes * vcs],
            nic_try_scheduled: vec![false; nodes],
            queues: FifoSet::new(nq_total + nodes),
            packets: Vec::new(),
            metrics: Collector::new(sample_cap),
            rng: StreamRng::named(seed, "routernt", 0),
            vc_cap,
            router_down: vec![false; router_count as usize],
            down_count: 0,
            plan: FaultPlan::new(seed),
            oracle: Oracle::new(OracleConfig::default()),
        }
    }

    /// First flat per-output slot of `router`.
    fn port_base(&self, router: u32) -> usize {
        self.port_off[router as usize] as usize
    }

    /// Radix of `router`, from the offset table rather than the graph's
    /// per-router port lists.
    fn radix(&self, router: u32) -> u32 {
        self.port_off[router as usize + 1] - self.port_off[router as usize]
    }

    /// First flat per-(port, VC) slot of `router`.
    fn q_base(&self, router: u32) -> usize {
        self.port_base(router) * self.rp.vcs as usize
    }

    /// First word of the request set of output `out` of `router`.
    fn req_slot(&self, router: u32, out: u32) -> usize {
        (self.port_base(router) + out as usize) * self.req_words
    }

    /// First word of the requested-output mask of `router`.
    fn act_slot(&self, router: u32) -> usize {
        router as usize * self.act_words
    }

    /// Sets or clears bit `qi` in the request set of the output that
    /// `pkt`, the head of input queue `qi` of `router`, is routed to, and
    /// the output's bit in the router's requested-output mask with it. A
    /// decision past the radix names no output and enters no set.
    fn mark_request(&mut self, router: u32, qi: usize, pkt: PktId, on: bool) {
        let out = self.packets[pkt as usize].decision.0;
        if out >= self.radix(router) {
            return;
        }
        let slot = self.req_slot(router, out);
        let bit = 1u64 << (qi % 64);
        let active = self.act_slot(router) + out as usize / 64;
        let out_bit = 1u64 << (out % 64);
        if on {
            self.requests[slot + qi / 64] |= bit;
            self.active[active] |= out_bit;
        } else {
            self.requests[slot + qi / 64] &= !bit;
            if self.requests[slot..slot + self.req_words]
                .iter()
                .all(|&w| w == 0)
            {
                self.active[active] &= !out_bit;
            }
        }
    }

    /// First requested output of `router` from `from` on (only outputs
    /// below the radix are ever marked).
    fn next_active(&self, router: u32, from: usize) -> Option<usize> {
        let slot = self.act_slot(router);
        let words = &self.active[slot..slot + self.act_words];
        first_set(words, from, words.len() * 64)
    }

    /// First set bit of the request set at `slot` in `from..end`.
    fn next_request(&self, slot: usize, from: usize, end: usize) -> Option<usize> {
        first_set(&self.requests[slot..slot + self.req_words], from, end)
    }

    /// Pushes `pkt` onto the tail of input queue `qi` of `router`.
    fn rq_push_back(&mut self, router: u32, qi: usize, pkt: PktId) {
        let flat = self.q_base(router) + qi;
        if self.queues.is_empty(flat) {
            self.mark_request(router, qi, pkt, true);
        }
        self.queues.push_back(flat, pkt);
        self.q_len[flat] += 1;
    }

    /// Pops the head of input queue `qi` of `router`; the new head, if
    /// any, takes over its request bit at once.
    fn rq_pop_front(&mut self, router: u32, qi: usize) -> Option<PktId> {
        let flat = self.q_base(router) + qi;
        let head = self.queues.pop_front(flat)?;
        self.mark_request(router, qi, head, false);
        if let Some(next) = self.queues.front(flat) {
            self.mark_request(router, qi, next, true);
        }
        self.q_len[flat] -= 1;
        Some(head)
    }

    /// `node`'s NIC queue in `queues`: the NIC queues follow the input
    /// queues.
    fn nic_q(&self, node: usize) -> usize {
        self.q_len.len() + node
    }

    fn nic_push_back(&mut self, node: usize, pkt: PktId) {
        self.queues.push_back(self.nic_q(node), pkt);
        self.nic_len[node] += 1;
    }

    fn nic_pop_front(&mut self, node: usize) -> Option<PktId> {
        let pkt = self.queues.pop_front(self.nic_q(node))?;
        self.nic_len[node] -= 1;
        Some(pkt)
    }

    /// The packet at the head of `node`'s NIC queue, if any.
    fn nic_front(&self, node: usize) -> Option<PktId> {
        self.queues.front(self.nic_q(node))
    }

    #[inline]
    fn is_down(&self, router: u32) -> bool {
        self.down_count > 0 && self.router_down[router as usize]
    }

    /// Returns one buffer credit of `(router, port, vc)` to its upstream
    /// feeder `delay` from now: once a granted packet's tail has passed
    /// (the serialization time), or at once for a dropped packet, so drops
    /// at dead routers do not bleed the credit pool dry.
    fn refund_credit(
        &self,
        delay: Duration,
        router: u32,
        port: u32,
        vc: u32,
        sched: &mut Scheduler<Ev>,
    ) {
        match self.graph.peer(router, port) {
            Endpoint::Router {
                router: ur,
                port: up,
            } => sched.schedule_in(
                delay,
                Ev::Credit {
                    router: ur,
                    port: up,
                    vc,
                },
            ),
            Endpoint::Node(n) => sched.schedule_in(
                delay,
                Ev::Credit {
                    router: u32::MAX,
                    port: n.0,
                    vc,
                },
            ),
            Endpoint::Unused => {}
        }
    }

    /// Kills `router`: every packet buffered in it becomes a terminal
    /// loss (credits refunded upstream) and everything arriving later is
    /// dropped on arrival.
    fn kill_router(&mut self, now: Time, router: u32, sched: &mut Scheduler<Ev>) {
        // A fault plan is external input; a router index outside this
        // topology is ignored rather than trusted to index.
        let Some(down) = self.router_down.get_mut(router as usize) else {
            return;
        };
        if *down {
            return;
        }
        *down = true;
        self.down_count += 1;
        let vcs = self.rp.vcs.max(1);
        let pb = self.port_base(router);
        let nq = (self.radix(router) * self.rp.vcs) as usize;
        for qi in 0..nq {
            while let Some(pkt) = self.rq_pop_front(router, qi) {
                let out = self.packets.get(pkt as usize).map(|p| p.decision.0);
                match out.and_then(|o| self.out_pending.get_mut(pb + o as usize)) {
                    Some(p) if *p > 0 => *p -= 1,
                    _ => self.oracle.record(
                        now.as_ps(),
                        Violation::CounterUnderflow {
                            counter: "out_pending".into(),
                        },
                    ),
                }
                self.metrics.on_forward_attempt(true);
                self.metrics.on_abandoned(now);
                if let Some(src) = self.packets.get(pkt as usize).map(|p| p.src.0) {
                    self.oracle.flow_closed(src);
                }
                self.oracle
                    .note(now.as_ps(), "drop:kill", u64::from(pkt), u64::from(router));
                self.oracle.progress(now.as_ps());
                let in_port = qi as u32 / vcs;
                let in_vc = qi as u32 % vcs;
                self.refund_credit(Duration::ZERO, router, in_port, in_vc, sched);
            }
        }
    }

    /// Revives `router`. Its queues were flushed at kill time and credit
    /// returns kept flowing to it while it was down ([`Ev::Credit`]
    /// increments regardless of health), so repair is exactly "clear the
    /// down flag": no credit reconstruction and no arbitration kick —
    /// the next arrival schedules arbitration as usual.
    fn revive_router(&mut self, router: u32) {
        if let Some(down) = self.router_down.get_mut(router as usize) {
            if *down {
                *down = false;
                self.down_count -= 1;
            }
        }
    }

    /// Applies one fault-plan event. Only router-granularity kinds act on
    /// the electrical model.
    fn apply_fault(&mut self, now: Time, kind: FaultKind, sched: &mut Scheduler<Ev>) {
        match kind {
            FaultKind::FailFraction { fraction } => {
                let dead = nested_kill_set(self.plan.seed, self.graph.router_count(), fraction);
                for (r, &d) in dead.iter().enumerate() {
                    if d {
                        self.kill_router(now, r as u32, sched);
                    }
                }
            }
            FaultKind::RouterDown { router } => self.kill_router(now, router, sched),
            FaultKind::RouterUp { router } => self.revive_router(router),
            FaultKind::ReviveAll => {
                self.router_down.iter_mut().for_each(|d| *d = false);
                self.down_count = 0;
            }
            _ => {}
        }
    }

    fn qidx(&self, port: u32, vc: u32) -> usize {
        (port * self.rp.vcs + vc) as usize
    }

    /// Schedules a wakeup at `at` on the lane of its offset from now
    /// when that offset is one of the fixed ones (zero, or the
    /// serialization time after a grant or an injection), else on the
    /// calendar: an injection retry at an earlier transmission's
    /// busy-until time is no fixed offset from the clock.
    fn wake_at(&self, at: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if at == now {
            sched.schedule_now(ev);
        } else if at == now + self.ser {
            sched.schedule_in(self.ser, ev);
        } else {
            sched.schedule_at(at, ev);
        }
    }

    fn schedule_arb(&mut self, router: u32, at: Time, sched: &mut Scheduler<Ev>) {
        if !self.arb_scheduled[router as usize] {
            self.arb_scheduled[router as usize] = true;
            self.wake_at(at, Ev::Arb(router), sched);
        }
    }

    fn schedule_nic(&mut self, node: u32, at: Time, sched: &mut Scheduler<Ev>) {
        if !self.nic_try_scheduled[node as usize] {
            self.nic_try_scheduled[node as usize] = true;
            self.wake_at(at, Ev::NicTry(node), sched);
        }
    }

    fn apply_driver_output(
        &mut self,
        now: Time,
        node: u32,
        out: crate::driver::DriverOutput,
        sched: &mut Scheduler<Ev>,
    ) {
        let cap = self.rp.nic_queue_cap;
        for cmd in out.sends {
            for _ in 0..cmd.count {
                self.metrics.on_generated(now);
                self.metrics.note_flow_generated(node);
                if cap > 0 && self.nic_len[node as usize] >= cap {
                    // Admission control: the NIC queue is full, so the packet
                    // is refused at the edge and counted as an ingress drop.
                    self.metrics.on_ingress_drop(now);
                    self.oracle
                        .note(now.as_ps(), "drop:ingress", u64::from(node), 0);
                    self.oracle.progress(now.as_ps());
                    continue;
                }
                let pkt = self.packets.len() as PktId;
                self.packets.push(RPacket {
                    src: NodeId(node),
                    dst: cmd.dst,
                    generated_at: now,
                    route: RouteState::default(),
                    decision: (0, 0),
                });
                self.queues.add_id();
                self.oracle.flow_opened(node);
                self.nic_push_back(node as usize, pkt);
                if self.rp.deadline_ps > 0 {
                    // Eager expiry: revisit the queue when this packet's
                    // age budget runs out, so the deadline is enforced
                    // even if no injection credit ever arrives to
                    // trigger an attempt. The handler is idempotent —
                    // a live head just retries injection.
                    sched.schedule_at(
                        now + Duration::from_ps(self.rp.deadline_ps),
                        Ev::NicTry(node),
                    );
                }
                self.oracle.check_occupancy(
                    now.as_ps(),
                    node,
                    u64::from(self.nic_len[node as usize]),
                    u64::from(cap),
                );
            }
        }
        if self.nic_front(node as usize).is_some() {
            self.schedule_nic(node, now, sched);
        }
        if let Some(t) = out.wake_at_ps {
            sched.schedule_at(Time::from_ps(t), Ev::Wake(node));
        }
    }

    /// Runs the allocation loop of one router; grants as many
    /// (input, output) matches as possible at `now`. It visits only the
    /// requested outputs, in ascending port order, re-reading the mask
    /// after each grant, so a head a grant exposes is seen by every later
    /// output of the same round.
    fn arbitrate(&mut self, now: Time, router: u32, sched: &mut Scheduler<Ev>) {
        debug_assert!(
            self.busy_until[router as usize] <= now,
            "router {router} arbitrates at {now:?} with an output still busy"
        );
        let vcs = self.rp.vcs;
        let nq = (self.radix(router) * vcs) as usize;
        let pb = self.port_base(router);
        let qb = self.q_base(router);
        let ser = self.ser;
        let mut granted = false;
        let mut next = 0;

        while let Some(out) = self.next_active(router, next) {
            next = out + 1;
            let out_port = out as u32;
            let peer = self.graph.peer(router, out_port);
            // No probe can grant towards a router none of whose
            // downstream VCs has a free slot.
            let cb = qb + self.qidx(out_port, 0);
            if matches!(peer, Endpoint::Router { .. })
                && self.credits[cb..cb + vcs as usize].iter().all(|&c| c == 0)
            {
                continue;
            }
            let slot = self.req_slot(router, out_port);
            // Round-robin for fairness: the first requesting input queue
            // cyclically from `rr` whose downstream VC has space.
            let start = self.rr[router as usize] as usize;
            let mut grant = None;
            'probe: for (lo, hi) in [(start, nq), (0, start)] {
                let mut from = lo;
                while let Some(qi) = self.next_request(slot, from, hi) {
                    from = qi + 1;
                    // A set bit names a non-empty queue; an empty one is
                    // skipped rather than trusted.
                    let Some(pkt) = self.queues.front(qb + qi) else {
                        continue;
                    };
                    let dvc = self.packets[pkt as usize].decision.1;
                    debug_assert!(dvc < vcs, "downstream VC {dvc} of {vcs}");
                    let has_credit = match peer {
                        Endpoint::Router { .. } => self.credits[qb + self.qidx(out_port, dvc)] > 0,
                        Endpoint::Node(_) => true, // nodes always sink
                        Endpoint::Unused => {
                            // Can't happen with a correct routing table;
                            // record instead of panicking and let the
                            // stall detector surface the wedged flow.
                            self.oracle.record(
                                now.as_ps(),
                                Violation::ResidualState {
                                    what: "route_to_unused_port".into(),
                                    count: u64::from(router),
                                },
                            );
                            false
                        }
                    };
                    if has_credit {
                        grant = Some((qi, pkt, dvc));
                        break 'probe;
                    }
                }
            }
            let Some((qi, pkt, dvc)) = grant else {
                continue;
            };
            let in_vc = (qi as u32) % vcs;
            let in_port = (qi as u32) / vcs;
            self.rq_pop_front(router, qi);
            self.out_pending[pb + out] -= 1;
            self.rr[router as usize] = (qi as u32 + 1) % nq as u32;
            granted = true;

            // Return the freed input slot upstream once the tail passes.
            self.refund_credit(ser, router, in_port, in_vc, sched);

            // Launch downstream.
            let hop = Duration::from_ps(self.rp.switch_latency_ps)
                + Duration::from_ps(self.graph.delay(router, out_port));
            match peer {
                Endpoint::Router {
                    router: dr,
                    port: dp,
                } => {
                    let idx = qb + self.qidx(out_port, dvc);
                    self.credits[idx] -= 1;
                    sched.schedule_in(
                        hop,
                        Ev::Arrive {
                            pkt,
                            router: dr,
                            port: dp,
                            vc: dvc,
                        },
                    );
                }
                Endpoint::Node(n) => {
                    sched.schedule_in(hop + ser, Ev::Deliver { pkt, node: n.0 });
                }
                Endpoint::Unused => {} // filtered by has_credit above
            }
        }
        // Every output granted this round is busy until now+ser; revisit
        // then. Until that `Arb` runs, `arb_scheduled` holds back any
        // earlier one, so no output is busy when the router next
        // arbitrates.
        if granted {
            self.busy_until[router as usize] = now + ser;
            self.schedule_arb(router, now + ser, sched);
        }
    }

    /// Finalizes the run.
    pub fn into_report(mut self, end: Time) -> LatencyReport {
        self.report(end)
    }
}

/// First set bit of the bitset `words` in `from..end`.
fn first_set(words: &[u64], from: usize, end: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut bits = words.get(w)? & (u64::MAX << (from % 64));
    while bits == 0 {
        w += 1;
        if w * 64 >= end {
            return None;
        }
        bits = *words.get(w)?;
    }
    let i = w * 64 + bits.trailing_zeros() as usize;
    (i < end).then_some(i)
}

impl PacketModel for RouterNet {
    const WAKE: fn(u32) -> Ev = Ev::Wake;
    const FAULT: fn(u32) -> Ev = Ev::Fault;

    fn parts(&mut self) -> (&mut Driver, &mut Collector, &mut Oracle, &mut FaultPlan) {
        (
            &mut self.driver,
            &mut self.metrics,
            &mut self.oracle,
            &mut self.plan,
        )
    }

    /// Feeds the stuck-flow detector the number of packets still owed a
    /// terminal outcome.
    fn oracle_tick(&mut self, now: Time) -> bool {
        let outstanding = self
            .metrics
            .generated()
            .saturating_sub(self.metrics.delivered())
            .saturating_sub(self.metrics.abandoned())
            .saturating_sub(self.metrics.expired())
            .saturating_sub(self.metrics.ingress_drops());
        self.oracle.starvation_tick(now.as_ps());
        self.oracle.check_stall(now.as_ps(), outstanding)
    }

    /// Drain audit, run in every build: with the event queue empty every
    /// packet must have a terminal outcome, every queue must be empty, and
    /// every credit counter must be back at capacity — including after
    /// kill/revive cycles, because kills flush queues with upstream
    /// refunds and credits keep returning to dead routers.
    fn oracle_check_drained(&mut self, end: Time) {
        let at = end.as_ps();
        self.oracle.ledger(at, &self.metrics);
        let cap = self.vc_cap;
        let vcs = self.rp.vcs as usize;
        for r in 0..self.router_down.len() {
            let qb = self.q_base(r as u32);
            let nq = (self.radix(r as u32) as usize) * vcs;
            let queued = self.q_len[qb..qb + nq].iter().map(|&l| u64::from(l)).sum();
            self.oracle
                .residual(at, format_args!("router[{r}].queues"), queued);
            for idx in 0..nq {
                let c = self.credits[qb + idx];
                if c != cap {
                    self.oracle.record(
                        at,
                        Violation::CreditLeak {
                            element: "router".into(),
                            index: r as u32,
                            port: idx as u32,
                            credits: c,
                            cap,
                        },
                    );
                }
            }
        }
        for n in 0..self.nic_len.len() {
            let queued = u64::from(self.nic_len[n]);
            self.oracle
                .residual(at, format_args!("nic[{n}].queue"), queued);
            for vc in 0..vcs {
                let c = self.nic_credits[n * vcs + vc];
                if c != cap {
                    self.oracle.record(
                        at,
                        Violation::CreditLeak {
                            element: "nic".into(),
                            index: n as u32,
                            port: vc as u32,
                            credits: c,
                            cap,
                        },
                    );
                }
            }
        }
    }
}

impl Model for RouterNet {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Wake(node) => {
                let out = self.driver.wakeup(node, now.as_ps());
                self.apply_driver_output(now, node, out, sched);
            }
            Ev::NicTry(node) => {
                let n = node as usize;
                self.nic_try_scheduled[n] = false;
                // Deadline check at the head of the queue: the NIC FIFO
                // is ordered by admission time, so stale heads are shed
                // here — expiring a packet burns no transmit slot, and
                // under sustained overload it keeps the bounded queue
                // from hoarding work nobody is waiting for anymore.
                let deadline = self.rp.deadline_ps;
                if deadline > 0 {
                    while let Some(head) = self.nic_front(n) {
                        let age = now.since(self.packets[head as usize].generated_at);
                        if age.as_ps() < deadline {
                            break;
                        }
                        self.nic_pop_front(n);
                        let src = self.packets[head as usize].src.0;
                        self.metrics.on_expired(now);
                        self.oracle.flow_closed(src);
                        self.oracle.note(
                            now.as_ps(),
                            "expire:nic",
                            u64::from(head),
                            u64::from(src),
                        );
                        self.oracle.progress(now.as_ps());
                    }
                }
                let Some(pkt) = self.nic_front(n) else {
                    return;
                };
                let busy = self.nic_tx_busy[n];
                if busy > now {
                    self.schedule_nic(node, busy, sched);
                    return;
                }
                let vcs = self.rp.vcs as usize;
                let vc = self.alg.injection_vc(u64::from(pkt));
                if self.nic_credits[n * vcs + vc as usize] == 0 {
                    // Wait for a credit event to re-trigger.
                    return;
                }
                self.nic_pop_front(n);
                self.nic_credits[n * vcs + vc as usize] -= 1;
                let ser = self.ser;
                self.nic_tx_busy[n] = now + ser;
                if self.nic_front(n).is_some() {
                    self.schedule_nic(node, now + ser, sched);
                }
                let (router, port) = self.graph.node_attach[n];
                // UGAL decision happens at the source router's state.
                let mut route = RouteState::default();
                {
                    let pb = self.port_base(router);
                    let radix = self.radix(router) as usize;
                    let pending: &[u32] = &self.out_pending[pb..pb + radix];
                    self.alg.on_inject(
                        router,
                        NodeId(node),
                        self.packets[pkt as usize].dst,
                        &mut route,
                        &pending,
                        &mut self.rng,
                    );
                }
                self.packets[pkt as usize].route = route;
                self.metrics.on_injection();
                let delay = Duration::from_ps(self.graph.delay(router, port));
                sched.schedule_in(
                    delay,
                    Ev::Arrive {
                        pkt,
                        router,
                        port,
                        vc,
                    },
                );
            }
            Ev::Arrive {
                pkt,
                router,
                port,
                vc,
            } => {
                // A dead router eats the packet; with no retransmission
                // layer in the electrical model this is a terminal loss.
                if self.is_down(router) {
                    self.metrics.on_forward_attempt(true);
                    self.metrics.on_abandoned(now);
                    if let Some(src) = self.packets.get(pkt as usize).map(|p| p.src.0) {
                        self.oracle.flow_closed(src);
                    }
                    self.oracle
                        .note(now.as_ps(), "drop:dead", u64::from(pkt), u64::from(router));
                    self.oracle.progress(now.as_ps());
                    self.refund_credit(Duration::ZERO, router, port, vc, sched);
                    return;
                }
                // Deadline check on arrival: a packet whose age passed
                // the budget expires at the next router it reaches (the
                // same credit-refund path a dead-router drop takes), so
                // in-network staleness is bounded by one hop time. The
                // drained buffer slot goes back upstream; without this,
                // a storm's backlog spends post-storm bandwidth
                // delivering packets nobody is waiting for anymore.
                let deadline = self.rp.deadline_ps;
                if deadline > 0
                    && now.since(self.packets[pkt as usize].generated_at).as_ps() >= deadline
                {
                    self.metrics.on_forward_attempt(true);
                    self.metrics.on_expired(now);
                    if let Some(src) = self.packets.get(pkt as usize).map(|p| p.src.0) {
                        self.oracle.flow_closed(src);
                    }
                    self.oracle
                        .note(now.as_ps(), "expire:hop", u64::from(pkt), u64::from(router));
                    self.oracle.progress(now.as_ps());
                    self.refund_credit(Duration::ZERO, router, port, vc, sched);
                    return;
                }
                // Compute the forwarding decision once, on arrival.
                let dst = self.packets[pkt as usize].dst;
                let mut route = self.packets[pkt as usize].route;
                let pb = self.port_base(router);
                let decision = {
                    let radix = self.radix(router) as usize;
                    let pending: &[u32] = &self.out_pending[pb..pb + radix];
                    self.alg.route(
                        &self.graph,
                        router,
                        u64::from(pkt),
                        dst,
                        &mut route,
                        &pending,
                    )
                };
                self.packets[pkt as usize].route = route;
                self.packets[pkt as usize].decision = decision;
                let qi = self.qidx(port, vc);
                self.rq_push_back(router, qi, pkt);
                // Credit flow control bounds every input queue by the VC
                // capacity; growth past it means a credit was minted.
                let len = u64::from(self.q_len[self.q_base(router) + qi]);
                if len > u64::from(self.vc_cap) {
                    self.oracle.record(
                        now.as_ps(),
                        Violation::QueueOverflow {
                            router,
                            queue: self.qidx(port, vc) as u32,
                            len,
                            bound: u64::from(self.vc_cap),
                        },
                    );
                }
                self.out_pending[pb + decision.0 as usize] += 1;
                self.metrics.on_forward_attempt(false);
                self.schedule_arb(router, now, sched);
            }
            Ev::Arb(router) => {
                self.arb_scheduled[router as usize] = false;
                if self.is_down(router) {
                    return; // its queues were flushed at kill time
                }
                self.arbitrate(now, router, sched);
            }
            Ev::Credit { router, port, vc } => {
                let cap = self.vc_cap;
                if router == u32::MAX {
                    let node = port;
                    let vcs = self.rp.vcs;
                    let slot = if vc < vcs {
                        self.nic_credits
                            .get_mut(node as usize * vcs as usize + vc as usize)
                    } else {
                        None
                    };
                    match slot {
                        Some(c) if *c < cap => *c += 1,
                        Some(c) => {
                            // A credit beyond capacity was minted somewhere:
                            // cap it (keeps the run live) and report.
                            let credits = c.saturating_add(1);
                            self.oracle.record(
                                now.as_ps(),
                                Violation::CreditOverflow {
                                    router: u32::MAX,
                                    port: node,
                                    credits,
                                    cap,
                                },
                            );
                        }
                        None => self.oracle.record(
                            now.as_ps(),
                            Violation::CounterUnderflow {
                                counter: "nic_credit_target".into(),
                            },
                        ),
                    }
                    if self.nic_len.get(node as usize).is_some_and(|&l| l > 0) {
                        self.schedule_nic(node, now, sched);
                    }
                } else {
                    let idx = self.qidx(port, vc);
                    let slot = if (router as usize) < self.router_down.len()
                        && idx < (self.radix(router) * self.rp.vcs) as usize
                    {
                        let flat = self.q_base(router) + idx;
                        self.credits.get_mut(flat)
                    } else {
                        None
                    };
                    match slot {
                        Some(c) if *c < cap => *c += 1,
                        Some(c) => {
                            let credits = c.saturating_add(1);
                            self.oracle.record(
                                now.as_ps(),
                                Violation::CreditOverflow {
                                    router,
                                    port,
                                    credits,
                                    cap,
                                },
                            );
                        }
                        None => self.oracle.record(
                            now.as_ps(),
                            Violation::CounterUnderflow {
                                counter: "router_credit_target".into(),
                            },
                        ),
                    }
                    self.schedule_arb(router, now, sched);
                }
            }
            Ev::Deliver { pkt, node } => {
                let latency = now.since(self.packets[pkt as usize].generated_at);
                self.metrics.on_delivered(latency, now);
                let src = self.packets[pkt as usize].src.0;
                self.metrics.note_flow_delivered(src);
                self.oracle.flow_delivered(src);
                self.oracle.flow_closed(src);
                self.oracle.progress(now.as_ps());
                let out = self.driver.delivered(node, now.as_ps());
                self.apply_driver_output(now, node, out, sched);
            }
            Ev::Fault(idx) => {
                if let Some(ev) = self.plan.events.get(idx as usize).copied() {
                    self.apply_fault(now, ev.kind, sched);
                    self.oracle.note(now.as_ps(), "fault", u64::from(idx), 0);
                }
            }
        }
    }
}

/// Runs an electrical network simulation under `spec` to completion (or
/// the horizon). The electrical model honors router-granularity fault
/// kinds ([`FaultKind::FailFraction`], [`FaultKind::RouterDown`],
/// [`FaultKind::ReviveAll`]); packets reaching a dead router are terminal
/// losses (`abandoned` in the report) since these baselines have no
/// retransmission layer. Returns the report and the kernel-state
/// accounting, as [`crate::baldur_net::simulate`] does.
pub fn simulate(
    graph: RouterGraph,
    alg: RoutingAlg,
    rp: RouterParams,
    driver: Driver,
    spec: &RunSpec,
) -> (LatencyReport, StateStats) {
    let per_node = driver.total_to_send() / u64::from(driver.nodes().max(1)) + 1;
    let horizon_ns = 100 * per_node * spec.link.packet_time().as_ps() / 1_000 + 50_000_000;
    runner::run_packet_model(driver, spec, horizon_ns, |driver, sample_cap| {
        RouterNet::new(graph, alg, spec.link, rp, driver, spec.seed, sample_cap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::routing::build_mb_graph;
    use crate::traffic::Pattern;
    use baldur_topo::dragonfly::Dragonfly;
    use baldur_topo::fattree::FatTree;
    use baldur_topo::multibutterfly::MultiButterfly;

    fn link() -> LinkParams {
        LinkParams::paper()
    }

    #[test]
    fn fattree_delivers_everything_at_low_load() {
        let ft = FatTree::new(4); // 16 hosts
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::open_loop(16, Pattern::RandomPermutation, 0.1, 40, &link(), 2);
        let r = simulate(
            g,
            RoutingAlg::FatTree(ft),
            RouterParams::paper(),
            d,
            &RunSpec::new(link(), 2),
        )
        .0;
        assert_eq!(r.delivered, r.generated);
        // Unloaded floor: up to 4 router hops x 90 ns + links + one
        // serialization >= ~500 ns.
        assert!(r.avg_ns > 400.0 && r.avg_ns < 2_000.0, "avg {}", r.avg_ns);
    }

    #[test]
    fn a_horizon_stop_records_the_packets_never_generated() {
        // 64 nodes on a k = 8 fat-tree at load 0.5: a node's 50 packets
        // span about 16 us, so a 5 us horizon stops the run with most
        // packets never generated, and the stop is recorded beside the
        // report, whose shape is golden.
        let seed = 0xBA1D;
        let run = |horizon_ns| {
            let ft = FatTree::at_least(64);
            let g = ft.build_graph(10_000, 50_000, 100_000);
            let d = Driver::open_loop(64, Pattern::UniformRandom, 0.5, 50, &link(), seed);
            let spec = RunSpec {
                horizon_ns,
                ..RunSpec::new(link(), seed)
            };
            simulate(g, RoutingAlg::FatTree(ft), RouterParams::paper(), d, &spec)
        };
        let (r, stats) = run(Some(5_000));
        assert!(r.generated < 64 * 50, "generated {}", r.generated);
        assert!(stats.unsent_at_horizon > 0);
        assert_eq!(stats.unsent_at_horizon, 64 * 50 - r.generated);
        assert!(stats.peak_pending_events > 0 && stats.queue_bytes > 0);

        // A run that drains owes nothing.
        let (r, stats) = run(None);
        assert_eq!(r.delivered, 64 * 50);
        assert_eq!(stats.unsent_at_horizon, 0);
    }

    #[test]
    fn dragonfly_delivers_everything_at_low_load() {
        let df = Dragonfly::balanced(2); // 72 nodes
        let g = df.build_graph(10_000, 100_000);
        let d = Driver::open_loop(72, Pattern::RandomPermutation, 0.1, 30, &link(), 3);
        let r = simulate(
            g,
            RoutingAlg::Dragonfly(df),
            RouterParams::paper(),
            d,
            &RunSpec::new(link(), 3),
        )
        .0;
        assert_eq!(r.delivered, r.generated);
        assert!(r.avg_ns > 250.0 && r.avg_ns < 2_000.0, "avg {}", r.avg_ns);
    }

    #[test]
    fn electrical_mb_delivers_everything() {
        let mb = MultiButterfly::new(64, 4, 4);
        let g = build_mb_graph(&mb, 100_000, 10_000);
        let d = Driver::open_loop(64, Pattern::Transpose, 0.3, 40, &link(), 4);
        let r = simulate(
            g,
            RoutingAlg::MultiButterfly(mb),
            RouterParams::paper(),
            d,
            &RunSpec::new(link(), 4),
        )
        .0;
        assert_eq!(r.delivered, r.generated);
        // 6 stages x 90 ns + 2 x 100 ns fiber + serialization ~ 0.9 us.
        assert!(r.avg_ns > 600.0 && r.avg_ns < 3_000.0, "avg {}", r.avg_ns);
    }

    #[test]
    fn saturation_inflates_latency() {
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let lo = {
            let d = Driver::open_loop(16, Pattern::Hotspot, 0.1, 30, &link(), 5);
            simulate(
                g.clone(),
                RoutingAlg::FatTree(ft.clone()),
                RouterParams::paper(),
                d,
                &RunSpec::new(link(), 5),
            )
            .0
        };
        let hi = {
            let d = Driver::open_loop(16, Pattern::Hotspot, 0.9, 30, &link(), 5);
            simulate(
                g,
                RoutingAlg::FatTree(ft),
                RouterParams::paper(),
                d,
                &RunSpec::new(link(), 5),
            )
            .0
        };
        assert!(
            hi.avg_ns > 2.0 * lo.avg_ns,
            "hotspot at 0.9 ({}) must crush 0.1 ({})",
            hi.avg_ns,
            lo.avg_ns
        );
    }

    #[test]
    fn ping_pong_on_fattree() {
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let pairs = crate::workloads::ping_pong1_pairs(16, 1);
        let d = Driver::ping_pong(pairs, 5, 1);
        let r = simulate(
            g,
            RoutingAlg::FatTree(ft),
            RouterParams::paper(),
            d,
            &RunSpec::new(link(), 1),
        )
        .0;
        assert_eq!(r.delivered, r.generated);
        assert_eq!(r.delivered, 16 / 2 * 2 * 5);
    }

    #[test]
    fn ugal_beats_minimal_on_adversarial_traffic() {
        // ping_pong2-style group pairing concentrates all minimal routes
        // onto one global link per group pair; UGAL detours around it.
        let df = Dragonfly::balanced(2); // 72 nodes
        let run_with = |alg: RoutingAlg| {
            let g = df.build_graph(10_000, 100_000);
            let d = Driver::open_loop(72, Pattern::GroupPermutation, 0.6, 40, &link(), 8);
            simulate(g, alg, RouterParams::paper(), d, &RunSpec::new(link(), 8)).0
        };
        let adaptive = run_with(RoutingAlg::Dragonfly(df.clone()));
        let minimal = run_with(RoutingAlg::DragonflyMinimal(df.clone()));
        assert!(adaptive.delivery_ratio() > 0.99);
        assert!(
            minimal.avg_ns > 1.3 * adaptive.avg_ns,
            "minimal {} vs adaptive {}",
            minimal.avg_ns,
            adaptive.avg_ns
        );
    }

    #[test]
    fn credits_prevent_loss_even_at_saturation() {
        // Electrical networks are lossless: an oversubscribed hotspot
        // backs up through credits but every packet eventually lands.
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::open_loop(16, Pattern::Hotspot, 1.0, 30, &link(), 6);
        let r = simulate(
            g,
            RoutingAlg::FatTree(ft),
            RouterParams::paper(),
            d,
            &RunSpec::new(link(), 6),
        )
        .0;
        assert_eq!(r.delivered, r.generated, "lossless under backpressure");
        assert_eq!(r.drop_attempts, 0);
    }

    #[test]
    fn dead_routers_lose_packets_but_the_network_stays_live() {
        // 15% dead routers: packets reaching them are terminal losses,
        // credits are refunded so everything else still flows, and the
        // run drains with every packet accounted for.
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::open_loop(16, Pattern::RandomPermutation, 0.3, 30, &link(), 12);
        let spec = RunSpec {
            plan: FaultPlan::degradation(12, 0.15),
            ..RunSpec::new(link(), 12)
        };
        let r = simulate(g, RoutingAlg::FatTree(ft), RouterParams::paper(), d, &spec).0;
        assert!(r.abandoned > 0, "dead routers must eat something");
        assert!(r.delivered > 0, "the rest of the fabric must still work");
        assert_eq!(
            r.delivered + r.abandoned,
            r.generated,
            "every packet must be delivered or counted lost"
        );
    }

    /// Rebuilds every request set and requested-output mask from the
    /// queue heads and their decisions and checks them against the
    /// maintained bits.
    fn assert_request_sets_match_heads(m: &RouterNet) {
        let mut rebuilt = vec![0u64; m.requests.len()];
        let mut active = vec![0u64; m.active.len()];
        for r in 0..m.router_down.len() as u32 {
            let radix = m.radix(r);
            let qb = m.q_base(r);
            for qi in 0..(radix * m.rp.vcs) as usize {
                let Some(head) = m.queues.front(qb + qi) else {
                    continue;
                };
                let out = m.packets[head as usize].decision.0;
                if out < radix {
                    rebuilt[m.req_slot(r, out) + qi / 64] |= 1 << (qi % 64);
                    active[m.act_slot(r) + out as usize / 64] |= 1 << (out % 64);
                }
            }
        }
        assert!(
            m.requests == rebuilt,
            "request sets diverged from queue heads"
        );
        assert!(
            m.active == active,
            "requested-output masks diverged from the request sets"
        );
    }

    /// A [`RouterNet`] that looks at every `Arb` before it runs: it
    /// counts the arbitrations, and those whose router still has an
    /// output busy past the clock (none, by the invariant in DESIGN.md,
    /// "Arbitration over requesting outputs").
    struct ArbWatch {
        net: RouterNet,
        arbs: u64,
        busy_at_arb: u64,
    }

    impl Model for ArbWatch {
        type Event = Ev;

        fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
            if let Ev::Arb(r) = ev {
                self.arbs += 1;
                self.busy_at_arb += u64::from(self.net.busy_until[r as usize] > now);
            }
            self.net.handle(now, ev, sched);
        }
    }

    impl PacketModel for ArbWatch {
        const WAKE: fn(u32) -> Ev = Ev::Wake;
        const FAULT: fn(u32) -> Ev = Ev::Fault;

        fn parts(&mut self) -> (&mut Driver, &mut Collector, &mut Oracle, &mut FaultPlan) {
            self.net.parts()
        }

        fn oracle_tick(&mut self, now: Time) -> bool {
            self.net.oracle_tick(now)
        }

        fn oracle_check_drained(&mut self, end: Time) {
            self.net.oracle_check_drained(end);
        }
    }

    /// Runs `model` to drain under `plan` in slices of `every` events,
    /// checking the request sets after each slice and the output busy
    /// times at every `Arb`, and hands back the final model (with its
    /// `Arb` counts) and the number of slices that ended with a request
    /// bit in a set's second or later word.
    fn drain_checking_requests(model: RouterNet, plan: &FaultPlan, every: u64) -> (ArbWatch, u32) {
        let spec = RunSpec {
            plan: plan.clone(),
            ..RunSpec::new(link(), plan.seed)
        };
        let watch = ArbWatch {
            net: model,
            arbs: 0,
            busy_at_arb: 0,
        };
        let mut sim = runner::install(watch, &spec, 4096);
        let mut high_word_slices = 0;
        loop {
            let stop = sim.run_until(Time::from_ns(500_000_000), every);
            let m = &sim.model().net;
            assert_request_sets_match_heads(m);
            if m.requests
                .chunks(m.req_words)
                .any(|set| set[1..].iter().any(|&w| w != 0))
            {
                high_word_slices += 1;
            }
            match stop {
                baldur_sim::StopReason::Budget => {}
                baldur_sim::StopReason::Drained => break,
                other => panic!("load must drain, stopped at {other:?}"),
            }
        }
        (sim.into_model(), high_word_slices)
    }

    /// Runs a fat-tree load to drain under `plan` and hands back the
    /// final model so tests can inspect private credit/queue state.
    fn run_to_drain(plan: &FaultPlan) -> RouterNet {
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::open_loop(16, Pattern::RandomPermutation, 0.3, 30, &link(), 21);
        let model = RouterNet::new(
            g,
            RoutingAlg::FatTree(ft),
            link(),
            RouterParams::paper(),
            d,
            21,
            4096,
        );
        drain_checking_requests(model, plan, 64).0.net
    }

    #[test]
    fn request_sets_track_queue_heads_under_saturation() {
        // A 4x storm backs every queue up through credits, so heads
        // change on arrivals, grants and same-Arb pops alike.
        let mb = MultiButterfly::new(64, 4, 4);
        let g = build_mb_graph(&mb, 100_000, 10_000);
        let d = Driver::storm(64, Pattern::UniformRandom, 4.0, 20, &link(), 4);
        let model = RouterNet::new(
            g,
            RoutingAlg::MultiButterfly(mb),
            link(),
            RouterParams::paper(),
            d,
            4,
            4096,
        );
        let (mb_done, _) = drain_checking_requests(model, &FaultPlan::new(4), 97);
        assert_eq!(mb_done.net.metrics.delivered(), 64 * 20);

        // k = 22: 66 input queues per router, so each set spans two words
        // and the second one must actually carry requests.
        let ft = FatTree::new(22);
        let nodes = ft.node_count() as u32;
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::storm(nodes, Pattern::UniformRandom, 4.0, 2, &link(), 5);
        let model = RouterNet::new(
            g,
            RoutingAlg::FatTree(ft),
            link(),
            RouterParams::paper(),
            d,
            5,
            4096,
        );
        assert_eq!(model.req_words, 2);
        let (ft_done, high_word_slices) = drain_checking_requests(model, &FaultPlan::new(5), 997);
        assert_eq!(ft_done.net.metrics.delivered(), 2 * u64::from(nodes));
        assert!(high_word_slices > 0, "no request ever reached word 1");
    }

    #[test]
    fn no_output_is_busy_when_its_router_arbitrates() {
        // Saturated: a 4x storm keeps every router granting back to back,
        // so each grant's follow-up `Arb` lands exactly at its busy-until.
        let mb = MultiButterfly::new(64, 4, 4);
        let g = build_mb_graph(&mb, 100_000, 10_000);
        let d = Driver::storm(64, Pattern::UniformRandom, 4.0, 20, &link(), 4);
        let model = RouterNet::new(
            g,
            RoutingAlg::MultiButterfly(mb),
            link(),
            RouterParams::paper(),
            d,
            4,
            4096,
        );
        let (saturated, _) = drain_checking_requests(model, &FaultPlan::new(4), 997);
        assert!(saturated.arbs > 0);
        assert_eq!(saturated.busy_at_arb, 0, "{} arbitrations", saturated.arbs);

        // Chaos: routers die and come back while their `Arb`s are queued;
        // an `Arb` that finds its router dead grants nothing and a revived
        // router waits for its next arrival or credit.
        use crate::faults::{ChaosProfile, ChaosShape};
        let shape = ChaosShape {
            stages: 0,
            width: 0,
            m: 0,
            nodes: 16,
            routers: 20,
        };
        let profile = ChaosProfile {
            warmup_ps: 1_000_000,
            last_repair_ps: 20_000_000,
            pairs: 8,
        };
        let plan = FaultPlan::chaos(35, &shape, &profile);
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::open_loop(16, Pattern::RandomPermutation, 0.9, 60, &link(), 35);
        let model = RouterNet::new(
            g,
            RoutingAlg::FatTree(ft),
            link(),
            RouterParams::paper(),
            d,
            35,
            4096,
        );
        let (chaos, _) = drain_checking_requests(model, &plan, 251);
        assert!(
            chaos.net.metrics.abandoned() > 0,
            "the plan must kill something"
        );
        assert!(chaos.arbs > 0);
        assert_eq!(chaos.busy_at_arb, 0, "{} arbitrations", chaos.arbs);
    }

    /// Queues a packet routed to `(out, vc 0)` on input queue `qi` of
    /// router 0, as an arrival does.
    fn enqueue(m: &mut RouterNet, qi: usize, out: u32) -> PktId {
        let pkt = m.packets.len() as PktId;
        m.packets.push(RPacket {
            src: NodeId(0),
            dst: NodeId(0),
            generated_at: Time::ZERO,
            route: RouteState::default(),
            decision: (out, 0),
        });
        m.queues.add_id();
        m.rq_push_back(0, qi, pkt);
        m.out_pending[out as usize] += 1;
        pkt
    }

    #[test]
    fn a_radix_over_64_router_arbitrates_through_the_masks_second_word() {
        // One router of radix 70 (two mask words, four request-set words)
        // with a node on every port but the last, which leads to a second
        // router.
        let mut g = RouterGraph::new(2, 70);
        for p in 0..69 {
            g.attach_node(0, p, 10_000);
        }
        g.connect((0, 69), (1, 0), 10_000);
        let d = Driver::open_loop(69, Pattern::UniformRandom, 0.1, 1, &link(), 1);
        let mut m = RouterNet::new(
            g,
            RoutingAlg::FatTree(FatTree::new(4)),
            link(),
            RouterParams::paper(),
            d,
            1,
            16,
        );
        assert_eq!((m.act_words, m.req_words), (2, 4));
        // Queue 206 (port 68, VC 2) holds a packet for output 5, then one
        // for output 66; queue 3 (port 1) one for output 65, then one for
        // output 2; queue 6 (port 2) one for output 69, whose downstream
        // router has no credit left on any VC.
        let a = enqueue(&mut m, 206, 5);
        let b = enqueue(&mut m, 206, 66);
        let c = enqueue(&mut m, 3, 65);
        let d = enqueue(&mut m, 3, 2);
        let e = enqueue(&mut m, 6, 69);
        m.credits[69 * 3..70 * 3].fill(0);
        assert_request_sets_match_heads(&m);
        assert_eq!(m.active[..2], [1 << 5, 1 << (65 - 64) | 1 << (69 - 64)]);

        let mut sched = Scheduler::new();
        m.arbitrate(Time::ZERO, 0, &mut sched);
        assert_request_sets_match_heads(&m);
        // Output 5 grants `a`, exposing `b` to output 66 in the same round;
        // output 65 grants `c`, exposing `d` to output 2, which this round
        // has passed; output 69 has no credit and grants nothing.
        let delivered: Vec<PktId> = std::iter::from_fn(|| sched.pop_scheduled())
            .filter_map(|(_, _, ev)| match ev {
                Ev::Deliver { pkt, .. } => Some(pkt),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [a, c, b]);
        assert_eq!(m.active[..2], [1 << 2, 1 << (69 - 64)]);
        assert_eq!(m.queues.front(3), Some(d));
        assert_eq!(m.queues.front(6), Some(e));
        assert!(m.arb_scheduled[0], "the next round waits one serialization");
    }

    #[test]
    fn matched_plan_restores_router_state_byte_identically() {
        // Two routers go down mid-run and come back; at drain, health,
        // every credit counter, and every queue must match a run that
        // never saw a fault — repair is exact, not approximate.
        let plan = FaultPlan::new(77)
            .outage(2_000_000, 3_000_000, FaultKind::RouterDown { router: 2 })
            .outage(4_000_000, 2_500_000, FaultKind::RouterDown { router: 7 });
        let mut faulted = run_to_drain(&plan);
        let fresh = run_to_drain(&FaultPlan::new(77));
        assert_eq!(faulted.down_count, 0);
        assert_eq!(faulted.router_down, fresh.router_down);
        assert_eq!(
            faulted.credits, fresh.credits,
            "router credit state must match"
        );
        assert!((0..faulted.q_len.len()).all(|q| faulted.queues.is_empty(q)));
        assert!(faulted.q_len.iter().all(|&l| l == 0));
        assert!(faulted.requests.iter().all(|&w| w == 0));
        assert_eq!(faulted.out_pending, fresh.out_pending);
        assert_eq!(
            faulted.nic_credits, fresh.nic_credits,
            "NIC credit state must match"
        );
        assert!((0..faulted.nic_len.len()).all(|n| faulted.queues.is_empty(faulted.nic_q(n))));
        // The release drain audit agrees nothing leaked.
        faulted.oracle_check_drained(Time::from_ns(500_000_000));
        assert!(
            faulted.oracle.is_clean(),
            "oracle: {:?}",
            faulted.oracle.summary()
        );
    }

    #[test]
    fn chaos_router_plan_drains_clean_with_recovery_metrics() {
        use crate::faults::{ChaosProfile, ChaosShape};
        let shape = ChaosShape {
            stages: 0,
            width: 0,
            m: 0,
            nodes: 16,
            routers: 8,
        };
        let profile = ChaosProfile {
            warmup_ps: 2_000_000,
            last_repair_ps: 30_000_000,
            pairs: 4,
        };
        let plan = FaultPlan::chaos(33, &shape, &profile);
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::open_loop(16, Pattern::RandomPermutation, 0.3, 40, &link(), 33);
        let spec = RunSpec {
            plan,
            ..RunSpec::new(link(), 33)
        };
        let r = simulate(g, RoutingAlg::FatTree(ft), RouterParams::paper(), d, &spec).0;
        assert!(r.oracle.is_clean(), "oracle: {:?}", r.oracle);
        assert_eq!(r.delivered + r.abandoned, r.generated, "conservation");
        assert_eq!(
            r.recoveries.len(),
            spec.plan.repair_times().len(),
            "one recovery measurement per repair event"
        );
    }

    #[test]
    fn bounded_nic_queue_sheds_storm_overload_with_conservation() {
        // A capped NIC injection queue refuses excess incast arrivals at
        // the edge instead of queueing without bound. Everything admitted
        // still lands (the fabric stays lossless under credits), so the
        // shed packets are exactly the conservation gap.
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::storm(16, Pattern::Incast { fanin: 4 }, 3.0, 40, &link(), 9);
        let rp = RouterParams {
            nic_queue_cap: 4,
            ..RouterParams::paper()
        };
        let r = simulate(g, RoutingAlg::FatTree(ft), rp, d, &RunSpec::new(link(), 9)).0;
        assert_eq!(r.generated, 4 * 40);
        assert!(r.ingress_drops > 0, "storm must overflow the capped queue");
        assert_eq!(r.delivered + r.ingress_drops, r.generated);
        assert_eq!(r.abandoned, 0, "admitted packets are never lost");
        assert_eq!(r.fairness.flows, 4, "only the senders offer traffic");
        assert!(r.fairness.jain > 0.0 && r.fairness.jain <= 1.0);
        assert!(r.oracle.is_clean(), "oracle: {:?}", r.oracle);
    }

    #[test]
    fn nic_deadline_expires_stale_queued_packets_with_conservation() {
        // A hard incast with a deep NIC queue and a deadline shorter
        // than the queue wait: stale heads expire at their injection
        // attempt instead of being transmitted, every packet still has
        // exactly one terminal outcome, and the oracle stays clean.
        let ft = FatTree::new(4);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let d = Driver::storm(16, Pattern::Incast { fanin: 8 }, 4.0, 60, &link(), 11);
        let rp = RouterParams {
            nic_queue_cap: 32,
            deadline_ps: 2_000_000, // 2 us age budget
            ..RouterParams::paper()
        };
        let r = simulate(g, RoutingAlg::FatTree(ft), rp, d, &RunSpec::new(link(), 11)).0;
        assert_eq!(r.generated, 8 * 60);
        assert!(r.expired > 0, "queue wait past the deadline must shed");
        assert_eq!(
            r.delivered + r.expired + r.ingress_drops,
            r.generated,
            "conservation with expiries"
        );
        assert_eq!(r.abandoned, 0, "admitted packets are never lost");
        assert!(r.oracle.is_clean(), "oracle: {:?}", r.oracle);

        // Deadline off (0) is the paper-faithful default: nothing expires.
        let ft2 = FatTree::new(4);
        let g2 = ft2.build_graph(10_000, 50_000, 100_000);
        let d2 = Driver::storm(16, Pattern::Incast { fanin: 8 }, 4.0, 60, &link(), 11);
        let rp2 = RouterParams {
            nic_queue_cap: 32,
            ..RouterParams::paper()
        };
        let r2 = simulate(
            g2,
            RoutingAlg::FatTree(ft2),
            rp2,
            d2,
            &RunSpec::new(link(), 11),
        )
        .0;
        assert_eq!(r2.expired, 0, "deadline 0 never expires");
        assert_eq!(r2.delivered + r2.ingress_drops, r2.generated);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let df = Dragonfly::balanced(2);
            let g = df.build_graph(10_000, 100_000);
            let d = Driver::open_loop(72, Pattern::Bisection, 0.4, 20, &link(), 9);
            simulate(
                g,
                RoutingAlg::Dragonfly(df),
                RouterParams::paper(),
                d,
                &RunSpec::new(link(), 9),
            )
            .0
        };
        let a = run();
        let b = run();
        assert_eq!(a.avg_ns.to_bits(), b.avg_ns.to_bits());
    }
}
