//! The Baldur all-optical network model (paper Sec. IV-E, V).
//!
//! Bufferless, cut-through, drop-and-retransmit:
//!
//! * every switch output port is modelled by a `busy_until` time; a packet
//!   head arriving at a switch checks the `m` ports of its routing
//!   direction *sequentially* (the paper's arbitration) and claims the
//!   first idle one, else the packet is **dropped**;
//! * sources keep unACKed packets in a retransmission buffer; a timeout
//!   with binary exponential backoff re-injects them; receivers ACK every
//!   delivery (ACKs traverse the network and can themselves be dropped —
//!   the source then retransmits and the receiver de-duplicates);
//! * latency charged per hop: `switch_latency` (Table V, 1.5 ns at m=4)
//!   plus a small same-cabinet stage delay; node↔network fibers add the
//!   Table VI 100 ns each way.
//!
//! # State layout (datacenter scale)
//!
//! Hot state is struct-of-arrays keyed by dense ids: one flat `Vec` per
//! NIC field indexed by node id, a single flat port table indexed by
//! `(stage, switch, dir, path)`, and intrusive queue links (a per-packet
//! `next` pointer) instead of per-node `VecDeque`s. Combined-ACK batches
//! live in generational [`Arena`]s; the retired map-based model's reports
//! are pinned by fingerprint in `results/golden/soa_fingerprints.json`.
//! Invariants the layout relies on: packet ids are sequential
//! and never reused (the path-rotation hash keys on them), and a packet
//! sits in at most one NIC queue at a time (one `next` link suffices).

use baldur_sim::rng::StreamRng;
use baldur_sim::{Arena, ArenaStats, Duration, Handle, Model, Scheduler, Simulation, Time};
use baldur_topo::graph::NodeId;
use baldur_topo::staged::Staged;

use crate::config::{BaldurParams, LinkParams, RunSpec};
use crate::driver::Driver;
use crate::faults::{jittered_timeout_ps, FaultPlan, FaultState};
use crate::metrics::{Collector, DeliveryOutcome, LatencyReport};
use crate::oracle::{Oracle, OracleConfig, Violation};

/// Index into the packet table.
type PktId = u32;

/// Null link in the intrusive NIC queues.
const NONE: PktId = PktId::MAX;

#[derive(Debug, Clone, Copy)]
struct PacketState {
    src: NodeId,
    dst: NodeId,
    generated_at: Time,
    attempts: u32,
    outcome: DeliveryOutcome,
    acked: bool,
    /// The retransmission-buffer slot was given back (first ACK or retry
    /// exhaustion — whichever comes first). Guards the `outstanding`
    /// decrement so a repair racing a backoff retry (ACK arriving after
    /// the source already gave up, or after a delivered packet's timers
    /// exhausted) cannot release the same slot twice.
    released: bool,
    /// For ACK packets, the data packet being acknowledged.
    acks: Option<PktId>,
    /// For combined ACK packets, the arena slot holding the whole batch
    /// (absent for single ACKs — `acks` already names the one packet).
    batch: Option<Handle>,
}

/// Events of the Baldur model.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Driver wakeup for a node.
    Wake(u32),
    /// NIC should try to transmit.
    TryInject(u32),
    /// A packet head arrives at a switch of `stage`.
    Hop {
        /// Packet id.
        pkt: PktId,
        /// Stage index.
        stage: u32,
        /// Switch index within the stage.
        switch: u32,
    },
    /// A packet tail arrives at its destination node.
    Arrive {
        /// Packet id.
        pkt: PktId,
    },
    /// Retransmission timer for a data packet.
    Timeout {
        /// Packet id.
        pkt: PktId,
        /// The attempt this timer was armed for (stale timers no-op).
        attempt: u32,
    },
    /// Coalescing window expired: flush the combined ACK `node` owes
    /// `src`.
    AckFlush {
        /// The receiver holding the pending ACKs.
        node: u32,
        /// The data source being acknowledged.
        src: u32,
    },
    /// Apply fault-plan event `idx` (scheduled at its `at_ps`).
    Fault(u32),
}

/// Kernel-state accounting for one run — the raw material of the
/// `scaling` experiment's bytes-per-endpoint and events/sec curves.
/// Deliberately separate from [`LatencyReport`] (whose shape is golden).
#[derive(Debug, Clone, Copy, Default)]
pub struct StateStats {
    /// Bytes of model state reserved: flat table and queue capacities
    /// plus arena slabs (the scale-dominant terms).
    pub state_bytes: u64,
    /// Combined-ACK batch arena counters.
    pub ack_batches: ArenaStats,
    /// Pending (coalescing-window) ACK batch arena counters.
    pub pending_batches: ArenaStats,
    /// Peak simultaneous scheduled events.
    pub peak_pending_events: u64,
    /// Total events ever scheduled.
    pub events_scheduled: u64,
    /// Bytes the scheduler's event list reserves at the end of the run
    /// (calendar slab plus bucket table, by capacity). Not part of
    /// `state_bytes`, which counts the model alone.
    pub queue_bytes: u64,
}

/// The Baldur network simulation model.
pub struct BaldurNet {
    topo: Staged,
    params: BaldurParams,
    link: LinkParams,
    driver: Driver,
    active_nodes: u32,
    /// `ports[stage * port_stride + switch * 2m + dir * m + path]` →
    /// busy-until (one flat table across all stages).
    ports: Vec<Time>,
    /// Ports per stage (`switches_per_stage * 2m`).
    port_stride: usize,
    // ---- NIC state, struct-of-arrays indexed by node id ----
    tx_busy_until: Vec<Time>,
    try_scheduled: Vec<bool>,
    outstanding: Vec<u32>,
    backoff_exp: Vec<u32>,
    /// Packets injected and awaiting their first buffer-slot release
    /// (ACK, give-up, or expiry). Source-side admission pacing defers
    /// *first* injections while this reaches
    /// [`BaldurParams::pacing_window`]; maintained only when pacing is on.
    in_window: Vec<u32>,
    /// ACKs are urgent (they gate the partner's buffer), so the ACK list
    /// drains ahead of data. Heads/tails of intrusive per-NIC queues.
    ack_head: Vec<PktId>,
    ack_tail: Vec<PktId>,
    data_head: Vec<PktId>,
    data_tail: Vec<PktId>,
    /// Data-queue occupancy (the admission-control oracle checks it).
    data_len: Vec<u32>,
    /// Intrusive queue link per packet (a packet is in at most one NIC
    /// queue at a time).
    next_in_queue: Vec<PktId>,
    /// ACK coalescing: per receiver, the sources it owes a combined ACK,
    /// each with its batch in the `pending` arena. An entry exists iff
    /// its flush event is scheduled; keys are unique per list, so lookup
    /// order cannot leak into results.
    pending_acks: Vec<Vec<(u32, Handle)>>,
    /// Batches still collecting inside a coalescing window.
    pending: Arena<Vec<PktId>>,
    /// For in-flight combined ACK packets: every data packet they
    /// acknowledge.
    ack_batches: Arena<Vec<PktId>>,
    /// Recycled batch vectors (allocation-free steady state).
    batch_pool: Vec<Vec<PktId>>,
    packets: Vec<PacketState>,
    metrics: Collector,
    in_flight: u64,
    /// Live fault state (switches, links, lasers, bit-error bursts); all
    /// healthy by default, driven by [`Ev::Fault`] events from `plan`.
    fstate: FaultState,
    /// The fault schedule this run executes (empty by default).
    plan: FaultPlan,
    /// Seed for retry-timeout jitter (the run seed).
    seed: u64,
    /// Coin flips for bit-error bursts; only drawn while a burst is
    /// active, so fault-free runs stay bit-identical.
    fault_rng: StreamRng,
    /// The always-on invariant oracle (release builds included); its
    /// summary rides on the run's report.
    oracle: Oracle,
}

impl BaldurNet {
    /// Builds the model over a topology sized for `active_nodes` servers.
    pub fn new(
        active_nodes: u32,
        params: BaldurParams,
        link: LinkParams,
        driver: Driver,
        seed: u64,
        sample_cap: usize,
    ) -> Self {
        let topo_nodes = active_nodes.next_power_of_two().max(4);
        let topo = Staged::build(params.staged_kind(), topo_nodes, params.multiplicity, seed);
        let m = params.multiplicity as usize;
        let port_stride = topo.switches_per_stage() as usize * 2 * m;
        let ports = vec![Time::ZERO; topo.stages() as usize * port_stride];
        let n = active_nodes as usize;
        let fstate = FaultState::healthy(
            topo.stages(),
            topo.switches_per_stage(),
            params.multiplicity,
            active_nodes,
        );
        BaldurNet {
            topo,
            params,
            link,
            driver,
            active_nodes,
            ports,
            port_stride,
            tx_busy_until: vec![Time::ZERO; n],
            try_scheduled: vec![false; n],
            outstanding: vec![0; n],
            backoff_exp: vec![0; n],
            in_window: vec![0; n],
            ack_head: vec![NONE; n],
            ack_tail: vec![NONE; n],
            data_head: vec![NONE; n],
            data_tail: vec![NONE; n],
            data_len: vec![0; n],
            next_in_queue: Vec::new(),
            pending_acks: vec![Vec::new(); n],
            pending: Arena::new(),
            ack_batches: Arena::new(),
            batch_pool: Vec::new(),
            packets: Vec::new(),
            metrics: Collector::new(sample_cap),
            in_flight: 0,
            fstate,
            plan: FaultPlan::new(seed),
            seed,
            fault_rng: StreamRng::named(seed, "biterror", 0),
            oracle: Oracle::new(OracleConfig::default()),
        }
    }

    /// Kernel-state accounting (capacities, not live population): the
    /// model half of [`StateStats`] — the caller adds scheduler figures.
    pub fn state_stats(&self) -> StateStats {
        fn bytes_of<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        let per_nic = bytes_of(&self.tx_busy_until)
            + bytes_of(&self.try_scheduled)
            + bytes_of(&self.outstanding)
            + bytes_of(&self.backoff_exp)
            + bytes_of(&self.in_window)
            + bytes_of(&self.ack_head)
            + bytes_of(&self.ack_tail)
            + bytes_of(&self.data_head)
            + bytes_of(&self.data_tail)
            + bytes_of(&self.data_len)
            + bytes_of(&self.pending_acks)
            + self.pending_acks.iter().map(bytes_of).sum::<u64>();
        StateStats {
            state_bytes: self.topo.state_bytes()
                + bytes_of(&self.ports)
                + per_nic
                + bytes_of(&self.next_in_queue)
                + bytes_of(&self.packets)
                + self.pending.state_bytes()
                + self.ack_batches.state_bytes()
                + bytes_of(&self.batch_pool),
            ack_batches: self.ack_batches.stats(),
            pending_batches: self.pending.stats(),
            peak_pending_events: 0,
            events_scheduled: 0,
            queue_bytes: 0,
        }
    }

    fn duration_of(&self, pkt: PktId) -> Duration {
        if self.packets[pkt as usize].acks.is_some() {
            self.link.ack_time()
        } else {
            self.link.packet_time()
        }
    }

    fn port_index(&self, stage: u32, switch: u32, dir: u32, path: u32) -> usize {
        let m = self.params.multiplicity;
        stage as usize * self.port_stride + (switch * 2 * m + dir * m + path) as usize
    }

    /// Allocates a packet-table row (and its queue link).
    fn alloc_packet(&mut self, st: PacketState) -> PktId {
        let pkt = self.packets.len() as PktId;
        self.packets.push(st);
        self.next_in_queue.push(NONE);
        pkt
    }

    /// True when `node` has nothing queued (ACK or data).
    fn nic_is_empty(&self, node: usize) -> bool {
        self.ack_head[node] == NONE && self.data_head[node] == NONE
    }

    fn ack_push_back(&mut self, node: usize, pkt: PktId) {
        self.next_in_queue[pkt as usize] = NONE;
        let tail = self.ack_tail[node];
        if tail == NONE {
            self.ack_head[node] = pkt;
        } else {
            self.next_in_queue[tail as usize] = pkt;
        }
        self.ack_tail[node] = pkt;
    }

    fn data_push_back(&mut self, node: usize, pkt: PktId) {
        self.next_in_queue[pkt as usize] = NONE;
        let tail = self.data_tail[node];
        if tail == NONE {
            self.data_head[node] = pkt;
        } else {
            self.next_in_queue[tail as usize] = pkt;
        }
        self.data_tail[node] = pkt;
        self.data_len[node] += 1;
    }

    fn data_push_front(&mut self, node: usize, pkt: PktId) {
        let head = self.data_head[node];
        self.next_in_queue[pkt as usize] = head;
        if head == NONE {
            self.data_tail[node] = pkt;
        }
        self.data_head[node] = pkt;
        self.data_len[node] += 1;
    }

    /// Pops the next packet to transmit: ACKs drain ahead of data.
    fn nic_pop(&mut self, node: usize) -> Option<PktId> {
        let head = self.ack_head[node];
        if head != NONE {
            let next = self.next_in_queue[head as usize];
            self.ack_head[node] = next;
            if next == NONE {
                self.ack_tail[node] = NONE;
            }
            return Some(head);
        }
        let head = self.data_head[node];
        if head != NONE {
            let next = self.next_in_queue[head as usize];
            self.data_head[node] = next;
            if next == NONE {
                self.data_tail[node] = NONE;
            }
            self.data_len[node] -= 1;
            return Some(head);
        }
        None
    }

    /// Unlinks and returns the first queued retransmission (attempts > 0)
    /// in `node`'s data queue, if any — the pacing-bypass scan.
    fn data_unlink_first_retx(&mut self, node: usize) -> Option<PktId> {
        let mut prev = NONE;
        let mut cur = self.data_head[node];
        while cur != NONE {
            if self
                .packets
                .get(cur as usize)
                .is_some_and(|p| p.attempts > 0)
            {
                let next = self.next_in_queue[cur as usize];
                if prev == NONE {
                    self.data_head[node] = next;
                } else {
                    self.next_in_queue[prev as usize] = next;
                }
                if next == NONE {
                    self.data_tail[node] = prev;
                }
                self.data_len[node] -= 1;
                return Some(cur);
            }
            prev = cur;
            cur = self.next_in_queue[cur as usize];
        }
        None
    }

    fn enqueue(&mut self, now: Time, node: u32, pkt: PktId, sched: &mut Scheduler<Ev>) {
        let n = node as usize;
        if self.packets[pkt as usize].acks.is_some() {
            self.ack_push_back(n, pkt);
        } else {
            self.data_push_back(n, pkt);
        }
        if !self.try_scheduled[n] {
            self.try_scheduled[n] = true;
            sched.schedule_at(now.max(self.tx_busy_until[n]), Ev::TryInject(node));
        }
    }

    /// Hands a batch vector back to the pool for reuse.
    fn recycle_batch(&mut self, mut batch: Vec<PktId>) {
        batch.clear();
        self.batch_pool.push(batch);
    }

    /// Takes (and retires) the combined-ACK batch of `pkt`, if any.
    fn take_ack_batch(&mut self, pkt: PktId) -> Option<Vec<PktId>> {
        let handle = self.packets.get_mut(pkt as usize)?.batch.take()?;
        self.ack_batches.remove(handle)
    }

    /// Drops the combined-ACK references of a packet that died in the
    /// fabric (ACKs are never retransmitted, so the batch is abandoned).
    fn drop_ack_batch(&mut self, pkt: PktId) {
        if let Some(batch) = self.take_ack_batch(pkt) {
            self.recycle_batch(batch);
        }
    }

    fn apply_driver_output(
        &mut self,
        now: Time,
        node: u32,
        out: crate::driver::DriverOutput,
        sched: &mut Scheduler<Ev>,
    ) {
        let cap = self.params.ingress_cap;
        for cmd in out.sends {
            for _ in 0..cmd.count {
                // Admission control: a bounded ingress queue refuses new
                // packets while the source already holds `ingress_cap`
                // unreleased packets (queued or unACKed — every queued
                // data packet is unreleased, so this bounds the queue
                // too). Refused packets are counted, never stored: they
                // take no table slot, no buffer slot, no timer.
                if cap > 0 && self.outstanding[node as usize] >= cap {
                    self.metrics.on_generated(now);
                    self.metrics.note_flow_generated(node);
                    self.metrics.on_ingress_drop(now);
                    self.oracle
                        .note(now.as_ps(), "drop:ingress", u64::from(node), 0);
                    continue;
                }
                let pkt = self.alloc_packet(PacketState {
                    src: NodeId(node),
                    dst: cmd.dst,
                    generated_at: now,
                    attempts: 0,
                    outcome: DeliveryOutcome::Pending,
                    acked: false,
                    released: false,
                    acks: None,
                    batch: None,
                });
                self.metrics.on_generated(now);
                self.metrics.note_flow_generated(node);
                self.outstanding[node as usize] += 1;
                self.oracle.flow_opened(node);
                self.note_buffer(node);
                self.enqueue(now, node, pkt, sched);
                let len = u64::from(self.data_len[node as usize]);
                self.oracle
                    .check_occupancy(now.as_ps(), node, len, u64::from(cap));
            }
        }
        if let Some(t) = out.wake_at_ps {
            sched.schedule_at(Time::from_ps(t), Ev::Wake(node));
        }
    }

    /// Creates (and enqueues) one ACK packet from `node` back to `src`
    /// acknowledging every data packet in `batch`.
    fn send_ack(
        &mut self,
        now: Time,
        node: u32,
        src: u32,
        batch: Vec<PktId>,
        sched: &mut Scheduler<Ev>,
    ) {
        let first = batch[0];
        let combined = batch.len() > 1;
        let handle = if combined {
            Some(self.ack_batches.insert(batch))
        } else {
            self.recycle_batch(batch);
            None
        };
        let ack = self.alloc_packet(PacketState {
            src: NodeId(node),
            dst: NodeId(src),
            generated_at: now,
            attempts: 0,
            outcome: DeliveryOutcome::Pending,
            acked: false,
            released: false,
            acks: Some(first),
            batch: handle,
        });
        self.enqueue(now, node, ack, sched);
    }

    /// Single-packet ACK without a batch allocation (the coalescing-off
    /// hot path).
    fn send_ack_single(
        &mut self,
        now: Time,
        node: u32,
        src: u32,
        pkt: PktId,
        sched: &mut Scheduler<Ev>,
    ) {
        let ack = self.alloc_packet(PacketState {
            src: NodeId(node),
            dst: NodeId(src),
            generated_at: now,
            attempts: 0,
            outcome: DeliveryOutcome::Pending,
            acked: false,
            released: false,
            acks: Some(pkt),
            batch: None,
        });
        self.enqueue(now, node, ack, sched);
    }

    /// Takes a packet out of flight (delivery or drop). An underflow is
    /// recorded as an oracle violation (and the decrement skipped)
    /// instead of wrapping.
    fn dec_in_flight(&mut self, now: Time) {
        debug_assert!(
            self.in_flight > 0,
            "in_flight underflow: drop/arrive without inject"
        );
        if self.in_flight == 0 {
            self.oracle.record(
                now.as_ps(),
                Violation::CounterUnderflow {
                    counter: "in_flight".into(),
                },
            );
            return;
        }
        self.in_flight -= 1;
    }

    /// Gives `node`'s retransmission-buffer slot for one packet back,
    /// with oracle-checked (never wrapping) arithmetic.
    fn release_outstanding(&mut self, now: Time, node: u32) {
        match self.outstanding.get_mut(node as usize) {
            Some(o) if *o > 0 => {
                *o -= 1;
                self.oracle.flow_closed(node);
            }
            _ => self.oracle.record(
                now.as_ps(),
                Violation::CounterUnderflow {
                    counter: "outstanding".into(),
                },
            ),
        }
    }

    /// Closes one admission-pacing window slot for `node` (the packet's
    /// first buffer-slot release: ACK, give-up, or expiry). No-op when
    /// pacing is off, so the counter costs nothing on the paper path.
    fn release_window(&mut self, node: u32) {
        if self.params.pacing_window == 0 {
            return;
        }
        if let Some(w) = self.in_window.get_mut(node as usize) {
            *w = w.saturating_sub(1);
        }
    }

    /// Settles one data packet acknowledged by an arriving ACK.
    fn settle_ack(&mut self, now: Time, data_pkt: PktId, dst: NodeId) {
        let data = &mut self.packets[data_pkt as usize];
        if !data.acked {
            data.acked = true;
            // A slot already given back by retry exhaustion (repair
            // racing a backoff retry: the packet gave up, then a late
            // copy delivered and this ACK returned) must not be released
            // twice.
            let release = !data.released;
            data.released = true;
            if release {
                self.release_outstanding(now, dst.0);
                self.release_window(dst.0);
                // Successful round trip relaxes the backoff.
                let exp = &mut self.backoff_exp[dst.0 as usize];
                *exp = exp.saturating_sub(1);
            }
        }
    }

    fn note_buffer(&mut self, node: u32) {
        let bytes = u64::from(self.outstanding[node as usize]) * u64::from(self.link.packet_bytes);
        self.metrics.on_retx_buffer(bytes);
    }

    /// Finishes the run and reports.
    pub fn into_report(self, end: Time) -> LatencyReport {
        let mut r = self.metrics.report(end);
        r.oracle = self.oracle.summary();
        r
    }

    /// Periodic oracle tick driven by the engine's observer hook: feeds
    /// the stuck-flow detector with the number of packets still owed a
    /// terminal outcome. Returns `true` when the run should abort.
    fn oracle_tick(&mut self, now: Time) -> bool {
        // Each tick is one starvation observation window: a flow (source
        // node) with work outstanding and zero deliveries for N windows
        // while the rest of the machine progresses is starved.
        self.oracle.starvation_tick(now.as_ps());
        let outstanding = self.oracle.outstanding_total() + self.in_flight;
        self.oracle.check_stall(now.as_ps(), outstanding)
    }

    /// Packet-conservation audit, valid only once the event queue has
    /// drained: every generated packet was then delivered, dropped and
    /// retransmitted to completion, or abandoned, so nothing is in
    /// flight, no NIC holds queued or unACKed work, no coalesced ACK is
    /// still owed and no coalescing batch is left. Discrepancies become
    /// structured oracle violations on the report (chaos sweeps catch
    /// them in `--release`); debug builds also assert that there are none.
    fn oracle_check_drained(&mut self, end: Time) {
        let at = end.as_ps();
        if self.in_flight > 0 {
            let count = u64::from(self.in_flight);
            self.oracle.record(
                at,
                Violation::ResidualState {
                    what: "in_flight".into(),
                    count,
                },
            );
        }
        let queued = (0..self.active_nodes as usize)
            .filter(|&i| !self.nic_is_empty(i))
            .count() as u64;
        if queued > 0 {
            self.oracle.record(
                at,
                Violation::ResidualState {
                    what: "nic_queue".into(),
                    count: queued,
                },
            );
        }
        let outstanding: u64 = self.outstanding.iter().map(|&o| u64::from(o)).sum();
        if outstanding > 0 {
            self.oracle.record(
                at,
                Violation::ResidualState {
                    what: "outstanding".into(),
                    count: outstanding,
                },
            );
        }
        let owed: u64 = self.pending_acks.iter().map(|p| p.len() as u64).sum();
        if owed > 0 {
            self.oracle.record(
                at,
                Violation::ResidualState {
                    what: "pending_acks".into(),
                    count: owed,
                },
            );
        }
        if !self.pending.is_empty() {
            let count = self.pending.live();
            self.oracle.record(
                at,
                Violation::ResidualState {
                    what: "pending_batches".into(),
                    count,
                },
            );
        }
        if !self.ack_batches.is_empty() {
            let count = self.ack_batches.live();
            self.oracle.record(
                at,
                Violation::ResidualState {
                    what: "ack_refs".into(),
                    count,
                },
            );
        }
        let mut delivered = 0u64;
        let mut gave_up = 0u64;
        let mut expired = 0u64;
        let mut pending = 0u64;
        for st in self.packets.iter().filter(|p| p.acks.is_none()) {
            match st.outcome {
                DeliveryOutcome::Delivered => delivered += 1,
                DeliveryOutcome::GaveUp => gave_up += 1,
                DeliveryOutcome::Expired => expired += 1,
                DeliveryOutcome::Pending => pending += 1,
            }
        }
        if pending > 0 {
            self.oracle.record(
                at,
                Violation::ResidualState {
                    what: "pending_packets".into(),
                    count: pending,
                },
            );
        }
        // Overload-shed packets (expired + refused at ingress) are part
        // of the ledger: generated must equal delivered + abandoned +
        // expired + ingress drops, exactly.
        let generated = self.metrics.generated();
        let shed = expired + self.metrics.ingress_drops();
        if generated != delivered + gave_up + shed
            || self.metrics.delivered() != delivered
            || self.metrics.abandoned() != gave_up
            || self.metrics.expired() != expired
        {
            let stranded = generated
                .saturating_sub(delivered)
                .saturating_sub(gave_up)
                .saturating_sub(shed);
            self.oracle.record(
                at,
                Violation::Conservation {
                    generated,
                    delivered: self.metrics.delivered(),
                    abandoned: self.metrics.abandoned(),
                    stranded,
                },
            );
        }
    }
}

impl Model for BaldurNet {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Wake(node) => {
                let out = self.driver.wakeup(node, now.as_ps());
                self.apply_driver_output(now, node, out, sched);
            }
            Ev::TryInject(node) => {
                let n = node as usize;
                self.try_scheduled[n] = false;
                if self.nic_is_empty(n) {
                    return;
                }
                if self.tx_busy_until[n] > now {
                    self.try_scheduled[n] = true;
                    let at = self.tx_busy_until[n];
                    sched.schedule_at(at, Ev::TryInject(node));
                    return;
                }
                // `nic_is_empty` was just checked, so the pop always
                // succeeds; the else arm keeps the handler panic-free
                // regardless.
                let Some(mut pkt) = self.nic_pop(n) else {
                    return;
                };
                // Deadline check at the head of the queue: a data packet
                // that aged out while waiting for its (first or retry)
                // injection slot expires here, without burning the slot —
                // queue wait is the dominant staleness under overload and
                // carries no retry timer that could catch it.
                let deadline = self.params.deadline_ps;
                if deadline > 0
                    && self.packets[pkt as usize].acks.is_none()
                    && self.packets[pkt as usize].outcome == DeliveryOutcome::Pending
                    && now.since(self.packets[pkt as usize].generated_at).as_ps() >= deadline
                {
                    let src = self.packets[pkt as usize].src.0;
                    let in_window = self.packets[pkt as usize].attempts > 0;
                    self.packets[pkt as usize].outcome = DeliveryOutcome::Expired;
                    self.metrics.on_expired(now);
                    self.oracle
                        .note(now.as_ps(), "expire", u64::from(pkt), u64::from(src));
                    self.oracle.progress(now.as_ps());
                    if !self.packets[pkt as usize].released {
                        self.packets[pkt as usize].released = true;
                        self.release_outstanding(now, src);
                        if in_window {
                            self.release_window(src);
                        }
                    }
                    if !self.nic_is_empty(n) {
                        self.try_scheduled[n] = true;
                        sched.schedule_at(now, Ev::TryInject(node));
                    }
                    return;
                }
                // Source-side admission pacing: a *first* injection waits
                // while `pacing_window` packets are already out awaiting
                // their first release. Retransmissions and ACKs bypass
                // (they are the recovery path), and every in-window
                // packet carries a timer, so the poll always terminates.
                let pw = self.params.pacing_window;
                if pw > 0
                    && self.packets[pkt as usize].acks.is_none()
                    && self.packets[pkt as usize].attempts == 0
                    && self.in_window[n] >= pw
                {
                    // A queued retransmission must jump a deferred head:
                    // it is what releases the window, so parking it behind
                    // the deferral would deadlock the NIC.
                    match self.data_unlink_first_retx(n) {
                        Some(retx) => {
                            self.data_push_front(n, pkt);
                            pkt = retx;
                        }
                        None => {
                            self.data_push_front(n, pkt);
                            self.try_scheduled[n] = true;
                            sched.schedule_at(now + self.link.packet_time(), Ev::TryInject(node));
                            return;
                        }
                    }
                }
                let dur = self.duration_of(pkt);
                self.tx_busy_until[n] = now + dur;
                if !self.nic_is_empty(n) {
                    self.try_scheduled[n] = true;
                    let at = self.tx_busy_until[n];
                    sched.schedule_at(at, Ev::TryInject(node));
                }
                let st = &mut self.packets[pkt as usize];
                if st.acks.is_none() {
                    st.attempts += 1;
                    let attempt = st.attempts;
                    if attempt == 1 && self.params.pacing_window > 0 {
                        self.in_window[n] += 1;
                    }
                    let backoff = self.backoff_exp[n];
                    let to = Duration::from_ps(jittered_timeout_ps(
                        &self.params,
                        self.seed,
                        pkt,
                        attempt,
                        backoff,
                    ));
                    sched.schedule_at(now + dur + to, Ev::Timeout { pkt, attempt });
                }
                // A dead transmit laser eats the frame at the source: the
                // NIC still burned the serialization slot (and, for data,
                // armed its retry timer — the recovery path), but nothing
                // enters the fabric.
                if !self.fstate.is_all_healthy() && self.fstate.laser_is_down(node) {
                    self.metrics.on_laser_loss();
                    self.oracle
                        .note(now.as_ps(), "drop:laser", u64::from(pkt), u64::from(node));
                    self.drop_ack_batch(pkt);
                    return;
                }
                // Head reaches the first-stage switch after the ingress
                // fiber.
                let switch = self.topo.ingress_switch(self.packets[pkt as usize].src);
                self.metrics.on_injection();
                self.in_flight += 1;
                sched.schedule_at(
                    now + Duration::from_ps(self.params.link_delay_ps),
                    Ev::Hop {
                        pkt,
                        stage: 0,
                        switch,
                    },
                );
            }
            Ev::Hop { pkt, stage, switch } => {
                let healthy = self.fstate.is_all_healthy();
                if !healthy && self.fstate.switch_is_down(stage, switch) {
                    self.metrics.on_forward_attempt(true);
                    self.oracle
                        .note(now.as_ps(), "drop:switch", u64::from(pkt), u64::from(stage));
                    self.dec_in_flight(now);
                    // ACKs are never retransmitted, so a dropped combined
                    // ACK must release its batch references here.
                    self.drop_ack_batch(pkt);
                    return; // a dead switch eats the packet
                }
                let dst = self.packets[pkt as usize].dst;
                let dir = self.topo.direction(dst, stage);
                let dur = self.duration_of(pkt);
                // Sequential path arbitration: first idle port wins. With
                // the path-rotation extension the scan start varies per
                // attempt so retries explore all m paths.
                let m = self.params.multiplicity;
                let start = if self.params.path_rotation {
                    // SplitMix-style mixing so every (packet, attempt)
                    // pair explores an independent per-stage path vector.
                    let st = &self.packets[pkt as usize];
                    let mut h = (u64::from(pkt) << 32) ^ u64::from(st.attempts);
                    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((h >> (stage % 8 * 8)) % u64::from(m)) as u32
                } else {
                    0
                };
                let mut claimed = None;
                for k in 0..m {
                    let path = (start + k) % m;
                    // A failed link looks like a permanently busy port:
                    // the scan skips it, shifting traffic onto the
                    // direction's surviving paths.
                    if !healthy && self.fstate.link_is_down(stage, switch, dir, path) {
                        continue;
                    }
                    let idx = self.port_index(stage, switch, dir, path);
                    if self.ports[idx] <= now {
                        self.ports[idx] = now + dur;
                        claimed = Some(path);
                        break;
                    }
                }
                match claimed {
                    None => {
                        self.metrics.on_forward_attempt(true);
                        self.oracle.note(
                            now.as_ps(),
                            "drop:port",
                            u64::from(pkt),
                            u64::from(stage),
                        );
                        self.dec_in_flight(now);
                        self.drop_ack_batch(pkt);
                        // Dropped: the source's timeout handles recovery.
                    }
                    Some(path) => {
                        // During a bit-error burst the traversal can
                        // corrupt the packet (the port was still burned);
                        // the destination NIC's CRC discards it and the
                        // source timeout recovers, like any drop.
                        if !healthy {
                            let p = self.fstate.corruption_prob(now.as_ps());
                            if p > 0.0 && self.fault_rng.gen_bool(p) {
                                self.metrics.on_corrupted();
                                self.metrics.on_forward_attempt(true);
                                self.oracle.note(
                                    now.as_ps(),
                                    "drop:crc",
                                    u64::from(pkt),
                                    u64::from(stage),
                                );
                                self.dec_in_flight(now);
                                self.drop_ack_batch(pkt);
                                return;
                            }
                        }
                        self.metrics.on_forward_attempt(false);
                        let hop_delay = Duration::from_ps(
                            self.params.switch_latency_ps + self.params.stage_delay_ps,
                        );
                        if stage + 1 == self.topo.stages() {
                            // Egress: tail arrives after the fiber plus
                            // serialization.
                            let at = now
                                + hop_delay
                                + Duration::from_ps(self.params.link_delay_ps)
                                + dur;
                            sched.schedule_at(at, Ev::Arrive { pkt });
                        } else {
                            // Inner stages always have targets by
                            // construction; a miss would indicate a wiring
                            // bug, so a debug build trips, and in
                            // release the packet is treated as dropped
                            // (recovered by the source timeout) instead of
                            // aborting the run.
                            let Some(target) = self.topo.target(stage, switch, dir, path) else {
                                debug_assert!(false, "inner stage {stage} has no target");
                                self.dec_in_flight(now);
                                self.drop_ack_batch(pkt);
                                return;
                            };
                            sched.schedule_at(
                                now + hop_delay,
                                Ev::Hop {
                                    pkt,
                                    stage: stage + 1,
                                    switch: target.switch,
                                },
                            );
                        }
                    }
                }
            }
            Ev::Arrive { pkt } => {
                self.dec_in_flight(now);
                let (is_ack, dst, src) = {
                    let st = &self.packets[pkt as usize];
                    (st.acks, st.dst, st.src)
                };
                match is_ack {
                    Some(data_pkt) => {
                        // ACK arrived back at the data source; a combined
                        // ACK settles its whole batch.
                        match self.take_ack_batch(pkt) {
                            Some(batch) => {
                                for i in 0..batch.len() {
                                    self.settle_ack(now, batch[i], dst);
                                }
                                self.recycle_batch(batch);
                            }
                            None => self.settle_ack(now, data_pkt, dst),
                        }
                    }
                    None => {
                        let first = self.packets[pkt as usize].outcome == DeliveryOutcome::Pending;
                        if first {
                            self.packets[pkt as usize].outcome = DeliveryOutcome::Delivered;
                            let latency = now.since(self.packets[pkt as usize].generated_at);
                            self.metrics.on_delivered(latency, now);
                            self.metrics.note_flow_delivered(src.0);
                            self.oracle.flow_delivered(src.0);
                            self.oracle.note(
                                now.as_ps(),
                                "deliver",
                                u64::from(pkt),
                                u64::from(dst.0),
                            );
                            self.oracle.progress(now.as_ps());
                            let out = self.driver.delivered(dst.0, now.as_ps());
                            self.apply_driver_output(now, dst.0, out, sched);
                        }
                        // ACK every arrival (covers lost-ACK duplicates) —
                        // immediately, or batched per source when traffic
                        // combining is on.
                        let window = self.params.ack_coalesce_ps;
                        if window == 0 {
                            self.send_ack_single(now, dst.0, src.0, pkt, sched);
                        } else {
                            let d = dst.0 as usize;
                            match self.pending_acks[d].iter().position(|&(s, _)| s == src.0) {
                                Some(at) => {
                                    let handle = self.pending_acks[d][at].1;
                                    if let Some(batch) = self.pending.get_mut(handle) {
                                        batch.push(pkt);
                                    }
                                }
                                None => {
                                    let mut batch = self.batch_pool.pop().unwrap_or_default();
                                    batch.push(pkt);
                                    let handle = self.pending.insert(batch);
                                    self.pending_acks[d].push((src.0, handle));
                                    sched.schedule_in(
                                        Duration::from_ps(window),
                                        Ev::AckFlush {
                                            node: dst.0,
                                            src: src.0,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
            Ev::AckFlush { node, src } => {
                let n = node as usize;
                let Some(at) = self.pending_acks[n].iter().position(|&(s, _)| s == src) else {
                    return;
                };
                let (_, handle) = self.pending_acks[n].swap_remove(at);
                let Some(batch) = self.pending.remove(handle) else {
                    return;
                };
                if !batch.is_empty() {
                    self.send_ack(now, node, src, batch, sched);
                } else {
                    self.recycle_batch(batch);
                }
            }
            Ev::Timeout { pkt, attempt } => {
                let st = self.packets[pkt as usize];
                if st.acked || st.attempts != attempt || st.acks.is_some() {
                    return; // stale timer
                }
                // Deadline-aware retransmission: a retry whose packet has
                // outlived its age budget expires instead of retrying —
                // under overload, stale work is shed rather than
                // amplified. Delivered-but-unACKed packets only drop
                // their buffer slot (they are not a loss).
                let deadline = self.params.deadline_ps;
                if deadline > 0 && now.since(st.generated_at).as_ps() >= deadline {
                    if st.outcome != DeliveryOutcome::Delivered {
                        self.packets[pkt as usize].outcome = DeliveryOutcome::Expired;
                        self.metrics.on_expired(now);
                        self.oracle.note(
                            now.as_ps(),
                            "expire",
                            u64::from(pkt),
                            u64::from(st.src.0),
                        );
                        self.oracle.progress(now.as_ps());
                    }
                    if !st.released {
                        if let Some(p) = self.packets.get_mut(pkt as usize) {
                            p.released = true;
                        }
                        self.release_outstanding(now, st.src.0);
                        self.release_window(st.src.0);
                    }
                    return;
                }
                // Retry budget exhausted: the source gives up instead of
                // retrying forever. A packet that was delivered but whose
                // ACKs all died is only dropped from the buffer — it is
                // not a loss, so it must not count as abandoned.
                if st.attempts > self.params.max_retries {
                    if st.outcome != DeliveryOutcome::Delivered {
                        self.packets[pkt as usize].outcome = DeliveryOutcome::GaveUp;
                        self.metrics.on_abandoned(now);
                        self.oracle.note(
                            now.as_ps(),
                            "giveup",
                            u64::from(pkt),
                            u64::from(st.src.0),
                        );
                        self.oracle.progress(now.as_ps());
                    }
                    // Give the buffer slot back exactly once: a late ACK
                    // for a delivered-but-timer-exhausted packet must not
                    // release it again (see released in Ev::Arrive).
                    if !st.released {
                        if let Some(p) = self.packets.get_mut(pkt as usize) {
                            p.released = true;
                        }
                        self.release_outstanding(now, st.src.0);
                        self.release_window(st.src.0);
                    }
                    return;
                }
                self.metrics.on_retransmit();
                if self.params.backoff {
                    // Binary exponential backoff throttles the transmitter.
                    let exp = &mut self.backoff_exp[st.src.0 as usize];
                    *exp = (*exp + 1).min(self.params.max_backoff_exp);
                }
                self.enqueue(now, st.src.0, pkt, sched);
            }
            Ev::Fault(idx) => {
                if let Some(ev) = self.plan.events.get(idx as usize).copied() {
                    self.fstate.apply(self.plan.seed, now.as_ps(), &ev.kind);
                    self.oracle.note(now.as_ps(), "fault", u64::from(idx), 0);
                }
            }
        }
    }
}

/// Runs a Baldur simulation of `active_nodes` servers under `spec` to
/// completion (or the horizon) and returns the report with the run's
/// kernel-state accounting: state bytes, arena high-water marks, and
/// scheduler population and bytes.
///
/// Without [`RunSpec::horizon_ns`] the horizon is ~50x the time to stream
/// the whole workload at line rate, plus slack for retransmission storms
/// (saturated configurations otherwise retry for a very long time).
pub fn simulate(
    active_nodes: u32,
    params: BaldurParams,
    driver: Driver,
    spec: &RunSpec,
) -> (LatencyReport, StateStats) {
    let total = driver.total_to_send();
    let sample_cap = (total.min(2_000_000)) as usize + 16;
    let mut model = BaldurNet::new(
        active_nodes,
        params,
        spec.link,
        driver,
        spec.seed,
        sample_cap,
    );
    model.oracle = Oracle::new(spec.oracle);
    let plan = &spec.plan;
    if !plan.is_empty() {
        model.metrics = Collector::for_plan(sample_cap, plan);
        model.oracle.set_boundaries(plan.epoch_boundaries());
        model.plan = plan.clone();
    }
    let initial = model.driver.initial();
    let mut sim = Simulation::new(model);
    for (node, t) in initial {
        sim.scheduler_mut()
            .schedule_at(Time::from_ps(t), Ev::Wake(node));
    }
    for (idx, ev) in plan.events.iter().enumerate() {
        sim.scheduler_mut()
            .schedule_at(Time::from_ps(ev.at_ps), Ev::Fault(idx as u32));
    }
    let horizon = Time::from_ns(spec.horizon_ns.unwrap_or_else(|| {
        let per_node = total / u64::from(active_nodes.max(1)) + 1;
        50 * per_node * spec.link.packet_time().as_ps() / 1_000 + 10_000_000
    }));
    // Every 8192 executed events (a deterministic cadence, independent of
    // wall clock and thread count) the oracle's stuck-flow detector gets a
    // look; a latched stall aborts the run so livelocks surface as a
    // violation instead of burning the horizon.
    let stop = sim.run_until_observed(horizon, u64::MAX, 8192, |m, now| !m.oracle_tick(now));
    let end = sim.scheduler().now();
    let events = sim.scheduler().events_executed();
    let mut stats = sim.model().state_stats();
    stats.peak_pending_events = sim.scheduler().peak_pending() as u64;
    stats.events_scheduled = sim.scheduler().events_scheduled();
    stats.queue_bytes = sim.scheduler().state_bytes();
    let mut model = sim.into_model();
    if stop == baldur_sim::StopReason::Drained {
        let before = model.oracle.total();
        model.oracle_check_drained(end);
        debug_assert_eq!(
            model.oracle.total(),
            before,
            "drain audit: {:?}",
            model.oracle.summary().reports
        );
    }
    let mut report = model.into_report(end);
    report.events = events;
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::faults::FaultKind;
    use crate::traffic::Pattern;
    use crate::workloads::ping_pong1_pairs;

    fn link() -> LinkParams {
        LinkParams::paper()
    }

    #[test]
    fn light_load_latency_is_near_the_fiber_floor() {
        // 64 nodes, load 0.05: essentially no contention. The floor is
        // 2 x 100 ns fiber + 6 stages x ~2 ns + 163.84 ns serialization.
        let d = Driver::open_loop(64, Pattern::RandomPermutation, 0.05, 50, &link(), 42);
        let r = simulate(
            64,
            BaldurParams::paper_for(64),
            d,
            &RunSpec::new(link(), 42),
        )
        .0;
        assert_eq!(r.delivered, r.generated, "all packets must arrive");
        assert!(r.avg_ns > 350.0 && r.avg_ns < 500.0, "avg {}", r.avg_ns);
        assert!(r.drop_rate < 0.02, "drop rate {}", r.drop_rate);
    }

    #[test]
    fn heavy_load_drops_but_still_delivers() {
        // Multiplicity 2 under heavy transpose guarantees contention so
        // the drop/ACK/retransmit machinery is exercised end to end.
        let d = Driver::open_loop(64, Pattern::Transpose, 0.9, 60, &link(), 7);
        let params = BaldurParams {
            multiplicity: 2,
            ..BaldurParams::paper_1k()
        };
        let r = simulate(64, params, d, &RunSpec::new(link(), 7)).0;
        assert!(
            r.delivery_ratio() > 0.99,
            "delivered {}",
            r.delivery_ratio()
        );
        assert!(r.drop_attempts > 0, "expected contention drops");
        assert!(r.retransmissions > 0);
        assert!(r.avg_ns > 350.0);
    }

    #[test]
    fn multiplicity_cuts_drop_rate() {
        let mut drops = Vec::new();
        for m in [1u32, 2, 4] {
            let d = Driver::open_loop(64, Pattern::Transpose, 0.7, 40, &link(), 3);
            let params = BaldurParams {
                multiplicity: m,
                ..BaldurParams::paper_1k()
            };
            let r = simulate(64, params, d, &RunSpec::new(link(), 3)).0;
            drops.push(r.drop_rate);
        }
        assert!(
            drops[0] > drops[1] && drops[1] > drops[2],
            "drop rates must fall with multiplicity: {drops:?}"
        );
        assert!(drops[0] > 0.10, "m=1 under transpose 0.7 drops heavily");
        assert!(drops[2] < 0.05, "m=4 should be rare-drop");
    }

    #[test]
    fn ping_pong_round_trip_is_two_network_crossings() {
        let pairs = ping_pong1_pairs(16, 9);
        let d = Driver::ping_pong(pairs, 10, 9);
        let r = simulate(16, BaldurParams::paper_for(16), d, &RunSpec::new(link(), 9)).0;
        assert_eq!(r.delivered, r.generated);
        // One crossing is ~370-420 ns; closed-loop latency per packet is a
        // single crossing (measured generation->delivery).
        assert!(r.avg_ns > 350.0 && r.avg_ns < 600.0, "avg {}", r.avg_ns);
    }

    #[test]
    fn retransmission_buffer_stays_bounded_at_paper_load() {
        let d = Driver::open_loop(128, Pattern::RandomPermutation, 0.7, 100, &link(), 5);
        let r = simulate(
            128,
            BaldurParams::paper_for(128),
            d,
            &RunSpec::new(link(), 5),
        )
        .0;
        assert!(r.delivery_ratio() > 0.999);
        // Paper: 536 KB suffices at 0.7 load; 1 MB in the design. Our
        // high-water mark must sit well inside 1 MB.
        assert!(
            r.max_retx_buffer_bytes < 1_048_576,
            "buffer {}",
            r.max_retx_buffer_bytes
        );
    }

    #[test]
    fn ack_coalescing_cuts_ack_traffic_without_losing_anything() {
        // The paper's "traffic combining" future-work idea: combined ACKs
        // shrink the reverse-direction load. Injections = data + ACK
        // traversals, so fewer ACKs = fewer injections.
        let run_with = |window: u64| {
            let params = BaldurParams {
                ack_coalesce_ps: window,
                ..BaldurParams::paper_for(64)
            };
            let d = Driver::open_loop(64, Pattern::RandomPermutation, 0.6, 80, &link(), 13);
            simulate(64, params, d, &RunSpec::new(link(), 13)).0
        };
        let plain = run_with(0);
        let combined = run_with(300_000); // 300 ns window << 1 us timeout
        assert_eq!(plain.delivered, plain.generated);
        assert_eq!(combined.delivered, combined.generated);
        assert!(
            combined.injections < plain.injections * 95 / 100,
            "combined {} vs plain {}",
            combined.injections,
            plain.injections
        );
        // Latency stays in the same regime (ACK delay is off the data
        // path; only retransmission margins feel the window).
        assert!(combined.avg_ns < plain.avg_ns * 1.5);
    }

    #[test]
    fn routes_around_a_dead_switch() {
        // Leighton-Maggs: with randomized multiplicity, a faulty switch
        // costs retransmissions, not connectivity.
        let params = BaldurParams {
            path_rotation: true,
            ..BaldurParams::paper_for(64)
        };
        let d = Driver::open_loop(64, Pattern::RandomPermutation, 0.3, 60, &link(), 21);
        let healthy = simulate(64, params, d, &RunSpec::new(link(), 21)).0;
        let d = Driver::open_loop(64, Pattern::RandomPermutation, 0.3, 60, &link(), 21);
        let plan = FaultPlan::new(21)
            .at(
                0,
                FaultKind::SwitchDown {
                    stage: 2,
                    switch: 7,
                },
            )
            .at(
                0,
                FaultKind::SwitchDown {
                    stage: 3,
                    switch: 11,
                },
            );
        let faulty = simulate(
            64,
            params,
            d,
            &RunSpec {
                plan,
                ..RunSpec::new(link(), 21)
            },
        )
        .0;
        assert_eq!(healthy.delivered, healthy.generated);
        assert_eq!(
            faulty.delivered, faulty.generated,
            "dead switches must not break connectivity"
        );
        assert!(faulty.drop_attempts > healthy.drop_attempts);
        assert!(faulty.retransmissions > 0);
    }

    #[test]
    fn dead_ingress_column_still_recovers_other_flows() {
        // Even killing a first-stage switch only severs the two nodes
        // wired to it; packets *from* those nodes are abandoned after
        // the retry budget while the rest of the machine keeps working.
        let mut params = BaldurParams::paper_for(64);
        params.max_retries = 2;
        params.base_timeout_ps = 500_000;
        let d = Driver::open_loop(64, Pattern::UniformRandom, 0.2, 20, &link(), 5);
        let plan = FaultPlan::new(5).at(
            0,
            FaultKind::SwitchDown {
                stage: 0,
                switch: 0,
            },
        );
        let r = simulate(
            64,
            params,
            d,
            &RunSpec {
                plan,
                ..RunSpec::new(link(), 5)
            },
        )
        .0;
        // Nodes 0 and 1 inject into switch (0,0): their 40 packets die.
        assert!(r.abandoned >= 30, "{}", r.abandoned);
        assert!(r.delivered as f64 >= 0.9 * (r.generated - r.abandoned) as f64);
    }

    #[test]
    fn terminates_and_gives_up_under_100_percent_drop() {
        // Satellite check for the retry-forever hazard: with every switch
        // dead (100% drop), every packet must hit GaveUp after exactly
        // max_retries retransmissions and the run must drain on its own —
        // no infinite retry loop, no horizon rescue needed.
        let mut params = BaldurParams::paper_for(16);
        params.max_retries = 3;
        params.base_timeout_ps = 500_000;
        let d = Driver::open_loop(16, Pattern::UniformRandom, 0.3, 10, &link(), 11);
        let plan = FaultPlan::degradation(11, 1.0);
        let r = simulate(
            16,
            params,
            d,
            &RunSpec {
                plan,
                ..RunSpec::new(link(), 11)
            },
        )
        .0;
        assert_eq!(r.delivered, 0, "nothing can cross a fully dead fabric");
        assert_eq!(r.abandoned, r.generated, "every packet must give up");
        assert!(r.generated > 0);
        // First try + 3 retries per packet, all dropped at stage 0.
        assert_eq!(r.retransmissions, 3 * r.generated);
        assert_eq!(r.drop_attempts, 4 * r.generated);
    }

    #[test]
    fn dead_laser_loses_frames_until_revival() {
        // A dark transmit laser during the first 40 us silences node 0;
        // its packets burn retries (never entering the fabric) until the
        // laser is repaired, after which retransmissions deliver them.
        let params = BaldurParams::paper_for(32);
        let plan = FaultPlan::new(5)
            .at(0, FaultKind::LaserDown { node: 0 })
            .at(40_000_000, FaultKind::LaserUp { node: 0 });
        let d = Driver::open_loop(32, Pattern::RandomPermutation, 0.2, 30, &link(), 5);
        let r = simulate(
            32,
            params,
            d,
            &RunSpec {
                plan,
                ..RunSpec::new(link(), 5)
            },
        )
        .0;
        assert_eq!(r.delivered, r.generated, "revival must recover all flows");
        assert!(r.laser_losses > 0, "the dark window must eat frames");
        assert!(r.retransmissions >= r.laser_losses - 1);
        // Epoch 0 (laser dark) must show worse goodput than epoch 1.
        assert_eq!(r.epochs.len(), 2);
        assert!(r.epochs[0].goodput() < r.epochs[1].goodput() + 1e-9);
    }

    #[test]
    fn bit_error_burst_corrupts_then_recovery() {
        // A heavy burst over the first 30 us corrupts traversals; CRC
        // drops + retransmission still deliver everything.
        let params = BaldurParams::paper_for(32);
        let plan = FaultPlan::new(3).at(
            0,
            FaultKind::BitErrorBurst {
                duration_ps: 30_000_000,
                corruption_prob: 0.2,
            },
        );
        let d = Driver::open_loop(32, Pattern::RandomPermutation, 0.3, 30, &link(), 17);
        let r = simulate(
            32,
            params,
            d,
            &RunSpec {
                plan,
                ..RunSpec::new(link(), 17)
            },
        )
        .0;
        assert_eq!(r.delivered, r.generated);
        assert!(r.corrupted > 0, "the burst must corrupt some traversals");
        assert!(
            r.drop_attempts >= r.corrupted,
            "corruptions are a subset of drops"
        );
    }

    #[test]
    fn link_failures_degrade_but_do_not_disconnect() {
        // Killing one of the m paths of a direction leaves m-1 survivors:
        // more contention drops, same connectivity.
        let params = BaldurParams::paper_for(64);
        let d = Driver::open_loop(64, Pattern::Transpose, 0.5, 40, &link(), 23);
        let healthy = simulate(64, params, d, &RunSpec::new(link(), 23)).0;
        let plan = FaultPlan::new(23)
            .at(
                0,
                FaultKind::LinkDown {
                    stage: 1,
                    switch: 0,
                    dir: 0,
                    path: 0,
                },
            )
            .at(
                0,
                FaultKind::LinkDown {
                    stage: 1,
                    switch: 1,
                    dir: 1,
                    path: 2,
                },
            )
            .at(
                0,
                FaultKind::LinkDown {
                    stage: 2,
                    switch: 3,
                    dir: 0,
                    path: 1,
                },
            );
        let d = Driver::open_loop(64, Pattern::Transpose, 0.5, 40, &link(), 23);
        let faulty = simulate(
            64,
            params,
            d,
            &RunSpec {
                plan,
                ..RunSpec::new(link(), 23)
            },
        )
        .0;
        assert_eq!(healthy.delivered, healthy.generated);
        assert_eq!(faulty.delivered, faulty.generated);
        assert!(faulty.drop_attempts >= healthy.drop_attempts);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mk = || {
            let d = Driver::open_loop(32, Pattern::Bisection, 0.5, 30, &link(), 77);
            simulate(
                32,
                BaldurParams::paper_for(32),
                d,
                &RunSpec::new(link(), 77),
            )
            .0
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.avg_ns.to_bits(), b.avg_ns.to_bits());
        assert_eq!(a.drop_attempts, b.drop_attempts);
    }

    #[test]
    fn late_ack_after_giveup_releases_the_slot_exactly_once() {
        // The repair/backoff race distilled: a 10 us fiber makes every
        // ACK round trip vastly outlive a 100 ns timeout with a zero
        // retry budget, so each packet gives up (slot released) while its
        // copy is still in flight. The copy then delivers and its ACK
        // returns to a source that already released the slot — without
        // the `released` guard that second release underflows
        // `outstanding`, which the oracle would report.
        let params = BaldurParams {
            link_delay_ps: 10_000_000,
            base_timeout_ps: 100_000,
            max_retries: 0,
            ..BaldurParams::paper_for(16)
        };
        let d = Driver::open_loop(16, Pattern::RandomPermutation, 0.05, 4, &link(), 31);
        let r = simulate(16, params, d, &RunSpec::new(link(), 31)).0;
        assert_eq!(r.generated, r.delivered + r.abandoned, "conservation");
        assert!(r.abandoned > 0, "the race needs exhausted packets");
        assert!(
            r.oracle.is_clean(),
            "no counter may underflow: {:?}",
            r.oracle
        );
    }

    #[test]
    fn drain_audit_reports_a_leaked_coalescing_batch() {
        // A model that never ran is trivially drained; one batch left in
        // the coalescing arena must be the audit's only finding.
        let d = Driver::open_loop(16, Pattern::RandomPermutation, 0.05, 1, &link(), 3);
        let mut net = BaldurNet::new(16, BaldurParams::paper_for(16), link(), d, 3, 16);
        net.pending.insert(vec![0]);
        net.oracle_check_drained(Time::ZERO);
        let reports = net.oracle.summary().reports;
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(
            reports[0].violation,
            Violation::ResidualState {
                what: "pending_batches".into(),
                count: 1,
            }
        );
    }

    #[test]
    fn livelock_detector_fires_on_a_wedged_fabric() {
        // Every switch dead and a huge retry budget: sources retransmit
        // forever, nothing ever delivers. The stuck-flow watermark must
        // fire (and abort the run) instead of burning the whole horizon.
        let params = BaldurParams {
            max_retries: 100_000,
            ..BaldurParams::paper_for(16)
        };
        let plan = FaultPlan::new(5).at(0, FaultKind::FailFraction { fraction: 1.0 });
        let oracle = OracleConfig {
            stall_ps: 1_000_000, // 1 us of silence is already damning here
            ..OracleConfig::default()
        };
        let spec = RunSpec {
            plan,
            oracle,
            ..RunSpec::new(link(), 5)
        };
        let d = Driver::open_loop(16, Pattern::RandomPermutation, 0.3, 10, &link(), 5);
        let r = simulate(16, params, d, &spec).0;
        assert_eq!(r.delivered, 0);
        assert!(
            r.oracle
                .reports
                .iter()
                .any(|rep| matches!(rep.violation, Violation::StuckFlow { .. })),
            "expected a StuckFlow violation, got {:?}",
            r.oracle
        );
    }

    #[test]
    fn ingress_cap_sheds_load_with_exact_conservation() {
        // A 16-to-1 incast at 4x saturation with a small admission cap:
        // the cap must refuse packets (counted, not stored) and the
        // ledger must still balance exactly.
        let params = BaldurParams {
            ingress_cap: 8,
            deadline_ps: 0,
            ..BaldurParams::paper_for(32)
        };
        let d = Driver::storm(32, Pattern::Incast { fanin: 16 }, 4.0, 40, &link(), 7);
        let r = simulate(32, params, d, &RunSpec::new(link(), 7)).0;
        assert!(r.ingress_drops > 0, "4x incast must trip admission control");
        assert_eq!(
            r.generated,
            r.delivered + r.abandoned + r.expired + r.ingress_drops,
            "conservation with load shedding"
        );
        assert!(r.delivered > 0, "shedding must not collapse goodput");
        assert!(r.oracle.is_clean(), "oracle: {:?}", r.oracle);
    }

    #[test]
    fn deadline_expires_stale_packets_instead_of_retrying_forever() {
        // A fully dead fabric with a generous retry budget but a tight
        // deadline: packets expire at the age budget instead of burning
        // the whole retry budget.
        let params = BaldurParams {
            max_retries: 100_000,
            base_timeout_ps: 500_000,
            deadline_ps: 3_000_000, // 3 us age budget
            ..BaldurParams::paper_for(16)
        };
        let plan = FaultPlan::degradation(11, 1.0);
        let d = Driver::open_loop(16, Pattern::UniformRandom, 0.3, 10, &link(), 11);
        let r = simulate(
            16,
            params,
            d,
            &RunSpec {
                plan,
                ..RunSpec::new(link(), 11)
            },
        )
        .0;
        assert_eq!(r.delivered, 0, "nothing crosses a dead fabric");
        assert_eq!(r.expired, r.generated, "every packet expires at deadline");
        assert_eq!(r.abandoned, 0, "deadline fires before the retry budget");
        assert!(
            r.retransmissions < 16 * r.generated,
            "the deadline bounds retry amplification: {} retries",
            r.retransmissions
        );
        assert_eq!(
            r.generated,
            r.delivered + r.abandoned + r.expired + r.ingress_drops
        );
    }

    #[test]
    fn pacing_defers_injections_without_losing_anything() {
        let base = BaldurParams::paper_for(64);
        let run = |pacing_window: u32| {
            let params = BaldurParams {
                pacing_window,
                ..base
            };
            // An incast storm guarantees wavelength contention at the
            // victim, so the unpaced run sees real fabric drops.
            let d = Driver::storm(64, Pattern::Incast { fanin: 8 }, 2.0, 30, &link(), 13);
            simulate(64, params, d, &RunSpec::new(link(), 13)).0
        };
        let unpaced = run(0);
        let paced = run(2);
        assert!(unpaced.drop_attempts > 0, "storm must contend");
        // Contention past the retry budget legitimately gives up, so the
        // guarantee is exact conservation, not universal delivery.
        assert_eq!(
            paced.generated,
            paced.delivered + paced.abandoned + paced.expired + paced.ingress_drops
        );
        assert!(paced.oracle.is_clean(), "oracle: {:?}", paced.oracle);
        // Pacing throttles the offered burst, so fabric drops fall.
        assert!(
            paced.drop_attempts < unpaced.drop_attempts,
            "paced {} vs unpaced {}",
            paced.drop_attempts,
            unpaced.drop_attempts
        );
    }

    #[test]
    fn hotcast_storm_delivers_and_reports_fairness() {
        let d = Driver::storm(32, Pattern::Hotcast, 0.6, 30, &link(), 3);
        let r = simulate(32, BaldurParams::paper_for(32), d, &RunSpec::new(link(), 3)).0;
        assert_eq!(r.generated, 32 * 30);
        assert!(r.delivery_ratio() > 0.99, "{}", r.delivery_ratio());
        assert_eq!(r.fairness.flows, 32, "every node offers traffic");
        assert!(r.fairness.jain > 0.0 && r.fairness.jain <= 1.0);
        assert!(r.p999_ns >= r.p99_ns && r.p99_ns > 0.0);
    }

    #[test]
    fn chaos_staged_plan_drains_clean_with_recovery_metrics() {
        use crate::faults::{ChaosProfile, ChaosShape};
        // A mixed link/switch/laser chaos schedule over the staged fabric
        // must drain with conservation intact, a quiet oracle, and one
        // recovery measurement per repair.
        let shape = ChaosShape {
            stages: 3,
            width: 8,
            m: 4,
            nodes: 64,
            routers: 0,
        };
        let profile = ChaosProfile {
            warmup_ps: 2_000_000,
            last_repair_ps: 40_000_000,
            pairs: 6,
        };
        let plan = FaultPlan::chaos(19, &shape, &profile);
        let d = Driver::open_loop(64, Pattern::RandomPermutation, 0.3, 40, &link(), 19);
        let spec = RunSpec {
            plan,
            ..RunSpec::new(link(), 19)
        };
        let r = simulate(64, BaldurParams::paper_for(64), d, &spec).0;
        assert_eq!(r.generated, r.delivered + r.abandoned, "conservation");
        assert!(r.oracle.is_clean(), "oracle: {:?}", r.oracle);
        assert_eq!(r.recoveries.len(), spec.plan.repair_times().len());
        assert!(r.flap_amplification() >= 1.0);
    }

    #[test]
    fn scaling_stats_report_state_and_scheduler_accounting() {
        let d = Driver::open_loop(64, Pattern::UniformRandom, 0.3, 20, &link(), 9);
        let (r, stats) = simulate(64, BaldurParams::paper_for(64), d, &RunSpec::new(link(), 9));
        assert_eq!(r.delivered, r.generated);
        assert!(stats.state_bytes > 0);
        assert!(stats.events_scheduled >= r.events);
        assert!(stats.peak_pending_events > 0);
        assert!(stats.queue_bytes > 0);
    }
}
