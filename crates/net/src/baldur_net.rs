//! The Baldur all-optical network model (paper Sec. IV-E, V).
//!
//! Bufferless, cut-through, drop-and-retransmit:
//!
//! * every switch output port is modelled by the time it is busy until; a
//!   packet head arriving at a switch checks the `m` ports of its routing
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
//! `(stage, switch, dir, path)` that holds each port's busy-until time as
//! a 4-byte offset from a rolling epoch (a [`BusyTable`], half the bytes
//! of an absolute [`Time`] per port), and the NIC queues as one [`FifoSet`]
//! of intrusive FIFOs over packet ids (node `i`'s ACK queue is `2i`, its
//! data queue `2i + 1`) instead of per-node `VecDeque`s. Combined-ACK
//! batches live in generational [`Arena`]s; the retired map-based model's
//! reports are pinned by fingerprint in
//! `results/golden/soa_fingerprints.json`. Invariants the layout relies
//! on: packet ids are sequential and never reused (the path-rotation hash
//! keys on them), and a packet sits in at most one NIC queue at a time
//! (one `next` link suffices). The run loop and drain audit protocol is
//! the shell in [`crate::runner`], shared with the electrical model.
//!
//! A packet-table row is 24 bytes: source, destination, and either the
//! data packet's delivery and retransmission state or the ACK's
//! acknowledged packet and batch handle, never both. [`Ev::Hop`] carries
//! the destination and the ACK flag, set from the row at injection, so a
//! hop reads only the port table and the topology's link table. The one
//! exception is the off-by-default path rotation, which hashes the
//! row's attempt count.
//!
//! Most events are scheduled a fixed delay after `now`, so they go through
//! [`Scheduler::schedule_in`] onto the scheduler's fixed-delay lanes, one
//! FIFO per delay: the first hop (the ingress fiber), every inner hop (the
//! same `switch_latency_ps + stage_delay_ps`), the arrival (one offset for
//! data and one for ACKs), the NIC's next injection attempt once the
//! frame just sent has serialized (or at once), and the ACK flush. The
//! jittered retransmission timeouts, driver wakeups, fault events and an
//! injection attempt deferred to an earlier frame's busy-until time are no
//! fixed offset from the clock and stay on the calendar. At scale a hop's
//! two table reads are cache misses, one dependent miss per hop, so every
//! [`TOUCH_AHEAD`]th hop loads the port and link rows of the next
//! [`TOUCH_AHEAD`] entries of the inner-hop lane up front
//! ([`BaldurNet::touch_lane`]): independent loads the CPU overlaps, which
//! turn the next hops' misses into hits.

use std::hint::black_box;

use baldur_sim::rng::StreamRng;
use baldur_sim::{Arena, ArenaStats, BusyTable, Duration, FifoSet, Handle, Model, Scheduler, Time};
use baldur_topo::graph::NodeId;
use baldur_topo::staged::Staged;

use crate::config::{BaldurParams, LinkParams, RunSpec};
use crate::driver::Driver;
use crate::faults::{jittered_timeout_ps, FaultPlan, FaultState};
use crate::metrics::{Collector, DeliveryOutcome, LatencyReport};
use crate::oracle::{Oracle, OracleConfig, Violation};
use crate::runner::{self, PacketModel};

/// Index into the packet table.
type PktId = u32;

/// Lane entries whose port and link rows a hop loads ahead, once every
/// this many hops.
const TOUCH_AHEAD: u32 = 16;

/// `node`'s ACK queue in `queues`.
fn ack_q(node: usize) -> usize {
    2 * node
}

/// `node`'s data queue in `queues`.
fn data_q(node: usize) -> usize {
    2 * node + 1
}

/// One packet-table row (24 bytes): the endpoints plus what only a data
/// packet or only an ACK carries, so an ACK with a delivery outcome is
/// unrepresentable.
#[derive(Debug, Clone, Copy)]
struct PacketState {
    src: NodeId,
    dst: NodeId,
    kind: PacketKind,
}

#[derive(Debug, Clone, Copy)]
enum PacketKind {
    Data(DataState),
    /// An ACK for data packet `acks`. A combined ACK also holds the arena
    /// slot of its whole batch (absent for single ACKs — `acks` already
    /// names the one packet).
    Ack {
        acks: PktId,
        batch: Option<Handle>,
    },
}

/// The delivery and retransmission state of a data packet.
#[derive(Debug, Clone, Copy)]
struct DataState {
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
}

impl PacketState {
    fn is_ack(&self) -> bool {
        matches!(self.kind, PacketKind::Ack { .. })
    }

    fn data(&self) -> Option<&DataState> {
        match &self.kind {
            PacketKind::Data(d) => Some(d),
            PacketKind::Ack { .. } => None,
        }
    }

    fn data_mut(&mut self) -> Option<&mut DataState> {
        match &mut self.kind {
            PacketKind::Data(d) => Some(d),
            PacketKind::Ack { .. } => None,
        }
    }
}

/// Events of the Baldur model.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Driver wakeup for a node.
    Wake(u32),
    /// NIC should try to transmit.
    TryInject(u32),
    /// A packet head arrives at a switch of `stage`. It carries what the
    /// hop needs from the packet, so a hop does not read the packet table
    /// (bar the off-by-default path rotation).
    Hop {
        /// Packet id.
        pkt: PktId,
        /// Destination node.
        dst: u32,
        /// Switch index within the stage.
        switch: u32,
        /// Stage index.
        stage: u8,
        /// An ACK (sized [`LinkParams::ack_time`]) rather than data.
        ack: bool,
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
    /// Bytes of model state reserved: flat table and queue capacities,
    /// arena slabs and the fault flag tables (the scale-dominant terms).
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
    /// Serialization times of a data packet and an ACK (`link`'s, kept
    /// so hops do not recompute them).
    data_time: Duration,
    ack_time: Duration,
    driver: Driver,
    active_nodes: u32,
    /// Busy-until time of port `stage * port_stride + switch * 2m +
    /// dir * m + path` (one flat table across all stages).
    ports: BusyTable,
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
    /// Every NIC's ACK queue ([`ack_q`]) and data queue ([`data_q`]).
    /// ACKs are urgent (they gate the partner's buffer), so the ACK queue
    /// drains ahead of data.
    queues: FifoSet,
    /// Data-queue occupancy (the admission-control oracle checks it).
    data_len: Vec<u32>,
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
    /// Hops handled, modulo [`TOUCH_AHEAD`]: the lane read-ahead runs
    /// when it wraps to 0.
    hops: u32,
}

impl BaldurNet {
    /// Builds the model over a topology sized for `active_nodes` servers.
    ///
    /// # Panics
    ///
    /// Panics if a packet or an ACK takes longer than
    /// [`BusyTable::MAX_CLAIM`] (about 4.3 ms) to serialize: the port
    /// table cannot hold a claim that long.
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
        assert!(
            link.packet_time().max(link.ack_time()) <= BusyTable::MAX_CLAIM,
            "a packet longer than {} cannot claim a port",
            BusyTable::MAX_CLAIM
        );
        let ports = BusyTable::new(topo.stages() as usize * port_stride);
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
            data_time: link.packet_time(),
            ack_time: link.ack_time(),
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
            queues: FifoSet::new(2 * n),
            data_len: vec![0; n],
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
            hops: 0,
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
            + bytes_of(&self.data_len)
            + bytes_of(&self.pending_acks)
            + self.pending_acks.iter().map(bytes_of).sum::<u64>();
        StateStats {
            state_bytes: self.topo.state_bytes()
                + self.ports.state_bytes()
                + per_nic
                + self.queues.state_bytes()
                + bytes_of(&self.packets)
                + self.pending.state_bytes()
                + self.ack_batches.state_bytes()
                + bytes_of(&self.batch_pool)
                + self.fstate.state_bytes(),
            ack_batches: self.ack_batches.stats(),
            pending_batches: self.pending.stats(),
            ..StateStats::default()
        }
    }

    fn duration(&self, ack: bool) -> Duration {
        if ack {
            self.ack_time
        } else {
            self.data_time
        }
    }

    /// The data state of packet `pkt` (`None` for an ACK).
    fn data_mut(&mut self, pkt: PktId) -> Option<&mut DataState> {
        self.packets
            .get_mut(pkt as usize)
            .and_then(PacketState::data_mut)
    }

    /// Loads the first port and the first link row of the hops next in
    /// the inner-hop lane, so their misses overlap now instead of stalling
    /// each hop in turn. Plain loads kept alive by `black_box`; no state
    /// changes.
    fn touch_lane(&self, sched: &Scheduler<Ev>) {
        let hop_delay = self.params.switch_latency_ps + self.params.stage_delay_ps;
        for ev in sched
            .lane(Duration::from_ps(hop_delay))
            .take(TOUCH_AHEAD as usize)
        {
            if let &Ev::Hop {
                dst, switch, stage, ..
            } = ev
            {
                let stage = u32::from(stage);
                let dir = self.topo.direction(NodeId(dst), stage);
                black_box(
                    self.ports
                        .busy_until(self.port_index(stage, switch, dir, 0)),
                );
                black_box(self.topo.target(stage, switch, dir, 0));
            }
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
        self.queues.add_id();
        pkt
    }

    /// True when `node` has nothing queued (ACK or data).
    fn nic_is_empty(&self, node: usize) -> bool {
        self.queues.is_empty(ack_q(node)) && self.queues.is_empty(data_q(node))
    }

    fn data_push_front(&mut self, node: usize, pkt: PktId) {
        self.queues.push_front(data_q(node), pkt);
        self.data_len[node] += 1;
    }

    /// Pops the next packet to transmit: ACKs drain ahead of data.
    fn nic_pop(&mut self, node: usize) -> Option<PktId> {
        let ack = self.queues.pop_front(ack_q(node));
        if ack.is_some() {
            return ack;
        }
        let pkt = self.queues.pop_front(data_q(node))?;
        self.data_len[node] -= 1;
        Some(pkt)
    }

    /// Unlinks and returns the first queued retransmission (attempts > 0)
    /// in `node`'s data queue, if any — the pacing-bypass scan.
    fn data_unlink_first_retx(&mut self, node: usize) -> Option<PktId> {
        let packets = &self.packets;
        let pkt = self.queues.unlink_first(data_q(node), |p| {
            packets
                .get(p as usize)
                .and_then(PacketState::data)
                .is_some_and(|d| d.attempts > 0)
        })?;
        self.data_len[node] -= 1;
        Some(pkt)
    }

    fn enqueue(&mut self, now: Time, node: u32, pkt: PktId, sched: &mut Scheduler<Ev>) {
        let n = node as usize;
        if self.packets[pkt as usize].is_ack() {
            self.queues.push_back(ack_q(n), pkt);
        } else {
            self.queues.push_back(data_q(n), pkt);
            self.data_len[n] += 1;
        }
        if !self.try_scheduled[n] {
            self.try_scheduled[n] = true;
            let busy = self.tx_busy_until[n];
            if busy > now {
                sched.schedule_at(busy, Ev::TryInject(node));
            } else {
                sched.schedule_now(Ev::TryInject(node));
            }
        }
    }

    /// Hands a batch vector back to the pool for reuse.
    fn recycle_batch(&mut self, mut batch: Vec<PktId>) {
        batch.clear();
        self.batch_pool.push(batch);
    }

    /// Takes (and retires) the combined-ACK batch of `pkt`, if any.
    fn take_ack_batch(&mut self, pkt: PktId) -> Option<Vec<PktId>> {
        let PacketKind::Ack { batch, .. } = &mut self.packets.get_mut(pkt as usize)?.kind else {
            return None;
        };
        self.ack_batches.remove(batch.take()?)
    }

    /// Drops the combined-ACK references of a packet that died in the
    /// fabric (ACKs are never retransmitted, so the batch is abandoned).
    fn drop_ack_batch(&mut self, pkt: PktId) {
        if let Some(batch) = self.take_ack_batch(pkt) {
            self.recycle_batch(batch);
        }
    }

    /// Takes a packet the fabric dropped out of flight. ACKs are never
    /// retransmitted, so a dropped combined ACK releases its batch here
    /// (the only row read); a dropped data packet is recovered by its
    /// source's timeout.
    fn lost_in_fabric(&mut self, now: Time, pkt: PktId, ack: bool) {
        self.dec_in_flight(now);
        if ack {
            self.drop_ack_batch(pkt);
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
                    kind: PacketKind::Data(DataState {
                        generated_at: now,
                        attempts: 0,
                        outcome: DeliveryOutcome::Pending,
                        acked: false,
                        released: false,
                    }),
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
            kind: PacketKind::Ack {
                acks: first,
                batch: handle,
            },
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
            kind: PacketKind::Ack {
                acks: pkt,
                batch: None,
            },
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
        let Some(data) = self.data_mut(data_pkt) else {
            debug_assert!(false, "an ACK names non-data packet {data_pkt}");
            return;
        };
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
    pub fn into_report(mut self, end: Time) -> LatencyReport {
        self.report(end)
    }
}

impl PacketModel for BaldurNet {
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
        // Each tick is one starvation observation window: a flow (source
        // node) with work outstanding and zero deliveries for N windows
        // while the rest of the machine progresses is starved.
        self.oracle.starvation_tick(now.as_ps());
        let outstanding = self.oracle.outstanding_total() + self.in_flight;
        self.oracle.check_stall(now.as_ps(), outstanding)
    }

    /// Packet-conservation audit: once the event queue has drained,
    /// every generated packet was delivered, dropped and retransmitted
    /// to completion, or abandoned, so nothing is in flight, no NIC holds
    /// queued or unACKed work, no coalesced ACK is still owed and no
    /// coalescing batch is left. On top of the shared ledger, the packet
    /// table must agree with the collector's outcome counters.
    fn oracle_check_drained(&mut self, end: Time) {
        let at = end.as_ps();
        let queued = (0..self.active_nodes as usize)
            .filter(|&i| !self.nic_is_empty(i))
            .count() as u64;
        let outstanding = self.outstanding.iter().map(|&o| u64::from(o)).sum();
        let owed = self.pending_acks.iter().map(|p| p.len() as u64).sum();
        let (mut delivered, mut gave_up, mut expired, mut pending) = (0, 0, 0, 0);
        for st in self.packets.iter().filter_map(PacketState::data) {
            match st.outcome {
                DeliveryOutcome::Delivered => delivered += 1,
                DeliveryOutcome::GaveUp => gave_up += 1,
                DeliveryOutcome::Expired => expired += 1,
                DeliveryOutcome::Pending => pending += 1,
            }
        }
        let oracle = &mut self.oracle;
        oracle.residual(at, "in_flight", self.in_flight);
        oracle.residual(at, "nic_queue", queued);
        oracle.residual(at, "outstanding", outstanding);
        oracle.residual(at, "pending_acks", owed);
        oracle.residual(at, "pending_batches", self.pending.live());
        oracle.residual(at, "ack_refs", self.ack_batches.live());
        oracle.residual(at, "pending_packets", pending);
        let m = &self.metrics;
        oracle.ledger(at, m);
        if m.delivered() != delivered || m.abandoned() != gave_up || m.expired() != expired {
            let generated = m.generated();
            let stranded = generated
                .saturating_sub(delivered)
                .saturating_sub(gave_up)
                .saturating_sub(expired + m.ingress_drops());
            oracle.record(
                at,
                Violation::Conservation {
                    generated,
                    delivered: m.delivered(),
                    abandoned: m.abandoned(),
                    stranded,
                },
            );
        }
    }

    fn model_stats(&self) -> StateStats {
        self.state_stats()
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
                let src = self.packets[pkt as usize].src.0;
                let expired = self.data_mut(pkt).filter(|d| {
                    deadline > 0
                        && d.outcome == DeliveryOutcome::Pending
                        && now.since(d.generated_at).as_ps() >= deadline
                });
                if let Some(d) = expired {
                    let in_window = d.attempts > 0;
                    let release = !d.released;
                    d.outcome = DeliveryOutcome::Expired;
                    d.released = true;
                    self.metrics.on_expired(now);
                    self.oracle
                        .note(now.as_ps(), "expire", u64::from(pkt), u64::from(src));
                    self.oracle.progress(now.as_ps());
                    if release {
                        self.release_outstanding(now, src);
                        if in_window {
                            self.release_window(src);
                        }
                    }
                    if !self.nic_is_empty(n) {
                        self.try_scheduled[n] = true;
                        sched.schedule_now(Ev::TryInject(node));
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
                    && self.packets[pkt as usize]
                        .data()
                        .is_some_and(|d| d.attempts == 0)
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
                            sched.schedule_in(self.data_time, Ev::TryInject(node));
                            return;
                        }
                    }
                }
                let row = self.packets[pkt as usize];
                let ack = row.is_ack();
                let dur = self.duration(ack);
                self.tx_busy_until[n] = now + dur;
                if !self.nic_is_empty(n) {
                    self.try_scheduled[n] = true;
                    sched.schedule_in(dur, Ev::TryInject(node));
                }
                if let Some(d) = self.data_mut(pkt) {
                    d.attempts += 1;
                    let attempt = d.attempts;
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
                let switch = self.topo.ingress_switch(row.src);
                self.metrics.on_injection();
                self.in_flight += 1;
                sched.schedule_in(
                    Duration::from_ps(self.params.link_delay_ps),
                    Ev::Hop {
                        pkt,
                        dst: row.dst.0,
                        switch,
                        stage: 0,
                        ack,
                    },
                );
            }
            Ev::Hop {
                pkt,
                dst,
                switch,
                stage: stage8,
                ack,
            } => {
                self.hops = (self.hops + 1) % TOUCH_AHEAD;
                if self.hops == 0 {
                    self.touch_lane(sched);
                }
                let stage = u32::from(stage8);
                let healthy = self.fstate.is_all_healthy();
                if !healthy && self.fstate.switch_is_down(stage, switch) {
                    self.metrics.on_forward_attempt(true);
                    self.oracle
                        .note(now.as_ps(), "drop:switch", u64::from(pkt), u64::from(stage));
                    self.lost_in_fabric(now, pkt, ack);
                    return; // a dead switch eats the packet
                }
                let dir = self.topo.direction(NodeId(dst), stage);
                let dur = self.duration(ack);
                // Sequential path arbitration: first idle port wins. With
                // the path-rotation extension the scan start varies per
                // attempt so retries explore all m paths.
                let m = self.params.multiplicity;
                let start = if self.params.path_rotation {
                    // SplitMix-style mixing so every (packet, attempt)
                    // pair explores an independent per-stage path vector.
                    // The one hop read of the packet table (an ACK's
                    // attempt is 0); the option is off by default.
                    let attempts = self.packets[pkt as usize].data().map_or(0, |d| d.attempts);
                    let mut h = (u64::from(pkt) << 32) ^ u64::from(attempts);
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
                    if self
                        .ports
                        .claim(self.port_index(stage, switch, dir, path), now, dur)
                    {
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
                        self.lost_in_fabric(now, pkt, ack);
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
                                self.lost_in_fabric(now, pkt, ack);
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
                            let egress =
                                hop_delay + Duration::from_ps(self.params.link_delay_ps) + dur;
                            sched.schedule_in(egress, Ev::Arrive { pkt });
                        } else {
                            // Inner stages always have targets by
                            // construction; a miss would indicate a wiring
                            // bug, so a debug build trips, and in
                            // release the packet is treated as dropped
                            // (recovered by the source timeout) instead of
                            // aborting the run.
                            let Some(target) = self.topo.target(stage, switch, dir, path) else {
                                debug_assert!(false, "inner stage {stage} has no target");
                                self.lost_in_fabric(now, pkt, ack);
                                return;
                            };
                            sched.schedule_in(
                                hop_delay,
                                Ev::Hop {
                                    pkt,
                                    dst,
                                    switch: target.switch,
                                    stage: stage8 + 1,
                                    ack,
                                },
                            );
                        }
                    }
                }
            }
            Ev::Arrive { pkt } => {
                self.dec_in_flight(now);
                let PacketState { src, dst, kind } = self.packets[pkt as usize];
                match kind {
                    PacketKind::Ack { acks, .. } => {
                        // ACK arrived back at the data source; a combined
                        // ACK settles its whole batch.
                        match self.take_ack_batch(pkt) {
                            Some(batch) => {
                                for i in 0..batch.len() {
                                    self.settle_ack(now, batch[i], dst);
                                }
                                self.recycle_batch(batch);
                            }
                            None => self.settle_ack(now, acks, dst),
                        }
                    }
                    PacketKind::Data(data) => {
                        if data.outcome == DeliveryOutcome::Pending {
                            if let Some(d) = self.data_mut(pkt) {
                                d.outcome = DeliveryOutcome::Delivered;
                            }
                            let latency = now.since(data.generated_at);
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
                let PacketState {
                    src,
                    kind: PacketKind::Data(st),
                    ..
                } = self.packets[pkt as usize]
                else {
                    return; // ACKs arm no timer
                };
                if st.acked || st.attempts != attempt {
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
                        if let Some(d) = self.data_mut(pkt) {
                            d.outcome = DeliveryOutcome::Expired;
                        }
                        self.metrics.on_expired(now);
                        self.oracle
                            .note(now.as_ps(), "expire", u64::from(pkt), u64::from(src.0));
                        self.oracle.progress(now.as_ps());
                    }
                    if !st.released {
                        if let Some(d) = self.data_mut(pkt) {
                            d.released = true;
                        }
                        self.release_outstanding(now, src.0);
                        self.release_window(src.0);
                    }
                    return;
                }
                // Retry budget exhausted: the source gives up instead of
                // retrying forever. A packet that was delivered but whose
                // ACKs all died is only dropped from the buffer — it is
                // not a loss, so it must not count as abandoned.
                if st.attempts > self.params.max_retries {
                    if st.outcome != DeliveryOutcome::Delivered {
                        if let Some(d) = self.data_mut(pkt) {
                            d.outcome = DeliveryOutcome::GaveUp;
                        }
                        self.metrics.on_abandoned(now);
                        self.oracle
                            .note(now.as_ps(), "giveup", u64::from(pkt), u64::from(src.0));
                        self.oracle.progress(now.as_ps());
                    }
                    // Give the buffer slot back exactly once: a late ACK
                    // for a delivered-but-timer-exhausted packet must not
                    // release it again (see released in Ev::Arrive).
                    if !st.released {
                        if let Some(d) = self.data_mut(pkt) {
                            d.released = true;
                        }
                        self.release_outstanding(now, src.0);
                        self.release_window(src.0);
                    }
                    return;
                }
                self.metrics.on_retransmit();
                if self.params.backoff {
                    // Binary exponential backoff throttles the transmitter.
                    let exp = &mut self.backoff_exp[src.0 as usize];
                    *exp = (*exp + 1).min(self.params.max_backoff_exp);
                }
                self.enqueue(now, src.0, pkt, sched);
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
    let per_node = driver.total_to_send() / u64::from(active_nodes.max(1)) + 1;
    let horizon_ns = 50 * per_node * spec.link.packet_time().as_ps() / 1_000 + 10_000_000;
    runner::run_packet_model(driver, spec, horizon_ns, |driver, sample_cap| {
        BaldurNet::new(
            active_nodes,
            params,
            spec.link,
            driver,
            spec.seed,
            sample_cap,
        )
    })
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
    fn hop_event_and_packet_row_sizes_are_pinned() {
        use std::mem::size_of;
        // `Ev::Hop` carries `dst` and the ACK flag in the 16 bytes a
        // `{pkt, stage, switch}` hop took; the calendar slab stores
        // `Option<Ev>`, so its niche matters too.
        assert_eq!(size_of::<Ev>(), 16);
        assert_eq!(size_of::<Option<Ev>>(), 16);
        assert_eq!(size_of::<PacketState>(), 24);
    }

    #[test]
    #[should_panic(expected = "cannot claim a port")]
    fn a_packet_longer_than_the_port_table_bound_is_rejected() {
        // 512 B at 0.9 Mb/s take about 4.55 ms, past the 2^32 ps an
        // offset holds.
        let slow = LinkParams {
            gbps: 0.0009,
            ..link()
        };
        let d = Driver::open_loop(4, Pattern::UniformRandom, 0.1, 1, &slow, 1);
        BaldurNet::new(4, BaldurParams::paper_1k(), slow, d, 1, 0);
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
