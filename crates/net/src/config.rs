//! Simulation parameters (paper Table VI and Sec. V-A).

use baldur_sim::Duration;
use baldur_topo::multibutterfly::Wiring;
use baldur_topo::staged::StagedKind;
use serde::{Deserialize, Serialize};

use crate::faults::FaultPlan;
use crate::oracle::OracleConfig;

/// Link and packet parameters shared by every network model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Data packet size in bytes (paper: 512).
    pub packet_bytes: u32,
    /// ACK packet size in bytes (Baldur only).
    pub ack_bytes: u32,
    /// Link data rate in Gbps (paper: 25, the max per-lane rate of
    /// then-current standards).
    pub gbps: f64,
}

impl LinkParams {
    /// The paper's configuration.
    pub fn paper() -> Self {
        LinkParams {
            packet_bytes: 512,
            ack_bytes: 64,
            gbps: 25.0,
        }
    }

    /// Serialization time of a data packet.
    pub fn packet_time(&self) -> Duration {
        Duration::serialization(u64::from(self.packet_bytes), self.gbps)
    }

    /// Serialization time of an ACK.
    pub fn ack_time(&self) -> Duration {
        Duration::serialization(u64::from(self.ack_bytes), self.gbps)
    }

    /// Mean inter-arrival time for an open-loop source at `load`
    /// (paper Eq. 1): `packet_size / (input_load × link_data_rate)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < load <= 1`.
    pub fn mean_interarrival_ps(&self, load: f64) -> f64 {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        self.packet_time().as_ps() as f64 / load
    }

    /// [`Self::mean_interarrival_ps`] without the unit-load ceiling, for
    /// deliberately super-saturating overload sources (offered load past
    /// 1× is the admission-control stress fixture, not a paper operating
    /// point).
    ///
    /// # Panics
    ///
    /// Panics unless `load > 0`.
    pub fn overload_interarrival_ps(&self, load: f64) -> f64 {
        assert!(load > 0.0, "load must be positive");
        self.packet_time().as_ps() as f64 / load
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::paper()
    }
}

/// Baldur-specific parameters (Sec. IV-E and Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaldurParams {
    /// Path multiplicity (paper: 4 at 1K nodes, 5 at ≥ 16K).
    pub multiplicity: u32,
    /// Per-stage switch latency in picoseconds (Table V; 1.5 ns at m=4).
    pub switch_latency_ps: u64,
    /// Node-to-network (and network-to-node) fiber delay (Table VI: 100 ns).
    pub link_delay_ps: u64,
    /// Inter-stage hop delay (interposer waveguides + fiber array units;
    /// small, same cabinet).
    pub stage_delay_ps: u64,
    /// Retransmission timeout before the first backoff doubling.
    pub base_timeout_ps: u64,
    /// Maximum binary-exponential-backoff exponent.
    pub max_backoff_exp: u32,
    /// Retry budget: retransmissions allowed after the first try before
    /// the packet is abandoned (its terminal state becomes
    /// `DeliveryOutcome::GaveUp` and the abandonment is counted in the
    /// report). The paper's backoff description bounds recovery time, not
    /// attempts; 16 retries at the capped timeout is past any transient
    /// the fabric recovers from, so giving up then is a fault signal, not
    /// a lost packet under congestion.
    pub max_retries: u32,
    /// Seeded retry-timeout jitter as a percentage of the backoff base
    /// (0 = off = paper-faithful pure BEB; clamped below 100 so the
    /// schedule stays monotone in the attempt number). Desynchronizes
    /// sources whose packets died in the same fault at the same instant.
    pub retry_jitter_pct: u32,
    /// Inter-stage wiring (randomized per the paper; dilated butterfly is
    /// the no-expansion ablation baseline).
    pub wiring: Wiring,
    /// Binary exponential backoff on retransmissions (paper Sec. IV-E);
    /// disabling it is an ablation.
    pub backoff: bool,
    /// The staged topology family (multi-butterfly per the paper; Omega
    /// for the isomorphism comparison). When [`Self::wiring`] is
    /// [`Wiring::Dilated`] a multi-butterfly degrades to the structured
    /// dilated butterfly.
    pub topology: StagedTopology,
    /// Extension (off by default = paper-faithful): rotate the starting
    /// path index of the sequential arbitration scan per retransmission
    /// attempt, so retries diversify across the m paths and route around
    /// dead switches (the repair story of Sec. IV-F made transparent).
    pub path_rotation: bool,
    /// Extension (0 = off = paper-faithful): the paper's "traffic
    /// combining" future-work idea applied to ACKs — a receiver batches
    /// the ACKs it owes each source and flushes one combined ACK after
    /// this window (ps). Must stay well below the retransmission timeout.
    pub ack_coalesce_ps: u64,
    /// Overload control (0 = unbounded = paper-faithful): cap on the
    /// packets a source NIC queues awaiting first injection. Arrivals
    /// beyond the cap are refused at admission and counted as
    /// `ingress_drops` — an explicit drop policy instead of silent
    /// unbounded queue growth under storm loads.
    pub ingress_cap: u32,
    /// Overload control (0 = off): source-side admission pacing — the
    /// NIC defers *first* injections while this many of its packets are
    /// already in the network awaiting their first ACK. Retransmissions
    /// bypass the window (they already hold buffer slots).
    pub pacing_window: u32,
    /// Overload control (0 = off): delivery deadline as a packet age
    /// budget, ps. At a retransmission timeout a packet older than this
    /// expires (`DeliveryOutcome::Expired`) instead of retrying — stale
    /// retries only amplify congestion past saturation.
    pub deadline_ps: u64,
}

impl BaldurParams {
    /// The paper's 1,024-node configuration (multiplicity 4).
    pub fn paper_1k() -> Self {
        BaldurParams {
            multiplicity: 4,
            switch_latency_ps: 1_500,
            link_delay_ps: 100_000,
            stage_delay_ps: 500,
            // Unloaded RTT is ~2 × (100 ns + stages × ~2 ns) + ack; 1 µs
            // leaves margin for port-occupancy wait without inflating
            // retransmission latency.
            base_timeout_ps: 1_000_000,
            max_backoff_exp: 8,
            max_retries: 16,
            retry_jitter_pct: 0,
            wiring: Wiring::Randomized,
            topology: StagedTopology::MultiButterfly,
            backoff: true,
            path_rotation: false,
            ack_coalesce_ps: 0,
            ingress_cap: 0,
            pacing_window: 0,
            deadline_ps: 0,
        }
    }

    /// The paper's recommended multiplicity for a network of `nodes`
    /// servers: 4 up to a few thousand nodes, 5 from 16K upward
    /// (Sec. IV-E / Fig. 8 note).
    pub fn multiplicity_for(nodes: u64) -> u32 {
        if nodes >= 16_384 {
            5
        } else if nodes >= 64 {
            4
        } else {
            3
        }
    }

    /// The retransmission timeout (ps) armed for `attempt` (1-based)
    /// when the transmitting NIC carries `backoff_exp` extra backoff:
    /// binary exponential backoff doubling per attempt, capped at
    /// [`Self::max_backoff_exp`] doublings of [`Self::base_timeout_ps`].
    pub fn backoff_timeout_ps(&self, attempt: u32, backoff_exp: u32) -> u64 {
        let exp = attempt
            .saturating_sub(1)
            .saturating_add(backoff_exp)
            .min(self.max_backoff_exp);
        self.base_timeout_ps.saturating_mul(1u64 << exp)
    }

    /// Paper configuration scaled to `nodes` servers.
    pub fn paper_for(nodes: u64) -> Self {
        let m = Self::multiplicity_for(nodes);
        let latency = baldur_tl::gate_count::SwitchDesign::new(m).latency_ns();
        BaldurParams {
            multiplicity: m,
            switch_latency_ps: (latency * 1e3) as u64,
            ..Self::paper_1k()
        }
    }
}

impl Default for BaldurParams {
    fn default() -> Self {
        BaldurParams::paper_1k()
    }
}

/// Which staged topology family Baldur runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StagedTopology {
    /// The paper's multi-butterfly (wiring per [`BaldurParams::wiring`]).
    MultiButterfly,
    /// The Omega network (structured; ignores the wiring field).
    Omega,
}

impl BaldurParams {
    /// Resolves the topology + wiring fields into a [`StagedKind`].
    pub fn staged_kind(&self) -> StagedKind {
        match (self.topology, self.wiring) {
            (StagedTopology::Omega, _) => StagedKind::Omega,
            (StagedTopology::MultiButterfly, Wiring::Randomized) => StagedKind::MultiButterfly,
            (StagedTopology::MultiButterfly, Wiring::Dilated) => StagedKind::DilatedButterfly,
        }
    }
}

/// Electrical router parameters (Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterParams {
    /// Port-to-port switch latency in picoseconds (Mellanox SB7700: 90 ns).
    pub switch_latency_ps: u64,
    /// Buffer per port in bytes (paper: 24 KB).
    pub buffer_bytes: u32,
    /// Virtual channels per port (paper: 3).
    pub vcs: u32,
    /// Overload control (0 = unbounded = paper-faithful): cap on the
    /// packets a source NIC queues while waiting for injection credits.
    /// Arrivals beyond the cap are refused at admission and counted as
    /// `ingress_drops` instead of growing the queue without bound.
    pub nic_queue_cap: u32,
    /// Overload control (0 = off = paper-faithful): delivery deadline as
    /// a packet age budget, ps. A NIC-queued packet older than this at
    /// its injection attempt expires (`DeliveryOutcome::Expired`)
    /// instead of being transmitted — under sustained overload the
    /// bounded queues otherwise hoard stale work and spend post-storm
    /// bandwidth delivering packets nobody is waiting for anymore.
    pub deadline_ps: u64,
}

impl RouterParams {
    /// The paper's configuration.
    pub fn paper() -> Self {
        RouterParams {
            switch_latency_ps: 90_000,
            buffer_bytes: 24 * 1024,
            vcs: 3,
            nic_queue_cap: 0,
            deadline_ps: 0,
        }
    }

    /// Packets of `packet_bytes` that fit in one VC's share of the buffer.
    pub fn vc_capacity(&self, packet_bytes: u32) -> u32 {
        (self.buffer_bytes / self.vcs / packet_bytes).max(1)
    }
}

impl Default for RouterParams {
    fn default() -> Self {
        RouterParams::paper()
    }
}

/// The run-level knobs every packet model's `simulate` takes alongside
/// its own construction inputs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Link/packet parameters.
    pub link: LinkParams,
    /// Master seed.
    pub seed: u64,
    /// Simulated-time bound in ns (None = the model's default, generous
    /// for the workload size).
    pub horizon_ns: Option<u64>,
    /// Fault schedule. The empty plan is the fault-free fast path; a
    /// non-empty one adds per-fault-epoch and recovery metrics to the
    /// report.
    pub plan: FaultPlan,
    /// Invariant-oracle tuning (the chaos shrink demo tightens the stall
    /// deadline).
    pub oracle: OracleConfig,
}

impl RunSpec {
    /// A fault-free run with the default horizon and oracle.
    pub fn new(link: LinkParams, seed: u64) -> Self {
        RunSpec {
            link,
            seed,
            horizon_ns: None,
            plan: FaultPlan::new(seed),
            oracle: OracleConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packet_takes_163_84_ns() {
        let p = LinkParams::paper();
        assert_eq!(p.packet_time(), Duration::from_ps(163_840));
        assert_eq!(p.ack_time(), Duration::from_ps(20_480));
    }

    #[test]
    fn interarrival_follows_equation_1() {
        let p = LinkParams::paper();
        let mean = p.mean_interarrival_ps(0.7);
        assert!((mean - 163_840.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn multiplicity_schedule_matches_paper() {
        assert_eq!(BaldurParams::multiplicity_for(1_024), 4);
        assert_eq!(BaldurParams::multiplicity_for(16_384), 5);
        assert_eq!(BaldurParams::multiplicity_for(1 << 20), 5);
        assert_eq!(BaldurParams::multiplicity_for(32), 3);
    }

    #[test]
    fn backoff_timeout_doubles_then_caps() {
        let p = BaldurParams::paper_1k();
        assert_eq!(p.backoff_timeout_ps(1, 0), p.base_timeout_ps);
        assert_eq!(p.backoff_timeout_ps(2, 0), 2 * p.base_timeout_ps);
        assert_eq!(p.backoff_timeout_ps(3, 1), 8 * p.base_timeout_ps);
        // Capped at max_backoff_exp doublings, however deep the retry.
        let cap = p.base_timeout_ps << p.max_backoff_exp;
        assert_eq!(p.backoff_timeout_ps(40, 7), cap);
        assert_eq!(p.backoff_timeout_ps(u32::MAX, u32::MAX), cap);
    }

    #[test]
    fn vc_capacity_paper() {
        let r = RouterParams::paper();
        assert_eq!(r.vc_capacity(512), 16);
    }

    #[test]
    #[should_panic(expected = "load")]
    fn zero_load_rejected() {
        LinkParams::paper().mean_interarrival_ps(0.0);
    }
}
