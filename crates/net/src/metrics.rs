//! Latency and drop accounting shared by all network models.

use crate::faults::FaultPlan;
use crate::oracle::OracleSummary;
use baldur_sim::stats::{Reservoir, Streaming};
use baldur_sim::{Duration, Time};
use serde::{Deserialize, Serialize};

/// Hard cap on recovery-histogram bins (bins are `bin_ps` wide, so this
/// covers `MAX_BINS * bin_ps` of simulated time; deliveries beyond it
/// still count toward totals, just not toward recovery curves).
const MAX_BINS: usize = 1 << 20;

/// What the recovery tracker needs to know up front: when the fault
/// story starts (the baseline window), when repairs land, and what
/// "recovered" means.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySpec {
    /// Delivery-histogram bin width, ps.
    pub bin_ps: u64,
    /// Goodput fraction of the pre-fault baseline that counts as
    /// recovered.
    pub frac: f64,
    /// When the first fault fires (the baseline window is `[0, this)`).
    pub first_fault_ps: u64,
    /// Repair instants (ascending, ps) to measure recovery from.
    pub repairs_ps: Vec<u64>,
}

/// Per-repair recovery measurement (tentpole metric 3): how long after
/// the repair goodput climbed back to `frac` of the pre-fault baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The repair instant, ns.
    pub repair_at_ns: f64,
    /// Time from the repair until the first full histogram bin at or
    /// above the recovery threshold, ns; `None` when goodput never got
    /// back within the observed window, or when no pre-fault baseline
    /// exists to recover to (see [`Self::baseline_defined`]). A typed
    /// absence instead of a `-1.0`/NaN sentinel keeps CSV renderings
    /// honest.
    pub time_to_recover_ns: Option<f64>,
    /// Deliveries observed after the repair (0 means the run had drained
    /// already — an unrecovered verdict would be meaningless).
    pub deliveries_after: u64,
    /// The pre-fault baseline delivery rate, packets per µs.
    pub baseline_per_us: f64,
    /// False when the pre-fault window delivered nothing (zero-goodput
    /// baseline): the recovery threshold is then degenerate and no
    /// recovery verdict — positive or negative — is meaningful.
    pub baseline_defined: bool,
}

impl RecoveryReport {
    /// True when goodput provably returned to the threshold.
    pub fn recovered(&self) -> bool {
        self.time_to_recover_ns.is_some()
    }
}

/// Internal per-run recovery accumulator.
#[derive(Debug, Clone)]
struct RecoveryTrack {
    spec: RecoverySpec,
    baseline: u64,
    bins: Vec<u32>,
}

impl RecoveryTrack {
    fn new(spec: RecoverySpec) -> Self {
        RecoveryTrack {
            spec,
            baseline: 0,
            bins: Vec::new(),
        }
    }

    fn on_delivered(&mut self, now: Time) {
        let at = now.as_ps();
        if at < self.spec.first_fault_ps {
            self.baseline += 1;
        }
        let idx = (at / self.spec.bin_ps.max(1)) as usize;
        if idx >= MAX_BINS {
            return;
        }
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        if let Some(bin) = self.bins.get_mut(idx) {
            *bin += 1;
        }
    }

    fn reports(&self) -> Vec<RecoveryReport> {
        let bin_ps = self.spec.bin_ps.max(1);
        let baseline_rate = if self.spec.first_fault_ps > 0 {
            self.baseline as f64 / self.spec.first_fault_ps as f64
        } else {
            0.0
        };
        let threshold = self.spec.frac * baseline_rate * bin_ps as f64;
        self.spec
            .repairs_ps
            .iter()
            .map(|&repair_ps| {
                // First full bin strictly after the repair instant.
                let start = (repair_ps / bin_ps) as usize + 1;
                let after: u64 = self
                    .bins
                    .get(start..)
                    .unwrap_or(&[])
                    .iter()
                    .map(|&b| u64::from(b))
                    .sum();
                let recovered_bin = self
                    .bins
                    .get(start..)
                    .unwrap_or(&[])
                    .iter()
                    .position(|&b| f64::from(b) >= threshold)
                    .map(|off| start + off);
                let time_to_recover_ns = match recovered_bin {
                    // No pre-fault traffic: the threshold is degenerate
                    // (any bin — even an empty one — would "recover"), so
                    // no verdict is reported rather than a fake instant
                    // recovery.
                    _ if baseline_rate <= 0.0 => None,
                    Some(idx) => {
                        let end_ps = (idx as u64 + 1).saturating_mul(bin_ps);
                        Some(Time::from_ps(end_ps.saturating_sub(repair_ps)).as_ns_f64())
                    }
                    None => None,
                };
                RecoveryReport {
                    repair_at_ns: Time::from_ps(repair_ps).as_ns_f64(),
                    time_to_recover_ns,
                    deliveries_after: after,
                    baseline_per_us: baseline_rate * 1e6,
                    baseline_defined: baseline_rate > 0.0,
                }
            })
            .collect()
    }
}

/// The terminal state of one data packet's delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DeliveryOutcome {
    /// Still in the source's retransmission buffer (or in flight).
    #[default]
    Pending,
    /// At least one copy reached the destination.
    Delivered,
    /// The source exhausted its retry budget and gave up — the terminal
    /// state fault scenarios produce instead of retrying forever.
    GaveUp,
    /// The packet outlived its delivery deadline (`deadline_ps` age
    /// budget) while awaiting retransmission — the overload-control
    /// terminal state: under storm loads a stale retry only amplifies
    /// congestion, so the source expires it instead.
    Expired,
}

/// Per-fault-epoch accumulator (internal to [`Collector`]).
#[derive(Debug, Clone, Default)]
struct EpochAcc {
    generated: u64,
    delivered: u64,
    abandoned: u64,
    latency_sum_ns: f64,
}

/// Collects per-packet observations during a run.
#[derive(Debug, Clone)]
pub struct Collector {
    latency: Streaming,
    tail: Reservoir,
    generated: u64,
    delivered: u64,
    abandoned: u64,
    expired: u64,
    ingress_drops: u64,
    /// Per-source-flow generation/delivery tallies (lazily grown; empty
    /// unless a model opts into flow accounting via the `note_flow_*`
    /// hooks). Feeds the fairness index and the starvation oracle.
    flow_generated: Vec<u64>,
    flow_delivered: Vec<u64>,
    drop_attempts: u64,
    forward_attempts: u64,
    injections: u64,
    retransmissions: u64,
    corrupted: u64,
    laser_losses: u64,
    max_retx_buffer_bytes: u64,
    end: Time,
    /// Fault-epoch boundaries (ps, ascending); empty = one implicit epoch
    /// and zero per-epoch bookkeeping.
    boundaries: Vec<u64>,
    epochs: Vec<EpochAcc>,
    recovery: Option<RecoveryTrack>,
}

impl Collector {
    /// An empty collector retaining up to `sample_cap` exact latency
    /// samples for percentiles.
    pub fn new(sample_cap: usize) -> Self {
        Collector::with_recovery(sample_cap, Vec::new(), None)
    }

    /// [`Collector::new`], additionally bucketing observations into the
    /// fault epochs delimited by `boundaries_ps` (sorted ascending, e.g.
    /// from `FaultPlan::epoch_boundaries`) and measuring per-repair
    /// recovery time against `recovery` (when given). Each observation
    /// lands in the epoch containing its event time, giving per-epoch
    /// degradation curves across a staircase fault plan; deliveries are
    /// histogrammed in `bin_ps` windows and each repair instant is
    /// scanned for the first bin back at the threshold goodput.
    pub fn with_recovery(
        sample_cap: usize,
        boundaries_ps: Vec<u64>,
        recovery: Option<RecoverySpec>,
    ) -> Self {
        let epochs = if boundaries_ps.is_empty() {
            Vec::new()
        } else {
            vec![EpochAcc::default(); boundaries_ps.len() + 1]
        };
        Collector {
            latency: Streaming::new(),
            tail: Reservoir::with_capacity(sample_cap.max(1)),
            generated: 0,
            delivered: 0,
            abandoned: 0,
            expired: 0,
            ingress_drops: 0,
            flow_generated: Vec::new(),
            flow_delivered: Vec::new(),
            drop_attempts: 0,
            forward_attempts: 0,
            injections: 0,
            retransmissions: 0,
            corrupted: 0,
            laser_losses: 0,
            max_retx_buffer_bytes: 0,
            end: Time::ZERO,
            boundaries: boundaries_ps,
            epochs,
            recovery: recovery.map(RecoveryTrack::new),
        }
    }

    /// The collector a run executing `plan` uses: fault epochs at the
    /// plan's boundaries and, when the plan repairs anything, recovery
    /// measured from its first fault.
    pub fn for_plan(sample_cap: usize, plan: &FaultPlan) -> Self {
        let repairs = plan.repair_times();
        let recovery = match (
            repairs.is_empty(),
            plan.events.iter().map(|e| e.at_ps).min(),
        ) {
            (false, Some(first_fault_ps)) => Some(RecoverySpec {
                // 1 us bins resolve recovery on CI-scale runs while a
                // 1 M-bin cap keeps long sweeps bounded.
                bin_ps: 1_000_000,
                frac: 0.5,
                first_fault_ps,
                repairs_ps: repairs,
            }),
            _ => None,
        };
        Collector::with_recovery(sample_cap, plan.epoch_boundaries(), recovery)
    }

    #[inline]
    fn epoch_mut(&mut self, now: Time) -> Option<&mut EpochAcc> {
        if self.boundaries.is_empty() {
            return None;
        }
        self.epochs.get_mut(now.epoch_index(&self.boundaries))
    }

    /// A packet was created by the workload at `now`.
    pub fn on_generated(&mut self, now: Time) {
        self.generated += 1;
        if let Some(e) = self.epoch_mut(now) {
            e.generated += 1;
        }
    }

    /// A packet reached its destination for the first time.
    pub fn on_delivered(&mut self, latency: Duration, now: Time) {
        self.delivered += 1;
        let ns = latency.as_ns_f64();
        self.latency.push(ns);
        self.tail.push(ns);
        self.end = self.end.max(now);
        if let Some(e) = self.epoch_mut(now) {
            e.delivered += 1;
            e.latency_sum_ns += ns;
        }
        if let Some(t) = &mut self.recovery {
            t.on_delivered(now);
        }
    }

    /// A packet gave up after the retry limit at `now`.
    pub fn on_abandoned(&mut self, now: Time) {
        self.abandoned += 1;
        if let Some(e) = self.epoch_mut(now) {
            e.abandoned += 1;
        }
    }

    /// A packet outlived its delivery deadline at `now` and was expired
    /// by its source (terminal, like abandonment; bucketed with the
    /// epoch's abandonments since both are load-shedding losses).
    pub fn on_expired(&mut self, now: Time) {
        self.expired += 1;
        if let Some(e) = self.epoch_mut(now) {
            e.abandoned += 1;
        }
    }

    /// A packet was refused at its source's bounded ingress queue
    /// (admission control; terminal, counted — never silent).
    pub fn on_ingress_drop(&mut self, now: Time) {
        self.ingress_drops += 1;
        if let Some(e) = self.epoch_mut(now) {
            e.abandoned += 1;
        }
    }

    /// Attributes one generated packet to source flow `src` (opt-in
    /// per-flow accounting for the fairness index and starvation oracle).
    pub fn note_flow_generated(&mut self, src: u32) {
        let idx = src as usize;
        if idx >= self.flow_generated.len() {
            self.flow_generated.resize(idx + 1, 0);
        }
        if let Some(f) = self.flow_generated.get_mut(idx) {
            *f += 1;
        }
    }

    /// Attributes one delivery to source flow `src`.
    pub fn note_flow_delivered(&mut self, src: u32) {
        let idx = src as usize;
        if idx >= self.flow_delivered.len() {
            self.flow_delivered.resize(idx + 1, 0);
        }
        if let Some(f) = self.flow_delivered.get_mut(idx) {
            *f += 1;
        }
    }

    /// A packet was corrupted in flight by a bit-error burst (and
    /// dropped; also counted as a drop via [`Collector::on_forward_attempt`]).
    pub fn on_corrupted(&mut self) {
        self.corrupted += 1;
    }

    /// A transmission was lost at the source because its laser is dead
    /// (charged as an injection attempt, never enters the fabric).
    pub fn on_laser_loss(&mut self) {
        self.laser_losses += 1;
    }

    /// A packet entered the network (one traversal attempt).
    pub fn on_injection(&mut self) {
        self.injections += 1;
    }

    /// A switch forwarded (or tried to forward) a packet.
    pub fn on_forward_attempt(&mut self, dropped: bool) {
        self.forward_attempts += 1;
        if dropped {
            self.drop_attempts += 1;
        }
    }

    /// A source retransmitted a packet.
    pub fn on_retransmit(&mut self) {
        self.retransmissions += 1;
    }

    /// Tracks the high-water retransmission-buffer occupancy.
    pub fn on_retx_buffer(&mut self, bytes: u64) {
        self.max_retx_buffer_bytes = self.max_retx_buffer_bytes.max(bytes);
    }

    /// Packets generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets abandoned (GaveUp) so far.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Packets expired past their deadline so far.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Packets refused at a bounded ingress queue so far.
    pub fn ingress_drops(&self) -> u64 {
        self.ingress_drops
    }

    /// Fairness over the flows that generated traffic: Jain's index of
    /// their delivered counts, plus the distribution extremes. Neutral
    /// ([`FlowStats::default`]) when flow accounting was not in use.
    fn flow_stats(&self) -> FlowStats {
        let mut xs: Vec<f64> = Vec::new();
        for (src, &gen) in self.flow_generated.iter().enumerate() {
            if gen == 0 {
                continue;
            }
            let d = self.flow_delivered.get(src).copied().unwrap_or(0);
            xs.push(d as f64);
        }
        if xs.is_empty() {
            return FlowStats::default();
        }
        let n = xs.len() as f64;
        let sum: f64 = xs.iter().sum();
        let sumsq: f64 = xs.iter().map(|x| x * x).sum();
        // All-zero deliveries: maximally uniform (every flow equally
        // starved), so Jain is 1 by convention rather than 0/0.
        let jain = if sumsq <= 0.0 {
            1.0
        } else {
            sum * sum / (n * sumsq)
        };
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(0.0f64, f64::max);
        FlowStats {
            flows: xs.len() as u64,
            min_delivered: min as u64,
            max_delivered: max as u64,
            jain,
        }
    }

    /// Finalizes into a [`LatencyReport`].
    pub fn report(&self, sim_end: Time) -> LatencyReport {
        let [p99_ns, p999_ns] = self.tail.quantiles([0.99, 0.999]);
        LatencyReport {
            generated: self.generated,
            delivered: self.delivered,
            abandoned: self.abandoned,
            expired: self.expired,
            ingress_drops: self.ingress_drops,
            avg_ns: self.latency.mean(),
            p99_ns,
            p999_ns,
            max_ns: self.latency.max(),
            min_ns: self.latency.min(),
            drop_attempts: self.drop_attempts,
            forward_attempts: self.forward_attempts,
            injections: self.injections,
            drop_rate: if self.injections == 0 {
                0.0
            } else {
                self.drop_attempts as f64 / self.injections as f64
            },
            hop_drop_rate: if self.forward_attempts == 0 {
                0.0
            } else {
                self.drop_attempts as f64 / self.forward_attempts as f64
            },
            retransmissions: self.retransmissions,
            corrupted: self.corrupted,
            laser_losses: self.laser_losses,
            max_retx_buffer_bytes: self.max_retx_buffer_bytes,
            sim_end_ns: sim_end.as_ns_f64(),
            last_delivery_ns: self.end.as_ns_f64(),
            // The collector never sees the scheduler; each simulator
            // overwrites this with `events_executed()` before returning.
            events: 0,
            stranded: self
                .generated
                .saturating_sub(self.delivered)
                .saturating_sub(self.abandoned)
                .saturating_sub(self.expired)
                .saturating_sub(self.ingress_drops),
            fairness: self.flow_stats(),
            recoveries: self
                .recovery
                .as_ref()
                .map(RecoveryTrack::reports)
                .unwrap_or_default(),
            oracle: OracleSummary::default(),
            epochs: self
                .epochs
                .iter()
                .enumerate()
                .map(|(i, e)| EpochReport {
                    start_ns: if i == 0 {
                        0.0
                    } else {
                        Time::from_ps(self.boundaries[i - 1]).as_ns_f64()
                    },
                    generated: e.generated,
                    delivered: e.delivered,
                    abandoned: e.abandoned,
                    avg_ns: if e.delivered == 0 {
                        0.0
                    } else {
                        e.latency_sum_ns / e.delivered as f64
                    },
                })
                .collect(),
        }
    }
}

/// Per-fault-epoch slice of a run: observations bucketed by the epoch
/// containing their event time (generation, delivery, or abandonment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch start on the simulation clock, ns.
    pub start_ns: f64,
    /// Packets generated during the epoch.
    pub generated: u64,
    /// Packets delivered during the epoch.
    pub delivered: u64,
    /// Packets abandoned (GaveUp) during the epoch.
    pub abandoned: u64,
    /// Mean latency of the epoch's deliveries, ns (0 when none).
    pub avg_ns: f64,
}

impl EpochReport {
    /// Goodput of the epoch: packets delivered per packet generated
    /// (cross-epoch deliveries can push this above 1 right after a
    /// recovery; 1.0 when the epoch generated nothing).
    pub fn goodput(&self) -> f64 {
        if self.generated == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.generated as f64
    }
}

/// Per-flow goodput distribution summary: how evenly the delivered
/// packets were spread over the flows that offered traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Flows that generated at least one packet (0 = flow accounting was
    /// not in use; the other fields are then the neutral defaults).
    pub flows: u64,
    /// Fewest deliveries of any offering flow.
    pub min_delivered: u64,
    /// Most deliveries of any offering flow.
    pub max_delivered: u64,
    /// Jain's fairness index over per-flow delivered counts:
    /// `(Σx)² / (n·Σx²)`, in `(0, 1]` with 1 = perfectly even.
    pub jain: f64,
}

impl Default for FlowStats {
    fn default() -> Self {
        FlowStats {
            flows: 0,
            min_delivered: 0,
            max_delivered: 0,
            jain: 1.0,
        }
    }
}

/// The summary of one simulation run — the row a figure harness prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Packets created by the workload.
    pub generated: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Packets abandoned after the retry limit (Baldur only).
    pub abandoned: u64,
    /// Packets expired past their delivery deadline instead of being
    /// retried (overload control; zero unless a deadline budget is set).
    pub expired: u64,
    /// Packets refused at a bounded source ingress queue (admission
    /// control; zero unless an ingress cap is set).
    pub ingress_drops: u64,
    /// Mean packet latency, ns (generation to first delivery, including
    /// queueing and retransmissions).
    pub avg_ns: f64,
    /// 99th-percentile ("tail") latency, ns.
    pub p99_ns: f64,
    /// 99.9th-percentile latency, ns (the storm-visible tail).
    pub p999_ns: f64,
    /// Worst observed latency, ns.
    pub max_ns: f64,
    /// Best observed latency, ns.
    pub min_ns: f64,
    /// Forwarding attempts that ended in a drop (Baldur only).
    pub drop_attempts: u64,
    /// Total switch forwarding attempts.
    pub forward_attempts: u64,
    /// Network traversal attempts (injections, counting retransmissions).
    pub injections: u64,
    /// Per-traversal drop probability: `drop_attempts / injections` —
    /// the paper's Table V "drop rate".
    pub drop_rate: f64,
    /// Per-switch-hop drop probability: `drop_attempts / forward_attempts`.
    pub hop_drop_rate: f64,
    /// Source retransmissions (Baldur only).
    pub retransmissions: u64,
    /// In-flight packets corrupted (and dropped) by bit-error bursts.
    pub corrupted: u64,
    /// Transmissions lost at a dead source laser before entering the
    /// fabric.
    pub laser_losses: u64,
    /// High-water mark of any node's retransmission buffer, bytes.
    pub max_retx_buffer_bytes: u64,
    /// Simulated time when the run ended (drained or hit the horizon) —
    /// includes trailing timer events after the last delivery, ns.
    pub sim_end_ns: f64,
    /// Simulated time of the last delivery, ns (0 when nothing was
    /// delivered). The accepted-goodput denominator: unlike
    /// [`LatencyReport::sim_end_ns`] it excludes the dead air of stale
    /// retry timers draining after traffic already finished.
    pub last_delivery_ns: f64,
    /// Discrete events executed by the simulation kernel over the whole
    /// run — a deterministic, machine-independent work count (identical
    /// for identical configs at any thread count). The perf harness
    /// gates on this instead of trusting the wall clock.
    pub events: u64,
    /// Packets with no terminal outcome at the end of the run:
    /// `generated - delivered - abandoned - expired - ingress_drops`.
    /// Zero whenever the run drained; nonzero means the horizon (or a
    /// stuck-flow abort) cut packets off mid-flight.
    pub stranded: u64,
    /// Per-flow goodput distribution and Jain's fairness index (neutral
    /// default unless the model attributed packets to flows).
    pub fairness: FlowStats,
    /// Per-repair recovery measurements (empty unless the run had a
    /// fault plan with repair events).
    pub recoveries: Vec<RecoveryReport>,
    /// What the always-on invariant oracle observed (clean by default).
    pub oracle: OracleSummary,
    /// Per-fault-epoch breakdown (empty unless the run had a fault plan
    /// with nonzero event times).
    pub epochs: Vec<EpochReport>,
}

impl LatencyReport {
    /// Fraction of generated packets delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.generated as f64
    }

    /// Flap-amplification factor: transmission attempts per generated
    /// packet, `(generated + retransmissions) / generated`. A flapping
    /// element amplifies offered load through the retry machinery; 1.0
    /// is the no-retransmission floor (and the electrical models, which
    /// never retransmit).
    pub fn flap_amplification(&self) -> f64 {
        if self.generated == 0 {
            return 1.0;
        }
        (self.generated + self.retransmissions) as f64 / self.generated as f64
    }

    /// The longest observed time-to-recover across this run's repairs,
    /// ns; `None` when no repair recovered (or none was measured).
    pub fn max_recovery_ns(&self) -> Option<f64> {
        self.recoveries
            .iter()
            .filter_map(|r| r.time_to_recover_ns)
            .max_by(f64::total_cmp)
    }

    /// Accepted load: delivered bandwidth per node as a fraction of the
    /// link rate (the y-axis of an offered-vs-accepted saturation plot).
    pub fn accepted_load(&self, nodes: u32, packet_time_ps: u64) -> f64 {
        if self.sim_end_ns <= 0.0 || nodes == 0 {
            return 0.0;
        }
        let delivered_time_ps = self.delivered as f64 * packet_time_ps as f64;
        delivered_time_ps / (self.sim_end_ns * 1e3 * f64::from(nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_round_trip() {
        let mut c = Collector::new(1000);
        for i in 1..=100u64 {
            c.on_generated(Time::from_ns(i * 1000));
            c.on_delivered(Duration::from_ns(i * 10), Time::from_ns(i * 1000));
        }
        c.on_injection();
        c.on_injection();
        c.on_forward_attempt(false);
        c.on_forward_attempt(true);
        c.on_retransmit();
        c.on_retx_buffer(4096);
        c.on_retx_buffer(1024);
        let r = c.report(Time::from_ns(123_456));
        assert_eq!(r.generated, 100);
        assert_eq!(r.delivered, 100);
        assert!((r.avg_ns - 505.0).abs() < 1e-9);
        assert!((r.p99_ns - 990.1).abs() < 0.2);
        assert_eq!(r.drop_attempts, 1);
        assert!((r.drop_rate - 0.5).abs() < 1e-12);
        assert_eq!(r.max_retx_buffer_bytes, 4096);
        assert!((r.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!(r.epochs.is_empty(), "no boundaries, no epoch rows");
        assert_eq!(r.corrupted, 0);
        assert_eq!(r.laser_losses, 0);
    }

    #[test]
    fn epochs_bucket_by_event_time() {
        // Boundaries at 10 us and 20 us → three epochs.
        let mut c = Collector::with_recovery(64, vec![10_000_000, 20_000_000], None);
        c.on_generated(Time::from_us(1));
        c.on_delivered(Duration::from_ns(400), Time::from_us(2));
        c.on_generated(Time::from_us(12));
        c.on_abandoned(Time::from_us(15));
        c.on_generated(Time::from_us(25));
        c.on_delivered(Duration::from_ns(800), Time::from_us(26));
        let r = c.report(Time::from_us(30));
        assert_eq!(r.epochs.len(), 3);
        assert_eq!(r.epochs[0].start_ns, 0.0);
        assert_eq!(r.epochs[1].start_ns, 10_000.0);
        assert_eq!(r.epochs[2].start_ns, 20_000.0);
        assert_eq!(
            (
                r.epochs[0].generated,
                r.epochs[0].delivered,
                r.epochs[0].abandoned
            ),
            (1, 1, 0)
        );
        assert_eq!(
            (
                r.epochs[1].generated,
                r.epochs[1].delivered,
                r.epochs[1].abandoned
            ),
            (1, 0, 1)
        );
        assert_eq!(
            (
                r.epochs[2].generated,
                r.epochs[2].delivered,
                r.epochs[2].abandoned
            ),
            (1, 1, 0)
        );
        assert!((r.epochs[0].goodput() - 1.0).abs() < 1e-12);
        assert!(r.epochs[1].goodput().abs() < 1e-12);
        assert!((r.epochs[0].avg_ns - 400.0).abs() < 1e-12);
        assert!((r.epochs[2].avg_ns - 800.0).abs() < 1e-12);
        // Totals still cover everything.
        assert_eq!(r.generated, 3);
        assert_eq!(r.delivered, 2);
        assert_eq!(r.abandoned, 1);
    }

    #[test]
    fn recovery_tracker_measures_time_to_recover() {
        let spec = RecoverySpec {
            bin_ps: 1_000_000,
            frac: 0.5,
            first_fault_ps: 10_000_000,
            repairs_ps: vec![20_000_000],
        };
        let mut c = Collector::with_recovery(64, vec![10_000_000, 20_000_000], Some(spec));
        // Baseline: 1 delivery/µs for the 10 µs before the fault.
        for i in 0..10u64 {
            c.on_delivered(
                Duration::from_ns(100),
                Time::from_ps(i * 1_000_000 + 500_000),
            );
        }
        // Outage 10–20 µs: silence. Repair at 20 µs; goodput returns at
        // 25 µs.
        for i in 25..30u64 {
            c.on_delivered(
                Duration::from_ns(100),
                Time::from_ps(i * 1_000_000 + 500_000),
            );
        }
        let r = c.report(Time::from_us(30));
        assert_eq!(r.recoveries.len(), 1);
        let rec = &r.recoveries[0];
        assert!(rec.recovered());
        assert!(rec.baseline_defined);
        // First ≥-threshold bin after the repair is [25, 26) µs → ends
        // 6 µs after the 20 µs repair.
        let ttr = rec.time_to_recover_ns.expect("recovered");
        assert!((ttr - 6_000.0).abs() < 1e-9);
        assert_eq!(rec.deliveries_after, 5);
        assert!((rec.baseline_per_us - 1.0).abs() < 1e-9);
        assert_eq!(r.max_recovery_ns(), Some(ttr));
        assert_eq!(r.stranded, 0, "delivered-only run strands nothing");
    }

    #[test]
    fn unrecovered_repairs_report_no_recovery_time() {
        let spec = RecoverySpec {
            bin_ps: 1_000_000,
            frac: 0.5,
            first_fault_ps: 5_000_000,
            repairs_ps: vec![10_000_000],
        };
        let mut c = Collector::with_recovery(64, Vec::new(), Some(spec));
        for i in 0..5u64 {
            c.on_delivered(
                Duration::from_ns(100),
                Time::from_ps(i * 1_000_000 + 500_000),
            );
        }
        let r = c.report(Time::from_us(20));
        assert_eq!(r.recoveries.len(), 1);
        assert!(!r.recoveries[0].recovered());
        assert!(r.recoveries[0].baseline_defined);
        assert_eq!(r.recoveries[0].time_to_recover_ns, None);
        assert_eq!(r.recoveries[0].deliveries_after, 0);
        assert_eq!(r.max_recovery_ns(), None);
    }

    #[test]
    fn zero_goodput_baseline_yields_typed_absence_not_nan() {
        // Regression (overload PR): a pre-fault window with zero
        // deliveries used to claim an instant (0 ns) recovery. It must
        // instead report an undefined baseline and no recovery verdict,
        // and no NaN/inf may reach the numeric fields.
        let spec = RecoverySpec {
            bin_ps: 1_000_000,
            frac: 0.5,
            first_fault_ps: 5_000_000,
            repairs_ps: vec![10_000_000],
        };
        let mut c = Collector::with_recovery(64, Vec::new(), Some(spec));
        // Deliveries only *after* the repair; the baseline window is dark.
        for i in 12..18u64 {
            c.on_delivered(
                Duration::from_ns(100),
                Time::from_ps(i * 1_000_000 + 500_000),
            );
        }
        let r = c.report(Time::from_us(20));
        assert_eq!(r.recoveries.len(), 1);
        let rec = &r.recoveries[0];
        assert!(!rec.baseline_defined, "dark baseline must be flagged");
        assert!(!rec.recovered());
        assert_eq!(rec.time_to_recover_ns, None);
        assert_eq!(rec.deliveries_after, 6);
        assert!(rec.baseline_per_us.is_finite());
        assert_eq!(rec.baseline_per_us, 0.0);
        assert_eq!(r.max_recovery_ns(), None);
        assert!(r.flap_amplification().is_finite());
    }

    #[test]
    fn flap_amplification_and_stranded_accounting() {
        let mut c = Collector::new(16);
        for _ in 0..4 {
            c.on_generated(Time::from_ns(1));
        }
        c.on_delivered(Duration::from_ns(10), Time::from_ns(2));
        c.on_abandoned(Time::from_ns(3));
        c.on_retransmit();
        c.on_retransmit();
        let r = c.report(Time::from_ns(10));
        assert!((r.flap_amplification() - 1.5).abs() < 1e-12);
        assert_eq!(r.stranded, 2, "two packets never reached an outcome");
        assert!(r.oracle.is_clean(), "reports default to a clean oracle");
    }

    #[test]
    fn delivery_outcome_default_is_pending() {
        assert_eq!(DeliveryOutcome::default(), DeliveryOutcome::Pending);
        assert_ne!(DeliveryOutcome::Delivered, DeliveryOutcome::GaveUp);
        assert_ne!(DeliveryOutcome::GaveUp, DeliveryOutcome::Expired);
    }

    #[test]
    fn expired_and_ingress_drops_are_terminal_outcomes() {
        let mut c = Collector::new(16);
        for _ in 0..6 {
            c.on_generated(Time::from_ns(1));
        }
        c.on_delivered(Duration::from_ns(10), Time::from_ns(2));
        c.on_abandoned(Time::from_ns(3));
        c.on_expired(Time::from_ns(4));
        c.on_expired(Time::from_ns(5));
        c.on_ingress_drop(Time::from_ns(6));
        let r = c.report(Time::from_ns(10));
        assert_eq!(r.expired, 2);
        assert_eq!(r.ingress_drops, 1);
        assert_eq!(
            r.stranded, 1,
            "one packet remains without a terminal outcome"
        );
        assert_eq!(
            r.generated,
            r.delivered + r.abandoned + r.expired + r.ingress_drops + r.stranded
        );
    }

    #[test]
    fn flow_stats_compute_jain_over_offering_flows() {
        let mut c = Collector::new(16);
        // Three offering flows (0, 1, 3) and one silent node (2).
        for (src, gen, del) in [(0u32, 4u64, 4u64), (1, 4, 2), (3, 4, 0)] {
            for _ in 0..gen {
                c.on_generated(Time::from_ns(1));
                c.note_flow_generated(src);
            }
            for _ in 0..del {
                c.on_delivered(Duration::from_ns(10), Time::from_ns(2));
                c.note_flow_delivered(src);
            }
        }
        let r = c.report(Time::from_ns(10));
        let f = r.fairness;
        assert_eq!(f.flows, 3, "silent node 2 must not count");
        assert_eq!(f.min_delivered, 0);
        assert_eq!(f.max_delivered, 4);
        // Jain((4, 2, 0)) = 36 / (3 * 20) = 0.6.
        assert!((f.jain - 0.6).abs() < 1e-12, "jain {}", f.jain);
        // A collector without flow accounting reports the neutral default.
        let plain = Collector::new(4).report(Time::from_ns(1));
        assert_eq!(plain.fairness, FlowStats::default());
        assert_eq!(plain.fairness.jain, 1.0);
    }

    #[test]
    fn all_flows_starved_is_uniformly_fair() {
        let mut c = Collector::new(4);
        for src in 0..3u32 {
            c.on_generated(Time::from_ns(1));
            c.note_flow_generated(src);
        }
        let f = c.report(Time::from_ns(5)).fairness;
        assert_eq!(f.flows, 3);
        assert_eq!((f.min_delivered, f.max_delivered), (0, 0));
        assert_eq!(f.jain, 1.0, "0/0 must resolve to uniform, not NaN");
    }
}
