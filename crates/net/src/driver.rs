//! Workload drivers: who sends what, when.
//!
//! All network models (Baldur, electrical, ideal) share one driver so a
//! workload is defined once and replayed identically everywhere. Three
//! source kinds cover the paper's evaluation:
//!
//! * **Open loop** — exponential inter-arrival times at a configured input
//!   load (Sec. V-A Eq. 1), destinations from a [`Pattern`] assignment.
//! * **Ping-pong** — closed loop: paired nodes bounce a packet back and
//!   forth, so network latency directly serializes progress.
//! * **Trace** — a per-node script of sends, receives, and compute delays,
//!   used by the synthetic HPC workloads (DUMPI-replay style: a receive
//!   gates everything after it).

use baldur_sim::rng::StreamRng;
use baldur_topo::graph::NodeId;
use serde::{Deserialize, Serialize};

use crate::config::LinkParams;
use crate::traffic::{Assignment, Pattern};

/// One step of a trace script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Transmit `packets` packets to `dst`.
    Send {
        /// Destination node.
        dst: u32,
        /// Number of packets in the message.
        packets: u32,
    },
    /// Block until `packets` more packets have been received.
    Recv {
        /// Number of packets to wait for.
        packets: u32,
    },
    /// Local compute for `ps` picoseconds.
    Delay {
        /// Compute time in picoseconds.
        ps: u64,
    },
}

/// A transmit command handed to the network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendCmd {
    /// Destination node.
    pub dst: NodeId,
    /// Number of packets.
    pub count: u32,
}

/// What the driver wants next from the model.
#[derive(Debug, Clone, Default)]
pub struct DriverOutput {
    /// Packets to enqueue at the node right now.
    pub sends: Vec<SendCmd>,
    /// If set, call [`Driver::wakeup`] for this node at the given time.
    pub wake_at_ps: Option<u64>,
}

enum NodeSource {
    OpenLoop {
        remaining: u32,
        mean_ps: f64,
    },
    Burst {
        remaining: u32,
        in_burst: u32,
        burst_len: u32,
        spacing_ps: f64,
        gap_mean_ps: f64,
    },
    PingPong {
        partner: u32,
        remaining_sends: u32,
        initiator: bool,
    },
    Trace {
        ops: Vec<Op>,
        pc: usize,
        needed: u32,
        banked: u32,
    },
}

/// The per-run workload driver.
pub struct Driver {
    nodes: u32,
    sources: Vec<NodeSource>,
    assignment: Option<Assignment>,
    rng: StreamRng,
    total_to_send: u64,
}

impl Driver {
    /// An open-loop driver: every node injects `packets_per_node` packets
    /// at `load`, destinations from `pattern`.
    pub fn open_loop(
        nodes: u32,
        pattern: Pattern,
        load: f64,
        packets_per_node: u32,
        link: &LinkParams,
        seed: u64,
    ) -> Driver {
        let assignment = Assignment::build(pattern, nodes, seed);
        let mean_ps = link.mean_interarrival_ps(load);
        let sources = (0..nodes)
            .map(|_| NodeSource::OpenLoop {
                remaining: packets_per_node,
                mean_ps,
            })
            .collect();
        Driver {
            nodes,
            sources,
            assignment: Some(assignment),
            rng: StreamRng::named(seed, "driver", 0),
            total_to_send: u64::from(nodes) * u64::from(packets_per_node),
        }
    }

    /// An overload-storm driver: destinations from a storm [`Pattern`]
    /// at an offered `load` that may exceed saturation (`load > 1` is
    /// allowed — arrivals then outpace the line rate on purpose). Only
    /// the pattern's active senders transmit
    /// ([`crate::traffic::storm_senders`]); [`Pattern::Hotcast`] sources
    /// are bursty on/off (bursts of [`Driver::BURST_LEN`] back-to-back
    /// packets separated by exponential off gaps sized so the long-run
    /// offered load still equals `load`).
    ///
    /// # Panics
    ///
    /// Panics on configurations [`Assignment::try_build`] rejects and
    /// if `load <= 0`.
    pub fn storm(
        nodes: u32,
        pattern: Pattern,
        load: f64,
        packets_per_node: u32,
        link: &LinkParams,
        seed: u64,
    ) -> Driver {
        let assignment = Assignment::build(pattern, nodes, seed);
        let mean_ps = link.overload_interarrival_ps(load);
        let packet_ps = link.packet_time().as_ps() as f64;
        // On/off shape: within a burst packets are back-to-back at the
        // offered rate (or line rate if load < 1); the off gap carries
        // the rest of the idle time so the average still matches.
        let burst_len = Self::BURST_LEN;
        let (spacing_ps, gap_mean_ps) = if load >= 1.0 {
            (packet_ps / load, 0.0)
        } else {
            (
                packet_ps,
                f64::from(burst_len) * packet_ps * (1.0 - load) / load,
            )
        };
        let bursty = pattern == Pattern::Hotcast;
        let senders = crate::traffic::storm_senders(pattern, nodes, seed);
        let active = |n: u32| senders.as_ref().is_none_or(|s| s.contains(&n));
        let mut total = 0u64;
        let sources = (0..nodes)
            .map(|n| {
                let remaining = if active(n) { packets_per_node } else { 0 };
                total += u64::from(remaining);
                if bursty {
                    NodeSource::Burst {
                        remaining,
                        in_burst: 0,
                        burst_len,
                        spacing_ps,
                        gap_mean_ps,
                    }
                } else {
                    NodeSource::OpenLoop { remaining, mean_ps }
                }
            })
            .collect();
        Driver {
            nodes,
            sources,
            assignment: Some(assignment),
            rng: StreamRng::named(seed, "driver", 3),
            total_to_send: total,
        }
    }

    /// Packets per on-phase burst for [`Driver::storm`] hotcast sources.
    pub const BURST_LEN: u32 = 8;

    /// A ping-pong driver over explicit mutual `pairs` (each entry is the
    /// partner of its index). Each initiator plays `rounds` rounds; one
    /// round is one packet each way.
    ///
    /// # Panics
    ///
    /// Panics if the pairing is not a symmetric involution.
    pub fn ping_pong(pairs: Vec<u32>, rounds: u32, seed: u64) -> Driver {
        let nodes = pairs.len() as u32;
        for (i, &p) in pairs.iter().enumerate() {
            assert_ne!(i as u32, p, "node paired with itself");
            assert_eq!(pairs[p as usize], i as u32, "pairing must be mutual");
        }
        let sources = pairs
            .iter()
            .enumerate()
            .map(|(i, &partner)| NodeSource::PingPong {
                partner,
                remaining_sends: rounds,
                initiator: (i as u32) < partner,
            })
            .collect();
        Driver {
            nodes,
            sources,
            assignment: None,
            rng: StreamRng::named(seed, "driver", 1),
            total_to_send: u64::from(nodes) * u64::from(rounds),
        }
    }

    /// A trace driver from per-node scripts.
    ///
    /// # Panics
    ///
    /// Panics if a script sends to an out-of-range node.
    pub fn trace(scripts: Vec<Vec<Op>>, seed: u64) -> Driver {
        let nodes = scripts.len() as u32;
        let mut total = 0u64;
        for ops in &scripts {
            for op in ops {
                if let Op::Send { dst, packets } = op {
                    assert!(*dst < nodes, "send to out-of-range node {dst}");
                    total += u64::from(*packets);
                }
            }
        }
        let sources = scripts
            .into_iter()
            .map(|ops| NodeSource::Trace {
                ops,
                pc: 0,
                needed: 0,
                banked: 0,
            })
            .collect();
        Driver {
            nodes,
            sources,
            assignment: None,
            rng: StreamRng::named(seed, "driver", 2),
            total_to_send: total,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Total packets the workload will transmit (for termination checks).
    pub fn total_to_send(&self) -> u64 {
        self.total_to_send
    }

    /// First activity per node: `(node, wake_time_ps)` — schedule a
    /// [`Driver::wakeup`] for each.
    pub fn initial(&mut self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for n in 0..self.nodes {
            match &self.sources[n as usize] {
                NodeSource::OpenLoop { remaining, mean_ps } if *remaining > 0 => {
                    let t = self.rng.gen_exp(*mean_ps) as u64;
                    out.push((n, t));
                }
                NodeSource::Burst {
                    remaining,
                    burst_len,
                    spacing_ps,
                    gap_mean_ps,
                    ..
                } if *remaining > 0 => {
                    // Stagger starts by the long-run mean inter-arrival so
                    // bursts don't all fire in phase at t=0.
                    let mean = *spacing_ps + *gap_mean_ps / f64::from(*burst_len);
                    let t = self.rng.gen_exp(mean) as u64;
                    out.push((n, t));
                }
                NodeSource::PingPong {
                    initiator: true,
                    remaining_sends,
                    ..
                } if *remaining_sends > 0 => out.push((n, 0)),
                NodeSource::Trace { ops, .. } if !ops.is_empty() => out.push((n, 0)),
                _ => {}
            }
        }
        out
    }

    /// A scheduled wakeup for `node` fired at `now_ps`.
    pub fn wakeup(&mut self, node: u32, now_ps: u64) -> DriverOutput {
        // The generating sources (open-loop and burst) update their state
        // in the match, then fall through to a shared destination draw —
        // every generating constructor installs an assignment, and one
        // shared lookup keeps that invariant in one place. RNG order is
        // part of the determinism contract: the destination draw comes
        // first, the timing draw second, exactly as each arm did inline.
        enum Timing {
            // `gen_exp(mean)` after the destination draw.
            Open { mean: f64 },
            // Fixed spacing plus `gen_exp(gap_mean)` when a burst ended.
            Burst { spacing: f64, gap_mean: f64 },
        }
        let (timing, more) = match &mut self.sources[node as usize] {
            NodeSource::OpenLoop { remaining, mean_ps } => {
                if *remaining == 0 {
                    return DriverOutput::default();
                }
                *remaining -= 1;
                (Timing::Open { mean: *mean_ps }, *remaining > 0)
            }
            NodeSource::Burst {
                remaining,
                in_burst,
                burst_len,
                spacing_ps,
                gap_mean_ps,
            } => {
                if *remaining == 0 {
                    return DriverOutput::default();
                }
                *remaining -= 1;
                *in_burst += 1;
                // End of a burst: add the exponential off gap and start
                // the next burst fresh.
                let gap_mean = if *in_burst >= *burst_len {
                    *in_burst = 0;
                    *gap_mean_ps
                } else {
                    0.0
                };
                (
                    Timing::Burst {
                        spacing: *spacing_ps,
                        gap_mean,
                    },
                    *remaining > 0,
                )
            }
            NodeSource::PingPong {
                partner,
                remaining_sends,
                initiator,
            } => {
                // Only the initiator's t=0 wakeup sends; everything else is
                // delivery-driven.
                return if *initiator && *remaining_sends > 0 && now_ps == 0 {
                    *remaining_sends -= 1;
                    DriverOutput {
                        sends: vec![SendCmd {
                            dst: NodeId(*partner),
                            count: 1,
                        }],
                        wake_at_ps: None,
                    }
                } else {
                    DriverOutput::default()
                };
            }
            NodeSource::Trace { .. } => return self.advance_trace(node, now_ps),
        };
        let dst = self
            .assignment
            .as_ref()
            .expect("generating source has an assignment")
            .destination(NodeId(node), &mut self.rng, self.nodes);
        let wake_at_ps = more.then(|| match timing {
            Timing::Open { mean } => now_ps + self.rng.gen_exp(mean) as u64,
            Timing::Burst { spacing, gap_mean } => {
                let gap = if gap_mean > 0.0 {
                    self.rng.gen_exp(gap_mean) as u64
                } else {
                    0
                };
                now_ps + spacing as u64 + gap
            }
        });
        DriverOutput {
            sends: vec![SendCmd { dst, count: 1 }],
            wake_at_ps,
        }
    }

    /// A packet addressed to `node` was delivered at `now_ps`.
    pub fn delivered(&mut self, node: u32, now_ps: u64) -> DriverOutput {
        match &mut self.sources[node as usize] {
            NodeSource::PingPong {
                partner,
                remaining_sends,
                ..
            } => {
                if *remaining_sends > 0 {
                    *remaining_sends -= 1;
                    DriverOutput {
                        sends: vec![SendCmd {
                            dst: NodeId(*partner),
                            count: 1,
                        }],
                        wake_at_ps: None,
                    }
                } else {
                    DriverOutput::default()
                }
            }
            NodeSource::Trace { needed, banked, .. } => {
                if *needed > 0 {
                    *needed -= 1;
                    if *needed == 0 {
                        return self.advance_trace(node, now_ps);
                    }
                } else {
                    *banked += 1;
                }
                DriverOutput::default()
            }
            _ => DriverOutput::default(),
        }
    }

    /// Runs a trace script forward until it blocks on a receive, a delay,
    /// or the end.
    fn advance_trace(&mut self, node: u32, now_ps: u64) -> DriverOutput {
        let NodeSource::Trace {
            ops,
            pc,
            needed,
            banked,
        } = &mut self.sources[node as usize]
        else {
            return DriverOutput::default();
        };
        let mut out = DriverOutput::default();
        while *pc < ops.len() {
            match ops[*pc] {
                Op::Send { dst, packets } => {
                    out.sends.push(SendCmd {
                        dst: NodeId(dst),
                        count: packets,
                    });
                    *pc += 1;
                }
                Op::Recv { packets } => {
                    let from_bank = packets.min(*banked);
                    *banked -= from_bank;
                    let still = packets - from_bank;
                    if still == 0 {
                        *pc += 1;
                        continue;
                    }
                    *needed = still;
                    *pc += 1;
                    return out;
                }
                Op::Delay { ps } => {
                    *pc += 1;
                    out.wake_at_ps = Some(now_ps + ps);
                    return out;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_sends_exactly_n_packets() {
        let link = LinkParams::paper();
        let mut d = Driver::open_loop(4, Pattern::RandomPermutation, 0.5, 3, &link, 9);
        assert_eq!(d.total_to_send(), 12);
        let init = d.initial();
        assert_eq!(init.len(), 4);
        let mut sent = 0;
        let mut queue: Vec<(u32, u64)> = init;
        while let Some((node, t)) = queue.pop() {
            let out = d.wakeup(node, t);
            sent += out.sends.iter().map(|s| s.count).sum::<u32>();
            if let Some(next) = out.wake_at_ps {
                assert!(next > t);
                queue.push((node, next));
            }
        }
        assert_eq!(sent, 12);
    }

    #[test]
    fn ping_pong_alternates() {
        let mut d = Driver::ping_pong(vec![1, 0], 2, 4);
        assert_eq!(d.total_to_send(), 4);
        let init = d.initial();
        assert_eq!(init, vec![(0, 0)]); // only the initiator starts
        let first = d.wakeup(0, 0);
        assert_eq!(
            first.sends,
            vec![SendCmd {
                dst: NodeId(1),
                count: 1
            }]
        );
        // Node 1 receives, replies.
        let reply = d.delivered(1, 500);
        assert_eq!(
            reply.sends,
            vec![SendCmd {
                dst: NodeId(0),
                count: 1
            }]
        );
        // Node 0 receives, sends round 2.
        let r2 = d.delivered(0, 1_000);
        assert_eq!(r2.sends.len(), 1);
        let r2b = d.delivered(1, 1_500);
        assert_eq!(r2b.sends.len(), 1);
        // Rounds exhausted: silence.
        assert!(d.delivered(0, 2_000).sends.is_empty());
    }

    #[test]
    fn trace_recv_gates_send() {
        let scripts = vec![
            vec![Op::Send { dst: 1, packets: 2 }],
            vec![Op::Recv { packets: 2 }, Op::Send { dst: 0, packets: 1 }],
        ];
        let mut d = Driver::trace(scripts, 0);
        assert_eq!(d.total_to_send(), 3);
        let init = d.initial();
        assert_eq!(init.len(), 2);
        let o0 = d.wakeup(0, 0);
        assert_eq!(
            o0.sends,
            vec![SendCmd {
                dst: NodeId(1),
                count: 2
            }]
        );
        let o1 = d.wakeup(1, 0);
        assert!(o1.sends.is_empty(), "recv must block the send");
        assert!(d.delivered(1, 100).sends.is_empty());
        let done = d.delivered(1, 200);
        assert_eq!(
            done.sends,
            vec![SendCmd {
                dst: NodeId(0),
                count: 1
            }]
        );
    }

    #[test]
    fn trace_banked_early_arrivals_count() {
        let scripts = vec![
            vec![Op::Send { dst: 1, packets: 1 }],
            vec![
                Op::Delay { ps: 1_000 },
                Op::Recv { packets: 1 },
                Op::Send { dst: 0, packets: 1 },
            ],
        ];
        let mut d = Driver::trace(scripts, 0);
        d.wakeup(0, 0);
        let o1 = d.wakeup(1, 0);
        assert_eq!(o1.wake_at_ps, Some(1_000));
        // Packet arrives during the delay: banked.
        assert!(d.delivered(1, 500).sends.is_empty());
        // Wakeup after the delay: recv satisfied from the bank, send fires.
        let after = d.wakeup(1, 1_000);
        assert_eq!(after.sends.len(), 1);
    }

    #[test]
    #[should_panic(expected = "mutual")]
    fn asymmetric_pairs_rejected() {
        Driver::ping_pong(vec![1, 2, 0], 1, 0);
    }

    fn drain_storm(d: &mut Driver) -> u32 {
        let mut sent = 0;
        let mut queue: Vec<(u32, u64)> = d.initial();
        while let Some((node, t)) = queue.pop() {
            let out = d.wakeup(node, t);
            sent += out.sends.iter().map(|s| s.count).sum::<u32>();
            if let Some(next) = out.wake_at_ps {
                assert!(next > t, "storm wakeups must advance time");
                queue.push((node, next));
            }
        }
        sent
    }

    #[test]
    fn incast_storm_only_senders_transmit() {
        let link = LinkParams::paper();
        let mut d = Driver::storm(16, Pattern::Incast { fanin: 5 }, 2.0, 7, &link, 9);
        assert_eq!(d.total_to_send(), 35, "5 senders x 7 packets");
        assert_eq!(d.initial().len(), 5, "idle nodes never wake");
        assert_eq!(drain_storm(&mut d), 35);
    }

    #[test]
    fn hotcast_storm_sends_exactly_n_packets_even_past_saturation() {
        let link = LinkParams::paper();
        let mut d = Driver::storm(8, Pattern::Hotcast, 4.0, 20, &link, 9);
        assert_eq!(d.total_to_send(), 160);
        assert_eq!(d.initial().len(), 8, "hotcast keeps every node active");
        assert_eq!(drain_storm(&mut d), 160);
    }
}
