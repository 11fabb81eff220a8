//! Synthetic traffic patterns (paper Sec. V-A).
//!
//! Patterns assign a destination to each transmitted packet. For the
//! pair-based patterns the pairing is fixed per run (drawn from the seeded
//! RNG) so that the same transmitter/receiver pairs are applied to all
//! networks, exactly as the paper does for group_permutation and
//! ping_pong2.

use baldur_sim::rng::StreamRng;
use baldur_topo::dragonfly::Dragonfly;
use baldur_topo::graph::NodeId;
use serde::{Deserialize, Serialize};

/// A synthetic traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// Nodes paired by a uniformly random permutation.
    RandomPermutation,
    /// Bit-transpose of the binary address (upper/lower halves swapped).
    Transpose,
    /// Random pairing of one half of the machine with the other half.
    Bisection,
    /// Dragonfly groups paired randomly; each node sends to a random node
    /// of the partner group (pairs then reused on every network).
    GroupPermutation,
    /// Every node sends to one destination node.
    Hotspot,
    /// Uniform random destination per packet (not in the paper's list;
    /// kept for calibration).
    UniformRandom,
    /// Overload storm: `fanin` senders converge on one victim node
    /// (k-to-1 incast); every other node idles. The victim and sender
    /// set are drawn from the seeded stream (see
    /// [`storm_senders`]).
    Incast {
        /// Concurrent senders converging on the victim (must be in
        /// `1..nodes`).
        fanin: u32,
    },
    /// Overload storm: skewed hotspot — every node sends, with half of
    /// all packets aimed at one hot node and the rest uniform — under
    /// bursty on/off arrivals (the burst schedule lives in the driver).
    Hotcast,
}

impl Pattern {
    /// All of the paper's open-loop patterns, in Figure 6/7 order.
    pub const PAPER_OPEN_LOOP: [Pattern; 5] = [
        Pattern::RandomPermutation,
        Pattern::Transpose,
        Pattern::Bisection,
        Pattern::GroupPermutation,
        Pattern::Hotspot,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::RandomPermutation => "random_permutation",
            Pattern::Transpose => "transpose",
            Pattern::Bisection => "bisection",
            Pattern::GroupPermutation => "group_permutation",
            Pattern::Hotspot => "hotspot",
            Pattern::UniformRandom => "uniform_random",
            Pattern::Incast { .. } => "incast",
            Pattern::Hotcast => "hotcast",
        }
    }

    /// The RNG stream tag for this pattern. The first six values must
    /// stay equal to the historical `pattern as u64` discriminants so
    /// that seeded assignments (and every golden derived from them)
    /// remain byte-identical.
    fn stream_tag(&self) -> u64 {
        match self {
            Pattern::RandomPermutation => 0,
            Pattern::Transpose => 1,
            Pattern::Bisection => 2,
            Pattern::GroupPermutation => 3,
            Pattern::Hotspot => 4,
            Pattern::UniformRandom => 5,
            Pattern::Incast { .. } => 6,
            Pattern::Hotcast => 7,
        }
    }
}

/// A concrete destination assignment for `nodes` endpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Assignment {
    /// Fixed partner per source.
    Pairs(Vec<u32>),
    /// Fresh uniform destination per packet.
    Uniform,
    /// Skewed per-packet destinations: `hot_pct` percent of packets go
    /// to the `hot` node, the rest pick a uniform non-self destination.
    Skewed {
        /// The hot destination node.
        hot: u32,
        /// Percent of packets (0..=100) aimed at `hot`.
        hot_pct: u32,
    },
}

impl Assignment {
    /// Builds the assignment for `pattern` over `nodes` endpoints.
    ///
    /// `group_nodes` is the dragonfly group size used by
    /// [`Pattern::GroupPermutation`] (the paper constructs the pairs on
    /// dragonfly and reuses them elsewhere); pass the paper's 1K-scale
    /// dragonfly by default.
    ///
    /// # Panics
    ///
    /// Panics on the configurations [`Assignment::try_build`] rejects.
    pub fn build(pattern: Pattern, nodes: u32, seed: u64) -> Assignment {
        match Self::try_build(pattern, nodes, seed) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Assignment::build`] for configuration
    /// validated at the bin/experiment layer: degenerate setups come
    /// back as usage-error strings instead of panics.
    pub fn try_build(pattern: Pattern, nodes: u32, seed: u64) -> Result<Assignment, String> {
        if nodes < 2 {
            return Err("need at least two nodes".into());
        }
        let mut rng = StreamRng::named(seed, "traffic", pattern.stream_tag());
        Ok(match pattern {
            Pattern::RandomPermutation => Assignment::Pairs(derangement(&mut rng, nodes)),
            Pattern::Transpose => {
                // The paper swaps the upper and lower address halves; for
                // an odd number of address bits this generalizes to the
                // standard rotate-by-floor(bits/2), which coincides with
                // the paper's definition whenever bits is even.
                if !nodes.is_power_of_two() {
                    return Err("transpose needs a power-of-two node count".into());
                }
                let bits = nodes.trailing_zeros();
                let lo = bits / 2;
                let mask = (1u32 << lo) - 1;
                Assignment::Pairs(
                    (0..nodes)
                        .map(|a| ((a & mask) << (bits - lo)) | (a >> lo))
                        .collect(),
                )
            }
            Pattern::Bisection => {
                let half = nodes / 2;
                let perm = rng.permutation(half as usize);
                let mut pairs = vec![0u32; nodes as usize];
                for (lo, &hi_off) in perm.iter().enumerate() {
                    let lo = lo as u32;
                    let hi = half + hi_off as u32;
                    pairs[lo as usize] = hi;
                    pairs[hi as usize] = lo;
                }
                Assignment::Pairs(pairs)
            }
            Pattern::GroupPermutation => {
                let df = Dragonfly::at_least(u64::from(nodes));
                let group_nodes = df.p * df.a;
                let groups = nodes / group_nodes;
                // Pair the groups with a derangement, then each node picks
                // a random node in the partner group.
                let gperm = derangement(&mut rng, groups.max(2));
                let pairs = (0..nodes)
                    .map(|n| {
                        let g = (n / group_nodes).min(groups - 1);
                        let pg = gperm[g as usize] % groups;
                        let target = pg * group_nodes + rng.gen_range(0..group_nodes);
                        if target == n {
                            (target + 1) % nodes
                        } else {
                            target
                        }
                    })
                    .collect();
                Assignment::Pairs(pairs)
            }
            Pattern::Hotspot => {
                let target = rng.gen_range(0..nodes);
                Assignment::Pairs(
                    (0..nodes)
                        .map(|n| {
                            if n == target {
                                (target + 1) % nodes
                            } else {
                                target
                            }
                        })
                        .collect(),
                )
            }
            Pattern::UniformRandom => Assignment::Uniform,
            Pattern::Incast { fanin } => {
                if fanin == 0 {
                    return Err("incast fanin must be at least 1".into());
                }
                if fanin > nodes - 1 {
                    return Err(format!(
                        "incast fanin {fanin} exceeds the {} possible senders of a \
                         {nodes}-node network",
                        nodes - 1
                    ));
                }
                let (victim, senders) = incast_parts(nodes, fanin, &mut rng);
                // Every sender aims at the victim; idle nodes get the
                // victim too (harmless — the driver never wakes them),
                // and the victim itself points at its neighbor so the
                // table stays self-send free.
                let mut pairs = vec![victim; nodes as usize];
                pairs[victim as usize] = (victim + 1) % nodes;
                debug_assert!(senders.iter().all(|&s| s != victim));
                Assignment::Pairs(pairs)
            }
            Pattern::Hotcast => Assignment::Skewed {
                hot: rng.gen_range(0..nodes),
                hot_pct: 50,
            },
        })
    }

    /// The destination for the next packet from `src`.
    ///
    /// Degenerate inputs are absorbed rather than looping or panicking:
    /// an out-of-range `src` under [`Assignment::Pairs`] falls back to a
    /// uniform draw, and with fewer than two nodes the only possible
    /// destination is `src` itself.
    pub fn destination(&self, src: NodeId, rng: &mut StreamRng, nodes: u32) -> NodeId {
        match self {
            Assignment::Pairs(p) => match p.get(src.0 as usize) {
                Some(&d) => NodeId(d),
                None => uniform_dest(src, rng, nodes),
            },
            Assignment::Uniform => uniform_dest(src, rng, nodes),
            Assignment::Skewed { hot, hot_pct } => {
                if src.0 != *hot && rng.gen_range(0..100) < *hot_pct {
                    NodeId(*hot)
                } else {
                    uniform_dest(src, rng, nodes)
                }
            }
        }
    }
}

/// Uniform non-self destination; with fewer than two nodes the only
/// destination that exists is `src` itself, which the caller observes
/// as a (documented) self-send rather than an infinite loop.
fn uniform_dest(src: NodeId, rng: &mut StreamRng, nodes: u32) -> NodeId {
    if nodes < 2 {
        return src;
    }
    loop {
        let d = rng.gen_range(0..nodes);
        if d != src.0 {
            return NodeId(d);
        }
    }
}

/// The active sender set for storm patterns: `Some(senders)` when only
/// a subset of nodes transmits ([`Pattern::Incast`]), `None` when every
/// node is active. Uses the same seeded stream as
/// [`Assignment::try_build`], so the sender set always matches the
/// built assignment.
pub fn storm_senders(pattern: Pattern, nodes: u32, seed: u64) -> Option<Vec<u32>> {
    match pattern {
        Pattern::Incast { fanin } if fanin >= 1 && nodes >= 2 && fanin < nodes => {
            let mut rng = StreamRng::named(seed, "traffic", pattern.stream_tag());
            Some(incast_parts(nodes, fanin, &mut rng).1)
        }
        _ => None,
    }
}

/// Seeded victim plus `fanin` distinct senders (the ring successors of
/// the victim — a deterministic k-subset that can never include the
/// victim itself).
fn incast_parts(nodes: u32, fanin: u32, rng: &mut StreamRng) -> (u32, Vec<u32>) {
    let victim = rng.gen_range(0..nodes);
    let senders = (1..=fanin).map(|k| (victim + k) % nodes).collect();
    (victim, senders)
}

/// A random permutation with no fixed points (nobody sends to themselves).
fn derangement(rng: &mut StreamRng, n: u32) -> Vec<u32> {
    loop {
        let p = rng.permutation(n as usize);
        if p.iter().enumerate().all(|(i, &x)| i != x) {
            return p.into_iter().map(|x| x as u32).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(pattern: Pattern, nodes: u32) -> Vec<u32> {
        match Assignment::build(pattern, nodes, 11) {
            Assignment::Pairs(p) => p,
            Assignment::Uniform | Assignment::Skewed { .. } => panic!("expected pairs"),
        }
    }

    #[test]
    fn random_permutation_is_a_derangement() {
        let p = pairs(Pattern::RandomPermutation, 256);
        let mut seen = vec![false; 256];
        for (i, &d) in p.iter().enumerate() {
            assert_ne!(i as u32, d, "self-send");
            assert!(!seen[d as usize], "duplicate destination");
            seen[d as usize] = true;
        }
    }

    #[test]
    fn transpose_swaps_address_halves() {
        let p = pairs(Pattern::Transpose, 1_024);
        // Node 0b10000_00001 -> 0b00001_10000.
        assert_eq!(p[0b10000_00001], 0b00001_10000);
        // Transpose is an involution.
        for (i, &d) in p.iter().enumerate() {
            assert_eq!(p[d as usize], i as u32);
        }
    }

    #[test]
    fn bisection_pairs_across_halves() {
        let p = pairs(Pattern::Bisection, 128);
        for (i, &d) in p.iter().enumerate() {
            let i = i as u32;
            assert_ne!(i < 64, d < 64, "pair must straddle the bisection");
            assert_eq!(p[d as usize], i, "pairing must be symmetric");
        }
    }

    #[test]
    fn hotspot_targets_one_node() {
        let p = pairs(Pattern::Hotspot, 64);
        let mut dests: Vec<u32> = p.clone();
        dests.sort_unstable();
        dests.dedup();
        assert!(
            dests.len() <= 2,
            "hotspot has one destination (plus the target's own)"
        );
    }

    #[test]
    fn group_permutation_leaves_the_group() {
        let nodes = 1_056; // paper-scale dragonfly
        let p = pairs(Pattern::GroupPermutation, nodes);
        let group = 32;
        let mut cross = 0;
        for (i, &d) in p.iter().enumerate() {
            if (i as u32) / group != d / group {
                cross += 1;
            }
        }
        assert!(cross as f64 > 0.95 * nodes as f64, "{cross} cross-group");
    }

    #[test]
    fn uniform_never_self_sends() {
        let a = Assignment::build(Pattern::UniformRandom, 16, 3);
        let mut rng = StreamRng::named(5, "t", 0);
        for _ in 0..500 {
            let d = a.destination(NodeId(7), &mut rng, 16);
            assert_ne!(d.0, 7);
        }
    }

    #[test]
    fn assignments_are_deterministic_per_seed() {
        let a = pairs(Pattern::RandomPermutation, 64);
        let b = match Assignment::build(Pattern::RandomPermutation, 64, 11) {
            Assignment::Pairs(p) => p,
            _ => unreachable!(),
        };
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_configs_are_usage_errors_not_panics() {
        assert!(Assignment::try_build(Pattern::UniformRandom, 1, 0).is_err());
        assert!(Assignment::try_build(Pattern::Transpose, 48, 0).is_err());
        assert!(Assignment::try_build(Pattern::Incast { fanin: 0 }, 16, 0).is_err());
        assert!(Assignment::try_build(Pattern::Incast { fanin: 16 }, 16, 0).is_err());
        assert!(Assignment::try_build(Pattern::Incast { fanin: 15 }, 16, 0).is_ok());
    }

    #[test]
    fn incast_senders_converge_on_one_victim() {
        let pattern = Pattern::Incast { fanin: 7 };
        let senders = storm_senders(pattern, 64, 11).expect("incast restricts senders");
        assert_eq!(senders.len(), 7);
        let p = pairs(pattern, 64);
        let victim = p[senders[0] as usize];
        for &s in &senders {
            assert_ne!(s, victim, "victim never sends to itself");
            assert_eq!(p[s as usize], victim, "all senders hit the victim");
        }
        assert_ne!(p[victim as usize], victim, "no self-send in the table");
    }

    #[test]
    fn storm_senders_is_none_for_all_active_patterns() {
        assert!(storm_senders(Pattern::Hotcast, 64, 11).is_none());
        assert!(storm_senders(Pattern::UniformRandom, 64, 11).is_none());
        assert!(storm_senders(Pattern::Hotspot, 64, 11).is_none());
    }

    #[test]
    fn hotcast_skews_half_the_traffic_to_the_hot_node() {
        let a = Assignment::build(Pattern::Hotcast, 64, 11);
        let hot = match a {
            Assignment::Skewed { hot, hot_pct } => {
                assert_eq!(hot_pct, 50);
                hot
            }
            _ => panic!("hotcast builds a skewed assignment"),
        };
        let mut rng = StreamRng::named(5, "t", 0);
        let src = NodeId((hot + 1) % 64);
        let mut hits = 0u32;
        for _ in 0..2_000 {
            let d = a.destination(src, &mut rng, 64);
            assert_ne!(d, src, "skewed draws never self-send");
            if d.0 == hot {
                hits += 1;
            }
        }
        // hot_pct=50 plus the uniform arm's 1-in-63 chance of landing
        // on the hot node anyway.
        assert!((800..=1_400).contains(&hits), "{hits} hot hits");
        // The hot node itself never targets itself.
        for _ in 0..200 {
            assert_ne!(a.destination(NodeId(hot), &mut rng, 64).0, hot);
        }
    }

    #[test]
    fn destination_absorbs_degenerate_inputs() {
        let mut rng = StreamRng::named(5, "t", 0);
        // Out-of-range source under Pairs falls back to a uniform draw.
        let a = Assignment::Pairs(vec![1, 0]);
        let d = a.destination(NodeId(9), &mut rng, 2);
        assert!(d.0 < 2);
        // A one-node world can only self-send; it must not hang.
        assert_eq!(
            Assignment::Uniform.destination(NodeId(0), &mut rng, 1),
            NodeId(0)
        );
    }
}
