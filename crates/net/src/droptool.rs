//! The paper's "in-house tool" (Sec. IV-E): worst-case drop analysis.
//!
//! Scenario: every server node injects one packet and all packets hit the
//! first stage *simultaneously* — the worst instantaneous contention the
//! bufferless network can see. The tool walks the packets stage by stage;
//! at each (switch, direction) at most `m` packets survive (one per path
//! port). The resulting drop rate determines the multiplicity needed for
//! <1% drops at a given scale — the paper concludes m=4 for 1K nodes and
//! m=5 for >1M nodes.
//!
//! Runs comfortably at millions of nodes: work is O(stages × nodes).

use baldur_sim::rng::StreamRng;
use baldur_topo::graph::NodeId;
use baldur_topo::multibutterfly::{MultiButterfly, Wiring};
use serde::{Deserialize, Serialize};

use crate::traffic::{Assignment, Pattern};

/// Result of one worst-case injection experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropResult {
    /// Packets injected (one per node).
    pub injected: u64,
    /// Packets that reached their destination.
    pub survived: u64,
    /// `1 - survived / injected`.
    pub drop_rate: f64,
}

/// Runs the worst-case simultaneous-injection experiment.
///
/// # Panics
///
/// Panics if `nodes` is not a power of two ≥ 4.
pub fn worst_case(nodes: u32, multiplicity: u32, pattern: Pattern, seed: u64) -> DropResult {
    worst_case_with_wiring(nodes, multiplicity, pattern, seed, Wiring::Randomized)
}

/// [`worst_case`] with an explicit wiring mode — the randomization
/// ablation of the expansion property.
pub fn worst_case_with_wiring(
    nodes: u32,
    multiplicity: u32,
    pattern: Pattern,
    seed: u64,
    wiring: Wiring,
) -> DropResult {
    worst_case_impl(nodes, multiplicity, pattern, seed, wiring, 1.0)
}

/// [`worst_case`] at a partial offered load: each node injects with
/// probability `load` (seeded). An idle epoch (`load = 0`, nothing
/// injected) is legal and reports a zero drop rate.
pub fn worst_case_at_load(
    nodes: u32,
    multiplicity: u32,
    pattern: Pattern,
    seed: u64,
    load: f64,
) -> DropResult {
    worst_case_impl(nodes, multiplicity, pattern, seed, Wiring::Randomized, load)
}

fn worst_case_impl(
    nodes: u32,
    multiplicity: u32,
    pattern: Pattern,
    seed: u64,
    wiring: Wiring,
    load: f64,
) -> DropResult {
    let topo = MultiButterfly::with_wiring(nodes, multiplicity, seed, wiring);
    let assignment = Assignment::build(pattern, nodes, seed);
    let mut rng = StreamRng::named(seed, "droptool", 0);

    // Current location of each live packet: (switch index, destination).
    // At partial load each node flips a (seeded) injection coin; the
    // full-load path draws nothing extra, so it stays bit-identical to
    // the pre-load-knob tool.
    let mut live: Vec<(u32, NodeId)> = Vec::with_capacity(nodes as usize);
    for n in 0..nodes {
        if load < 1.0 {
            let inject = load > 0.0 && rng.gen_bool(load.clamp(0.0, 1.0));
            if !inject {
                continue;
            }
        }
        let dst = assignment.destination(NodeId(n), &mut rng, nodes);
        live.push((topo.ingress_switch(NodeId(n)), dst));
    }
    let injected = live.len() as u64;

    let m = multiplicity as usize;
    let width = topo.switches_per_stage() as usize;
    // Claim counters per (switch, dir) for the current stage.
    let mut claims = vec![0u8; width * 2];

    for stage in 0..topo.stages() {
        claims.iter_mut().for_each(|c| *c = 0);
        // Shuffle so survival under contention is unbiased.
        rng.shuffle(&mut live);
        let mut next: Vec<(u32, NodeId)> = Vec::with_capacity(live.len());
        for &(switch, dst) in &live {
            let dir = topo.direction(dst, stage);
            let slot = &mut claims[switch as usize * 2 + dir as usize];
            if (*slot as usize) >= m {
                continue; // dropped
            }
            let path = u32::from(*slot);
            *slot += 1;
            if stage + 1 == topo.stages() {
                next.push((u32::MAX, dst)); // delivered marker
            } else {
                // Inner stages always have targets by construction; a miss
                // would be a wiring bug, so count the packet as dropped
                // rather than aborting the whole analysis.
                let Some(target) = topo.target(stage, switch, dir, path) else {
                    debug_assert!(false, "inner stage {stage} has no targets");
                    continue;
                };
                next.push((target.switch, dst));
            }
        }
        live = next;
    }

    let survived = live.len() as u64;
    DropResult {
        injected,
        survived,
        // An idle epoch (nothing injected) drops nothing — guard the
        // 0/0 that would otherwise poison downstream aggregation with
        // NaN.
        drop_rate: if injected == 0 {
            0.0
        } else {
            1.0 - survived as f64 / injected as f64
        },
    }
}

/// Finds the smallest multiplicity achieving `target_drop` (e.g. 0.01)
/// under the worst of the given patterns, averaged over `trials` seeds.
pub fn required_multiplicity(
    nodes: u32,
    patterns: &[Pattern],
    target_drop: f64,
    trials: u32,
    seed: u64,
) -> u32 {
    for m in 1..=8 {
        let mut worst: f64 = 0.0;
        for &p in patterns {
            let mut acc = 0.0;
            for t in 0..trials {
                acc += worst_case(nodes, m, p, seed + u64::from(t)).drop_rate;
            }
            worst = worst.max(acc / f64::from(trials));
        }
        if worst < target_drop {
            return m;
        }
    }
    9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_multiplicity_drops_less() {
        let mut last = 1.1;
        for m in 1..=5 {
            let r = worst_case(1_024, m, Pattern::RandomPermutation, 7);
            // Strictly decreasing until drops bottom out at zero.
            assert!(
                r.drop_rate < last || (last == 0.0 && r.drop_rate == 0.0),
                "m={m}: {} !< {last}",
                r.drop_rate
            );
            last = r.drop_rate;
        }
    }

    #[test]
    fn m4_is_low_drop_at_1k() {
        // The paper's worst-case tool concludes multiplicity 4 suffices at
        // 1,024 nodes (a few percent even in the simultaneous-burst worst
        // case; <1% in steady state).
        let r = worst_case(1_024, 4, Pattern::Transpose, 3);
        assert!(r.drop_rate < 0.08, "{}", r.drop_rate);
        let r1 = worst_case(1_024, 1, Pattern::Transpose, 3);
        assert!(
            r1.drop_rate > 0.4,
            "m=1 must be catastrophic: {}",
            r1.drop_rate
        );
    }

    #[test]
    fn permutation_conservation() {
        // With a permutation pattern nothing can exceed port capacity at
        // the last stage, so survivors equal injected minus drops and all
        // delivered markers are unique destinations.
        let r = worst_case(256, 5, Pattern::RandomPermutation, 1);
        assert!(r.survived <= r.injected);
        assert!(r.drop_rate >= 0.0 && r.drop_rate <= 1.0);
    }

    #[test]
    fn required_multiplicity_is_monotone_in_scale() {
        let small = required_multiplicity(256, &[Pattern::RandomPermutation], 0.05, 2, 11);
        let large = required_multiplicity(8_192, &[Pattern::RandomPermutation], 0.05, 2, 11);
        assert!(small <= large, "{small} > {large}");
        assert!((2..=6).contains(&small));
    }

    #[test]
    fn zero_offered_load_reports_zero_drop_rate() {
        // Regression: an idle epoch used to compute 1.0 - 0/0 = NaN.
        let r = worst_case_at_load(256, 4, Pattern::RandomPermutation, 9, 0.0);
        assert_eq!(r.injected, 0);
        assert_eq!(r.survived, 0);
        assert!(r.drop_rate == 0.0, "idle epoch must not be NaN");
        assert!(r.drop_rate.is_finite());
    }

    #[test]
    fn partial_load_drops_less_than_full_burst() {
        let full = worst_case(1_024, 2, Pattern::Transpose, 7);
        let half = worst_case_at_load(1_024, 2, Pattern::Transpose, 7, 0.5);
        assert!(half.injected < full.injected);
        assert!(half.injected > 0);
        assert!(
            half.drop_rate < full.drop_rate,
            "half {} vs full {}",
            half.drop_rate,
            full.drop_rate
        );
        // Full load through the load knob is bit-identical to the
        // original tool (no extra RNG draws).
        let full2 = worst_case_at_load(1_024, 2, Pattern::Transpose, 7, 1.0);
        assert_eq!(full, full2);
    }

    #[test]
    fn hotspot_drops_heavily_no_matter_what() {
        // All-to-one cannot fit through one egress: drop rate ~ 1 - m*2/N.
        let r = worst_case(256, 4, Pattern::Hotspot, 5);
        assert!(r.drop_rate > 0.9, "{}", r.drop_rate);
    }
}
