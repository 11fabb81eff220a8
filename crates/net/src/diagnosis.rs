//! Fault diagnosis (paper Sec. IV-F).
//!
//! When an error is detected, Baldur can isolate it to a single 2x2 TL
//! switch: test signals driven by the server nodes configure every switch
//! to enable only *one* output port per direction, making each probe
//! packet's path fully deterministic. Sending probes along different
//! deterministic paths and intersecting the failing ones pinpoints the
//! faulty switch.
//!
//! This module implements that procedure against the topology model: a
//! hidden fault predicate marks switches as broken (they kill every packet
//! traversing them), probes walk forced paths, and [`locate_faulty_switch`]
//! narrows the candidate set until a unique suspect remains.

use baldur_sim::rng::StreamRng;
use baldur_topo::graph::NodeId;
use baldur_topo::multibutterfly::MultiButterfly;
use serde::{Deserialize, Serialize};

/// A switch location: `(stage, switch-within-stage)`.
pub type SwitchLoc = (u32, u32);

/// Outcome of a diagnosis session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiagnosisResult {
    /// The isolated switch, if diagnosis converged.
    pub suspect: Option<SwitchLoc>,
    /// Probes transmitted.
    pub probes_used: u32,
    /// Candidate switches remaining (1 on success; more if the probe
    /// budget ran out; 0 if observations were inconsistent with a single
    /// stuck-at-fault).
    pub candidates_left: usize,
}

/// The deterministic path a probe takes in test mode: at every stage the
/// configured path index selects one concrete output port.
pub fn probe_path(
    topo: &MultiButterfly,
    src: NodeId,
    dst: NodeId,
    path_config: &[u32],
) -> Vec<SwitchLoc> {
    assert_eq!(
        path_config.len(),
        topo.stages() as usize,
        "one path index per stage"
    );
    let mut switch = topo.ingress_switch(src);
    let mut path = vec![(0, switch)];
    for s in 0..topo.stages() - 1 {
        let dir = topo.direction(dst, s);
        let targets = topo.next_targets(s, switch, dir).expect("inner stage");
        let choice = path_config[s as usize] % topo.multiplicity();
        switch = targets[choice as usize].switch;
        path.push((s + 1, switch));
    }
    path
}

/// Locates a single faulty switch by intersecting failing probe paths and
/// subtracting successful ones.
///
/// Converges as long as at least one probe fails within the budget; with
/// randomized sources/destinations/paths each successful probe clears
/// roughly its whole path from the candidate set, so the expected probe
/// count is modest even at thousands of switches.
pub fn locate_faulty_switch(
    topo: &MultiButterfly,
    is_faulty: &impl Fn(SwitchLoc) -> bool,
    seed: u64,
    max_probes: u32,
) -> DiagnosisResult {
    let mut rng = StreamRng::named(seed, "diagnose", 0);
    let stages = topo.stages();
    let width = topo.switches_per_stage();
    // Candidate set only forms after the first failing probe (before
    // that, every switch is implicitly suspect).
    let mut candidates: Option<Vec<bool>> = None;
    let mut cleared = vec![false; (stages * width) as usize];
    let idx = |loc: SwitchLoc| (loc.0 * width + loc.1) as usize;

    let mut probes_used = 0;
    for _ in 0..max_probes {
        let src = NodeId(rng.gen_range(0..topo.nodes()));
        let dst = NodeId(rng.gen_range(0..topo.nodes()));
        let cfg: Vec<u32> = (0..stages)
            .map(|_| rng.gen_range(0..topo.multiplicity()))
            .collect();
        let path = probe_path(topo, src, dst, &cfg);
        let ok = !path.iter().any(|&loc| is_faulty(loc));
        probes_used += 1;

        if ok {
            for loc in path {
                cleared[idx(loc)] = true;
                if let Some(c) = candidates.as_mut() {
                    c[idx(loc)] = false;
                }
            }
        } else {
            match candidates.as_mut() {
                None => {
                    let mut c = vec![false; (stages * width) as usize];
                    for loc in path {
                        if !cleared[idx(loc)] {
                            c[idx(loc)] = true;
                        }
                    }
                    candidates = Some(c);
                }
                Some(c) => {
                    let on_path: Vec<bool> = {
                        let mut p = vec![false; c.len()];
                        for loc in path {
                            p[idx(loc)] = true;
                        }
                        p
                    };
                    for (slot, &keep) in c.iter_mut().zip(on_path.iter()) {
                        *slot = *slot && keep;
                    }
                }
            }
        }

        if let Some(c) = &candidates {
            let remaining: Vec<usize> = c
                .iter()
                .enumerate()
                .filter(|(_, &x)| x)
                .map(|(i, _)| i)
                .collect();
            if remaining.len() <= 1 {
                let suspect = remaining.first().map(|&i| {
                    let i = i as u32;
                    (i / width, i % width)
                });
                return DiagnosisResult {
                    suspect,
                    probes_used,
                    candidates_left: remaining.len(),
                };
            }
        }
    }
    let candidates_left = candidates
        .as_ref()
        .map(|c| c.iter().filter(|&&x| x).count())
        .unwrap_or((stages * width) as usize);
    DiagnosisResult {
        suspect: None,
        probes_used,
        candidates_left,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault_at(loc: SwitchLoc) -> impl Fn(SwitchLoc) -> bool {
        move |l| l == loc
    }

    #[test]
    fn probe_path_is_deterministic_and_valid() {
        let topo = MultiButterfly::new(64, 4, 3);
        let cfg = vec![2, 1, 0, 3, 2, 1];
        let a = probe_path(&topo, NodeId(5), NodeId(40), &cfg);
        let b = probe_path(&topo, NodeId(5), NodeId(40), &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), topo.stages() as usize);
        assert_eq!(a[0], (0, 2)); // ingress switch of node 5
        for (i, &(stage, sw)) in a.iter().enumerate() {
            assert_eq!(stage, i as u32);
            assert!(sw < topo.switches_per_stage());
        }
    }

    #[test]
    fn locates_an_injected_fault_everywhere() {
        let topo = MultiButterfly::new(64, 4, 7);
        for &loc in &[(0u32, 0u32), (2, 17), (5, 31), (3, 8)] {
            let r = locate_faulty_switch(&topo, &fault_at(loc), 99, 10_000);
            assert_eq!(r.suspect, Some(loc), "{loc:?}: {r:?}");
            assert_eq!(r.candidates_left, 1);
        }
    }

    #[test]
    fn needs_few_probes_relative_to_switch_count() {
        let topo = MultiButterfly::new(256, 4, 1);
        let r = locate_faulty_switch(&topo, &fault_at((4, 100)), 5, 50_000);
        assert_eq!(r.suspect, Some((4, 100)));
        // 1,024 switches; diagnosis should need well under one probe per
        // switch.
        assert!(r.probes_used < 600, "{}", r.probes_used);
    }

    #[test]
    fn healthy_network_yields_no_suspect() {
        let topo = MultiButterfly::new(64, 2, 5);
        let r = locate_faulty_switch(&topo, &|_| false, 1, 500);
        assert_eq!(r.suspect, None);
        // No failing probe ever formed a candidate set.
        assert!(r.candidates_left > 1);
    }

    #[test]
    fn works_at_multiplicity_1_too() {
        // The paper's base case: with m=1 every route is already
        // deterministic.
        let topo = MultiButterfly::new(64, 1, 11);
        let r = locate_faulty_switch(&topo, &fault_at((3, 20)), 4, 20_000);
        assert_eq!(r.suspect, Some((3, 20)));
    }
}
