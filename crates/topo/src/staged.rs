//! A uniform view over the staged (multi-stage, radix-2) topologies so
//! the Baldur network model can run on any of them.
//!
//! A hop asks [`Staged::target`] for one `(stage, switch, dir, path)`
//! link: the multi-butterfly decodes it from its one-`u32`-per-link
//! table, and the Omega computes it and stores nothing.

use serde::{Deserialize, Serialize};

use crate::graph::NodeId;
use crate::multibutterfly::{LinkTarget, MultiButterfly, Wiring};
use crate::omega::Omega;

/// Which staged topology to build (configuration-level, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StagedKind {
    /// Randomized multi-butterfly (the paper's Baldur).
    MultiButterfly,
    /// Dilated structured butterfly (randomization ablation).
    DilatedButterfly,
    /// Omega / perfect shuffle (isomorphism check).
    Omega,
}

impl StagedKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StagedKind::MultiButterfly => "multibutterfly",
            StagedKind::DilatedButterfly => "dilated_butterfly",
            StagedKind::Omega => "omega",
        }
    }
}

/// A built staged topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Staged {
    /// Multi-butterfly (randomized or dilated).
    MultiButterfly(MultiButterfly),
    /// Omega network.
    Omega(Omega),
}

impl Staged {
    /// Builds `kind` for `nodes` servers with multiplicity `m`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a power of two ≥ 4 or `m` is 0.
    pub fn build(kind: StagedKind, nodes: u32, m: u32, seed: u64) -> Staged {
        match kind {
            StagedKind::MultiButterfly => Staged::MultiButterfly(MultiButterfly::with_wiring(
                nodes,
                m,
                seed,
                Wiring::Randomized,
            )),
            StagedKind::DilatedButterfly => {
                Staged::MultiButterfly(MultiButterfly::with_wiring(nodes, m, seed, Wiring::Dilated))
            }
            StagedKind::Omega => Staged::Omega(Omega::new(nodes, m)),
        }
    }

    /// Number of server nodes.
    pub fn nodes(&self) -> u32 {
        match self {
            Staged::MultiButterfly(t) => t.nodes(),
            Staged::Omega(t) => t.nodes(),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> u32 {
        match self {
            Staged::MultiButterfly(t) => t.stages(),
            Staged::Omega(t) => t.stages(),
        }
    }

    /// Switches per stage.
    pub fn switches_per_stage(&self) -> u32 {
        match self {
            Staged::MultiButterfly(t) => t.switches_per_stage(),
            Staged::Omega(t) => t.switches_per_stage(),
        }
    }

    /// Path multiplicity / dilation.
    pub fn multiplicity(&self) -> u32 {
        match self {
            Staged::MultiButterfly(t) => t.multiplicity(),
            Staged::Omega(t) => t.multiplicity(),
        }
    }

    /// The first-stage switch a node injects into.
    pub fn ingress_switch(&self, node: NodeId) -> u32 {
        match self {
            Staged::MultiButterfly(t) => t.ingress_switch(node),
            Staged::Omega(t) => t.ingress_switch(node),
        }
    }

    /// The direction a packet for `dst` takes at `stage`.
    pub fn direction(&self, dst: NodeId, stage: u32) -> u32 {
        match self {
            Staged::MultiButterfly(t) => t.direction(dst, stage),
            Staged::Omega(t) => t.direction(dst, stage),
        }
    }

    /// The `path`-th candidate target from (`stage`, `switch`, `dir`), or
    /// `None` at the final stage.
    #[inline]
    pub fn target(&self, stage: u32, switch: u32, dir: u32, path: u32) -> Option<LinkTarget> {
        match self {
            Staged::MultiButterfly(t) => t.target(stage, switch, dir, path),
            Staged::Omega(t) => t.target(stage, switch, dir, path),
        }
    }

    /// Bytes the topology's link table reserves: the multi-butterfly's
    /// flat table; 0 for the Omega, whose wiring is computed.
    pub fn state_bytes(&self) -> u64 {
        match self {
            Staged::MultiButterfly(t) => t.state_bytes(),
            Staged::Omega(_) => 0,
        }
    }

    /// The node a final-stage switch's direction-`dir` output reaches.
    pub fn egress_node(&self, final_switch: u32, dir: u32) -> NodeId {
        match self {
            Staged::MultiButterfly(t) => t.egress_node(final_switch, dir),
            Staged::Omega(t) => t.egress_node(final_switch, dir),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_agree_on_shape() {
        for kind in [
            StagedKind::MultiButterfly,
            StagedKind::DilatedButterfly,
            StagedKind::Omega,
        ] {
            let t = Staged::build(kind, 64, 3, 9);
            assert_eq!(t.nodes(), 64, "{}", kind.name());
            assert_eq!(t.stages(), 6);
            assert_eq!(t.switches_per_stage(), 32);
            assert_eq!(t.multiplicity(), 3);
        }
    }

    #[test]
    fn targets_are_in_range_for_all_kinds() {
        for kind in [
            StagedKind::MultiButterfly,
            StagedKind::DilatedButterfly,
            StagedKind::Omega,
        ] {
            let t = Staged::build(kind, 32, 2, 1);
            for stage in 0..t.stages() - 1 {
                for sw in 0..t.switches_per_stage() {
                    for dir in 0..2 {
                        for path in 0..2 {
                            let tg = t.target(stage, sw, dir, path).expect("inner stage");
                            assert!(tg.switch < t.switches_per_stage());
                            assert!(tg.port < 2 * t.multiplicity());
                        }
                    }
                }
            }
            assert!(t.target(t.stages() - 1, 0, 0, 0).is_none());
        }
    }

    #[test]
    fn staged_delivery_via_manual_walk() {
        for kind in [
            StagedKind::MultiButterfly,
            StagedKind::DilatedButterfly,
            StagedKind::Omega,
        ] {
            let t = Staged::build(kind, 64, 2, 5);
            for (src, dst) in [(0u32, 63u32), (17, 4), (33, 33), (5, 40)] {
                let mut sw = t.ingress_switch(NodeId(src));
                for s in 0..t.stages() - 1 {
                    let dir = t.direction(NodeId(dst), s);
                    sw = t.target(s, sw, dir, 1 % t.multiplicity()).unwrap().switch;
                }
                let dir = t.direction(NodeId(dst), t.stages() - 1);
                assert_eq!(
                    t.egress_node(sw, dir),
                    NodeId(dst),
                    "{}: {src}->{dst}",
                    kind.name()
                );
            }
        }
    }
}
