//! The Omega network (Lawrie \[42\]), with link dilation.
//!
//! The paper expects Baldur to "achieve similar results with other
//! multi-stage topologies (e.g., Benes, Omega) because many multi-stage
//! networks are largely isomorphic" \[43\]. This module provides the Omega
//! so that claim can be tested: `log2(N)` identical stages, each a perfect
//! shuffle followed by a column of 2x2 switches, destination-tag routed.
//! Multiplicity here is plain link *dilation* (m parallel links along the
//! structural edge) — Omega's rigid shuffle has no sorting groups to
//! randomize within, which is exactly why it lacks the multi-butterfly's
//! expansion property.

use serde::{Deserialize, Serialize};

use crate::graph::NodeId;
use crate::multibutterfly::LinkTarget;

/// An Omega network of 2x2 switches with dilation m.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Omega {
    nodes: u32,
    stages: u32,
    multiplicity: u32,
}

impl Omega {
    /// Builds an Omega for `nodes` servers (a power of two ≥ 4) with link
    /// dilation `multiplicity`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a power of two ≥ 4 or `multiplicity` is 0.
    pub fn new(nodes: u32, multiplicity: u32) -> Self {
        assert!(
            nodes >= 4 && nodes.is_power_of_two(),
            "nodes must be a power of two >= 4"
        );
        assert!(multiplicity >= 1, "multiplicity must be >= 1");
        Omega {
            nodes,
            stages: nodes.trailing_zeros(),
            multiplicity,
        }
    }

    /// Number of server nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of stages.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Switches per stage.
    pub fn switches_per_stage(&self) -> u32 {
        self.nodes / 2
    }

    /// Link dilation m.
    pub fn multiplicity(&self) -> u32 {
        self.multiplicity
    }

    /// Perfect shuffle of a wire index: rotate the address left by one.
    fn shuffle(&self, wire: u32) -> u32 {
        let bits = self.stages;
        ((wire << 1) | (wire >> (bits - 1))) & (self.nodes - 1)
    }

    /// The switch a node's injected packet first reaches: the shuffle is
    /// applied *before* every switch column, including the first.
    pub fn ingress_switch(&self, node: NodeId) -> u32 {
        self.shuffle(node.0) / 2
    }

    /// Destination-tag direction at `stage`: bit `stages-1-stage` of the
    /// destination, MSB first.
    pub fn direction(&self, dst: NodeId, stage: u32) -> u32 {
        (dst.0 >> (self.stages - 1 - stage)) & 1
    }

    /// The `path`-th of the m dilated link targets from (`stage`,
    /// `switch`, `dir`), or `None` at the final stage (the packet exits to
    /// a node). All m share one successor switch; `path` picks the port
    /// within the input half the shuffled wire lands on.
    pub fn target(&self, stage: u32, switch: u32, dir: u32, path: u32) -> Option<LinkTarget> {
        if stage + 1 >= self.stages {
            return None;
        }
        let next_wire = self.shuffle(2 * switch + dir);
        let side = next_wire % 2; // which half of the target's input ports
        Some(LinkTarget {
            switch: next_wire / 2,
            port: side * self.multiplicity + path,
        })
    }

    /// The node reached from a final-stage switch's direction-`dir` output.
    pub fn egress_node(&self, final_switch: u32, dir: u32) -> NodeId {
        NodeId(2 * final_switch + dir)
    }

    /// Follows the unique route from `src` to `dst`, returning the switch
    /// sequence and the node reached.
    pub fn trace_route(&self, src: NodeId, dst: NodeId) -> (Vec<u32>, NodeId) {
        let mut switch = self.ingress_switch(src);
        let mut path = vec![switch];
        for s in 0..self.stages - 1 {
            let dir = self.direction(dst, s);
            let wire = 2 * switch + dir;
            switch = self.shuffle(wire) / 2;
            path.push(switch);
        }
        let dir = self.direction(dst, self.stages - 1);
        (path, self.egress_node(switch, dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions() {
        let o = Omega::new(64, 4);
        assert_eq!(o.stages(), 6);
        assert_eq!(o.switches_per_stage(), 32);
    }

    #[test]
    fn every_route_reaches_its_destination() {
        let o = Omega::new(64, 2);
        for src in 0..64 {
            for dst in 0..64 {
                let (_, reached) = o.trace_route(NodeId(src), NodeId(dst));
                assert_eq!(reached, NodeId(dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn shuffle_is_a_rotation() {
        let o = Omega::new(16, 1);
        assert_eq!(o.shuffle(0b0001), 0b0010);
        assert_eq!(o.shuffle(0b1000), 0b0001);
        assert_eq!(o.shuffle(0b1111), 0b1111);
    }

    #[test]
    fn dilated_targets_share_one_successor() {
        let o = Omega::new(32, 4);
        let t: Vec<LinkTarget> = (0..4).map(|p| o.target(0, 3, 1, p).unwrap()).collect();
        assert!(t.iter().all(|x| x.switch == t[0].switch));
        // Ports within the chosen input half are distinct.
        let mut ports: Vec<u32> = t.iter().map(|x| x.port).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4);
    }

    #[test]
    fn final_stage_has_no_targets() {
        let o = Omega::new(16, 2);
        assert!(o.target(3, 0, 0, 0).is_none());
        assert!(o.target(2, 0, 0, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        Omega::new(20, 2);
    }
}
