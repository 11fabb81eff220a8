//! Port-level router graphs shared by the electrical network models.

use serde::{Deserialize, Serialize};

/// A server node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// What a router port connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Endpoint {
    /// Another router's port.
    Router {
        /// Peer router index.
        router: u32,
        /// Peer port index.
        port: u32,
    },
    /// A server node (terminal port).
    Node(NodeId),
    /// Unconnected.
    Unused,
}

/// A directed port-level view of a switched network.
///
/// Invariant (checked by [`RouterGraph::validate`]): router-to-router links
/// are symmetric — if router A port x points at router B port y, then B's
/// port y points back at A's port x — and every node attaches to exactly
/// one terminal port.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterGraph {
    /// Router `r`'s first port in the flat per-port tables (the radixes
    /// of the routers before it), then the total port count: router `r`
    /// owns entries `port_off[r]..port_off[r + 1]`.
    port_off: Vec<u32>,
    /// What each port connects to, one flat table: port `p` of router
    /// `r` is entry `port_off[r] + p` ([`RouterGraph::peer`]).
    peers: Vec<Endpoint>,
    /// Propagation delay of the link attached to each port in
    /// picoseconds, laid out as `peers` ([`RouterGraph::delay`]).
    link_delay_ps: Vec<u64>,
    /// `node_attach[node] = (router, port)`.
    pub node_attach: Vec<(u32, u32)>,
}

impl RouterGraph {
    /// An empty graph with `routers` routers of the given radix.
    pub fn new(routers: u32, radix: u32) -> Self {
        let ports = routers as usize * radix as usize;
        RouterGraph {
            port_off: (0..=routers).map(|r| r * radix).collect(),
            peers: vec![Endpoint::Unused; ports],
            link_delay_ps: vec![0; ports],
            node_attach: Vec::new(),
        }
    }

    /// Number of routers.
    pub fn router_count(&self) -> u32 {
        (self.port_off.len() - 1) as u32
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> u32 {
        self.node_attach.len() as u32
    }

    /// Radix of `router`.
    pub fn radix(&self, router: u32) -> u32 {
        self.port_off[router as usize + 1] - self.port_off[router as usize]
    }

    /// Flat index of `port` of `router` in the per-port tables.
    #[inline]
    fn slot(&self, router: u32, port: u32) -> usize {
        debug_assert!(
            port < self.radix(router),
            "router {router} has no port {port}"
        );
        (self.port_off[router as usize] + port) as usize
    }

    /// Connects two router ports bidirectionally with the given link delay.
    ///
    /// # Panics
    ///
    /// Panics if either port is already in use.
    pub fn connect(&mut self, a: (u32, u32), b: (u32, u32), delay_ps: u64) {
        for &(r, p) in &[a, b] {
            assert!(
                matches!(self.peer(r, p), Endpoint::Unused),
                "router {r} port {p} already connected"
            );
        }
        self.set(
            a,
            Endpoint::Router {
                router: b.0,
                port: b.1,
            },
            delay_ps,
        );
        self.set(
            b,
            Endpoint::Router {
                router: a.0,
                port: a.1,
            },
            delay_ps,
        );
    }

    /// Attaches the next node (ids are assigned sequentially) to a router
    /// port.
    ///
    /// # Panics
    ///
    /// Panics if the port is already in use.
    pub fn attach_node(&mut self, router: u32, port: u32, delay_ps: u64) -> NodeId {
        assert!(
            matches!(self.peer(router, port), Endpoint::Unused),
            "router {router} port {port} already connected"
        );
        let node = NodeId(self.node_attach.len() as u32);
        self.set((router, port), Endpoint::Node(node), delay_ps);
        self.node_attach.push((router, port));
        node
    }

    /// Marks a port as a delivery point for an *existing* node without
    /// changing the node's injection attachment. Used by multi-stage
    /// topologies where a node injects at the first stage but receives
    /// from the last.
    ///
    /// # Panics
    ///
    /// Panics if the port is already in use.
    pub fn attach_terminal(&mut self, node: NodeId, router: u32, port: u32, delay_ps: u64) {
        assert!(
            matches!(self.peer(router, port), Endpoint::Unused),
            "router {router} port {port} already connected"
        );
        self.set((router, port), Endpoint::Node(node), delay_ps);
    }

    /// The endpoint a port connects to.
    #[inline]
    pub fn peer(&self, router: u32, port: u32) -> Endpoint {
        self.peers[self.slot(router, port)]
    }

    /// The link delay of a port.
    #[inline]
    pub fn delay(&self, router: u32, port: u32) -> u64 {
        self.link_delay_ps[self.slot(router, port)]
    }

    /// Wires port `at` (router, port) to `peer` over a link of `delay_ps`.
    fn set(&mut self, at: (u32, u32), peer: Endpoint, delay_ps: u64) {
        let slot = self.slot(at.0, at.1);
        self.peers[slot] = peer;
        self.link_delay_ps[slot] = delay_ps;
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for r in 0..self.router_count() {
            for p in 0..self.radix(r) {
                if let Endpoint::Router { router, port } = self.peer(r, p) {
                    let back = self.peer(router, port);
                    let want = Endpoint::Router { router: r, port: p };
                    if back != want {
                        return Err(format!(
                            "asymmetric link: {r}:{p} -> {router}:{port} but back is {back:?}"
                        ));
                    }
                }
            }
        }
        for (n, &(r, p)) in self.node_attach.iter().enumerate() {
            if self.peer(r, p) != Endpoint::Node(NodeId(n as u32)) {
                return Err(format!("node {n} attachment mismatch at {r}:{p}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_is_symmetric_and_validates() {
        let mut g = RouterGraph::new(2, 4);
        g.connect((0, 1), (1, 2), 100_000);
        let n = g.attach_node(0, 0, 10_000);
        assert_eq!(n, NodeId(0));
        assert_eq!(g.peer(0, 1), Endpoint::Router { router: 1, port: 2 });
        assert_eq!(g.delay(1, 2), 100_000);
        assert_eq!(
            (g.delay(0, 1), g.delay(0, 0), g.delay(1, 1)),
            (100_000, 10_000, 0)
        );
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut g = RouterGraph::new(2, 2);
        g.connect((0, 0), (1, 0), 1);
        g.connect((0, 0), (1, 1), 1);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut g = RouterGraph::new(2, 2);
        g.connect((0, 0), (1, 0), 1);
        let slot = g.slot(1, 0);
        g.peers[slot] = Endpoint::Unused;
        assert!(g.validate().is_err());
    }
}
