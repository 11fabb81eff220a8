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
    /// `neighbors[router][port]` — what each port connects to.
    pub neighbors: Vec<Vec<Endpoint>>,
    /// Router `r`'s first port in `link_delay_ps` (the radixes of the
    /// routers before it).
    port_off: Vec<u32>,
    /// Propagation delay of the link attached to each port in
    /// picoseconds, one flat table: port `p` of router `r` is entry
    /// `port_off[r] + p` ([`RouterGraph::delay`]).
    link_delay_ps: Vec<u64>,
    /// `node_attach[node] = (router, port)`.
    pub node_attach: Vec<(u32, u32)>,
}

impl RouterGraph {
    /// An empty graph with `routers` routers of the given radix.
    pub fn new(routers: u32, radix: u32) -> Self {
        RouterGraph {
            neighbors: vec![vec![Endpoint::Unused; radix as usize]; routers as usize],
            port_off: (0..routers).map(|r| r * radix).collect(),
            link_delay_ps: vec![0; routers as usize * radix as usize],
            node_attach: Vec::new(),
        }
    }

    /// Number of routers.
    pub fn router_count(&self) -> u32 {
        self.neighbors.len() as u32
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> u32 {
        self.node_attach.len() as u32
    }

    /// Radix of `router`.
    pub fn radix(&self, router: u32) -> u32 {
        self.neighbors[router as usize].len() as u32
    }

    /// Connects two router ports bidirectionally with the given link delay.
    ///
    /// # Panics
    ///
    /// Panics if either port is already in use.
    pub fn connect(&mut self, a: (u32, u32), b: (u32, u32), delay_ps: u64) {
        for &(r, p) in &[a, b] {
            assert!(
                matches!(self.neighbors[r as usize][p as usize], Endpoint::Unused),
                "router {r} port {p} already connected"
            );
        }
        self.neighbors[a.0 as usize][a.1 as usize] = Endpoint::Router {
            router: b.0,
            port: b.1,
        };
        self.neighbors[b.0 as usize][b.1 as usize] = Endpoint::Router {
            router: a.0,
            port: a.1,
        };
        *self.delay_mut(a.0, a.1) = delay_ps;
        *self.delay_mut(b.0, b.1) = delay_ps;
    }

    /// Attaches the next node (ids are assigned sequentially) to a router
    /// port.
    ///
    /// # Panics
    ///
    /// Panics if the port is already in use.
    pub fn attach_node(&mut self, router: u32, port: u32, delay_ps: u64) -> NodeId {
        assert!(
            matches!(
                self.neighbors[router as usize][port as usize],
                Endpoint::Unused
            ),
            "router {router} port {port} already connected"
        );
        let node = NodeId(self.node_attach.len() as u32);
        self.neighbors[router as usize][port as usize] = Endpoint::Node(node);
        *self.delay_mut(router, port) = delay_ps;
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
            matches!(
                self.neighbors[router as usize][port as usize],
                Endpoint::Unused
            ),
            "router {router} port {port} already connected"
        );
        self.neighbors[router as usize][port as usize] = Endpoint::Node(node);
        *self.delay_mut(router, port) = delay_ps;
    }

    /// The endpoint a port connects to.
    pub fn peer(&self, router: u32, port: u32) -> Endpoint {
        self.neighbors[router as usize][port as usize]
    }

    /// The link delay of a port.
    #[inline]
    pub fn delay(&self, router: u32, port: u32) -> u64 {
        self.link_delay_ps[(self.port_off[router as usize] + port) as usize]
    }

    fn delay_mut(&mut self, router: u32, port: u32) -> &mut u64 {
        debug_assert!(
            port < self.radix(router),
            "router {router} has no port {port}"
        );
        &mut self.link_delay_ps[(self.port_off[router as usize] + port) as usize]
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (r, ports) in self.neighbors.iter().enumerate() {
            for (p, ep) in ports.iter().enumerate() {
                if let Endpoint::Router { router, port } = ep {
                    let back = self.neighbors[*router as usize][*port as usize];
                    let want = Endpoint::Router {
                        router: r as u32,
                        port: p as u32,
                    };
                    if back != want {
                        return Err(format!(
                            "asymmetric link: {r}:{p} -> {router}:{port} but back is {back:?}"
                        ));
                    }
                }
            }
        }
        for (n, &(r, p)) in self.node_attach.iter().enumerate() {
            if self.neighbors[r as usize][p as usize] != Endpoint::Node(NodeId(n as u32)) {
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
        g.neighbors[1][0] = Endpoint::Unused;
        assert!(g.validate().is_err());
    }
}
