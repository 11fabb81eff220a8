//! Routing algorithms for the electrical baseline networks.
//!
//! * Multi-butterfly: destination-bit routing with adaptive (least-pending)
//!   selection among the `m` parallel ports of the chosen direction.
//! * Dragonfly: UGAL-style adaptive routing \[16\] — at injection the source
//!   router compares the congestion of the minimal path against a Valiant
//!   detour through a random intermediate group; VCs follow Kim et al.'s
//!   local/global hop-class assignment to stay deadlock-free.
//! * Fat-tree: adaptive up-routing (least-pending upstream port), then
//!   deterministic down-routing \[55\].

use baldur_sim::rng::StreamRng;
use baldur_topo::dragonfly::Dragonfly;
use baldur_topo::fattree::{FatTree, Level};
use baldur_topo::graph::{NodeId, RouterGraph};
use baldur_topo::multibutterfly::MultiButterfly;

/// Per-packet routing scratch state.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteState {
    /// Dragonfly Valiant intermediate group (cleared once reached).
    pub valiant_mid: Option<u32>,
    /// Local hops taken (dragonfly VC class).
    pub local_hops: u8,
    /// Global hops taken (dragonfly VC class).
    pub global_hops: u8,
}

/// A congestion view the adaptive algorithms consult: packets currently
/// buffered in this router destined to each output port.
pub trait Congestion {
    /// Pending packets for `port`.
    fn pending(&self, port: u32) -> u32;
}

impl Congestion for &[u32] {
    fn pending(&self, port: u32) -> u32 {
        self[port as usize]
    }
}

/// The routing algorithm of an electrical network.
#[derive(Debug, Clone)]
pub enum RoutingAlg {
    /// Adaptive destination-bit routing on the multi-butterfly.
    MultiButterfly(MultiButterfly),
    /// UGAL-style adaptive dragonfly routing.
    Dragonfly(Dragonfly),
    /// Minimal-only dragonfly routing (the non-adaptive ablation).
    DragonflyMinimal(Dragonfly),
    /// Adaptive up / deterministic down fat-tree routing.
    FatTree(FatTree),
}

/// UGAL bias: take the Valiant detour only when the minimal queue exceeds
/// twice the non-minimal queue plus this threshold.
const UGAL_THRESHOLD: u32 = 3;

impl RoutingAlg {
    /// Called once when a packet is injected at its source router: decides
    /// dragonfly minimal-vs-Valiant. `cong` views the *source router*.
    pub fn on_inject(
        &self,
        router: u32,
        src: NodeId,
        dst: NodeId,
        state: &mut RouteState,
        cong: &impl Congestion,
        rng: &mut StreamRng,
    ) {
        let RoutingAlg::Dragonfly(df) = self else {
            return; // minimal-only and non-dragonfly algorithms never detour
        };
        let src_group = df.group_of_node(src);
        let dst_group = df.group_of_node(dst);
        if src_group == dst_group {
            return;
        }
        // Candidate intermediate group.
        let mid = loop {
            let g = rng.gen_range(0..df.groups);
            if g != src_group && g != dst_group {
                break g;
            }
        };
        let q_min = cong.pending(self.df_first_port(df, router, dst_group, dst));
        let q_val = cong.pending(self.df_first_port(df, router, mid, dst));
        if q_min > 2 * q_val + UGAL_THRESHOLD {
            state.valiant_mid = Some(mid);
        }
    }

    /// The output port a dragonfly packet heading for `target_group` takes
    /// from `router` (terminal port if already at the destination router).
    fn df_first_port(&self, df: &Dragonfly, router: u32, target_group: u32, dst: NodeId) -> u32 {
        let g = df.group_of_router(router);
        if g == target_group {
            let dst_router = df.router_of_node(dst);
            if df.group_of_router(dst_router) != g {
                // Heading to an intermediate group: any local port; use 0's
                // congestion as a proxy via the port toward router 0 of the
                // group (the decision only compares magnitudes).
                let local = router % df.a;
                let peer = if local == 0 { 1 } else { 0 };
                return df.local_port(local, peer);
            }
            if dst_router == router {
                return dst.0 % df.p;
            }
            return df.local_port(router % df.a, dst_router % df.a);
        }
        let (gw, gp) = df.gateway(g, target_group);
        if gw == router {
            df.global_port_base() + gp
        } else {
            df.local_port(router % df.a, gw % df.a)
        }
    }

    /// Computes the next hop for a packet at `router`: `(port, vc)`.
    /// Must be called exactly once per router visit (it advances the
    /// packet's hop-class counters).
    ///
    /// # Panics
    ///
    /// Panics if invariants break (e.g. a packet mis-sorted in the
    /// multi-butterfly).
    pub fn route(
        &self,
        graph: &RouterGraph,
        router: u32,
        pkt_id: u64,
        dst: NodeId,
        state: &mut RouteState,
        cong: &impl Congestion,
    ) -> (u32, u32) {
        match self {
            RoutingAlg::MultiButterfly(mb) => {
                let m = mb.multiplicity();
                let width = mb.switches_per_stage();
                let stage = router / width;
                let switch = router % width;
                let dir = mb.direction(dst, stage);
                let base = 2 * m + dir * m;
                let port = if stage + 1 == mb.stages() {
                    base // single terminal port per direction
                } else {
                    // Adaptive: least-pending of the m parallel ports.
                    (base..base + m)
                        .min_by_key(|&p| cong.pending(p))
                        .expect("m >= 1")
                };
                let _ = (graph, switch);
                (port, (pkt_id % 3) as u32)
            }
            RoutingAlg::Dragonfly(df) | RoutingAlg::DragonflyMinimal(df) => {
                let g = df.group_of_router(router);
                if state.valiant_mid == Some(g) {
                    state.valiant_mid = None;
                }
                let target_group = state.valiant_mid.unwrap_or_else(|| df.group_of_node(dst));
                let port = if g == target_group && state.valiant_mid.is_none() {
                    let dst_router = df.router_of_node(dst);
                    if dst_router == router {
                        dst.0 % df.p
                    } else {
                        df.local_port(router % df.a, dst_router % df.a)
                    }
                } else if g == target_group {
                    unreachable!("valiant mid cleared above");
                } else {
                    let (gw, gp) = df.gateway(g, target_group);
                    if gw == router {
                        df.global_port_base() + gp
                    } else {
                        df.local_port(router % df.a, gw % df.a)
                    }
                };
                // VC by hop class (Kim et al.): local hops use classes
                // 0/1/2, global hops 0/1.
                let is_global = port >= df.global_port_base();
                let vc = if is_global {
                    let vc = u32::from(state.global_hops).min(1);
                    state.global_hops += 1;
                    vc
                } else {
                    let vc = u32::from(state.local_hops).min(2);
                    state.local_hops += 1;
                    vc
                };
                (port, vc)
            }
            RoutingAlg::FatTree(ft) => {
                let half = ft.half_k();
                let port = match ft.level(router) {
                    Level::Edge => {
                        let (er, ep) = ft.host_attachment(dst);
                        if er == router {
                            ep
                        } else {
                            (half..ft.k)
                                .min_by_key(|&p| cong.pending(p))
                                .expect("k >= 4")
                        }
                    }
                    Level::Aggregation => {
                        let pod = ft.pod_of(router);
                        let dst_pod = dst.0 / ft.hosts_per_pod();
                        if dst_pod == pod {
                            // Down to the destination edge switch.
                            (dst.0 % ft.hosts_per_pod()) / half
                        } else {
                            (half..ft.k)
                                .min_by_key(|&p| cong.pending(p))
                                .expect("k >= 4")
                        }
                    }
                    Level::Core => dst.0 / ft.hosts_per_pod(),
                };
                let _ = graph;
                (port, (pkt_id % 3) as u32)
            }
        }
    }

    /// The VC a packet uses on its injection (terminal) link.
    pub fn injection_vc(&self, pkt_id: u64) -> u32 {
        match self {
            RoutingAlg::Dragonfly(_) | RoutingAlg::DragonflyMinimal(_) => 0,
            _ => (pkt_id % 3) as u32,
        }
    }
}

/// Builds the port-level graph of an electrical multi-butterfly.
///
/// Router index = `stage * (nodes/2) + switch`. Port layout: `[0, 2m)` are
/// upstream inputs, `[2m, 4m)` downstream outputs (direction-major). Nodes
/// inject at stage 0 (input `(node % 2) * m`) and are delivered from the
/// last stage (output port `2m + dir * m`).
pub fn build_mb_graph(mb: &MultiButterfly, node_link_ps: u64, stage_link_ps: u64) -> RouterGraph {
    let m = mb.multiplicity();
    let width = mb.switches_per_stage();
    let routers = width * mb.stages();
    let mut g = RouterGraph::new(routers, 4 * m);
    // Injection attachments, node-id order.
    for n in 0..mb.nodes() {
        g.attach_node(n / 2, (n % 2) * m, node_link_ps);
    }
    // Inter-stage links.
    for s in 0..mb.stages() - 1 {
        for sw in 0..width {
            for dir in 0..2 {
                for path in 0..m {
                    let t = mb.target(s, sw, dir, path).expect("inner stage");
                    g.connect(
                        (s * width + sw, 2 * m + dir * m + path),
                        ((s + 1) * width + t.switch, t.port),
                        stage_link_ps,
                    );
                }
            }
        }
    }
    // Egress terminals on the last stage.
    let last = mb.stages() - 1;
    for sw in 0..width {
        for dir in 0..2 {
            let node = mb.egress_node(sw, dir);
            g.attach_terminal(node, last * width + sw, 2 * m + dir * m, node_link_ps);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mb_graph_validates() {
        let mb = MultiButterfly::new(32, 4, 5);
        let g = build_mb_graph(&mb, 100_000, 10_000);
        assert!(g.validate().is_ok());
        assert_eq!(g.node_count(), 32);
    }

    #[test]
    fn mb_route_follows_destination_bits() {
        let mb = MultiButterfly::new(16, 2, 1);
        let g = build_mb_graph(&mb, 1, 1);
        let alg = RoutingAlg::MultiButterfly(mb.clone());
        let pending = vec![0u32; 8];
        let mut st = RouteState::default();
        // dst 0b1010: stage 0 direction 1 -> ports [2m + m .. 2m + 2m).
        let (port, _) = alg.route(&g, 0, 0, NodeId(0b1010), &mut st, &pending.as_slice());
        assert!((6..8).contains(&port), "port {port}");
    }

    #[test]
    fn mb_route_prefers_less_pending_port() {
        let mb = MultiButterfly::new(16, 2, 1);
        let g = build_mb_graph(&mb, 1, 1);
        let alg = RoutingAlg::MultiButterfly(mb);
        let mut pending = vec![0u32; 8];
        pending[6] = 5;
        let mut st = RouteState::default();
        let (port, _) = alg.route(&g, 0, 0, NodeId(0b1010), &mut st, &pending.as_slice());
        assert_eq!(port, 7, "must avoid the congested parallel port");
    }

    #[test]
    fn dragonfly_minimal_route_walks_l_g_l() {
        let df = Dragonfly::balanced(2); // p=2, a=4, h=2, 9 groups
        let g = df.build_graph(10_000, 100_000);
        let alg = RoutingAlg::Dragonfly(df.clone());
        let pending = vec![0u32; df.radix() as usize];
        // Node 0 (router 0, group 0) -> node in group 5.
        let dst = NodeId(5 * (df.p * df.a) + 3);
        let mut st = RouteState::default();
        let mut router = df.router_of_node(NodeId(0));
        let mut hops = 0;
        loop {
            let (port, vc) = alg.route(&g, router, 0, dst, &mut st, &pending.as_slice());
            assert!(vc < 3);
            match g.peer(router, port) {
                baldur_topo::graph::Endpoint::Router { router: r, .. } => router = r,
                baldur_topo::graph::Endpoint::Node(n) => {
                    assert_eq!(n, dst);
                    break;
                }
                baldur_topo::graph::Endpoint::Unused => panic!("routed to unused port"),
            }
            hops += 1;
            assert!(hops <= 5, "minimal dragonfly path too long");
        }
    }

    #[test]
    fn dragonfly_valiant_goes_through_mid_group() {
        let df = Dragonfly::balanced(2);
        let g = df.build_graph(10_000, 100_000);
        let alg = RoutingAlg::Dragonfly(df.clone());
        let pending = vec![0u32; df.radix() as usize];
        let dst = NodeId(5 * (df.p * df.a));
        let mut st = RouteState {
            valiant_mid: Some(7),
            ..Default::default()
        };
        let mut router = 0;
        let mut visited_mid = false;
        for _ in 0..10 {
            let (port, _) = alg.route(&g, router, 0, dst, &mut st, &pending.as_slice());
            match g.peer(router, port) {
                baldur_topo::graph::Endpoint::Router { router: r, .. } => {
                    router = r;
                    if df.group_of_router(r) == 7 {
                        visited_mid = true;
                    }
                }
                baldur_topo::graph::Endpoint::Node(n) => {
                    assert_eq!(n, dst);
                    assert!(visited_mid, "valiant path must cross group 7");
                    return;
                }
                baldur_topo::graph::Endpoint::Unused => panic!("unused port"),
            }
        }
        panic!("did not deliver");
    }

    #[test]
    fn ugal_picks_valiant_under_congestion() {
        let df = Dragonfly::balanced(2);
        let alg = RoutingAlg::Dragonfly(df.clone());
        let mut rng = StreamRng::named(1, "ugal", 0);
        // Congest every port heavily except nothing: minimal q = 50.
        let mut pending = vec![0u32; df.radix() as usize];
        let dst = NodeId(5 * (df.p * df.a));
        let min_port = {
            let mut st = RouteState::default();
            let g = df.build_graph(1, 1);
            alg.route(&g, 0, 0, dst, &mut st, &pending.as_slice()).0
        };
        pending[min_port as usize] = 50;
        let mut st = RouteState::default();
        alg.on_inject(0, NodeId(0), dst, &mut st, &pending.as_slice(), &mut rng);
        assert!(st.valiant_mid.is_some(), "should detour around congestion");
        // And with no congestion it stays minimal.
        let pending = vec![0u32; df.radix() as usize];
        let mut st = RouteState::default();
        alg.on_inject(0, NodeId(0), dst, &mut st, &pending.as_slice(), &mut rng);
        assert!(st.valiant_mid.is_none());
    }

    #[test]
    fn fattree_up_down_delivers() {
        let ft = FatTree::new(8);
        let g = ft.build_graph(10_000, 50_000, 100_000);
        let alg = RoutingAlg::FatTree(ft.clone());
        let pending = vec![0u32; ft.k as usize];
        for (src, dst) in [(0u32, 127u32), (5, 6), (64, 1), (127, 0)] {
            let (mut router, _) = ft.host_attachment(NodeId(src));
            let mut st = RouteState::default();
            let mut hops = 0;
            loop {
                let (port, _) = alg.route(
                    &g,
                    router,
                    u64::from(src),
                    NodeId(dst),
                    &mut st,
                    &pending.as_slice(),
                );
                match g.peer(router, port) {
                    baldur_topo::graph::Endpoint::Router { router: r, .. } => router = r,
                    baldur_topo::graph::Endpoint::Node(n) => {
                        assert_eq!(n.0, dst);
                        break;
                    }
                    baldur_topo::graph::Endpoint::Unused => panic!("unused port"),
                }
                hops += 1;
                assert!(hops <= 6, "fat-tree path too long: {src}->{dst}");
            }
        }
    }
}
