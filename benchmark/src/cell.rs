//! Building and running one cell from the library's public parts.
//!
//! [`build`] repeats what `baldur::net::runner::run` does before its event
//! loop starts (driver, topology, model), with the same constructors and
//! the same arguments, so the set-up child and the traced run can time
//! those steps on their own. The projection tests in `trace.rs` fail if
//! this copy drifts from the runner.

use std::time::Instant;

use baldur::net::baldur_net::BaldurNet;
use baldur::net::driver::Driver;
use baldur::net::router_net::RouterNet;
use baldur::net::routing::{build_mb_graph, RoutingAlg};
use baldur::net::workloads;
use baldur::sim::Time;
use baldur::topo::graph::RouterGraph;
use baldur::topo::{Dragonfly, FatTree, MultiButterfly, Staged};
use baldur::{NetworkKind, RunConfig, Workload};

/// The runner's driver construction for `cfg`.
fn build_driver(cfg: &RunConfig) -> Driver {
    match cfg.workload {
        Workload::Synthetic {
            pattern,
            load,
            packets_per_node,
        } => Driver::open_loop(
            cfg.nodes,
            pattern,
            load,
            packets_per_node,
            &cfg.link,
            cfg.seed,
        ),
        Workload::PingPong1 { rounds } => Driver::ping_pong(
            workloads::ping_pong1_pairs(cfg.nodes, cfg.seed),
            rounds,
            cfg.seed,
        ),
        Workload::PingPong2 { rounds } => {
            Driver::ping_pong(workloads::ping_pong2_pairs(cfg.nodes), rounds, cfg.seed)
        }
        Workload::Hpc { app, params } => Driver::trace(
            workloads::generate(app, cfg.nodes, params, cfg.seed),
            cfg.seed,
        ),
        Workload::Storm {
            pattern,
            load,
            packets_per_node,
        } => Driver::storm(
            cfg.nodes,
            pattern,
            load,
            packets_per_node,
            &cfg.link,
            cfg.seed,
        ),
    }
}

/// The runner's router graph and routing for an electrical network
/// (`None` for Baldur and the ideal network).
fn router_topology(cfg: &RunConfig) -> Option<(RouterGraph, RoutingAlg)> {
    // Link delays are Table VI's, as the runner sets them.
    match &cfg.network {
        NetworkKind::ElectricalMultiButterfly { multiplicity, .. } => {
            let topo_nodes = cfg.nodes.next_power_of_two().max(4);
            let mb = MultiButterfly::new(topo_nodes, *multiplicity, cfg.seed);
            let graph = build_mb_graph(&mb, 100_000, 10_000);
            Some((graph, RoutingAlg::MultiButterfly(mb)))
        }
        NetworkKind::Dragonfly { .. } => {
            let df = Dragonfly::at_least(u64::from(cfg.nodes));
            Some((df.build_graph(10_000, 100_000), RoutingAlg::Dragonfly(df)))
        }
        NetworkKind::DragonflyMinimal { .. } => {
            let df = Dragonfly::at_least(u64::from(cfg.nodes));
            Some((
                df.build_graph(10_000, 100_000),
                RoutingAlg::DragonflyMinimal(df),
            ))
        }
        NetworkKind::FatTree { .. } => {
            let ft = FatTree::at_least(u64::from(cfg.nodes));
            Some((
                ft.build_graph(10_000, 50_000, 100_000),
                RoutingAlg::FatTree(ft),
            ))
        }
        NetworkKind::Baldur(_) | NetworkKind::Ideal => None,
    }
}

/// A constructed model with the driver's first wakeups and the
/// simulated-time horizon the runner would use.
pub struct Ready<M> {
    /// The model.
    pub model: M,
    /// `(node, wake_ps)` for every node with initial activity.
    pub initial: Vec<(u32, u64)>,
    /// The runner's default horizon for this cell.
    pub horizon: Time,
}

/// A cell after set-up.
pub enum Built {
    /// The Baldur model.
    Baldur(Ready<BaldurNet>),
    /// The electrical model (multi-butterfly, dragonfly, fat-tree).
    Router(Ready<RouterNet>),
    /// The ideal network has no public constructor: its driver is handed
    /// to `ideal_net::simulate` whole.
    Ideal(Driver),
}

/// Builds `cfg` the way the runner does, calling `lap(step, start)` as
/// each step (`setup.driver`, `setup.topo`, `setup.model`) ends. With
/// `time_baldur_topo`, Baldur's staged topology is also built once on its
/// own to time it; the model still builds its own copy, so Baldur's
/// `setup.model` includes a topology build.
pub fn build(
    cfg: &RunConfig,
    time_baldur_topo: bool,
    lap: &mut dyn FnMut(&'static str, Instant),
) -> Built {
    let t = Instant::now();
    let mut driver = build_driver(cfg);
    lap("setup.driver", t);
    let total = driver.total_to_send();
    let sample_cap = total.min(2_000_000) as usize + 16;
    let packet_ps = cfg.link.packet_time().as_ps();
    let horizon = |per_node: u64, mult: u64, slack_ns: u64| {
        Time::from_ns(
            cfg.horizon_ns
                .unwrap_or(mult * per_node * packet_ps / 1_000 + slack_ns),
        )
    };
    match &cfg.network {
        NetworkKind::Ideal => Built::Ideal(driver),
        NetworkKind::Baldur(params) => {
            if time_baldur_topo {
                let t = Instant::now();
                let topo_nodes = cfg.nodes.next_power_of_two().max(4);
                let kind = params.staged_kind();
                let staged = Staged::build(kind, topo_nodes, params.multiplicity, cfg.seed);
                std::hint::black_box(staged);
                lap("setup.topo", t);
            }
            // The runner takes the initial wakeups after building the
            // model; construction never touches the driver, so taking them
            // first (the driver is moved into the model) is equivalent.
            let initial = driver.initial();
            let t = Instant::now();
            let model = BaldurNet::new(cfg.nodes, *params, cfg.link, driver, cfg.seed, sample_cap);
            lap("setup.model", t);
            Built::Baldur(Ready {
                model,
                initial,
                horizon: horizon(total / u64::from(cfg.nodes.max(1)) + 1, 50, 10_000_000),
            })
        }
        NetworkKind::ElectricalMultiButterfly { router, .. }
        | NetworkKind::Dragonfly { router }
        | NetworkKind::DragonflyMinimal { router }
        | NetworkKind::FatTree { router } => {
            let nodes = u64::from(driver.nodes().max(1));
            let t = Instant::now();
            let (graph, alg) =
                router_topology(cfg).expect("electrical networks have a router graph");
            lap("setup.topo", t);
            let initial = driver.initial();
            let t = Instant::now();
            let model = RouterNet::new(graph, alg, cfg.link, *router, driver, cfg.seed, sample_cap);
            lap("setup.model", t);
            Built::Router(Ready {
                model,
                initial,
                horizon: horizon(total / nodes + 1, 100, 50_000_000),
            })
        }
    }
}
