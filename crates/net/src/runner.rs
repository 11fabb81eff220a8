//! One entry point for every (network × workload) simulation the paper's
//! figures need, and the one run loop both packet models share: through
//! the crate-private `PacketModel` trait, [`baldur_net`] and
//! [`router_net`] get one oracle and fault-plan install, one observed
//! event loop, one drain audit and one report assembly. [`ideal_net`]
//! keeps its own loop: it has no oracle, no faults and no horizon.

use baldur_sim::{Model, Simulation, StopReason, Time};
use baldur_topo::dragonfly::Dragonfly;
use baldur_topo::fattree::FatTree;
use baldur_topo::multibutterfly::MultiButterfly;
use serde::{Deserialize, Serialize};

use crate::baldur_net::StateStats;
use crate::config::{BaldurParams, LinkParams, RouterParams, RunSpec};
use crate::driver::Driver;
use crate::faults::FaultPlan;
use crate::metrics::{Collector, LatencyReport};
use crate::oracle::Oracle;
use crate::routing::{build_mb_graph, RoutingAlg};
use crate::traffic::Pattern;
use crate::workloads::{self, HpcApp, TraceParams};
use crate::{baldur_net, ideal_net, router_net};

/// Which network to simulate (the five of Sec. V-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetworkKind {
    /// The all-optical Baldur network.
    Baldur(BaldurParams),
    /// The buffered electrical multi-butterfly baseline.
    ElectricalMultiButterfly {
        /// Path multiplicity (paper: 4).
        multiplicity: u32,
        /// Router parameters.
        router: RouterParams,
    },
    /// The dragonfly baseline with UGAL-style adaptive routing.
    Dragonfly {
        /// Router parameters.
        router: RouterParams,
    },
    /// Dragonfly with minimal-only routing (ablation; the paper uses the
    /// adaptive configuration).
    DragonflyMinimal {
        /// Router parameters.
        router: RouterParams,
    },
    /// The 3-level fat-tree baseline with adaptive up-routing.
    FatTree {
        /// Router parameters.
        router: RouterParams,
    },
    /// Infinite bandwidth, flat 200 ns.
    Ideal,
}

impl NetworkKind {
    /// All five networks at the paper's defaults for `nodes` servers.
    pub fn paper_lineup(nodes: u32) -> Vec<(String, NetworkKind)> {
        ["baldur", "electrical_mb", "dragonfly", "fattree", "ideal"]
            .into_iter()
            .filter_map(|name| Some((name.to_string(), NetworkKind::by_name(name, nodes)?)))
            .collect()
    }

    /// Resolves one lineup entry from its stable display name (the
    /// strings [`NetworkKind::name`] returns), at the paper's defaults
    /// for `nodes` servers. This is the spec-facing entry point behind
    /// the experiment registry's `networks` axis; `dragonfly_minimal`
    /// (the routing ablation) is resolvable here even though the paper
    /// lineup omits it.
    pub fn by_name(name: &str, nodes: u32) -> Option<NetworkKind> {
        match name {
            "baldur" => Some(NetworkKind::Baldur(BaldurParams::paper_for(u64::from(
                nodes,
            )))),
            "electrical_mb" => Some(NetworkKind::ElectricalMultiButterfly {
                multiplicity: 4,
                router: RouterParams::paper(),
            }),
            "dragonfly" => Some(NetworkKind::Dragonfly {
                router: RouterParams::paper(),
            }),
            "dragonfly_minimal" => Some(NetworkKind::DragonflyMinimal {
                router: RouterParams::paper(),
            }),
            "fattree" => Some(NetworkKind::FatTree {
                router: RouterParams::paper(),
            }),
            "ideal" => Some(NetworkKind::Ideal),
            _ => None,
        }
    }

    /// Builds a named lineup (the shape [`NetworkKind::paper_lineup`]
    /// returns) from a list of display names, preserving order. An
    /// unknown name errs with the valid choices, so the registry runner
    /// can surface it as a usage error instead of a panic.
    pub fn lineup_named(
        nodes: u32,
        names: &[String],
    ) -> Result<Vec<(String, NetworkKind)>, String> {
        names
            .iter()
            .map(|name| match NetworkKind::by_name(name, nodes) {
                Some(net) => Ok((name.clone(), net)),
                None => Err(format!(
                    "unknown network `{name}` (choose from: baldur, electrical_mb, \
                     dragonfly, dragonfly_minimal, fattree, ideal)"
                )),
            })
            .collect()
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            NetworkKind::Baldur(_) => "baldur",
            NetworkKind::ElectricalMultiButterfly { .. } => "electrical_mb",
            NetworkKind::Dragonfly { .. } => "dragonfly",
            NetworkKind::DragonflyMinimal { .. } => "dragonfly_minimal",
            NetworkKind::FatTree { .. } => "fattree",
            NetworkKind::Ideal => "ideal",
        }
    }
}

/// What traffic to offer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Open-loop synthetic pattern at an input load.
    Synthetic {
        /// Traffic pattern.
        pattern: Pattern,
        /// Input load in (0, 1].
        load: f64,
        /// Packets injected per node.
        packets_per_node: u32,
    },
    /// Closed-loop ping-pong over a random pairing (paper ping_pong1).
    PingPong1 {
        /// Rounds per pair.
        rounds: u32,
    },
    /// Closed-loop ping-pong over dragonfly-adversarial group pairs
    /// (paper ping_pong2).
    PingPong2 {
        /// Rounds per pair.
        rounds: u32,
    },
    /// Synthetic HPC application trace.
    Hpc {
        /// Which application.
        app: HpcApp,
        /// Trace scale knobs.
        params: TraceParams,
    },
    /// Overload storm: open-loop arrivals at an offered load that may
    /// exceed saturation (`load > 1` is allowed), destinations from a
    /// storm [`Pattern`]. Incast wakes only the pattern's sender set;
    /// hotcast sources are bursty on/off.
    Storm {
        /// Storm traffic pattern (usually `Incast`/`Hotcast`; any
        /// pattern works).
        pattern: Pattern,
        /// Offered load relative to line rate, `> 0` (4.0 = 4x
        /// saturation).
        load: f64,
        /// Packets injected per active sender.
        packets_per_node: u32,
    },
}

/// A complete run configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Active server nodes (topologies may be built slightly larger, as in
    /// the paper; the extra nodes idle).
    pub nodes: u32,
    /// The network under test.
    pub network: NetworkKind,
    /// The offered workload.
    pub workload: Workload,
    /// Link/packet parameters.
    pub link: LinkParams,
    /// Master seed.
    pub seed: u64,
    /// Simulated-time bound in ns (None = generous default).
    pub horizon_ns: Option<u64>,
    /// Fault schedule (None = fault-free). Baldur executes every kind;
    /// the electrical baselines honor router-granularity kinds; the ideal
    /// network ignores faults (it has no components to fail).
    pub faults: Option<FaultPlan>,
}

impl RunConfig {
    /// A config with paper defaults for everything but the essentials.
    pub fn new(nodes: u32, network: NetworkKind, workload: Workload) -> Self {
        RunConfig {
            nodes,
            network,
            workload,
            link: LinkParams::paper(),
            seed: 0xBA1D,
            horizon_ns: None,
            faults: None,
        }
    }

    /// The same config with a fault schedule attached.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

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

/// Runs one configuration and returns the report.
///
/// # Panics
///
/// Panics on malformed configurations (e.g. transpose on a non-square node
/// count) — the harnesses construct only valid ones.
pub fn run(cfg: &RunConfig) -> LatencyReport {
    let driver = build_driver(cfg);
    // An absent schedule is the empty plan: both simulators take the
    // fault-free fast path on it, bit-identical to a plain run.
    let spec = RunSpec {
        horizon_ns: cfg.horizon_ns,
        plan: cfg
            .faults
            .clone()
            .unwrap_or_else(|| FaultPlan::new(cfg.seed)),
        ..RunSpec::new(cfg.link, cfg.seed)
    };
    let (graph, alg, router) = match &cfg.network {
        NetworkKind::Baldur(params) => {
            return baldur_net::simulate(cfg.nodes, *params, driver, &spec).0
        }
        NetworkKind::Ideal => return ideal_net::simulate(driver, None),
        NetworkKind::ElectricalMultiButterfly {
            multiplicity,
            router,
        } => {
            let topo_nodes = cfg.nodes.next_power_of_two().max(4);
            let mb = MultiButterfly::new(topo_nodes, *multiplicity, cfg.seed);
            // Node fibers 100 ns (Table VI); same-room stage links short.
            let graph = build_mb_graph(&mb, 100_000, 10_000);
            (graph, RoutingAlg::MultiButterfly(mb), router)
        }
        NetworkKind::Dragonfly { router } => {
            let df = Dragonfly::at_least(u64::from(cfg.nodes));
            // Table VI: intra-group 10 ns, inter-group 100 ns.
            let graph = df.build_graph(10_000, 100_000);
            (graph, RoutingAlg::Dragonfly(df), router)
        }
        NetworkKind::DragonflyMinimal { router } => {
            let df = Dragonfly::at_least(u64::from(cfg.nodes));
            let graph = df.build_graph(10_000, 100_000);
            (graph, RoutingAlg::DragonflyMinimal(df), router)
        }
        NetworkKind::FatTree { router } => {
            let ft = FatTree::at_least(u64::from(cfg.nodes));
            // Table VI: level 1/2/3 links at 10/50/100 ns.
            let graph = ft.build_graph(10_000, 50_000, 100_000);
            (graph, RoutingAlg::FatTree(ft), router)
        }
    };
    router_net::simulate(graph, alg, *router, driver, &spec).0
}

/// A packet model the shared run loop can drive.
pub(crate) trait PacketModel: Model {
    /// The driver wakeup of a node.
    const WAKE: fn(u32) -> Self::Event;
    /// The event that applies a fault-plan entry, by index.
    const FAULT: fn(u32) -> Self::Event;

    /// The driver, collector, oracle and fault plan the shell installs.
    fn parts(&mut self) -> (&mut Driver, &mut Collector, &mut Oracle, &mut FaultPlan);

    /// The periodic stuck-flow check; `true` aborts the run.
    fn oracle_tick(&mut self, now: Time) -> bool;

    /// The drain audit (valid once the event queue has drained).
    fn oracle_check_drained(&mut self, end: Time);

    /// The model's kernel-state accounting, where it keeps one.
    fn model_stats(&self) -> StateStats {
        StateStats::default()
    }

    /// The report at simulated time `end`, with the oracle's summary.
    fn report(&mut self, end: Time) -> LatencyReport {
        let (_, metrics, oracle, _) = self.parts();
        let mut r = metrics.report(end);
        r.oracle = oracle.summary();
        r
    }
}

/// Installs `spec`'s oracle and fault plan into a fresh `model` (with
/// `sample_cap` latency samples) and schedules the driver's first wakeups
/// and every fault event.
pub(crate) fn install<M: PacketModel>(
    mut model: M,
    spec: &RunSpec,
    sample_cap: usize,
) -> Simulation<M> {
    let (driver, metrics, oracle, plan) = model.parts();
    *oracle = Oracle::new(spec.oracle);
    if !spec.plan.is_empty() {
        *metrics = Collector::for_plan(sample_cap, &spec.plan);
        oracle.set_boundaries(spec.plan.epoch_boundaries());
        *plan = spec.plan.clone();
    }
    let initial = driver.initial();
    let mut sim = Simulation::new(model);
    for (node, t) in initial {
        sim.scheduler_mut()
            .schedule_at(Time::from_ps(t), (M::WAKE)(node));
    }
    for (idx, ev) in spec.plan.events.iter().enumerate() {
        sim.scheduler_mut()
            .schedule_at(Time::from_ps(ev.at_ps), (M::FAULT)(idx as u32));
    }
    sim
}

/// Runs the model `build(driver, sample_cap)` under `spec` to drain or to
/// the horizon (`spec`'s, else `default_horizon_ns`); returns the report
/// and the kernel-state accounting, which records the packets a horizon
/// stop left ungenerated ([`StateStats::unsent_at_horizon`]).
pub(crate) fn run_packet_model<M: PacketModel>(
    driver: Driver,
    spec: &RunSpec,
    default_horizon_ns: u64,
    build: impl FnOnce(Driver, usize) -> M,
) -> (LatencyReport, StateStats) {
    let sample_cap = driver.total_to_send().min(2_000_000) as usize + 16;
    let mut sim = install(build(driver, sample_cap), spec, sample_cap);
    let horizon = Time::from_ns(spec.horizon_ns.unwrap_or(default_horizon_ns));
    // Every 8192 executed events (a deterministic cadence, independent of
    // wall clock and thread count) the oracle's stuck-flow detector gets a
    // look; a latched stall aborts the run so livelocks surface as a
    // violation instead of burning the horizon.
    let stop = sim.run_until_observed(horizon, u64::MAX, 8192, |m, now| !m.oracle_tick(now));
    let sched = sim.scheduler();
    let (end, events) = (sched.now(), sched.events_executed());
    let mut stats = StateStats {
        peak_pending_events: sched.peak_pending() as u64,
        events_scheduled: sched.events_scheduled(),
        queue_bytes: sched.state_bytes(),
        ..sim.model().model_stats()
    };
    let mut model = sim.into_model();
    if stop == StopReason::Horizon {
        let (driver, metrics, _, _) = model.parts();
        stats.unsent_at_horizon = driver.total_to_send().saturating_sub(metrics.generated());
    }
    if stop == StopReason::Drained {
        let before = model.parts().2.total();
        model.oracle_check_drained(end);
        let oracle = model.parts().2;
        debug_assert_eq!(
            oracle.total(),
            before,
            "drain audit: {:?}",
            oracle.summary().reports
        );
    }
    let mut report = model.report(end);
    report.events = events;
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_reconstructs_the_paper_lineup() {
        let lineup = NetworkKind::paper_lineup(128);
        assert_eq!(lineup.len(), 5);
        for (name, net) in lineup {
            assert_eq!(net.name(), name);
        }
        assert!(NetworkKind::by_name("dragonfly_minimal", 128).is_some());
        assert!(NetworkKind::by_name("token_ring", 128).is_none());
        let names: Vec<String> = ["baldur", "ideal"].iter().map(|s| s.to_string()).collect();
        let lineup = NetworkKind::lineup_named(64, &names).expect("known names resolve");
        assert_eq!(lineup.len(), 2);
        assert_eq!(lineup[1].1, NetworkKind::Ideal);
        let bad = vec!["baldur".to_string(), "token_ring".to_string()];
        assert!(NetworkKind::lineup_named(64, &bad)
            .expect_err("unknown name errs")
            .contains("token_ring"));
    }

    fn synth(load: f64, ppn: u32) -> Workload {
        Workload::Synthetic {
            pattern: Pattern::RandomPermutation,
            load,
            packets_per_node: ppn,
        }
    }

    #[test]
    fn all_five_networks_run_the_same_workload() {
        for (name, net) in NetworkKind::paper_lineup(64) {
            let cfg = RunConfig::new(64, net, synth(0.2, 20));
            let r = run(&cfg);
            assert!(
                r.delivery_ratio() > 0.99,
                "{name}: delivered {} of {}",
                r.delivered,
                r.generated
            );
            assert!(r.avg_ns > 0.0, "{name}");
        }
    }

    #[test]
    fn baldur_beats_electrical_networks_at_moderate_load() {
        let mut avg = std::collections::BTreeMap::new();
        for (name, net) in NetworkKind::paper_lineup(64) {
            let cfg = RunConfig::new(64, net, synth(0.3, 30));
            avg.insert(name, run(&cfg).avg_ns);
        }
        let baldur = avg["baldur"];
        assert!(baldur < avg["electrical_mb"], "{avg:?}");
        assert!(baldur < avg["fattree"], "{avg:?}");
        assert!(baldur < avg["dragonfly"], "{avg:?}");
        // And the ideal network lower-bounds everyone.
        assert!(avg["ideal"] <= baldur, "{avg:?}");
    }

    #[test]
    fn ping_pong2_runs_everywhere() {
        for (name, net) in NetworkKind::paper_lineup(64) {
            let cfg = RunConfig::new(64, net, Workload::PingPong2 { rounds: 3 });
            let r = run(&cfg);
            assert_eq!(r.delivered, r.generated, "{name}");
        }
    }

    #[test]
    fn hpc_trace_runs_on_baldur_and_fattree() {
        let wl = Workload::Hpc {
            app: HpcApp::CrystalRouter,
            params: TraceParams {
                iterations: 1,
                halo_packets: 2,
                compute_ps: 100_000,
            },
        };
        for (name, net) in NetworkKind::paper_lineup(64).into_iter().take(2) {
            let cfg = RunConfig::new(64, net, wl);
            let r = run(&cfg);
            assert!(r.delivery_ratio() > 0.99, "{name}");
        }
    }
}
