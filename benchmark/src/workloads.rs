//! The benchmark's workloads: each is a fixed list of simulator cells (one
//! `RunConfig` each) built from the seed. Why each workload exists is in
//! `README.md`; in short, each one puts a different layer of the stack on
//! the critical path.

use baldur::experiments::overload_network;
use baldur::net::traffic::Pattern;
use baldur::net::workloads::{HpcApp, TraceParams};
use baldur::{NetworkKind, RunConfig, Workload};

/// The seed whose cell fingerprints are pinned in `expected.json`.
pub const DEFAULT_SEED: u64 = 0xBA1D;

/// Workload names, in the order a full run measures them.
pub const NAMES: [&str; 4] = ["paper_1k", "scale_128k", "contend_1k", "storm_1k"];

/// Node count of every workload in `--smoke` mode.
pub const SMOKE_NODES: u32 = 64;

/// One simulator run of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable id, unique within the workload (the fingerprint key).
    pub id: String,
    /// Lineup name of the network (`baldur`, `fattree`, ...).
    pub network: String,
    /// What `baldur::run` receives.
    pub cfg: RunConfig,
}

fn cell(id: String, network: &str, nodes: u32, net: NetworkKind, wl: Workload, seed: u64) -> Cell {
    Cell {
        id,
        network: network.to_string(),
        cfg: RunConfig {
            seed,
            ..RunConfig::new(nodes, net, wl)
        },
    }
}

/// The cells of `workload` for `seed`, or `None` for an unknown name.
/// `smoke` shrinks every workload to [`SMOKE_NODES`] nodes and a few
/// packets per node, keeping its cell structure.
pub fn cells(workload: &str, seed: u64, smoke: bool) -> Option<Vec<Cell>> {
    match workload {
        "paper_1k" => Some(paper(seed, smoke)),
        "scale_128k" => {
            let (nodes, ppn) = if smoke {
                (SMOKE_NODES, 2)
            } else {
                (131_072, 1)
            };
            Some(vec![baldur_uniform("uniform", nodes, 0.5, ppn, seed)])
        }
        "contend_1k" => {
            let (nodes, ppn) = if smoke {
                (SMOKE_NODES, 40)
            } else {
                (1024, 300)
            };
            Some(vec![baldur_uniform("uniform", nodes, 0.9, ppn, seed)])
        }
        "storm_1k" => Some(storm(seed, smoke)),
        _ => None,
    }
}

fn baldur_uniform(pattern: &str, nodes: u32, load: f64, ppn: u32, seed: u64) -> Cell {
    let net = NetworkKind::by_name("baldur", nodes).expect("baldur is in the lineup");
    let wl = Workload::Synthetic {
        pattern: Pattern::UniformRandom,
        load,
        packets_per_node: ppn,
    };
    cell(format!("baldur/{pattern}"), "baldur", nodes, net, wl, seed)
}

/// A slice of Figures 6 and 7: the five-network lineup under four
/// open-loop permutations plus the closed-loop ping-pong and HPC drivers.
fn paper(seed: u64, smoke: bool) -> Vec<Cell> {
    let (nodes, ppn, rounds, halo) = if smoke {
        (SMOKE_NODES, 5, 2, 1)
    } else {
        (1024, 6, 3, 2)
    };
    // A quarter of the default trace volume: at the default scale the
    // electrical multi-butterfly alone spends about 5 s on the two traces.
    let hpc = TraceParams {
        iterations: 1,
        halo_packets: halo,
        ..TraceParams::default_scale()
    };
    let open = [
        ("random_permutation", Pattern::RandomPermutation),
        ("transpose", Pattern::Transpose),
        ("bisection", Pattern::Bisection),
        ("group_permutation", Pattern::GroupPermutation),
    ];
    let closed = [
        ("ping_pong1", Workload::PingPong1 { rounds }),
        ("ping_pong2", Workload::PingPong2 { rounds }),
        (
            "crystal_router",
            Workload::Hpc {
                app: HpcApp::CrystalRouter,
                params: hpc,
            },
        ),
        (
            "multigrid",
            Workload::Hpc {
                app: HpcApp::MultiGrid,
                params: hpc,
            },
        ),
    ];
    let mut out = Vec::new();
    for (name, net) in NetworkKind::paper_lineup(nodes) {
        for (label, pattern) in open {
            let wl = Workload::Synthetic {
                pattern,
                load: 0.5,
                packets_per_node: ppn,
            };
            out.push(cell(
                format!("{name}/{label}"),
                &name,
                nodes,
                net.clone(),
                wl,
                seed,
            ));
        }
        for (label, wl) in closed {
            out.push(cell(
                format!("{name}/{label}"),
                &name,
                nodes,
                net.clone(),
                wl,
                seed,
            ));
        }
    }
    out
}

/// The overload profile (admission cap, pacing, deadline, bounded jittered
/// backoff) on Baldur and fat-tree under three storm shapes at 1x and 4x
/// line rate.
fn storm(seed: u64, smoke: bool) -> Vec<Cell> {
    let (nodes, ppn, fanin) = if smoke {
        (SMOKE_NODES, 20, 16)
    } else {
        (1024, 120, 64)
    };
    let patterns = [
        ("uniform", Pattern::UniformRandom),
        ("incast", Pattern::Incast { fanin }),
        ("hotcast", Pattern::Hotcast),
    ];
    let mut out = Vec::new();
    for name in ["baldur", "fattree"] {
        let net = overload_network(name, nodes).expect("baldur and fattree take overload controls");
        for (label, pattern) in patterns {
            for load in [1.0, 4.0] {
                let wl = Workload::Storm {
                    pattern,
                    load,
                    packets_per_node: ppn,
                };
                let id = format!("{name}/{label}@{load}x");
                out.push(cell(id, name, nodes, net.clone(), wl, seed));
            }
        }
    }
    out
}
