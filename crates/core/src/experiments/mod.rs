//! One experiment per table/figure of the paper's evaluation.
//!
//! This used to be a single thousand-line module; it is now a directory
//! of per-artifact modules. Each module exports its row types and one
//! experiment function per sweep (re-exported here, so
//! `experiments::figure6` and friends keep their historical paths) and
//! registers one [`crate::registry::ExperimentSpec`] with the
//! experiment registry — the bench binaries, the `all_figures` runner,
//! the docs table, and the completeness test all enumerate
//! [`crate::registry::all`] instead of naming modules.
//!
//! An experiment function takes the [`crate::sweep::Sweep`] to run on,
//! the sizing config, and its axis values, and is exactly what the
//! spec's run hook calls: tests pass an uncached `Sweep::new(0)`, the
//! bench binaries a cached one, and both exercise the same code path.
//!
//! The default parameters are sized to run in seconds-to-minutes — pass
//! larger [`EvalConfig`] values to approach the paper's full 1,024-node
//! × 10,000-packet setup.

use serde::{Deserialize, Serialize};

pub(crate) mod ablation;
pub(crate) mod awgr;
pub(crate) mod buffers;
pub(crate) mod chaos;
pub(crate) mod droptool;
pub(crate) mod faults;
pub(crate) mod fig10;
pub(crate) mod fig5;
pub(crate) mod fig6;
pub(crate) mod fig7;
pub(crate) mod fig8;
pub(crate) mod fig9;
pub(crate) mod overload;
pub(crate) mod packaging;
pub(crate) mod reliability;
pub(crate) mod saturation;
pub(crate) mod scaling;
pub(crate) mod table5;
pub(crate) mod tables34;
pub(crate) mod topologies;

pub use ablation::{backoff_ablation, wiring_ablation, BackoffAblation, WiringAblation};
pub use awgr::{awgr_comparison, AwgrComparison};
pub use buffers::buffer_sizing;
pub use chaos::{chaos, ChaosRow};
pub use droptool::{droptool_study, DropRow};
pub use faults::{degradation, DegradationRow};
pub use fig10::{figure10, Fig10Row};
pub use fig5::{figure5, Fig5Waveform};
pub use fig6::{figure6, Fig6Row};
pub use fig7::{fig7_geomeans, figure7, normalize_fig7, Fig7Row};
pub use fig8::figure8;
pub use fig9::{figure9, Fig9Row};
pub use overload::{overload, overload_network, storm_pattern, OverloadRow};
pub use reliability::{reliability, ReliabilityReport};
pub use saturation::{saturation, SaturationRow};
pub use scaling::{
    deterministic_csv, install_memory_probe, install_wall_clock, scaling_curves, ScalingRow,
};
pub use table5::{table_v, TableVRow};
pub use topologies::{topology_comparison, TopologyRow};

/// Shared sizing knobs for the simulation-backed experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Active server nodes (paper: 1,024).
    pub nodes: u32,
    /// Packets injected per node for open-loop runs (paper: 10,000).
    pub packets_per_node: u32,
    /// Rounds per pair for ping-pong runs.
    pub pingpong_rounds: u32,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for sweeps (0 = all cores).
    pub threads: usize,
}

impl EvalConfig {
    /// A configuration that completes the full figure set in minutes.
    pub fn quick() -> Self {
        EvalConfig {
            nodes: 256,
            packets_per_node: 300,
            pingpong_rounds: 50,
            seed: 0xBA1D,
            threads: 0,
        }
    }

    /// A small configuration for tests (seconds).
    pub fn tiny() -> Self {
        EvalConfig {
            nodes: 64,
            packets_per_node: 60,
            pingpong_rounds: 10,
            seed: 0xBA1D,
            threads: 0,
        }
    }

    /// The paper's full scale (expect long runtimes).
    pub fn paper() -> Self {
        EvalConfig {
            nodes: 1_024,
            packets_per_node: 10_000,
            pingpong_rounds: 1_000,
            seed: 0xBA1D,
            threads: 0,
        }
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::quick()
    }
}
