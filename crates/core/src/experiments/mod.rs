//! One experiment per table/figure of the paper's evaluation.
//!
//! This used to be a single thousand-line module; it is now a directory
//! of per-artifact modules. Each module exports its row types and
//! experiment functions (re-exported here, so `experiments::figure6`
//! and friends keep their historical paths) and registers one
//! [`crate::registry::ExperimentSpec`] with the experiment registry —
//! the bench binaries, the `all_figures` driver, the docs table, and
//! the completeness test all enumerate [`crate::registry::all`] instead
//! of naming modules.
//!
//! The default parameters are sized to run in seconds-to-minutes — pass
//! larger [`EvalConfig`] values to approach the paper's full 1,024-node
//! × 10,000-packet setup.

use serde::{Deserialize, Serialize};

use crate::sweep::Sweep;

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
pub(crate) mod perf;
pub(crate) mod reliability;
pub(crate) mod saturation;
pub(crate) mod scaling;
pub(crate) mod table5;
pub(crate) mod tables34;
pub(crate) mod topologies;

pub use ablation::{
    backoff_ablation, backoff_ablation_on, wiring_ablation, wiring_ablation_on, BackoffAblation,
    WiringAblation,
};
pub use awgr::{awgr_comparison, AwgrComparison};
pub use buffers::{buffer_sizing, buffer_sizing_on};
pub use chaos::{chaos, chaos_on, ChaosRow};
pub use droptool::{droptool_study, droptool_study_on, DropRow};
pub use faults::{degradation, degradation_lineup_on, degradation_on, DegradationRow};
pub use fig10::{figure10, figure10_on, Fig10Row};
pub use fig5::{figure5, Fig5Waveform};
pub use fig6::{figure6, figure6_lineup_on, figure6_on, Fig6Row};
pub use fig7::{fig7_geomeans, figure7, figure7_on, normalize_fig7, Fig7Row};
pub use fig8::{figure8, figure8_on};
pub use fig9::{figure9, figure9_on, Fig9Row};
pub use overload::{overload, overload_network, overload_on, storm_pattern, OverloadRow};
pub use perf::{
    bench_report, install_memory_probe, install_wall_clock, ops_report, override_samples,
    peak_rss_bytes, wall_clock_installed, wall_now_ns, BenchRecord, BenchReport, Counters,
    OpsReport, OpsRow, WallStats, MIN_SAMPLES, SCHEMA as PERF_SCHEMA,
};
pub use reliability::{reliability, reliability_on, ReliabilityReport};
pub use saturation::{saturation, saturation_lineup_on, saturation_on, SaturationRow};
pub use scaling::{scaling_curves, scaling_curves_on, ScalingRow};
pub use table5::{table_v, table_v_on, TableVRow};
pub use topologies::{topology_comparison, topology_comparison_on, TopologyRow};

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

    /// A one-shot uncached [`Sweep`] honoring `self.threads` (0 resolves
    /// through `BALDUR_THREADS`, then the machine's parallelism) — what
    /// the plain experiment wrappers fan out on.
    pub fn sweep(&self) -> Sweep {
        Sweep::new(self.threads)
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::quick()
    }
}

/// Maps `f` over `items` on a thread pool, preserving order.
///
/// Retained as a thin shim over [`baldur_sim::par::par_map`] (the
/// work-stealing pool) for callers that don't need sweep accounting or
/// caching; the experiment functions themselves go through [`Sweep`].
pub fn parallel_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    crate::sim::par::par_map(workers, items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let r = parallel_map(4, (0..100).collect::<Vec<i32>>(), |&x| x * 2);
        assert_eq!(r, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }
}
