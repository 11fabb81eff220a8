//! # Baldur — an all-optical transistor-laser network (HPCA 2020), reproduced in Rust
//!
//! This crate is the public façade of the reproduction: it re-exports the
//! substrate crates and provides [`experiments`] — one function per table
//! and figure of the paper's evaluation, returning structured data that
//! the benchmark harnesses, examples, and integration tests all share.
//!
//! ## The system in one paragraph
//!
//! Baldur routes packets *entirely in the optical domain* using transistor
//! laser (TL) logic gates: a randomized multi-butterfly of 2x2 bufferless
//! switches decodes a length-encoded routing bit per stage on the fly,
//! drops packets on output contention (sources retransmit with binary
//! exponential backoff), and uses path multiplicity m (extra parallel
//! ports per direction) to make drops rare. No buffers, no clock
//! recovery, no O-E/E-O conversions inside the fabric — which is where
//! its latency, power, and scalability advantages come from.
//!
//! ## Quickstart
//!
//! ```
//! use baldur::prelude::*;
//!
//! // Simulate 64 nodes of Baldur under random-permutation traffic at
//! // 30% load, 20 packets per node.
//! let cfg = RunConfig::new(
//!     64,
//!     NetworkKind::Baldur(BaldurParams::paper_for(64)),
//!     Workload::Synthetic {
//!         pattern: Pattern::RandomPermutation,
//!         load: 0.3,
//!         packets_per_node: 20,
//!     },
//! );
//! let report = baldur::run(&cfg);
//! assert!(report.delivery_ratio() > 0.99);
//! println!("avg {:.1} ns, p99 {:.1} ns", report.avg_ns, report.p99_ns);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | discrete-event kernel, RNG streams, statistics |
//! | [`phy`] | 8b/10b, length-based routing code, optical waveforms |
//! | [`tl`] | TL device model, gate-level circuit simulator, the 2x2 switch |
//! | [`topo`] | multi-butterfly, dragonfly, fat-tree, ideal topologies |
//! | [`net`] | packet-level simulation of Baldur + electrical baselines |
//! | [`power`] | power models (Figures 8, 9; AWGR comparison) |
//! | [`cost`] | cost + packaging models (Figure 10, Sec. IV-G) |

pub use baldur_cost as cost;
pub use baldur_net as net;
pub use baldur_phy as phy;
pub use baldur_power as power;
pub use baldur_sim as sim;
pub use baldur_tl as tl;
pub use baldur_topo as topo;

pub mod csv;
pub mod error;
pub mod experiments;
pub mod hash;
pub mod registry;
pub mod sweep;

pub use net::runner::{run, NetworkKind, RunConfig, Workload};

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::net::config::{BaldurParams, LinkParams, RouterParams};
    pub use crate::net::faults::{FaultKind, FaultPlan};
    pub use crate::net::metrics::LatencyReport;
    pub use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
    pub use crate::net::traffic::Pattern;
    pub use crate::net::workloads::{HpcApp, TraceParams};
    pub use crate::power::{NetworkPower, PowerBreakdown};
    pub use crate::sim::{Duration, Time};
    pub use crate::topo::graph::NodeId;
}
