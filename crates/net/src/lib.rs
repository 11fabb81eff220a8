//! Packet-level network simulation models for the Baldur reproduction.
//!
//! This crate is the stand-in for the paper's CODES-based evaluation
//! (Sec. V): it simulates, at packet granularity,
//!
//! * [`baldur_net`] — the bufferless all-optical Baldur network: on-the-fly
//!   switching, per-output-port occupancy, sequential multiplicity-path
//!   arbitration, packet drops, ACK/timeout retransmission with binary
//!   exponential backoff, and retransmission-buffer accounting,
//! * [`router_net`] — the buffered electrical substrate (input-queued VC
//!   routers, credit flow control, 90 ns switch latency) used by the
//!   electrical multi-butterfly, dragonfly (UGAL-style adaptive routing),
//!   and fat-tree (adaptive up-path) baselines,
//! * [`ideal_net`] — the infinite-bandwidth, flat-200 ns reference,
//! * [`traffic`] — the seven synthetic patterns of Sec. V-A,
//! * [`workloads`] — synthetic DUMPI-style traces for the four Design
//!   Forward HPC applications (see DESIGN.md for the substitution note),
//! * [`droptool`] — the paper's "in-house tool": worst-case simultaneous
//!   injection drop-rate analysis at scales up to millions of nodes,
//! * [`diagnosis`] — Sec. IV-F fault isolation via deterministic
//!   test-mode probing,
//! * [`faults`] — deterministic seeded fault injection ([`FaultPlan`]):
//!   switch/link/laser kill-and-revive schedules and jitter-model-derived
//!   bit-error bursts, threaded through both network models for
//!   degradation curves,
//! * [`oracle`] — the always-on runtime invariant oracle (packet
//!   conservation, credit balance, stuck-flow detection) whose structured
//!   violation reports ride on every [`metrics::LatencyReport`],
//! * [`runner`] — one entry point that builds any of the networks, applies
//!   any workload, and returns a [`metrics::LatencyReport`].
//!
//! Each packet model has one run entry point, `simulate`, taking the
//! model's own construction inputs plus a shared [`RunSpec`] (link,
//! seed, horizon, fault plan, oracle tuning). The retired map-based
//! models these replaced are pinned by report fingerprints in
//! `results/golden/soa_fingerprints.json`.

pub mod baldur_net;
pub mod config;
pub mod diagnosis;
pub mod driver;
pub mod droptool;
pub mod faults;
pub mod ideal_net;
pub mod metrics;
pub mod oracle;
pub mod router_net;
pub mod routing;
pub mod runner;
pub mod traffic;
pub mod workloads;

pub use config::LinkParams;
pub use faults::{FaultKind, FaultPlan};
pub use metrics::LatencyReport;
pub use oracle::{OracleReport, OracleSummary};
pub use runner::{run, NetworkKind, RunConfig, Workload};
