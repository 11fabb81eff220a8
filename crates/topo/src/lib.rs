//! Network topologies for the Baldur reproduction.
//!
//! Four topologies from the paper's evaluation (Sec. V-A):
//!
//! * [`multibutterfly`] — the randomized multi-stage topology Baldur and the
//!   electrical multi-butterfly baseline share: radix-2 switches with path
//!   multiplicity `m` and random (balanced) connections between sorting
//!   groups, giving the "expansion" property that makes the network immune
//!   to worst-case permutations,
//! * [`dragonfly`] — Kim et al.'s balanced dragonfly (a = 2p = 2h),
//! * [`fattree`] — the 3-level k-ary fat-tree of Al-Fares et al.,
//! * [`omega`] — the Omega (perfect shuffle) network, for the paper's
//!   multi-stage isomorphism claim;
//!   [`staged`] unifies the multi-stage variants behind one interface.
//!
//! The paper's ideal reference network has no topology: it is the packet
//! model `baldur_net::ideal_net`.
//!
//! Electrical topologies also export a port-level [`graph::RouterGraph`]
//! consumed by the buffered-router simulation in `baldur-net`.

pub mod dragonfly;
pub mod fattree;
pub mod graph;
pub mod mask;
pub mod multibutterfly;
pub mod omega;
pub mod staged;

pub use dragonfly::Dragonfly;
pub use fattree::FatTree;
pub use graph::{Endpoint, NodeId, RouterGraph};
pub use mask::EdgeMask;
pub use multibutterfly::MultiButterfly;
pub use omega::Omega;
pub use staged::{Staged, StagedKind};
