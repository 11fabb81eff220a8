//! Transistor-laser (TL) device model, gate-level circuit simulation, and
//! the Baldur 2x2 all-optical switch.
//!
//! This crate is the reproduction of the paper's device and circuit layers
//! (Sec. III and IV): where the authors used Keysight ADS for device
//! characterization and Synopsys HSPICE for switch validation, we use the
//! paper's own gate-level abstraction (Table IV: every TL gate is a 1.93 ps,
//! 0.406 mW restoring logic element) inside an event-driven netlist
//! simulator with inertial gate delays and transport waveguide delays.
//!
//! Contents:
//!
//! * [`device`] — Table III/IV constants and derived figures of merit,
//! * [`netlist`] — wires, gates, waveguide delays, combiners; the circuit
//!   simulation engine (built on `baldur-sim`, one tick = 1 fs),
//! * [`latch`], [`arbiter`], [`detector`] — the switch's sub-circuits,
//! * [`switch`] — the 2x2 switch at any path multiplicity m (Figure 4 is
//!   m = 1; valid-latch chains implement the paper's sequential path
//!   arbitration) and a test harness that injects encoded packets and
//!   decodes the outputs,
//! * [`gate_count`] — the Table V gates/latency model for multiplicity 1–5,
//! * [`reliability`] — the Sec. IV-F timing-jitter error-probability model,
//! * [`vcd`] — waveform export for the Figure 5 reproduction.

pub mod arbiter;
pub mod detector;
pub mod device;
pub mod filter;
pub mod gate_count;
pub mod latch;
pub mod netlist;
pub mod reliability;
pub mod switch;
pub mod vcd;

pub use device::TlGate;
pub use netlist::{CircuitSim, Netlist, WireId};
