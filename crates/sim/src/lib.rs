//! Discrete-event simulation kernel for the Baldur reproduction.
//!
//! This crate is the substrate that replaces the CODES/ROSS toolkit used by
//! the paper for packet-level network simulation, and also drives the
//! gate-level circuit simulator in `baldur-tl`. It provides:
//!
//! * [`Time`] / [`Duration`] — integer picosecond simulated time,
//! * [`Scheduler`] / [`Simulation`] — a deterministic event queue and run
//!   loop generic over the model's event type, backed by a slab-allocated
//!   calendar queue whose bytes track the pending events, plus a FIFO lane
//!   for events a model schedules in time order,
//! * [`Arena`] — generational slab allocation with index [`Handle`]s for
//!   kernel-side object populations (no per-object boxes on hot paths),
//!   [`FifoSet`], intrusive FIFO queues over dense `u32` ids, and
//!   [`BusyTable`], busy-until times as 4-byte offsets from a rolling epoch,
//! * [`rng`] — reproducible, stream-split random number generation,
//! * [`par`] — a thread pool that fans independent runs across workers
//!   while keeping output order (and thus bytes) identical at any worker
//!   count,
//! * [`stats`] — streaming summary statistics and exact percentiles used
//!   for latency reporting.
//!
//! # Example
//!
//! ```
//! use baldur_sim::{Duration, Model, Scheduler, Simulation, Time};
//!
//! struct Counter {
//!     fired: u64,
//! }
//!
//! impl Model for Counter {
//!     type Event = ();
//!     fn handle(&mut self, now: Time, _ev: (), sched: &mut Scheduler<()>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.schedule_in(Duration::from_ns(1), ());
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.scheduler_mut().schedule_at(Time::ZERO, ());
//! sim.run();
//! assert_eq!(sim.model().fired, 10);
//! ```

pub mod arena;
mod calendar;
pub mod engine;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;

pub use arena::{Arena, ArenaStats, BusyTable, FifoSet, Handle};
pub use engine::{Model, Scheduler, Simulation, StopReason};
pub use time::{Duration, Time};
