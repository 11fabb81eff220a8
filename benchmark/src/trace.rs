//! The traced run: each cell rebuilt from public parts, with spans around
//! every layer boundary and the event loop split by event kind.
//!
//! The model is wrapped in [`Traced`], an `impl Model` that counts every
//! event by kind and times one event in [`SAMPLE_EVERY`], picked by a fixed
//! hash of the event index (a hash, not `index % 16`, so periodic event
//! patterns cannot alias with the sample). Each kind's handler time is its
//! sampled mean, less the cost of reading the clock, times its exact count.
//! Timing every event instead made the traced `contend_1k` run 46% slower
//! than the untraced one, against 9% at one in 16.
//!
//! The engine's private oracle cadence (`run_until_observed` with the
//! oracle tick) is not reachable from outside, so the traced loop runs
//! `run_until` without it; `trace.overhead_frac` absorbs the difference.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use baldur::net::baldur_net::{self, BaldurNet};
use baldur::net::ideal_net;
use baldur::net::metrics::LatencyReport;
use baldur::net::router_net::{self, RouterNet};
use baldur::sim::{Model, Scheduler, Simulation, Time};
use serde::{Deserialize, Serialize};

use crate::cell::{build, Built, Ready};
use crate::gate::Projection;
use crate::workloads::Cell;

/// One event in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Kind names of the Baldur model's events, in [`Kinds::kind`] order.
pub const BALDUR_KINDS: [&str; 7] = [
    "wake",
    "try_inject",
    "hop",
    "arrive",
    "timeout",
    "ack_flush",
    "fault",
];

/// Kind names of the electrical model's events, in [`Kinds::kind`] order.
pub const ROUTER_KINDS: [&str; 7] = [
    "wake", "nic_try", "arrive", "arb", "credit", "deliver", "fault",
];

/// A model whose events the trace can classify.
pub trait Kinds: Model {
    /// Metric prefix (`baldur`, `router`).
    const LAYER: &'static str;
    /// Kind names, indexed by [`Kinds::kind`].
    const NAMES: [&'static str; 7];
    /// The kind index of `ev`.
    fn kind(ev: &Self::Event) -> usize;
    /// The driver wakeup event for `node`.
    fn wake(node: u32) -> Self::Event;
    /// Model state bytes, where the model counts them.
    fn state_bytes(&self) -> Option<u64>;
    /// The model's report at simulated time `end`.
    fn finish(self, end: Time) -> LatencyReport;
}

impl Kinds for BaldurNet {
    const LAYER: &'static str = "baldur";
    const NAMES: [&'static str; 7] = BALDUR_KINDS;

    fn kind(ev: &baldur_net::Ev) -> usize {
        match ev {
            baldur_net::Ev::Wake(_) => 0,
            baldur_net::Ev::TryInject(_) => 1,
            baldur_net::Ev::Hop { .. } => 2,
            baldur_net::Ev::Arrive { .. } => 3,
            baldur_net::Ev::Timeout { .. } => 4,
            baldur_net::Ev::AckFlush { .. } => 5,
            baldur_net::Ev::Fault(_) => 6,
        }
    }

    fn wake(node: u32) -> baldur_net::Ev {
        baldur_net::Ev::Wake(node)
    }

    fn state_bytes(&self) -> Option<u64> {
        Some(self.state_stats().state_bytes)
    }

    fn finish(self, end: Time) -> LatencyReport {
        self.into_report(end)
    }
}

impl Kinds for RouterNet {
    const LAYER: &'static str = "router";
    const NAMES: [&'static str; 7] = ROUTER_KINDS;

    fn kind(ev: &router_net::Ev) -> usize {
        match ev {
            router_net::Ev::Wake(_) => 0,
            router_net::Ev::NicTry(_) => 1,
            router_net::Ev::Arrive { .. } => 2,
            router_net::Ev::Arb(_) => 3,
            router_net::Ev::Credit { .. } => 4,
            router_net::Ev::Deliver { .. } => 5,
            router_net::Ev::Fault(_) => 6,
        }
    }

    fn wake(node: u32) -> router_net::Ev {
        router_net::Ev::Wake(node)
    }

    fn state_bytes(&self) -> Option<u64> {
        None
    }

    fn finish(self, end: Time) -> LatencyReport {
        self.into_report(end)
    }
}

/// Whether event number `index` is timed: a fixed mix of the index
/// (SplitMix64's finalizer) selects one in [`SAMPLE_EVERY`].
pub fn sampled(index: u64) -> bool {
    let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(SAMPLE_EVERY)
}

/// Mean host nanoseconds one `Instant::now()` adds to a timed interval.
pub fn clock_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Per-kind event counts and sampled handler time.
#[derive(Debug, Clone, Copy, Default)]
struct KindStats {
    count: [u64; 7],
    timed: [u64; 7],
    timed_ns: [f64; 7],
}

/// A model wrapper that counts events by kind and times a sample of them.
struct Traced<M> {
    inner: M,
    index: u64,
    clock_ns: f64,
    stats: KindStats,
}

impl<M: Kinds> Model for Traced<M> {
    type Event = M::Event;

    fn handle(&mut self, now: Time, ev: M::Event, sched: &mut Scheduler<M::Event>) {
        let k = M::kind(&ev);
        self.stats.count[k] += 1;
        let index = self.index;
        self.index += 1;
        if sampled(index) {
            let t = Instant::now();
            self.inner.handle(now, ev, sched);
            self.stats.timed_ns[k] += t.elapsed().as_nanos() as f64 - self.clock_ns;
            self.stats.timed[k] += 1;
        } else {
            self.inner.handle(now, ev, sched);
        }
    }
}

/// One recorded span: a cell, or a layer step inside one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Span id (index in the span list).
    pub id: usize,
    /// The enclosing cell span (`None` for a cell span).
    pub parent: Option<usize>,
    /// `cell`, `setup.driver`, `setup.topo`, `setup.model`, `sim.loop`,
    /// `ideal.simulate` or `report`.
    pub name: String,
    /// The cell id all spans of one cell share.
    pub cell: String,
    /// Host seconds since the traced run started.
    pub start_s: f64,
    /// Host seconds since the traced run started.
    pub end_s: f64,
}

/// What the traced child reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceOutput {
    /// Per-layer metrics the traced run measures itself.
    pub metrics: BTreeMap<String, f64>,
    /// Per cell: id and projection of the traced rebuild.
    pub projections: Vec<(String, Projection)>,
    /// Host seconds of the traced cells, comparable to the untraced
    /// `run_s` (Baldur's separately timed topology build left out).
    pub traced_s: f64,
    /// Every span, in the order they closed.
    pub spans: Vec<Span>,
}

/// Spans and per-layer totals of one traced run.
struct Tracer {
    origin: Instant,
    clock_ns: f64,
    spans: Vec<Span>,
    metrics: BTreeMap<String, f64>,
}

impl Tracer {
    /// Records a span (its parent is filled in when its cell closes) and
    /// returns its length in seconds.
    fn record(&mut self, name: &str, cell: &str, start: Instant, end: Instant) -> f64 {
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            id: self.spans.len(),
            parent: None,
            name: name.to_string(),
            cell: cell.to_string(),
            start_s: at(start),
            end_s: at(end),
        });
        end.duration_since(start).as_secs_f64()
    }

    fn add(&mut self, name: &str, v: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Rebuilds and runs one cell; returns its report and its traced
    /// seconds, less Baldur's separately timed topology copy.
    fn cell(&mut self, cell: &Cell) -> (LatencyReport, f64) {
        let start = Instant::now();
        let first = self.spans.len();
        let mut laps = Vec::new();
        let built = build(&cell.cfg, true, &mut |step, t| {
            laps.push((step, t, Instant::now()))
        });
        let mut topo_s = 0.0;
        for (step, t0, t1) in laps {
            let secs = self.record(step, &cell.id, t0, t1);
            match step {
                "setup.driver" => self.add("driver.build_s", secs),
                "setup.topo" => topo_s = secs,
                _ => self.add("net.model_new_s", secs),
            }
        }
        self.add("topo.build_s", topo_s);
        let mut copy_s = 0.0;
        let report = match built {
            Built::Baldur(ready) => {
                // BaldurNet::new builds its own topology, which cannot be
                // timed apart from outside; the separately timed copy above
                // is left out of the traced cell time.
                copy_s = topo_s;
                self.run_loop(ready, cell)
            }
            Built::Router(ready) => self.run_loop(ready, cell),
            Built::Ideal(driver) => {
                let t = Instant::now();
                let report = ideal_net::simulate(driver, None);
                self.record("ideal.simulate", &cell.id, t, Instant::now());
                report
            }
        };
        let id = self.spans.len();
        for s in &mut self.spans[first..] {
            s.parent = Some(id);
        }
        let cell_s = self.record("cell", &cell.id, start, Instant::now());
        (report, cell_s - copy_s)
    }

    /// Runs one model's event loop under [`Traced`].
    fn run_loop<M: Kinds>(&mut self, ready: Ready<M>, cell: &Cell) -> LatencyReport {
        let Ready {
            model,
            initial,
            horizon,
        } = ready;
        let mut sim = Simulation::new(Traced {
            inner: model,
            index: 0,
            clock_ns: self.clock_ns,
            stats: KindStats::default(),
        });
        for (node, t) in initial {
            sim.scheduler_mut()
                .schedule_at(Time::from_ps(t), M::wake(node));
        }
        let t = Instant::now();
        sim.run_until(horizon, u64::MAX);
        let loop_s = self.record("sim.loop", &cell.id, t, Instant::now());
        let sched = sim.scheduler();
        let (end, events) = (sched.now(), sched.events_executed());
        self.add("sim.events", events as f64);
        self.add("sim.events_scheduled", sched.events_scheduled() as f64);
        let peak = self.metrics.entry("sim.peak_pending".into()).or_insert(0.0);
        *peak = peak.max(sched.peak_pending() as f64);
        self.add("sim.calendar", f64::from(u8::from(sched.calendar_backed())));
        self.add("sim.loop_s", loop_s);
        let traced = sim.into_model();
        let s = traced.stats;
        let mut handlers_s = 0.0;
        for (k, name) in M::NAMES.iter().enumerate() {
            let self_s = if s.timed[k] == 0 {
                0.0
            } else {
                s.timed_ns[k] / s.timed[k] as f64 * s.count[k] as f64 * 1e-9
            };
            handlers_s += self_s;
            self.add(&format!("{}.{name}.count", M::LAYER), s.count[k] as f64);
            self.add(&format!("{}.{name}.self_s", M::LAYER), self_s);
        }
        self.add("sim.sched_s", loop_s - handlers_s);
        // The cell with the most counted state sets the state metrics.
        if let Some(bytes) = traced.inner.state_bytes().map(|b| b as f64) {
            if bytes > self.metrics.get("net.state_bytes").copied().unwrap_or(0.0) {
                self.metrics.insert("net.state_bytes".into(), bytes);
                let per_endpoint = bytes / f64::from(cell.cfg.nodes);
                self.metrics
                    .insert("net.bytes_per_endpoint".into(), per_endpoint);
            }
        }
        let t = Instant::now();
        let mut report = traced.inner.finish(end);
        let report_s = self.record("report", &cell.id, t, Instant::now());
        self.add("net.report_s", report_s);
        report.events = events;
        report
    }
}

/// Runs every cell traced, in order.
pub fn run_traced(cells: &[Cell]) -> TraceOutput {
    let mut tracer = Tracer {
        origin: Instant::now(),
        clock_ns: clock_cost_ns(),
        spans: Vec::new(),
        metrics: BTreeMap::new(),
    };
    let mut out = TraceOutput::default();
    for cell in cells {
        let (report, traced_s) = tracer.cell(cell);
        out.traced_s += traced_s;
        out.projections
            .push((cell.id.clone(), Projection::of(&report)));
    }
    out.metrics = tracer.metrics;
    out.spans = tracer.spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{cells, DEFAULT_SEED};

    #[test]
    fn sampling_picks_about_one_event_in_sixteen() {
        let picked = (0..160_000u64).filter(|&i| sampled(i)).count();
        assert!((9_000..11_000).contains(&picked), "{picked}");
        // Not a stride: consecutive indices are not all in the same class.
        assert!((0..64u64).any(|i| sampled(i) != sampled(i + SAMPLE_EVERY)));
    }

    #[test]
    fn traced_rebuild_reproduces_baldur_run_on_every_network() {
        // The smoke paper slice covers baldur, electrical_mb, dragonfly,
        // fattree and ideal; the storm slice adds the overload controls.
        let mut all = cells("paper_1k", DEFAULT_SEED, true).expect("known workload");
        all.extend(cells("storm_1k", 7, true).expect("known workload"));
        let traced = run_traced(&all);
        assert_eq!(traced.projections.len(), all.len());
        for (cell, (id, p)) in all.iter().zip(&traced.projections) {
            assert_eq!(&cell.id, id);
            assert_eq!(*p, Projection::of(&baldur::run(&cell.cfg)), "{id}");
        }
        for net in ["baldur", "electrical_mb", "dragonfly", "fattree", "ideal"] {
            assert!(all.iter().any(|c| c.network == net), "{net} not covered");
        }
    }

    #[test]
    fn every_event_is_counted_and_spans_nest_in_their_cell() {
        let all = cells("contend_1k", DEFAULT_SEED, true).expect("known workload");
        let traced = run_traced(&all);
        let kinds: f64 = BALDUR_KINDS
            .iter()
            .map(|k| traced.metrics[&format!("baldur.{k}.count")])
            .sum();
        assert_eq!(kinds, traced.metrics["sim.events"]);
        assert_eq!(kinds, traced.projections[0].1.events as f64);
        let cell = traced.spans.last().expect("a cell span");
        assert_eq!((cell.name.as_str(), cell.parent), ("cell", None));
        for s in &traced.spans[..traced.spans.len() - 1] {
            assert_eq!(s.parent, Some(cell.id), "{}", s.name);
            assert!(
                s.start_s >= cell.start_s && s.end_s <= cell.end_s,
                "{}",
                s.name
            );
        }
    }
}
