//! Gate-level netlists and the event-driven circuit simulator.
//!
//! Components come in two delay flavours, matching their physics:
//!
//! * **Inertial** TL gates (NOT/AND/OR/NAND/NOR): a gate re-evaluates on
//!   every input edge and keeps a single pending output transition; a
//!   re-evaluation that contradicts the pending transition cancels it.
//!   This filters pulses shorter than the gate delay — the discrete
//!   analogue of the 7.3 ps optical rise/fall time — and is what lets
//!   feedback structures (latches, the arbiter) settle instead of
//!   oscillating.
//! * **Transport** passive elements (waveguide delays, optical combiners):
//!   every input edge propagates, delayed; nothing is filtered, so a
//!   multi-gigabit packet survives a 132 ps waveguide delay intact.
//!
//! Time is in femtoseconds: the kernel's [`Time`] tick is reinterpreted as
//! 1 fs here so that the 60 Gbps bit period (16,667 fs) and the 1.93 ps
//! gate delay (1,930 fs) are both exact.
//!
//! Feedback (latches, arbiters) is expressed by creating a wire first and
//! later attaching a gate that drives it via [`Netlist::gate_into`].

use baldur_phy::waveform::{Fs, Waveform};
use baldur_sim::{Model, Scheduler, Simulation, Time};

use crate::device::TlGate;

/// Identifies a wire (an optical waveguide segment) in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(pub u32);

/// Identifies a component in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompId(pub u32);

/// Logic function of an inertial TL gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// One-input inverter.
    Not,
    /// Two-input AND.
    And2,
    /// Two-input OR.
    Or2,
    /// Two-input NAND.
    Nand2,
    /// Two-input NOR.
    Nor2,
}

impl GateKind {
    fn eval(self, a: bool, b: bool) -> bool {
        match self {
            GateKind::Not => !a,
            GateKind::And2 => a && b,
            GateKind::Or2 => a || b,
            GateKind::Nand2 => !(a && b),
            GateKind::Nor2 => !(a || b),
        }
    }
}

#[derive(Debug, Clone)]
enum Component {
    Gate {
        kind: GateKind,
        a: WireId,
        b: Option<WireId>,
        out: WireId,
        delay: Fs,
    },
    /// Transport OR over the inputs: 1 input = waveguide delay, k inputs =
    /// passive combiner.
    Transport {
        inputs: Vec<WireId>,
        out: WireId,
        delay: Fs,
    },
}

/// A circuit under construction.
///
/// Optical splitters need no explicit component: a wire may fan out to any
/// number of component inputs (signal restoration is a TL gate property, so
/// fanout limits are a layout concern the gate-count model accounts for
/// separately).
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    initial: Vec<bool>,
    names: Vec<Option<String>>,
    comps: Vec<Component>,
    driven: Vec<bool>,
    gate_delay: Fs,
    tl_gate_count: u32,
}

impl Netlist {
    /// An empty netlist using the paper's Table IV gate delay.
    pub fn new() -> Self {
        Netlist {
            initial: Vec::new(),
            names: Vec::new(),
            comps: Vec::new(),
            driven: Vec::new(),
            gate_delay: TlGate::PAPER.delay_fs(),
            tl_gate_count: 0,
        }
    }

    /// The default gate delay in femtoseconds.
    pub fn gate_delay(&self) -> Fs {
        self.gate_delay
    }

    /// Number of TL gates instantiated so far (for Table V cross-checks).
    pub fn tl_gate_count(&self) -> u32 {
        self.tl_gate_count
    }

    /// Number of wires.
    pub fn wire_count(&self) -> usize {
        self.initial.len()
    }

    /// Creates a dark wire.
    pub fn wire(&mut self) -> WireId {
        self.wire_with(false)
    }

    /// Creates a wire with an explicit initial level (latch complements
    /// start high).
    pub fn wire_with(&mut self, initial: bool) -> WireId {
        let id = WireId(self.initial.len() as u32);
        self.initial.push(initial);
        self.names.push(None);
        self.driven.push(false);
        id
    }

    /// Attaches a display name to a wire (used by probes and VCD export).
    pub fn name_wire(&mut self, wire: WireId, name: &str) {
        self.names[wire.0 as usize] = Some(name.to_string());
    }

    /// The name of a wire, if any.
    pub fn wire_name(&self, wire: WireId) -> Option<&str> {
        self.names[wire.0 as usize].as_deref()
    }

    fn mark_driven(&mut self, out: WireId) {
        let idx = out.0 as usize;
        assert!(!self.driven[idx], "wire {idx} already has a driver");
        self.driven[idx] = true;
    }

    /// Attaches an inertial gate driving the existing wire `out`.
    /// This is how feedback loops (latches, mutexes) are closed.
    ///
    /// # Panics
    ///
    /// Panics if `out` already has a driver, if the delay is zero, or if
    /// the input arity does not match the gate kind.
    pub fn gate_into(
        &mut self,
        kind: GateKind,
        a: WireId,
        b: Option<WireId>,
        out: WireId,
        delay: Fs,
    ) {
        assert!(delay > 0, "gate delay must be positive");
        assert_eq!(
            matches!(kind, GateKind::Not),
            b.is_none(),
            "NOT takes one input, others take two"
        );
        self.mark_driven(out);
        self.comps.push(Component::Gate {
            kind,
            a,
            b,
            out,
            delay,
        });
        self.tl_gate_count += 1;
    }

    /// Adds an inertial gate with an explicit delay, returning a fresh
    /// output wire initialized consistently with the inputs' initial
    /// levels.
    pub fn gate_with_delay(
        &mut self,
        kind: GateKind,
        a: WireId,
        b: Option<WireId>,
        delay: Fs,
    ) -> WireId {
        let ia = self.initial[a.0 as usize];
        let ib = b.map(|w| self.initial[w.0 as usize]).unwrap_or(false);
        let out = self.wire_with(kind.eval(ia, ib));
        self.gate_into(kind, a, b, out, delay);
        out
    }

    /// Adds an inertial gate with the default delay.
    pub fn gate(&mut self, kind: GateKind, a: WireId, b: Option<WireId>) -> WireId {
        self.gate_with_delay(kind, a, b, self.gate_delay)
    }

    /// Inverter.
    pub fn not(&mut self, a: WireId) -> WireId {
        self.gate(GateKind::Not, a, None)
    }

    /// Two-input AND.
    pub fn and2(&mut self, a: WireId, b: WireId) -> WireId {
        self.gate(GateKind::And2, a, Some(b))
    }

    /// Two-input OR.
    pub fn or2(&mut self, a: WireId, b: WireId) -> WireId {
        self.gate(GateKind::Or2, a, Some(b))
    }

    /// Two-input NOR.
    pub fn nor2(&mut self, a: WireId, b: WireId) -> WireId {
        self.gate(GateKind::Nor2, a, Some(b))
    }

    /// Passive waveguide delay element (transport semantics).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero.
    pub fn waveguide(&mut self, input: WireId, delay: Fs) -> WireId {
        assert!(delay > 0, "waveguide delay must be positive");
        let init = self.initial[input.0 as usize];
        let out = self.wire_with(init);
        self.mark_driven(out);
        self.comps.push(Component::Transport {
            inputs: vec![input],
            out,
            delay,
        });
        out
    }

    /// Passive optical combiner: transport OR of `inputs` with negligible
    /// (1 fs) delay.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn combiner(&mut self, inputs: &[WireId]) -> WireId {
        assert!(!inputs.is_empty(), "combiner needs inputs");
        let init = inputs.iter().any(|w| self.initial[w.0 as usize]);
        let out = self.wire_with(init);
        self.mark_driven(out);
        self.comps.push(Component::Transport {
            inputs: inputs.to_vec(),
            out,
            delay: 1,
        });
        out
    }

    fn fanout(&self) -> Vec<Vec<CompId>> {
        let mut fanout = vec![Vec::new(); self.initial.len()];
        for (i, comp) in self.comps.iter().enumerate() {
            let id = CompId(i as u32);
            match comp {
                Component::Gate { a, b, .. } => {
                    fanout[a.0 as usize].push(id);
                    if let Some(b) = b {
                        if b != a {
                            fanout[b.0 as usize].push(id);
                        }
                    }
                }
                Component::Transport { inputs, .. } => {
                    let mut seen: Vec<WireId> = Vec::new();
                    for &w in inputs {
                        if !seen.contains(&w) {
                            seen.push(w);
                            fanout[w.0 as usize].push(id);
                        }
                    }
                }
            }
        }
        fanout
    }
}

/// Events inside a running circuit.
#[derive(Debug, Clone, Copy)]
pub enum CircuitEvent {
    /// A transport element or external source drives a wire.
    Drive {
        /// The wire being driven.
        wire: WireId,
        /// The new logic level.
        value: bool,
    },
    /// An inertial gate's pending transition fires (if still current).
    GateFire {
        /// The gate whose output transitions.
        comp: CompId,
        /// Sequence number guarding against superseded transitions.
        seq: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    value: bool,
    seq: u64,
}

// ---------------------------------------------------------------------------
// Compiled event loop.
//
// The gate-level loop is one of the repo's hottest paths (every packet
// waveform through a switch is thousands of Drive/GateFire events), and
// the original model paid for three pointer chases per event: a nested
// `Vec<Vec<CompId>>` fanout, a `Vec<Component>` whose Transport arms each
// own a heap-allocated input list, and a `BTreeMap` probe lookup on every
// wire change. `compile` flattens all of that once per run into
// contiguous arrays — CSR fanout, `Copy` component records with transport
// inputs concatenated into one slice, and an O(1) probe-slot vector.
// The event *sequence* is bit-identical to the original model (same
// touch order, same pending seq allocation, same scheduler calls): two
// runs of it are pinned by SHA-256 fingerprints in
// `results/golden/reference_fingerprints.json` (see `tests/properties.rs`).

/// A component flattened for the hot loop. Wire ids are raw indices;
/// `u32::MAX` marks an absent gate input b. Transport inputs live in
/// [`CircuitModel::tr_inputs`] at `lo..hi`.
#[derive(Debug, Clone, Copy)]
enum CompiledComp {
    Gate {
        kind: GateKind,
        a: u32,
        b: u32,
        out: u32,
        delay: Fs,
    },
    Transport {
        lo: u32,
        hi: u32,
        out: u32,
        delay: Fs,
    },
}

impl CompiledComp {
    fn out(self) -> WireId {
        match self {
            CompiledComp::Gate { out, .. } | CompiledComp::Transport { out, .. } => WireId(out),
        }
    }
}

struct CircuitModel {
    comps: Vec<CompiledComp>,
    /// Concatenated transport input wires (CSR payload for `Transport`).
    tr_inputs: Vec<u32>,
    /// CSR fanout: wire `w` touches `fanout_dat[fanout_off[w]..fanout_off[w+1]]`.
    fanout_off: Vec<u32>,
    fanout_dat: Vec<u32>,
    values: Vec<bool>,
    pending: Vec<Option<Pending>>,
    next_seq: u64,
    /// Per-wire probe slot (`u32::MAX` = unprobed), replacing a per-event
    /// `BTreeMap` lookup with an indexed load.
    probe_slot: Vec<u32>,
    /// Traces indexed by probe slot, in probe insertion order.
    traces: Vec<Vec<(Fs, bool)>>,
}

impl CircuitModel {
    fn compile(netlist: &Netlist, probes: &[WireId]) -> Self {
        let nested = netlist.fanout();
        let mut fanout_off = Vec::with_capacity(nested.len() + 1);
        let mut fanout_dat = Vec::with_capacity(nested.iter().map(Vec::len).sum());
        fanout_off.push(0u32);
        for row in &nested {
            fanout_dat.extend(row.iter().map(|c| c.0));
            fanout_off.push(fanout_dat.len() as u32);
        }

        let mut tr_inputs = Vec::new();
        let comps = netlist
            .comps
            .iter()
            .map(|comp| match comp {
                Component::Gate {
                    kind,
                    a,
                    b,
                    out,
                    delay,
                } => CompiledComp::Gate {
                    kind: *kind,
                    a: a.0,
                    b: b.map_or(u32::MAX, |w| w.0),
                    out: out.0,
                    delay: *delay,
                },
                Component::Transport { inputs, out, delay } => {
                    let lo = tr_inputs.len() as u32;
                    tr_inputs.extend(inputs.iter().map(|w| w.0));
                    CompiledComp::Transport {
                        lo,
                        hi: tr_inputs.len() as u32,
                        out: out.0,
                        delay: *delay,
                    }
                }
            })
            .collect();

        let mut probe_slot = vec![u32::MAX; netlist.initial.len()];
        for (slot, &w) in probes.iter().enumerate() {
            probe_slot[w.0 as usize] = slot as u32;
        }

        CircuitModel {
            comps,
            tr_inputs,
            fanout_off,
            fanout_dat,
            values: netlist.initial.clone(),
            pending: vec![None; netlist.comps.len()],
            next_seq: 0,
            probe_slot,
            traces: vec![Vec::new(); probes.len()],
        }
    }

    fn set_wire(
        &mut self,
        now: Time,
        wire: WireId,
        value: bool,
        sched: &mut Scheduler<CircuitEvent>,
    ) {
        let idx = wire.0 as usize;
        if self.values[idx] == value {
            return;
        }
        self.values[idx] = value;
        let slot = self.probe_slot[idx];
        if slot != u32::MAX {
            self.traces[slot as usize].push((now.as_ps(), value));
        }
        let lo = self.fanout_off[idx] as usize;
        let hi = self.fanout_off[idx + 1] as usize;
        for i in lo..hi {
            let comp = CompId(self.fanout_dat[i]);
            self.touch(now, comp, sched);
        }
    }

    fn touch(&mut self, now: Time, comp: CompId, sched: &mut Scheduler<CircuitEvent>) {
        let c = comp.0 as usize;
        match self.comps[c] {
            CompiledComp::Gate {
                kind,
                a,
                b,
                out,
                delay,
            } => {
                let va = self.values[a as usize];
                let vb = b != u32::MAX && self.values[b as usize];
                let v = kind.eval(va, vb);
                let cur = self.values[out as usize];
                match self.pending[c] {
                    Some(p) if p.value == v => {}
                    Some(_) => {
                        self.pending[c] = None;
                        if v != cur {
                            self.schedule_gate(comp, v, delay, sched);
                        }
                    }
                    None => {
                        if v != cur {
                            self.schedule_gate(comp, v, delay, sched);
                        }
                    }
                }
                let _ = now;
            }
            CompiledComp::Transport { lo, hi, out, delay } => {
                let mut v = false;
                for &w in &self.tr_inputs[lo as usize..hi as usize] {
                    v |= self.values[w as usize];
                }
                sched.schedule_in(
                    baldur_sim::Duration::from_ps(delay),
                    CircuitEvent::Drive {
                        wire: WireId(out),
                        value: v,
                    },
                );
            }
        }
    }

    fn schedule_gate(
        &mut self,
        comp: CompId,
        value: bool,
        delay: Fs,
        sched: &mut Scheduler<CircuitEvent>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending[comp.0 as usize] = Some(Pending { value, seq });
        sched.schedule_in(
            baldur_sim::Duration::from_ps(delay),
            CircuitEvent::GateFire { comp, seq },
        );
    }
}

impl Model for CircuitModel {
    type Event = CircuitEvent;

    fn handle(&mut self, now: Time, event: CircuitEvent, sched: &mut Scheduler<CircuitEvent>) {
        match event {
            CircuitEvent::Drive { wire, value } => self.set_wire(now, wire, value, sched),
            CircuitEvent::GateFire { comp, seq } => {
                let c = comp.0 as usize;
                if let Some(p) = self.pending[c] {
                    if p.seq == seq {
                        self.pending[c] = None;
                        let out = self.comps[c].out();
                        self.set_wire(now, out, p.value, sched);
                    }
                }
            }
        }
    }
}

/// Result of a circuit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All activity ceased at the given instant, before the horizon.
    Settled {
        /// Femtosecond timestamp of the last executed event.
        at: Fs,
    },
    /// Events were still pending at the horizon (oscillation, or a source
    /// scheduled past it).
    ActiveAtHorizon,
}

/// A netlist prepared for (or having completed) simulation.
///
/// The `Debug` representation summarizes size and run state rather than
/// dumping every wire.
pub struct CircuitSim {
    netlist: Option<Netlist>,
    probes: Vec<WireId>,
    staged_drives: Vec<(WireId, Waveform)>,
    sim: Option<Simulation<CircuitModel>>,
}

impl std::fmt::Debug for CircuitSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitSim")
            .field("wires", &self.netlist().wire_count())
            .field("tl_gates", &self.netlist().tl_gate_count())
            .field("ran", &self.sim.is_some())
            .field("events", &self.events_executed())
            .finish()
    }
}

impl CircuitSim {
    /// Prepares `netlist` for simulation.
    pub fn new(netlist: Netlist) -> Self {
        CircuitSim {
            netlist: Some(netlist),
            probes: Vec::new(),
            staged_drives: Vec::new(),
            sim: None,
        }
    }

    /// Records every transition of `wire` for later inspection.
    ///
    /// # Panics
    ///
    /// Panics if called after [`CircuitSim::run`].
    pub fn probe(&mut self, wire: WireId) {
        assert!(self.sim.is_none(), "probes must be added before running");
        if !self.probes.contains(&wire) {
            self.probes.push(wire);
        }
    }

    /// Drives `wire` with an external waveform (a packet arriving on an
    /// input fiber).
    ///
    /// # Panics
    ///
    /// Panics if called after [`CircuitSim::run`].
    pub fn drive(&mut self, wire: WireId, wave: &Waveform) {
        assert!(self.sim.is_none(), "drive before running");
        self.staged_drives.push((wire, wave.clone()));
    }

    /// Runs the circuit until quiescent or until `horizon` femtoseconds.
    ///
    /// Returns [`RunOutcome::ActiveAtHorizon`] if the circuit is still
    /// switching at the horizon — typically an oscillation bug.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self, horizon: Fs) -> RunOutcome {
        assert!(self.sim.is_none(), "run() may only be called once");
        let netlist = self.netlist.as_ref().expect("netlist present");
        let model = CircuitModel::compile(netlist, &self.probes);
        let n = netlist.comps.len();
        let mut sim = Simulation::new(model);
        // Settle phase: evaluate every component once at t = 0 so outputs
        // that were initialized inconsistently (deliberately or not)
        // converge before the first stimulus.
        {
            let (model, sched) = sim.split();
            for i in 0..n {
                model.touch(Time::ZERO, CompId(i as u32), sched);
            }
        }
        for (wire, wave) in &self.staged_drives {
            let sched = sim.scheduler_mut();
            for (i, &t) in wave.transitions().iter().enumerate() {
                sched.schedule_at(
                    Time::from_ps(t),
                    CircuitEvent::Drive {
                        wire: *wire,
                        value: i % 2 == 0,
                    },
                );
            }
        }
        let outcome = match sim.run_until(Time::from_ps(horizon), u64::MAX) {
            baldur_sim::engine::StopReason::Drained => RunOutcome::Settled {
                at: sim.scheduler().now().as_ps(),
            },
            _ => RunOutcome::ActiveAtHorizon,
        };
        self.sim = Some(sim);
        outcome
    }

    fn model(&self) -> &CircuitModel {
        self.sim.as_ref().expect("simulation has not run").model()
    }

    /// The final level of `wire`.
    pub fn level(&self, wire: WireId) -> bool {
        match &self.sim {
            Some(sim) => sim.model().values[wire.0 as usize],
            None => self.netlist.as_ref().expect("netlist present").initial[wire.0 as usize],
        }
    }

    /// Slot-indexed trace of a probed wire.
    fn trace_of(&self, wire: WireId) -> &[(Fs, bool)] {
        let model = self.model();
        let slot = model
            .probe_slot
            .get(wire.0 as usize)
            .copied()
            .unwrap_or(u32::MAX);
        assert!(slot != u32::MAX, "wire was not probed");
        model.traces[slot as usize].as_slice()
    }

    /// The recorded waveform of a probed wire (post-run).
    ///
    /// # Panics
    ///
    /// Panics if `wire` was not probed or the simulation has not run.
    pub fn probed(&self, wire: WireId) -> Waveform {
        let trace = self.trace_of(wire);
        Waveform::from_transitions(trace.iter().map(|&(t, _)| t).collect())
    }

    /// Access to the netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist.as_ref().expect("netlist present")
    }

    /// All probed wires with their traces, for VCD export.
    pub fn probe_iter(&self) -> impl Iterator<Item = (WireId, &[(Fs, bool)])> {
        self.probes.iter().map(move |&w| (w, self.trace_of(w)))
    }

    /// Number of events executed (simulator throughput metric).
    pub fn events_executed(&self) -> u64 {
        self.sim
            .as_ref()
            .map(|s| s.scheduler().events_executed())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverter_chain_settles() {
        let mut n = Netlist::new();
        let a = n.wire();
        let b = n.not(a);
        let c = n.not(b);
        let d = n.not(c);
        let mut sim = CircuitSim::new(n);
        assert!(matches!(sim.run(1_000_000), RunOutcome::Settled { .. }));
        assert!(!sim.level(a));
        assert!(sim.level(b));
        assert!(!sim.level(c));
        assert!(sim.level(d));
    }

    #[test]
    fn and_gate_follows_pulse_with_gate_delay() {
        let mut n = Netlist::new();
        let a = n.wire();
        let en = n.wire_with(true);
        let out = n.and2(a, en);
        let mut sim = CircuitSim::new(n);
        sim.probe(out);
        sim.drive(a, &Waveform::from_pulses([(10_000, 30_000)]));
        assert!(matches!(sim.run(1_000_000), RunOutcome::Settled { .. }));
        assert_eq!(sim.probed(out).transitions(), &[11_930, 31_930]);
    }

    #[test]
    fn inertial_gate_filters_short_glitch() {
        let mut n = Netlist::new();
        let a = n.wire();
        let en = n.wire_with(true);
        let out = n.and2(a, en);
        let mut sim = CircuitSim::new(n);
        sim.probe(out);
        // 500 fs glitch, far below the 1,930 fs gate delay.
        sim.drive(a, &Waveform::from_pulses([(10_000, 10_500)]));
        assert!(matches!(sim.run(1_000_000), RunOutcome::Settled { .. }));
        assert!(sim.probed(out).is_dark(), "glitch should be filtered");
    }

    #[test]
    fn waveguide_is_pure_transport() {
        let mut n = Netlist::new();
        let a = n.wire();
        let out = n.waveguide(a, 132_000); // the switch's 132 ps WD
        let mut sim = CircuitSim::new(n);
        sim.probe(out);
        sim.drive(a, &Waveform::from_pulses([(1_000, 1_600), (2_000, 2_400)]));
        assert!(matches!(sim.run(1_000_000), RunOutcome::Settled { .. }));
        assert_eq!(
            sim.probed(out).transitions(),
            &[133_000, 133_600, 134_000, 134_400]
        );
    }

    #[test]
    fn combiner_is_an_or() {
        let mut n = Netlist::new();
        let a = n.wire();
        let b = n.wire();
        let out = n.combiner(&[a, b]);
        let mut sim = CircuitSim::new(n);
        sim.probe(out);
        sim.drive(a, &Waveform::from_pulses([(1_000, 3_000)]));
        sim.drive(b, &Waveform::from_pulses([(2_000, 5_000)]));
        assert!(matches!(sim.run(1_000_000), RunOutcome::Settled { .. }));
        assert_eq!(sim.probed(out).transitions(), &[1_001, 5_001]);
    }

    #[test]
    fn nor_latch_sets_and_resets() {
        let mut n = Netlist::new();
        let s = n.wire();
        let r = n.wire();
        let q = n.wire_with(false);
        let qb = n.wire_with(true);
        n.gate_into(GateKind::Nor2, r, Some(qb), q, 1_930);
        n.gate_into(GateKind::Nor2, s, Some(q), qb, 1_990);
        let mut sim = CircuitSim::new(n);
        sim.probe(q);
        sim.drive(s, &Waveform::from_pulses([(50_000, 60_000)]));
        sim.drive(r, &Waveform::from_pulses([(150_000, 160_000)]));
        assert!(matches!(sim.run(1_000_000), RunOutcome::Settled { .. }));
        let w = sim.probed(q);
        let trs = w.transitions();
        assert_eq!(trs.len(), 2, "one set and one reset: {trs:?}");
        assert!(trs[0] > 50_000 && trs[0] < 60_000, "{trs:?}");
        assert!(trs[1] > 150_000 && trs[1] < 160_000, "{trs:?}");
    }

    #[test]
    fn settle_phase_fixes_inconsistent_initials() {
        let mut n = Netlist::new();
        let a = n.wire_with(true);
        // Deliberately create the output wire dark, then attach an
        // inverter-of-inverter driving it.
        let inv = n.not(a); // initial computed consistent: false
        assert!(!n.initial[inv.0 as usize]);
        let out = n.wire_with(true); // wrong: NOT(false) = true is right!
        n.gate_into(GateKind::Not, inv, None, out, 1_930);
        let mut sim = CircuitSim::new(n);
        assert!(matches!(sim.run(1_000_000), RunOutcome::Settled { .. }));
        assert!(sim.level(out));
    }

    #[test]
    #[should_panic(expected = "already has a driver")]
    fn double_driver_rejected() {
        let mut n = Netlist::new();
        let a = n.wire();
        let out = n.not(a);
        n.gate_into(GateKind::Not, a, None, out, 1_930);
    }

    #[test]
    fn data_stream_passes_and_gate_intact() {
        // A full 8b/10b payload at T spacing survives a gate (pulse widths
        // >= T = 16,667 fs >> 1,930 fs delay).
        use baldur_phy::eightbtenb::Encoder;
        let mut enc = Encoder::new();
        let bits = enc.encode_bits(b"Baldur!");
        let t = 16_667u64;
        let mut pulses = Vec::new();
        let mut run_start = None;
        for (i, &b) in bits.iter().enumerate() {
            let at = 10_000 + i as u64 * t;
            match (b, run_start) {
                (true, None) => run_start = Some(at),
                (false, Some(s)) => {
                    pulses.push((s, at));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            pulses.push((s, 10_000 + bits.len() as u64 * t));
        }
        let wave = Waveform::from_pulses(pulses);

        let mut n = Netlist::new();
        let a = n.wire();
        let en = n.wire_with(true);
        let out = n.and2(a, en);
        let mut sim = CircuitSim::new(n);
        sim.probe(out);
        sim.drive(a, &wave);
        assert!(matches!(sim.run(10_000_000), RunOutcome::Settled { .. }));
        let got = sim.probed(out);
        let expect = wave.delayed(1_930);
        assert_eq!(got.transitions(), expect.transitions());
    }
}
