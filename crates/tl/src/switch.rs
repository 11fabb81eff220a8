//! The all-optical 2x2 TL switch with path multiplicity m: Fig. 4(a) is
//! m = 1, and Sec. IV-E / Table V generalise it to m paths.
//!
//! A multiplicity-m switch has `2m` input ports, m per side (each fed by a
//! different upstream switch), and `2m` output ports, m per direction.
//! Input `side * m + k` and output `dir * m + path` index them. Composition:
//!
//! * **Switch fabric** — per input: a mask-off AND (kills the first routing
//!   bit), a 132 ps waveguide delay (hides arbitration latency), and per
//!   input×output an AND gated by the grant; per output a passive combiner.
//! * **Header processing unit** — per input: a line activity detector,
//!   a chain of m valid latches, a mask-off latch (set 2.3T after packet
//!   start, reset at packet end), and a routing latch capturing the first
//!   bit by length; plus one arbiter per output port, a mutual-exclusion
//!   element over all 2m inputs.
//!
//! Path arbitration is sequential, as the paper describes: valid latch `j`
//! requests path `j` of the packet's direction. A packet that loses that
//! port to another input gets a loss pulse, which clears latch `j` and sets
//! latch `j + 1`, handing the request to the next path. Losing the last path
//! drops the packet — at m = 1 every loss is a drop, Fig. 4's congestion
//! behaviour — and the sender must retransmit (handled at the network layer
//! in `baldur-net`).
//!
//! The generator builds in Fig. 4's order (input slices, one arbiter per
//! output, loss pulses, then each input's fabric ANDs and one combiner per
//! output), so the m = 1 netlist is the Fig. 4 circuit wire for wire.

use baldur_phy::length_code::LengthCode;
use baldur_phy::packet_wave::{assemble, PacketWave};
use baldur_phy::waveform::{Fs, Waveform, BIT_PERIOD_FS};

use crate::arbiter::mutex2;
use crate::detector::{line_activity_detector, DetectorParams};
use crate::latch::sr_latch;
use crate::netlist::{CircuitSim, GateKind, Netlist, RunOutcome, WireId};

/// Switch geometry, in femtoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchParams {
    /// Line activity detector geometry.
    pub detector: DetectorParams,
    /// Fabric waveguide delay WD0/WD1 (paper: 132 ps).
    pub fabric_delay: Fs,
    /// Delay from packet start to setting the mask-off latch (paper: 2.5T
    /// for both latches; we use 2.3T so the latch output settles by 2.5T
    /// after our gate delays).
    pub mask_set_delay: Fs,
    /// Delay from packet start to setting the valid latch. Must fall after
    /// the routing latch (and its complement) are stable — otherwise a
    /// spurious request on the wrong output port fires during the sliver
    /// between valid rising and the route complement falling — and before
    /// the second routing bit's sampling window, so the sample-enable gate
    /// closes in time.
    pub valid_set_delay: Fs,
    /// Extra delay on the end-of-packet reset path so grants outlive the
    /// fabric-delayed packet tail.
    pub reset_delay: Fs,
}

impl SwitchParams {
    /// The paper's switch at 60 Gbps.
    pub fn paper() -> Self {
        let t = BIT_PERIOD_FS;
        SwitchParams {
            detector: DetectorParams::paper(),
            fabric_delay: 132_000,
            mask_set_delay: 23 * t / 10,
            valid_set_delay: 33 * t / 10,
            reset_delay: 30_000,
        }
    }
}

impl Default for SwitchParams {
    fn default() -> Self {
        SwitchParams::paper()
    }
}

/// Observable wires of one input's header-processing slice.
#[derive(Debug, Clone)]
pub struct InputTaps {
    /// Packet envelope from the line activity detector.
    pub envelope: WireId,
    /// Valid latch outputs: `valid[j]` requests path `j`.
    pub valid: Vec<WireId>,
    /// Mask-off latch output.
    pub mask: WireId,
    /// Routing latch output (high = first bit was "0" = direction 0).
    pub route: WireId,
    /// Request wires, one per output port.
    pub req: Vec<WireId>,
}

/// Handles to a built switch.
#[derive(Debug, Clone)]
pub struct Switch {
    /// Optical inputs, `side * m + k`.
    pub inputs: Vec<WireId>,
    /// Optical outputs, `dir * m + path`.
    pub outputs: Vec<WireId>,
    /// Grant wires: `grants[i][o]` = input `i` granted output `o`.
    pub grants: Vec<Vec<WireId>>,
    /// Per-input observability taps.
    pub taps: Vec<InputTaps>,
}

/// An n-way mutual-exclusion element: a tournament of [`mutex2`] pairs.
/// Returns one grant wire per requester; at most one is high at any
/// instant.
fn mutex_tree(n: &mut Netlist, reqs: &[WireId]) -> Vec<WireId> {
    match *reqs {
        // A single requester wins whenever it asks (buffered through two
        // inverters to keep grant timing comparable).
        [only] => {
            let a = n.not(only);
            vec![n.not(a)]
        }
        [a, b] => {
            let m = mutex2(n, a, b);
            vec![m.grant0, m.grant1]
        }
        _ => {
            let (left, right) = reqs.split_at(reqs.len().div_ceil(2));
            let left = mutex_tree(n, left);
            let left_any = or_chain(n, &left);
            let right = mutex_tree(n, right);
            let right_any = or_chain(n, &right);
            let fin = mutex2(n, left_any, right_any);
            let mut grants: Vec<WireId> = left.iter().map(|&g| n.and2(g, fin.grant0)).collect();
            grants.extend(right.iter().map(|&g| n.and2(g, fin.grant1)));
            grants
        }
    }
}

/// The OR of `wires` (at least one), chained left to right.
fn or_chain(n: &mut Netlist, wires: &[WireId]) -> WireId {
    wires[1..].iter().fold(wires[0], |acc, &w| n.or2(acc, w))
}

/// One input's slice while the switch is being built.
struct Slice {
    taps: InputTaps,
    /// Delayed end-of-packet pulse (resets the latches).
    end_d: WireId,
    /// Set wire of each valid latch; all but the first are driven by the
    /// previous path's loss pulse.
    sets: Vec<WireId>,
    /// Reset wire of each valid latch, driven by end-of-packet OR loss.
    resets: Vec<WireId>,
    /// The masked packet after the fabric waveguide.
    delayed: WireId,
}

/// Builds the multiplicity-`m` switch into `n`, returning its handles.
///
/// Wire names keep Fig. 4's at m = 1 (`in0`, `valid0`, `grant00`, `out0`,
/// …): inputs, outputs and grants carry their flat indices, and valid
/// latch `j > 0` of input `i` is `valid{i}_{j}`. A grant's two indices
/// run together, so from m = 6 on two grants can share a name.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn build_switch(n: &mut Netlist, p: SwitchParams, m: usize) -> Switch {
    assert!(m >= 1, "multiplicity must be at least 1");
    let ports = 2 * m;
    let inputs: Vec<WireId> = (0..ports).map(|_| n.wire()).collect();

    let mut slices = Vec::with_capacity(ports);
    for (i, &input) in inputs.iter().enumerate() {
        let det = line_activity_detector(n, input, p.detector);
        let end_d = n.waveguide(det.end_pulse, p.reset_delay);

        // Valid chain; the loss pulses that drive the resets (and the sets
        // past the first) are attached once the arbiters exist.
        let valid_set = n.waveguide(det.start_pulse, p.valid_set_delay);
        let mut sets = vec![valid_set];
        let mut resets = Vec::with_capacity(m);
        let mut valid = Vec::with_capacity(m);
        for j in 0..m {
            if j > 0 {
                sets.push(n.wire());
            }
            resets.push(n.wire());
            valid.push(sr_latch(n, sets[j], resets[j]).q);
        }

        // Mask-off latch (set earlier than valid: it only needs to open
        // before the second routing bit arrives).
        let mask_set = n.waveguide(det.start_pulse, p.mask_set_delay);
        let mask = sr_latch(n, mask_set, end_d);

        // Routing latch: sample the data-path-delayed input in the window
        // after the first falling edge, until the header has been read.
        // With one valid latch, "not valid" closes that window: a loss
        // drops the packet. In a chain a loss hands the request to the
        // next path, so a pre-valid latch that only the packet's end
        // resets keeps the window closed.
        let s_pre = n.and2(det.fall_window, det.data_delayed);
        let header_unread = if m == 1 {
            n.not(valid[0])
        } else {
            sr_latch(n, valid_set, end_d).qb
        };
        let s_route = n.and2(s_pre, header_unread);
        let route = sr_latch(n, s_route, end_d);

        // Fabric front half: mask off the first routing bit, then delay.
        let masked = n.and2(input, mask.q);
        let delayed = n.waveguide(masked, p.fabric_delay);

        // Requests toward output `dir * m + j`: valid latch j AND the
        // direction the routing latch selected.
        let mut req: Vec<WireId> = valid.iter().map(|&v| n.and2(v, route.q)).collect();
        let route_n = n.not(route.q);
        req.extend(valid.iter().map(|&v| n.and2(v, route_n)));

        n.name_wire(input, &format!("in{i}"));
        for (j, &v) in valid.iter().enumerate() {
            let name = match j {
                0 => format!("valid{i}"),
                _ => format!("valid{i}_{j}"),
            };
            n.name_wire(v, &name);
        }
        n.name_wire(mask.q, &format!("mask{i}"));
        n.name_wire(route.q, &format!("route{i}"));
        n.name_wire(det.envelope, &format!("env{i}"));

        slices.push(Slice {
            taps: InputTaps {
                envelope: det.envelope,
                valid,
                mask: mask.q,
                route: route.q,
                req,
            },
            end_d,
            sets,
            resets,
            delayed,
        });
    }

    // Arbiters: one mutual-exclusion element per output port.
    let mut grants = vec![Vec::new(); ports];
    for o in 0..ports {
        let reqs: Vec<WireId> = slices.iter().map(|s| s.taps.req[o]).collect();
        for (i, g) in mutex_tree(n, &reqs).into_iter().enumerate() {
            n.name_wire(g, &format!("grant{i}{o}"));
            grants[i].push(g);
        }
    }

    // Loss pulses close the valid chains: input i loses path j when it
    // requests output (dir, j) while another input holds that port.
    let delay = n.gate_delay();
    for (i, s) in slices.iter().enumerate() {
        for j in 0..m {
            let [lost0, lost1] = [j, m + j].map(|o| {
                let held: Vec<WireId> = (0..ports)
                    .filter(|&x| x != i)
                    .map(|x| grants[x][o])
                    .collect();
                let held = or_chain(n, &held);
                n.and2(s.taps.req[o], held)
            });
            let lost = n.or2(lost0, lost1);
            n.gate_into(GateKind::Or2, s.end_d, Some(lost), s.resets[j], delay);
            if j + 1 < m {
                n.gate_into(GateKind::Or2, lost, Some(lost), s.sets[j + 1], delay);
            }
        }
    }

    // Fabric back half.
    let legs: Vec<Vec<WireId>> = slices
        .iter()
        .zip(&grants)
        .map(|(s, row)| row.iter().map(|&g| n.and2(s.delayed, g)).collect())
        .collect();
    let outputs = (0..ports)
        .map(|o| {
            let column: Vec<WireId> = legs.iter().map(|row| row[o]).collect();
            let out = n.combiner(&column);
            n.name_wire(out, &format!("out{o}"));
            out
        })
        .collect();

    Switch {
        inputs,
        outputs,
        grants,
        taps: slices.into_iter().map(|s| s.taps).collect(),
    }
}

/// A packet to inject in a harness run.
#[derive(Debug, Clone)]
pub struct Injection {
    /// Which switch input, `side * m + k`.
    pub input: usize,
    /// Arrival instant of the first light, in femtoseconds.
    pub start: Fs,
    /// Routing bits; the first selects this switch's output direction.
    pub routing_bits: Vec<bool>,
    /// Payload bytes (8b/10b coded on the wire).
    pub payload: Vec<u8>,
}

/// Result of a harness run.
#[derive(Debug)]
pub struct HarnessResult {
    /// Path multiplicity of the switch.
    pub multiplicity: usize,
    /// Waveforms observed at the outputs, `dir * m + path`.
    pub outputs: Vec<Waveform>,
    /// The assembled input waves, in injection order.
    pub injected: Vec<PacketWave>,
}

impl HarnessResult {
    /// Paths of direction `dir` whose output carried any light.
    pub fn lit_ports(&self, dir: usize) -> Vec<usize> {
        let m = self.multiplicity;
        (0..m)
            .filter(|&j| !self.outputs[dir * m + j].is_dark())
            .collect()
    }

    /// Count of packets that exited on direction `dir` (each lit port
    /// carries at most one packet in the test scenarios).
    pub fn delivered(&self, dir: usize) -> usize {
        self.lit_ports(dir).len()
    }
}

/// Fixed delay from switch input to output for a granted packet:
/// mask AND + fabric waveguide + output AND + combiner.
pub fn fabric_latency(p: &SwitchParams, gate_delay: Fs) -> Fs {
    gate_delay + p.fabric_delay + gate_delay + 1
}

/// Builds a multiplicity-`m` switch, injects `packets`, runs to
/// quiescence, and returns the observed outputs.
///
/// # Panics
///
/// Panics if the circuit fails to settle (oscillation) or an injection is
/// malformed.
pub fn run_switch(p: SwitchParams, m: usize, packets: &[Injection]) -> HarnessResult {
    let code = LengthCode::paper();
    let mut n = Netlist::new();
    let sw = build_switch(&mut n, p, m);
    let mut sim = CircuitSim::new(n);
    for &out in &sw.outputs {
        sim.probe(out);
    }
    let mut horizon = 0;
    let mut injected = Vec::with_capacity(packets.len());
    // Merge multiple packets per input into a single waveform.
    let mut per_input: Vec<Vec<Fs>> = vec![Vec::new(); sw.inputs.len()];
    for inj in packets {
        assert!(inj.input < sw.inputs.len(), "switch has {} inputs", 2 * m);
        let pw = assemble(&code, &inj.routing_bits, &inj.payload, inj.start);
        horizon = horizon.max(pw.end);
        per_input[inj.input].extend_from_slice(pw.wave.transitions());
        injected.push(pw);
    }
    for (&input, mut transitions) in sw.inputs.iter().zip(per_input) {
        if transitions.is_empty() {
            continue;
        }
        transitions.sort_unstable();
        sim.drive(input, &Waveform::from_transitions(transitions));
    }
    let outcome = sim.run(horizon + 3_000_000);
    assert!(
        matches!(outcome, RunOutcome::Settled { .. }),
        "m={m} switch failed to settle"
    );
    HarnessResult {
        multiplicity: m,
        outputs: sw.outputs.iter().map(|&o| sim.probed(o)).collect(),
        injected,
    }
}

/// The waveform a granted packet should produce at the switch output:
/// everything from the second routing-bit slot onward, shifted by the
/// fabric latency.
pub fn expected_output(pw: &PacketWave, p: &SwitchParams, gate_delay: Fs) -> Waveform {
    let code = LengthCode::paper();
    let start = pw.wave.transitions().first().copied().unwrap_or(0);
    let masked = baldur_phy::length_code::mask_front(&pw.wave, start + code.slot());
    masked.delayed(fabric_latency(p, gate_delay))
}

/// Empirically measures the m = 1 switch's misrouting rate under Gaussian
/// timing jitter of the given sigma (femtoseconds) applied independently
/// to every transition of the input packet — the circuit-level
/// counterpart of the Sec. IV-F analytical model.
///
/// Returns the fraction of trials where the packet exited the wrong port
/// (or no port). At the paper's sigma (1,237 fs) failures are ~1e-9 and
/// will not be observed; push sigma to 3,000+ fs to see the error floor
/// rise, which validates the ~0.5T decision margin.
pub fn jitter_failure_rate(p: SwitchParams, sigma_fs: f64, trials: u32, seed: u64) -> f64 {
    use baldur_sim::rng::StreamRng;
    let code = LengthCode::paper();
    let t = BIT_PERIOD_FS;
    let mut rng = StreamRng::named(seed, "jitsweep", sigma_fs.to_bits());
    let mut failures = 0u32;
    for trial in 0..trials {
        let bit = trial % 2 == 0;
        let pw = assemble(&code, &[bit, true], b"JM", 10 * t);
        let mut jittered: Vec<Fs> = pw
            .wave
            .transitions()
            .iter()
            .map(|&x| {
                let j = rng.gen_normal(0.0, sigma_fs);
                (x as i64 + j.round() as i64).max(0) as Fs
            })
            .collect();
        jittered.sort_unstable();
        jittered.dedup();
        let mut n = Netlist::new();
        let sw = build_switch(&mut n, p, 1);
        let mut sim = CircuitSim::new(n);
        sim.probe(sw.outputs[0]);
        sim.probe(sw.outputs[1]);
        sim.drive(sw.inputs[0], &Waveform::from_transitions(jittered));
        let outcome = sim.run(pw.end + 3_000_000);
        let ok = matches!(outcome, RunOutcome::Settled { .. }) && {
            let (want, other) = if bit { (1usize, 0usize) } else { (0, 1) };
            !sim.probed(sw.outputs[want]).is_dark() && sim.probed(sw.outputs[other]).is_dark()
        };
        if !ok {
            failures += 1;
        }
    }
    f64::from(failures) / f64::from(trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::TlGate;

    const T: u64 = 16_667;

    fn pkt(input: usize, start: Fs, bits: &[bool]) -> Injection {
        Injection {
            input,
            start,
            routing_bits: bits.to_vec(),
            payload: b"DATA".to_vec(),
        }
    }

    /// A packet on input `port` of `side` of a multiplicity-`m` switch.
    fn pkt_m(m: usize, side: usize, port: usize, start: Fs, bits: &[bool]) -> Injection {
        pkt(side * m + port, start, bits)
    }

    fn gate_count(m: usize) -> u32 {
        let mut n = Netlist::new();
        build_switch(&mut n, SwitchParams::paper(), m);
        n.tl_gate_count()
    }

    #[test]
    fn routes_bit0_to_output0_with_exact_waveform() {
        let p = SwitchParams::paper();
        let r = run_switch(p, 1, &[pkt(0, 10 * T, &[false, true, false])]);
        let expect = expected_output(&r.injected[0], &p, TlGate::PAPER.delay_fs());
        assert_eq!(
            r.outputs[0].transitions(),
            expect.transitions(),
            "output 0 must carry the masked, delayed packet"
        );
        assert!(r.outputs[1].is_dark(), "output 1 must stay dark");
    }

    #[test]
    fn routes_bit1_to_output1() {
        let p = SwitchParams::paper();
        let r = run_switch(p, 1, &[pkt(0, 10 * T, &[true, false, true])]);
        let expect = expected_output(&r.injected[0], &p, TlGate::PAPER.delay_fs());
        assert_eq!(r.outputs[1].transitions(), expect.transitions());
        assert!(r.outputs[0].is_dark());
    }

    #[test]
    fn input1_routes_symmetrically() {
        let p = SwitchParams::paper();
        let r = run_switch(p, 1, &[pkt(1, 10 * T, &[false, false])]);
        let expect = expected_output(&r.injected[0], &p, TlGate::PAPER.delay_fs());
        assert_eq!(r.outputs[0].transitions(), expect.transitions());
        assert!(r.outputs[1].is_dark());
    }

    #[test]
    fn disjoint_outputs_deliver_both_packets() {
        let p = SwitchParams::paper();
        let r = run_switch(
            p,
            1,
            &[
                pkt(0, 10 * T, &[false, true]),
                pkt(1, 10 * T, &[true, true]),
            ],
        );
        let g = TlGate::PAPER.delay_fs();
        assert_eq!(
            r.outputs[0].transitions(),
            expected_output(&r.injected[0], &p, g).transitions()
        );
        assert_eq!(
            r.outputs[1].transitions(),
            expected_output(&r.injected[1], &p, g).transitions()
        );
    }

    #[test]
    fn contention_drops_exactly_one_packet() {
        let p = SwitchParams::paper();
        // Both want output 0; input 0 arrives first.
        let r = run_switch(
            p,
            1,
            &[
                pkt(0, 10 * T, &[false, true]),
                pkt(1, 12 * T, &[false, false]),
            ],
        );
        let g = TlGate::PAPER.delay_fs();
        assert_eq!(
            r.outputs[0].transitions(),
            expected_output(&r.injected[0], &p, g).transitions(),
            "the earlier packet must win intact"
        );
        assert!(r.outputs[1].is_dark(), "nothing leaks to the other output");
    }

    #[test]
    fn simultaneous_contention_delivers_exactly_one() {
        let p = SwitchParams::paper();
        let r = run_switch(
            p,
            1,
            &[
                pkt(0, 10 * T, &[false, true]),
                pkt(1, 10 * T, &[false, false]),
            ],
        );
        let g = TlGate::PAPER.delay_fs();
        // Tie-break is deterministic (input 0), and the winner arrives
        // unmangled.
        assert_eq!(
            r.outputs[0].transitions(),
            expected_output(&r.injected[0], &p, g).transitions()
        );
        assert!(r.outputs[1].is_dark());
    }

    #[test]
    fn back_to_back_packets_reuse_the_port() {
        let p = SwitchParams::paper();
        let first = pkt(0, 10 * T, &[false, true]);
        // Leave > envelope hold (6T) + reset time between packets.
        let code = LengthCode::paper();
        let pw1 = assemble(&code, &first.routing_bits, &first.payload, first.start);
        let second_start = pw1.end + 20 * T;
        let r = run_switch(p, 1, &[first, pkt(0, second_start, &[true, true])]);
        let g = TlGate::PAPER.delay_fs();
        assert_eq!(
            r.outputs[0].transitions(),
            expected_output(&r.injected[0], &p, g).transitions()
        );
        assert_eq!(
            r.outputs[1].transitions(),
            expected_output(&r.injected[1], &p, g).transitions()
        );
    }

    #[test]
    fn loser_freed_port_goes_to_later_packet() {
        let p = SwitchParams::paper();
        let code = LengthCode::paper();
        let first = pkt(0, 10 * T, &[false, true]);
        let pw1 = assemble(&code, &first.routing_bits, &first.payload, first.start);
        // Input 1 sends to output 0 well after the first packet drains.
        let late_start = pw1.end + 30 * T;
        let r = run_switch(p, 1, &[first, pkt(1, late_start, &[false, false])]);
        let g = TlGate::PAPER.delay_fs();
        let e0 = expected_output(&r.injected[0], &p, g);
        let e1 = expected_output(&r.injected[1], &p, g);
        let mut all: Vec<Fs> = e0
            .transitions()
            .iter()
            .chain(e1.transitions())
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(r.outputs[0].transitions(), &all[..]);
    }

    #[test]
    fn gate_count_matches_figure_4() {
        let gates = gate_count(1);
        // Paper Fig. 4 caption: "only 60 TL gates" for multiplicity 1
        // (Table V budgets 64 including I/O conditioning).
        assert!(
            (55..=70).contains(&gates),
            "switch has {gates} TL gates, expected ~60"
        );
    }

    #[test]
    fn fabric_latency_close_to_table_v() {
        // Table V: 0.14 ns switch latency at multiplicity 1.
        let lat = fabric_latency(&SwitchParams::paper(), TlGate::PAPER.delay_fs());
        let ns = lat as f64 / 1e6;
        assert!((0.12..=0.15).contains(&ns), "{ns} ns");
    }

    #[test]
    fn jitter_failure_rate_rises_past_the_margin() {
        // Margin ~0.5T = 8.3 ps. At sigma = 1.24 ps (paper) failures are
        // ~1e-9: none in 12 trials. At sigma = 6 ps (margin ~1.4 sigma,
        // two routing-bit transitions exposed) misroutes are common.
        let p = SwitchParams::paper();
        let clean = jitter_failure_rate(p, 1_237.0, 12, 5);
        assert_eq!(clean, 0.0, "paper-sigma jitter must not misroute");
        let noisy = jitter_failure_rate(p, 6_000.0, 12, 5);
        assert!(noisy > 0.1, "6 ps jitter should break decodes: {noisy}");
    }

    #[test]
    fn decodes_with_gaussian_jitter_at_paper_sigma() {
        // sigma = sqrt(1.53 ps^2) = 1,237 fs against a >= 7 ps margin:
        // misdecodes are ~1e-9, so every one of 24 trials must route
        // correctly.
        let rate = jitter_failure_rate(SwitchParams::paper(), 1_237.0, 24, 2024);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn m1_degenerates_to_the_basic_switch() {
        let p = SwitchParams::paper();
        let r = run_switch(p, 1, &[pkt_m(1, 0, 0, 10 * T, &[false, true])]);
        assert_eq!(r.delivered(0), 1);
        assert_eq!(r.delivered(1), 0);
    }

    #[test]
    fn m2_single_packet_takes_path_0_with_exact_waveform() {
        let p = SwitchParams::paper();
        let r = run_switch(p, 2, &[pkt_m(2, 0, 0, 10 * T, &[false, true])]);
        assert_eq!(r.lit_ports(0), vec![0], "uncontended packet uses path 0");
        let expect = expected_output(&r.injected[0], &p, TlGate::PAPER.delay_fs());
        assert_eq!(
            r.outputs[0].transitions(),
            expect.transitions(),
            "masked, delayed packet must arrive intact"
        );
        assert_eq!(r.delivered(1), 0);
    }

    #[test]
    fn m2_two_contenders_both_delivered_on_different_paths() {
        // The whole point of multiplicity: what would be a drop at m=1 is
        // a second-path delivery at m=2.
        let p = SwitchParams::paper();
        let r = run_switch(
            p,
            2,
            &[
                pkt_m(2, 0, 0, 10 * T, &[false, true]),
                pkt_m(2, 1, 0, 10 * T, &[false, false]),
            ],
        );
        assert_eq!(r.delivered(0), 2, "lit ports: {:?}", r.lit_ports(0));
        assert_eq!(r.delivered(1), 0);
    }

    #[test]
    fn m2_three_contenders_drop_exactly_one() {
        let p = SwitchParams::paper();
        let r = run_switch(
            p,
            2,
            &[
                pkt_m(2, 0, 0, 10 * T, &[false, true]),
                pkt_m(2, 0, 1, 10 * T, &[false, false]),
                pkt_m(2, 1, 0, 11 * T, &[false, true]),
            ],
        );
        assert_eq!(r.delivered(0), 2, "two paths exist, two survive");
        assert_eq!(r.delivered(1), 0);
    }

    #[test]
    fn m2_disjoint_directions_do_not_interact() {
        // The two direction-1 packets tie for path 0. The loser moves to
        // path 1 with its routing latch clear; were "not valid" the
        // window gate, its later bits would set the latch and turn it to
        // direction 0.
        let p = SwitchParams::paper();
        let r = run_switch(
            p,
            2,
            &[
                pkt_m(2, 0, 0, 10 * T, &[false, true]),
                pkt_m(2, 0, 1, 10 * T, &[true, false]),
                pkt_m(2, 1, 0, 10 * T, &[true, true]),
            ],
        );
        assert_eq!(r.delivered(0), 1);
        assert_eq!(r.delivered(1), 2);
    }

    #[test]
    fn m3_four_contenders_drop_exactly_one() {
        let p = SwitchParams::paper();
        let r = run_switch(
            p,
            3,
            &[
                pkt_m(3, 0, 0, 10 * T, &[false]),
                pkt_m(3, 0, 1, 10 * T, &[false]),
                pkt_m(3, 0, 2, 11 * T, &[false]),
                pkt_m(3, 1, 0, 11 * T, &[false]),
            ],
        );
        assert_eq!(r.delivered(0), 3, "three paths exist, three survive");
    }

    #[test]
    fn staggered_arrivals_reuse_freed_paths() {
        let p = SwitchParams::paper();
        let code = LengthCode::paper();
        let first = pkt_m(2, 0, 0, 10 * T, &[false, true]);
        let pw = assemble(&code, &first.routing_bits, &first.payload, first.start);
        // Second packet arrives long after the first drains: path 0 again.
        let r = run_switch(
            p,
            2,
            &[first, pkt_m(2, 1, 0, pw.end + 30 * T, &[false, false])],
        );
        // Both packets on path 0, sequentially; path 1 never used.
        assert!(!r.outputs[0].is_dark());
        assert!(r.outputs[1].is_dark(), "{:?}", r.lit_ports(0));
    }

    #[test]
    fn gate_counts_track_table_v() {
        use crate::gate_count::TABLE_V_GATES;
        for m in 1..=5 {
            let gates = gate_count(m);
            let paper = TABLE_V_GATES[m - 1];
            let ratio = f64::from(gates) / f64::from(paper);
            assert!(
                (0.5..=1.5).contains(&ratio),
                "m={m}: {gates} gates vs paper {paper}"
            );
        }
    }

    #[test]
    fn gate_counts_are_pinned() {
        // m = 1 is the Fig. 4 circuit; the window gate is one inverter
        // there and a two-gate pre-valid latch per input above it.
        let counts: Vec<u32> = (1..=5).map(gate_count).collect();
        assert_eq!(counts, [62, 276, 744, 1_400, 2_500]);
    }

    #[test]
    fn grants_are_exclusive_per_port() {
        // Run the contended scenario and check grant exclusivity on every
        // output port at every recorded edge.
        let p = SwitchParams::paper();
        let mut n = Netlist::new();
        let sw = build_switch(&mut n, p, 2);
        let mut sim = CircuitSim::new(n);
        let code = LengthCode::paper();
        for row in &sw.grants {
            for &g in row {
                sim.probe(g);
            }
        }
        let a = assemble(&code, &[false, true], b"AA", 10 * T);
        let b = assemble(&code, &[false, false], b"BB", 10 * T);
        let c = assemble(&code, &[false, true], b"CC", 12 * T);
        sim.drive(sw.inputs[0], &a.wave);
        sim.drive(sw.inputs[1], &b.wave);
        sim.drive(sw.inputs[2], &c.wave);
        let out = sim.run(a.end.max(b.end).max(c.end) + 3_000_000);
        assert!(matches!(out, RunOutcome::Settled { .. }));
        // Collect all transition instants, then assert <= 1 grant high per
        // port at each.
        let mut edges: Vec<Fs> = Vec::new();
        for row in &sw.grants {
            for &g in row {
                edges.extend_from_slice(sim.probed(g).transitions());
            }
        }
        edges.sort_unstable();
        edges.dedup();
        for &e in &edges {
            for o in 0..4 {
                let high: usize = (0..4)
                    .filter(|&i| sim.probed(sw.grants[i][o]).level_at(e))
                    .count();
                assert!(high <= 1, "port {o} at {e}: {high} grants");
            }
        }
    }
}
