//! Property-based tests over the full stack.
//!
//! The build environment has no `proptest`, so each property is exercised
//! with a deterministic, seed-derived generator loop: `StreamRng::named`
//! provides the case inputs, `CASES` iterations per property, and every
//! assertion message carries the case index so failures reproduce exactly.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;

use baldur::phy::eightbtenb::{
    max_run_length, Code10, Decoder, Disparity, Encoder, Symbol, VALID_CONTROL,
};
use baldur::phy::length_code::LengthCode;
use baldur::phy::packet_wave::assemble;
use baldur::phy::waveform::{Fs, Waveform, BIT_PERIOD_FS};
use baldur::sim::rng::StreamRng;
use baldur::sim::stats::{Reservoir, Streaming};
use baldur::tl::netlist::{CircuitSim, GateKind, Netlist, RunOutcome, WireId};
use baldur::tl::switch::{build_switch, SwitchParams};
use baldur::topo::graph::NodeId;
use baldur::topo::multibutterfly::MultiButterfly;

/// Cases per property; all derived from this fixed seed.
const CASES: u64 = 64;
const SEED: u64 = 0xba1d_u64;

fn case_rng(label: &'static str, case: u64) -> StreamRng {
    StreamRng::named(SEED, label, case)
}

/// 8b/10b: any byte stream round-trips, never exceeds run length 5,
/// and keeps bounded disparity.
#[test]
fn eightbtenb_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng("8b10b", case);
        let len = rng.gen_range(1usize..200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=u8::MAX)).collect();
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let mut bits = Vec::new();
        for &b in &bytes {
            let c = enc.encode_data(b);
            bits.extend_from_slice(&c.bits());
            assert_eq!(dec.decode(c), Ok(Symbol::Data(b)), "case {case}");
        }
        assert!(max_run_length(&bits) <= 5, "case {case}");
    }
}

/// Puts a fresh encoder/decoder pair into the requested running-disparity
/// state. A fresh pair starts at RD−; encoding D.11.0 (0x0B, whose 3b/4b
/// block is unbalanced) flips both to RD+.
fn pair_at(rd: Disparity) -> (Encoder, Decoder) {
    let mut enc = Encoder::new();
    let mut dec = Decoder::new();
    if rd == Disparity::Positive {
        let c = enc.encode_data(0x0B);
        assert_eq!(dec.decode(c), Ok(Symbol::Data(0x0B)));
    }
    assert_eq!(enc.disparity(), rd);
    assert_eq!(dec.disparity(), rd);
    (enc, dec)
}

/// 8b/10b, exhaustively: every one of the 256 data octets round-trips
/// from *both* running-disparity states, and every emitted group is
/// balanced to within one bit pair (4–6 ones out of 10).
#[test]
fn eightbtenb_exhaustive_roundtrip_both_disparities() {
    for rd in [Disparity::Negative, Disparity::Positive] {
        for byte in 0u16..=255 {
            let byte = byte as u8;
            let (mut enc, mut dec) = pair_at(rd);
            let code = enc.encode_data(byte);
            assert!(
                (4..=6).contains(&code.ones()),
                "{rd:?} D.{byte:#04x}: {} ones",
                code.ones()
            );
            assert_eq!(
                dec.decode(code),
                Ok(Symbol::Data(byte)),
                "{rd:?} D.{byte:#04x}"
            );
        }
    }
}

/// 8b/10b, exhaustively: the running disparity stays within ±1 after
/// *every sub-block* (not just group boundaries) for any octet from
/// either starting state — the invariant that keeps the line DC-balanced.
#[test]
fn eightbtenb_disparity_bounded_after_every_sub_block() {
    for rd0 in [Disparity::Negative, Disparity::Positive] {
        for byte in 0u16..=255 {
            let byte = byte as u8;
            let (mut enc, _) = pair_at(rd0);
            let code = enc.encode_data(byte);
            let six_ones = i32::from(((code.0 >> 4) & 0x3F).count_ones() as u8);
            let four_ones = i32::from((code.0 & 0x0F).count_ones() as u8);
            let mut rd = match rd0 {
                Disparity::Negative => -1i32,
                Disparity::Positive => 1,
            };
            rd += six_ones * 2 - 6;
            assert_eq!(rd.abs(), 1, "{rd0:?} D.{byte:#04x}: after 6b block");
            rd += four_ones * 2 - 4;
            assert_eq!(rd.abs(), 1, "{rd0:?} D.{byte:#04x}: after 4b block");
            // And the encoder's tracked state agrees with the arithmetic.
            let tracked = match enc.disparity() {
                Disparity::Negative => -1,
                Disparity::Positive => 1,
            };
            assert_eq!(rd, tracked, "{rd0:?} D.{byte:#04x}");
        }
    }
}

/// 8b/10b: every control character decodes as `Symbol::Control`, never as
/// data, from both disparity states — so K-codes can safely delimit
/// packets without ever being mistaken for payload bytes.
#[test]
fn eightbtenb_control_codes_never_decode_as_data() {
    for rd in [Disparity::Negative, Disparity::Positive] {
        for &k in &VALID_CONTROL {
            let (mut enc, mut dec) = pair_at(rd);
            let code = enc.encode_control(k);
            let sym = dec
                .decode(code)
                .unwrap_or_else(|e| panic!("{rd:?} K {k:#04x}: {e}"));
            assert_eq!(sym, Symbol::Control(k), "{rd:?} K {k:#04x}");
            assert!(sym.is_control(), "{rd:?} K {k:#04x} decoded as data");
        }
    }
}

/// 8b/10b, exhaustively: over all 1024 possible 10-bit groups from both
/// disparity states, the decoder either rejects the group or yields a
/// symbol that round-trips through a fresh encoder/decoder pair at the
/// same starting state — accepted symbols are always re-transmittable.
#[test]
fn eightbtenb_decoder_accepts_only_coherent_codes() {
    let mut accepted = [0usize; 2];
    for (i, rd) in [Disparity::Negative, Disparity::Positive]
        .into_iter()
        .enumerate()
    {
        for raw in 0u16..1024 {
            let (_, mut dec) = pair_at(rd);
            let Ok(sym) = dec.decode(Code10(raw)) else {
                continue;
            };
            accepted[i] += 1;
            let (mut enc2, mut dec2) = pair_at(rd);
            let reencoded = match sym {
                Symbol::Data(b) => enc2.encode_data(b),
                Symbol::Control(k) => enc2.encode_control(k),
            };
            assert_eq!(
                dec2.decode(reencoded),
                Ok(sym),
                "{rd:?} {raw:#05x}: accepted symbol does not re-transmit"
            );
        }
    }
    // The code space is sparse by design: each state accepts the 256 data
    // octets and 12 control characters, plus bounded alternation slack.
    for (i, n) in accepted.iter().enumerate() {
        assert!(
            (268..=600).contains(n),
            "state {i}: {n} of 1024 groups accepted — table drift?"
        );
    }
}

/// Length code: arbitrary routing-bit strings round-trip.
#[test]
fn length_code_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng("lencode", case);
        let n = rng.gen_range(1usize..24);
        let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let start_slots = rng.gen_range(0u64..16);
        let code = LengthCode::paper();
        let start = start_slots * code.slot();
        let w = code.encode(&bits, start);
        let (decoded, _) = code.decode_prefix(&w, code.bit_period / 10);
        assert_eq!(decoded, bits, "case {case}");
    }
}

/// Waveforms: level_at is consistent with the pulse list.
#[test]
fn waveform_pulse_consistency() {
    for case in 0..CASES {
        let mut rng = case_rng("waveform", case);
        let n = rng.gen_range(2usize..40);
        let mut t = 0;
        let mut transitions = Vec::new();
        for _ in 0..n {
            t += rng.gen_range(1u64..1000);
            transitions.push(t);
        }
        let w = Waveform::from_transitions(transitions.clone());
        for (i, &tr) in transitions.iter().enumerate() {
            assert_eq!(w.level_at(tr), i % 2 == 0, "case {case}");
            if tr > 0 {
                assert_eq!(w.level_at(tr - 1), i % 2 == 1, "case {case}");
            }
        }
    }
}

/// Multi-butterfly: every (src, dst, path choice, seed) delivers to
/// the right node — the deliverability invariant under randomized wiring.
#[test]
fn multibutterfly_always_delivers() {
    for case in 0..CASES {
        let mut rng = case_rng("mbfdeliv", case);
        let bits = rng.gen_range(3u32..8);
        let m = rng.gen_range(1u32..5);
        let seed = rng.next_u64();
        let nodes = 1u32 << bits;
        let topo = MultiButterfly::new(nodes, m, seed);
        let src = NodeId(rng.gen_range(0u32..=u32::MAX) % nodes);
        let dst = NodeId(rng.gen_range(0u32..=u32::MAX) % nodes);
        let path = rng.gen_range(0u32..=u32::MAX);
        let (_, reached) = topo.trace_route(src, dst, path);
        assert_eq!(reached, dst, "case {case}");
    }
}

/// Multi-butterfly wiring invariants hold for arbitrary seeds.
#[test]
fn multibutterfly_wiring_valid() {
    for case in 0..CASES {
        let mut rng = case_rng("mbfwire", case);
        let bits = rng.gen_range(2u32..9);
        let m = rng.gen_range(1u32..6);
        let seed = rng.next_u64();
        let topo = MultiButterfly::new(1 << bits, m, seed);
        assert!(topo.validate().is_ok(), "case {case}");
    }
}

/// Streaming stats merge == sequential, for any split point.
#[test]
fn streaming_merge_any_split() {
    for case in 0..CASES {
        let mut rng = case_rng("stream", case);
        let n = rng.gen_range(2usize..200);
        let data: Vec<f64> = (0..n).map(|_| (rng.gen_f64() - 0.5) * 2e6).collect();
        let k = rng.gen_range(0usize..data.len());
        let mut whole = Streaming::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = Streaming::new();
        let mut b = Streaming::new();
        for &x in &data[..k] {
            a.push(x);
        }
        for &x in &data[k..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count(), "case {case}");
        assert!((a.mean() - whole.mean()).abs() < 1e-6, "case {case}");
    }
}

/// Reservoir quantiles are exact below capacity.
#[test]
fn reservoir_exact_quantiles() {
    for case in 0..CASES {
        let mut rng = case_rng("resv", case);
        let n = rng.gen_range(1usize..500);
        let data: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 1e9).collect();
        let mut r = Reservoir::with_capacity(1000);
        for &x in &data {
            r.push(x);
        }
        assert!(r.is_exact(), "case {case}");
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(r.quantile(0.0), sorted[0], "case {case}");
        assert_eq!(r.quantile(1.0), sorted[n - 1], "case {case}");
    }
}

/// Derived RNG streams are reproducible and label-separated.
#[test]
fn rng_streams_deterministic() {
    for case in 0..CASES {
        let mut meta = case_rng("rng-meta", case);
        let seed = meta.next_u64();
        let idx = meta.next_u64();
        let mut a = StreamRng::named(seed, "prop", idx);
        let mut b = StreamRng::named(seed, "prop", idx);
        assert_eq!(a.next_u64(), b.next_u64(), "case {case}");
    }
}

/// Traffic assignments never self-send and stay in range.
#[test]
fn traffic_assignments_in_range() {
    use baldur::net::traffic::{Assignment, Pattern};
    for case in 0..CASES {
        let mut rng = case_rng("traffic", case);
        let bits = rng.gen_range(3u32..10);
        let seed = rng.next_u64();
        let nodes = 1u32 << bits;
        for pattern in [
            Pattern::RandomPermutation,
            Pattern::Transpose,
            Pattern::Bisection,
            Pattern::GroupPermutation,
            Pattern::Hotspot,
        ] {
            if let Assignment::Pairs(p) = Assignment::build(pattern, nodes, seed) {
                for (i, &d) in p.iter().enumerate() {
                    assert!(d < nodes, "case {case} {}: out of range", pattern.name());
                    // Transpose has fixed points (palindromic addresses)
                    // and the hotspot target sends to its neighbour; all
                    // other patterns are self-send-free.
                    let may_self = matches!(pattern, Pattern::Transpose | Pattern::Hotspot);
                    assert!(
                        d != i as u32 || may_self,
                        "case {case} {}: self-send at {i}",
                        pattern.name()
                    );
                }
            }
        }
    }
}

/// The worst-case drop tool's rate is a probability, and multiplicity
/// never hurts.
#[test]
fn droptool_monotone() {
    use baldur::net::droptool::worst_case;
    use baldur::net::traffic::Pattern;
    for case in 0..16 {
        let mut rng = case_rng("droptool", case);
        let bits = rng.gen_range(5u32..11);
        let seed = rng.next_u64();
        let nodes = 1u32 << bits;
        let mut last = 1.0f64;
        for m in [1u32, 2, 4] {
            let r = worst_case(nodes, m, Pattern::RandomPermutation, seed);
            assert!((0.0..=1.0).contains(&r.drop_rate), "case {case}");
            assert!(
                r.drop_rate <= last + 0.05,
                "case {case} m={m}: {} > {last}",
                r.drop_rate
            );
            last = r.drop_rate;
        }
    }
}

/// Records every (time, payload) it executes; re-schedules a follow-up
/// for payloads divisible by 5 so the queues also see pops interleaved
/// with pushes.
struct Recorder {
    log: Vec<(u64, u32)>,
}

/// The follow-up `Recorder` schedules after executing `ev`: `(delay in
/// ps, payload)`.
fn follow_up(ev: u32) -> Option<(u64, u32)> {
    (ev.is_multiple_of(5) && ev > 0).then(|| (u64::from(ev) * 31 + 1, ev / 2))
}

impl baldur::sim::Model for Recorder {
    type Event = u32;
    fn handle(&mut self, now: baldur::sim::Time, ev: u32, sched: &mut baldur::sim::Scheduler<u32>) {
        self.log.push((now.as_ps(), ev));
        if let Some((delay, next)) = follow_up(ev) {
            sched.schedule_in(baldur::sim::Duration::from_ps(delay), next);
        }
    }
}

/// The reference future event list: a binary heap over `(time, seq,
/// payload)` with the scheduler's FIFO sequence numbering.
struct RefQueue {
    heap: BinaryHeap<Reverse<(baldur::sim::Time, u64, u64)>>,
    seq: u64,
    now: baldur::sim::Time,
    /// Peak simultaneous pending events.
    peak: usize,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: baldur::sim::Time::ZERO,
            peak: 0,
        }
    }

    fn schedule_at(&mut self, at: baldur::sim::Time, payload: u64) {
        self.heap.push(Reverse((at, self.seq, payload)));
        self.seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    fn peek_time(&self) -> Option<baldur::sim::Time> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn pop_scheduled(&mut self) -> Option<(baldur::sim::Time, u64, u64)> {
        let Reverse(top) = self.heap.pop()?;
        self.now = top.0;
        Some(top)
    }
}

/// The calendar-backed simulation executes the exact event sequence a
/// reference binary heap does, including FIFO tie-breaks and
/// re-scheduling mid-run.
#[test]
fn calendar_queue_matches_heap() {
    use baldur::sim::{Simulation, Time};
    for case in 0..CASES {
        let mut rng = case_rng("calendar", case);
        let n = rng.gen_range(1usize..300);
        let ops: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.gen_range(0u64..1_000_000), rng.gen_range(0u32..1_000)))
            .collect();
        let mut reference = RefQueue::new();
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        for &(t, v) in &ops {
            reference.schedule_at(Time::from_ps(t), u64::from(v));
            sim.scheduler_mut().schedule_at(Time::from_ps(t), v);
        }
        let mut expect = Vec::new();
        while let Some((now, _, ev)) = reference.pop_scheduled() {
            let ev = u32::try_from(ev).expect("payloads are u32");
            expect.push((now.as_ps(), ev));
            if let Some((delay, next)) = follow_up(ev) {
                reference.schedule_at(Time::from_ps(now.as_ps() + delay), u64::from(next));
            }
        }
        sim.run();
        assert_eq!(&sim.model().log, &expect, "case {case}");
    }
}

/// Retransmission hardening: for any parameter draw the backoff timeout
/// schedule is monotone non-decreasing in the attempt number and capped
/// at `max_backoff_exp` doublings; with jitter enabled the schedule stays
/// monotone until the cap is reached and is bit-identical across two
/// same-seed evaluations.
#[test]
fn backoff_schedule_is_monotone_capped_and_reproducible() {
    use baldur::net::config::BaldurParams;
    use baldur::net::faults::jittered_timeout_ps;
    for case in 0..CASES {
        let mut rng = case_rng("backoff", case);
        let mut params = BaldurParams::paper_1k();
        params.base_timeout_ps = rng.gen_range(10_000u64..10_000_000);
        params.max_backoff_exp = rng.gen_range(0u32..12);
        params.retry_jitter_pct = rng.gen_range(0u32..150); // clamped inside
        let seed = rng.gen_range(0u64..u64::MAX);
        let pkt = rng.gen_range(0u32..1_000_000);
        let cap = params.base_timeout_ps << params.max_backoff_exp;
        let mut last_base = 0u64;
        let mut last_jittered = 0u64;
        for attempt in 1..=params.max_backoff_exp + 4 {
            let base = params.backoff_timeout_ps(attempt, 0);
            assert!(base >= last_base, "case {case}: base schedule not monotone");
            assert!(base <= cap, "case {case}: base exceeds the cap");
            let jit = jittered_timeout_ps(&params, seed, pkt, attempt, 0);
            assert_eq!(
                jit,
                jittered_timeout_ps(&params, seed, pkt, attempt, 0),
                "case {case}: jittered schedule not reproducible"
            );
            assert!(jit >= base, "case {case}: jitter may only lengthen");
            assert!(
                jit < 2 * base || params.retry_jitter_pct == 0,
                "case {case}: jitter must stay below one extra doubling"
            );
            if base < cap {
                // Below the cap each base doubles, which dominates any
                // jitter on the previous attempt — monotone by design.
                assert!(
                    jit >= last_jittered,
                    "case {case}: jittered schedule regressed pre-cap"
                );
            }
            last_base = base;
            last_jittered = jit;
        }
        assert_eq!(last_base, cap, "case {case}: schedule never reached cap");
    }
}

/// Overload robustness: for any draw of storm pattern, offered load,
/// admission cap, pacing window, and deadline, both network models
/// account for every generated packet exactly —
/// `generated == delivered + abandoned + expired + ingress_drops` —
/// and the always-on runtime oracle stays quiet. A quiet oracle
/// certifies the bounded-queue invariant (no source queue ever exceeds
/// its admission cap; the occupancy checker runs at every enqueue) and,
/// for the electrical model, the credit balance (credits are unsigned
/// and only decremented behind an availability check, and the drained
/// model verifies every counter returned to capacity — an overdraw or
/// leak anywhere surfaces as a violation).
#[test]
fn overload_storms_conserve_packets_and_bound_queues() {
    use baldur::net::config::{BaldurParams, RouterParams};
    use baldur::net::runner::{run, NetworkKind, RunConfig, Workload};
    use baldur::net::traffic::Pattern;

    for case in 0..16 {
        let mut rng = case_rng("overload", case);
        let nodes = 1u32 << rng.gen_range(4u32..7);
        let pattern = match case % 3 {
            0 => Pattern::UniformRandom,
            1 => Pattern::Incast {
                fanin: (nodes / 4).max(2),
            },
            _ => Pattern::Hotcast,
        };
        let load = [0.5, 1.0, 2.0, 4.0][(case as usize / 3) % 4];
        let cap = rng.gen_range(1u32..12);
        let seed = rng.next_u64();
        let workload = Workload::Storm {
            pattern,
            load,
            packets_per_node: rng.gen_range(8u32..32),
        };

        let mut bp = BaldurParams::paper_1k();
        bp.ingress_cap = cap;
        bp.pacing_window = rng.gen_range(0u32..4);
        bp.deadline_ps = [0, 5_000_000, 20_000_000][case as usize % 3];
        bp.max_backoff_exp = rng.gen_range(2u32..6);
        bp.retry_jitter_pct = rng.gen_range(0u32..100);
        let mut rp = RouterParams::paper();
        rp.nic_queue_cap = cap;
        rp.deadline_ps = bp.deadline_ps;

        for net in [NetworkKind::Baldur(bp), NetworkKind::FatTree { router: rp }] {
            let label = match net {
                NetworkKind::Baldur(_) => "baldur",
                _ => "fattree",
            };
            let r = run(&RunConfig {
                seed,
                ..RunConfig::new(nodes, net, workload)
            });
            assert!(
                r.generated > 0,
                "case {case} {label}: storm offered nothing"
            );
            assert_eq!(
                r.generated,
                r.delivered + r.abandoned + r.expired + r.ingress_drops,
                "case {case} {label}: packet conservation broken"
            );
            assert!(
                r.oracle.is_clean(),
                "case {case} {label}: {} oracle violation(s), first: {:?}",
                r.oracle.total(),
                r.oracle.reports.first()
            );
            if r.delivered > 0 {
                let jain = r.fairness.jain;
                assert!(
                    jain > 0.0 && jain <= 1.0 + 1e-9,
                    "case {case} {label}: Jain index {jain} out of range"
                );
            }
        }
    }
}

/// Repo-relative path of the pinned packet-model fingerprints.
const FINGERPRINTS: &str = "results/golden/soa_fingerprints.json";

/// Struct-of-arrays refactor safety net. The retired map-based packet
/// models were deleted once their output was pinned: the SHA-256 of
/// every report they produced is recorded in [`FINGERPRINTS`], and the
/// live models must reproduce each one — every counter, every float bit,
/// the oracle summary, and the conservation ledger included, since the
/// digest covers the report's whole exact serialization.
///
/// The matrix is 16 seeded storms across both packet models
/// ({baldur, fattree}), both traffic shapes ({uniform, incast}), and
/// both scales (64 and 256 nodes), plus the five-network paper lineup
/// on one open-loop workload (the electrical multi-butterfly and
/// dragonfly routings included). Only a deliberate change to the
/// report's shape or the models' behaviour re-records the table, with
/// `BALDUR_BLESS=1 cargo test -q --test properties soa_models`.
#[test]
fn soa_models_match_retired_baselines_byte_identically() {
    use baldur::net::config::{BaldurParams, RouterParams};
    use baldur::net::runner::{run, NetworkKind, RunConfig, Workload};
    use baldur::net::traffic::Pattern;

    let fingerprint = |cfg: &RunConfig| {
        let report = run(cfg);
        let text = serde_json::to_string_exact(&report).expect("the vendored renderer never fails");
        (report.generated, baldur::hash::hex_digest(text.as_bytes()))
    };
    let mut got = BTreeMap::new();
    for (name, net) in NetworkKind::paper_lineup(64) {
        let workload = Workload::Synthetic {
            pattern: Pattern::RandomPermutation,
            load: 0.3,
            packets_per_node: 15,
        };
        let (generated, digest) = fingerprint(&RunConfig::new(64, net, workload));
        assert!(generated > 0, "lineup {name}: empty workload");
        got.insert(format!("lineup/{name}"), digest);
    }
    for case in 0..16 {
        let mut rng = case_rng("soadiff", case);
        let nodes = if case % 2 == 0 { 64u32 } else { 256 };
        let pattern = if case % 4 < 2 {
            Pattern::UniformRandom
        } else {
            Pattern::Incast {
                fanin: (nodes / 8).max(2),
            }
        };
        let load = [0.3, 0.7, 1.5][case as usize % 3];
        let seed = rng.next_u64();
        let workload = Workload::Storm {
            pattern,
            load,
            packets_per_node: rng.gen_range(4u32..10),
        };
        let mut bp = BaldurParams::paper_for(u64::from(nodes));
        bp.ingress_cap = rng.gen_range(4u32..16);
        bp.pacing_window = rng.gen_range(0u32..3);
        bp.ack_coalesce_ps = [0, 300_000][case as usize % 2];
        let mut rp = RouterParams::paper();
        rp.nic_queue_cap = bp.ingress_cap;
        for net in [NetworkKind::Baldur(bp), NetworkKind::FatTree { router: rp }] {
            let label = net.name();
            let cfg = RunConfig {
                seed,
                ..RunConfig::new(nodes, net, workload)
            };
            let (generated, digest) = fingerprint(&cfg);
            assert!(generated > 0, "case {case} {label}: empty workload");
            got.insert(format!("case{case:02}/{label}/n{nodes}"), digest);
        }
    }
    assert_fingerprints(FINGERPRINTS, &got);
}

/// Checks `got` (entry id → hex SHA-256) against the committed table at
/// the repo-relative `golden`, or re-records the table when
/// `BALDUR_BLESS` is set. Both the key set and every digest must match.
fn assert_fingerprints(golden: &str, got: &BTreeMap<String, String>) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(golden);
    if std::env::var_os("BALDUR_BLESS").is_some() {
        let text = serde_json::to_string_pretty(got).expect("the vendored renderer never fails");
        std::fs::write(&path, text + "\n").unwrap_or_else(|e| panic!("bless {golden}: {e}"));
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {golden}: {e}"));
    let want: BTreeMap<String, String> =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {golden}: {e}"));
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "the entry set drifted from {golden}"
    );
    for (id, digest) in got {
        assert_eq!(
            digest, &want[id],
            "{id}: the output diverged from its fingerprint in {golden}"
        );
    }
}

/// Repo-relative path of the pinned codec tables and circuit runs.
const REFERENCE_FINGERPRINTS: &str = "results/golden/reference_fingerprints.json";

/// A NOR latch set then reset, its output through a waveguide and a
/// combiner (both transport elements), with two probes.
fn latch_circuit() -> (CircuitSim, Fs) {
    let mut n = Netlist::new();
    let s = n.wire();
    let r = n.wire();
    let q = n.wire_with(false);
    let qb = n.wire_with(true);
    n.gate_into(GateKind::Nor2, r, Some(qb), q, 1_930);
    n.gate_into(GateKind::Nor2, s, Some(q), qb, 1_990);
    let dq = n.waveguide(q, 132_000);
    let c = n.combiner(&[dq, s]);
    let mut sim = CircuitSim::new(n);
    sim.probe(q);
    sim.probe(c);
    sim.drive(s, &Waveform::from_pulses([(50_000, 60_000)]));
    sim.drive(r, &Waveform::from_pulses([(150_000, 160_000)]));
    (sim, 1_000_000)
}

/// The paper's 2x2 switch with a packet on each input (the contention
/// case), probing both outputs.
fn switch_circuit() -> (CircuitSim, Fs) {
    let code = LengthCode::paper();
    let mut n = Netlist::new();
    let sw = build_switch(&mut n, SwitchParams::paper(), 1);
    let mut sim = CircuitSim::new(n);
    sim.probe(sw.outputs[0]);
    sim.probe(sw.outputs[1]);
    let p0 = assemble(&code, &[false, true], b"REF", 10 * BIT_PERIOD_FS);
    let p1 = assemble(&code, &[false, false], b"EQV", 12 * BIT_PERIOD_FS);
    sim.drive(sw.inputs[0], &p0.wave);
    sim.drive(sw.inputs[1], &p1.wave);
    (sim, p0.end.max(p1.end) + 3_000_000)
}

/// Runs a prepared circuit and renders what it observed: the outcome,
/// the executed-event count, every wire's final level, and every probe
/// trace.
fn circuit_run((mut sim, horizon): (CircuitSim, Fs)) -> String {
    let outcome = sim.run(horizon);
    assert!(matches!(outcome, RunOutcome::Settled { .. }), "{outcome:?}");
    let mut text = format!("{outcome:?}\nevents {}\nlevels ", sim.events_executed());
    text.extend((0..sim.netlist().wire_count()).map(|w| {
        if sim.level(WireId(w as u32)) {
            '1'
        } else {
            '0'
        }
    }));
    for (slot, (_, trace)) in sim.probe_iter().enumerate() {
        let _ = write!(text, "\nprobe{slot} {trace:?}");
    }
    text
}

/// The 8b/10b lookup tables and the compiled gate-level event loop each
/// replaced a branchy reference implementation, which was deleted once
/// its output was pinned in [`REFERENCE_FINGERPRINTS`]:
///
/// * `codec/encode`: all 2×256 `(RD, byte) → (code group, exit RD)`
///   encoder cells;
/// * `codec/decode`: all 2×1024 `(RD, code) → (symbol or error, exit RD)`
///   decoder cells, so error precedence is pinned too;
/// * `tl/latch` and `tl/switch_packets`: two circuit runs, covering the
///   outcome, the event count, every wire level, and every probe trace.
///
/// Both codec tables cover every input, so they pin the whole function.
/// Re-record with `BALDUR_BLESS=1 cargo test -q --test properties
/// codec_and_gate_loop`.
#[test]
fn codec_and_gate_loop_match_retired_references() {
    let mut encode = String::new();
    let mut decode = String::new();
    for rd in [Disparity::Negative, Disparity::Positive] {
        for byte in 0..=u8::MAX {
            let (mut enc, _) = pair_at(rd);
            let code = enc.encode_data(byte);
            let _ = writeln!(encode, "{rd:?} {byte:#04x} {code} {:?}", enc.disparity());
        }
        for raw in 0u16..1024 {
            let (_, mut dec) = pair_at(rd);
            let out = dec.decode(Code10(raw));
            let _ = writeln!(decode, "{rd:?} {raw:#05x} {out:?} {:?}", dec.disparity());
        }
    }
    let got: BTreeMap<String, String> = [
        ("codec/encode", encode),
        ("codec/decode", decode),
        ("tl/latch", circuit_run(latch_circuit())),
        ("tl/switch_packets", circuit_run(switch_circuit())),
    ]
    .into_iter()
    .map(|(id, text)| (id.to_string(), baldur::hash::hex_digest(text.as_bytes())))
    .collect();
    assert_fingerprints(REFERENCE_FINGERPRINTS, &got);
}

/// The real scheduler and the reference heap, fed the same pushes.
struct SchedPair {
    reference: RefQueue,
    cal: baldur::sim::Scheduler<u64>,
    what: String,
}

impl SchedPair {
    fn new(what: String) -> Self {
        SchedPair {
            reference: RefQueue::new(),
            cal: baldur::sim::Scheduler::new(),
            what,
        }
    }

    /// Pushes `pushes` events at `now + offset(rng)` into both queues
    /// (numbered by the reference's sequence counter), then pops `pops`
    /// from each and compares them.
    fn wave(
        &mut self,
        rng: &mut StreamRng,
        offset: impl Fn(&mut StreamRng) -> u64,
        pushes: usize,
        pops: usize,
    ) {
        let base = self.reference.now.as_ps();
        for _ in 0..pushes {
            let at = baldur::sim::Time::from_ps(base + offset(rng));
            let payload = self.reference.seq;
            self.reference.schedule_at(at, payload);
            self.cal.schedule_at(at, payload);
        }
        for _ in 0..pops {
            let r = self.reference.pop_scheduled();
            assert!(r.is_some(), "{}: queue drained mid-wave", self.what);
            assert_eq!(
                r,
                self.cal.pop_scheduled(),
                "{}: diverged mid-drain",
                self.what
            );
        }
    }

    /// Pushes one event at `at` into both queues, on the scheduler's
    /// calendar.
    fn push_at(&mut self, at: baldur::sim::Time) {
        let payload = self.reference.seq;
        self.reference.schedule_at(at, payload);
        self.cal.schedule_at(at, payload);
    }

    /// Pushes one event `delay` ps from now into both queues, through the
    /// scheduler's fixed-delay entry point.
    fn push_in(&mut self, delay: u64) {
        let payload = self.reference.seq;
        let at = baldur::sim::Time::from_ps(self.reference.now.as_ps() + delay);
        self.reference.schedule_at(at, payload);
        self.cal
            .schedule_in(baldur::sim::Duration::from_ps(delay), payload);
    }

    /// Pops one event from each queue and compares them.
    fn pop(&mut self) {
        let r = self.reference.pop_scheduled();
        assert_eq!(r, self.cal.pop_scheduled(), "{}: diverged", self.what);
    }

    /// The scheduler's counters and next event time against the
    /// reference's.
    fn check_counters(&self) {
        let (r, c) = (&self.reference, &self.cal);
        assert_eq!(r.heap.len(), c.pending(), "{}: pending", self.what);
        assert_eq!(r.peak, c.peak_pending(), "{}: peak pending", self.what);
        assert_eq!(r.seq, c.events_scheduled(), "{}: scheduled", self.what);
        assert_eq!(r.peek_time(), c.peek_time(), "{}: peek time", self.what);
    }

    fn drain(&mut self) {
        loop {
            let r = self.reference.pop_scheduled();
            assert_eq!(
                r,
                self.cal.pop_scheduled(),
                "{}: diverged at drain",
                self.what
            );
            if r.is_none() {
                break;
            }
        }
        assert_eq!(self.reference.now, self.cal.now(), "{}", self.what);
        assert_eq!(
            self.reference.seq,
            self.cal.events_scheduled(),
            "{}",
            self.what
        );
        assert_eq!(
            self.reference.seq,
            self.cal.events_executed(),
            "{}",
            self.what
        );
    }
}

/// The scheduler delivers the byte-identical `(time, seq, event)` pop
/// sequence of a reference binary heap on any workload — including
/// bursty waves, tight same-timestamp clusters, the adversarial all-ties
/// case that stresses the FIFO tie-break, and dense near-term ties mixed
/// with far-future timeouts, the shape that defeats a span-based bucket
/// width.
#[test]
fn scheduler_backends_pop_identically() {
    // Dense near-term ties (eight instants) plus one far-future timeout
    // in twenty, 10^7 to 10^9 ps out.
    let timeouts = |rng: &mut StreamRng| {
        if rng.gen_range(0u32..20) == 0 {
            rng.gen_range(10_000_000u64..1_000_000_000)
        } else {
            rng.gen_range(0u64..8)
        }
    };

    for case in 0..CASES {
        let mut rng = case_rng("schddiff", case);
        // Three workload shapes, cycled across cases: bursty (wide
        // random offsets), clustered (tiny offset range, heavy ties),
        // and adversarial (every event at the same instant).
        let shape = case % 3;
        let offset = |rng: &mut StreamRng| match shape {
            0 => rng.gen_range(0u64..1_000_000),
            1 => rng.gen_range(0u64..8),
            _ => 0,
        };
        let mut pair = SchedPair::new(format!("case {case} shape {shape}"));
        for wave in 0..4 {
            let pushes = 50 + (case as usize * 7 + wave * 13) % 150;
            pair.wave(&mut rng, offset, pushes, pushes / 2);
        }
        pair.drain();

        // The fourth shape, on its own stream so the three above keep
        // their inputs: ties plus timeouts, growing the bucket table and
        // draining back through its shrinks.
        let mut rng = case_rng("schdtout", case);
        let mut pair = SchedPair::new(format!("case {case} ties+timeouts"));
        for wave in 0..6 {
            let pushes = 100 + (case as usize * 11 + wave * 17) % 200;
            pair.wave(&mut rng, timeouts, pushes, pushes / 3);
        }
        pair.drain();
    }

    // One large bursty workload: ten waves of 10,000 pushes into a 50 ns
    // window, 5,000 pops after each, then a full drain.
    let mut rng = StreamRng::named(0xBA1D, "perfschd", 0);
    let mut pair = SchedPair::new("large workload".to_string());
    for _ in 0..10 {
        pair.wave(&mut rng, |rng| rng.gen_range(0..50_000u64), 10_000, 5_000);
    }
    pair.drain();
    assert_eq!(
        pair.cal.events_scheduled() + pair.cal.events_executed(),
        200_000
    );

    // The large ties-plus-timeouts workload: the bucket table grows to
    // thousands of buckets and the drain shrinks it back, which the
    // capacity-based byte count shows.
    let mut rng = StreamRng::named(0xBA1D, "schdtout", 0);
    let mut pair = SchedPair::new("large ties+timeouts".to_string());
    let empty = pair.cal.state_bytes();
    for _ in 0..10 {
        pair.wave(&mut rng, timeouts, 5_000, 2_500);
    }
    let peak = pair.cal.state_bytes();
    assert!(peak > empty, "the calendar grew");
    pair.drain();
    assert!(
        pair.cal.state_bytes() < peak,
        "the drain shrank the bucket table"
    );
}

/// The fifth scheduler shape, on its own stream: fixed-delay pushes
/// through `schedule_in` on up to K lanes (a bufferless fabric's hops, a
/// router's credits and arrivals) interleaved with calendar pushes. Every
/// delay is a multiple of one small unit and the calendar's near pushes
/// land on the same grid, so lanes tie with each other and with the
/// calendar at one instant. The cases cover the zero-delay lane, more
/// delays than [`LANES`] (the rest fall back to the calendar), calendar
/// events pushed just before and just after a lane event at its instant,
/// dense near-term ties and far-future timeouts. Pop for pop against the
/// reference heap, with the pending count, its peak, the scheduled count
/// and the next event time checked after every operation.
///
/// [`LANES`]: baldur::sim::engine::LANES
#[test]
fn fifo_lane_pops_like_the_heap() {
    use baldur::sim::engine::LANES;
    use baldur::sim::Time;
    fn run(
        what: String,
        rng: &mut StreamRng,
        delays: &[u64],
        ops: usize,
        pops: usize,
    ) -> SchedPair {
        let mut pair = SchedPair::new(what);
        let unit = delays.iter().copied().filter(|&d| d > 0).min().unwrap_or(1);
        for _ in 0..ops {
            let now = pair.reference.now.as_ps();
            let delay = delays[rng.gen_range(0..delays.len())];
            match rng.gen_range(0u32..12) {
                0..=2 => {
                    for _ in 0..rng.gen_range(1usize..40) {
                        pair.push_in(delay);
                    }
                }
                3 => {
                    // One event on every lane: ties wherever two delays
                    // meet an earlier push's instant.
                    for &d in delays {
                        pair.push_in(d);
                    }
                }
                4 => {
                    pair.push_at(Time::from_ps(now + delay));
                    pair.push_in(delay);
                }
                5 => {
                    pair.push_in(delay);
                    pair.push_at(Time::from_ps(now + delay));
                }
                6 => pair.push_at(Time::from_ps(now + unit * rng.gen_range(0u64..8))),
                7 => {
                    let far = rng.gen_range(10_000_000u64..1_000_000_000);
                    pair.push_at(Time::from_ps(now + far));
                }
                _ => {
                    for _ in 0..rng.gen_range(1..pops) {
                        if pair.reference.heap.is_empty() {
                            break;
                        }
                        pair.pop();
                    }
                }
            }
            pair.check_counters();
        }
        pair.drain();
        pair.check_counters();
        pair
    }

    for case in 0..CASES {
        let mut rng = case_rng("schdlane", case);
        // One to LANES + 2 distinct delays, multiples of one unit; every
        // fourth case includes the zero delay, whose lane events land at
        // the popping instant itself.
        let unit = rng.gen_range(1u64..700);
        let k = 1 + (case as usize % (LANES + 2));
        let mut delays: Vec<u64> = Vec::new();
        if case % 4 == 0 {
            delays.push(0);
        }
        while delays.len() < k {
            let d = unit * rng.gen_range(1u64..12);
            if !delays.contains(&d) {
                delays.push(d);
            }
        }
        let ops = 50 + (case as usize * 13) % 250;
        run(
            format!("case {case} lane delays {delays:?}"),
            &mut rng,
            &delays,
            ops,
            60,
        );
    }

    // One large run with fewer pops per wave, so the lanes grow to
    // thousands of entries and their rings' capacity shows in the bytes.
    let mut rng = StreamRng::named(0xBA1D, "schdlane", u64::MAX);
    let pair = run(
        "large lanes".to_string(),
        &mut rng,
        &[0, 500, 1_500, 2_000],
        20_000,
        30,
    );
    assert!(
        pair.cal.peak_pending() > 1_000,
        "{}",
        pair.cal.peak_pending()
    );
    assert!(pair.cal.state_bytes() >= 32 * 1_000);
}

/// The port table's epoch format, on its own stream: a [`BusyTable`] and
/// a table of absolute busy-until times take the same random claims,
/// claim for claim, past 2^36 ps (sixteen epochs). Steps mix dense
/// claims, jumps to an entry's exact busy-until time, jumps of up to an
/// epoch and idle gaps longer than one (the rebase that clears every
/// entry); durations include 0 and the `u32::MAX` ps bound. After every
/// claim each busy entry must read its exact time and each free entry a
/// time no later than now.
///
/// [`BusyTable`]: baldur::sim::BusyTable
#[test]
fn busy_table_matches_absolute_times() {
    use baldur::sim::{BusyTable, Duration, Time};
    const EPOCH: u64 = 1 << 32;
    let max = BusyTable::MAX_CLAIM.as_ps();
    let (mut idle_gaps, mut claims) = (0, 0);
    for case in 0..CASES {
        let mut rng = case_rng("busyepch", case);
        let len = rng.gen_range(1usize..24);
        let mut table = BusyTable::new(len);
        let mut reference = vec![Time::ZERO; len];
        let mut now = Time::ZERO;
        let mut claim = 0;
        while now.as_ps() <= 1 << 36 {
            let idle = rng.gen_range(0u32..100) == 0;
            now = if idle {
                idle_gaps += 1;
                now + Duration::from_ps(rng.gen_range(EPOCH..3 * EPOCH))
            } else {
                match rng.gen_range(0u32..20) {
                    0 => now + Duration::from_ps(rng.gen_range(0..=max)),
                    1..=6 => reference[rng.gen_range(0..len)].max(now),
                    7..=10 => now,
                    _ => now + Duration::from_ps(rng.gen_range(1u64..3)),
                }
            };
            let dur = Duration::from_ps(match rng.gen_range(0u32..6) {
                0 => 0,
                1 => max,
                2 => max - rng.gen_range(1u64..4),
                3 => rng.gen_range(0..=max),
                _ => rng.gen_range(1u64..500_000),
            });
            let idx = rng.gen_range(0..len);
            let free = reference[idx] <= now;
            if free {
                reference[idx] = now + dur;
            }
            assert_eq!(
                table.claim(idx, now, dur),
                free,
                "case {case} claim {claim}: entry {idx} at {now} for {dur}"
            );
            for (j, &until) in reference.iter().enumerate() {
                let got = table.busy_until(j).expect("in range");
                if until > now {
                    assert_eq!(got, until, "case {case} claim {claim}: busy entry {j}");
                } else {
                    assert!(
                        got <= now,
                        "case {case} claim {claim}: free entry {j} reads {got}"
                    );
                }
            }
            claim += 1;
        }
        claims += claim;
    }
    assert!(claims > 10_000, "{claims} claims");
    assert!(idle_gaps > CASES, "{idle_gaps} idle gaps");
}

/// The packet table's slab, on its own stream: random interleavings of
/// inserts and frees (bursts of each, frees of free and never-issued
/// slots included) against a reference map of live slots. A new row goes
/// to the most recently freed slot, or to a new slot past the end only
/// when none is free, so the slot count is the peak live population; a
/// freed slot reads as free until reused, and freeing it again changes
/// nothing.
#[test]
fn slab_matches_a_reference_map() {
    use baldur::sim::Slab;
    for case in 0..CASES {
        let mut rng = case_rng("slab", case);
        let mut slab = Slab::new();
        let mut live: BTreeMap<u32, u64> = BTreeMap::new();
        let mut freed: Vec<u32> = Vec::new();
        let (mut peak, mut inserts) = (0usize, 0u64);
        let grow_bias = rng.gen_range(1u32..4);
        for step in 0..rng.gen_range(50u32..600) {
            if live.is_empty() || rng.gen_range(0u32..4) < grow_bias {
                let value = rng.next_u64();
                let slot = slab.insert(value);
                inserts += 1;
                match freed.pop() {
                    Some(last) => assert_eq!(slot, last, "case {case} step {step}: LIFO reuse"),
                    None => assert_eq!(
                        slot as usize,
                        live.len(),
                        "case {case} step {step}: new slot"
                    ),
                }
                assert!(
                    live.insert(slot, value).is_none(),
                    "case {case}: slot {slot} issued twice"
                );
            } else if rng.gen_range(0u32..8) == 0 {
                // A free or never-issued slot: nothing to remove.
                let slot = match freed.last() {
                    Some(&s) if rng.gen_bool(0.5) => s,
                    _ => slab.slots() as u32 + rng.gen_range(0u32..3),
                };
                assert_eq!(slab.remove(slot), None, "case {case} step {step}");
                assert_eq!(slab.get(slot), None, "case {case} step {step}");
            } else {
                let k = rng.gen_range(0..live.len());
                let (&slot, &value) = live.iter().nth(k).expect("k < len");
                live.remove(&slot);
                assert_eq!(slab.remove(slot), Some(value), "case {case} step {step}");
                freed.push(slot);
            }
            peak = peak.max(live.len());
            assert_eq!(slab.live(), live.len() as u64, "case {case} step {step}");
            assert_eq!(
                slab.slots(),
                peak,
                "case {case} step {step}: slots follow the peak"
            );
            for (&slot, value) in &live {
                assert_eq!(slab.get(slot), Some(value), "case {case} step {step}");
                assert_eq!(slab[slot], *value, "case {case} step {step}");
            }
            for &slot in &freed {
                assert_eq!(slab.get(slot), None, "case {case} step {step}");
            }
        }
        let stats = slab.stats();
        assert_eq!(
            (
                stats.live,
                stats.high_water,
                stats.total_inserts,
                stats.slots
            ),
            (live.len() as u64, peak as u64, inserts, peak as u64),
            "case {case}"
        );
    }
}
