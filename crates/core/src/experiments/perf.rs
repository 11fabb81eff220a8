//! The `perf` experiment: hot-path microbenchmarks with exact,
//! deterministic work counters.
//!
//! Every benchmark is a pure function returning [`Counters`] — exact,
//! machine-independent work counts (events popped, packets simulated,
//! bytes encoded). No host clock is read: host time comes from the
//! `benchmark/` package's child processes. The `--smoke` CI gate runs
//! every workload twice and compares both passes with the blessed
//! `results/golden/perf_ops.json` byte for byte.
//!
//! The default hook prints the same counters as a table (and, with
//! `--json PATH`, the [`OpsReport`] document, schema `baldur-perf/1`).

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::config::BaldurParams;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::phy::eightbtenb::{Code10, Decoder, Encoder};
use crate::phy::length_code::LengthCode;
use crate::phy::packet_wave::assemble;
use crate::phy::waveform::{Fs, BIT_PERIOD_FS};
use crate::registry::{
    json_of, no_overrides, outln, section, ExperimentSpec, Mode, Output, Params,
};
use crate::sim::rng::StreamRng;
use crate::sim::{Scheduler, Time};
use crate::sweep::Sweep;
use crate::tl::netlist::{CircuitSim, Netlist, RunOutcome};
use crate::tl::switch::{build_switch, SwitchParams};

const LABEL: &str = "perf";
const VERSION: u32 = 1;

/// Schema tag stamped into every emitted report.
pub const SCHEMA: &str = "baldur-perf/1";

/// Nodes for the network-level benchmarks (small enough for a
/// seconds-long run, large enough to exercise arbitration and
/// retransmission).
const PERF_NODES: u32 = 64;

/// Passes over the codec working set per run (amortizes the
/// deterministic payload generation).
const CODEC_PASSES: usize = 8;

/// Bytes in the codec working set.
const CODEC_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Report schema.
// ---------------------------------------------------------------------------

/// Exact, machine-independent work counts of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Primary unit of work (events popped, symbols coded, ...).
    pub ops: u64,
    /// Packets simulated (zero for the kernel/codec benches).
    pub packets: u64,
    /// Bytes encoded/decoded (zero for the non-codec benches).
    pub bytes: u64,
}

/// The benchmark table: one exact-counter row per workload — the shape
/// the `results/golden/perf_ops.json` CI gate snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpsReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// One row per benchmark, in table order.
    pub benches: Vec<OpsRow>,
}

/// One row of [`OpsReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpsRow {
    /// Benchmark name.
    pub name: String,
    /// Exact counters from one run.
    pub counters: Counters,
}

// ---------------------------------------------------------------------------
// The benchmark workloads.
// ---------------------------------------------------------------------------

struct BenchDef {
    name: &'static str,
    work: fn() -> Counters,
}

static BENCHES: [BenchDef; 7] = [
    BenchDef {
        name: "sched_heap_push_pop",
        work: sched_heap,
    },
    BenchDef {
        name: "sched_calendar_push_pop",
        work: sched_calendar,
    },
    BenchDef {
        name: "codec_encode",
        work: codec_encode,
    },
    BenchDef {
        name: "codec_decode",
        work: codec_decode,
    },
    BenchDef {
        name: "tl_gate_loop",
        work: tl_gate_loop,
    },
    BenchDef {
        name: "baldur_arb_retx",
        work: baldur_arb_retx,
    },
    BenchDef {
        name: "fig6_throughput",
        work: fig6_throughput,
    },
];

/// Scheduler push/pop under a bursty, tie-heavy arrival process: ten
/// waves of 10k pushes clustered into a 50 ns window, half-drained
/// between waves, fully drained at the end. Identical event sequence on
/// both queue backends (the differential property test proves it).
fn sched_with(mut sched: Scheduler<u64>) -> Counters {
    let mut rng = StreamRng::named(0xBA1D, "perfschd", 0);
    let mut acc = 0u64;
    let mut pushes = 0u64;
    let mut pops = 0u64;
    for wave in 0..10u64 {
        let base = sched.now().as_ps();
        for i in 0..10_000u64 {
            let at = Time::from_ps(base + rng.gen_range(0..50_000u64));
            sched.schedule_at(at, wave * 10_000 + i);
            pushes += 1;
        }
        for _ in 0..5_000 {
            // 10k pushes, 5k pops per wave: the queue cannot drain here,
            // and if it somehow did the ops golden would catch it.
            let Some((at, seq, ev)) = sched.pop_scheduled() else {
                break;
            };
            acc ^= at.as_ps().wrapping_mul(31) ^ seq ^ ev;
            pops += 1;
        }
    }
    while let Some((at, seq, ev)) = sched.pop_scheduled() {
        acc ^= at.as_ps().wrapping_mul(31) ^ seq ^ ev;
        pops += 1;
    }
    std::hint::black_box(acc);
    Counters {
        ops: pushes + pops,
        packets: 0,
        bytes: 0,
    }
}

fn sched_heap() -> Counters {
    // Pinned: `Scheduler::new()` self-promotes to the calendar queue above
    // `PROMOTE_PENDING`, and this workload peaks well past it.
    sched_with(Scheduler::new_heap())
}

fn sched_calendar() -> Counters {
    sched_with(Scheduler::new_calendar())
}

fn codec_payload() -> Vec<u8> {
    let mut bytes = vec![0u8; CODEC_BYTES];
    StreamRng::named(0xBA1D, "perfcdc", 0).fill_bytes(&mut bytes);
    bytes
}

fn codec_encode() -> Counters {
    let bytes = codec_payload();
    let mut acc = 0u16;
    let mut ops = 0u64;
    for _ in 0..CODEC_PASSES {
        let mut enc = Encoder::new();
        for &b in &bytes {
            acc ^= enc.encode_data(b).0;
            ops += 1;
        }
    }
    std::hint::black_box(acc);
    Counters {
        ops,
        packets: 0,
        bytes: ops,
    }
}

fn codec_codes() -> Vec<Code10> {
    let bytes = codec_payload();
    let mut enc = Encoder::new();
    bytes.iter().map(|&b| enc.encode_data(b)).collect()
}

fn codec_decode() -> Counters {
    let codes = codec_codes();
    let mut acc = 0u32;
    let mut ops = 0u64;
    for _ in 0..CODEC_PASSES {
        let mut dec = Decoder::new();
        for &c in &codes {
            match dec.decode(c) {
                Ok(sym) => acc = acc.wrapping_add(u32::from(sym.byte())),
                Err(_) => acc = acc.wrapping_add(0x1000),
            }
            ops += 1;
        }
    }
    std::hint::black_box(acc);
    Counters {
        ops,
        packets: 0,
        bytes: ops,
    }
}

/// A 2x2 switch with both inputs driven (the contention case exercises
/// the full gate population), probes on both outputs.
fn tl_build() -> (CircuitSim, Fs) {
    let code = LengthCode::paper();
    let t = BIT_PERIOD_FS;
    let mut n = Netlist::new();
    let sw = build_switch(&mut n, SwitchParams::paper());
    let mut sim = CircuitSim::new(n);
    sim.probe(sw.outputs[0]);
    sim.probe(sw.outputs[1]);
    let p0 = assemble(&code, &[false, true], b"PERFPACKET-A", 10 * t);
    let p1 = assemble(&code, &[false, false], b"PERFPACKET-B", 12 * t);
    sim.drive(sw.inputs[0], &p0.wave);
    sim.drive(sw.inputs[1], &p1.wave);
    (sim, p0.end.max(p1.end) + 3_000_000)
}

fn tl_gate_loop() -> Counters {
    let (mut sim, horizon) = tl_build();
    let out = sim.run(horizon);
    assert!(matches!(out, RunOutcome::Settled { .. }), "{out:?}");
    Counters {
        ops: sim.events_executed(),
        packets: 2,
        bytes: 24,
    }
}

/// A full Baldur run at high load: random permutation at 0.9 forces the
/// arbitration + exponential-backoff retransmission machinery.
fn baldur_arb_retx() -> Counters {
    let net = NetworkKind::Baldur(BaldurParams::paper_for(u64::from(PERF_NODES)));
    let rc = RunConfig::new(
        PERF_NODES,
        net,
        Workload::Synthetic {
            pattern: Pattern::RandomPermutation,
            load: 0.9,
            packets_per_node: 60,
        },
    );
    let r = run(&rc);
    Counters {
        ops: r.events,
        packets: r.delivered,
        bytes: 0,
    }
}

/// A whole fig6-shaped sweep (all four patterns, Baldur, one load)
/// through the parallel sweep harness — the end-to-end throughput path,
/// and the benchmark the `BALDUR_THREADS=1/8` CI gate leans on.
fn fig6_throughput() -> Counters {
    let cfg = EvalConfig {
        nodes: PERF_NODES,
        packets_per_node: 40,
        pingpong_rounds: 10,
        seed: 0xBA1D,
        threads: 0,
    };
    let lineup = vec![(
        "baldur".to_string(),
        NetworkKind::Baldur(BaldurParams::paper_for(u64::from(cfg.nodes))),
    )];
    let rows = super::fig6::figure6(&Sweep::new(0), &cfg, &lineup, &[0.5]);
    let mut ops = 0u64;
    let mut packets = 0u64;
    for row in &rows {
        ops += row.report.events;
        packets += row.report.delivered;
    }
    Counters {
        ops,
        packets,
        bytes: 0,
    }
}

/// One pass over every benchmark: the exact-counters view
/// the CI gate and the freshness test snapshot.
pub fn ops_report() -> OpsReport {
    OpsReport {
        schema: SCHEMA.to_string(),
        benches: BENCHES
            .iter()
            .map(|b| OpsRow {
                name: b.name.to_string(),
                counters: (b.work)(),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Registry hooks.
// ---------------------------------------------------------------------------

fn run_hook(_sw: &Sweep, _p: &Params) -> Result<Output, BaldurError> {
    let report = ops_report();
    let mut console = String::new();
    section(&mut console, "hot-path benchmarks (exact work counters)");
    outln!(
        console,
        "{:<26} {:>14} {:>10} {:>10}",
        "bench",
        "ops",
        "packets",
        "bytes"
    );
    for b in &report.benches {
        outln!(
            console,
            "{:<26} {:>14} {:>10} {:>10}",
            b.name,
            b.counters.ops,
            b.counters.packets,
            b.counters.bytes
        );
    }
    Ok(Output {
        console,
        csv: None,
        json: Some(json_of("perf", &report)?),
        files: Vec::new(),
    })
}

/// The `--smoke` CI gate: two in-process counter passes must agree
/// byte-for-byte, and both must match the blessed
/// `results/golden/perf_ops.json` exactly. No wall clock is read.
fn smoke_hook(_sw: &Sweep, _p: &Params) -> Result<Output, BaldurError> {
    let first = ops_report();
    let second = ops_report();
    let first_json = json_of("perf", &first)?;
    let second_json = json_of("perf", &second)?;
    if first_json != second_json {
        return Err(BaldurError::Experiment {
            name: "perf".to_string(),
            message: "ops counters differ between two in-process passes — \
                      a benchmark workload is nondeterministic"
                .to_string(),
        });
    }
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/golden/perf_ops.json");
    let golden = std::fs::read_to_string(&golden_path).map_err(|e| BaldurError::Experiment {
        name: "perf".to_string(),
        message: format!(
            "read {}: {e} (bless it with ./ci.sh --bless)",
            golden_path.display()
        ),
    })?;
    if golden.trim_end() != first_json {
        let mismatch = match serde_json::from_str::<OpsReport>(&golden) {
            Ok(blessed) => describe_ops_mismatch(&blessed, &first),
            Err(e) => format!("golden does not parse as an OpsReport: {e:?}"),
        };
        return Err(BaldurError::Experiment {
            name: "perf".to_string(),
            message: format!(
                "work counters drifted from {}: {mismatch} — if the change is \
                 intentional, re-bless with ./ci.sh --bless",
                golden_path.display()
            ),
        });
    }
    let mut console = String::new();
    section(&mut console, "perf smoke");
    outln!(
        console,
        "counters: {} benches, two passes identical, golden match",
        first.benches.len()
    );
    Ok(Output {
        console,
        csv: None,
        json: None,
        files: Vec::new(),
    })
}

/// Pinpoints the first counter divergence for the smoke error message.
fn describe_ops_mismatch(blessed: &OpsReport, fresh: &OpsReport) -> String {
    if blessed.schema != fresh.schema {
        return format!("schema `{}` vs blessed `{}`", fresh.schema, blessed.schema);
    }
    if blessed.benches.len() != fresh.benches.len() {
        return format!(
            "{} benches vs blessed {}",
            fresh.benches.len(),
            blessed.benches.len()
        );
    }
    for (b, f) in blessed.benches.iter().zip(&fresh.benches) {
        if b.name != f.name {
            return format!("bench order: `{}` vs blessed `{}`", f.name, b.name);
        }
        if b.counters != f.counters {
            return format!(
                "bench `{}`: {:?} vs blessed {:?}",
                f.name, f.counters, b.counters
            );
        }
    }
    "formatting drift only (counters identical)".to_string()
}

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "perf",
    artifact: "hot paths",
    summary: "hot-path microbenchmarks: exact work counters",
    version: VERSION,
    labels: &[LABEL],
    axes: &[],
    flags: &[],
    modes: &[Mode {
        flag: "smoke",
        help: "gate exact work counters against results/golden/perf_ops.json",
        run: smoke_hook,
    }],
    output_columns: &["bench", "ops", "packets", "bytes"],
    golden: None,
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: no_overrides,
    run: run_hook,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_counters_are_exact() {
        let ops = (CODEC_BYTES * CODEC_PASSES) as u64;
        let want = Counters {
            ops,
            packets: 0,
            bytes: ops,
        };
        assert_eq!(codec_encode(), want);
        assert_eq!(codec_decode(), want);
    }

    #[test]
    fn sched_backends_count_identically() {
        let heap = sched_heap();
        let cal = sched_calendar();
        assert_eq!(heap, cal);
        assert_eq!(heap.ops, 200_000);
    }
}
