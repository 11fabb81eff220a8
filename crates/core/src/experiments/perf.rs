//! The `perf` experiment: hot-path microbenchmarks with deterministic
//! work counters and (injected) wall-clock statistics.
//!
//! Every benchmark is a pure function returning [`Counters`] — exact,
//! machine-independent work counts (events popped, packets simulated,
//! bytes encoded). The wall clock is *injected*: this crate never reads
//! `Instant` (the repo-wide lint bans it outside `bench::perf`), so the
//! measurement engine calls whatever monotonic nanosecond source the
//! bench harness installs via [`install_wall_clock`]. Without an
//! installed clock — e.g. under `cargo test` — all wall statistics are
//! zero and only the exact counters are checked, which is precisely
//! what the `--smoke` CI gate wants: wall clock is advisory, ops are
//! law.
//!
//! The default hook emits the `BENCH_8.json` trajectory artifact
//! (schema `baldur-perf/1`): per-benchmark wall statistics
//! (median/min/MAD with outlier rejection), the exact counters, derived
//! ops/sec, and the repo git revision.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

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
    fmt_bytes, fmt_ns, json_of, outln, section, Axis, AxisKind, ExperimentSpec, Mode, Output,
    Params,
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

/// Floor on timed samples per benchmark (medians of fewer are noise).
pub const MIN_SAMPLES: usize = 3;

/// Nodes for the network-level benchmarks (small enough for seconds-long
/// samples, large enough to exercise arbitration and retransmission).
const PERF_NODES: u32 = 64;

/// Passes over the codec working set per sample (amortizes the
/// deterministic payload generation).
const CODEC_PASSES: usize = 8;

/// Bytes in the codec working set.
const CODEC_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Injected wall clock + sample override (installed by `bench::perf`).
// ---------------------------------------------------------------------------

static WALL_CLOCK: OnceLock<fn() -> u64> = OnceLock::new();
static MEMORY_PROBE: OnceLock<fn() -> u64> = OnceLock::new();
static SAMPLE_OVERRIDE: OnceLock<usize> = OnceLock::new();

/// Installs the monotonic nanosecond source used for wall timing.
///
/// `bench::perf` (the only module the wall-clock lint exempts) calls
/// this before handing control to the registry runner. First install
/// wins; later calls are ignored. Without an install, every measurement
/// reports zero wall time and exact counters only.
pub fn install_wall_clock(clock: fn() -> u64) {
    let _ = WALL_CLOCK.set(clock);
}

/// Overrides the sample count (the `BALDUR_BENCH_SAMPLES` escape hatch,
/// parsed and validated by `bench::perf`). Wins over the `samples`
/// axis; values below [`MIN_SAMPLES`] are clamped up. First install
/// wins.
pub fn override_samples(n: usize) {
    let _ = SAMPLE_OVERRIDE.set(n);
}

fn now_ns() -> u64 {
    WALL_CLOCK.get().map_or(0, |clock| clock())
}

/// True once a wall-clock source has been installed.
pub fn wall_clock_installed() -> bool {
    WALL_CLOCK.get().is_some()
}

/// The installed monotonic clock, for experiments that time whole runs
/// (the `scaling` sweep). Zero without an installed clock — wall time is
/// advisory everywhere; exact counters are what gates.
pub fn wall_now_ns() -> u64 {
    now_ns()
}

/// Installs the peak-RSS probe (bytes of `VmHWM`, read by `bench::perf`
/// from `/proc/self/status` — the OS boundary stays on the bench side of
/// the clock lint wall). First install wins. Without an install, every
/// report carries zero peak RSS and memory stays advisory, exactly like
/// the wall clock.
pub fn install_memory_probe(probe: fn() -> u64) {
    let _ = MEMORY_PROBE.set(probe);
}

/// Peak resident-set size of the process in bytes, via the installed
/// probe; zero when none is installed (e.g. under `cargo test`).
pub fn peak_rss_bytes() -> u64 {
    MEMORY_PROBE.get().map_or(0, |probe| probe())
}

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

/// Robust wall-clock statistics over the timed samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WallStats {
    /// Median of the surviving samples, ns.
    pub median_ns: f64,
    /// Minimum of the surviving samples, ns.
    pub min_ns: f64,
    /// Median absolute deviation of the surviving samples, ns.
    pub mad_ns: f64,
    /// Timed samples taken.
    pub samples: u64,
    /// Samples rejected as outliers (deviation > 8 x MAD).
    pub rejected: u64,
}

impl WallStats {
    /// Computes the statistics from raw per-sample wall times.
    ///
    /// Outlier rejection: compute the median and the median absolute
    /// deviation (MAD); when the MAD is positive, drop samples more
    /// than `8 x MAD` from the median (a GC pause, a scheduler
    /// preemption) and recompute on the survivors.
    pub fn from_samples(samples_ns: &[f64]) -> WallStats {
        let mut all = samples_ns.to_vec();
        all.sort_by(f64::total_cmp);
        let med = median_of(&all);
        let mad = mad_of(&all, med);
        let kept: Vec<f64> = if mad > 0.0 {
            all.iter()
                .copied()
                .filter(|x| (x - med).abs() <= 8.0 * mad)
                .collect()
        } else {
            all.clone()
        };
        let med2 = median_of(&kept);
        WallStats {
            median_ns: med2,
            min_ns: kept.first().copied().unwrap_or(0.0),
            mad_ns: mad_of(&kept, med2),
            samples: all.len() as u64,
            rejected: (all.len() - kept.len()) as u64,
        }
    }
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn mad_of(sorted: &[f64], median: f64) -> f64 {
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    median_of(&dev)
}

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark name.
    pub name: String,
    /// Exact work counters (identical across every sample, by
    /// construction — the engine errors out otherwise).
    pub counters: Counters,
    /// Wall-clock statistics (all-zero when no clock is installed).
    pub wall: WallStats,
    /// `ops / median_ns`, in operations per second (zero without a
    /// clock).
    pub ops_per_sec: f64,
}

/// The `BENCH_8.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Repo git revision at emission time (`unknown` outside a
    /// checkout).
    pub git_rev: String,
    /// Resolved worker-thread count (`BALDUR_THREADS`-aware).
    pub threads: usize,
    /// Timed samples per benchmark.
    pub samples: usize,
    /// One record per hot-path benchmark.
    pub benches: Vec<BenchRecord>,
    /// Peak resident-set size in bytes at emission time (zero when no
    /// memory probe is installed; absent in pre-probe artifacts).
    #[serde(default)]
    pub peak_rss_bytes: u64,
}

/// Counters-only view of the benchmark table — the shape the
/// `results/golden/perf_ops.json` CI gate snapshots.
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
    /// Exact counters from one clock-free run.
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

// ---------------------------------------------------------------------------
// The measurement engine.
// ---------------------------------------------------------------------------

/// Runs `work` once untimed (warmup, capturing the expected counters),
/// then `samples` timed runs, each checked to reproduce the warmup
/// counters exactly — a nondeterministic workload is a hard error, not
/// a noisy number.
fn measure(name: &str, samples: usize, work: fn() -> Counters) -> Result<BenchRecord, BaldurError> {
    let expected = work();
    let mut wall = Vec::with_capacity(samples);
    for i in 0..samples {
        let t0 = now_ns();
        let got = work();
        let t1 = now_ns();
        if got != expected {
            return Err(BaldurError::Experiment {
                name: "perf".to_string(),
                message: format!(
                    "bench `{name}` sample {i}: counters diverged from warmup \
                     ({got:?} vs {expected:?}) — the workload is not deterministic"
                ),
            });
        }
        wall.push(t1.saturating_sub(t0) as f64);
    }
    let stats = WallStats::from_samples(&wall);
    let ops_per_sec = if stats.median_ns > 0.0 {
        expected.ops as f64 / (stats.median_ns * 1e-9)
    } else {
        0.0
    };
    Ok(BenchRecord {
        name: name.to_string(),
        counters: expected,
        wall: stats,
        ops_per_sec,
    })
}

/// One clock-free pass over every benchmark: the exact-counters view
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

/// Measures every benchmark at `samples` timed samples each. This is the engine behind the default hook; tests call
/// it directly (clock-free) to validate the schema.
pub fn bench_report(samples: usize) -> Result<BenchReport, BaldurError> {
    let samples = samples.max(MIN_SAMPLES);
    let mut benches = Vec::with_capacity(BENCHES.len());
    for b in &BENCHES {
        benches.push(measure(b.name, samples, b.work)?);
    }
    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        git_rev: git_rev(),
        threads: crate::sim::par::thread_count(0),
        samples,
        benches,
        peak_rss_bytes: peak_rss_bytes(),
    })
}

/// Resolves the sample count: the validated `BALDUR_BENCH_SAMPLES`
/// override (installed by the bench harness) wins over the `samples`
/// axis; zero on the axis is a usage error; 1–2 clamp up to
/// [`MIN_SAMPLES`].
fn resolve_samples(p: &Params) -> Result<usize, BaldurError> {
    if let Some(&n) = SAMPLE_OVERRIDE.get() {
        return Ok(n.max(MIN_SAMPLES));
    }
    let n = p.u64("samples")? as usize;
    if n == 0 {
        return Err(BaldurError::InvalidParam {
            param: "samples".to_string(),
            message: "must be >= 1 (values below 3 clamp up to 3; 0 would measure nothing)"
                .to_string(),
        });
    }
    Ok(n.max(MIN_SAMPLES))
}

/// The repo's current git revision, resolved by hand from `.git` (no
/// subprocess): `HEAD` directly, through `refs/`, or through
/// `packed-refs`. `unknown` when any step fails.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let Ok(head) = std::fs::read_to_string(root.join(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(root.join(".git").join(reference)) {
        return hash.trim().to_string();
    }
    if let Ok(packed) = std::fs::read_to_string(root.join(".git/packed-refs")) {
        for line in packed.lines() {
            if let Some((hash, name)) = line.split_once(' ') {
                if name.trim() == reference {
                    return hash.to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

// ---------------------------------------------------------------------------
// Registry hooks.
// ---------------------------------------------------------------------------

fn run_hook(_sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let samples = resolve_samples(p)?;
    let report = bench_report(samples)?;
    let mut console = String::new();
    section(&mut console, "hot-path benchmarks");
    if !wall_clock_installed() {
        outln!(
            console,
            "(no wall clock installed: counters exact, times zero)"
        );
    }
    outln!(
        console,
        "{:<26} {:>14} {:>12} {:>12} {:>12} {:>14}",
        "bench",
        "ops",
        "median",
        "min",
        "mad",
        "ops/sec"
    );
    for b in &report.benches {
        outln!(
            console,
            "{:<26} {:>14} {:>12} {:>12} {:>12} {:>14.3e}",
            b.name,
            b.counters.ops,
            fmt_ns(b.wall.median_ns),
            fmt_ns(b.wall.min_ns),
            fmt_ns(b.wall.mad_ns),
            b.ops_per_sec
        );
    }
    outln!(console);
    outln!(
        console,
        "git {} | {} threads | {} samples/bench | peak rss {}",
        report.git_rev,
        report.threads,
        report.samples,
        fmt_bytes(report.peak_rss_bytes)
    );
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

fn all_figures_overrides(_cfg: &EvalConfig) -> Vec<(&'static str, String)> {
    // The full figure set wants the artifact, not tight statistics.
    vec![("samples", "3".to_string())]
}

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "perf",
    artifact: "BENCH_8",
    summary: "hot-path microbenchmarks: exact work counters + wall-clock statistics",
    version: VERSION,
    labels: &[LABEL],
    axes: &[Axis {
        name: "samples",
        kind: AxisKind::U64,
        default: "10",
        help: "timed samples per benchmark (min 3; BALDUR_BENCH_SAMPLES overrides, 0 rejected)",
    }],
    flags: &[],
    modes: &[Mode {
        flag: "smoke",
        help: "gate exact work counters against results/golden/perf_ops.json",
        run: smoke_hook,
    }],
    output_columns: &[
        "bench",
        "ops",
        "packets",
        "bytes",
        "median_ns",
        "min_ns",
        "mad_ns",
        "ops_per_sec",
    ],
    golden: None,
    csv_default: None,
    json_default: Some("BENCH_8.json"),
    gnuplot: None,
    all_figures: all_figures_overrides,
    run: run_hook,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_stats_reject_outliers() {
        let s = WallStats::from_samples(&[100.0, 102.0, 98.0, 101.0, 99.0, 10_000.0]);
        assert_eq!(s.samples, 6);
        assert_eq!(s.rejected, 1);
        assert!((s.median_ns - 100.0).abs() < 1.5, "{}", s.median_ns);
        assert!((s.min_ns - 98.0).abs() < 1e-9);
    }

    #[test]
    fn wall_stats_keep_everything_at_zero_mad() {
        let s = WallStats::from_samples(&[50.0, 50.0, 50.0, 50.0]);
        assert_eq!(s.rejected, 0);
        assert!((s.median_ns - 50.0).abs() < 1e-9);
        assert!((s.mad_ns - 0.0).abs() < 1e-9);
    }

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
