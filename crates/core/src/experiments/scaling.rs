//! Datacenter-scale kernel curves: wall-clock, event rate, and memory
//! footprint as the Baldur model grows from 1K toward 1M endpoints.
//!
//! This experiment exercises the struct-of-arrays state layout and the
//! generational packet arenas end to end: each sweep cell builds one
//! Baldur network at `N` endpoints, pushes a light open-loop uniform
//! load through it, and records
//!
//! * wall-clock and events/second (via the clock the bench harness
//!   installs with [`install_wall_clock`]; zero without it, e.g. under
//!   `cargo test`),
//! * peak process RSS (the `VmHWM` probe installed with
//!   [`install_memory_probe`], same caveat),
//! * model state bytes and bytes/endpoint (exact, machine-independent:
//!   flat-table and queue capacities plus arena slabs),
//! * the scheduler's event-list bytes (calendar slab plus bucket table,
//!   by capacity) and arena high-water marks.
//!
//! The simulation outcome columns (`events`, `delivered`, `generated`,
//! `state_bytes`, `queue_bytes`) are bit-deterministic for a fixed seed at
//! any thread count; the timing/RSS columns are measurements. The cells therefore
//! run on an uncached, single-worker sweep, whatever sweep the caller
//! passes: a cache hit would replay a stale wall time and peak RSS, and
//! a parallel neighbour would inflate a cell's process-wide peak RSS.
//! The registry output has no golden snapshot; the deterministic
//! projection of its 1K->4K head ([`deterministic_csv`]) is pinned as
//! `results/golden/scaling_head.csv`. The default sweep tops out at the
//! paper-scale 1,048,576 endpoints; CI exercises the curve through
//! `--smoke` (1K→4K, byte-identical repeat, 1/8-thread invariance) and
//! accepts the full default up to 262,144 on CI-class resources.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::baldur_net::simulate;
use crate::net::config::{BaldurParams, LinkParams, RunSpec};
use crate::net::driver::Driver;
use crate::net::traffic::Pattern;
use crate::registry::{
    fmt_bytes, json_of, outln, section, Axis, AxisKind, ExperimentSpec, Mode, Output, Params,
};
use crate::sweep::Sweep;

const LABEL: &str = "scaling";

static WALL_CLOCK: OnceLock<fn() -> u64> = OnceLock::new();
static MEMORY_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Installs the monotonic nanosecond source behind the advisory
/// `wall_ns` column. `bench::perf` (the only module the wall-clock lint
/// exempts) calls this before handing control to the registry runner.
/// First install wins; without one, every cell reports zero wall time.
pub fn install_wall_clock(clock: fn() -> u64) {
    let _ = WALL_CLOCK.set(clock);
}

/// Installs the peak-RSS probe behind the advisory `peak_rss_bytes`
/// column (bytes of `VmHWM`, read by `bench::perf` from
/// `/proc/self/status`, so the OS read stays on the bench side of the
/// clock lint wall). First install wins; without one, every cell
/// reports zero.
pub fn install_memory_probe(probe: fn() -> u64) {
    let _ = MEMORY_PROBE.set(probe);
}

/// The installed monotonic clock, or zero without one.
fn wall_now_ns() -> u64 {
    WALL_CLOCK.get().map_or(0, |clock| clock())
}

/// Peak process RSS in bytes via the installed probe, or zero without one.
fn peak_rss_bytes() -> u64 {
    MEMORY_PROBE.get().map_or(0, |probe| probe())
}

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "scaling",
    artifact: "Sec. V scale",
    summary: "kernel scaling curves (wall, events/s, RSS, state bytes) to 1M endpoints",
    labels: &[LABEL],
    axes: &[
        Axis {
            name: "endpoints",
            kind: AxisKind::U32List,
            default: "1024,65536,262144,1048576",
            help: "endpoint counts to sweep (rounded up to powers of two)",
        },
        Axis {
            name: "ppn",
            kind: AxisKind::U64,
            default: "2",
            help: "open-loop packets injected per endpoint",
        },
    ],
    flags: &[],
    modes: &[Mode {
        flag: "smoke",
        help: "CI gate: 1K-4K determinism, repeat + thread invariance",
        run: run_smoke,
    }],
    output_columns: &[
        "endpoints",
        "wall_ms",
        "events",
        "events_per_sec",
        "peak_rss_bytes",
        "state_bytes",
        "bytes_per_endpoint",
        "delivered",
        "generated",
        "peak_pending",
        "queue_bytes",
    ],
    golden: None,
    csv_default: Some("results/scaling.csv"),
    json_default: Some("results/scaling.json"),
    gnuplot: None,
    all_figures: af_overrides,
    run: run_sweep,
};

/// `all_figures` caps the curve at 4K endpoints so the full-figure run
/// stays in the minutes regime.
fn af_overrides(_cfg: &EvalConfig) -> Vec<(&'static str, String)> {
    vec![("endpoints", "1024,4096".to_string())]
}

/// One cell of the scaling curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Active endpoints (power of two).
    pub endpoints: u32,
    /// Packets injected per endpoint.
    pub ppn: u32,
    /// Wall-clock for the simulation call, ns (0 without a clock probe).
    pub wall_ns: u64,
    /// Events executed by the kernel.
    pub events: u64,
    /// Total events ever scheduled (>= executed).
    pub events_scheduled: u64,
    /// Peak simultaneous scheduled events.
    pub peak_pending: u64,
    /// Bytes the scheduler's event list reserves (slab plus buckets).
    pub queue_bytes: u64,
    /// Peak process RSS in bytes at measurement time (0 without probe).
    pub peak_rss_bytes: u64,
    /// Model state bytes (flat tables + queues + arena slabs).
    pub state_bytes: u64,
    /// Packet-arena high-water mark (live packets).
    pub arena_high_water: u64,
    /// Delivered packets.
    pub delivered: u64,
    /// Generated packets.
    pub generated: u64,
}

impl ScalingRow {
    /// Events per wall-clock second; 0 without a clock probe.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Model state bytes per endpoint.
    pub fn bytes_per_endpoint(&self) -> f64 {
        f64::from(self.endpoints).recip() * self.state_bytes as f64
    }
}

/// Sweeps the Baldur model over `endpoints` at a light open-loop
/// uniform load (`ppn` packets per endpoint at 50% offered load),
/// measuring kernel throughput and memory footprint per cell.
pub fn scaling_curves(
    sw: &Sweep,
    cfg: &EvalConfig,
    endpoints: &[u32],
    ppn: u32,
) -> Vec<ScalingRow> {
    let items: Vec<(u32, u32, u64)> = endpoints
        .iter()
        .map(|&n| (n.max(2).next_power_of_two(), ppn, cfg.seed))
        .collect();
    sw.map(LABEL, items, |&(n, ppn, seed)| measure(n, ppn, seed))
}

/// Builds, runs, and measures one scale point.
fn measure(endpoints: u32, ppn: u32, seed: u64) -> ScalingRow {
    let link = LinkParams::paper();
    let params = BaldurParams::paper_for(u64::from(endpoints));
    let driver = Driver::open_loop(endpoints, Pattern::UniformRandom, 0.5, ppn, &link, seed);
    let t0 = wall_now_ns();
    let (report, stats) = simulate(endpoints, params, driver, &RunSpec::new(link, seed));
    let wall_ns = wall_now_ns().saturating_sub(t0);
    ScalingRow {
        endpoints,
        ppn,
        wall_ns,
        events: report.events,
        events_scheduled: stats.events_scheduled,
        peak_pending: stats.peak_pending_events,
        queue_bytes: stats.queue_bytes,
        peak_rss_bytes: peak_rss_bytes(),
        state_bytes: stats.state_bytes,
        arena_high_water: stats
            .ack_batches
            .high_water
            .max(stats.pending_batches.high_water),
        delivered: report.delivered,
        generated: report.generated,
    }
}

fn print_rows(out: &mut String, rows: &[ScalingRow]) {
    outln!(
        out,
        "{:>9} | {:>9} | {:>11} | {:>11} | {:>9} | {:>11} | {:>8} | {:>8}",
        "endpoints",
        "wall",
        "events",
        "events/s",
        "peak RSS",
        "state",
        "B/endpt",
        "queue"
    );
    for r in rows {
        outln!(
            out,
            "{:>9} | {:>8.1}ms | {:>11} | {:>11.0} | {:>9} | {:>11} | {:>8.1} | {:>9}",
            r.endpoints,
            r.wall_ns as f64 / 1e6,
            r.events,
            r.events_per_sec(),
            fmt_bytes(r.peak_rss_bytes),
            fmt_bytes(r.state_bytes),
            r.bytes_per_endpoint(),
            fmt_bytes(r.queue_bytes)
        );
    }
}

fn run_sweep(_sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let endpoints = p.u32_list("endpoints")?;
    let ppn = u32::try_from(p.u64("ppn")?).unwrap_or(u32::MAX).max(1);
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Kernel scaling: Baldur endpoints sweep ({} pkts/endpoint, seed {})",
            ppn, cfg.seed
        ),
    );
    // Fresh, serial measurement (see the module notes).
    let rows = scaling_curves(&Sweep::new(1), &cfg, &endpoints, ppn);
    print_rows(&mut out, &rows);
    Ok(Output {
        console: out,
        csv: Some(crate::csv::scaling(&rows)),
        json: Some(json_of("scaling", &rows)?),
        files: Vec::new(),
    })
}

/// The deterministic projection of a scaling row: everything except the
/// wall-clock and RSS measurements. Byte-compared across repeated runs
/// and across sweep thread counts in `--smoke`, and pinned for the
/// 1K->4K head by `results/golden/scaling_head.csv`.
pub fn deterministic_csv(rows: &[ScalingRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "endpoints,ppn,events,events_scheduled,peak_pending,queue_bytes,state_bytes,arena_high_water,delivered,generated\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            r.endpoints,
            r.ppn,
            r.events,
            r.events_scheduled,
            r.peak_pending,
            r.queue_bytes,
            r.state_bytes,
            r.arena_high_water,
            r.delivered,
            r.generated
        );
    }
    out
}

/// CI gate: the 1K->4K head of the curve, run uncached three times —
/// twice single-threaded (byte-identical repeat) and once on an
/// 8-worker sweep (thread invariance) — comparing the deterministic
/// projection byte-for-byte and asserting packet conservation.
fn run_smoke(_sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let endpoints = [1_024u32, 4_096];
    let ppn = 2;
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Scaling smoke: {:?} endpoints, {} pkts/endpoint, seed {}",
            endpoints, ppn, cfg.seed
        ),
    );
    let first = scaling_curves(&Sweep::new(1), &cfg, &endpoints, ppn);
    let second = scaling_curves(&Sweep::new(1), &cfg, &endpoints, ppn);
    let wide = scaling_curves(&Sweep::new(8), &cfg, &endpoints, ppn);
    let det_a = deterministic_csv(&first);
    let det_b = deterministic_csv(&second);
    let det_c = deterministic_csv(&wide);
    let mut violations: Vec<String> = Vec::new();
    if det_a != det_b {
        violations.push("repeated single-thread runs are not byte-identical".to_string());
    }
    if det_a != det_c {
        violations.push("1-thread and 8-thread sweeps diverge".to_string());
    }
    for r in &first {
        if r.delivered != r.generated {
            violations.push(format!(
                "{} endpoints: delivered {} != generated {} with no faults",
                r.endpoints, r.delivered, r.generated
            ));
        }
        if r.state_bytes == 0 {
            violations.push(format!("{} endpoints: zero state bytes", r.endpoints));
        }
    }
    print_rows(&mut out, &first);
    if !violations.is_empty() {
        return Err(BaldurError::Experiment {
            name: "scaling".to_string(),
            message: violations.join("; "),
        });
    }
    outln!(
        out,
        "scaling smoke OK: determinism, thread invariance, conservation hold"
    );
    Ok(Output::console_only(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rows_are_deterministic_and_accounted() {
        let cfg = EvalConfig::tiny();
        let a = scaling_curves(&Sweep::new(0), &cfg, &[64, 128], 2);
        let b = scaling_curves(&Sweep::new(0), &cfg, &[64, 128], 2);
        assert_eq!(deterministic_csv(&a), deterministic_csv(&b));
        assert_eq!(a.len(), 2);
        for r in &a {
            assert_eq!(r.delivered, r.generated);
            assert!(r.state_bytes > 0);
            assert!(r.events_scheduled >= r.events);
            assert!(r.bytes_per_endpoint() > 0.0);
        }
        assert!(a[1].state_bytes > a[0].state_bytes);
    }

    #[test]
    fn endpoint_counts_round_up_to_powers_of_two() {
        let cfg = EvalConfig::tiny();
        let rows = scaling_curves(&Sweep::new(0), &cfg, &[100], 1);
        assert_eq!(rows[0].endpoints, 128);
    }
}
