//! Chaos convergence: seeded random fault/repair schedules, the runtime
//! invariant oracle, and recovery-time guarantees.
//!
//! The default entry point sweeps many seeded [`FaultPlan::chaos`]
//! schedules (matched fail→repair pairs over links, switches, lasers, or
//! routers) across Baldur and an electrical baseline, with the release
//! build's invariant oracle on. Every run must end with zero oracle
//! violations, exact packet conservation, and a bounded time-to-recover
//! after each repair; any violation aborts with a greedily minimized
//! reproduction (drop fault events while the violation persists, print
//! the shrunk plan and seed).
//!
//! Two extra modes ride on the same spec:
//!
//! * `--smoke` — CI gate: few seeds on a small topology, asserting zero
//!   violations, byte-identical repeat runs, and the recovery-time
//!   bound; errs (exit 1) on any violation.
//! * `--shrink-demo` — drives the shrinker against an intentionally
//!   wedged run (a chaos schedule plus one unmatched kill-everything
//!   event under an aggressive stall deadline) and checks it minimizes
//!   to exactly the one guilty event.

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::faults::{ChaosProfile, ChaosShape, FaultKind, FaultPlan};
use crate::net::metrics::LatencyReport;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::registry::{
    fmt_ns, json_of, networks_axis, outln, section, Axis, AxisKind, ExperimentSpec, Mode, Output,
    Params,
};
use crate::sweep::Sweep;

const LABEL: &str = "chaos";
const VERSION: u32 = 1;

/// A repair the traffic recovered from must return goodput to half the
/// pre-fault rate within this bound (simulated time).
const RECOVERY_BOUND_NS: f64 = 2_000_000.0; // 2 ms

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "chaos",
    artifact: "Sec. IV-E/F",
    summary: "seeded fault/repair chaos schedules with runtime oracle and recovery bounds",
    version: VERSION,
    labels: &[LABEL],
    axes: &[
        Axis {
            name: "seeds",
            kind: AxisKind::U64,
            default: "32",
            help: "number of seeded chaos schedules per network",
        },
        Axis {
            name: "pairs",
            kind: AxisKind::U64,
            default: "6",
            help: "fail/repair pairs per schedule",
        },
        Axis {
            name: "networks",
            kind: AxisKind::StrList,
            default: "baldur,fattree",
            help: "networks to torture (ideal is always skipped)",
        },
    ],
    flags: &[],
    modes: &[
        Mode {
            flag: "smoke",
            help: "CI gate: zero violations + recovery bound on few seeds",
            run: run_smoke,
        },
        Mode {
            flag: "shrink-demo",
            help: "minimize an intentionally failing fault plan",
            run: run_shrink_demo,
        },
    ],
    output_columns: &[
        "network",
        "seed",
        "events",
        "repairs",
        "violations",
        "recovered",
        "max_ttr_ns",
        "stranded",
        "flap_amp",
        "delivered",
        "abandoned",
        "generated",
    ],
    golden: Some("chaos.csv"),
    csv_default: Some("results/chaos.csv"),
    json_default: Some("results/chaos.json"),
    gnuplot: None,
    all_figures: crate::registry::no_overrides,
    run: run_sweep,
};

/// One chaos schedule's outcome on one network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosRow {
    /// Network name.
    pub network: String,
    /// The schedule's seed (also the run seed).
    pub seed: u64,
    /// Fault events in the schedule.
    pub events: usize,
    /// The measured report: oracle summary, per-repair recovery times,
    /// stranded count, and flap amplification ride on it.
    pub report: LatencyReport,
}

/// The fault surface a chaos schedule draws from, per network: the
/// staged fabric's dimensions for Baldur, a router-count prefix for the
/// electrical baselines (kills outside the real topology are ignored by
/// construction, so a conservative count stays safe).
fn shape_for(net: &NetworkKind, nodes: u32) -> ChaosShape {
    match net {
        NetworkKind::Baldur(bp) => {
            let tn = nodes.next_power_of_two().max(4);
            ChaosShape {
                stages: tn.trailing_zeros(),
                width: tn / 2,
                m: bp.multiplicity,
                nodes,
                routers: 0,
            }
        }
        _ => ChaosShape {
            stages: 0,
            width: 0,
            m: 0,
            nodes,
            routers: (nodes / 4).max(1),
        },
    }
}

/// Sizes the fail/repair window to the run: open-loop traffic at load
/// 0.5 streams for roughly `ppn * packet_time / load`, so faults start
/// after a warmup eighth and every repair lands by the half-way point,
/// leaving live traffic to measure recovery against.
fn profile_for(ppn: u32, pairs: u32) -> ChaosProfile {
    let duration_ps = u64::from(ppn) * 330_000;
    ChaosProfile {
        warmup_ps: duration_ps / 8,
        last_repair_ps: duration_ps / 2,
        pairs,
    }
}

fn chaos_run_config(cfg: &EvalConfig, net: &NetworkKind, seed: u64, pairs: u32) -> RunConfig {
    let shape = shape_for(net, cfg.nodes);
    let profile = profile_for(cfg.packets_per_node, pairs);
    let plan = FaultPlan::chaos(seed, &shape, &profile);
    RunConfig {
        seed,
        ..RunConfig::new(
            cfg.nodes,
            net.clone(),
            Workload::Synthetic {
                pattern: Pattern::UniformRandom,
                load: 0.5,
                packets_per_node: cfg.packets_per_node,
            },
        )
    }
    .with_faults(plan)
}

/// Runs `seeds` chaos schedules per (non-ideal) network of `lineup`
/// (the registry's `networks` axis) through the supervised sweep
/// machinery.
pub fn chaos(
    sw: &Sweep,
    cfg: &EvalConfig,
    lineup: &[(String, NetworkKind)],
    seeds: u64,
    pairs: u32,
) -> Vec<ChaosRow> {
    let mut items: Vec<(String, u64, RunConfig)> = Vec::new();
    for (name, net) in lineup {
        if matches!(net, NetworkKind::Ideal) {
            continue;
        }
        for s in 0..seeds {
            let seed = cfg.seed.wrapping_add(s);
            let rc = chaos_run_config(cfg, net, seed, pairs);
            items.push((name.clone(), seed, rc));
        }
    }
    sw.map(LABEL, VERSION, items, |(name, seed, rc)| ChaosRow {
        network: name.clone(),
        seed: *seed,
        events: rc.faults.as_ref().map_or(0, |p| p.events.len()),
        report: run(rc),
    })
}

fn print_rows(out: &mut String, rows: &[ChaosRow]) {
    outln!(
        out,
        "{:>10} | {:>6} | {:>6} | {:>7} | {:>10} | {:>9} | {:>8} | {:>8}",
        "network",
        "seed",
        "events",
        "repairs",
        "violation",
        "recovered",
        "max ttr",
        "flap amp"
    );
    for r in rows {
        let recovered = r.report.recoveries.iter().filter(|x| x.recovered()).count();
        outln!(
            out,
            "{:>10} | {:>6} | {:>6} | {:>7} | {:>10} | {:>9} | {:>8} | {:>8.3}",
            r.network,
            r.seed,
            r.events,
            r.report.recoveries.len(),
            r.report.oracle.total(),
            recovered,
            r.report
                .max_recovery_ns()
                .map_or_else(|| "-".to_string(), fmt_ns),
            r.report.flap_amplification()
        );
    }
}

/// The convergence gate shared by the default run and the smoke: zero
/// oracle violations, exact conservation, and every recovered repair
/// inside the recovery-time bound. Returns human-readable complaints.
fn gate(rows: &[ChaosRow]) -> Vec<String> {
    let mut complaints = Vec::new();
    let mut any_recovered = false;
    for r in rows {
        if !r.report.oracle.is_clean() {
            complaints.push(format!(
                "{} seed {}: {} oracle violation(s), first: {}",
                r.network,
                r.seed,
                r.report.oracle.total(),
                r.report
                    .oracle
                    .reports
                    .first()
                    .map_or_else(|| "(suppressed)".to_string(), |v| v.to_string()),
            ));
        }
        if r.report.delivered + r.report.abandoned != r.report.generated {
            complaints.push(format!(
                "{} seed {}: conservation broken ({} + {} != {})",
                r.network, r.seed, r.report.delivered, r.report.abandoned, r.report.generated
            ));
        }
        for rec in &r.report.recoveries {
            if let Some(ttr_ns) = rec.time_to_recover_ns {
                any_recovered = true;
                if ttr_ns > RECOVERY_BOUND_NS {
                    complaints.push(format!(
                        "{} seed {}: repair at {} recovered in {} (> bound {})",
                        r.network,
                        r.seed,
                        fmt_ns(rec.repair_at_ns),
                        fmt_ns(ttr_ns),
                        fmt_ns(RECOVERY_BOUND_NS)
                    ));
                }
            }
        }
    }
    if !rows.is_empty() && !any_recovered {
        complaints.push("no repair event showed measurable recovery".to_string());
    }
    complaints
}

/// Re-runs one failing row's configuration while greedily dropping fault
/// events, returning the 1-minimal plan that still trips the oracle plus
/// a printable reproduction.
fn minimize_failure(cfg: &EvalConfig, row: &ChaosRow, net: &NetworkKind, pairs: u32) -> String {
    use crate::net::faults::shrink_plan;
    let rc = chaos_run_config(cfg, net, row.seed, pairs);
    let Some(plan) = rc.faults.clone() else {
        return "no plan to shrink".to_string();
    };
    let base = rc.clone();
    let shrunk = shrink_plan(&plan, |p| {
        let probe = base.clone().with_faults(p.clone());
        !run(&probe).oracle.is_clean()
    });
    format!(
        "minimized reproduction (seed {}): {} of {} events suffice: {:?}",
        row.seed,
        shrunk.events.len(),
        row.events,
        shrunk.events
    )
}

fn run_sweep(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let seeds = p.u64("seeds")?.max(1);
    let pairs = p.u64("pairs")?.max(1) as u32;
    let lineup = networks_axis(p, cfg.nodes)?;
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Chaos convergence: {seeds} seeded fail/repair schedules x {} network(s) ({} nodes)",
            lineup.len(),
            cfg.nodes
        ),
    );
    let rows = chaos(sw, &cfg, &lineup, seeds, pairs);
    print_rows(&mut out, &rows);
    let complaints = gate(&rows);
    if let Some(first) = complaints.first() {
        let offender = rows.iter().find(|r| !r.report.oracle.is_clean());
        let repro = offender
            .and_then(|r| {
                lineup
                    .iter()
                    .find(|(n, _)| *n == r.network)
                    .map(|(_, net)| minimize_failure(&cfg, r, net, pairs))
            })
            .unwrap_or_default();
        return Err(BaldurError::Experiment {
            name: "chaos".to_string(),
            message: format!("{} complaint(s); first: {first}; {repro}", complaints.len()),
        });
    }
    outln!(
        out,
        "chaos gate OK: zero violations, conservation exact, recoveries within {}",
        fmt_ns(RECOVERY_BOUND_NS)
    );
    Ok(Output {
        console: out,
        csv: Some(crate::csv::chaos(&rows)),
        json: Some(json_of("chaos", &rows)?),
        files: Vec::new(),
    })
}

/// CI gate: few seeds, small topology, byte-identical repeat, zero
/// violations, bounded recovery.
fn run_smoke(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let small = EvalConfig {
        nodes: cfg.nodes.min(64),
        packets_per_node: cfg.packets_per_node.clamp(40, 60),
        ..cfg
    };
    let seeds = 6;
    let pairs = 4;
    let lineup = networks_axis(p, small.nodes)?;
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Chaos smoke: {} nodes, {} pkts/node, {seeds} seeds from {}",
            small.nodes, small.packets_per_node, small.seed
        ),
    );
    let first = chaos(sw, &small, &lineup, seeds, pairs);
    let second = chaos(sw, &small, &lineup, seeds, pairs);
    let csv_a = crate::csv::chaos(&first);
    let csv_b = crate::csv::chaos(&second);
    print_rows(&mut out, &first);
    let mut complaints = gate(&first);
    if csv_a != csv_b {
        complaints.push("same-seed chaos runs are not byte-identical".to_string());
    }
    if let Some(first_complaint) = complaints.first() {
        let offender = first.iter().find(|r| !r.report.oracle.is_clean());
        let repro = offender
            .and_then(|r| {
                lineup
                    .iter()
                    .find(|(n, _)| *n == r.network)
                    .map(|(_, net)| minimize_failure(&small, r, net, pairs))
            })
            .unwrap_or_default();
        return Err(BaldurError::Experiment {
            name: "chaos".to_string(),
            message: format!(
                "{} complaint(s); first: {first_complaint}; {repro}",
                complaints.len()
            ),
        });
    }
    outln!(
        out,
        "chaos smoke OK: oracle quiet, runs byte-identical, recoveries within {}",
        fmt_ns(RECOVERY_BOUND_NS)
    );
    Ok(Output::console_only(out))
}

/// Demonstrates the minimizer: a benign chaos schedule plus one
/// unmatched kill-everything event, run with an unforgiving stall
/// deadline and an effectively infinite retry budget, livelocks — the
/// stuck-flow detector fires and the shrinker must strip every benign
/// pair, leaving exactly the guilty event.
fn run_shrink_demo(_sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    use crate::net::baldur_net::simulate;
    use crate::net::config::{BaldurParams, LinkParams, RunSpec};
    use crate::net::driver::Driver;
    use crate::net::faults::shrink_plan;
    use crate::net::oracle::OracleConfig;

    let cfg = p.cfg;
    let nodes = 16u32;
    let ppn = 30u32;
    let params = BaldurParams {
        max_retries: 1_000_000, // never give up: a dead fabric livelocks
        ..BaldurParams::paper_for(u64::from(nodes))
    };
    let shape = ChaosShape {
        stages: 4,
        width: 8,
        m: params.multiplicity,
        nodes,
        routers: 0,
    };
    let profile = profile_for(ppn, 4);
    let guilty_at = profile.last_repair_ps + 1_000_000;
    let plan = FaultPlan::chaos(cfg.seed, &shape, &profile)
        .at(guilty_at, FaultKind::FailFraction { fraction: 1.0 });
    let total_events = plan.events.len();
    let ocfg = OracleConfig {
        stall_ps: 2_000_000, // 2 us of silence with work outstanding
        ..OracleConfig::default()
    };
    let fails = |pl: &FaultPlan| {
        let d = Driver::open_loop(
            nodes,
            Pattern::UniformRandom,
            0.5,
            ppn,
            &LinkParams::paper(),
            cfg.seed,
        );
        let spec = RunSpec {
            plan: pl.clone(),
            oracle: ocfg,
            ..RunSpec::new(LinkParams::paper(), cfg.seed)
        };
        !simulate(nodes, params, d, &spec).0.oracle.is_clean()
    };

    let mut out = String::new();
    section(
        &mut out,
        &format!("Shrink demo: {total_events} scheduled events, one of them fatal"),
    );
    if !fails(&plan) {
        return Err(BaldurError::Experiment {
            name: "chaos".to_string(),
            message: "the wedged fixture did not trip the oracle".to_string(),
        });
    }
    let shrunk = shrink_plan(&plan, fails);
    outln!(
        out,
        "seed {}: shrunk {} events -> {}: {:?}",
        cfg.seed,
        total_events,
        shrunk.events.len(),
        shrunk.events
    );
    let minimal = shrunk.events.len() == 1
        && matches!(
            shrunk.events.first().map(|e| e.kind),
            Some(FaultKind::FailFraction { .. })
        );
    if !minimal {
        return Err(BaldurError::Experiment {
            name: "chaos".to_string(),
            message: format!(
                "shrinker kept {} event(s) instead of isolating the kill-everything event: {:?}",
                shrunk.events.len(),
                shrunk.events
            ),
        });
    }
    outln!(out, "shrinker isolated the guilty event (1-minimal plan)");
    Ok(Output::console_only(out))
}
