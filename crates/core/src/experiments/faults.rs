//! Fault injection and degradation curves.
//!
//! The default entry point sweeps the failed-element fraction (0–20%)
//! across Baldur and the electrical baselines — the kill sets nest, so
//! goodput degrades monotonically in the fraction. Two extra modes ride
//! on the same spec:
//!
//! * `--smoke` — CI gate: a small topology at 5% failures, run twice,
//!   asserting packet conservation (delivered + abandoned = generated)
//!   and byte-identical CSVs across the two runs; errs (exit 1) on any
//!   violation.
//! * `--diagnose` — the Sec. IV-F demo: one dead switch, path rotation
//!   routing around it, then deterministic test-mode probing to isolate
//!   it.

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::metrics::LatencyReport;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::registry::{
    fmt_ns, json_of, networks_axis, outln, section, Axis, AxisKind, ExperimentSpec, Mode, Output,
    Params,
};
use crate::sweep::Sweep;

const LABEL: &str = "faults";
// Every historical key was written at version 1; bump on
// payload-semantics changes.
const VERSION: u32 = 1;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "faults",
    artifact: "Sec. IV-F",
    summary: "failed-element degradation curves, fault smoke, and diagnosis demo",
    version: VERSION,
    labels: &[LABEL],
    axes: &[
        Axis {
            name: "fractions",
            kind: AxisKind::F64List,
            default: "0.0,0.025,0.05,0.10,0.15,0.20",
            help: "failed-element fractions to sweep",
        },
        Axis {
            name: "networks",
            kind: AxisKind::StrList,
            // The ideal network has no components to fail, so the
            // default lineup omits it (listing it is harmless: the
            // sweep skips it, matching the historical behavior).
            default: "baldur,electrical_mb,dragonfly,fattree",
            help: "networks to degrade (ideal is always skipped)",
        },
    ],
    flags: &[],
    modes: &[
        Mode {
            flag: "smoke",
            help: "CI gate: conservation + determinism at 5% failures",
            run: run_smoke,
        },
        Mode {
            flag: "diagnose",
            help: "dead-switch demo: degrade, route around, isolate",
            run: run_diagnose,
        },
    ],
    output_columns: &[
        "network",
        "fraction",
        "goodput",
        "avg_ns",
        "p99_ns",
        "delivered",
        "abandoned",
        "generated",
        "retransmissions",
    ],
    golden: Some("faults.csv"),
    csv_default: Some("results/faults.csv"),
    json_default: Some("results/faults.json"),
    gnuplot: None,
    all_figures: crate::registry::no_overrides,
    run: run_sweep,
};

/// One cell of the fault-degradation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationRow {
    /// Network name.
    pub network: String,
    /// Fraction of switching elements failed at t = 0.
    pub fraction: f64,
    /// The measured report (per-epoch breakdowns included when the plan
    /// has events after t = 0).
    pub report: LatencyReport,
}

/// Sweeps the failed-element fraction across Baldur and the electrical
/// baselines (the ideal network has no components to fail) under
/// uniform-random traffic. Kill sets nest — a higher fraction fails a
/// strict superset of a lower one — so goodput degrades monotonically in
/// the fraction by construction, not by luck of the draw. `lineup` is the
/// registry's `networks` axis; the ideal network is skipped wherever it
/// appears.
pub fn degradation(
    sw: &Sweep,
    cfg: &EvalConfig,
    lineup: &[(String, NetworkKind)],
    fractions: &[f64],
) -> Vec<DegradationRow> {
    use crate::net::faults::FaultPlan;
    let mut items: Vec<(String, f64, RunConfig)> = Vec::new();
    for (name, net) in lineup {
        if matches!(net, NetworkKind::Ideal) {
            continue;
        }
        for &fraction in fractions {
            let rc = RunConfig {
                seed: cfg.seed,
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
            .with_faults(FaultPlan::degradation(cfg.seed, fraction));
            items.push((name.clone(), fraction, rc));
        }
    }
    sw.map(LABEL, VERSION, items, |(name, fraction, rc)| {
        DegradationRow {
            network: name.clone(),
            fraction: *fraction,
            report: run(rc),
        }
    })
}

fn print_rows(out: &mut String, rows: &[DegradationRow]) {
    let mut networks: Vec<&str> = rows.iter().map(|r| r.network.as_str()).collect();
    networks.dedup();
    outln!(
        out,
        "{:>14} | {:>8} | {:>8} | {:>10} | {:>10} | {:>9} | {:>9}",
        "network",
        "fraction",
        "goodput",
        "avg",
        "p99",
        "abandoned",
        "retx"
    );
    for net in networks {
        for r in rows.iter().filter(|r| r.network == net) {
            outln!(
                out,
                "{:>14} | {:>8.3} | {:>7.2}% | {:>10} | {:>10} | {:>9} | {:>9}",
                r.network,
                r.fraction,
                r.report.delivery_ratio() * 100.0,
                fmt_ns(r.report.avg_ns),
                fmt_ns(r.report.p99_ns),
                r.report.abandoned,
                r.report.retransmissions
            );
        }
    }
}

fn run_sweep(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let fracs = p.f64_list("fractions")?;
    let lineup = networks_axis(p, cfg.nodes)?;
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Degradation curves: failed-element fraction sweep ({} nodes, {} pkts/node)",
            cfg.nodes, cfg.packets_per_node
        ),
    );
    let rows = degradation(sw, &cfg, &lineup, &fracs);
    print_rows(&mut out, &rows);
    Ok(Output {
        console: out,
        csv: Some(crate::csv::faults(&rows)),
        json: Some(json_of("faults", &rows)?),
        files: Vec::new(),
    })
}

/// CI gate: small topology, 5% failures, fixed seed; conservation and
/// run-to-run determinism must hold exactly. Runs uncached twice on
/// purpose — a cache hit would turn the determinism check into a no-op.
fn run_smoke(_sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let small = EvalConfig {
        nodes: cfg.nodes.min(64),
        packets_per_node: cfg.packets_per_node.min(40),
        ..cfg
    };
    let fracs = [0.0, 0.05];
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Fault smoke: {} nodes, {} pkts/node, 5% failures, seed {}",
            small.nodes, small.packets_per_node, small.seed
        ),
    );
    let uncached = Sweep::new(small.threads);
    let lineup = NetworkKind::paper_lineup(small.nodes);
    let first = degradation(&uncached, &small, &lineup, &fracs);
    let second = degradation(&uncached, &small, &lineup, &fracs);
    let csv_a = crate::csv::faults(&first);
    let csv_b = crate::csv::faults(&second);
    let mut violations: Vec<String> = Vec::new();
    if csv_a != csv_b {
        violations.push("same-seed runs are not byte-identical".to_string());
    }
    for r in &first {
        let accounted = r.report.delivered + r.report.abandoned;
        if accounted != r.report.generated {
            violations.push(format!(
                "{} at fraction {}: delivered {} + abandoned {} != generated {}",
                r.network, r.fraction, r.report.delivered, r.report.abandoned, r.report.generated
            ));
        }
        if r.fraction <= 0.0 && r.report.abandoned != 0 {
            violations.push(format!(
                "{} abandoned {} packets with no faults injected",
                r.network, r.report.abandoned
            ));
        }
    }
    print_rows(&mut out, &first);
    if !violations.is_empty() {
        return Err(BaldurError::Experiment {
            name: "faults".to_string(),
            message: violations.join("; "),
        });
    }
    outln!(out, "fault smoke OK: conservation + determinism hold");
    Ok(Output::console_only(out))
}

/// The original Sec. IV-F demo: dead switch, rotation, diagnosis.
fn run_diagnose(_sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    use crate::net::baldur_net::simulate;
    use crate::net::config::{BaldurParams, LinkParams, RunSpec};
    use crate::net::diagnosis::locate_faulty_switch;
    use crate::net::driver::Driver;
    use crate::net::faults::{FaultKind, FaultPlan};
    use crate::topo::multibutterfly::MultiButterfly;

    let cfg = p.cfg;
    let nodes = cfg.nodes.next_power_of_two();
    let stages = nodes.trailing_zeros();
    let fault = (stages / 2, nodes / 4); // somewhere mid-network
    let params = BaldurParams {
        path_rotation: true,
        ..BaldurParams::paper_for(u64::from(nodes))
    };

    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Fault tolerance: dead switch at stage {} index {} ({} nodes)",
            fault.0, fault.1, nodes
        ),
    );
    let dead = FaultKind::SwitchDown {
        stage: fault.0,
        switch: fault.1,
    };
    let healthy = FaultPlan::new(cfg.seed);
    for (label, plan) in [
        ("healthy", healthy.clone()),
        ("faulty", healthy.at(0, dead)),
    ] {
        let d = Driver::open_loop(
            nodes,
            Pattern::RandomPermutation,
            0.5,
            cfg.packets_per_node,
            &LinkParams::paper(),
            cfg.seed,
        );
        let spec = RunSpec {
            plan,
            ..RunSpec::new(LinkParams::paper(), cfg.seed)
        };
        let r = simulate(nodes, params, d, &spec).0;
        outln!(
            out,
            "{label:>8}: delivered {:>6.2}% | avg {:>10} | retransmissions {:>7} | drops {:>7}",
            r.delivery_ratio() * 100.0,
            fmt_ns(r.avg_ns),
            r.retransmissions,
            r.drop_attempts
        );
    }

    section(
        &mut out,
        "Diagnosis: isolating the dead switch with test-mode probes",
    );
    let topo = MultiButterfly::new(nodes, params.multiplicity, cfg.seed);
    let result = locate_faulty_switch(&topo, &|loc| loc == fault, cfg.seed, 100_000);
    match result.suspect {
        Some(loc) => outln!(
            out,
            "isolated switch (stage {}, index {}) after {} probes — {}",
            loc.0,
            loc.1,
            result.probes_used,
            if loc == fault { "CORRECT" } else { "WRONG" }
        ),
        None => outln!(
            out,
            "not isolated within budget ({} candidates left)",
            result.candidates_left
        ),
    }
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("faults", &result)?),
        files: Vec::new(),
    })
}
