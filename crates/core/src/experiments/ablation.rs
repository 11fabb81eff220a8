//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. **Wiring randomization** — the expansion property (Sec. IV-E): the
//!    randomized multi-butterfly versus a structured dilated butterfly
//!    under the adversarial transpose permutation.
//! 2. **Binary exponential backoff** — retransmission throttling under a
//!    hotspot.
//!
//! (The third design knob, path multiplicity, is Table V: the `table5`
//! experiment.)

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::{all_ok, BaldurError};
use crate::net::config::BaldurParams;
use crate::net::droptool;
use crate::net::metrics::LatencyReport;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::registry::{
    fmt_ns, json_of, no_overrides, outln, section, ExperimentSpec, Output, Params,
};
use crate::sweep::Sweep;

// Every historical key was written at version 1; bump on
// payload-semantics changes.
const VERSION: u32 = 1;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "ablation",
    artifact: "Sec. IV-E",
    summary: "wiring-randomization and exponential-backoff ablations",
    version: VERSION,
    labels: &["wiring_burst", "wiring_sim", "backoff"],
    axes: &[],
    flags: &[],
    modes: &[],
    output_columns: &[],
    golden: None,
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: no_overrides,
    run: run_hook,
};

/// The wiring ablation: randomized (expansion) versus dilated-butterfly
/// (structured) inter-stage connections, under an adversarial pattern.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WiringAblation {
    /// Pattern used.
    pub pattern: String,
    /// Worst-case burst drop rate, randomized wiring.
    pub randomized_burst_drop: f64,
    /// Worst-case burst drop rate, dilated wiring.
    pub dilated_burst_drop: f64,
    /// Steady-state sim report, randomized wiring.
    pub randomized: LatencyReport,
    /// Steady-state sim report, dilated wiring.
    pub dilated: LatencyReport,
}

/// Runs the randomization ablation (paper Sec. IV-E: expansion makes the
/// network immune to worst-case permutations; without it, structured
/// permutations concentrate on a few internal paths). The two burst
/// analyses and the two steady-state runs are four independent cached
/// jobs. Errs when any of the four fails — the ablation is a paired
/// comparison, meaningless with a side missing.
pub fn wiring_ablation(sw: &Sweep, cfg: &EvalConfig) -> Result<WiringAblation, BaldurError> {
    use crate::topo::multibutterfly::Wiring;
    let pattern = Pattern::Transpose;
    let nodes = cfg.nodes.next_power_of_two();
    let burst_items: Vec<(u32, u32, Pattern, u64, Wiring)> = [Wiring::Randomized, Wiring::Dilated]
        .into_iter()
        .map(|w| (nodes, 4, pattern, cfg.seed, w))
        .collect();
    let bursts = all_ok(
        "wiring_burst",
        sw.try_map(
            "wiring_burst",
            VERSION,
            burst_items,
            |(n, m, p, seed, w)| droptool::worst_case_with_wiring(*n, *m, *p, *seed, *w).drop_rate,
        ),
    )?;
    let sim_items: Vec<RunConfig> = [Wiring::Randomized, Wiring::Dilated]
        .into_iter()
        .map(|wiring| {
            let params = BaldurParams {
                wiring,
                ..BaldurParams::paper_for(u64::from(cfg.nodes))
            };
            RunConfig {
                seed: cfg.seed,
                ..RunConfig::new(
                    cfg.nodes,
                    NetworkKind::Baldur(params),
                    Workload::Synthetic {
                        pattern,
                        load: 0.7,
                        packets_per_node: cfg.packets_per_node,
                    },
                )
            }
        })
        .collect();
    let mut sims = all_ok(
        "wiring_sim",
        sw.try_map("wiring_sim", VERSION, sim_items, run),
    )?;
    let (randomized, dilated) = match (sims.pop(), sims.pop()) {
        (Some(d), Some(r)) => (r, d),
        _ => {
            return Err(BaldurError::MissingResult {
                label: "wiring_sim".to_string(),
                what: "two wiring configs in, two reports out".to_string(),
            })
        }
    };
    Ok(WiringAblation {
        pattern: pattern.name().into(),
        randomized_burst_drop: bursts[0],
        dilated_burst_drop: bursts[1],
        randomized,
        dilated,
    })
}

/// The backoff ablation: binary exponential backoff on versus off under a
/// congested pattern.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BackoffAblation {
    /// With BEB (the paper's design).
    pub with_backoff: LatencyReport,
    /// Without BEB.
    pub without_backoff: LatencyReport,
}

/// Runs the binary-exponential-backoff ablation: a congested-but-
/// completable configuration (multiplicity 2, transpose at 0.9 load)
/// where retransmission pressure is real and BEB's throttling shows up
/// as fewer wasted traversals. The on/off runs are two independent
/// cached jobs. Errs when either side fails (a paired comparison).
pub fn backoff_ablation(sw: &Sweep, cfg: &EvalConfig) -> Result<BackoffAblation, BaldurError> {
    let items: Vec<RunConfig> = [true, false]
        .into_iter()
        .map(|backoff| {
            let params = BaldurParams {
                backoff,
                multiplicity: 2,
                ..BaldurParams::paper_for(u64::from(cfg.nodes))
            };
            RunConfig {
                seed: cfg.seed,
                ..RunConfig::new(
                    cfg.nodes,
                    NetworkKind::Baldur(params),
                    Workload::Synthetic {
                        pattern: Pattern::Transpose,
                        load: 0.9,
                        packets_per_node: cfg.packets_per_node,
                    },
                )
            }
        })
        .collect();
    let mut reports = all_ok("backoff", sw.try_map("backoff", VERSION, items, run))?;
    let (with_backoff, without_backoff) = match (reports.pop(), reports.pop()) {
        (Some(wo), Some(w)) => (w, wo),
        _ => {
            return Err(BaldurError::MissingResult {
                label: "backoff".to_string(),
                what: "two backoff configs in, two reports out".to_string(),
            })
        }
    };
    Ok(BackoffAblation {
        with_backoff,
        without_backoff,
    })
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let w = wiring_ablation(sw, &cfg)?;
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Ablation 1: wiring randomization ({} nodes, {}, load 0.7)",
            cfg.nodes, w.pattern
        ),
    );
    outln!(out, "{:>22} | {:>12} | {:>12}", "", "randomized", "dilated");
    outln!(
        out,
        "{:>22} | {:>11.2}% | {:>11.2}%",
        "worst-case burst drop",
        w.randomized_burst_drop * 100.0,
        w.dilated_burst_drop * 100.0
    );
    outln!(
        out,
        "{:>22} | {:>11.3}% | {:>11.3}%",
        "steady-state drop",
        w.randomized.drop_rate * 100.0,
        w.dilated.drop_rate * 100.0
    );
    outln!(
        out,
        "{:>22} | {:>12} | {:>12}",
        "avg latency",
        fmt_ns(w.randomized.avg_ns),
        fmt_ns(w.dilated.avg_ns)
    );
    outln!(
        out,
        "{:>22} | {:>12} | {:>12}",
        "p99 latency",
        fmt_ns(w.randomized.p99_ns),
        fmt_ns(w.dilated.p99_ns)
    );
    outln!(
        out,
        "(expansion via randomization is what defuses structured permutations)"
    );

    let b = backoff_ablation(sw, &cfg)?;
    section(
        &mut out,
        &format!(
            "Ablation 2: binary exponential backoff (m=2, transpose @ 0.9, {} nodes)",
            cfg.nodes
        ),
    );
    outln!(out, "{:>22} | {:>12} | {:>12}", "", "with BEB", "without");
    outln!(
        out,
        "{:>22} | {:>12} | {:>12}",
        "retransmissions",
        b.with_backoff.retransmissions,
        b.without_backoff.retransmissions
    );
    outln!(
        out,
        "{:>22} | {:>11.2}% | {:>11.2}%",
        "traversal drop rate",
        b.with_backoff.drop_rate * 100.0,
        b.without_backoff.drop_rate * 100.0
    );
    outln!(
        out,
        "{:>22} | {:>12} | {:>12}",
        "avg latency",
        fmt_ns(b.with_backoff.avg_ns),
        fmt_ns(b.without_backoff.avg_ns)
    );
    outln!(
        out,
        "{:>22} | {:>12} | {:>12}",
        "delivered",
        b.with_backoff.delivered,
        b.without_backoff.delivered
    );
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("ablation", &(w, b))?),
        files: Vec::new(),
    })
}
