//! Overload robustness: incast/hotcast storms at offered loads past
//! saturation, with the overload controls (bounded ingress queues,
//! source pacing, delivery deadlines) switched on and a graceful-
//! degradation gate over the result.
//!
//! The sweep offers {uniform, incast, hotcast} storms at 0.5x-4x the
//! line rate to Baldur and an electrical baseline. The gate demands
//! that accepted goodput degrades gracefully (the 4x point keeps at
//! least [`DEGRADATION_FLOOR`] of the sweep's peak for that network and
//! pattern), that the overload controls actually engage at the top load
//! (something is shed), that the starvation/occupancy oracle stays
//! quiet, and that every packet is accounted for exactly:
//! `generated == delivered + abandoned + expired + ingress_drops`.
//!
//! The `--smoke` mode is the CI gate: a small topology, the same
//! checks, plus a byte-identical repeat run.

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::metrics::LatencyReport;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::net::workloads::incast_fanin;
use crate::registry::{
    json_of, outln, section, Axis, AxisKind, ExperimentSpec, Mode, Output, Params,
};
use crate::sweep::Sweep;

const LABEL: &str = "overload";
const VERSION: u32 = 1;

/// Accepted goodput at the top offered load must stay at or above this
/// fraction of the sweep's peak goodput (per network x pattern) — the
/// graceful-degradation criterion.
const DEGRADATION_FLOOR: f64 = 0.9;

/// Per-source admission cap (outstanding packets for Baldur's NIC,
/// injection-queue depth for the electrical NIC). Bounds memory and
/// turns excess offered load into counted ingress drops; deliberately
/// small so a storm sheds at the edge instead of aging in a deep queue.
const INGRESS_CAP: u32 = 8;

/// Baldur source pacing window: first injections in flight awaiting
/// their first release. Keeps the retry machinery from amplifying a
/// storm into the fabric.
const PACING_WINDOW: u32 = 2;

/// Baldur delivery deadline: a packet older than this expires instead
/// of retrying. ~120x the 163.84 ns serialization time, so it never
/// fires below saturation and sheds only genuinely stale work.
const DEADLINE_PS: u64 = 20_000_000;

/// Backoff ceiling under overload: cap the binary-exponential timeout at
/// 2^3 doublings (8 us from the 1 us base). The paper-faithful default
/// of 2^8 (256 us) strands storm losers in backoff exile — their retry
/// timers outlive the deadline, so admitted work expires unserved. A
/// bounded ceiling keeps retries frequent enough to drain once the
/// storm passes.
const MAX_BACKOFF_EXP: u32 = 3;

/// Retry-timeout jitter under overload (percent of the backoff base).
/// Incast senders that collided at the same slot otherwise retry in
/// lockstep and collide again; seeded jitter desynchronizes them.
const RETRY_JITTER_PCT: u32 = 50;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "overload",
    artifact: "Sec. IV (overload)",
    summary: "incast/hotcast storms at 0.5x-4x load with admission control and a degradation gate",
    version: VERSION,
    labels: &[LABEL],
    axes: &[
        Axis {
            name: "loads",
            kind: AxisKind::F64List,
            default: "0.5,1,2,4",
            help: "offered loads relative to line rate (may exceed 1)",
        },
        Axis {
            name: "patterns",
            kind: AxisKind::StrList,
            default: "uniform,incast,hotcast",
            help: "storm patterns to offer",
        },
        Axis {
            name: "networks",
            kind: AxisKind::StrList,
            default: "baldur,fattree",
            help: "networks to storm (ideal is always skipped)",
        },
    ],
    flags: &[],
    modes: &[Mode {
        flag: "smoke",
        help: "CI gate: degradation floor + quiet oracle + byte-identical repeat",
        run: run_smoke,
    }],
    output_columns: &[
        "network",
        "pattern",
        "load",
        "generated",
        "delivered",
        "expired",
        "ingress_drops",
        "abandoned",
        "goodput_pkt_per_us",
        "flows",
        "jain",
        "min_delivered",
        "max_delivered",
        "p99_ns",
        "p999_ns",
        "violations",
    ],
    golden: Some("overload.csv"),
    csv_default: Some("results/overload.csv"),
    json_default: Some("results/overload.json"),
    gnuplot: None,
    all_figures: crate::registry::no_overrides,
    run: run_sweep,
};

/// One storm's outcome on one network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverloadRow {
    /// Network name.
    pub network: String,
    /// Storm pattern name.
    pub pattern: String,
    /// Offered load relative to line rate.
    pub load: f64,
    /// The measured report: shed counters, fairness distribution, and
    /// the oracle summary ride on it.
    pub report: LatencyReport,
}

impl OverloadRow {
    /// Accepted goodput in delivered packets per simulated microsecond
    /// (0 when nothing was delivered). Measured to the last delivery,
    /// not to the drain instant, so stale retry timers ticking after
    /// traffic finished don't dilute the rate.
    pub fn goodput_pkt_per_us(&self) -> f64 {
        if self.report.last_delivery_ns <= 0.0 {
            return 0.0;
        }
        self.report.delivered as f64 * 1e3 / self.report.last_delivery_ns
    }
}

/// Resolves a network by name with the overload controls switched on:
/// Baldur gets the bounded ingress queue, pacing window, and delivery
/// deadline; the electrical baselines get the bounded NIC injection
/// queue and the same delivery deadline (stale packets expire at the
/// NIC instead of being transmitted, so neither model hoards work past
/// its usefulness). `None` for unknown names and for `ideal` (nothing
/// to bound).
pub fn overload_network(name: &str, nodes: u32) -> Option<NetworkKind> {
    let net = NetworkKind::by_name(name, nodes)?;
    match net {
        NetworkKind::Baldur(mut bp) => {
            bp.ingress_cap = INGRESS_CAP;
            bp.pacing_window = PACING_WINDOW;
            bp.deadline_ps = DEADLINE_PS;
            bp.max_backoff_exp = MAX_BACKOFF_EXP;
            bp.retry_jitter_pct = RETRY_JITTER_PCT;
            Some(NetworkKind::Baldur(bp))
        }
        NetworkKind::ElectricalMultiButterfly {
            multiplicity,
            mut router,
        } => {
            router.nic_queue_cap = INGRESS_CAP;
            router.deadline_ps = DEADLINE_PS;
            Some(NetworkKind::ElectricalMultiButterfly {
                multiplicity,
                router,
            })
        }
        NetworkKind::Dragonfly { mut router } => {
            router.nic_queue_cap = INGRESS_CAP;
            router.deadline_ps = DEADLINE_PS;
            Some(NetworkKind::Dragonfly { router })
        }
        NetworkKind::DragonflyMinimal { mut router } => {
            router.nic_queue_cap = INGRESS_CAP;
            router.deadline_ps = DEADLINE_PS;
            Some(NetworkKind::DragonflyMinimal { router })
        }
        NetworkKind::FatTree { mut router } => {
            router.nic_queue_cap = INGRESS_CAP;
            router.deadline_ps = DEADLINE_PS;
            Some(NetworkKind::FatTree { router })
        }
        NetworkKind::Ideal => None,
    }
}

/// Resolves a storm pattern name (`uniform`, `incast`, `hotcast`),
/// sizing the incast fan-in to the node count.
pub fn storm_pattern(name: &str, nodes: u32) -> Option<Pattern> {
    match name {
        "uniform" => Some(Pattern::UniformRandom),
        "incast" => Some(Pattern::Incast {
            fanin: incast_fanin(nodes),
        }),
        "hotcast" => Some(Pattern::Hotcast),
        _ => None,
    }
}

/// Runs the full (network x pattern x load) storm grid through the
/// supervised sweep machinery. Errs on unknown network/pattern names and
/// non-positive loads so the registry runner surfaces a usage error
/// instead of panicking.
pub fn overload(
    sw: &Sweep,
    cfg: &EvalConfig,
    networks: &[String],
    patterns: &[String],
    loads: &[f64],
) -> Result<Vec<OverloadRow>, BaldurError> {
    let mut items: Vec<(String, String, f64, RunConfig)> = Vec::new();
    for name in networks {
        if name == "ideal" {
            continue;
        }
        let Some(net) = overload_network(name, cfg.nodes) else {
            return Err(BaldurError::InvalidParam {
                param: "networks".to_string(),
                message: format!("unknown or unboundable network `{name}`"),
            });
        };
        for pname in patterns {
            let Some(pattern) = storm_pattern(pname, cfg.nodes) else {
                return Err(BaldurError::InvalidParam {
                    param: "patterns".to_string(),
                    message: format!("unknown pattern `{pname}` (uniform, incast, hotcast)"),
                });
            };
            for &load in loads {
                if load <= 0.0 {
                    return Err(BaldurError::InvalidParam {
                        param: "loads".to_string(),
                        message: format!("offered load must be positive, got {load}"),
                    });
                }
                // Equal-duration storms: scale the per-sender packet
                // budget with the load so every point offers traffic
                // over (roughly) the same simulated window — a 4x burst
                // of fixed size would just finish 8x sooner than a 0.5x
                // one and make the goodput points incomparable.
                let ppn = ((f64::from(cfg.packets_per_node) * load).round() as u32).max(1);
                let rc = RunConfig {
                    seed: cfg.seed,
                    ..RunConfig::new(
                        cfg.nodes,
                        net.clone(),
                        Workload::Storm {
                            pattern,
                            load,
                            packets_per_node: ppn,
                        },
                    )
                };
                items.push((name.clone(), pname.clone(), load, rc));
            }
        }
    }
    Ok(sw.map(LABEL, VERSION, items, |(name, pname, load, rc)| {
        OverloadRow {
            network: name.clone(),
            pattern: pname.clone(),
            load: *load,
            report: run(rc),
        }
    }))
}

fn print_rows(out: &mut String, rows: &[OverloadRow]) {
    outln!(
        out,
        "{:>10} | {:>8} | {:>4} | {:>9} | {:>9} | {:>7} | {:>7} | {:>11} | {:>6}",
        "network",
        "pattern",
        "load",
        "generated",
        "delivered",
        "expired",
        "ingress",
        "goodput/us",
        "jain"
    );
    for r in rows {
        outln!(
            out,
            "{:>10} | {:>8} | {:>4} | {:>9} | {:>9} | {:>7} | {:>7} | {:>11.3} | {:>6.3}",
            r.network,
            r.pattern,
            r.load,
            r.report.generated,
            r.report.delivered,
            r.report.expired,
            r.report.ingress_drops,
            r.goodput_pkt_per_us(),
            r.report.fairness.jain
        );
    }
}

/// The graceful-degradation gate shared by the default run and the
/// smoke. Returns human-readable complaints (empty = pass).
fn gate(rows: &[OverloadRow]) -> Vec<String> {
    let mut complaints = Vec::new();
    for r in rows {
        if !r.report.oracle.is_clean() {
            complaints.push(format!(
                "{}/{} load {}: {} oracle violation(s), first: {}",
                r.network,
                r.pattern,
                r.load,
                r.report.oracle.total(),
                r.report
                    .oracle
                    .reports
                    .first()
                    .map_or_else(|| "(suppressed)".to_string(), |v| v.to_string()),
            ));
        }
        let accounted =
            r.report.delivered + r.report.abandoned + r.report.expired + r.report.ingress_drops;
        if accounted != r.report.generated {
            complaints.push(format!(
                "{}/{} load {}: conservation broken ({accounted} != {})",
                r.network, r.pattern, r.load, r.report.generated
            ));
        }
    }
    // Per (network, pattern): accepted goodput at the top load must hold
    // the degradation floor against the sweep's peak, and the overload
    // controls must visibly engage there when it oversubscribes.
    let mut groups: Vec<(String, String)> = rows
        .iter()
        .map(|r| (r.network.clone(), r.pattern.clone()))
        .collect();
    groups.sort();
    groups.dedup();
    for (net, pat) in groups {
        let series: Vec<&OverloadRow> = rows
            .iter()
            .filter(|r| r.network == net && r.pattern == pat)
            .collect();
        let peak = series
            .iter()
            .map(|r| r.goodput_pkt_per_us())
            .fold(0.0f64, f64::max);
        let Some(top) = series
            .iter()
            .max_by(|a, b| a.load.total_cmp(&b.load))
            .copied()
        else {
            continue;
        };
        if peak > 0.0 && top.goodput_pkt_per_us() < DEGRADATION_FLOOR * peak {
            complaints.push(format!(
                "{net}/{pat}: goodput collapsed at load {} ({:.3}/us vs peak {:.3}/us)",
                top.load,
                top.goodput_pkt_per_us(),
                peak
            ));
        }
        let shed = top.report.expired + top.report.ingress_drops + top.report.abandoned;
        if top.load > 1.0 && shed == 0 {
            complaints.push(format!(
                "{net}/{pat}: load {} oversubscribes but nothing was shed — \
                 the overload controls never engaged",
                top.load
            ));
        }
    }
    complaints
}

fn run_sweep(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let loads = p.f64_list("loads")?;
    let patterns = p.str_list("patterns")?;
    let networks = p.str_list("networks")?;
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Overload storms: {} load(s) x {} pattern(s) x {} network(s) ({} nodes)",
            loads.len(),
            patterns.len(),
            networks.len(),
            cfg.nodes
        ),
    );
    let rows = overload(sw, &cfg, &networks, &patterns, &loads)?;
    print_rows(&mut out, &rows);
    let complaints = gate(&rows);
    if let Some(first) = complaints.first() {
        return Err(BaldurError::Experiment {
            name: "overload".to_string(),
            message: format!("{} complaint(s); first: {first}", complaints.len()),
        });
    }
    outln!(
        out,
        "overload gate OK: goodput holds {:.0}% of peak at the top load, oracle quiet, \
         conservation exact",
        DEGRADATION_FLOOR * 100.0
    );
    Ok(Output {
        console: out,
        csv: Some(crate::csv::overload(&rows)),
        json: Some(json_of("overload", &rows)?),
        files: Vec::new(),
    })
}

/// CI gate: small topology, three loads bracketing saturation, the full
/// degradation gate, and a byte-identical repeat run.
fn run_smoke(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let small = EvalConfig {
        nodes: cfg.nodes.min(64),
        packets_per_node: cfg.packets_per_node.clamp(40, 60),
        ..cfg
    };
    let loads = [0.5, 1.0, 4.0];
    let patterns = p.str_list("patterns")?;
    let networks = p.str_list("networks")?;
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Overload smoke: {} nodes, {} pkts/node, loads {:?}",
            small.nodes, small.packets_per_node, loads
        ),
    );
    let first = overload(sw, &small, &networks, &patterns, &loads)?;
    let second = overload(sw, &small, &networks, &patterns, &loads)?;
    let csv_a = crate::csv::overload(&first);
    let csv_b = crate::csv::overload(&second);
    print_rows(&mut out, &first);
    let mut complaints = gate(&first);
    if csv_a != csv_b {
        complaints.push("same-seed overload runs are not byte-identical".to_string());
    }
    if let Some(first_complaint) = complaints.first() {
        return Err(BaldurError::Experiment {
            name: "overload".to_string(),
            message: format!(
                "{} complaint(s); first: {first_complaint}",
                complaints.len()
            ),
        });
    }
    outln!(
        out,
        "overload smoke OK: degradation floor held, oracle quiet, runs byte-identical"
    );
    Ok(Output::console_only(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cfg() -> EvalConfig {
        EvalConfig {
            nodes: 64,
            packets_per_node: 48,
            ..EvalConfig::tiny()
        }
    }

    /// The shipped overload profile survives its own gate on the smoke
    /// grid: goodput at 4x holds the degradation floor, the oracle stays
    /// quiet, conservation is exact, and the controls visibly shed.
    #[test]
    fn smoke_grid_passes_gate() {
        let networks = ["baldur", "fattree"].map(String::from);
        let patterns = ["uniform", "incast", "hotcast"].map(String::from);
        let rows = overload(
            &Sweep::new(0),
            &grid_cfg(),
            &networks,
            &patterns,
            &[0.5, 1.0, 4.0],
        )
        .expect("default lineup resolves");
        assert_eq!(rows.len(), 18, "2 networks x 3 patterns x 3 loads");
        let complaints = gate(&rows);
        assert!(complaints.is_empty(), "gate complaints: {complaints:?}");
        for r in &rows {
            assert!(
                r.report.delivered > 0,
                "{}/{} delivered nothing",
                r.network,
                r.pattern
            );
        }
    }

    #[test]
    fn unknown_network_is_a_usage_error() {
        let cfg = grid_cfg();
        let err = overload(
            &Sweep::new(0),
            &cfg,
            &["warpdrive".to_string()],
            &["uniform".to_string()],
            &[1.0],
        )
        .unwrap_err();
        assert!(matches!(err, BaldurError::InvalidParam { ref param, .. } if param == "networks"));
    }

    #[test]
    fn unknown_pattern_is_a_usage_error() {
        let cfg = grid_cfg();
        let err = overload(
            &Sweep::new(0),
            &cfg,
            &["baldur".to_string()],
            &["omnicast".to_string()],
            &[1.0],
        )
        .unwrap_err();
        assert!(matches!(err, BaldurError::InvalidParam { ref param, .. } if param == "patterns"));
    }

    #[test]
    fn non_positive_load_is_a_usage_error() {
        let cfg = grid_cfg();
        for bad in [0.0, -1.0] {
            let err = overload(
                &Sweep::new(0),
                &cfg,
                &["baldur".to_string()],
                &["uniform".to_string()],
                &[bad],
            )
            .unwrap_err();
            assert!(matches!(err, BaldurError::InvalidParam { ref param, .. } if param == "loads"));
        }
    }

    /// `ideal` has no queues to bound; the resolver refuses it rather
    /// than silently running an unbounded control experiment.
    #[test]
    fn ideal_network_cannot_be_bounded() {
        assert!(overload_network("ideal", 64).is_none());
        assert!(overload_network("baldur", 64).is_some());
        assert!(overload_network("fattree", 64).is_some());
    }
}
