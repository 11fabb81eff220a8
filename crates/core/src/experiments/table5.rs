//! Table V: gates, latency, and drop rate versus path multiplicity.

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::config::BaldurParams;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::registry::{json_of, no_overrides, outln, section, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;
use crate::tl::gate_count::{SwitchDesign, TABLE_V_DROP_PCT};

const LABEL: &str = "table_v";

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "table5",
    artifact: "Table V",
    summary: "switch design cost and drop rate versus path multiplicity",
    labels: &[LABEL],
    axes: &[],
    flags: &[],
    modes: &[],
    output_columns: &[
        "multiplicity",
        "gates",
        "latency_ns",
        "paper_drop_pct",
        "measured_drop_pct",
    ],
    golden: Some("table5.csv"),
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: no_overrides,
    run: run_hook,
};

/// One row of Table V.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableVRow {
    /// Path multiplicity.
    pub multiplicity: u32,
    /// TL gates per switch (paper netlist values).
    pub gates: u32,
    /// Switch latency, ns.
    pub latency_ns: f64,
    /// Paper's drop rate (%) — transpose, 0.7 load, 1,024 nodes.
    pub paper_drop_pct: f64,
    /// Our simulator's drop rate (%) at the configured scale.
    pub measured_drop_pct: f64,
}

/// Regenerates Table V: design cost and drop rate versus multiplicity.
pub fn table_v(sw: &Sweep, cfg: &EvalConfig) -> Vec<TableVRow> {
    let items: Vec<(u32, RunConfig)> = (1..=5)
        .map(|m| {
            let design = SwitchDesign::new(m);
            let mut params = BaldurParams::paper_for(u64::from(cfg.nodes));
            params.multiplicity = m;
            params.switch_latency_ps = (design.latency_ns() * 1e3) as u64;
            let rc = RunConfig {
                seed: cfg.seed,
                ..RunConfig::new(
                    cfg.nodes,
                    NetworkKind::Baldur(params),
                    Workload::Synthetic {
                        pattern: Pattern::Transpose,
                        load: 0.7,
                        packets_per_node: cfg.packets_per_node,
                    },
                )
            };
            (m, rc)
        })
        .collect();
    sw.map(LABEL, items, |(m, rc)| {
        let design = SwitchDesign::new(*m);
        let r = run(rc);
        TableVRow {
            multiplicity: *m,
            gates: design.gates(),
            latency_ns: design.latency_ns(),
            paper_drop_pct: TABLE_V_DROP_PCT[(*m - 1) as usize],
            measured_drop_pct: r.drop_rate * 100.0,
        }
    })
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let rows = table_v(sw, &cfg);
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Table V (transpose @ 0.7 load, {} nodes, {} pkts/node)",
            cfg.nodes, cfg.packets_per_node
        ),
    );
    outln!(
        out,
        "multiplicity | gates | latency (ns) | drop % (paper @1K) | drop % (measured)"
    );
    for r in &rows {
        outln!(
            out,
            "{:>12} | {:>5} | {:>12.2} | {:>18.2} | {:>17.3}",
            r.multiplicity,
            r.gates,
            r.latency_ns,
            r.paper_drop_pct,
            r.measured_drop_pct
        );
    }
    Ok(Output {
        console: out,
        csv: Some(crate::csv::table5(&rows)),
        json: Some(json_of("table5", &rows)?),
        files: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_shape_holds_at_tiny_scale() {
        let rows = table_v(&Sweep::new(0), &EvalConfig::tiny());
        assert_eq!(rows.len(), 5);
        // Drop rate falls monotonically with multiplicity, like the paper.
        for w in rows.windows(2) {
            assert!(
                w[1].measured_drop_pct <= w[0].measured_drop_pct + 1e-9,
                "{w:?}"
            );
        }
        assert!(rows[0].measured_drop_pct > rows[4].measured_drop_pct);
        assert_eq!(rows[3].gates, 1_112);
    }
}
