//! Sec. IV-E: retransmission-buffer sizing at 0.7 load.

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::config::BaldurParams;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::registry::{json_of, no_overrides, outln, section, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;

const LABEL: &str = "buffer_sizing";

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "buffers",
    artifact: "Sec. IV-E",
    summary: "retransmission-buffer high-water mark across synthetic patterns",
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

/// The Sec. IV-E retransmission-buffer sizing study: the high-water
/// buffer occupancy across the synthetic patterns at 0.7 load.
pub fn buffer_sizing(sw: &Sweep, cfg: &EvalConfig) -> Vec<(String, u64)> {
    let patterns = [
        Pattern::RandomPermutation,
        Pattern::Transpose,
        Pattern::Bisection,
        Pattern::GroupPermutation,
        Pattern::Hotspot,
    ];
    let items: Vec<(String, RunConfig)> = patterns
        .into_iter()
        .map(|pattern| {
            let rc = RunConfig {
                seed: cfg.seed,
                ..RunConfig::new(
                    cfg.nodes,
                    NetworkKind::Baldur(BaldurParams::paper_for(u64::from(cfg.nodes))),
                    Workload::Synthetic {
                        pattern,
                        load: 0.7,
                        packets_per_node: cfg.packets_per_node,
                    },
                )
            };
            (pattern.name().to_string(), rc)
        })
        .collect();
    sw.map(LABEL, items, |(name, rc)| {
        let r = run(rc);
        (name.clone(), r.max_retx_buffer_bytes)
    })
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let rows = buffer_sizing(sw, &cfg);
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Retransmission-buffer high-water mark ({} nodes, load 0.7)",
            cfg.nodes
        ),
    );
    for (pattern, bytes) in &rows {
        outln!(
            out,
            "{pattern:>20}: {:>9} bytes ({:.1} KB)",
            bytes,
            *bytes as f64 / 1024.0
        );
    }
    outln!(out, "(paper: 536 KB sufficient; 1 MB provisioned)");
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("buffers", &rows)?),
        files: Vec::new(),
    })
}
