//! Sec. VII: Baldur versus an AWGR optical-packet-switching network at 32
//! nodes.

use serde::{Deserialize, Serialize};

use crate::error::BaldurError;
use crate::registry::{json_of, no_overrides, outln, section, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "awgr",
    artifact: "Sec. VII",
    summary: "Baldur versus a 32-radix AWGR network: power and per-hop latency",
    labels: &[],
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

/// The Sec. VII AWGR comparison at 32 nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AwgrComparison {
    /// Baldur W/node (TL chips only).
    pub baldur_w: f64,
    /// AWGR W/node (receivers, SerDes, buffers, wavelength converters).
    pub awgr_w: f64,
    /// Baldur per-hop latency, ns.
    pub baldur_latency_ns: f64,
    /// AWGR header-processing latency, ns.
    pub awgr_latency_ns: f64,
}

/// Regenerates the AWGR comparison.
pub fn awgr_comparison() -> AwgrComparison {
    let model = crate::power::awgr::AwgrModel::paper();
    AwgrComparison {
        baldur_w: crate::power::awgr::baldur_32node_tl_only_w(),
        awgr_w: model.per_node_w(),
        baldur_latency_ns: crate::power::awgr::baldur_32node_latency_ns(),
        awgr_latency_ns: model.header_latency_ns(),
    }
}

fn run_hook(_sw: &Sweep, _p: &Params) -> Result<Output, BaldurError> {
    let c = awgr_comparison();
    let mut out = String::new();
    section(
        &mut out,
        "Sec. VII: Baldur (m=3) vs 32-radix AWGR, 32 nodes",
    );
    outln!(out, "power  (excl. common node xcvr/serdes):");
    outln!(
        out,
        "  baldur {:>6.2} W/node   awgr {:>6.2} W/node   ({:.1}x)",
        c.baldur_w,
        c.awgr_w,
        c.awgr_w / c.baldur_w
    );
    outln!(out, "per-hop processing latency:");
    outln!(
        out,
        "  baldur {:>6.2} ns       awgr {:>6.1} ns      ({:.0}x)",
        c.baldur_latency_ns,
        c.awgr_latency_ns,
        c.awgr_latency_ns / c.baldur_latency_ns
    );
    outln!(
        out,
        "(paper: 0.7 W vs 4.2 W; 90 ns electrical header processing)"
    );
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("awgr", &c)?),
        files: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awgr_numbers() {
        let c = awgr_comparison();
        assert!(c.awgr_w / c.baldur_w > 5.0);
        assert!(c.awgr_latency_ns / c.baldur_latency_ns > 50.0);
    }
}
