//! CSV renderings of experiment results, for plotting (gnuplot, pandas).
//!
//! Every harness binary accepts `--csv PATH` and writes the corresponding
//! table here. Each table's header is its experiment spec's
//! `output_columns`, so the registry and the file name the same columns.

use std::fmt::Write as _;

use crate::experiments::{
    ChaosRow, DegradationRow, Fig10Row, Fig6Row, Fig7Row, OverloadRow, SaturationRow, ScalingRow,
    TableVRow,
};
use crate::power::scaling::ScalePoint;
use crate::registry::ExperimentSpec;

/// A table holding only `spec`'s header line.
fn header(spec: &ExperimentSpec) -> String {
    let mut out = spec.output_columns.join(",");
    out.push('\n');
    out
}

/// Figure 6: one row per (pattern, network, load) cell.
pub fn fig6(rows: &[Fig6Row]) -> String {
    let mut out = header(&crate::experiments::fig6::SPEC);
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            r.pattern,
            r.network,
            r.load,
            r.report.avg_ns,
            r.report.p99_ns,
            r.report.drop_rate,
            r.report.delivered,
            r.report.generated
        );
    }
    out
}

/// Figure 7: one row per (workload, network), with latencies also
/// normalized to Baldur's on the same workload.
pub fn fig7(rows: &[Fig7Row]) -> String {
    let normalized = crate::experiments::normalize_fig7(rows);
    let mut out = header(&crate::experiments::fig7::SPEC);
    for (r, (_, _, na, np)) in rows.iter().zip(normalized.iter()) {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.workload, r.network, r.report.avg_ns, r.report.p99_ns, na, np
        );
    }
    out
}

/// Figure 8: per-node power breakdown, one row per (scale, network).
pub fn fig8(sweep: &[ScalePoint]) -> String {
    let mut out = header(&crate::experiments::fig8::SPEC);
    for p in sweep {
        for (n, size, b) in &p.entries {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                p.label,
                n.name(),
                size,
                b.transceivers_w,
                b.serdes_w,
                b.buffers_w,
                b.switching_w,
                b.total_w()
            );
        }
    }
    out
}

/// Figure 10: per-node cost breakdown, one row per scale.
pub fn fig10(rows: &[Fig10Row]) -> String {
    let mut out = header(&crate::experiments::fig10::SPEC);
    for r in rows {
        let b = &r.breakdown;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            r.label,
            r.nodes,
            b.interposers,
            b.fibers,
            b.faus,
            b.rfecs,
            b.transceivers,
            b.total()
        );
    }
    out
}

/// Table V: one row per path multiplicity.
pub fn table5(rows: &[TableVRow]) -> String {
    let mut out = header(&crate::experiments::table5::SPEC);
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            r.multiplicity, r.gates, r.latency_ns, r.paper_drop_pct, r.measured_drop_pct
        );
    }
    out
}

/// Saturation curves: accepted against offered load, per network.
pub fn saturation(rows: &[SaturationRow]) -> String {
    let mut out = header(&crate::experiments::saturation::SPEC);
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            r.network, r.offered, r.accepted, r.avg_ns
        );
    }
    out
}

/// Fault degradation: one row per (network, failed fraction).
pub fn faults(rows: &[DegradationRow]) -> String {
    let mut out = header(&crate::experiments::faults::SPEC);
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            r.network,
            r.fraction,
            r.report.delivery_ratio(),
            r.report.avg_ns,
            r.report.p99_ns,
            r.report.delivered,
            r.report.abandoned,
            r.report.generated,
            r.report.retransmissions
        );
    }
    out
}

/// Chaos runs: one row per (network, schedule seed).
pub fn chaos(rows: &[ChaosRow]) -> String {
    let mut out = header(&crate::experiments::chaos::SPEC);
    for r in rows {
        let recovered = r.report.recoveries.iter().filter(|x| x.recovered()).count();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            r.network,
            r.seed,
            r.events,
            r.report.recoveries.len(),
            r.report.oracle.total(),
            recovered,
            r.report.max_recovery_ns().unwrap_or(-1.0),
            r.report.stranded,
            r.report.flap_amplification(),
            r.report.delivered,
            r.report.abandoned,
            r.report.generated
        );
    }
    out
}

/// Overload storms: one row per (network, pattern, load).
pub fn overload(rows: &[OverloadRow]) -> String {
    let mut out = header(&crate::experiments::overload::SPEC);
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.network,
            r.pattern,
            r.load,
            r.report.generated,
            r.report.delivered,
            r.report.expired,
            r.report.ingress_drops,
            r.report.abandoned,
            r.goodput_pkt_per_us(),
            r.report.fairness.flows,
            r.report.fairness.jain,
            r.report.fairness.min_delivered,
            r.report.fairness.max_delivered,
            r.report.p99_ns,
            r.report.p999_ns,
            r.report.oracle.total()
        );
    }
    out
}

/// The scaling curve: one row per endpoint count.
pub fn scaling(rows: &[ScalingRow]) -> String {
    let mut out = header(&crate::experiments::scaling::SPEC);
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            r.endpoints,
            r.wall_ns as f64 / 1e6,
            r.events,
            r.events_per_sec(),
            r.peak_rss_bytes,
            r.state_bytes,
            r.bytes_per_endpoint(),
            r.delivered,
            r.generated,
            r.peak_pending,
            r.queue_bytes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{table_v, EvalConfig};
    use crate::sweep::Sweep;

    #[test]
    fn table5_csv_is_well_formed() {
        let cfg = EvalConfig {
            nodes: 64,
            packets_per_node: 20,
            ..EvalConfig::tiny()
        };
        let rows = table_v(&Sweep::new(0), &cfg);
        let csv = table5(&rows);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 6); // header + 5 rows
        assert!(lines[0].starts_with("multiplicity,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 5, "{line}");
        }
    }

    #[test]
    fn fig8_csv_has_all_cells() {
        let sweep = crate::experiments::figure8(&Sweep::new(0));
        let csv = fig8(&sweep);
        // 4 scales x 4 networks + header.
        assert_eq!(csv.trim().lines().count(), 17);
    }
}
