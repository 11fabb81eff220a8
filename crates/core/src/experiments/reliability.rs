//! Sec. IV-F: timing-jitter reliability analysis.

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::{all_ok, BaldurError};
use crate::registry::{json_of, outln, section, Axis, AxisKind, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;
use crate::tl::reliability::JitterModel;

const LABEL: &str = "reliability";

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "reliability",
    artifact: "Sec. IV-F",
    summary: "timing-jitter error probability, analytic and Monte Carlo",
    labels: &[LABEL],
    axes: &[
        Axis {
            name: "samples",
            kind: AxisKind::U64,
            default: "2000000",
            help: "Monte Carlo samples per threshold",
        },
        Axis {
            name: "seed",
            kind: AxisKind::U64,
            // The standalone harness has always defaulted the Monte
            // Carlo seed to 7 (distinct from the simulation master
            // seed); `--seed` overrides both.
            default: "7",
            help: "Monte Carlo seed",
        },
    ],
    flags: &[],
    modes: &[],
    output_columns: &[],
    golden: None,
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: all_figures_overrides,
    run: run_hook,
};

// `all_figures` has always run fewer samples, seeded from the master
// seed rather than the standalone default of 7.
fn all_figures_overrides(cfg: &EvalConfig) -> Vec<(&'static str, String)> {
    vec![
        ("samples", "500000".to_string()),
        ("seed", cfg.seed.to_string()),
    ]
}

/// The Sec. IV-F reliability summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReliabilityReport {
    /// Jitter sigma, ps.
    pub sigma_ps: f64,
    /// Margin, ps (0.42T).
    pub margin_ps: f64,
    /// Margin in sigmas.
    pub margin_sigmas: f64,
    /// Analytic per-transition error probability.
    pub analytic_error_probability: f64,
    /// Monte Carlo check points: `(threshold_sigmas, mc, analytic)`.
    pub monte_carlo: Vec<(f64, f64, f64)>,
}

/// Regenerates the Sec. IV-F reliability analysis. Errs when any Monte
/// Carlo job fails: a partial threshold table would silently misstate
/// the tail comparison. The Monte Carlo threshold points fan out (and
/// cache) independently.
pub fn reliability(sw: &Sweep, samples: u64, seed: u64) -> Result<ReliabilityReport, BaldurError> {
    let m = JitterModel::paper();
    let items: Vec<(f64, u64, u64)> = [1.0, 2.0, 3.0, 3.5]
        .into_iter()
        .map(|thr| (thr, samples, seed))
        .collect();
    let monte_carlo = all_ok(
        LABEL,
        sw.try_map(LABEL, items, |(thr, samples, seed)| {
            let m = JitterModel::paper();
            (
                *thr,
                m.monte_carlo_exceedance(*thr, *samples, *seed),
                crate::tl::reliability::normal_tail(*thr),
            )
        }),
    )?;
    Ok(ReliabilityReport {
        sigma_ps: m.sigma_ps(),
        margin_ps: m.margin_ps(),
        margin_sigmas: m.margin_sigmas(),
        analytic_error_probability: m.error_probability(),
        monte_carlo,
    })
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let samples = p.u64("samples")?;
    let seed = p.u64("seed")?;
    let r = reliability(sw, samples, seed)?;
    let mut out = String::new();
    section(
        &mut out,
        "Sec. IV-F reliability (jitter N(0, 1.53 ps^2), margin 0.42T)",
    );
    outln!(out, "sigma                 {:>10.3} ps", r.sigma_ps);
    outln!(
        out,
        "margin                {:>10.3} ps ({:.2} sigma)",
        r.margin_ps,
        r.margin_sigmas
    );
    outln!(
        out,
        "analytic P(error)     {:>10.2e}  (paper: ~1e-9)",
        r.analytic_error_probability
    );
    outln!(out, "\nMonte Carlo validation ({samples} samples):");
    outln!(out, "threshold | measured   | analytic");
    for (thr, mc, an) in &r.monte_carlo {
        outln!(out, "{thr:>8.1}s | {mc:>10.3e} | {an:>10.3e}");
    }
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("reliability", &r)?),
        files: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_is_1e_minus_9_class() {
        let r = reliability(&Sweep::new(0), 100_000, 1).expect("no faults injected here");
        assert!(r.analytic_error_probability < 1e-8);
        for (_, mc, an) in &r.monte_carlo {
            if *an > 1e-3 {
                assert!((mc / an - 1.0).abs() < 0.25, "{mc} vs {an}");
            }
        }
    }
}
