//! Bit-level reproducibility: a run is a pure function of its config.

use baldur::prelude::*;

fn run_twice(network: NetworkKind, workload: Workload) {
    let name = network.name();
    let mk = || {
        let mut cfg = RunConfig::new(64, network.clone(), workload);
        cfg.seed = 1234;
        baldur::run(&cfg)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.avg_ns.to_bits(), b.avg_ns.to_bits(), "{name}");
    assert_eq!(a.p99_ns.to_bits(), b.p99_ns.to_bits(), "{name}");
    assert_eq!(a.delivered, b.delivered, "{name}");
    assert_eq!(a.drop_attempts, b.drop_attempts, "{name}");
    assert_eq!(a.sim_end_ns.to_bits(), b.sim_end_ns.to_bits(), "{name}");
}

#[test]
fn every_network_is_deterministic() {
    let wl = Workload::Synthetic {
        pattern: Pattern::Bisection,
        load: 0.6,
        packets_per_node: 40,
    };
    for (_, network) in NetworkKind::paper_lineup(64) {
        run_twice(network, wl);
    }
}

#[test]
fn seeds_actually_matter() {
    let wl = Workload::Synthetic {
        pattern: Pattern::RandomPermutation,
        load: 0.6,
        packets_per_node: 40,
    };
    let mut cfg = RunConfig::new(64, NetworkKind::Baldur(BaldurParams::paper_for(64)), wl);
    cfg.seed = 1;
    let a = baldur::run(&cfg);
    cfg.seed = 2;
    let b = baldur::run(&cfg);
    assert_ne!(a.avg_ns.to_bits(), b.avg_ns.to_bits());
}

#[test]
fn trace_workloads_are_deterministic() {
    let wl = Workload::Hpc {
        app: HpcApp::Amg,
        params: TraceParams::default_scale(),
    };
    run_twice(NetworkKind::Baldur(BaldurParams::paper_for(64)), wl);
}

/// Two fresh runs of the same seed must agree on the *entire serialized
/// metrics struct* — every field, via the JSON rendering — not just the
/// headline numbers.
#[test]
fn full_metrics_json_is_bit_identical_across_runs() {
    let mk = || {
        let mut cfg = RunConfig::new(
            64,
            NetworkKind::Baldur(BaldurParams::paper_for(64)),
            Workload::Synthetic {
                pattern: Pattern::RandomPermutation,
                load: 0.6,
                packets_per_node: 40,
            },
        );
        cfg.seed = 4242;
        let report = baldur::run(&cfg);
        serde_json::to_string_pretty(&report).expect("serialize report")
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "serialized LatencyReport must be byte-identical");
}

/// The figure-6 CSV — the artifact the paper's plots are drawn from — must
/// be byte-identical across two same-seed regenerations.
#[test]
fn figure_csv_bytes_are_identical_across_runs() {
    let mk = || {
        let cfg = baldur::experiments::EvalConfig::tiny();
        let lineup = baldur::NetworkKind::paper_lineup(cfg.nodes);
        let sw = baldur::sweep::Sweep::new(0);
        let rows = baldur::experiments::figure6(&sw, &cfg, &lineup, &[0.3]);
        baldur::csv::fig6(&rows).into_bytes()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "fig6 CSV bytes must be identical for a fixed seed");
}
