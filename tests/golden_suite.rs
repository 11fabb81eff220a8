//! Golden-file suite: renders a fixed subset of the figure CSVs at the
//! tiny config, plus the exact work counters of two hot-path runs, and
//! compares them byte-for-byte against the snapshots in `results/golden/`.
//!
//! These snapshots pin the *rendered output*, end to end: simulation
//! determinism, report field values, float formatting, and CSV layout all
//! have to hold for the bytes to match. A legitimate change to any of
//! those layers regenerates the snapshots with
//!
//! ```sh
//! ./ci.sh --bless            # or: BALDUR_BLESS=1 cargo test -q --test golden_suite
//! ```
//!
//! and the new files are reviewed like any other diff.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use baldur::experiments::{self, EvalConfig};
use baldur::net::config::BaldurParams;
use baldur::net::traffic::Pattern;
use baldur::sweep::Sweep;
use baldur::{run, NetworkKind, RunConfig, Workload};

/// Repo-relative directory holding the snapshots.
const GOLDEN_DIR: &str = "results/golden";

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(GOLDEN_DIR)
        .join(name)
}

/// First line where `got` and `want` differ, for a readable failure.
fn first_diff(got: &str, want: &str) -> String {
    let mut out = String::new();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            let _ = write!(out, "line {}:\n  got:    {g}\n  golden: {w}", i + 1);
            return out;
        }
    }
    let (gl, wl) = (got.lines().count(), want.lines().count());
    let _ = write!(out, "line counts differ: got {gl}, golden {wl}");
    out
}

/// Compares `rendered` against the snapshot `name`, or rewrites the
/// snapshot when `BALDUR_BLESS` is set.
fn check(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("BALDUR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create results/golden/");
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("bless {name}: {e}"));
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read golden snapshot {}: {e}\n\
             create it with `./ci.sh --bless` (or BALDUR_BLESS=1 cargo test -q --test golden_suite)",
            path.display()
        )
    });
    assert!(
        rendered == golden,
        "{name} drifted from its golden snapshot:\n{}\n\
         if the change is intentional, re-bless with `./ci.sh --bless` and review the diff",
        first_diff(rendered, &golden)
    );
}

fn tiny() -> EvalConfig {
    EvalConfig::tiny()
}

/// The uncached sweep every golden renders through: the same code path
/// the bench binaries run, minus the cache.
fn sweep() -> Sweep {
    Sweep::new(0)
}

#[test]
fn golden_fig6_csv() {
    let rows = experiments::figure6(
        &sweep(),
        &tiny(),
        &NetworkKind::paper_lineup(tiny().nodes),
        &[0.3, 0.7],
    );
    check("fig6.csv", &baldur::csv::fig6(&rows));
}

#[test]
fn golden_fig7_csv() {
    let rows = experiments::figure7(&sweep(), &tiny());
    check("fig7.csv", &baldur::csv::fig7(&rows));
}

#[test]
fn golden_faults_csv() {
    let rows = experiments::degradation(
        &sweep(),
        &tiny(),
        &NetworkKind::paper_lineup(tiny().nodes),
        &[0.0, 0.05],
    );
    check("faults.csv", &baldur::csv::faults(&rows));
}

#[test]
fn golden_chaos_csv() {
    // Two seeded fail/repair schedules per network: pins the chaos
    // schedule generator, the oracle summary, and the recovery metrics.
    let names = ["baldur", "fattree"].map(String::from);
    let lineup = NetworkKind::lineup_named(tiny().nodes, &names).expect("known networks");
    let rows = experiments::chaos(&sweep(), &tiny(), &lineup, 2, 3);
    check("chaos.csv", &baldur::csv::chaos(&rows));
}

#[test]
fn golden_overload_csv() {
    // Storms at 0.5x/1x/4x with the overload controls on: pins the
    // admission/pacing/deadline dynamics, the per-flow fairness
    // distribution, and the oracle summary.
    let networks = ["baldur", "fattree"].map(String::from);
    let patterns = ["uniform", "incast", "hotcast"].map(String::from);
    let rows = experiments::overload(&sweep(), &tiny(), &networks, &patterns, &[0.5, 1.0, 4.0])
        .expect("default storm lineup");
    check("overload.csv", &baldur::csv::overload(&rows));
}

#[test]
fn golden_table5_csv() {
    let rows = experiments::table_v(&sweep(), &tiny());
    check("table5.csv", &baldur::csv::table5(&rows));
}

#[test]
fn golden_fig8_csv() {
    // Analytic (no simulation): pins the power model and CSV rendering.
    let rows = experiments::figure8(&sweep());
    check("fig8.csv", &baldur::csv::fig8(&rows));
}

#[test]
fn golden_fig10_csv() {
    // Analytic: pins the cost model and CSV rendering.
    let rows = experiments::figure10(&sweep());
    check("fig10.csv", &baldur::csv::fig10(&rows));
}

#[test]
fn golden_hot_paths_csv() {
    // Exact event and delivery counts of two Baldur hot-path runs at 64
    // nodes: a random permutation at 0.9 load (arbitration, drops and
    // backoff retransmission) and a fig6-shaped sweep of all four
    // patterns through the parallel sweep harness.
    let nodes = 64;
    let baldur = NetworkKind::Baldur(BaldurParams::paper_for(u64::from(nodes)));
    let arb = run(&RunConfig::new(
        nodes,
        baldur.clone(),
        Workload::Synthetic {
            pattern: Pattern::RandomPermutation,
            load: 0.9,
            packets_per_node: 60,
        },
    ));
    let cfg = EvalConfig {
        nodes,
        packets_per_node: 40,
        pingpong_rounds: 10,
        seed: 0xBA1D,
        threads: 0,
    };
    let rows = experiments::figure6(&sweep(), &cfg, &[("baldur".to_string(), baldur)], &[0.5]);
    let events: u64 = rows.iter().map(|row| row.report.events).sum();
    let delivered: u64 = rows.iter().map(|row| row.report.delivered).sum();
    let mut csv = String::from("bench,events,delivered\n");
    let _ = writeln!(csv, "baldur_arb_retx,{},{}", arb.events, arb.delivered);
    let _ = writeln!(csv, "fig6_throughput,{events},{delivered}");
    check("hot_paths.csv", &csv);
}
