//! Perf-subsystem suite: the `results/golden/perf_ops.json` CI gate
//! stays fresh, and the report type round-trips through the vendored
//! serde.
//!
//! What is law here: the exact work counters, which must reproduce
//! bit-identically on any machine, any thread count, any opt level.

use std::path::Path;

use baldur::experiments::{ops_report, OpsReport};

fn repo_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn ops_report_round_trips_through_serde() {
    let report = ops_report();
    let text = serde_json::to_string_pretty(&report).expect("serialize OpsReport");
    let back: OpsReport = serde_json::from_str(&text).expect("deserialize OpsReport");
    assert_eq!(back, report);
}

#[test]
fn ops_counters_are_identical_across_passes() {
    // Two in-process passes — any divergence means a benchmark workload
    // leaked nondeterminism (wall clock, thread count, global state).
    assert_eq!(ops_report(), ops_report());
}

/// `results/golden/perf_ops.json` — the exact-counter snapshot the
/// `perf --smoke` CI step gates on — tracks the live workloads.
/// Re-bless with `./ci.sh --bless`.
#[test]
fn perf_ops_golden_is_fresh() {
    let golden_path = repo_path("results/golden/perf_ops.json");
    let mut rendered = serde_json::to_string_pretty(&ops_report()).expect("serialize OpsReport");
    rendered.push('\n');
    if std::env::var_os("BALDUR_BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().expect("golden dir has a parent"))
            .expect("create results/golden/");
        std::fs::write(&golden_path, &rendered).expect("bless perf_ops.json");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "read golden snapshot {}: {e}\n\
             create it with `./ci.sh --bless`",
            golden_path.display()
        )
    });
    assert!(
        rendered == golden,
        "results/golden/perf_ops.json drifted from the live work counters; \
         if the change is intentional (a workload or hot path changed), \
         re-bless with `./ci.sh --bless` and review the diff"
    );
}
