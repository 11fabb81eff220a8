//! Perf-subsystem suite: the `BENCH_8.json` artifact stays valid and
//! honest (schema, lineup, exact counters), the
//! `results/golden/perf_ops.json` CI gate stays fresh, and the report
//! types round-trip through the vendored serde.
//!
//! Wall-clock numbers are never asserted here — they are advisory by
//! design. What is law: the exact work counters, which must reproduce
//! bit-identically on any machine, any thread count, any opt level.

use std::path::Path;

use baldur::experiments::{
    ops_report, BenchRecord, BenchReport, Counters, OpsReport, WallStats, PERF_SCHEMA,
};

fn repo_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The benchmark lineup `BENCH_8.json` and the ops golden must carry,
/// in table order.
const EXPECTED_BENCHES: &[&str] = &[
    "sched_heap_push_pop",
    "sched_calendar_push_pop",
    "codec_encode",
    "codec_decode",
    "tl_gate_loop",
    "baldur_arb_retx",
    "fig6_throughput",
];

fn sample_report() -> BenchReport {
    let wall = WallStats {
        median_ns: 1_000.0,
        min_ns: 900.0,
        mad_ns: 10.0,
        samples: 10,
        rejected: 1,
    };
    let counters = Counters {
        ops: 42,
        packets: 7,
        bytes: 1024,
    };
    BenchReport {
        schema: PERF_SCHEMA.to_string(),
        git_rev: "deadbeef".to_string(),
        threads: 8,
        samples: 10,
        benches: vec![BenchRecord {
            name: "codec_encode".to_string(),
            counters,
            wall,
            ops_per_sec: 4.2e7,
        }],
        peak_rss_bytes: 48 * 1024 * 1024,
    }
}

/// Pre-probe artifacts (no `peak_rss_bytes` key) must keep parsing: the
/// committed `BENCH_8.json` predates the memory probe.
#[test]
fn bench_report_parses_without_peak_rss_field() {
    use serde::{Deserialize, Serialize, Value};
    let report = sample_report();
    let mut value = report.to_value();
    let Value::Object(entries) = &mut value else {
        panic!("report must lower to an object");
    };
    let before = entries.len();
    entries.retain(|(key, _)| key != "peak_rss_bytes");
    assert_eq!(entries.len(), before - 1, "field present before stripping");
    let back = BenchReport::from_value(&value).expect("parse without peak_rss_bytes");
    assert_eq!(back.peak_rss_bytes, 0);
    assert_eq!(back.benches, report.benches);
}

#[test]
fn bench_report_round_trips_through_serde() {
    let report = sample_report();
    let text = serde_json::to_string_pretty(&report).expect("serialize BenchReport");
    let back: BenchReport = serde_json::from_str(&text).expect("deserialize BenchReport");
    assert_eq!(back, report);
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

/// The committed `BENCH_8.json` perf-trajectory artifact: valid schema,
/// the full benchmark lineup, and counters that reproduce exactly on
/// this machine. Its `deltas` key (the speedups recorded against the
/// since-deleted pre-optimization code) is history: the report type no
/// longer carries it, and parsing ignores it.
#[test]
fn bench_8_json_is_valid_and_counters_reproduce() {
    let path = repo_path("BENCH_8.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}\nregenerate it with `cargo run --release --bin perf`",
            path.display()
        )
    });
    let report: BenchReport = serde_json::from_str(&text).expect("BENCH_8.json parses");
    assert_eq!(report.schema, PERF_SCHEMA);
    assert!(report.samples >= 3, "fewer than 3 samples per bench");
    assert!(report.threads >= 1);
    assert!(!report.git_rev.is_empty());

    let names: Vec<&str> = report.benches.iter().map(|b| b.name.as_str()).collect();
    assert_eq!(names, EXPECTED_BENCHES, "benchmark lineup drifted");

    // The committed counters must reproduce bit-exactly here and now.
    let fresh = ops_report();
    for (committed, live) in report.benches.iter().zip(&fresh.benches) {
        assert_eq!(committed.name, live.name);
        assert_eq!(
            committed.counters, live.counters,
            "bench `{}`: committed counters no longer reproduce — \
             regenerate BENCH_8.json with `cargo run --release --bin perf`",
            committed.name
        );
    }

    // Wall sanity (not a perf gate): stats are internally consistent.
    for b in &report.benches {
        assert!(b.wall.min_ns <= b.wall.median_ns, "bench `{}`", b.name);
        assert!(b.wall.rejected < b.wall.samples, "bench `{}`", b.name);
    }
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
