//! Benchmark of the Baldur simulator, driven from the outside through the
//! library's public API.
//!
//! ```text
//! baldur-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! baldur-benchmark --bless
//! baldur-benchmark --compare A.json B.json
//! ```
//!
//! Every repetition runs in a fresh child process (this binary, re-executed
//! with `--child`), one at a time and single-threaded, so each child's peak
//! RSS belongs to its workload alone. Untraced runs give the end-to-end
//! metrics; `--trace 1` gives the per-layer ones. `--seconds` defaults to
//! `run_seconds` in `BENCHMARK.json`. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`; the exit
//! code is non-zero when `correct` is false. `README.md` describes the
//! workloads and every metric.

mod cell;
mod compare;
mod gate;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::gate::{fingerprint, Expected, Projection};
use crate::stats::Summary;
use crate::workloads::{Cell, DEFAULT_SEED, NAMES};

/// The benchmark's own directory (results go to `out/` under it).
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Set-up children per untraced run, at least and at most; between the
/// two, set-up stops once it has used [`SETUP_SHARE`] of `--seconds`.
/// `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_SHARE: f64 = 0.1;
/// Run children per untraced run, at least and at most.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 50;

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics reported by `--trace 1`: name and unit.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("sim.events", "count"),
        ("sim.events_scheduled", "count"),
        ("sim.peak_pending", "count"),
        ("sim.calendar", "count"),
        ("sim.loop_s", "s"),
        ("sim.sched_s", "s"),
        ("sim.ns_per_event", "ns"),
        ("sim.events_per_s", "1/s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (layer, kinds) in [
        ("baldur", trace::BALDUR_KINDS),
        ("router", trace::ROUTER_KINDS),
    ] {
        for kind in kinds.iter().filter(|k| **k != "fault") {
            out.push((format!("{layer}.{kind}.count"), "count"));
            out.push((format!("{layer}.{kind}.self_s"), "s"));
        }
    }
    for net in ["baldur", "electrical_mb", "dragonfly", "fattree", "ideal"] {
        out.push((format!("cell.{net}.run_s"), "s"));
    }
    for (n, u) in [
        ("topo.build_s", "s"),
        ("net.model_new_s", "s"),
        ("driver.build_s", "s"),
        ("net.report_s", "s"),
        ("net.state_bytes", "B"),
        ("net.bytes_per_endpoint", "B"),
        ("net.rss_over_state", "ratio"),
        ("net.events_per_pkt", "ratio"),
        ("net.retx_per_pkt", "ratio"),
        ("net.useful_frac", "ratio"),
        ("net.shed_frac", "ratio"),
        ("net.oracle_violations", "count"),
        ("trace.overhead_frac", "ratio"),
        ("trace.sample_every", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Command-line options.
#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    /// `None` takes `run_seconds` from `BENCHMARK.json`.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    bless: bool,
    compare: Option<(PathBuf, PathBuf)>,
    child: Option<String>,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed takes an integer, got `{s}`"))
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        bless: false,
        compare: None,
        child: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        NAMES.join(", ")
                    ));
                }
                o.workload = Some(w);
            }
            "--seed" => o.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                let seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got `{v}`"))?;
                o.seconds = Some(seconds);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => o.smoke = true,
            "--bless" => o.bless = true,
            "--compare" => {
                let a = value()?;
                let b = value()?;
                o.compare = Some((a.into(), b.into()));
            }
            "--child" => o.child = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

// ---------------------------------------------------------------- children

/// What a set-up child reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SetupOutput {
    /// Host seconds building every cell's driver, topology and model.
    setup_s: f64,
}

/// One cell of an untraced run.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellOutcome {
    id: String,
    network: String,
    run_s: f64,
    fingerprint: String,
    projection: Projection,
    oracle_violations: u64,
}

/// What a run child reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RunOutput {
    /// Host seconds of the loop calling `baldur::run` on every cell.
    run_s: f64,
    /// The child's peak resident set (`VmHWM`), KiB.
    peak_rss_kb: u64,
    cells: Vec<CellOutcome>,
}

fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Times set-up of every cell: the runner's constructors, nothing run.
fn child_setup(cells: &[Cell]) -> SetupOutput {
    let mut setup_s = 0.0;
    for c in cells {
        let t = Instant::now();
        let built = cell::build(&c.cfg, false, &mut |_, _| {});
        setup_s += t.elapsed().as_secs_f64();
        drop(std::hint::black_box(built));
    }
    SetupOutput { setup_s }
}

/// Runs every cell through `baldur::run`, timing each call.
fn child_run(cells: &[Cell]) -> RunOutput {
    let mut reports = Vec::with_capacity(cells.len());
    let mut times = Vec::with_capacity(cells.len());
    let t = Instant::now();
    for c in cells {
        let tc = Instant::now();
        reports.push(baldur::run(&c.cfg));
        times.push(tc.elapsed().as_secs_f64());
    }
    let run_s = t.elapsed().as_secs_f64();
    let cells = cells
        .iter()
        .zip(reports.iter().zip(times))
        .map(|(c, (r, run_s))| CellOutcome {
            id: c.id.clone(),
            network: c.network.clone(),
            run_s,
            fingerprint: fingerprint(r),
            projection: Projection::of(r),
            oracle_violations: r.oracle.total(),
        })
        .collect();
    RunOutput {
        run_s,
        peak_rss_kb: peak_rss_kb(),
        cells,
    }
}

fn run_child_mode(mode: &str, o: &Opts) -> Result<String, String> {
    let w = o.workload.as_deref().ok_or("a child needs --workload")?;
    let cells = workloads::cells(w, o.seed, o.smoke).ok_or("unknown workload")?;
    match mode {
        "setup" => Ok(json(&child_setup(&cells))),
        "run" => Ok(json(&child_run(&cells))),
        "trace" => Ok(json(&trace::run_traced(&cells))),
        other => Err(format!("unknown child mode `{other}`")),
    }
}

/// Runs this binary as a child in `mode` and parses its last stdout line.
fn spawn<T: Deserialize>(mode: &str, workload: &str, o: &Opts) -> Result<T, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", workload, "--seed"])
        .arg(o.seed.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{mode} child for {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{mode} child for {workload} exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{mode} child for {workload}: {e}"))
}

// ----------------------------------------------------------------- parent

/// The outcome of one workload.
#[derive(Debug, Clone, Default, Serialize)]
struct WorkloadResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Summary>,
}

/// Applies the output gate to the run children of one workload; returns
/// the failed cell count. `pinned` holds the expected fingerprints, if
/// any; otherwise the first run's fingerprints are the reference.
fn gate_runs(w: &str, runs: &[RunOutput], pinned: Option<&BTreeMap<String, String>>) -> u64 {
    let reference: BTreeMap<String, String> = match (pinned, runs.first()) {
        (Some(p), _) => p.clone(),
        (None, Some(first)) => first
            .cells
            .iter()
            .map(|c| (c.id.clone(), c.fingerprint.clone()))
            .collect(),
        (None, None) => BTreeMap::new(),
    };
    let mut failed = 0;
    for (rep, r) in runs.iter().enumerate() {
        for c in &r.cells {
            let p = &c.projection;
            if !p.conserves() {
                eprintln!(
                    "FAIL {w} rep {rep} {}: conservation broken: generated {} != delivered {} + \
                     abandoned {} + expired {} + ingress_drops {}",
                    c.id, p.generated, p.delivered, p.abandoned, p.expired, p.ingress_drops
                );
                failed += 1;
            } else if reference.get(&c.id) != Some(&c.fingerprint) {
                eprintln!(
                    "FAIL {w} rep {rep} {}: fingerprint {} != expected {}",
                    c.id,
                    c.fingerprint,
                    reference.get(&c.id).map_or("(none pinned)", String::as_str)
                );
                failed += 1;
            }
        }
    }
    failed
}

fn expected_path() -> PathBuf {
    Path::new(BENCH_DIR).join("expected.json")
}

/// The pinned fingerprints that apply to this run, if any.
fn pinned<'a>(w: &str, o: &Opts, expected: &'a Expected) -> Option<&'a BTreeMap<String, String>> {
    static EMPTY: BTreeMap<String, String> = BTreeMap::new();
    if o.seed == DEFAULT_SEED && !o.smoke {
        Some(expected.get(w).unwrap_or(&EMPTY))
    } else {
        None
    }
}

/// Untraced measurement of one workload: set-up children, then run
/// children until `seconds` are spent (at least [`MIN_REPS`]).
fn measure(w: &str, o: &Opts, seconds: f64, expected: &Expected) -> WorkloadResult {
    let n_cells = workloads::cells(w, o.seed, o.smoke)
        .expect("workload names are checked")
        .len() as u64;
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut broken_children = 0u64;
    let mut setup_reps = 0usize;
    while setup_reps < SETUP_MIN
        || (setup_reps < SETUP_MAX && start.elapsed().as_secs_f64() < SETUP_SHARE * seconds)
    {
        match spawn::<SetupOutput>("setup", w, o) {
            Ok(s) => setup.push(s.setup_s),
            Err(e) => {
                eprintln!("FAIL {e}");
                broken_children += 1;
            }
        }
        setup_reps += 1;
    }
    let mut runs: Vec<RunOutput> = Vec::new();
    let mut reps = 0usize;
    loop {
        let t = Instant::now();
        match spawn::<RunOutput>("run", w, o) {
            Ok(r) => runs.push(r),
            Err(e) => {
                eprintln!("FAIL {e}");
                broken_children += 1;
            }
        }
        reps += 1;
        let projected = start.elapsed() + t.elapsed();
        if reps >= MAX_REPS || (reps >= MIN_REPS && projected.as_secs_f64() > seconds) {
            break;
        }
    }
    let failed = gate_runs(w, &runs, pinned(w, o, expected)) + broken_children * n_cells;
    let mut metrics = BTreeMap::new();
    let run_s: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect();
    for (name, unit) in END_TO_END {
        let samples = match name {
            "run_s" => &run_s,
            "setup_s" => &setup,
            _ => &rss,
        };
        if !samples.is_empty() {
            metrics.insert(name.to_string(), Summary::of(unit, samples));
        }
    }
    WorkloadResult {
        correct: failed == 0 && metrics.len() == END_TO_END.len(),
        attempted: (reps + setup_reps) as u64 * n_cells,
        failed,
        metrics,
    }
}

/// Traced measurement of one workload: one untraced run child for the
/// reference, then one traced child; the trace is written to
/// `out/trace-<workload>.json`.
fn measure_traced(w: &str, o: &Opts, expected: &Expected) -> WorkloadResult {
    let n_cells = workloads::cells(w, o.seed, o.smoke)
        .expect("workload names are checked")
        .len() as u64;
    let fail = |e: String| {
        eprintln!("FAIL {e}");
        WorkloadResult {
            attempted: n_cells,
            failed: n_cells,
            ..WorkloadResult::default()
        }
    };
    let untraced = match spawn::<RunOutput>("run", w, o) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let traced = match spawn::<trace::TraceOutput>("trace", w, o) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let mut failed = gate_runs(w, std::slice::from_ref(&untraced), pinned(w, o, expected));
    for c in &untraced.cells {
        let rebuilt = traced.projections.iter().find(|(id, _)| *id == c.id);
        if rebuilt.map(|(_, p)| p) != Some(&c.projection) {
            eprintln!(
                "FAIL {w} {}: the traced rebuild diverged from baldur::run\n  untraced {:?}\n  traced   {:?}",
                c.id,
                c.projection,
                rebuilt.map(|(_, p)| p)
            );
            failed += 1;
        }
    }
    let values = layer_metrics(&untraced, &traced);
    let handlers_s: f64 = values
        .iter()
        .filter(|(n, _)| n.ends_with(".self_s") && !n.starts_with("cell."))
        .map(|(_, v)| v)
        .sum();
    let cells_s: f64 = untraced.cells.iter().map(|c| c.run_s).sum();
    println!(
        "{w} accounting: handlers {handlers_s:.4} s + sched {:.4} s vs sim.loop_s {:.4} s; \
         cell shares {cells_s:.4} s vs run_s {:.4} s ({:+.2}%)",
        values["sim.sched_s"],
        values["sim.loop_s"],
        untraced.run_s,
        (cells_s / untraced.run_s - 1.0) * 100.0
    );
    let units: BTreeMap<String, &str> = per_layer().into_iter().collect();
    let metrics: BTreeMap<String, Summary> = values
        .iter()
        .map(|(n, v)| (n.clone(), Summary::of(units[n], &[*v])))
        .collect();
    write_trace(w, o, &values, &traced);
    WorkloadResult {
        correct: failed == 0,
        attempted: n_cells,
        failed,
        metrics,
    }
}

/// Combines the traced child's own measurements with the untraced
/// reference run into the full per-layer metric set.
fn layer_metrics(untraced: &RunOutput, traced: &trace::TraceOutput) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect();
    for (n, v) in &traced.metrics {
        if let Some(slot) = m.get_mut(n) {
            *slot = *v;
        }
    }
    let events = m["sim.events"];
    let loop_s = m["sim.loop_s"];
    if events > 0.0 {
        m.insert("sim.ns_per_event".into(), loop_s * 1e9 / events);
        m.insert("sim.events_per_s".into(), events / loop_s);
    }
    let total = |f: fn(&Projection) -> u64| -> f64 {
        untraced.cells.iter().map(|c| f(&c.projection) as f64).sum()
    };
    for c in &untraced.cells {
        *m.entry(format!("cell.{}.run_s", c.network)).or_insert(0.0) += c.run_s;
    }
    let generated = total(|p| p.generated);
    let injections = total(|p| p.injections);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    m.insert(
        "net.events_per_pkt".into(),
        ratio(total(|p| p.events), generated),
    );
    m.insert(
        "net.retx_per_pkt".into(),
        ratio(total(|p| p.retransmissions), generated),
    );
    m.insert(
        "net.useful_frac".into(),
        ratio(total(|p| p.delivered), injections),
    );
    m.insert(
        "net.shed_frac".into(),
        ratio(total(|p| p.ingress_drops + p.expired), generated),
    );
    let violations: u64 = untraced.cells.iter().map(|c| c.oracle_violations).sum();
    m.insert("net.oracle_violations".into(), violations as f64);
    let state = m["net.state_bytes"];
    if state > 0.0 {
        m.insert(
            "net.rss_over_state".into(),
            untraced.peak_rss_kb as f64 * 1024.0 / state,
        );
    }
    m.insert(
        "trace.overhead_frac".into(),
        (traced.traced_s - untraced.run_s) / untraced.run_s,
    );
    m.insert("trace.sample_every".into(), trace::SAMPLE_EVERY as f64);
    m
}

fn out_dir() -> PathBuf {
    Path::new(BENCH_DIR).join("out")
}

fn write_file(path: &Path, text: &str) {
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Writes the spans and per-layer numbers of a traced run.
fn write_trace(w: &str, o: &Opts, values: &BTreeMap<String, f64>, traced: &trace::TraceOutput) {
    #[derive(Serialize)]
    struct TraceFile {
        workload: String,
        seed: u64,
        smoke: bool,
        metrics: BTreeMap<String, f64>,
        spans: Vec<trace::Span>,
    }
    let file = TraceFile {
        workload: w.to_string(),
        seed: o.seed,
        smoke: o.smoke,
        metrics: values.clone(),
        spans: traced.spans.clone(),
    };
    let text = serde_json::to_string_pretty(&file).expect("the vendored renderer never fails");
    write_file(&out_dir().join(format!("trace-{w}.json")), &(text + "\n"));
}

fn print_table(w: &str, r: &WorkloadResult) {
    println!(
        "{w}: {} ({} of {} attempted cells failed, fail_frac {:.4})",
        if r.correct { "correct" } else { "INCORRECT" },
        r.failed,
        r.attempted,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for (name, s) in &r.metrics {
        println!(
            "  {name:<26} {:>6}  median {:<14.6} q1 {:<14.6} q3 {:<14.6} n {}",
            s.unit, s.median, s.q1, s.q3, s.n
        );
    }
}

/// One metric on the result line.
#[derive(Serialize)]
struct LineMetric {
    value: f64,
    unit: String,
}

/// The required last line: the run's verdict and one value per metric.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, LineMetric>,
}

/// Renders the result line; a workload's metrics are prefixed with its
/// name when several workloads ran.
fn result_line(results: &BTreeMap<String, WorkloadResult>, prefixed: bool) -> String {
    let mut metrics = BTreeMap::new();
    for (w, r) in results {
        for (name, s) in &r.metrics {
            let key = if prefixed {
                format!("{w}.{name}")
            } else {
                name.clone()
            };
            let unit = s.unit.clone();
            metrics.insert(
                key,
                LineMetric {
                    value: s.median,
                    unit,
                },
            );
        }
    }
    json(&ResultLine {
        correct: results.values().all(|r| r.correct),
        attempted: results.values().map(|r| r.attempted).sum(),
        failed: results.values().map(|r| r.failed).sum(),
        metrics,
    })
}

fn json<T: Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).expect("the vendored renderer never fails")
}

fn bless() -> Result<(), String> {
    let o = parse_args(&[])?;
    let mut expected = Expected::new();
    for w in NAMES {
        let run = spawn::<RunOutput>("run", w, &o)?;
        if let Some(c) = run.cells.iter().find(|c| !c.projection.conserves()) {
            return Err(format!(
                "{w} {}: conservation broken; refusing to bless",
                c.id
            ));
        }
        let pins = run
            .cells
            .iter()
            .map(|c| (c.id.clone(), c.fingerprint.clone()))
            .collect();
        expected.insert(w.to_string(), pins);
        println!("blessed {w}: {} cells", run.cells.len());
    }
    gate::save_expected(&expected_path(), &expected)
}

/// The repository's `BENCHMARK.json`: metric bounds and `run_seconds`.
fn benchmark_json() -> PathBuf {
    Path::new(BENCH_DIR).join("../BENCHMARK.json")
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = compare::load_bounds(&benchmark_json())?;
    let base = compare::load_results(a)?;
    let new = compare::load_results(b)?;
    let (report, any_worse) = compare::compare(&base, &new, &bounds);
    print!("{report}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = &o.child {
        return match run_child_mode(mode, &o) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("child error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some((a, b)) = &o.compare {
        return match run_compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if o.bless {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bless: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let expected = match gate::load_expected(&expected_path()) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("expected fingerprints: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = match o
        .seconds
        .map_or_else(|| compare::load_run_seconds(&benchmark_json()), Ok)
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("run_seconds: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let mut results = BTreeMap::new();
    for w in &names {
        let r = if o.trace {
            measure_traced(w, &o, &expected)
        } else {
            measure(w, &o, seconds, &expected)
        };
        print_table(w, &r);
        results.insert(w.to_string(), r);
    }
    #[derive(Serialize)]
    struct Latest {
        seed: u64,
        seconds: f64,
        smoke: bool,
        trace: bool,
        workloads: BTreeMap<String, WorkloadResult>,
    }
    let latest = Latest {
        seed: o.seed,
        seconds,
        smoke: o.smoke,
        trace: o.trace,
        workloads: results.clone(),
    };
    let text = serde_json::to_string_pretty(&latest).expect("the vendored renderer never fails");
    write_file(&out_dir().join("latest.json"), &(text + "\n"));
    println!("{}", result_line(&results, names.len() > 1));
    if results.values().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("the output gate failed; see the FAIL lines above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for w in NAMES {
            assert!(valid_name(w), "{w}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = benchmark_json();
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(serde::Value::Array(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => {
                        (n.clone(), u.clone())
                    }
                    _ => panic!("{key} entry without name and unit"),
                })
                .collect()
        };
        let mut e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let mut listed_e2e = listed("end_to_end");
        e2e.sort();
        listed_e2e.sort();
        assert_eq!(listed_e2e, e2e);
        let mut layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        let mut listed_layers = listed("per_layer");
        layers.sort();
        listed_layers.sort();
        assert_eq!(listed_layers, layers);
        let bounds = compare::load_bounds(&path).expect("bounds parse");
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(bounds
            .iter()
            .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
        let seconds = compare::load_run_seconds(&path).expect("run_seconds parses");
        assert!(
            seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds),
            "{seconds}"
        );
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let o = parse_args(&args(&[
            "--workload",
            "storm_1k",
            "--seed",
            "0x10",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(o.workload.as_deref(), Some("storm_1k"));
        assert_eq!((o.seed, o.seconds, o.trace), (16, Some(3.0), true));
        assert_eq!(
            parse_args(&args(&["--seed", "47645"])).map(|o| (o.seed, o.seconds)),
            Ok((DEFAULT_SEED, None))
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn smoke_fingerprints_repeat_and_depend_on_the_seed() {
        for w in NAMES {
            let cells = workloads::cells(w, DEFAULT_SEED, true).expect("known workload");
            let a = child_run(&cells);
            let b = child_run(&cells);
            assert_eq!(gate_runs(w, &[a.clone(), b], None), 0, "{w}");
            let other = workloads::cells(w, DEFAULT_SEED + 1, true).expect("known workload");
            let c = child_run(&other);
            assert!(
                a.cells
                    .iter()
                    .zip(&c.cells)
                    .any(|(x, y)| x.fingerprint != y.fingerprint),
                "{w}: the seed must reach the simulation"
            );
        }
    }

    #[test]
    fn the_gate_catches_a_broken_ledger_and_a_changed_result() {
        let cells = workloads::cells("contend_1k", DEFAULT_SEED, true).expect("known workload");
        let good = child_run(&cells);
        let mut leaked = good.clone();
        leaked.cells[0].projection.delivered -= 1;
        assert_eq!(gate_runs("contend_1k", &[good.clone(), leaked], None), 1);
        let mut pins = BTreeMap::new();
        pins.insert(good.cells[0].id.clone(), "0".repeat(64));
        assert_eq!(gate_runs("contend_1k", &[good], Some(&pins)), 1);
    }

    #[test]
    fn the_result_line_has_exactly_the_required_keys() {
        let mut results = BTreeMap::new();
        let mut metrics = BTreeMap::new();
        metrics.insert("run_s".to_string(), Summary::of("s", &[1.25, 1.5]));
        results.insert(
            "contend_1k".to_string(),
            WorkloadResult {
                correct: true,
                attempted: 4,
                failed: 0,
                metrics,
            },
        );
        let line = result_line(&results, false);
        let v = serde_json::parse_value(&line).expect("valid JSON");
        let serde::Value::Object(keys) = &v else {
            panic!("not an object");
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let run = v
            .get("metrics")
            .and_then(|m| m.get("run_s"))
            .expect("run_s");
        assert_eq!(run.get("value"), Some(&serde::Value::Float(1.375)));
        assert_eq!(run.get("unit"), Some(&serde::Value::Str("s".into())));
    }
}
