//! Crash recovery: a sweep subprocess is SIGKILLed mid-run, then the
//! same sweep is simply rerun against the same cache directory. Every
//! entry the killed run finished must replay as a cache hit, and the
//! rerun must render byte-identical figure output.
//!
//! The child process is this same test binary re-executed with the
//! `child_sweep_worker` test selected and `BALDUR_CRASH_RECOVERY_CHILD`
//! set — the standard self-exec trick for subprocess tests without a
//! helper binary. `ci.sh` runs this suite as the `crash-recovery-smoke`
//! tier-1 gate.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use baldur::experiments::{figure6, EvalConfig, Fig6Row};
use baldur::sweep::Sweep;
use baldur::NetworkKind;

const CHILD_ENV: &str = "BALDUR_CRASH_RECOVERY_CHILD";
const CACHE_ENV: &str = "BALDUR_CRASH_CACHE_DIR";
const CSV_ENV: &str = "BALDUR_CRASH_CSV_OUT";
const STATS_ENV: &str = "BALDUR_CRASH_STATS_OUT";

const LOADS: [f64; 2] = [0.3, 0.7];

fn run_fig6(sw: &Sweep) -> Vec<Fig6Row> {
    let cfg = EvalConfig {
        threads: 1,
        ..EvalConfig::tiny()
    };
    figure6(sw, &cfg, &NetworkKind::paper_lineup(cfg.nodes), &LOADS)
}

/// Not a test of its own: the subprocess body. Without the guard env
/// var (every ordinary `cargo test` run) it returns immediately.
#[test]
fn child_sweep_worker() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let cache_dir = std::env::var(CACHE_ENV).expect("child needs a cache dir");
    let sw = Sweep::new(1).with_cache_dir(&cache_dir);
    let rows = run_fig6(&sw);
    let (jobs, hits) = sw.totals();
    std::fs::write(
        std::env::var(CSV_ENV).expect("child needs a CSV path"),
        baldur::csv::fig6(&rows),
    )
    .expect("write child CSV");
    std::fs::write(
        std::env::var(STATS_ENV).expect("child needs a stats path"),
        format!("jobs={jobs}\nhits={hits}\n"),
    )
    .expect("write child stats");
}

/// Spawns the child sweep against `dir`.
fn spawn_child(dir: &Path) -> std::process::Child {
    Command::new(std::env::current_exe().expect("current test binary"))
        .args(["child_sweep_worker", "--exact"])
        .env(CHILD_ENV, "1")
        .env(CACHE_ENV, dir.join("cache"))
        .env(CSV_ENV, dir.join("fig6.csv"))
        .env(STATS_ENV, dir.join("stats.txt"))
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn child sweep")
}

/// Counts completed cache entries (`*.json`; a torn in-flight temp file
/// has a `.tmp.<pid>` suffix, so it is not counted).
fn cache_entries(cache: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(cache) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count()
}

#[test]
fn sigkill_mid_sweep_then_rerun_is_byte_identical() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("baldur-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let cache = dir.join("cache");

    // Run A: kill it once a few jobs have landed in the cache. If the
    // sweep outruns the poll and finishes first, that's fine too — the
    // rerun below then replays *every* job.
    let mut a = spawn_child(&dir);
    let deadline = Instant::now() + Duration::from_secs(300);
    let finished_early = loop {
        if let Some(status) = a.try_wait().expect("poll child A") {
            assert!(status.success(), "child A failed: {status}");
            break true;
        }
        if cache_entries(&cache) >= 3 || Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    // Reap A before any assertion can fire, so a failed run never leaks
    // a live child.
    if !finished_early {
        a.kill().expect("SIGKILL child A");
        a.wait().expect("reap child A");
    }
    let survivors = cache_entries(&cache);
    assert!(
        survivors >= 3 || finished_early,
        "child A produced <3 cache entries in 300s"
    );

    // Run B is a plain rerun: it must succeed, replay every entry run A
    // finished, and render exactly the reference bytes.
    let status = spawn_child(&dir).wait().expect("run child B");
    assert!(status.success(), "rerun child B failed: {status}");

    let stats = std::fs::read_to_string(dir.join("stats.txt")).expect("child B stats");
    let hits: usize = stats
        .lines()
        .find_map(|l| l.strip_prefix("hits="))
        .expect("hits= line")
        .parse()
        .expect("hit count");
    assert!(hits > 0, "the rerun replayed nothing:\n{stats}");
    assert_eq!(
        hits, survivors,
        "every entry the killed run finished must replay:\n{stats}"
    );

    let reference = baldur::csv::fig6(&run_fig6(&Sweep::new(1)));
    let rerun_csv = std::fs::read_to_string(dir.join("fig6.csv")).expect("child B CSV");
    assert!(
        rerun_csv == reference,
        "rerun rendered different CSV bytes than an uncached run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
