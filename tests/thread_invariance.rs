//! Thread-count invariance: the parallel sweep engine must produce
//! byte-identical rendered output at any worker count.
//!
//! This is the determinism contract of `baldur::sweep` + `sim::par`:
//! results come back in submission order and every run is a pure function
//! of its `RunConfig`, so `BALDUR_THREADS=1` and `=8` (or any other
//! count) render the same CSV and JSON bytes. `ci.sh` runs this suite as
//! a tier-1 gate.

use baldur::experiments::{figure6, EvalConfig};
use baldur::registry::{self, Params};
use baldur::sweep::Sweep;
use baldur::NetworkKind;

/// Runs `f` with the default panic hook replaced by a silent one, so
/// deliberately-panicking jobs don't spray backtraces into test output.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}

/// The tiny Figure 6 sweep, rendered to CSV and JSON, at `threads` —
/// resolved through the experiment registry by name, so this gate covers
/// the exact code path the bench binaries run.
fn fig6_bytes(threads: usize) -> (String, String) {
    let spec = registry::get("fig6").expect("fig6 is registered");
    let cfg = EvalConfig {
        threads,
        ..EvalConfig::tiny()
    };
    let mut params = Params::for_spec(spec, cfg);
    params
        .set(spec, "loads", "0.3,0.7")
        .expect("loads is a declared fig6 axis");
    let sw = Sweep::new(threads);
    let out = (spec.run)(&sw, &params).expect("fig6 sweep succeeds");
    (
        out.csv.expect("fig6 renders CSV"),
        out.json.expect("fig6 renders JSON"),
    )
}

#[test]
fn fig6_is_byte_identical_at_1_2_and_8_threads() {
    let (csv1, json1) = fig6_bytes(1);
    for threads in [2, 8] {
        let (csv, json) = fig6_bytes(threads);
        assert!(
            csv == csv1,
            "fig6 CSV diverged between 1 and {threads} threads"
        );
        assert!(
            json == json1,
            "fig6 JSON diverged between 1 and {threads} threads"
        );
    }
}

/// The overload storm sweep, rendered to CSV and JSON through the
/// registry, at `threads` — the seeded overload dynamics (admission
/// drops, deadline expiry, jittered retries) must not leak any
/// thread-count dependence into the bytes.
fn overload_bytes(threads: usize) -> (String, String) {
    let spec = registry::get("overload").expect("overload is registered");
    let cfg = EvalConfig {
        threads,
        ..EvalConfig::tiny()
    };
    let mut params = Params::for_spec(spec, cfg);
    params
        .set(spec, "loads", "0.5,4")
        .expect("loads is a declared overload axis");
    params
        .set(spec, "patterns", "incast,hotcast")
        .expect("patterns is a declared overload axis");
    let sw = Sweep::new(threads);
    let out = (spec.run)(&sw, &params).expect("overload sweep succeeds");
    (
        out.csv.expect("overload renders CSV"),
        out.json.expect("overload renders JSON"),
    )
}

#[test]
fn overload_is_byte_identical_at_1_2_and_8_threads() {
    let (csv1, json1) = overload_bytes(1);
    for threads in [2, 8] {
        let (csv, json) = overload_bytes(threads);
        assert!(
            csv == csv1,
            "overload CSV diverged between 1 and {threads} threads"
        );
        assert!(
            json == json1,
            "overload JSON diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn failed_slots_are_submission_ordered_at_any_thread_count() {
    // Panic isolation must not cost determinism: with seeded panics in
    // the job function, the full slot vector — `Ok` rows and `Err`
    // rows alike — renders identically at 1, 2, and 8 workers.
    fn slots_debug(threads: usize) -> String {
        let sw = Sweep::new(threads);
        let items: Vec<u64> = (0..24).collect();
        let slots = sw.try_map("seeded-panics", items, |&x| {
            assert!(x % 5 != 2, "seeded panic on item {x}");
            x * x
        });
        format!("{slots:?}")
    }
    quietly(|| {
        let base = slots_debug(1);
        assert!(base.contains("seeded panic on item 2"), "{base}");
        assert!(base.contains("Ok(0)") && base.contains("Ok(529)"), "{base}");
        for threads in [2, 8] {
            assert!(
                slots_debug(threads) == base,
                "failure slots diverged between 1 and {threads} threads"
            );
        }
    });
}

#[test]
fn cached_sweep_replays_identically_across_thread_counts() {
    let dir = std::env::temp_dir().join(format!("baldur-thread-invariance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EvalConfig::tiny();
    let loads = [0.5];
    let lineup = NetworkKind::paper_lineup(cfg.nodes);

    // Cold run at 2 threads populates the cache; a warm run at 8 threads
    // must replay every job and render the same bytes (the cache key
    // deliberately excludes the thread count).
    let cold = Sweep::new(2).with_cache_dir(&dir);
    let rows_cold = figure6(&cold, &cfg, &lineup, &loads);
    assert_eq!(cold.totals().1, 0, "cold run cannot hit");

    let warm = Sweep::new(8).with_cache_dir(&dir);
    let rows_warm = figure6(&warm, &cfg, &lineup, &loads);
    let (jobs, hits) = warm.totals();
    assert_eq!(jobs, hits, "warm run must be answered fully from cache");

    assert!(
        baldur::csv::fig6(&rows_cold) == baldur::csv::fig6(&rows_warm),
        "cached replay rendered different CSV bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
