//! Sweep orchestration: deterministic parallel fan-out and a
//! content-addressed run cache.
//!
//! Every experiment in [`crate::experiments`] is a sweep — a list of fully
//! self-describing jobs (each item serializes to JSON and determines its
//! result completely) mapped through a pure function. That structure buys
//! three things at once:
//!
//! * **Parallelism without divergence.** Jobs fan out over
//!   [`par::par_map_isolated`], which returns results in submission
//!   order, so rendered CSV/JSON is byte-identical at any thread count
//!   (`BALDUR_THREADS=1` and `=8` produce the same bytes; a tier-1 test
//!   asserts it).
//! * **Content-addressed caching.** Each job's cache key is the SHA-256 of
//!   `label | exact-JSON(item)`. A hit replays
//!   the stored result instead of simulating; because results are stored
//!   with [`serde_json::to_string_exact`] (non-finite floats round-trip)
//!   and floats render shortest-round-trip, a replayed result is
//!   bit-identical to a fresh one. Corrupt or unreadable entries are
//!   recomputed, overwritten, counted in [`SweepStats::corrupt`], and
//!   warned about on stderr.
//! * **Crash safety.** Each completed job's cache entry is persisted *as
//!   the job finishes*, via a temp file + rename, so no reader ever sees
//!   a torn entry. A `kill -9` mid-sweep loses at most the in-flight
//!   jobs: a plain rerun replays every finished job from the cache and
//!   re-executes only the rest.
//!
//! Failure handling is isolated: panicking jobs become [`JobError`]
//! slots instead of tearing down the sweep, and a failure budget
//! ([`Sweep::with_fail_budget`]) aborts the sweep cleanly once exceeded
//! (the jobs it cancels are a suffix of the sweep's cache misses, in
//! submission order).
//! There is no per-job deadline; the recovery path for a wedged run is
//! `kill -9` and a rerun, which the as-it-finishes cache writes make
//! cheap. [`Sweep::try_map`] exposes the full per-slot picture;
//! [`Sweep::map`] keeps the infallible-looking signature the experiments
//! use (failed jobs are dropped from its output after being warned
//! about, recorded in [`Sweep::failures`], and — when a budget aborts —
//! reflected in [`Sweep::aborted`]).
//!
//! The key names the job, not the code that computes it: the bench
//! binaries give each build its own cache directory (a subdirectory of
//! `results/cache/` named by the executable's digest, one `<hex>.json`
//! per job), so a rebuilt binary starts cold and no entry outlives the
//! code that wrote it. Unit tests do not enable the cache: a
//! [`Sweep::new`] runner is uncached, so `cargo test` never touches the
//! filesystem.
//!
//! A sweep reads no host clock: [`SweepStats`] counts jobs, cache hits
//! and failures, and [`Sweep::summary`] prints those counts only. Host
//! time is measured outside the simulator, by the repo benchmark, which
//! times each run in a child process.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::error::{JobError, JobErrorKind};
use crate::sim::par::{self, JobSlot};

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Per-sweep accounting: one entry per [`Sweep::map`] / [`Sweep::try_map`]
/// call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// The sweep label (also part of every job's cache key).
    pub label: String,
    /// Jobs in the sweep.
    pub jobs: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Corrupt cache entries healed by recomputing.
    pub corrupt: usize,
    /// Jobs that failed: panicked or cancelled.
    pub failed: usize,
}

/// One failed job, kept for the end-of-run status table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// The sweep label the job belonged to.
    pub label: String,
    /// Submission index of the job within its sweep.
    pub index: usize,
    /// The structured failure.
    pub error: JobError,
}

/// A panic-isolated parallel sweep runner with optional result caching.
///
/// Construct once per harness invocation and pass to the experiment
/// functions; [`Sweep::summary`] renders the collected per-sweep
/// job and cache counters, and [`Sweep::status_table`] renders the
/// failure report (if any).
#[derive(Debug)]
pub struct Sweep {
    threads: usize,
    cache_dir: Option<PathBuf>,
    fail_budget: Option<usize>,
    stats: Mutex<Vec<SweepStats>>,
    failures: Mutex<Vec<SweepFailure>>,
    aborted: AtomicBool,
}

impl Sweep {
    /// An uncached sweep runner. `threads == 0` resolves through
    /// `BALDUR_THREADS`, then the machine's parallelism.
    pub fn new(threads: usize) -> Self {
        Sweep {
            threads: crate::sim::par::thread_count(threads),
            cache_dir: None,
            fail_budget: None,
            stats: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
            aborted: AtomicBool::new(false),
        }
    }

    /// Redirects (and enables) the cache at `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Tolerates `budget` failed jobs per sweep; the next failure
    /// cancels the sweep's unclaimed jobs (those jobs come back
    /// [`JobErrorKind::Skipped`]) and sets [`Sweep::aborted`]. Without a
    /// budget, every job runs.
    #[must_use]
    pub fn with_fail_budget(mut self, budget: usize) -> Self {
        self.fail_budget = Some(budget);
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, preserving order, replaying
    /// cached results where available. Failed jobs (panicked, or
    /// cancelled by the failure budget) are **dropped from the
    /// output** after a stderr warning — they remain visible via
    /// [`Sweep::failures`], [`Sweep::status_table`], and
    /// [`Sweep::aborted`]. Use [`Sweep::try_map`] to see every slot.
    ///
    /// Each item must be *self-describing*: its serialized form (plus
    /// `label`) is the cache key, so everything that influences `f`'s
    /// result must be part of the item — which is why the experiment
    /// sweeps carry their full `RunConfig` in the item tuples.
    pub fn map<T, R, F>(&self, label: &str, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Serialize + Send + Sync,
        R: Serialize + Deserialize + Send,
        F: Fn(&T) -> R + Sync,
    {
        self.try_map(label, items, f)
            .into_iter()
            .filter_map(Result::ok)
            .collect()
    }

    /// The primitive under [`Sweep::map`]: one
    /// submission-ordered `Result` per item, failures included.
    ///
    /// Completed jobs are persisted to the cache *as they finish* (not
    /// at the end of the sweep), which is what lets a rerun after a
    /// `kill -9` mid-sweep replay every finished job.
    pub fn try_map<T, R, F>(&self, label: &str, items: Vec<T>, f: F) -> Vec<Result<R, JobError>>
    where
        T: Serialize + Send + Sync,
        R: Serialize + Deserialize + Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let paths: Vec<Option<PathBuf>> = items
            .iter()
            .map(|it| {
                let dir = self.cache_dir.as_ref()?;
                Some(dir.join(format!("{}.json", key_hex(label, it)?)))
            })
            .collect();

        let mut results: Vec<Option<Result<R, JobError>>> = Vec::with_capacity(n);
        let mut miss_idx: Vec<usize> = Vec::new();
        let (mut cache_hits, mut corrupt) = (0usize, 0usize);
        for (i, path) in paths.iter().enumerate() {
            match path.as_deref().map_or(CacheRead::Miss, read_entry::<R>) {
                CacheRead::Hit(r) => {
                    cache_hits += 1;
                    results.push(Some(Ok(r)));
                }
                CacheRead::Corrupt => {
                    corrupt += 1;
                    miss_idx.push(i);
                    results.push(None);
                }
                CacheRead::Miss => {
                    miss_idx.push(i);
                    results.push(None);
                }
            }
        }

        let (slots, aborted) =
            par::par_map_isolated(self.threads, miss_idx.clone(), self.fail_budget, |&i| {
                let r = f(&items[i]);
                // Persist as the job completes: this is the crash-safety
                // point. A kill after this line loses nothing.
                if let Some(path) = &paths[i] {
                    write_entry(path, &r);
                }
                r
            });

        let mut failed = 0usize;
        for (i, slot) in miss_idx.into_iter().zip(slots) {
            let report = match slot {
                JobSlot::Done(r) => Ok(r),
                JobSlot::Panicked(payload) => Err(JobError {
                    kind: JobErrorKind::Panicked,
                    payload,
                }),
                JobSlot::Skipped => Err(JobError::skipped()),
            };
            if let Err(error) = &report {
                failed += 1;
                eprintln!("warning: sweep '{label}': job {i} {error}");
                self.failures
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(SweepFailure {
                        label: label.to_string(),
                        index: i,
                        error: error.clone(),
                    });
            }
            results[i] = Some(report);
        }
        if aborted {
            self.aborted.store(true, Ordering::Relaxed);
            let budget = self.fail_budget.unwrap_or(0);
            eprintln!(
                "error: sweep '{label}': failure budget ({budget}) exhausted after {failed} \
                 failure{}; remaining jobs cancelled",
                if failed == 1 { "" } else { "s" }
            );
        }
        if corrupt > 0 {
            eprintln!(
                "warning: sweep '{label}': healed {corrupt} corrupt cache entr{} by recomputing",
                if corrupt == 1 { "y" } else { "ies" }
            );
        }

        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(SweepStats {
                label: label.to_string(),
                jobs: n,
                cache_hits,
                corrupt,
                failed,
            });

        results
            .into_iter()
            .map(|r| match r {
                Some(v) => v,
                None => unreachable!("every sweep job is a hit, a result, or a failure"),
            })
            .collect()
    }

    /// The per-sweep counters collected so far, in execution order.
    pub fn stats(&self) -> Vec<SweepStats> {
        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Every job failure recorded so far, in completion-report order.
    pub fn failures(&self) -> Vec<SweepFailure> {
        self.failures
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// True once any sweep on this runner exhausted its failure budget
    /// (bench binaries exit nonzero exactly in this case).
    pub fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Renders the collected counters as an aligned console block, e.g.
    ///
    /// ```text
    /// sweep summary (threads=8, cache=results/cache)
    ///   fig6                  48 jobs    48 hits   0 corrupt
    ///   total                 48 jobs    48 hits (100.0%)   0 corrupt
    /// ```
    pub fn summary(&self) -> String {
        let stats = self.stats();
        let cache_note = match &self.cache_dir {
            Some(dir) => format!("cache={}", dir.display()),
            None => "cache=off".to_string(),
        };
        let mut out = format!("sweep summary (threads={}, {cache_note})\n", self.threads);
        let (mut jobs, mut hits, mut corrupt) = (0usize, 0usize, 0usize);
        for s in &stats {
            out.push_str(&format!(
                "  {:<18} {:>5} jobs {:>5} hits {:>3} corrupt\n",
                s.label, s.jobs, s.cache_hits, s.corrupt
            ));
            jobs += s.jobs;
            hits += s.cache_hits;
            corrupt += s.corrupt;
        }
        let pct = if jobs == 0 {
            0.0
        } else {
            100.0 * hits as f64 / jobs as f64
        };
        out.push_str(&format!(
            "  {:<18} {jobs:>5} jobs {hits:>5} hits ({pct:.1}%) {corrupt:>3} corrupt\n",
            "total"
        ));
        out
    }

    /// Renders the per-job failure report, or `None` when every job
    /// succeeded (so callers can skip the block entirely).
    ///
    /// ```text
    /// job status (2 failed, sweep aborted: failure budget exhausted)
    ///   sweep              job  status     detail
    ///   fig6                 7  panicked   index out of bounds...
    /// ```
    ///
    /// `detail` is the failure payload, cut to 57 characters plus `...`
    /// when longer than 60.
    pub fn status_table(&self) -> Option<String> {
        let failures = self.failures();
        if failures.is_empty() && !self.aborted() {
            return None;
        }
        let mut out = format!(
            "job status ({} failed{})\n",
            failures.len(),
            if self.aborted() {
                ", sweep aborted: failure budget exhausted"
            } else {
                ""
            }
        );
        out.push_str(&format!(
            "  {:<16} {:>5}  {:<9}  detail\n",
            "sweep", "job", "status"
        ));
        for fail in &failures {
            let mut detail = fail.error.payload.clone();
            // Cut by characters: a byte cut can land inside a multi-byte
            // character (`—`) and panic.
            if detail.chars().count() > 60 {
                detail = detail.chars().take(57).collect();
                detail.push_str("...");
            }
            out.push_str(&format!(
                "  {:<16} {:>5}  {:<9}  {}\n",
                fail.label,
                fail.index,
                fail.error.kind.as_str(),
                detail
            ));
        }
        Some(out)
    }

    /// `(total jobs, cache hits)` across every sweep so far.
    pub fn totals(&self) -> (usize, usize) {
        let stats = self.stats();
        (
            stats.iter().map(|s| s.jobs).sum(),
            stats.iter().map(|s| s.cache_hits).sum(),
        )
    }
}

/// The hex cache key for one `(label, item)` job, or `None` when the
/// item fails to serialize — that job simply runs uncached.
fn key_hex<T: Serialize>(label: &str, item: &T) -> Option<String> {
    let payload = serde_json::to_string_exact(item).ok()?;
    Some(crate::hash::hex_digest(
        format!("{label}|{payload}").as_bytes(),
    ))
}

/// Outcome of probing one cache entry.
enum CacheRead<R> {
    /// Decoded successfully.
    Hit(R),
    /// The file exists but is unreadable or undecodable — a torn write
    /// or bit rot. Healed by recomputing (and counted, unlike a miss).
    Corrupt,
    /// No entry.
    Miss,
}

/// Probes one cache entry, distinguishing "absent" from "present but
/// corrupt" so heals are visible in the sweep stats.
fn read_entry<R: Deserialize>(path: &Path) -> CacheRead<R> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheRead::Miss,
        Err(_) => return CacheRead::Corrupt,
    };
    match serde_json::from_str(&text) {
        Ok(value) => CacheRead::Hit(value),
        Err(_) => CacheRead::Corrupt,
    }
}

/// Writes one cache entry via a temp file + rename so concurrent
/// harnesses never observe a torn entry. Failures are silent: the cache
/// is an accelerator, never a correctness dependency.
fn write_entry<R: Serialize>(path: &Path, value: &R) {
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let Ok(text) = serde_json::to_string_exact(value) else {
        return;
    };
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("baldur-sweep-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quietly<R>(body: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = body();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn uncached_map_preserves_order() {
        let sw = Sweep::new(4);
        let out = sw.map("square", (0u64..50).collect(), |&x| x * x);
        assert_eq!(out, (0u64..50).map(|x| x * x).collect::<Vec<_>>());
        let stats = sw.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].jobs, stats[0].cache_hits), (50, 0));
        assert_eq!((stats[0].corrupt, stats[0].failed), (0, 0));
    }

    #[test]
    fn second_run_hits_cache_and_agrees() {
        let dir = temp_dir("hits");
        let calls = AtomicUsize::new(0);
        let job = |&x: &u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            (x, (x as f64).sqrt())
        };
        let sw = Sweep::new(2).with_cache_dir(&dir);
        let first = sw.map("roots", (0u64..20).collect(), job);
        assert_eq!(calls.load(Ordering::Relaxed), 20);

        let sw2 = Sweep::new(2).with_cache_dir(&dir);
        let second = sw2.map("roots", (0u64..20).collect(), job);
        assert_eq!(calls.load(Ordering::Relaxed), 20, "all jobs replayed");
        assert_eq!(first, second);
        let stats = sw2.stats();
        assert_eq!((stats[0].jobs, stats[0].cache_hits), (20, 20));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn label_separates_cache_namespaces() {
        let dir = temp_dir("labels");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        let a = sw.map("double", vec![21u64], |&x| x * 2);
        let b = sw.map("triple", vec![21u64], |&x| x * 3);
        assert_eq!((a[0], b[0]), (42, 63));
        let (jobs, hits) = sw.totals();
        assert_eq!((jobs, hits), (2, 0), "same item, different label: no hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_item_under_two_labels_is_stored_as_two_entries() {
        let dir = temp_dir("label-entries");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        sw.map("fig_a", vec![5u64], |&x| x + 1);
        sw.map("fig_b", vec![5u64], |&x| x + 2);
        let entries = std::fs::read_dir(&dir).expect("cache dir exists").count();
        assert_eq!(entries, 2, "one entry per label");

        // Each label replays its own result, not the other's.
        let sw2 = Sweep::new(1).with_cache_dir(&dir);
        let a = sw2.map("fig_a", vec![5u64], |_| 0);
        let b = sw2.map("fig_b", vec![5u64], |_| 0);
        assert_eq!((a[0], b[0]), (6, 7));
        assert_eq!(sw2.totals(), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins one real Figure 6 job key (the first tiny-config cell): the
    /// SHA-256 of `fig6|` and the item's exact JSON. A change to the key
    /// derivation or to `RunConfig`'s serialized form shows here, not as
    /// a silently cold (or wrongly warm) cache.
    #[test]
    fn fig6_cache_key_is_pinned() {
        use crate::net::config::BaldurParams;
        use crate::net::runner::{NetworkKind, RunConfig, Workload};
        use crate::net::traffic::Pattern;
        let rc = RunConfig {
            seed: 0xBA1D,
            ..RunConfig::new(
                64,
                NetworkKind::Baldur(BaldurParams::paper_for(64)),
                Workload::Synthetic {
                    pattern: Pattern::RandomPermutation,
                    load: 0.3,
                    packets_per_node: 60,
                },
            )
        };
        let item = (
            "random_permutation".to_string(),
            "baldur".to_string(),
            0.3f64,
            rc,
        );
        assert_eq!(
            key_hex("fig6", &item).as_deref(),
            Some("ee7129c39ac102d74b5f11712d70b57e00275743a94af829731eac1365737ad3")
        );
    }

    #[test]
    fn corrupt_entries_recompute_and_are_counted() {
        let dir = temp_dir("corrupt");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        sw.map("c", vec![7u64], |&x| x + 1);
        for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
            let path = entry.expect("dir entry").path();
            std::fs::write(&path, "{ not json").expect("overwrite entry");
        }
        let sw2 = Sweep::new(1).with_cache_dir(&dir);
        let out = sw2.map("c", vec![7u64], |&x| x + 1);
        assert_eq!(out, vec![8]);
        assert_eq!(sw2.stats()[0].cache_hits, 0);
        assert_eq!(sw2.stats()[0].corrupt, 1, "the heal is surfaced");
        // The corrupt entry was healed: a third run hits, heal count 0.
        let sw3 = Sweep::new(1).with_cache_dir(&dir);
        sw3.map("c", vec![7u64], |&x| x + 1);
        assert_eq!(sw3.stats()[0].cache_hits, 1);
        assert_eq!(sw3.stats()[0].corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_results_round_trip_through_cache() {
        let dir = temp_dir("nonfinite");
        let job = |&x: &u32| match x {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => 0.1,
        };
        let sw = Sweep::new(1).with_cache_dir(&dir);
        sw.map("nf", (0u32..4).collect(), job);
        let sw2 = Sweep::new(1).with_cache_dir(&dir);
        let replayed = sw2.map("nf", (0u32..4).collect(), job);
        assert_eq!(sw2.stats()[0].cache_hits, 4);
        assert!(replayed[0].is_nan());
        assert_eq!(replayed[1], f64::INFINITY);
        assert_eq!(replayed[2], f64::NEG_INFINITY);
        assert_eq!(replayed[3].to_bits(), 0.1f64.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_mentions_totals() {
        let sw = Sweep::new(1);
        sw.map("alpha", vec![1u32, 2], |&x| x);
        sw.map("beta", vec![3u32], |&x| x);
        let s = sw.summary();
        assert!(s.contains("alpha"), "{s}");
        assert!(s.contains("beta"), "{s}");
        assert!(s.contains("total"), "{s}");
        assert!(s.contains("3 jobs"), "{s}");
        assert!(s.contains("corrupt"), "{s}");
    }

    #[test]
    fn panicking_job_yields_err_slot_and_siblings_complete() {
        let sw = Sweep::new(4);
        let slots = quietly(|| {
            sw.try_map("mix", (0u32..10).collect(), |&x| {
                if x == 6 {
                    panic!("job six is cursed");
                }
                x * 3
            })
        });
        assert_eq!(slots.len(), 10);
        for (i, slot) in slots.iter().enumerate() {
            if i == 6 {
                let err = slot.as_ref().expect_err("job 6 failed");
                assert_eq!(err.kind, JobErrorKind::Panicked);
                assert_eq!(err.payload, "job six is cursed");
            } else {
                assert_eq!(*slot, Ok(i as u32 * 3));
            }
        }
        assert!(!sw.aborted());
        assert_eq!(sw.stats()[0].failed, 1);
        let table = sw.status_table().expect("one failure to report");
        assert!(table.contains("panicked"), "{table}");
        assert!(table.contains("job six is cursed"), "{table}");
        // map() drops the failed slot but keeps order.
        let sw2 = Sweep::new(2);
        let kept = quietly(|| {
            sw2.map("mix", (0u32..10).collect(), |&x| {
                if x == 6 {
                    panic!("job six is cursed");
                }
                x * 3
            })
        });
        assert_eq!(kept, vec![0, 3, 6, 9, 12, 15, 21, 24, 27]);
    }

    #[test]
    fn failure_budget_aborts_the_sweep() {
        let sw = Sweep::new(1).with_fail_budget(1);
        let slots = quietly(|| {
            sw.try_map("budget", (0u32..10).collect(), |&x| {
                if x == 1 || x == 3 {
                    panic!("bad {x}");
                }
                x
            })
        });
        assert!(sw.aborted());
        assert_eq!(
            slots[3].as_ref().expect_err("second failure").kind,
            JobErrorKind::Panicked
        );
        assert!(slots[4..]
            .iter()
            .all(|s| s.as_ref().is_err_and(|e| e.kind == JobErrorKind::Skipped)));
        let table = sw.status_table().expect("failures to report");
        assert!(table.contains("aborted"), "{table}");
    }

    #[test]
    fn status_table_cuts_long_payloads_at_a_character_boundary() {
        // 103 bytes with a three-byte `—` at bytes 56..59: a byte cut at
        // 57 would land inside it.
        let message = format!("{}—{}", "x".repeat(56), "y".repeat(44));
        assert_eq!((message.len(), message.find('—')), (103, Some(56)));
        let sw = Sweep::new(1);
        quietly(|| sw.try_map("dash", vec![0u32], |_| -> u32 { panic!("{message}") }));
        let table = sw.status_table().expect("one failure to report");
        let want = format!("  {}—...", "x".repeat(56));
        assert!(table.lines().any(|l| l.ends_with(&want)), "{table}");
    }

    #[test]
    fn failed_jobs_are_not_cached() {
        let dir = temp_dir("failrec");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        quietly(|| {
            sw.try_map("f", (0u64..3).collect(), |&x| {
                if x == 1 {
                    panic!("no");
                }
                x
            })
        });
        // A rerun replays the two completed jobs and recomputes only the
        // one that panicked.
        let sw2 = Sweep::new(1).with_cache_dir(&dir);
        let out = sw2.map("f", (0u64..3).collect(), |&x| x); // healed job fn
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(sw2.stats()[0].cache_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
