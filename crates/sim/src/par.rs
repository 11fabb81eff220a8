//! Thread pool for independent simulation jobs.
//!
//! The reproduction's sweeps (one simulation per load point, topology, or
//! fault scenario) are embarrassingly parallel: every run is a pure
//! function of its `RunConfig`, so fanning runs across threads cannot
//! change any result — only the wall clock. This module provides the
//! fan-out: a std-only pool (the workspace is offline-vendored, so rayon
//! is unavailable) of one job loop. Every worker, the caller's thread
//! among them, claims the next job index from a shared cursor, runs the
//! job, and writes the result into that job's own slot; one worker and
//! many run the same code.
//!
//! Determinism contract: [`par_map`] returns results **in submission
//! order** regardless of which worker executed which job, so downstream
//! CSV/JSON rendering is byte-identical at any thread count.
//! `baldur-lint` keeps wall-clock reads out of this crate; the pool never
//! consults a timer.
//!
//! Fault tolerance: [`par_map_isolated`] runs every job under
//! `catch_unwind`, so one panicking job becomes a [`JobSlot::Panicked`]
//! slot instead of tearing down its siblings. An optional failure budget
//! stops the workers claiming jobs once exceeded (the unclaimed jobs, a
//! suffix of submission order, come back as [`JobSlot::Skipped`]).
//!
//! Nesting: a job may itself call [`par_map`] (a sweep job that builds a
//! 1M-node topology, whose stages the build spreads over the pool). Such
//! an inner call runs every one of its jobs inline, in order, on the
//! worker that made it, so the thread count never multiplies; its result
//! is the same as at any worker count.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

thread_local! {
    /// Set while this thread runs the job loop, so a [`par_map_isolated`]
    /// called from inside a job runs inline on it.
    static IN_JOB_LOOP: Cell<bool> = const { Cell::new(false) };
}

/// Environment variable overriding the worker count for sweeps
/// (`thread_count(0)` consults it; an explicit request wins over it).
pub const THREADS_ENV: &str = "BALDUR_THREADS";

/// Parses a `BALDUR_THREADS`-style value: a positive integer, with
/// surrounding whitespace tolerated. `None`, empty, zero, or garbage all
/// yield `None` (meaning "fall back to the machine's parallelism").
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    match value?.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Resolves the worker count for a sweep: an explicit nonzero `requested`
/// wins; otherwise the `BALDUR_THREADS` environment variable; otherwise
/// the machine's available parallelism (1 if unknown).
pub fn thread_count(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = parse_threads(std::env::var(THREADS_ENV).ok().as_deref()) {
        return n;
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One slot of [`par_map_isolated`]'s submission-ordered result vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSlot<R> {
    /// The job ran to completion.
    Done(R),
    /// The job panicked; the string is the panic payload (or a
    /// placeholder for non-string payloads).
    Panicked(String),
    /// The job never ran: the workers stopped claiming jobs after the
    /// failure budget was exceeded.
    Skipped,
}

impl<R> JobSlot<R> {
    /// The completed result, if any.
    pub fn done(self) -> Option<R> {
        match self {
            JobSlot::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Renders a panic payload as a deterministic message. `&str` and
/// `String` payloads (everything `panic!` produces in this workspace)
/// pass through verbatim; anything else gets a fixed placeholder so
/// results stay byte-identical across runs and thread counts.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `items` on up to `threads` workers, returning results in
/// submission order.
///
/// The caller's thread is one of the workers, so with `threads <= 1` (or
/// a single item, or when called from inside another map's job) the map
/// spawns no thread and runs every job inline, in order, producing the
/// identical result vector.
///
/// # Panics
///
/// Propagates a panic from `f` — but, unlike a raw scoped pool, only
/// after every sibling job has completed (jobs run isolated via
/// [`par_map_isolated`], so one bad job never discards its siblings'
/// work).
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (slots, _aborted) = par_map_isolated(threads, items, None, f);
    slots
        .into_iter()
        .map(|slot| match slot {
            JobSlot::Done(r) => r,
            JobSlot::Panicked(msg) => panic!("a parallel job panicked: {msg}"),
            JobSlot::Skipped => unreachable!("no failure budget, so no job is ever skipped"),
        })
        .collect()
}

/// [`par_map`] with per-job panic isolation and an optional failure
/// budget, returning one [`JobSlot`] per item in submission order plus an
/// `aborted` flag.
///
/// Each job runs under `catch_unwind` (safe here: jobs are pure functions
/// of their item, and a panicked job's slot is *only* ever read as
/// [`JobSlot::Panicked`], so no broken invariant can leak). A panicking
/// job therefore yields a structured slot instead of killing siblings.
///
/// `fail_budget` is the number of *tolerated* failures: `Some(b)` stops
/// claiming jobs once strictly more than `b` jobs have panicked
/// (unclaimed jobs come back [`JobSlot::Skipped`] and the returned flag
/// is `true`); `None` never cancels. Jobs are claimed in submission
/// order, so the skipped jobs are always a suffix of it; with
/// `Some(_)` on several workers, only that suffix's length depends on
/// scheduling (jobs already claimed when the budget trips still run).
pub fn par_map_isolated<T, R, F>(
    threads: usize,
    items: Vec<T>,
    fail_budget: Option<usize>,
    f: F,
) -> (Vec<JobSlot<R>>, bool)
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = if IN_JOB_LOOP.get() {
        1
    } else {
        threads.clamp(1, items.len().max(1))
    };
    let slots: Vec<Mutex<JobSlot<R>>> =
        items.iter().map(|_| Mutex::new(JobSlot::Skipped)).collect();
    let next = AtomicUsize::new(0);
    let failures = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    // Every worker, the caller's thread included, runs this loop: claim
    // the next job index, run the job, store its slot. Locks cannot be
    // poisoned here: `catch_unwind` contains every job panic, so no
    // thread ever unwinds while holding one.
    let work = || {
        let nested = IN_JOB_LOOP.replace(true);
        while !abort.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let (Some(item), Some(slot)) = (items.get(i), slots.get(i)) else {
                break;
            };
            let done = match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => JobSlot::Done(r),
                Err(payload) => {
                    let seen = failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if fail_budget.is_some_and(|b| seen > b) {
                        abort.store(true, Ordering::Relaxed);
                    }
                    JobSlot::Panicked(panic_message(payload.as_ref()))
                }
            };
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = done;
        }
        IN_JOB_LOOP.set(nested);
    };
    thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });

    let out = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    (out, abort.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        let items: Vec<u64> = (0..100).collect();
        let got = par_map(4, items.clone(), |&x| x * x);
        let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(1, items.clone(), |&x| x.wrapping_mul(0x9E37).rotate_left(7));
        for threads in [2, 3, 8, 64] {
            let parallel = par_map(threads, items.clone(), |&x| {
                x.wrapping_mul(0x9E37).rotate_left(7)
            });
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map(16, vec![1u32, 2], |&x| x + 1), vec![2, 3]);
        assert_eq!(par_map(16, vec![5u32], |&x| x), vec![5]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(8, Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_job_costs_still_complete() {
        // Front-loaded heavy jobs: the other workers claim the cheap ones.
        let items: Vec<u32> = (0..16).collect();
        let got = par_map(4, items, |&x| {
            let spins = if x < 2 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(31).wrapping_add(1);
            }
            (x, acc)
        });
        let idx: Vec<u32> = got.iter().map(|&(x, _)| x).collect();
        assert_eq!(idx, (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn thread_count_prefers_explicit_request() {
        assert_eq!(thread_count(3), 3);
        assert!(thread_count(0) >= 1);
    }

    /// Runs `body` with the default panic hook silenced, so expected
    /// panics don't spray backtraces over the test output.
    fn quietly<R>(body: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = body();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn isolated_panics_become_slots_not_pool_teardown() {
        let items: Vec<u32> = (0..40).collect();
        let run = |threads| {
            let (slots, aborted) = par_map_isolated(threads, items.clone(), None, |&x| {
                if x % 7 == 3 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert!(!aborted, "unlimited budget never aborts");
            slots
        };
        let serial = quietly(|| run(1));
        for (i, slot) in serial.iter().enumerate() {
            let x = i as u32;
            if x % 7 == 3 {
                assert_eq!(*slot, JobSlot::Panicked(format!("boom at {x}")));
            } else {
                assert_eq!(*slot, JobSlot::Done(x * 2));
            }
        }
        for threads in [2, 8] {
            let parallel = quietly(|| run(threads));
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn failure_budget_cancels_remaining_queue() {
        // Budget 1: the second failure trips the abort; with one worker
        // the skip set is deterministic (everything after item 11).
        let (slots, aborted) = quietly(|| {
            par_map_isolated(1, (0u32..20).collect(), Some(1), |&x| {
                if x == 4 || x == 11 {
                    panic!("bad {x}");
                }
                x
            })
        });
        assert!(aborted);
        assert_eq!(slots[4], JobSlot::Panicked("bad 4".into()));
        assert_eq!(slots[11], JobSlot::Panicked("bad 11".into()));
        assert!(slots[12..].iter().all(|s| *s == JobSlot::Skipped));
        assert_eq!(slots[5], JobSlot::Done(5));
    }

    #[test]
    fn a_tripped_budget_skips_a_suffix_of_submission_order() {
        for threads in [2, 8] {
            for seed in 0u64..8 {
                // Seeded panics: about one job in five, placed by a hash
                // of the seed and the index.
                let bad = |x: u64| {
                    (x ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                        .rotate_left(31)
                        .is_multiple_of(5)
                };
                let (slots, aborted) = quietly(|| {
                    par_map_isolated(threads, (0u64..64).collect(), Some(1), |&x| {
                        if bad(x) {
                            panic!("bad {x}");
                        }
                        x * 3
                    })
                });
                let ran = slots.iter().take_while(|s| **s != JobSlot::Skipped).count();
                assert!(
                    slots[ran..].iter().all(|s| *s == JobSlot::Skipped),
                    "a job ran after a skipped one at {threads} threads, seed {seed}"
                );
                for (x, slot) in (0u64..).zip(&slots[..ran]) {
                    let want = if bad(x) {
                        JobSlot::Panicked(format!("bad {x}"))
                    } else {
                        JobSlot::Done(x * 3)
                    };
                    assert_eq!(*slot, want, "slot {x} at {threads} threads, seed {seed}");
                }
                let panicked = (0..ran as u64).filter(|&x| bad(x)).count();
                assert_eq!(aborted, panicked > 1, "{threads} threads, seed {seed}");
                assert!(aborted || ran == 64);
            }
        }
    }

    #[test]
    fn one_worker_runs_every_job_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ids = par_map(1, (0u32..8).collect(), |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_nested_map_runs_every_inner_job_on_its_outer_jobs_thread() {
        // Each outer job records its own thread and the threads its inner
        // jobs ran on; every inner job must have run where its outer job
        // did.
        let got = par_map(2, (0u32..8).collect(), |&x| {
            let outer = std::thread::current().id();
            let inner = par_map(2, (0u32..8).collect(), |&y| {
                (std::thread::current().id(), x * 8 + y)
            });
            (outer, inner)
        });
        for (x, (outer, inner)) in (0u32..).zip(&got) {
            for (y, &(id, v)) in (0u32..).zip(inner) {
                assert_eq!(id, *outer, "inner job {y} of outer job {x} left its thread");
                assert_eq!(v, x * 8 + y);
            }
        }
        // The flag is cleared once the outer map returns: a later map from
        // this (the caller's) thread may spread again.
        assert!(!IN_JOB_LOOP.get());
    }

    #[test]
    fn par_map_propagates_panics_after_siblings_finish() {
        let done = std::sync::atomic::AtomicUsize::new(0);
        let caught = quietly(|| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                par_map(4, (0u32..16).collect(), |&x| {
                    if x == 5 {
                        panic!("job 5 exploded");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                    x
                })
            }))
        });
        let msg = panic_message(caught.expect_err("must propagate").as_ref());
        assert!(msg.contains("job 5 exploded"), "{msg}");
        assert_eq!(
            done.load(Ordering::Relaxed),
            15,
            "all sibling jobs completed before the panic propagated"
        );
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let p = quietly(|| std::panic::catch_unwind(|| panic!("plain")).expect_err("panics"));
        assert_eq!(panic_message(p.as_ref()), "plain");
        let p = quietly(|| {
            let n = 7;
            std::panic::catch_unwind(move || panic!("formatted {n}")).expect_err("panics")
        });
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = quietly(|| {
            std::panic::catch_unwind(|| std::panic::panic_any(42u32)).expect_err("panics")
        });
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
