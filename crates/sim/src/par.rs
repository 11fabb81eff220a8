//! Work-stealing thread pool for independent simulation jobs.
//!
//! The reproduction's sweeps (one simulation per load point, topology, or
//! fault scenario) are embarrassingly parallel: every run is a pure
//! function of its `RunConfig`, so fanning runs across threads cannot
//! change any result — only the wall clock. This module provides the
//! fan-out: a std-only pool (the workspace is offline-vendored, so rayon
//! is unavailable) where each worker owns a deque of job indices and
//! steals from its neighbours when it runs dry.
//!
//! Determinism contract: [`par_map`] returns results **in submission
//! order** regardless of which worker executed which job, so downstream
//! CSV/JSON rendering is byte-identical at any thread count — including
//! the serial `threads == 1` path, which runs inline without spawning.
//! `baldur-lint` keeps wall-clock reads out of this crate; the pool never
//! consults a timer.
//!
//! Fault tolerance: [`par_map_isolated`] runs every job under
//! `catch_unwind`, so one panicking job becomes a [`JobSlot::Panicked`]
//! slot instead of tearing down its siblings. An optional failure budget
//! cancels the remaining queue once exceeded (the un-run jobs come back
//! as [`JobSlot::Skipped`]).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

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
    /// The job never ran: the pool cancelled the remaining queue after
    /// the failure budget was exceeded.
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
/// Jobs are dealt round-robin into per-worker deques; a worker pops its
/// own jobs from the front and, when dry, steals from the *back* of a
/// neighbour's deque (classic Chase–Lev shape, mutex-based since the
/// workspace forbids `unsafe`). With `threads <= 1` (or a single item)
/// the map runs inline on the caller's thread — no pool, no overhead —
/// and produces the identical result vector.
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
/// `fail_budget` is the number of *tolerated* failures: `Some(b)` cancels
/// the remaining queue once strictly more than `b` jobs have panicked
/// (cancelled jobs come back [`JobSlot::Skipped`] and the returned flag
/// is `true`); `None` never cancels. Note that with `Some(_)` on a
/// multi-worker pool, *which* jobs are skipped depends on scheduling —
/// only the unlimited-budget mode is thread-count deterministic.
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
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    let run_one = |item: &T| match catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(r) => JobSlot::Done(r),
        Err(payload) => JobSlot::Panicked(panic_message(payload.as_ref())),
    };

    if workers <= 1 {
        // Serial path: run inline, in order, honouring the budget exactly
        // like the pool does (failures counted as they occur).
        let mut out = Vec::with_capacity(n);
        let mut failures = 0usize;
        let mut aborted = false;
        for item in &items {
            if aborted {
                out.push(JobSlot::Skipped);
                continue;
            }
            let slot = run_one(item);
            if matches!(slot, JobSlot::Panicked(_)) {
                failures += 1;
                aborted = fail_budget.is_some_and(|b| failures > b);
            }
            out.push(slot);
        }
        return (out, aborted);
    }

    // Deal job indices round-robin so early (often heavier) points spread
    // across workers; stealing rebalances whatever the deal got wrong.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();
    let mut out: Vec<Option<JobSlot<R>>> = (0..n).map(|_| None).collect();
    let slots: Vec<Mutex<&mut Option<JobSlot<R>>>> = out.iter_mut().map(Mutex::new).collect();
    let failures = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let items = &items;
            let run_one = &run_one;
            let failures = &failures;
            let abort = &abort;
            scope.spawn(move || loop {
                // Stop dealing new work once the budget tripped; whatever
                // is left in the queues becomes `Skipped` after the join.
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                // Locks cannot be poisoned here: `run_one` catches every
                // job panic, so no thread ever unwinds while holding one.
                // `into_inner` recovery is kept as a cheap belt-and-braces.
                let mine = queues[w]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop_front();
                let job = mine.or_else(|| {
                    (1..workers).find_map(|off| {
                        queues[(w + off) % workers]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .pop_back()
                    })
                });
                // No job anywhere: every queue was empty at inspection, and
                // jobs are never re-enqueued, so this worker is done.
                let Some(i) = job else { break };
                let slot = run_one(&items[i]);
                if matches!(slot, JobSlot::Panicked(_)) {
                    let seen = failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if fail_budget.is_some_and(|b| seen > b) {
                        abort.store(true, Ordering::Relaxed);
                    }
                }
                **slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(slot);
            });
        }
    });

    drop(slots);
    let aborted = abort.load(Ordering::Relaxed);
    let out = out
        .into_iter()
        .map(|slot| match slot {
            Some(s) => s,
            // Left in a queue when the pool cancelled: never ran.
            None => JobSlot::Skipped,
        })
        .collect();
    (out, aborted)
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
        // Front-loaded heavy jobs force the later workers to steal.
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
