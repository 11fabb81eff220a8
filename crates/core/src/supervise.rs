//! Supervised job execution: panic isolation, watchdog deadlines with
//! jittered retries, and per-sweep failure budgets.
//!
//! This is the timing-aware layer above [`crate::sim::par`]. The `sim`
//! crate sits behind the lint wall that bans wall-clock reads, so the
//! `--job-timeout` watchdog lives here in `core` instead.
//!
//! Two execution paths:
//!
//! * **No deadline** (the default): jobs fan out over
//!   [`par::par_map_isolated`] — fully deterministic, panic-isolated,
//!   budget-aware — and this layer only maps its slots to reports.
//! * **Deadline set**: each pool worker doubles as a supervisor. It runs
//!   the job on a scoped *attempt* thread and waits on a channel with
//!   [`std::sync::mpsc::Receiver::recv_timeout`]. A timed-out attempt is
//!   retried after a jittered exponential backoff (mirroring
//!   `net::faults`' retransmission backoff) up to
//!   [`Policy::timeout_retries`] extra attempts, then quarantined as
//!   [`JobErrorKind::TimedOut`]. Abandoned attempts cannot be killed
//!   (Rust threads are not cancellable), so they run to completion in
//!   the background; the scope join at the end of the sweep waits for
//!   them. A *truly* non-terminating job therefore still pins the final
//!   join — the recovery path for wedged runs is `kill -9` and rerun,
//!   which the sweep's as-it-finishes cache writes make safe. The
//!   watchdog's value is that every *other* job completes, is cached,
//!   and is reported; timeouts are inherently timing-dependent, so the
//!   determinism contract only covers deadline-off runs.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use crate::error::{JobError, JobErrorKind};
use crate::sim::par;
use crate::sim::rng::StreamRng;

/// Supervision knobs for one sweep runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Per-attempt watchdog deadline; `None` (the default) disables the
    /// watchdog entirely.
    pub job_timeout: Option<Duration>,
    /// Extra attempts granted to a timed-out job before it is
    /// quarantined (so a job runs at most `timeout_retries + 1` times).
    pub timeout_retries: u32,
    /// Tolerated failures per sweep before the remaining queue is
    /// cancelled; `None` means unlimited.
    pub fail_budget: Option<usize>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            job_timeout: None,
            timeout_retries: 2,
            fail_budget: None,
        }
    }
}

/// Outcome of one supervised batch: submission-ordered reports plus
/// whether the failure budget cancelled the queue.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// One result (or structured failure) per input item, in
    /// submission order.
    pub jobs: Vec<Result<R, JobError>>,
    /// True when the failure budget was exhausted and the remaining
    /// queue was cancelled ([`JobErrorKind::Skipped`] slots).
    pub aborted: bool,
}

/// Backoff before retrying a timed-out job: capped exponential base with
/// deterministic per-`(job, attempt)` jitter, the same shape as
/// `net::faults`' retransmission backoff (`base * 2^attempt`, capped,
/// plus seeded jitter so retries don't stampede in lockstep).
pub fn retry_delay_ms(job: u64, attempt: u32) -> u64 {
    let base = 25u64.saturating_mul(1 << attempt.min(4)).min(250);
    let mut rng = StreamRng::named(0xBA1D_0E1A, "jobretry", (job << 32) | u64::from(attempt));
    base + rng.gen_range(0..=base / 2)
}

/// Runs `f` over `items` under `policy` on up to `threads` workers,
/// returning submission-ordered results. `f` receives the item's
/// submission index alongside the item.
///
/// Panics never propagate out of jobs; they become
/// [`JobErrorKind::Panicked`] reports (panics are *not* retried — a
/// panic is a bug in the job, not a scheduling hiccup). See the module
/// docs for the watchdog semantics when [`Policy::job_timeout`] is set.
pub fn run_jobs<T, R, F>(threads: usize, policy: &Policy, items: &[T], f: F) -> RunOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match policy.job_timeout {
        None => run_without_deadline(threads, policy, items, &f),
        Some(deadline) => run_with_deadline(threads, policy, deadline, items, &f),
    }
}

/// Deadline-off path: delegate to the deterministic isolated pool.
fn run_without_deadline<T, R, F>(
    threads: usize,
    policy: &Policy,
    items: &[T],
    f: &F,
) -> RunOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let indices: Vec<usize> = (0..items.len()).collect();
    let (slots, aborted) =
        par::par_map_isolated(threads, indices, policy.fail_budget, |&i| f(i, &items[i]));
    let jobs = slots
        .into_iter()
        .map(|slot| match slot {
            par::JobSlot::Done(r) => Ok(r),
            par::JobSlot::Panicked(payload) => Err(JobError {
                kind: JobErrorKind::Panicked,
                payload,
                attempts: 1,
            }),
            par::JobSlot::Skipped => Err(JobError::skipped()),
        })
        .collect();
    RunOutcome { jobs, aborted }
}

/// Watchdog path: each worker supervises its job on an attempt thread.
fn run_with_deadline<T, R, F>(
    threads: usize,
    policy: &Policy,
    deadline: Duration,
    items: &[T],
    f: &F,
) -> RunOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    let queue: Mutex<std::collections::VecDeque<usize>> = Mutex::new((0..n).collect());
    let mut out: Vec<Option<Result<R, JobError>>> = (0..n).map(|_| None).collect();
    let slots: Vec<Mutex<&mut Option<Result<R, JobError>>>> =
        out.iter_mut().map(Mutex::new).collect();
    let failures = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = &queue;
            let slots = &slots;
            let failures = &failures;
            let abort = &abort;
            scope.spawn(move || loop {
                let job = queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop_front();
                let Some(i) = job else { break };
                let report = if abort.load(Ordering::Relaxed) {
                    Err(JobError::skipped())
                } else {
                    supervise_one(scope, policy, deadline, i, items, f)
                };
                let failed = matches!(
                    &report,
                    Err(e) if e.kind != JobErrorKind::Skipped
                );
                **slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(report);
                if failed {
                    let seen = failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if policy.fail_budget.is_some_and(|b| seen > b) {
                        abort.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    drop(slots);
    let jobs = out
        .into_iter()
        .map(|r| match r {
            Some(report) => report,
            None => unreachable!("the deadline pool pops every queued job"),
        })
        .collect();
    RunOutcome {
        jobs,
        aborted: abort.load(Ordering::Relaxed),
    }
}

/// Runs one job under the watchdog: spawn an attempt thread, wait for
/// its result up to `deadline`, retry with jittered backoff on timeout.
fn supervise_one<'scope, T, R, F>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    policy: &Policy,
    deadline: Duration,
    i: usize,
    items: &'scope [T],
    f: &'scope F,
) -> Result<R, JobError>
where
    T: Sync,
    R: Send + 'scope,
    F: Fn(usize, &T) -> R + Sync,
{
    let max_attempts = policy.timeout_retries.saturating_add(1);
    for attempt in 1..=max_attempts {
        let (tx, rx) = mpsc::channel();
        scope.spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, &items[i])));
            // The supervisor may have given up on us (receiver dropped
            // after a timeout); a dead letter is fine.
            let _ = tx.send(out);
        });
        match rx.recv_timeout(deadline) {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(payload)) => {
                return Err(JobError {
                    kind: JobErrorKind::Panicked,
                    payload: par::panic_message(payload.as_ref()),
                    attempts: attempt,
                })
            }
            Err(_) => {
                if attempt < max_attempts {
                    std::thread::sleep(Duration::from_millis(retry_delay_ms(i as u64, attempt)));
                }
            }
        }
    }
    Err(JobError {
        kind: JobErrorKind::TimedOut,
        payload: format!(
            "exceeded the {} ms deadline on all {max_attempts} attempts; quarantined",
            deadline.as_millis()
        ),
        attempts: max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quietly<R>(body: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = body();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn default_policy_is_fully_permissive() {
        let p = Policy::default();
        assert_eq!(p.job_timeout, None);
        assert_eq!(p.timeout_retries, 2);
        assert_eq!(p.fail_budget, None);
    }

    #[test]
    fn deadline_off_isolates_panics_and_reports_siblings() {
        let items: Vec<u32> = (0..12).collect();
        let outcome = quietly(|| {
            run_jobs(4, &Policy::default(), &items, |_, &x| {
                if x == 7 {
                    panic!("job 7 died");
                }
                x * 10
            })
        });
        assert!(!outcome.aborted);
        for (i, job) in outcome.jobs.iter().enumerate() {
            if i == 7 {
                let err = job.as_ref().expect_err("job 7 failed");
                assert_eq!(err.kind, JobErrorKind::Panicked);
                assert_eq!(err.payload, "job 7 died");
            } else {
                assert_eq!(*job, Ok(i as u32 * 10));
            }
        }
    }

    #[test]
    fn budget_exhaustion_aborts_and_skips() {
        let items: Vec<u32> = (0..10).collect();
        let outcome = quietly(|| {
            run_jobs(
                1,
                &Policy {
                    fail_budget: Some(0),
                    ..Policy::default()
                },
                &items,
                |_, &x| {
                    if x == 2 {
                        panic!("trip the budget");
                    }
                    x
                },
            )
        });
        assert!(outcome.aborted);
        assert_eq!(
            outcome.jobs[2].as_ref().expect_err("failed").kind,
            JobErrorKind::Panicked
        );
        assert!(outcome.jobs[3..]
            .iter()
            .all(|j| j.as_ref().is_err_and(|e| e.kind == JobErrorKind::Skipped)));
    }

    #[test]
    fn watchdog_quarantines_a_hung_job_and_finishes_the_rest() {
        let items: Vec<u32> = (0..6).collect();
        let policy = Policy {
            job_timeout: Some(Duration::from_millis(40)),
            timeout_retries: 1,
            fail_budget: None,
        };
        // Job 3 "hangs" for far longer than the deadline (but finitely,
        // so the final scope join completes); everything else is instant.
        let t0 = std::time::Instant::now();
        let outcome = run_jobs(2, &policy, &items, |_, &x| {
            if x == 3 {
                std::thread::sleep(Duration::from_millis(400));
            }
            x + 100
        });
        assert!(
            t0.elapsed() >= Duration::from_millis(80),
            "two deadlines elapsed"
        );
        assert!(!outcome.aborted);
        for (i, job) in outcome.jobs.iter().enumerate() {
            if i == 3 {
                let err = job.as_ref().expect_err("job 3 quarantined");
                assert_eq!(err.kind, JobErrorKind::TimedOut);
                assert_eq!(err.attempts, 2, "one retry before quarantine");
            } else {
                assert_eq!(*job, Ok(i as u32 + 100));
            }
        }
    }

    #[test]
    fn watchdog_passes_fast_jobs_and_panics_through() {
        let items: Vec<u32> = (0..8).collect();
        let policy = Policy {
            job_timeout: Some(Duration::from_secs(30)),
            ..Policy::default()
        };
        let outcome = quietly(|| {
            run_jobs(3, &policy, &items, |_, &x| {
                if x == 5 {
                    panic!("panic under watchdog");
                }
                x
            })
        });
        assert!(!outcome.aborted);
        assert_eq!(
            outcome.jobs[5].as_ref().expect_err("panicked").kind,
            JobErrorKind::Panicked,
            "panics are reported, not retried"
        );
        assert_eq!(outcome.jobs[4], Ok(4));
    }

    #[test]
    fn retry_delay_is_deterministic_capped_exponential() {
        assert_eq!(retry_delay_ms(3, 1), retry_delay_ms(3, 1));
        assert_ne!(
            retry_delay_ms(3, 1),
            retry_delay_ms(4, 1),
            "jitter varies per job"
        );
        for job in 0..20u64 {
            for attempt in 1..=8u32 {
                let d = retry_delay_ms(job, attempt);
                let base = 25u64.saturating_mul(1 << attempt.min(4)).min(250);
                assert!(d >= base && d <= base + base / 2, "{job}/{attempt}: {d}");
            }
        }
    }
}
