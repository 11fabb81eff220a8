//! Error taxonomy for the supervised sweep runner.
//!
//! The harness treats worker failure the way Baldur's recovery protocol
//! treats packet loss: an expected input, not a process-fatal event. A
//! job that panics or is cancelled by the failure budget becomes a
//! structured [`JobError`] slot in the sweep's
//! submission-ordered results; library code that needs *all* results
//! returns a [`BaldurError`] instead of calling `expect`/`panic!`, so the
//! bench binaries can render one consistent failure report and choose
//! their own exit code.

use std::fmt;

/// Why a sweep job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The job panicked; [`JobError::payload`] carries the panic message.
    Panicked,
    /// The job never ran: the sweep cancelled its queue after the
    /// failure budget was exhausted.
    Skipped,
}

impl JobErrorKind {
    /// Stable lower-snake name, used in status tables.
    pub fn as_str(self) -> &'static str {
        match self {
            JobErrorKind::Panicked => "panicked",
            JobErrorKind::Skipped => "skipped",
        }
    }
}

impl fmt::Display for JobErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One failed job slot in a sweep's submission-ordered results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// What went wrong.
    pub kind: JobErrorKind,
    /// Panic message or cancellation note.
    pub payload: String,
}

impl JobError {
    /// A [`JobErrorKind::Skipped`] error for a job cancelled before it ran.
    pub fn skipped() -> JobError {
        JobError {
            kind: JobErrorKind::Skipped,
            payload: "cancelled: sweep failure budget exhausted".to_string(),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.payload)
    }
}

impl std::error::Error for JobError {}

/// Library-side harness failures, replacing `expect`/`panic!` on the job
/// path so callers decide how (and whether) to die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaldurError {
    /// A sweep job failed; `index` is its submission position.
    Job {
        /// The sweep label the job belonged to.
        label: String,
        /// Submission index of the failed job within the sweep.
        index: usize,
        /// The underlying job failure.
        error: JobError,
    },
    /// An expected result row is missing (e.g. a normalization baseline
    /// vanished because the job that would have produced it failed).
    MissingResult {
        /// The sweep or experiment the row was expected from.
        label: String,
        /// What was missing.
        what: String,
    },
    /// A registry parameter override failed validation (unknown axis,
    /// unparsable value, unknown network name). The registry runner maps
    /// this onto the usage-error path (exit 2) rather than the
    /// sweep-failure path (exit 1).
    InvalidParam {
        /// The axis or flag that failed.
        param: String,
        /// Why it was rejected.
        message: String,
    },
    /// An experiment-level failure outside any single sweep job: a
    /// violated self-check (the fault smoke's conservation/determinism
    /// assertions) or a rendering/serialization fault.
    Experiment {
        /// The registry spec name.
        name: String,
        /// What went wrong.
        message: String,
    },
    /// The runtime invariant oracle fired during a run: the structured
    /// report carries the violation kind, sim time, fault-epoch index,
    /// and a window of recent events; `context` names the run (network,
    /// seed, plan) so the failure is reproducible.
    Oracle {
        /// Which run tripped the oracle (network, seed, plan summary).
        context: String,
        /// The first structured violation report from that run.
        report: crate::net::oracle::OracleReport,
    },
}

impl fmt::Display for BaldurError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaldurError::Job {
                label,
                index,
                error,
            } => write!(f, "sweep '{label}': job {index} {error}"),
            BaldurError::MissingResult { label, what } => {
                write!(f, "sweep '{label}': missing result: {what}")
            }
            BaldurError::InvalidParam { param, message } => {
                write!(f, "parameter '{param}': {message}")
            }
            BaldurError::Experiment { name, message } => {
                write!(f, "experiment '{name}': {message}")
            }
            BaldurError::Oracle { context, report } => {
                write!(f, "oracle violation in {context}: {report}")
            }
        }
    }
}

impl std::error::Error for BaldurError {}

/// Collapses a submission-ordered slot vector into `Ok(results)` or the
/// first failure, for experiments whose output is meaningless unless
/// every job completed (ablation pairs, aggregate reliability counts).
pub fn all_ok<R>(label: &str, slots: Vec<Result<R, JobError>>) -> Result<Vec<R>, BaldurError> {
    let mut out = Vec::with_capacity(slots.len());
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok(r) => out.push(r),
            Err(error) => {
                return Err(BaldurError::Job {
                    label: label.to_string(),
                    index,
                    error,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reads_like_a_report_line() {
        let e = JobError {
            kind: JobErrorKind::Panicked,
            payload: "index out of bounds".to_string(),
        };
        assert_eq!(e.to_string(), "panicked: index out of bounds");
        let b = BaldurError::Job {
            label: "fig6".to_string(),
            index: 3,
            error: e,
        };
        assert_eq!(
            b.to_string(),
            "sweep 'fig6': job 3 panicked: index out of bounds"
        );
    }

    #[test]
    fn all_ok_surfaces_first_failure_with_its_index() {
        let slots: Vec<Result<u32, JobError>> = vec![Ok(1), Err(JobError::skipped()), Ok(3)];
        match all_ok("demo", slots) {
            Err(BaldurError::Job {
                label,
                index,
                error,
            }) => {
                assert_eq!((label.as_str(), index), ("demo", 1));
                assert_eq!(error.kind, JobErrorKind::Skipped);
            }
            other => panic!("expected Job error, got {other:?}"),
        }
        let all: Vec<Result<u32, JobError>> = vec![Ok(1), Ok(2)];
        assert_eq!(all_ok("demo", all).expect("all ok"), vec![1, 2]);
    }
}
