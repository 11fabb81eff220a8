//! Shared CLI surface for the bench harness: flag parsing, the usage
//! text, the supervision-policy and sweep builders, and the process
//! epilogue/exit helpers. Everything that may terminate the process
//! lives here (see `allowlist.txt`); `runner.rs` stays exit-free.

use std::collections::HashMap;
use std::time::Duration;

use baldur::experiments::EvalConfig;
use baldur::supervise::Policy;
use baldur::sweep::{Sweep, DEFAULT_CACHE_DIR};

/// Renders the shared flag reference for usage errors.
pub fn usage() -> String {
    "common flags:\n\
     --nodes N            active server nodes\n\
     --packets N          packets per node (open-loop runs)\n\
     --rounds N           ping-pong rounds\n\
     --seed N             master seed\n\
     --threads N          worker threads (0 = all cores)\n\
     --json PATH          also write structured results as JSON\n\
     --cache-dir DIR      run-cache directory (default results/cache)\n\
     --no-cache           recompute every run\n\
     --job-timeout SECS   per-attempt watchdog deadline (default off)\n\
     --timeout-retries N  extra attempts for a timed-out job (default 2)\n\
     --fail-budget N      tolerated failures before aborting the sweep\n\
     --paper              full paper scale (slow)\n\
     --csv PATH           also write the experiment's CSV table\n\
     --set axis=VALUES    override a declared experiment axis\n\
     --list               list every registered experiment and exit\n\
     --describe           print this experiment's JSON descriptor and exit"
        .to_string()
}

/// Reports a usage error on stderr and exits with code 2 (the
/// conventional bad-invocation code, distinct from exit 1 = sweep
/// aborted). Bench binaries are exempt from the library-side
/// `process-exit` lint precisely for this path.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}

/// Minimal `--key value` argument parser (plus boolean `--flag`s).
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments. An argument that is not
    /// `--key [value]` is a usage error (exit 2), not a panic.
    pub fn parse() -> Self {
        let mut map = HashMap::new();
        let mut flags = Vec::new();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let Some(key) = argv[i].strip_prefix("--") else {
                usage_error(&format!("unexpected argument `{}`", argv[i]));
            };
            let key = key.to_string();
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                map.insert(key, argv[i + 1].clone());
                i += 2;
            } else {
                flags.push(key);
                i += 1;
            }
        }
        Args { map, flags }
    }

    /// True if `--name` was passed as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// String value of `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// Parsed value of `--name`, or `default`. A value that does not
    /// parse is a usage error (exit 2), not a panic.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.get(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| usage_error(&format!("--{name}: `{v}` did not parse: {e:?}"))),
            None => default,
        }
    }

    /// Builds an [`EvalConfig`] from the common flags.
    pub fn eval_config(&self) -> EvalConfig {
        let base = if self.flag("paper") {
            EvalConfig::paper()
        } else {
            EvalConfig::quick()
        };
        EvalConfig {
            nodes: self.get_or("nodes", base.nodes),
            packets_per_node: self.get_or("packets", base.packets_per_node),
            pingpong_rounds: self.get_or("rounds", base.pingpong_rounds),
            seed: self.get_or("seed", base.seed),
            threads: self.get_or("threads", base.threads),
        }
    }

    /// Builds the supervision [`Policy`] from `--job-timeout` (seconds),
    /// `--timeout-retries`, and `--fail-budget`.
    pub fn policy(&self) -> Policy {
        let job_timeout = self.get("job-timeout").map(|raw| {
            let secs: f64 = raw.parse().unwrap_or_else(|_| {
                usage_error(&format!(
                    "--job-timeout: `{raw}` is not a number of seconds"
                ))
            });
            if !(secs > 0.0 && secs.is_finite()) {
                usage_error(&format!(
                    "--job-timeout: `{raw}` must be a positive deadline"
                ));
            }
            Duration::from_secs_f64(secs)
        });
        Policy {
            job_timeout,
            timeout_retries: self.get_or("timeout-retries", Policy::default().timeout_retries),
            fail_budget: self.get("fail-budget").map(|raw| {
                raw.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--fail-budget: `{raw}` is not a failure count"))
                })
            }),
        }
    }

    /// Builds the [`Sweep`] runner for this invocation: cached into
    /// `--cache-dir` (default [`DEFAULT_CACHE_DIR`]) unless `--no-cache`
    /// was passed; worker count follows `--threads` / `BALDUR_THREADS`;
    /// supervision follows `--job-timeout` / `--timeout-retries` /
    /// `--fail-budget`. After a killed run, the same command replays
    /// every finished job from the cache.
    pub fn sweep(&self, cfg: &EvalConfig) -> Sweep {
        let sw = Sweep::new(cfg.threads).with_policy(self.policy());
        if self.flag("no-cache") {
            sw
        } else {
            sw.with_cache_dir(self.get("cache-dir").unwrap_or(DEFAULT_CACHE_DIR))
        }
    }
}

/// Prints the per-sweep wall-clock and cache-hit counters to stderr, so
/// result tables on stdout stay clean and diffable.
pub fn print_sweep_summary(sw: &Sweep) {
    eprint!("\n{}", sw.summary());
}

/// The standard harness epilogue: sweep summary, then the per-job
/// failure status table (if any job failed), then — exactly when a
/// failure budget aborted a sweep — exit 1. Partial failures under an
/// unlimited budget report but exit 0: every completed row was already
/// rendered, and reruns replay them from the cache.
pub fn finish(sw: &Sweep) {
    print_sweep_summary(sw);
    if let Some(table) = sw.status_table() {
        eprint!("\n{table}");
    }
    if sw.aborted() {
        std::process::exit(1);
    }
}

/// Unwraps a library-side experiment result, or renders the failure
/// (plus the sweep's status table, which names the job that sank it)
/// and exits 1. For the aggregate experiments whose output is
/// meaningless with a job missing — ablation pairs, reliability tables.
pub fn or_die<T, E: std::fmt::Display>(sw: &Sweep, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            print_sweep_summary(sw);
            if let Some(table) = sw.status_table() {
                eprint!("\n{table}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_flags_are_permissive() {
        let args = Args::default();
        let p = args.policy();
        assert_eq!(p, Policy::default());
    }
}
