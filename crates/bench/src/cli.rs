//! Shared CLI surface for the bench harness: flag parsing and
//! validation, the usage text, the sweep builder, and the process
//! epilogue/exit helpers. Everything that may terminate the process
//! lives here (see `allowlist.txt`); `runner.rs` stays exit-free.

use std::collections::HashMap;

use baldur::experiments::EvalConfig;
use baldur::sweep::{Sweep, DEFAULT_CACHE_DIR};

/// The flags every bench binary accepts, each with its argument and
/// help text: the one table behind [`usage`] and [`Args::unknown_keys`].
const COMMON_FLAGS: &[(&str, &str)] = &[
    ("nodes N", "active server nodes"),
    ("packets N", "packets per node (open-loop runs)"),
    ("rounds N", "ping-pong rounds"),
    ("seed N", "master seed"),
    ("threads N", "worker threads (0 = all cores)"),
    ("json PATH", "also write structured results as JSON"),
    (
        "cache-dir DIR",
        "run-cache directory (default results/cache)",
    ),
    ("no-cache", "recompute every run"),
    (
        "fail-budget N",
        "tolerated failures before aborting the sweep",
    ),
    ("paper", "full paper scale (slow)"),
    ("csv PATH", "also write the experiment's CSV table"),
    ("set axis=VALUES", "override a declared experiment axis"),
    ("list", "list every registered experiment and exit"),
    (
        "describe",
        "print this experiment's JSON descriptor and exit",
    ),
];

/// True when `key` names one of the [`COMMON_FLAGS`].
fn is_common(key: &str) -> bool {
    COMMON_FLAGS
        .iter()
        .any(|(flag, _)| flag.split(' ').next() == Some(key))
}

/// Renders the shared flag reference for usage errors.
pub fn usage() -> String {
    let mut out = String::from("common flags:");
    for (flag, help) in COMMON_FLAGS {
        out.push_str(&format!("\n{:<21}{help}", format!("--{flag}")));
    }
    out
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
        Args::from_argv(std::env::args().skip(1).collect())
    }

    /// Parses `argv` (without the program name) like [`Args::parse`].
    fn from_argv(argv: Vec<String>) -> Self {
        let mut map = HashMap::new();
        let mut flags = Vec::new();
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

    /// Every `--key` passed that is neither a common flag (see [`usage`])
    /// nor in `extra`, sorted. Empty when the invocation is well-formed.
    pub fn unknown_keys(&self, extra: &[&str]) -> Vec<String> {
        let mut unknown: Vec<String> = self
            .map
            .keys()
            .chain(&self.flags)
            .filter(|k| !is_common(k) && !extra.contains(&k.as_str()))
            .cloned()
            .collect();
        unknown.sort();
        unknown
    }

    /// Rejects any `--key` outside the common flags and `extra` with a
    /// usage error (exit 2), so a stale or misspelt flag never runs the
    /// defaults silently.
    pub fn reject_unknown(&self, extra: &[&str]) {
        let unknown = self.unknown_keys(extra);
        if !unknown.is_empty() {
            let list: Vec<String> = unknown.iter().map(|k| format!("`--{k}`")).collect();
            usage_error(&format!(
                "unknown flag {} (`--describe` lists this experiment's axes, flags and modes)",
                list.join(", ")
            ));
        }
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

    /// Builds the [`Sweep`] runner for this invocation: cached into
    /// `--cache-dir` (default [`DEFAULT_CACHE_DIR`]) unless `--no-cache`
    /// was passed; worker count follows `--threads` / `BALDUR_THREADS`;
    /// `--fail-budget N` tolerates N failed jobs per sweep (default:
    /// unlimited). After a killed run, the same command replays every
    /// finished job from the cache.
    pub fn sweep(&self, cfg: &EvalConfig) -> Sweep {
        let mut sw = Sweep::new(cfg.threads);
        if let Some(raw) = self.get("fail-budget") {
            let budget = raw.parse().unwrap_or_else(|_| {
                usage_error(&format!("--fail-budget: `{raw}` is not a failure count"))
            });
            sw = sw.with_fail_budget(budget);
        }
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

    fn argv(raw: &[&str]) -> Args {
        Args::from_argv(raw.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn common_and_experiment_keys_pass_validation() {
        let args = argv(&[
            "--nodes",
            "64",
            "--no-cache",
            "--fail-budget",
            "2",
            "--loads",
            "0.5",
            "--smoke",
        ]);
        assert!(args
            .unknown_keys(&["loads", "networks", "smoke"])
            .is_empty());
    }

    #[test]
    fn retired_and_misspelt_keys_are_reported_sorted() {
        let args = argv(&[
            "--samples",
            "5",
            "--resume",
            "--node",
            "64",
            "--nodes",
            "64",
        ]);
        assert_eq!(args.unknown_keys(&[]), ["node", "resume", "samples"]);
        // `--out` is an all_figures key only.
        assert_eq!(argv(&["--out", "dir"]).unknown_keys(&[]), ["out"]);
        assert!(argv(&["--out", "dir"]).unknown_keys(&["out"]).is_empty());
    }
}
