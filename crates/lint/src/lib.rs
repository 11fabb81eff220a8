//! Repo-specific static analysis for the Baldur reproduction.
//!
//! The paper's headline claims (bit-reproducible latency/power numbers from
//! a clock-less, bufferless network) only hold if the simulator is provably
//! deterministic and its arithmetic exact. `baldur-lint` machine-checks
//! source-level rules over `crates/*/src` with a real token-level engine —
//! a lossless Rust lexer ([`lexer`]), an item/scope tracker ([`scope`]),
//! and one visitor pass per rule family ([`rules`]) — instead of per-line
//! regexes over scrubbed text. The rule families:
//!
//! * **Determinism wall** — in the result-producing crates (`sim`, `net`,
//!   `tl`, `phy`, `topo`, plus `core::sweep`): no ambient randomness
//!   (`thread_rng`, `rand::random`), no wall-clock reads (`SystemTime`,
//!   `Instant::now`), no environment reads (`env::var`) outside the
//!   allowlisted harness modules, and no unordered `HashMap`/`HashSet`
//!   (iteration order leaks into reports; use `BTreeMap`/`BTreeSet` or an
//!   index-keyed `Vec`).
//! * **Panic budget** — no `.unwrap()` / `.expect(...)` in non-test
//!   library code, except sites recorded in `crates/lint/allowlist.txt`;
//!   plus the v2 surface: panicking closures behind `unwrap_or_else`-style
//!   adaptors, and slice indexing on the supervised job path.
//! * **Unit safety** — bare `f64` parameters named like physical
//!   quantities with no unit suffix, and identifiers implying different
//!   units combined in one additive expression.
//! * **Narrowing casts** — `as u32`-style truncations of time-, count-,
//!   or index-flavoured expressions in the event kernel.
//! * **Float hazards** — `partial_cmp(..).unwrap()` (panics on NaN) and
//!   `==`/`!=` against float literals.
//!
//! Comments, string literals, and `#[cfg(test)]`/`#[test]` regions are
//! excluded by construction (they are distinct tokens or masked scopes,
//! not scrubbed text). The allowlist is a per-(rule, file) count budget
//! that may shrink but never grow: exceeding it fails the lint, and a
//! stale (over-provisioned) entry also fails so the budget ratchets down.
//! Diagnostics carry `file:line`, and [`lint_repo`] produces a
//! JSON-serializable [`Report`] that the `baldur-lint` binary writes to
//! `results/lint.json`. File scanning fans out over the deterministic
//! `sim::par` pool; findings are submission-ordered, so output is
//! byte-identical at any `BALDUR_THREADS`.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use serde::Serialize;

pub mod lexer;
pub mod rules;
pub mod scope;

/// Crates whose sources fall under the determinism wall.
pub const WALL_CRATES: &[&str] = &["sim", "net", "tl", "phy", "topo"];

/// Individual files outside [`WALL_CRATES`] that also sit behind the
/// determinism wall: the sweep engine produces the cached results, so
/// nondeterminism there corrupts the content-addressed cache.
pub const WALL_FILES: &[&str] = &["crates/core/src/sweep.rs"];

/// The only scanned files allowed to read the wall clock. The
/// wall-clock rule is *repo-wide* (unlike the rest of the determinism
/// family, which walls off the result-producing crates): gated results
/// are exact counters and reports, never host time. `bench::perf` hosts
/// the single `Instant` read and installs it into the clock-free core,
/// where it feeds only `scaling`'s advisory `wall_ns` column; no other
/// scanned file reads a clock, and no allowlist entry budgets one.
pub const WALL_CLOCK_EXEMPT_FILES: &[&str] = &["crates/bench/src/perf.rs"];

/// Files on the supervised job path: the code that runs *around* user
/// jobs (scheduling, isolation, caching, result plumbing). A panic
/// here defeats panic isolation — the harness would die with the job it
/// was supposed to contain — so these files get a zero-budget panic rule
/// of their own, with no allowlist escape hatch. The overload experiment
/// rides along: its storm grid is built and gated around supervised
/// sweep jobs, and a panic while shedding load is exactly the failure
/// mode the overload controls exist to avoid.
pub const JOB_PATH_FILES: &[&str] = &[
    "crates/sim/src/par.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/error.rs",
    "crates/net/src/runner.rs",
    "crates/core/src/experiments/overload.rs",
];

/// Hot-path sources of the million-endpoint kernel: the event engine
/// and the two packet models' struct-of-arrays state. Per-event heap
/// allocation (`Box::new`) and node-per-entry collections (`BTreeMap`,
/// `HashMap`) are banned here outright — state lives in flat arrays and
/// generational arenas, sized once and reused.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/sim/src/engine.rs",
    "crates/sim/src/calendar.rs",
    "crates/sim/src/arena.rs",
    "crates/net/src/baldur_net.rs",
    "crates/net/src/router_net.rs",
];

/// Relative path (from the repo root) of the panic-budget allowlist.
pub const ALLOWLIST_PATH: &str = "crates/lint/allowlist.txt";

/// Relative path (from the repo root) the binary writes its report to.
pub const REPORT_PATH: &str = "results/lint.json";

/// The rule families `baldur-lint` checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads in a determinism-wall crate.
    WallClock,
    /// Ambient (OS-seeded) randomness in a determinism-wall crate.
    AmbientRandom,
    /// `env::var`/`env::var_os` in a determinism-wall crate outside the
    /// allowlisted harness modules. A walled crate's output must be a
    /// function of its config, never of the invoking shell.
    EnvRead,
    /// `HashMap`/`HashSet` in a determinism-wall crate.
    UnorderedCollection,
    /// `.unwrap()` / `.expect(...)` in non-test library code.
    PanicSite,
    /// A panicking closure reached through `unwrap_or_else` /
    /// `ok_or_else` / `map_or_else` — an indirect panic site the old
    /// line regex (which looked for `.unwrap()`/`.expect(` substrings)
    /// provably missed.
    PanicIndirect,
    /// Slice/array indexing (`xs[i]`) on the supervised job path or in
    /// fault-handling code: it panics on out-of-range exactly like
    /// `.unwrap()`, and the regex engine had no rule for it at all.
    SliceIndex,
    /// `.unwrap()` / `.expect(...)` in `crates/net` fault-handling code
    /// (a `fault`-named file, or any line touching fault state). Fault
    /// paths run exactly when the simulated network is already degraded —
    /// a panic there turns an injected fault into a crashed experiment,
    /// so these sites get their own (empty) budget instead of sharing the
    /// general panic budget.
    FaultPathPanic,
    /// `.unwrap()` / `.expect(...)` in a [`JOB_PATH_FILES`] source: the
    /// supervised job path must stay panic-free, or the harness dies
    /// with the very job whose panic it exists to contain.
    JobPathPanic,
    /// `std::process::exit` in library code. Exiting from a library
    /// skips destructors, swallows the sweep summary, and robs callers
    /// of the chance to report; only binaries (and the documented bench
    /// helpers on the allowlist) get to choose the process exit code.
    ProcessExit,
    /// Ad-hoc harness code in a bench binary: `env::args`, `Args::parse`,
    /// or direct `Sweep` construction in `crates/bench/src/bin/*`. Every
    /// binary must stay a thin wrapper over the experiment registry
    /// (`registry_main` / `all_figures_main`) so flags, caching, and
    /// supervision behave identically everywhere; a bin that parses its
    /// own arguments or builds its own sweep forks that contract. No
    /// allowlist escape: move the logic into a spec or the shared runner.
    AdHocBin,
    /// `as u32`/`as usize`-style narrowing casts of time-, event-count-,
    /// or index-flavoured expressions in the event kernel — the exact
    /// truncation class that 1M-endpoint scaling turns from latent to
    /// live (2^32 picoseconds is 4.3 ms of simulated time).
    NarrowingCast,
    /// A bare `f64` parameter named like a physical quantity (latency,
    /// power, bandwidth, ...) with no unit suffix in a `phy`/`power`/
    /// `net` signature: callers cannot tell ns from us at the call site.
    UnitF64Param,
    /// Identifiers implying *different* unit suffixes combined additively
    /// or compared in one expression (`guard_ns + settle_ps`): a latent
    /// off-by-1000. Multiplication/division are dimensional arithmetic
    /// and exempt.
    MixedUnit,
    /// `Box::new` / `BTreeMap` / `HashMap` in a [`HOT_PATH_FILES`]
    /// source: the event kernel and the SoA packet models must not
    /// allocate per event or keep pointer-chasing node collections —
    /// at 1M endpoints the allocator and cache misses dominate. State
    /// belongs in flat `Vec`s and generational arenas. Zero budget by
    /// default; a proven-cold site can be allowlisted.
    HotPathAlloc,
    /// `partial_cmp(..)` chained into `.unwrap()` / `.expect(...)`.
    FloatCmpPanic,
    /// `==` / `!=` against a float literal.
    FloatLiteralEq,
    /// A committed `*.proptest-regressions` file anywhere in the tree.
    /// The repo's property tests are deterministic seed-loop tests (no
    /// `proptest` dependency), so these shrinker artifacts are always
    /// stale imports; a failure case worth keeping belongs in test code.
    StaleArtifact,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: &'static [Rule] = &[
        Rule::WallClock,
        Rule::AmbientRandom,
        Rule::EnvRead,
        Rule::UnorderedCollection,
        Rule::PanicSite,
        Rule::PanicIndirect,
        Rule::SliceIndex,
        Rule::FaultPathPanic,
        Rule::JobPathPanic,
        Rule::ProcessExit,
        Rule::AdHocBin,
        Rule::NarrowingCast,
        Rule::UnitF64Param,
        Rule::MixedUnit,
        Rule::HotPathAlloc,
        Rule::FloatCmpPanic,
        Rule::FloatLiteralEq,
        Rule::StaleArtifact,
    ];

    /// Stable identifier used in the allowlist and the JSON report.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AmbientRandom => "ambient-random",
            Rule::EnvRead => "env-read",
            Rule::UnorderedCollection => "unordered-collection",
            Rule::PanicSite => "panic-site",
            Rule::PanicIndirect => "panic-indirect",
            Rule::SliceIndex => "slice-index",
            Rule::FaultPathPanic => "fault-path-panic",
            Rule::JobPathPanic => "job-path-panic",
            Rule::ProcessExit => "process-exit",
            Rule::AdHocBin => "ad-hoc-bin",
            Rule::NarrowingCast => "narrowing-cast",
            Rule::UnitF64Param => "unit-f64-param",
            Rule::MixedUnit => "mixed-unit",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::FloatCmpPanic => "float-cmp-panic",
            Rule::FloatLiteralEq => "float-literal-eq",
            Rule::StaleArtifact => "stale-artifact",
        }
    }

    /// Parses an allowlist rule identifier.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }

    /// Whether an allowlist entry may budget this rule at all. The
    /// job-path and bin-discipline rules (and the artifact scan) have no
    /// escape hatch: the fix is always to move or rewrite the code.
    pub fn allowlistable(self) -> bool {
        !matches!(
            self,
            Rule::JobPathPanic | Rule::AdHocBin | Rule::StaleArtifact
        )
    }

    /// One-line description for the report.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "no SystemTime/Instant::now anywhere but the bench timing harness \
                 (crates/bench/src/perf.rs); measurements go through the injected clock"
            }
            Rule::AmbientRandom => {
                "no thread_rng/rand::random in result-producing crates; use StreamRng"
            }
            Rule::EnvRead => {
                "no env::var in result-producing crates outside allowlisted harness \
                 modules; results must be a function of the config, not the shell"
            }
            Rule::UnorderedCollection => {
                "no HashMap/HashSet in result-producing crates; iteration order leaks into output"
            }
            Rule::PanicSite => {
                "no .unwrap()/.expect() in non-test library code outside the shrinking allowlist"
            }
            Rule::PanicIndirect => {
                "no panic!/unreachable!/todo! inside unwrap_or_else/ok_or_else/map_or_else \
                 closures; an indirect panic is still a panic"
            }
            Rule::SliceIndex => {
                "no slice/array indexing on the supervised job path or in fault-handling \
                 code; xs[i] panics on out-of-range exactly like .unwrap()"
            }
            Rule::FaultPathPanic => {
                "no .unwrap()/.expect() in crates/net fault-handling code; \
                 a panic there crashes the experiment mid-fault"
            }
            Rule::JobPathPanic => {
                "no .unwrap()/.expect() on the supervised job path (par/sweep/error/runner); \
                 a panic there defeats panic isolation"
            }
            Rule::ProcessExit => {
                "no std::process::exit in library code; return an error and let the \
                 binary choose the exit code"
            }
            Rule::AdHocBin => {
                "no env::args/Args::parse/Sweep construction in bench binaries; \
                 route through registry_main so every bin shares one CLI contract"
            }
            Rule::NarrowingCast => {
                "no as u32/usize/i32 on time/count/index expressions in the event \
                 kernel; 2^32 ps is 4.3 ms of simulated time"
            }
            Rule::UnitF64Param => {
                "no bare f64 parameters named like physical quantities in phy/power/net \
                 signatures; add a unit suffix (_ns, _gbps, _pj) or take a newtype"
            }
            Rule::MixedUnit => {
                "no mixed unit suffixes (_ns vs _ps, _gbps vs _mbps) combined additively \
                 in one expression; convert explicitly first"
            }
            Rule::HotPathAlloc => {
                "no Box::new/BTreeMap/HashMap in the event kernel or SoA packet-model \
                 hot paths; state lives in flat Vecs and generational arenas"
            }
            Rule::FloatCmpPanic => {
                "no partial_cmp().unwrap()/expect(); NaN panics — use f64::total_cmp"
            }
            Rule::FloatLiteralEq => "no ==/!= against float literals in library code",
            Rule::StaleArtifact => {
                "no committed *.proptest-regressions files; the seed-loop property \
                 tests are deterministic, so shrinker artifacts are always stale"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule match at a source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Rule identifier (see [`Rule::id`]).
    pub rule: String,
    /// Path relative to the repo root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One consumed allowlist budget, echoed into the report.
#[derive(Debug, Clone, Serialize)]
pub struct AllowlistUse {
    /// Rule identifier.
    pub rule: String,
    /// File the budget applies to.
    pub file: String,
    /// Budgeted number of sites.
    pub allowed: usize,
    /// Sites actually found.
    pub found: usize,
}

/// Per-rule finding totals, echoed into the report so dashboards can
/// track budgets without re-deriving them from the finding list.
#[derive(Debug, Clone, Serialize)]
pub struct RuleCount {
    /// Rule identifier.
    pub rule: String,
    /// Total sites matched, before allowlist application.
    pub findings: usize,
    /// Sites absorbed by allowlist budgets.
    pub allowlisted: usize,
}

/// The JSON report `baldur-lint` writes under `results/`.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Name and version of the analyzer.
    pub tool: String,
    /// Every rule checked, with its description.
    pub rules: Vec<RuleInfo>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-rule totals (pre-allowlist findings, allowlisted share).
    pub counts: Vec<RuleCount>,
    /// Violations (after allowlist application); empty on a clean tree.
    pub violations: Vec<Finding>,
    /// Allowlist budgets and how much of each was used.
    pub allowlisted: Vec<AllowlistUse>,
}

/// A rule's identifier and description, for the report.
#[derive(Debug, Clone, Serialize)]
pub struct RuleInfo {
    /// Stable identifier.
    pub id: String,
    /// One-line description.
    pub description: String,
}

/// The outcome of linting a tree.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The full report (rules, counts, violations, allowlist usage).
    pub report: Report,
}

impl Outcome {
    /// True when no violations remain after allowlist application.
    pub fn is_clean(&self) -> bool {
        self.report.violations.is_empty()
    }
}

/// Lints the repository rooted at `root` (the directory containing
/// `crates/`), fanning file scans across the deterministic `sim::par`
/// pool at the `BALDUR_THREADS`-resolved width.
///
/// # Errors
///
/// Returns a message when the tree cannot be walked, a source file cannot
/// be read, or the allowlist is malformed.
pub fn lint_repo(root: &Path) -> Result<Outcome, String> {
    lint_repo_with_threads(root, 0)
}

/// [`lint_repo`] with an explicit worker count (`0` = resolve from
/// `BALDUR_THREADS` / machine parallelism). Findings are collected in
/// file-submission order, so the outcome is byte-identical at any width.
///
/// # Errors
///
/// As [`lint_repo`].
pub fn lint_repo_with_threads(root: &Path, threads: usize) -> Result<Outcome, String> {
    let allowlist = load_allowlist(&root.join(ALLOWLIST_PATH))?;
    let files = collect_sources(root)?;
    let mut findings = scan_files(&files, threads)?;
    findings.extend(find_stale_artifacts(root)?);
    Ok(apply_allowlist(findings, &allowlist, files.len()))
}

/// Lints `crates/lint` itself with an **empty** allowlist: the analyzer
/// must hold itself to every rule it enforces, with zero budgeted sites.
/// Used by the `--self-check` flag and the `lint-self` CI step.
///
/// # Errors
///
/// As [`lint_repo`].
pub fn lint_self(root: &Path) -> Result<Outcome, String> {
    let src = root.join("crates/lint/src");
    let mut files = Vec::new();
    walk_rs(&src, root, &mut files)?;
    files.sort_by(|a, b| a.1.cmp(&b.1));
    let findings = scan_files(&files, 0)?;
    Ok(apply_allowlist(findings, &BTreeMap::new(), files.len()))
}

/// Reads and lints every file, fanning the (pure) per-file scans over the
/// deterministic pool. Sources are read serially first — I/O errors must
/// surface as `Err`, not panic a worker — and the result vector comes
/// back in submission order, so the concatenation is deterministic.
fn scan_files(files: &[(PathBuf, String)], threads: usize) -> Result<Vec<Finding>, String> {
    let mut inputs: Vec<(String, String)> = Vec::with_capacity(files.len());
    for (abs, rel) in files {
        let source =
            std::fs::read_to_string(abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        inputs.push((rel.clone(), source));
    }
    let width = baldur_sim::par::thread_count(threads);
    let per_file =
        baldur_sim::par::par_map(width, inputs, |(rel, source)| lint_source(rel, source));
    Ok(per_file.into_iter().flatten().collect())
}

/// Applies allowlist budgets per (rule, file) and assembles the report.
fn apply_allowlist(
    findings: Vec<Finding>,
    allowlist: &BTreeMap<(String, String), usize>,
    files_scanned: usize,
) -> Outcome {
    let mut by_key: BTreeMap<(String, String), Vec<Finding>> = BTreeMap::new();
    for f in findings {
        by_key
            .entry((f.rule.clone(), f.file.clone()))
            .or_default()
            .push(f);
    }
    let mut violations = Vec::new();
    let mut allowlisted = Vec::new();
    let mut consumed: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut counts: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for r in Rule::ALL {
        counts.insert(r.id(), (0, 0));
    }
    for ((rule, file), group) in &by_key {
        let key = (rule.clone(), file.clone());
        let allowed = allowlist.get(&key).copied().unwrap_or(0);
        consumed.insert(key, group.len());
        if let Some(c) = counts.get_mut(rule.as_str()) {
            c.0 += group.len();
        }
        if group.len() > allowed {
            if allowed > 0 {
                violations.push(Finding {
                    rule: rule.clone(),
                    file: file.clone(),
                    line: 0,
                    message: format!(
                        "allowlist budget exceeded: {} sites found, {} allowed — \
                         fix the new sites; the budget never grows",
                        group.len(),
                        allowed
                    ),
                });
            }
            violations.extend(group.iter().cloned());
        } else {
            if let Some(c) = counts.get_mut(rule.as_str()) {
                c.1 += group.len();
            }
            allowlisted.push(AllowlistUse {
                rule: rule.clone(),
                file: file.clone(),
                allowed,
                found: group.len(),
            });
            if group.len() < allowed {
                violations.push(Finding {
                    rule: rule.clone(),
                    file: file.clone(),
                    line: 0,
                    message: format!(
                        "stale allowlist entry: {} sites found but {} budgeted — \
                         shrink {ALLOWLIST_PATH}",
                        group.len(),
                        allowed
                    ),
                });
            }
        }
    }
    // Allowlist entries for files with no findings at all are also stale.
    for ((rule, file), allowed) in allowlist {
        if *allowed > 0 && !consumed.contains_key(&(rule.clone(), file.clone())) {
            violations.push(Finding {
                rule: rule.clone(),
                file: file.clone(),
                line: 0,
                message: format!(
                    "stale allowlist entry: no sites found but {allowed} budgeted — \
                     remove it from {ALLOWLIST_PATH}"
                ),
            });
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    Outcome {
        report: Report {
            tool: format!("baldur-lint {}", env!("CARGO_PKG_VERSION")),
            rules: Rule::ALL
                .iter()
                .map(|r| RuleInfo {
                    id: r.id().to_string(),
                    description: r.describe().to_string(),
                })
                .collect(),
            files_scanned,
            counts: Rule::ALL
                .iter()
                .map(|r| {
                    let (f, a) = counts.get(r.id()).copied().unwrap_or((0, 0));
                    RuleCount {
                        rule: r.id().to_string(),
                        findings: f,
                        allowlisted: a,
                    }
                })
                .collect(),
            violations,
            allowlisted,
        },
    }
}

/// Lints a single source file (relative path decides rule applicability):
/// lex, build the significant-token view and scope map, run every rule
/// pass. Exposed for tests and for editor integration.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let tokens = lexer::lex(source);
    let sig = scope::significant(source, &tokens);
    let scopes = scope::analyze(&sig);
    let ctx = rules::FileCtx::new(rel_path);
    let mut findings = Vec::new();
    rules::run_passes(ctx, &sig, &scopes, &mut findings);
    findings
}

/// Scans the *whole* repository tree (not just `crates/*/src`) for banned
/// artifact files — currently `*.proptest-regressions`. Generated and
/// external directories (`.git`, `target`, `results`, `vendor`) are
/// skipped; everything else, including `tests/` at the repo root, is fair
/// game since that is exactly where such files get committed by accident.
///
/// # Errors
///
/// Returns a message when a directory cannot be walked.
pub fn find_stale_artifacts(root: &Path) -> Result<Vec<Finding>, String> {
    const SKIP_DIRS: &[&str] = &[".git", "target", "results", "vendor"];
    let mut findings = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            paths.push(
                entry
                    .map_err(|e| format!("walk {}: {e}", dir.display()))?
                    .path(),
            );
        }
        paths.sort();
        for path in paths {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".proptest-regressions") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| format!("relativize {}: {e}", path.display()))?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                findings.push(Finding {
                    rule: Rule::StaleArtifact.id().to_string(),
                    file: rel,
                    line: 0,
                    message: "committed proptest shrinker artifact; the seed-loop property \
                              tests are deterministic — delete it (keep a worthwhile failure \
                              case as a regular test instead)"
                        .to_string(),
                });
            }
        }
    }
    findings.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(findings)
}

/// All `.rs` files under `crates/*/src`, as `(absolute, repo-relative)`
/// pairs sorted by relative path.
fn collect_sources(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk crates/: {e}"))?;
        if entry.path().is_dir() {
            crate_dirs.push(entry.path());
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, root, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<(PathBuf, String)>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(
            entry
                .map_err(|e| format!("walk {}: {e}", dir.display()))?
                .path(),
        );
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("relativize {}: {e}", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Parses and validates the allowlist: `<rule-id> <repo-relative-path>
/// <max-count>` per line, `#` comments and blank lines ignored. A missing
/// file is an empty allowlist. Entries are rejected at load time when the
/// rule is unknown or has no allowlist escape ([`Rule::allowlistable`]),
/// when the budget is zero (a zero budget IS the default — the entry is
/// dead weight), or when a (rule, file) pair repeats (two budgets for one
/// key can only disagree).
///
/// # Errors
///
/// Returns a message naming the offending line for any rejected entry.
pub fn load_allowlist(path: &Path) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut map = BTreeMap::new();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(map),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(format!(
                "{}:{}: expected `<rule> <path> <count>`, got `{line}`",
                path.display(),
                idx + 1
            ));
        }
        let rule = Rule::from_id(parts[0]).ok_or_else(|| {
            format!(
                "{}:{}: unknown rule `{}`",
                path.display(),
                idx + 1,
                parts[0]
            )
        })?;
        if !rule.allowlistable() {
            return Err(format!(
                "{}:{}: rule `{rule}` has no allowlist escape — move or rewrite the code",
                path.display(),
                idx + 1
            ));
        }
        let count: usize = parts[2].parse().map_err(|e| {
            format!(
                "{}:{}: bad count `{}`: {e}",
                path.display(),
                idx + 1,
                parts[2]
            )
        })?;
        if count == 0 {
            return Err(format!(
                "{}:{}: zero budget is the default — delete the entry",
                path.display(),
                idx + 1
            ));
        }
        let key = (rule.id().to_string(), parts[1].to_string());
        if map.insert(key, count).is_some() {
            return Err(format!(
                "{}:{}: duplicate entry for `{}` in `{}`",
                path.display(),
                idx + 1,
                parts[0],
                parts[1]
            ));
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_are_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let findings = lint_source("crates/sim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn strings_and_comments_never_match() {
        let src = "//! Mentions Instant::now and HashMap in docs only.\n\
                   pub const HINT: &str = \"thread_rng() is forbidden\";\n\
                   pub const RAW: &str = r#\"x.unwrap()\"#;\n";
        let findings = lint_source("crates/sim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn wall_clock_fires_repo_wide_except_perf_harness() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(lint_source("crates/sim/src/x.rs", src).len(), 1);
        assert_eq!(lint_source("crates/topo/src/x.rs", src).len(), 1);
        assert_eq!(lint_source("crates/core/src/sweep.rs", src).len(), 1);
        // Repo-wide: even non-wall crates may not read the clock...
        assert_eq!(lint_source("crates/power/src/x.rs", src).len(), 1);
        assert_eq!(lint_source("crates/bench/src/cli.rs", src).len(), 1);
        // ...except the one injected-clock harness module.
        assert!(lint_source("crates/bench/src/perf.rs", src).is_empty());
    }

    #[test]
    fn non_clock_wall_rules_stay_inside_the_wall() {
        // HashMap/env reads remain wall-crate business: outside the wall
        // they are ordinary harness code.
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); g(&m); }\n";
        assert!(!lint_source("crates/sim/src/x.rs", src).is_empty());
        assert!(lint_source("crates/power/src/x.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/perf.rs", src).is_empty());
    }

    #[test]
    fn env_read_flagged_inside_wall_except_harness() {
        let src = "fn f() -> Option<String> { std::env::var(\"X\").ok() }\n";
        let fs = lint_source("crates/sim/src/config.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "env-read");
        // The thread-pool module's BALDUR_THREADS read is the documented
        // harness contract.
        assert!(lint_source("crates/sim/src/par.rs", src).is_empty());
        // Outside the wall env reads are harness business.
        assert!(lint_source("crates/bench/src/cli.rs", src).is_empty());
    }

    #[test]
    fn float_literal_eq_detected_both_sides() {
        let at = |src: &str| lint_source("crates/cost/src/x.rs", &format!("fn f() {{ {src} }}\n"));
        assert_eq!(at("if x == 1.0 {}").len(), 1);
        assert_eq!(at("if 0.25 != y {}").len(), 1);
        assert!(at("if x <= 1.0 {}").is_empty());
        assert!(at("for i in 0..10 { g(i); }").is_empty());
        assert!(at("if x == 10 {}").is_empty());
        assert!(at("let y = match x { _ => 1.0 };").is_empty());
    }

    #[test]
    fn fault_path_panic_fires_in_net_fault_code() {
        // A `fault`-named file in crates/net: every site is fault-path.
        let src = "fn f(p: &Plan) { p.events.first().unwrap(); }\n";
        let fs = lint_source("crates/net/src/faults.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "fault-path-panic");
        // Elsewhere in the crate only fault-state-touching lines are.
        let src2 = "fn g() { self.fstate.apply_fault(now).expect(\"ok\"); }\n";
        let fs2 = lint_source("crates/net/src/baldur_net.rs", src2);
        assert_eq!(fs2[0].rule, "fault-path-panic");
        let src3 = "fn h() { self.queue.pop().unwrap(); }\n";
        let fs3 = lint_source("crates/net/src/baldur_net.rs", src3);
        assert_eq!(fs3[0].rule, "panic-site");
        // Outside crates/net the ordinary panic budget applies.
        let fs4 = lint_source("crates/core/src/faults.rs", src);
        assert_eq!(fs4[0].rule, "panic-site");
    }

    #[test]
    fn panic_budget_skips_bins() {
        let src = "fn main() { run().unwrap(); }\n";
        assert!(lint_source("crates/bench/src/bin/fig6.rs", src).is_empty());
        assert_eq!(lint_source("crates/bench/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn float_cmp_panic_fires_even_in_bins() {
        let src = "fn main() { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let fs = lint_source("crates/bench/src/bin/fig6.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "float-cmp-panic");
    }

    #[test]
    fn ad_hoc_bin_rule_bans_harness_code_in_bins() {
        let src = "fn main() {\n    let a: Vec<String> = std::env::args().collect();\n    \
                   let args = Args::parse();\n    let sw = Sweep::new(0);\n}\n";
        let fs = lint_source("crates/bench/src/bin/fig6.rs", src);
        assert_eq!(fs.len(), 3, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "ad-hoc-bin"), "{fs:?}");
        // The shared cli/runner modules are the sanctioned home.
        assert!(lint_source("crates/bench/src/cli.rs", src)
            .iter()
            .all(|f| f.rule != "ad-hoc-bin"));
        // A conforming wrapper is clean.
        let ok = "fn main() {\n    baldur_bench::registry_main(\"fig6\")\n}\n";
        assert!(lint_source("crates/bench/src/bin/fig6.rs", ok).is_empty());
    }

    #[test]
    fn overload_control_lines_get_the_fault_path_rule() {
        // A panic on an overload-control line in `crates/net` (admission,
        // deadline expiry, starvation accounting) classifies as
        // fault-path, same as fault-handling lines.
        let src = "fn f(q: &Q) {\n    if q.len() >= ingress_cap { q.pop().unwrap(); }\n    \
                   let d = deadline_ps.checked_sub(age).expect(\"stale\");\n}\n";
        let fs = lint_source("crates/net/src/baldur_net.rs", src);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "fault-path-panic"), "{fs:?}");
        // The same code outside `crates/net` stays in the general budget.
        let fs = lint_source("crates/power/src/model.rs", src);
        assert!(fs.iter().all(|f| f.rule == "panic-site"), "{fs:?}");
    }

    #[test]
    fn job_path_files_get_the_stricter_panic_rule() {
        let src = "fn f() { slot.take().unwrap(); cell.get().expect(\"set\"); }\n";
        for file in JOB_PATH_FILES {
            let fs = lint_source(file, src);
            assert_eq!(fs.len(), 2, "{file}: {fs:?}");
            assert!(fs.iter().all(|f| f.rule == "job-path-panic"), "{fs:?}");
        }
        // The same code elsewhere stays under the general budget.
        let fs = lint_source("crates/core/src/experiments.rs", src);
        assert!(fs.iter().all(|f| f.rule == "panic-site"), "{fs:?}");
    }

    #[test]
    fn process_exit_banned_in_library_code_only() {
        let src = "fn f() { std::process::exit(1); }\n";
        let fs = lint_source("crates/bench/src/lib.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "process-exit");
        // Binaries, benches, and main.rs choose their own exit codes.
        assert!(lint_source("crates/bench/src/bin/faults.rs", src).is_empty());
        assert!(lint_source("crates/bench/benches/figures.rs", src).is_empty());
        assert!(lint_source("crates/lint/src/main.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_fires_only_in_hot_path_files() {
        let src = "fn f() { let b = Box::new(3); let m: BTreeMap<u32, u32> = BTreeMap::new(); \
                   g(b, &m); }\n";
        // Box::new + two BTreeMap tokens in a hot-path file.
        let hot = lint_source("crates/sim/src/engine.rs", src);
        assert_eq!(
            hot.iter().filter(|f| f.rule == "hot-path-alloc").count(),
            3,
            "{hot:?}"
        );
        // Same source elsewhere in the kernel crate: BTreeMap is the
        // *recommended* replacement for HashMap there.
        assert!(lint_source("crates/sim/src/stats.rs", src)
            .iter()
            .all(|f| f.rule != "hot-path-alloc"));
        // HashMap in a hot-path file trips both the determinism wall and
        // the hot-path rule — one finding each.
        let hm = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); g(&m); }\n";
        let both = lint_source("crates/net/src/baldur_net.rs", hm);
        assert!(both.iter().any(|f| f.rule == "hot-path-alloc"), "{both:?}");
        assert!(
            both.iter().any(|f| f.rule == "unordered-collection"),
            "{both:?}"
        );
    }

    #[test]
    fn stale_artifact_scan_finds_proptest_regressions() {
        let root =
            std::env::temp_dir().join(format!("baldur-lint-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("tests")).expect("mkdir tests/");
        std::fs::create_dir_all(root.join("target/debug")).expect("mkdir target/");
        std::fs::write(
            root.join("tests/properties.proptest-regressions"),
            "cc deadbeef\n",
        )
        .expect("write artifact");
        // The same file under target/ is generated output and ignored.
        std::fs::write(
            root.join("target/debug/x.proptest-regressions"),
            "cc deadbeef\n",
        )
        .expect("write ignored artifact");
        let findings = find_stale_artifacts(&root).expect("scan");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "stale-artifact");
        assert_eq!(findings[0].file, "tests/properties.proptest-regressions");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_artifact_scan_clean_tree_is_empty() {
        let root =
            std::env::temp_dir().join(format!("baldur-lint-artifact-clean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("tests")).expect("mkdir tests/");
        std::fs::write(root.join("tests/properties.rs"), "// fine\n").expect("write source");
        assert!(find_stale_artifacts(&root).expect("scan").is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn allowlist_rejects_unallowlistable_zero_and_duplicate_entries() {
        let dir = std::env::temp_dir().join(format!(
            "baldur-lint-allowlist-validate-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("allowlist.txt");
        let cases: &[(&str, &str)] = &[
            (
                "job-path-panic crates/sim/src/par.rs 1\n",
                "no allowlist escape",
            ),
            (
                "ad-hoc-bin crates/bench/src/bin/x.rs 1\n",
                "no allowlist escape",
            ),
            ("panic-site crates/sim/src/x.rs 0\n", "zero budget"),
            (
                "panic-site crates/sim/src/x.rs 1\npanic-site crates/sim/src/x.rs 2\n",
                "duplicate entry",
            ),
            ("no-such-rule crates/sim/src/x.rs 1\n", "unknown rule"),
        ];
        for (text, needle) in cases {
            std::fs::write(&path, text).expect("write allowlist");
            let err = load_allowlist(&path).expect_err("entry must be rejected");
            assert!(err.contains(needle), "`{text}` -> {err}");
        }
        // A valid entry still loads.
        std::fs::write(&path, "# comment\npanic-site crates/sim/src/x.rs 2\n")
            .expect("write allowlist");
        let map = load_allowlist(&path).expect("valid allowlist loads");
        assert_eq!(
            map.get(&("panic-site".to_string(), "crates/sim/src/x.rs".to_string())),
            Some(&2)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
