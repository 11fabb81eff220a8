//! The declarative experiment registry: one [`ExperimentSpec`] per
//! table/figure of the paper, all enumerable from a single static table.
//!
//! Before this module existed, every artifact had its own hand-rolled
//! bench binary duplicating flag parsing, sweep construction, CSV/JSON
//! emission, and the failure epilogue — adding a flag meant editing 14
//! files. Now each per-artifact module under [`crate::experiments`]
//! registers a spec describing *what* it is (name, paper artifact,
//! parameter axes with defaults, cache version, output columns) and
//! *how* to run it (a typed `run(&Sweep, &Params)` hook returning an
//! [`Output`]); the single generic runner in `baldur-bench` owns
//! everything else. Adding experiment #18 is one spec registration, not
//! a new binary.
//!
//! Cache-key hygiene lives here too: a spec's `version` is hashed into
//! every job key its sweeps write (via [`Sweep::map`]), so bumping one
//! experiment's version invalidates exactly its own cache entries. All
//! specs start at version 1, the value every key has been written with
//! since the cache existed, so a warm cache stays 100% warm.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::BaldurError;
use crate::experiments::{self, EvalConfig};
use crate::sweep::Sweep;

/// Appends one formatted line to a console rendering. Writing to a
/// `String` cannot fail, so the `fmt::Write` result is discarded.
macro_rules! outln {
    ($dst:expr) => {
        $dst.push('\n')
    };
    ($dst:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst, $($arg)*);
    }};
}
/// Like [`outln!`] without the trailing newline.
macro_rules! outp {
    ($dst:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = write!($dst, $($arg)*);
    }};
}
pub(crate) use {outln, outp};

/// The typed run hook: everything an experiment produces, or the first
/// harness-level failure. Hooks never print and never exit — rendering
/// and exit codes belong to the runner.
pub type RunHook = fn(&Sweep, &Params) -> Result<Output, BaldurError>;

/// How an [`Axis`] value parses, so the runner can validate `--set`
/// overrides eagerly (usage error, exit 2) instead of failing mid-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisKind {
    /// Comma-separated floats, e.g. `0.1,0.3,0.5`.
    F64List,
    /// Comma-separated unsigned integers, e.g. `256,1024`.
    U32List,
    /// One unsigned integer.
    U64,
    /// Comma-separated names, e.g. `baldur,fattree`.
    StrList,
    /// Free-form string (empty = unset).
    Str,
}

impl AxisKind {
    /// Stable identifier used in `--describe` output.
    pub fn name(self) -> &'static str {
        match self {
            AxisKind::F64List => "f64-list",
            AxisKind::U32List => "u32-list",
            AxisKind::U64 => "u64",
            AxisKind::StrList => "str-list",
            AxisKind::Str => "str",
        }
    }

    /// Validates a raw override against this kind.
    fn check(self, raw: &str) -> Result<(), String> {
        match self {
            AxisKind::F64List => split_parse::<f64>(raw).map(|_| ()),
            AxisKind::U32List => split_parse::<u32>(raw).map(|_| ()),
            AxisKind::U64 => raw
                .trim()
                .parse::<u64>()
                .map(|_| ())
                .map_err(|_| format!("`{raw}` is not an unsigned integer")),
            AxisKind::StrList | AxisKind::Str => Ok(()),
        }
    }
}

/// One overridable parameter of an experiment (set via `--set name=v`
/// or the `--name v` shorthand).
#[derive(Debug, Clone, Copy)]
pub struct Axis {
    /// Flag-style name (`loads`, `fractions`, `samples`, ...).
    pub name: &'static str,
    /// Value shape, for eager validation and `--describe`.
    pub kind: AxisKind,
    /// Default raw value when not overridden.
    pub default: &'static str,
    /// One-line help string.
    pub help: &'static str,
}

/// A boolean switch an experiment understands (e.g. droptool `--big`).
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Flag name without the leading dashes.
    pub name: &'static str,
    /// One-line help string.
    pub help: &'static str,
}

/// An alternate entry point selected by a flag (e.g. faults `--smoke`),
/// replacing the spec's default [`RunHook`] for that invocation.
#[derive(Clone, Copy)]
pub struct Mode {
    /// Selecting flag, without the leading dashes.
    pub flag: &'static str,
    /// One-line help string.
    pub help: &'static str,
    /// The hook to run instead of [`ExperimentSpec::run`].
    pub run: RunHook,
}

/// Everything the generic runner needs to know about one experiment.
pub struct ExperimentSpec {
    /// Registry name; also the bench binary name and the stem of the
    /// files `all_figures` writes (`<name>.json` / `<name>.csv`).
    pub name: &'static str,
    /// Which paper artifact this reproduces ("Figure 6", "Table V", ...).
    pub artifact: &'static str,
    /// One-line summary for `--list` and the docs table.
    pub summary: &'static str,
    /// Cache-schema version, hashed into every job key this spec's
    /// sweeps write. Bump when the payload semantics change; other
    /// experiments' cache entries stay warm.
    pub version: u32,
    /// The sweep labels this spec runs (cache-key namespaces).
    pub labels: &'static [&'static str],
    /// Overridable parameter axes (defaults are the standalone-binary
    /// defaults).
    pub axes: &'static [Axis],
    /// Boolean switches.
    pub flags: &'static [Flag],
    /// Alternate flag-selected entry points.
    pub modes: &'static [Mode],
    /// CSV column header, when the experiment renders CSV.
    pub output_columns: &'static [&'static str],
    /// Golden snapshot file under `results/golden/`, when this
    /// experiment is snapshot-gated (`None` = explicitly exempt).
    pub golden: Option<&'static str>,
    /// Where the standalone binary writes CSV when `--csv` is absent
    /// (only the fault sweep does this, historically).
    pub csv_default: Option<&'static str>,
    /// Where the standalone binary writes JSON when `--json` is absent.
    pub json_default: Option<&'static str>,
    /// A gnuplot script `all_figures` drops next to the CSV.
    pub gnuplot: Option<(&'static str, &'static str)>,
    /// Axis overrides `all_figures` applies on top of the defaults
    /// (e.g. the saturation sweep runs fewer loads there).
    pub all_figures: fn(&EvalConfig) -> Vec<(&'static str, String)>,
    /// The default entry point.
    pub run: RunHook,
}

impl ExperimentSpec {
    /// Whether `--csv PATH` applies: only an experiment with CSV columns
    /// renders a CSV table. For one without, the runner rejects the flag
    /// as a usage error instead of accepting it and writing nothing.
    ///
    /// # Errors
    ///
    /// Returns the usage message when the experiment writes no CSV.
    pub fn check_csv_flag(&self) -> Result<(), String> {
        if self.output_columns.is_empty() {
            Err(format!(
                "`--csv`: experiment `{}` writes no CSV table (its output is the console text)",
                self.name
            ))
        } else {
            Ok(())
        }
    }
}

/// The shared "no overrides in `all_figures`" hook.
pub fn no_overrides(_cfg: &EvalConfig) -> Vec<(&'static str, String)> {
    Vec::new()
}

/// Resolved parameters handed to a [`RunHook`]: the shared sizing
/// config plus this spec's axis values (defaults merged with overrides)
/// and enabled flags.
#[derive(Debug, Clone)]
pub struct Params {
    /// Shared sizing knobs (`--nodes`, `--packets`, `--seed`, ...).
    pub cfg: EvalConfig,
    values: BTreeMap<&'static str, String>,
    flags: Vec<&'static str>,
}

impl Params {
    /// Parameters at the spec's defaults.
    pub fn for_spec(spec: &ExperimentSpec, cfg: EvalConfig) -> Params {
        Params {
            cfg,
            values: spec
                .axes
                .iter()
                .map(|a| (a.name, a.default.to_string()))
                .collect(),
            flags: Vec::new(),
        }
    }

    /// Overrides one axis, validating the value against the axis kind.
    pub fn set(
        &mut self,
        spec: &ExperimentSpec,
        axis: &str,
        value: &str,
    ) -> Result<(), BaldurError> {
        let Some(a) = spec.axes.iter().find(|a| a.name == axis) else {
            let known: Vec<&str> = spec.axes.iter().map(|a| a.name).collect();
            return Err(invalid(
                axis,
                &format!(
                    "experiment `{}` has no such axis (axes: {})",
                    spec.name,
                    if known.is_empty() {
                        "none".to_string()
                    } else {
                        known.join(", ")
                    }
                ),
            ));
        };
        a.kind.check(value).map_err(|m| invalid(axis, &m))?;
        self.values.insert(a.name, value.to_string());
        Ok(())
    }

    /// Enables one of the spec's boolean flags.
    pub fn enable(&mut self, spec: &ExperimentSpec, flag: &str) -> Result<(), BaldurError> {
        let Some(f) = spec.flags.iter().find(|f| f.name == flag) else {
            return Err(invalid(
                flag,
                &format!("experiment `{}` has no such flag", spec.name),
            ));
        };
        if !self.flags.contains(&f.name) {
            self.flags.push(f.name);
        }
        Ok(())
    }

    /// True if the named flag was enabled.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| *f == name)
    }

    fn raw(&self, name: &str) -> Result<&str, BaldurError> {
        match self.values.get(name) {
            Some(v) => Ok(v.as_str()),
            None => Err(invalid(name, "axis not declared by this experiment")),
        }
    }

    /// The named axis as a float list.
    pub fn f64_list(&self, name: &str) -> Result<Vec<f64>, BaldurError> {
        split_parse(self.raw(name)?).map_err(|m| invalid(name, &m))
    }

    /// The named axis as an unsigned-integer list.
    pub fn u32_list(&self, name: &str) -> Result<Vec<u32>, BaldurError> {
        split_parse(self.raw(name)?).map_err(|m| invalid(name, &m))
    }

    /// The named axis as one unsigned integer.
    pub fn u64(&self, name: &str) -> Result<u64, BaldurError> {
        let raw = self.raw(name)?;
        raw.trim()
            .parse()
            .map_err(|_| invalid(name, &format!("`{raw}` is not an unsigned integer")))
    }

    /// The named axis as a name list.
    pub fn str_list(&self, name: &str) -> Result<Vec<String>, BaldurError> {
        Ok(self
            .raw(name)?
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect())
    }

    /// The named axis as a string, `None` when empty/unset.
    pub fn opt_str(&self, name: &str) -> Result<Option<&str>, BaldurError> {
        let raw = self.raw(name)?;
        Ok(if raw.is_empty() { None } else { Some(raw) })
    }
}

/// Resolves the shared `networks` axis into the named-lineup shape the
/// simulation experiments sweep over. An unknown network name surfaces
/// as [`BaldurError::InvalidParam`] (usage error, exit 2) listing the
/// valid choices.
pub fn networks_axis(
    p: &Params,
    nodes: u32,
) -> Result<Vec<(String, crate::net::runner::NetworkKind)>, BaldurError> {
    let names = p.str_list("networks")?;
    crate::net::runner::NetworkKind::lineup_named(nodes, &names)
        .map_err(|message| invalid("networks", &message))
}

fn invalid(param: &str, message: &str) -> BaldurError {
    BaldurError::InvalidParam {
        param: param.to_string(),
        message: message.to_string(),
    }
}

fn split_parse<T: std::str::FromStr>(raw: &str) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|piece| {
            piece
                .trim()
                .parse::<T>()
                .map_err(|_| format!("`{piece}` did not parse (expected e.g. 0.1,0.3,0.5)"))
        })
        .collect()
}

/// What one run produced. The runner decides where each part goes: the
/// console text to stdout, CSV/JSON to `--csv`/`--json` (or the spec's
/// default paths, or `<out>/<name>.{csv,json}` under `all_figures`),
/// and extra files (the Figure 5 VCD) to their named paths.
pub struct Output {
    /// Human-readable tables, ready to print.
    pub console: String,
    /// CSV rendering, when the experiment has one.
    pub csv: Option<String>,
    /// Pretty-printed JSON of the structured results.
    pub json: Option<String>,
    /// Extra artifacts as `(relative path, contents)` pairs.
    pub files: Vec<(String, String)>,
}

impl Output {
    /// An output with only console text.
    pub fn console_only(console: String) -> Output {
        Output {
            console,
            csv: None,
            json: None,
            files: Vec::new(),
        }
    }
}

/// Serializes a value for [`Output::json`], mapping the (never expected)
/// serialization failure onto the experiment error path instead of a
/// panic.
pub fn json_of<T: Serialize>(name: &str, value: &T) -> Result<String, BaldurError> {
    serde_json::to_string_pretty(value).map_err(|e| BaldurError::Experiment {
        name: name.to_string(),
        message: format!("serialize results: {e:?}"),
    })
}

/// The `--describe` document for one spec: a plain-data mirror of
/// [`ExperimentSpec`] that round-trips through the vendored serde.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Descriptor {
    /// Registry name.
    pub name: String,
    /// Paper artifact.
    pub artifact: String,
    /// One-line summary.
    pub summary: String,
    /// Cache-schema version.
    pub version: u32,
    /// Sweep labels (cache-key namespaces).
    pub labels: Vec<String>,
    /// Parameter axes.
    pub axes: Vec<AxisDescriptor>,
    /// Boolean flags.
    pub flags: Vec<SwitchDescriptor>,
    /// Alternate flag-selected modes.
    pub modes: Vec<SwitchDescriptor>,
    /// CSV column header, empty when the experiment has no CSV.
    pub output_columns: Vec<String>,
    /// Golden snapshot file, `null` when exempt.
    pub golden: Option<String>,
}

/// One axis in a [`Descriptor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisDescriptor {
    /// Axis name.
    pub name: String,
    /// Value shape (see [`AxisKind::name`]).
    pub kind: String,
    /// Default raw value.
    pub default: String,
    /// Help string.
    pub help: String,
}

/// One flag or mode in a [`Descriptor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchDescriptor {
    /// Flag name without dashes.
    pub name: String,
    /// Help string.
    pub help: String,
}

/// Builds the `--describe` document for a spec.
pub fn describe(spec: &ExperimentSpec) -> Descriptor {
    Descriptor {
        name: spec.name.to_string(),
        artifact: spec.artifact.to_string(),
        summary: spec.summary.to_string(),
        version: spec.version,
        labels: spec.labels.iter().map(|l| l.to_string()).collect(),
        axes: spec
            .axes
            .iter()
            .map(|a| AxisDescriptor {
                name: a.name.to_string(),
                kind: a.kind.name().to_string(),
                default: a.default.to_string(),
                help: a.help.to_string(),
            })
            .collect(),
        flags: spec
            .flags
            .iter()
            .map(|f| SwitchDescriptor {
                name: f.name.to_string(),
                help: f.help.to_string(),
            })
            .collect(),
        modes: spec
            .modes
            .iter()
            .map(|m| SwitchDescriptor {
                name: m.flag.to_string(),
                help: m.help.to_string(),
            })
            .collect(),
        output_columns: spec.output_columns.iter().map(|c| c.to_string()).collect(),
        golden: spec.golden.map(|g| g.to_string()),
    }
}

/// Every registered experiment, in `all_figures` execution order.
///
/// This table is the single registration point: a spec absent here is
/// unreachable from the bench binaries, `all_figures`, the docs table,
/// and the completeness test — which is exactly what the test checks.
pub fn all() -> &'static [&'static ExperimentSpec] {
    static ALL: [&ExperimentSpec; 20] = [
        &experiments::table5::SPEC,
        &experiments::fig6::SPEC,
        &experiments::fig7::SPEC,
        &experiments::fig8::SPEC,
        &experiments::fig9::SPEC,
        &experiments::fig10::SPEC,
        &experiments::saturation::SPEC,
        &experiments::droptool::SPEC,
        &experiments::reliability::SPEC,
        &experiments::awgr::SPEC,
        &experiments::buffers::SPEC,
        &experiments::ablation::SPEC,
        &experiments::topologies::SPEC,
        &experiments::faults::SPEC,
        &experiments::chaos::SPEC,
        &experiments::overload::SPEC,
        &experiments::fig5::SPEC,
        &experiments::tables34::SPEC,
        &experiments::packaging::SPEC,
        &experiments::scaling::SPEC,
    ];
    &ALL
}

/// Looks up a spec by registry name.
pub fn get(name: &str) -> Option<&'static ExperimentSpec> {
    all().iter().copied().find(|s| s.name == name)
}

/// Renders the `--list` table: one aligned line per spec.
pub fn list_table() -> String {
    let mut out = String::new();
    let wide = all().iter().map(|s| s.name.len()).max().unwrap_or(0);
    let awide = all().iter().map(|s| s.artifact.len()).max().unwrap_or(0);
    for spec in all() {
        outln!(
            out,
            "{:<wide$}  {:<awide$}  {}",
            spec.name,
            spec.artifact,
            spec.summary
        );
    }
    out
}

/// Renders the experiment table embedded in EXPERIMENTS.md — the docs
/// are regenerated from the registry, never hand-edited (a test diffs
/// the committed file against this function).
pub fn markdown_table() -> String {
    let mut out = String::new();
    outln!(
        out,
        "| Experiment | Paper artifact | Axes (defaults) | Golden | Summary |"
    );
    outln!(out, "| --- | --- | --- | --- | --- |");
    for spec in all() {
        let axes = if spec.axes.is_empty() {
            "—".to_string()
        } else {
            spec.axes
                .iter()
                .map(|a| format!("`{}={}`", a.name, a.default))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let golden = match spec.golden {
            Some(g) => format!("`{g}`"),
            None => "exempt".to_string(),
        };
        outln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            spec.name,
            spec.artifact,
            axes,
            golden,
            spec.summary
        );
    }
    out
}

// ---------------------------------------------------------- console text

/// Formats a nanosecond value the way the paper's figures read.
pub fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "-".into()
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Formats a byte count with a binary-prefix unit (peak RSS, state
/// bytes). Zero renders as `0 B` — the "no probe installed" case.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.2} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.2} KiB", b / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// Appends a section header to a console rendering (the string twin of
/// the old bench `header()` helper).
pub fn section(out: &mut String, title: &str) {
    out.push('\n');
    outln!(out, "=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(250.0), "250.0 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(f64::NAN), "-");
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024 * 1024), "5.00 GiB");
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = all().iter().map(|s| s.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate registry names");
        for name in names {
            assert!(get(name).is_some(), "{name} must resolve");
        }
        assert!(get("no_such_experiment").is_none());
    }

    #[test]
    fn axis_defaults_parse_under_their_declared_kind() {
        for spec in all() {
            for axis in spec.axes {
                assert!(
                    axis.kind.check(axis.default).is_ok(),
                    "{}: axis {} default `{}` does not parse as {}",
                    spec.name,
                    axis.name,
                    axis.default,
                    axis.kind.name()
                );
            }
        }
    }

    #[test]
    fn params_validate_overrides_eagerly() {
        let spec = get("fig6").expect("fig6 registered");
        let mut p = Params::for_spec(spec, EvalConfig::tiny());
        assert!(p.set(spec, "loads", "0.2,0.4").is_ok());
        assert_eq!(p.f64_list("loads").expect("parses"), vec![0.2, 0.4]);
        assert!(matches!(
            p.set(spec, "loads", "0.2,wat"),
            Err(BaldurError::InvalidParam { .. })
        ));
        assert!(matches!(
            p.set(spec, "bogus_axis", "1"),
            Err(BaldurError::InvalidParam { .. })
        ));
    }

    #[test]
    fn describe_round_trips_through_vendored_serde() {
        for spec in all() {
            let d = describe(spec);
            let text = serde_json::to_string_pretty(&d).expect("serialize descriptor");
            let back: Descriptor = serde_json::from_str(&text).expect("parse descriptor");
            assert_eq!(d, back, "{}", spec.name);
        }
    }

    #[test]
    fn markdown_table_covers_every_spec() {
        let table = markdown_table();
        for spec in all() {
            assert!(table.contains(&format!("| `{}` |", spec.name)), "{table}");
        }
    }
}
