//! The generic experiment runner: every bench binary is a one-line call
//! into [`registry_main`] naming its spec, and `all_figures` is
//! [`all_figures_main`] iterating the whole registry.
//!
//! Control flow per invocation:
//!
//! 1. parse the flags ([`Args`]),
//! 2. resolve the spec from `baldur::registry` and reject any flag that
//!    is neither common nor one of the spec's axes, flags or modes, and
//!    `--csv` on an experiment that renders no CSV,
//! 3. merge axis overrides (`--<axis> VALUES` sugar, then `--set
//!    axis=VALUES`), enabled flags, and the selected mode,
//! 4. build the [`Sweep`] and run the spec's hook,
//! 5. emit console output, CSV/JSON/auxiliary files, and the standard
//!    sweep epilogue.
//!
//! Parameter errors exit 2 (usage); job failures exit 1 via the shared
//! epilogue. This module deliberately contains no `process::exit` and no
//! `unwrap`/`expect` — termination is delegated to `cli`, which carries
//! the lint allowances.

use std::fs;
use std::path::Path;

use baldur::error::BaldurError;
use baldur::registry::{self, ExperimentSpec, Output, Params, RunHook};
use baldur::sweep::Sweep;

use crate::cli::{finish, or_die, usage_error, Args};

/// Writes `contents` to `path`, creating parent directories as needed,
/// and reports the write on stderr (stdout stays clean and diffable).
fn write_file(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("create {}: {e}", parent.display()));
        }
    }
    fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Applies `--<axis> VALUES` sugar and `--set axis=VALUES` overrides to
/// `params`. `--set` wins over the sugar form; a malformed or unknown
/// override is a usage error (exit 2).
fn apply_overrides(args: &Args, spec: &ExperimentSpec, params: &mut Params) {
    for axis in spec.axes {
        if let Some(v) = args.get(axis.name) {
            if let Err(e) = params.set(spec, axis.name, v) {
                usage_error(&e.to_string());
            }
        }
    }
    if let Some(raw) = args.get("set") {
        let Some((axis, value)) = raw.split_once('=') else {
            usage_error(&format!("--set: `{raw}` is not of the form axis=VALUES"));
        };
        if let Err(e) = params.set(spec, axis.trim(), value) {
            usage_error(&e.to_string());
        }
    }
    for flag in spec.flags {
        if args.flag(flag.name) {
            if let Err(e) = params.enable(spec, flag.name) {
                usage_error(&e.to_string());
            }
        }
    }
}

/// The experiment-specific `--key`s `spec` accepts: its axes, flags and
/// mode flags.
fn spec_keys(spec: &ExperimentSpec) -> Vec<&'static str> {
    spec.axes
        .iter()
        .map(|a| a.name)
        .chain(spec.flags.iter().map(|f| f.name))
        .chain(spec.modes.iter().map(|m| m.flag))
        .collect()
}

/// Selects the hook to run: the first [`Mode`](registry::Mode) whose
/// flag was passed, falling back to the spec's default hook. The default
/// hook is what `all_figures` runs and what the default CSV/JSON paths
/// apply to.
fn select_hook(args: &Args, spec: &ExperimentSpec) -> (RunHook, bool) {
    for mode in spec.modes {
        if args.flag(mode.flag) {
            return (mode.run, false);
        }
    }
    (spec.run, true)
}

/// Runs `hook`, mapping a parameter error to a usage exit (2) and any
/// other failure to the standard sweep-abort exit (1).
fn run_checked(sw: &Sweep, params: &Params, hook: RunHook) -> Output {
    match hook(sw, params) {
        Ok(out) => out,
        Err(e @ BaldurError::InvalidParam { .. }) => usage_error(&e.to_string()),
        Err(e) => or_die(sw, Err::<Output, BaldurError>(e)),
    }
}

/// The entire main body of a single-experiment bench binary.
///
/// # Panics
///
/// Panics when `name` is not registered (a build-time wiring bug, caught
/// by the registry completeness test) or when writing an output file
/// fails.
pub fn registry_main(name: &str) {
    crate::perf::install_for_registry();
    let args = Args::parse();
    let spec = registry::get(name)
        .unwrap_or_else(|| panic!("bench binary names unregistered experiment `{name}`"));
    args.reject_unknown(&spec_keys(spec));
    if args.get("csv").is_some() || args.flag("csv") {
        if let Err(e) = spec.check_csv_flag() {
            usage_error(&e);
        }
    }
    if args.flag("list") {
        print!("{}", registry::list_table());
        return;
    }
    if args.flag("describe") {
        let doc = serde_json::to_string_pretty(&registry::describe(spec))
            .unwrap_or_else(|e| panic!("serialize descriptor: {e:?}"));
        println!("{doc}");
        return;
    }
    let cfg = args.eval_config();
    let mut params = Params::for_spec(spec, cfg);
    apply_overrides(&args, spec, &mut params);
    let (hook, is_default_hook) = select_hook(&args, spec);
    let sw = args.sweep(&cfg);
    let out = run_checked(&sw, &params, hook);
    print!("{}", out.console);
    let csv_path = args.get("csv").or(if is_default_hook {
        spec.csv_default
    } else {
        None
    });
    if let (Some(path), Some(csv)) = (csv_path, &out.csv) {
        write_file(Path::new(path), csv);
    }
    let json_path = args.get("json").or(if is_default_hook {
        spec.json_default
    } else {
        None
    });
    if let (Some(path), Some(json)) = (json_path, &out.json) {
        write_file(Path::new(path), json);
    }
    for (path, contents) in &out.files {
        write_file(Path::new(path), contents);
    }
    finish(&sw);
}

/// The entire main body of `all_figures`: runs every registered spec's
/// default hook (with its declared `all_figures` overrides) on one
/// shared sweep and writes `<out>/<name>.{csv,json}`, auxiliary files,
/// and gnuplot scripts. Console tables are discarded — this binary's
/// product is the results directory.
///
/// # Panics
///
/// Panics when an output file cannot be written.
pub fn all_figures_main() {
    crate::perf::install_for_registry();
    let args = Args::parse();
    args.reject_unknown(&["out"]);
    if args.flag("list") {
        print!("{}", registry::list_table());
        return;
    }
    let cfg = args.eval_config();
    let dir_name = args.get("out").unwrap_or("results").to_string();
    let dir = Path::new(&dir_name);
    fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));

    let sw = args.sweep(&cfg);
    eprintln!(
        "running the full figure set at {} nodes ({} worker threads)...",
        cfg.nodes,
        sw.threads()
    );
    for spec in registry::all() {
        let mut params = Params::for_spec(spec, cfg);
        for (axis, value) in (spec.all_figures)(&cfg) {
            // Registry-authored overrides; a failure here is a wiring
            // bug, not a user error.
            if let Err(e) = params.set(spec, axis, &value) {
                panic!("spec `{}` all_figures overrides: {e}", spec.name);
            }
        }
        let out = or_die(&sw, (spec.run)(&sw, &params));
        if let Some(csv) = &out.csv {
            write_file(&dir.join(format!("{}.csv", spec.name)), csv);
        }
        if let Some(json) = &out.json {
            write_file(&dir.join(format!("{}.json", spec.name)), json);
        }
        for (path, contents) in &out.files {
            write_file(&dir.join(path), contents);
        }
        if let Some((gp_name, gp)) = spec.gnuplot {
            write_file(&dir.join(gp_name), gp);
        }
    }
    finish(&sw);
    eprintln!("done: {}", dir.display());
}
