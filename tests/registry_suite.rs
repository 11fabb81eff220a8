//! Registry completeness suite: the experiment registry is the single
//! source of truth for what this repo can reproduce, so every spec must
//! be (a) reachable from a bench binary and `all_figures`, (b) backed by
//! a golden snapshot or explicitly exempt, and (c) fully describable —
//! its `--describe` document round-trips through the vendored serde.
//!
//! `ci.sh` runs this suite by name in the `registry-completeness` step.

use std::collections::BTreeSet;
use std::path::Path;

use baldur::experiments::EvalConfig;
use baldur::registry::{self, Params};

/// Names with `golden: None`, listed explicitly: adding an experiment
/// without a golden snapshot is a deliberate decision recorded here, not
/// a silent default. The console-only and JSON-only artifacts land here;
/// everything with a CSV renderer is snapshot-pinned.
const GOLDEN_EXEMPT: &[&str] = &[
    "fig9",
    "saturation",
    "droptool",
    "reliability",
    "awgr",
    "buffers",
    "ablation",
    "topologies",
    "fig5",
    "tables34",
    "packaging",
    // Timing/RSS columns are machine measurements; the deterministic
    // projection is gated by the experiment's own `--smoke` mode, unit
    // tests, and the tool-owned `scaling_head.csv` snapshot of its head.
    "scaling",
];

/// Snapshots under `results/golden/` owned by repo tooling rather than a
/// registered experiment. Each must be pinned by its own freshness test
/// (the lint report by `tests/lint_wall.rs::lint_json_snapshot_is_fresh`,
/// the hot-path work counters by
/// `tests/golden_suite.rs::golden_hot_paths_csv`,
/// the scaling curve's deterministic head by
/// `tests/golden_suite.rs::golden_scaling_head_csv`,
/// the packet-model fingerprints by
/// `tests/properties.rs::soa_models_match_retired_baselines_byte_identically`,
/// the codec and circuit fingerprints by
/// `tests/properties.rs::codec_and_gate_loop_match_retired_references`).
const TOOL_GOLDENS: &[&str] = &[
    "hot_paths.csv",
    "lint.json",
    "reference_fingerprints.json",
    "scaling_head.csv",
    "soa_fingerprints.json",
];

fn repo_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn every_spec_has_a_bin_wrapper_and_vice_versa() {
    let bin_dir = repo_path("crates/bench/src/bin");
    let mut wrapped: BTreeSet<String> = BTreeSet::new();
    let mut saw_all_figures = false;
    for entry in std::fs::read_dir(&bin_dir).expect("read bench bin dir") {
        let path = entry.expect("walk bench bin dir").path();
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        if source.contains("all_figures_main()") {
            saw_all_figures = true;
            continue;
        }
        let Some(start) = source.find("registry_main(\"") else {
            panic!(
                "{} neither calls registry_main nor all_figures_main",
                path.display()
            );
        };
        let rest = &source[start + "registry_main(\"".len()..];
        let name = &rest[..rest.find('"').expect("closing quote")];
        assert!(
            wrapped.insert(name.to_string()),
            "two bench binaries wrap experiment `{name}`"
        );
    }
    assert!(saw_all_figures, "no all_figures binary found");

    let registered: BTreeSet<String> = registry::all().iter().map(|s| s.name.to_string()).collect();
    assert_eq!(
        wrapped, registered,
        "bench binaries and registry disagree (left: wrapped, right: registered)"
    );
}

#[test]
fn every_spec_runs_in_all_figures_with_valid_overrides() {
    // `all_figures` iterates `registry::all()` and applies each spec's
    // declared overrides; a typo'd axis name in an override would only
    // surface at runtime, so validate them all eagerly here.
    let cfg = EvalConfig::tiny();
    for spec in registry::all() {
        let mut params = Params::for_spec(spec, cfg);
        for (axis, value) in (spec.all_figures)(&cfg) {
            params
                .set(spec, axis, &value)
                .unwrap_or_else(|e| panic!("spec `{}` all_figures overrides: {e}", spec.name));
        }
    }
}

#[test]
fn every_spec_is_golden_backed_or_explicitly_exempt() {
    let exempt: BTreeSet<&str> = GOLDEN_EXEMPT.iter().copied().collect();
    assert_eq!(
        exempt.len(),
        GOLDEN_EXEMPT.len(),
        "duplicate names in GOLDEN_EXEMPT"
    );
    let mut claimed: BTreeSet<String> = BTreeSet::new();
    for spec in registry::all() {
        match spec.golden {
            Some(file) => {
                assert!(
                    !exempt.contains(spec.name),
                    "`{}` declares a golden but is listed exempt",
                    spec.name
                );
                let path = repo_path("results/golden").join(file);
                assert!(
                    path.is_file(),
                    "`{}` declares golden `{file}` but {} does not exist \
                     (create it with ./ci.sh --bless)",
                    spec.name,
                    path.display()
                );
                assert!(
                    claimed.insert(file.to_string()),
                    "golden `{file}` claimed by two specs"
                );
            }
            None => assert!(
                exempt.contains(spec.name),
                "`{}` has no golden snapshot and is not in GOLDEN_EXEMPT — \
                 add a golden or record the exemption",
                spec.name
            ),
        }
    }
    for name in &exempt {
        assert!(
            registry::get(name).is_some(),
            "GOLDEN_EXEMPT names unknown experiment `{name}`"
        );
    }
    // Every snapshot on disk must be claimed, or it is dead weight that
    // the golden suite silently stops checking.
    for entry in std::fs::read_dir(repo_path("results/golden")).expect("read results/golden") {
        let name = entry
            .expect("walk results/golden")
            .file_name()
            .to_string_lossy()
            .into_owned();
        assert!(
            claimed.contains(&name) || TOOL_GOLDENS.contains(&name.as_str()),
            "golden snapshot `{name}` is claimed by no registered experiment \
             (tool-owned snapshots must be listed in TOOL_GOLDENS)"
        );
    }
}

/// `--csv PATH` is a usage error (exit 2 from every bench binary) on
/// each experiment that renders no CSV table, instead of exiting 0 with
/// no file written; the experiments with CSV columns accept it.
#[test]
fn csv_flag_is_rejected_where_no_csv_is_rendered() {
    let mut rejected: Vec<&str> = Vec::new();
    for spec in registry::all() {
        match spec.check_csv_flag() {
            Ok(()) => assert!(!spec.output_columns.is_empty(), "`{}`", spec.name),
            Err(e) => {
                assert!(e.contains(spec.name), "`{}`: {e}", spec.name);
                assert!(spec.output_columns.is_empty(), "`{}`", spec.name);
                assert_eq!(spec.csv_default, None, "`{}`", spec.name);
                rejected.push(spec.name);
            }
        }
    }
    rejected.sort_unstable();
    assert_eq!(
        rejected,
        [
            "ablation",
            "awgr",
            "buffers",
            "droptool",
            "fig5",
            "fig9",
            "packaging",
            "reliability",
            "tables34",
            "topologies",
        ]
    );
}

#[test]
fn every_descriptor_round_trips_through_vendored_serde() {
    for spec in registry::all() {
        let doc = registry::describe(spec);
        let text = serde_json::to_string_pretty(&doc)
            .unwrap_or_else(|e| panic!("serialize `{}` descriptor: {e:?}", spec.name));
        let back: registry::Descriptor = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("reparse `{}` descriptor: {e:?}", spec.name));
        assert_eq!(back, doc, "`{}` descriptor did not round-trip", spec.name);
    }
}

/// Markers bracketing the generated experiment table in EXPERIMENTS.md.
const MD_BEGIN: &str = "<!-- registry:begin -->";
const MD_END: &str = "<!-- registry:end -->";

#[test]
fn experiments_md_table_matches_registry() {
    // The docs table is generated from `registry::markdown_table()`,
    // never hand-edited; regenerate it with
    // `BALDUR_BLESS=1 cargo test -q --test registry_suite`.
    let path = repo_path("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let start = doc
        .find(MD_BEGIN)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md lacks the `{MD_BEGIN}` marker"))
        + MD_BEGIN.len();
    let end = doc
        .find(MD_END)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md lacks the `{MD_END}` marker"));
    let want = format!("\n{}", registry::markdown_table());
    if std::env::var_os("BALDUR_BLESS").is_some() {
        let blessed = format!("{}{}{}", &doc[..start], want, &doc[end..]);
        std::fs::write(&path, blessed).expect("bless EXPERIMENTS.md");
        eprintln!("blessed {}", path.display());
        return;
    }
    assert!(
        doc[start..end] == want,
        "the EXPERIMENTS.md experiment table is stale — regenerate it with \
         `BALDUR_BLESS=1 cargo test -q --test registry_suite`"
    );
}

#[test]
fn registry_names_are_unique_and_listable() {
    let mut seen = BTreeSet::new();
    for spec in registry::all() {
        assert!(
            seen.insert(spec.name),
            "duplicate registry name {}",
            spec.name
        );
    }
    let table = registry::list_table();
    for spec in registry::all() {
        assert!(table.contains(spec.name), "--list omits `{}`", spec.name);
    }
    let md = registry::markdown_table();
    for spec in registry::all() {
        assert!(
            md.contains(&format!("| `{}` ", spec.name)),
            "markdown table omits `{}`",
            spec.name
        );
    }
}
