//! The figure/table harness: one registry-driven runner behind every
//! binary in `src/bin/`.
//!
//! Each binary regenerates one table or figure of the paper by calling
//! [`registry_main`] with its experiment's registry name; `all_figures`
//! calls [`all_figures_main`]. Experiment-specific knobs are declared as
//! axes/flags/modes on the spec in `baldur::registry` and surface
//! automatically as `--<axis> VALUES`, `--<flag>`, `--set axis=VALUES`,
//! `--list`, and `--describe`. Common flags:
//!
//! * `--nodes N` — active server nodes (default: quick-config 256),
//! * `--packets N` — packets per node for open-loop runs,
//! * `--rounds N` — ping-pong rounds,
//! * `--seed N` — master seed,
//! * `--threads N` — worker threads (default: `BALDUR_THREADS`, then
//!   all cores),
//! * `--csv PATH` / `--json PATH` — also write the structured results,
//! * `--cache-dir DIR` — run-cache directory (default `results/cache`),
//! * `--no-cache` — recompute every run, bypassing the cache (with the
//!   cache on, rerunning a killed command replays every finished job),
//! * `--fail-budget N` — tolerated job failures per sweep before the
//!   remaining jobs are cancelled and the binary exits nonzero
//!   (default: unlimited),
//! * `--paper` — use the paper's full scale (1,024 nodes × 10,000
//!   packets; slow).
//!
//! `all_figures` also takes `--out DIR` (default `results`).
//!
//! Unknown flags, malformed values and bad axis overrides produce a
//! usage message on stderr and exit code 2; job failures produce a
//! per-job status table on stderr and exit code 1 *only* when a failure
//! budget was exhausted (otherwise the partial tables render and the
//! binary exits 0, matching the sweep's drop-failed-rows semantics).

pub mod cli;
pub mod perf;
pub mod runner;

pub use cli::{finish, or_die, print_sweep_summary, usage, usage_error, Args};
pub use runner::{all_figures_main, registry_main};
