#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark package in release mode
# (into $CARGO_TARGET_DIR, default the repository's shared `target/`), then
# runs it with the given arguments. Results land in benchmark/out/latest.json;
# the last line of standard output is the run's JSON verdict.
#
#   bash benchmark/run.sh                          # all four workloads
#   bash benchmark/run.sh --workload contend_1k --seed 7 --seconds 20
#   bash benchmark/run.sh --workload paper_1k --trace 1
#   bash benchmark/run.sh --smoke                  # 64-node versions, seconds
#   bash benchmark/run.sh --bless                  # re-pin expected.json
#   bash benchmark/run.sh --compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/baldur-benchmark" "$@"
