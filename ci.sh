#!/usr/bin/env bash
# Golden gate for this repository. Fully offline: formatting, clippy, the
# baldur-lint static-analysis wall, a release build, the test suite (whose
# debug builds carry the scheduler pop-order and drain-audit assertions),
# and a timestamped JSON summary under results/. Exits nonzero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# `./ci.sh --bless` regenerates the golden snapshots under results/golden/
# (see tests/golden_suite.rs) and the registry-derived table in
# EXPERIMENTS.md, then exits; review the diff like any other.
if [ "${1:-}" = "--bless" ]; then
    echo "=== blessing golden snapshots (results/golden/)"
    BALDUR_BLESS=1 cargo test -q --test golden_suite
    echo "=== blessing the EXPERIMENTS.md registry table"
    BALDUR_BLESS=1 cargo test -q --test registry_suite experiments_md_table_matches_registry
    echo "=== blessing the lint report snapshot (results/golden/lint.json)"
    BALDUR_BLESS=1 cargo test -q --test lint_wall lint_json_snapshot_is_fresh
    exit 0
fi

stamp="$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p results
summary="results/ci_${stamp}.json"

steps=()
status=pass

run_step() {
    local name="$1"
    shift
    local t0 t1 rc
    t0=$(date +%s)
    echo "=== ${name}: $*"
    if "$@"; then
        rc=0
    else
        rc=$?
        status=fail
    fi
    t1=$(date +%s)
    steps+=("{\"name\":\"${name}\",\"command\":\"$*\",\"exit\":${rc},\"seconds\":$((t1 - t0))}")
    if [ "${rc}" -ne 0 ]; then
        write_summary
        echo "=== FAILED at ${name} (summary: ${summary})"
        exit "${rc}"
    fi
}

# Runs a command that must exit with exactly the given code (a plain
# nonzero exit is not enough: a panic exits 101, a usage error exits 2).
expect_exit() {
    local want="$1"
    shift
    local rc=0
    "$@" || rc=$?
    if [ "${rc}" -ne "${want}" ]; then
        echo "expected exit ${want}, got ${rc}: $*"
        return 1
    fi
}

# `filtered_test <cargo test args> -- <filter>...` runs the tests the
# filters match, after checking that each filter matches at least one:
# `--list` must print some `<name>: test` line for it. A renamed or deleted
# test then fails its step instead of turning it into a silent pass.
filtered_test() {
    local args=() f listed
    while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
        args+=("$1")
        shift
    done
    shift
    for f in "$@"; do
        listed="$(cargo test -q "${args[@]}" -- "${f}" --list 2>/dev/null)" || return 1
        if ! grep -q ': test$' <<<"${listed}"; then
            echo "no test matches filter '${f}': cargo test ${args[*]}"
            return 1
        fi
    done
    cargo test -q "${args[@]}" -- "$@"
}

# The calendar queue's unit tests (structural invariants, width rule,
# bytes bounded by the peak pending population), then the two property
# tests that hold the scheduler pop for pop against a reference binary
# heap.
scheduler_equivalence() {
    filtered_test -p baldur-sim -- calendar &&
        filtered_test --test properties -- calendar_queue_matches_heap scheduler_backends_pop_identically
}

# The fixed-delay lanes both packet models schedule through: the K-lane
# property test (up to more delays than there are lanes, ties across lanes
# and with the calendar, pop for pop against the reference heap), the
# engine's lane tests and stop-reason precedence, and the calendar's
# cursor-advancing search and re-width counters; then the electrical
# router's unit tests and report digests, whose credits, arrivals,
# deliveries and zero-delay wakeups ride the lanes, and the scaling head,
# whose queue bytes count the lanes' rings.
fixed_delay_lanes() {
    filtered_test --test properties -- fifo_lane_pops_like_the_heap &&
        filtered_test -p baldur-sim -- lane stop_reasons seek_moves_the_cursor a_rewidth_that_keeps_the_geometry &&
        filtered_test -p baldur-net -- router_net &&
        cargo test -q --test router_arbitration &&
        filtered_test --test golden_suite -- golden_scaling_head_csv
}

# Router arbitration over requesting outputs: the busy-at-arbitration
# invariant under saturated and kill/revive plans, the radix-70 router
# whose requested-output mask spans two words, the request-set and mask
# rebuild, then the two-word report digests and the engine's lane tests
# (branch-free lane lookup and lane-head minimum).
arbitration_over_requests() {
    filtered_test -p baldur-net -- no_output_is_busy_when_its_router_arbitrates \
        a_radix_over_64_router_arbitrates_through_the_masks_second_word \
        request_sets_track_queue_heads_under_saturation &&
        cargo test -q --test router_arbitration &&
        filtered_test -p baldur-sim -- lane
}

# The port table's epoch format: the offset table against absolute
# busy-until times across sixteen epochs (the property test), two 64-node
# Baldur runs pinned by report digest whose last deliveries pass three
# epoch boundaries, one through a link outage, then the scaling head's
# state bytes.
port_epochs() {
    filtered_test --test properties -- busy_table_matches_absolute_times &&
        cargo test -q --test port_epochs &&
        filtered_test --test golden_suite -- golden_scaling_head_csv
}

# The packet-model pins: the report fingerprints of both SoA packet models
# against their retired map-based baselines, then the exact hot-path work
# counters and the scaling head's state and queue bytes.
packet_model_pins() {
    filtered_test --test properties -- soa_models &&
        filtered_test --test golden_suite -- golden_hot_paths_csv golden_scaling_head_csv
}

# The fabric state layout: the multi-butterfly's one-u32-per-link table
# against its iterator and the `port == 2 * path + bit` rule (both
# wirings, m = 1..=5), the double-filled-port mutation check, the 16-byte
# hop event and 24-byte packet row, the 8-byte optional arena handle,
# then the state bytes they add up to in the scaling head.
fabric_layout() {
    filtered_test -p baldur-topo -- target_is_the_path_th_candidate validate_reports_a_double_filled_port &&
        filtered_test -p baldur-net -- hop_event_and_packet_row_sizes_are_pinned &&
        filtered_test -p baldur-sim -- option_handle_is_niche_packed &&
        filtered_test --test golden_suite -- golden_scaling_head_csv
}

write_summary() {
    {
        echo "{"
        echo "  \"timestamp\": \"${stamp}\","
        echo "  \"status\": \"${status}\","
        echo "  \"steps\": ["
        local first=1
        for s in "${steps[@]}"; do
            if [ "${first}" -eq 1 ]; then first=0; else echo ","; fi
            printf '    %s' "${s}"
        done
        echo ""
        echo "  ]"
        echo "}"
    } >"${summary}"
}

run_step fmt cargo fmt --all --check
# The workspace's deny-level clippy classes (correctness, suspicious, and
# the named lints in Cargo.toml) over every target, tests included.
run_step clippy cargo clippy --workspace --all-targets -q
run_step lint cargo run --release -p baldur-lint
# The lint crate holds itself to the strictest bar: every rule, zero
# allowlist entries. A machine-readable report lands in results/lint.json
# on the ordinary run above; the snapshot test pins its shape.
run_step lint-self cargo run --release -p baldur-lint -- --self-check
run_step lint-json-smoke cargo test -q --test lint_wall lint_json_snapshot_is_fresh
run_step build cargo build --release
run_step test cargo test -q
# Explicit tier-1 gates for the sweep engine (both also run under `cargo
# test`, but a named step makes a determinism or snapshot break obvious):
# byte-identical output at 1/2/8 workers, and the golden CSV snapshots.
run_step thread-invariance cargo test -q --test thread_invariance
run_step golden cargo test -q --test golden_suite
# Electrical router arbitration: the request-set invariant and grant-order
# unit tests, then the two-word request sets pinned by report digest.
run_step router-arbitration cargo test -q -p baldur-net router_net
run_step router-arbitration-multiword cargo test -q --test router_arbitration
# What the shared packet-model shell must keep byte-identical (see
# packet_model_pins above).
run_step packet-model-pins packet_model_pins
# Staged-topology wiring pinned by digest (the flat multi-butterfly link
# table and the computed Omega targets), then the incremental starvation
# oracle against the slice-scanning reference it replaced.
run_step topo-wiring-pinned cargo test -q --test topo_wiring
run_step fabric-layout fabric_layout
run_step oracle-starvation-equivalence cargo test -q -p baldur-net oracle
# The single scheduler backend against its reference heap (see
# scheduler_equivalence above).
run_step scheduler-equivalence scheduler_equivalence
run_step fixed-delay-lanes fixed_delay_lanes
run_step arbitration-over-requests arbitration_over_requests
run_step port-epochs port_epochs
run_step test-workspace cargo test --workspace -q
# Registry gates: the runner must enumerate every registered experiment,
# and the completeness suite enforces bin <-> spec bijection, golden (or
# recorded exemption) coverage, descriptor round-trips, and a fresh
# EXPERIMENTS.md table.
run_step registry-smoke cargo run --release -p baldur-bench --bin all_figures -- --list
run_step registry-completeness cargo test -q --test registry_suite
# Fault-injection smoke: small topology, 5% failures, fixed seed; asserts
# packet conservation and run-to-run byte-identity, exits nonzero on drift.
run_step fault-smoke cargo run --release -p baldur-bench --bin faults -- --smoke
# Crash-recovery smoke: SIGKILL a sweep subprocess mid-run, rerun it
# against the same cache, and require every finished job to replay and the
# figure output to be byte-identical.
run_step crash-recovery-smoke cargo test -q --test crash_recovery
# Chaos smoke: seeded fail/repair schedules with the runtime invariant
# oracle on; asserts zero violations, byte-identical repeat runs, and the
# recovery-time bound, and prints a minimized reproduction on failure.
run_step chaos-smoke cargo run --release -p baldur-bench --bin chaos -- --smoke
# Overload smoke: incast/hotcast storms at 0.5x-4x load with the
# admission/pacing/deadline controls on; asserts the graceful-degradation
# floor, a quiet starvation/occupancy oracle, exact packet conservation,
# and byte-identical repeat runs.
run_step overload-smoke cargo run --release -p baldur-bench --bin overload -- --smoke
# Unknown flags are usage errors (exit 2), never silently ignored. The
# probe binary is analytic, so a regression cannot start a long run.
run_step bench-rejects-unknown-flag expect_exit 2 cargo run --release -p baldur-bench --bin tables34 -- --samples 3
# `--csv` on an experiment that renders no CSV table is rejected the same
# way, instead of exiting 0 with no file written.
run_step bench-rejects-csv-without-table expect_exit 2 cargo run --release -p baldur-bench --bin fig5_waveform -- --csv /dev/null
# Scaling smoke: the 1K->4K head of the million-endpoint curve through
# the SoA kernel; asserts byte-identical repeat runs, 1-vs-8-thread sweep
# invariance, and packet conservation (wall/RSS columns stay advisory).
run_step scaling-smoke cargo run --release -p baldur-bench --bin scaling -- --smoke
# Repo benchmark (benchmark/, its own workspace): its unit tests, then the
# 64-node smoke versions of the four workloads, which check conservation
# and repeat-identical fingerprints.
run_step benchmark-tests cargo test -q --manifest-path benchmark/Cargo.toml
run_step benchmark-smoke bash benchmark/run.sh --smoke

write_summary
echo "=== OK (summary: ${summary})"
