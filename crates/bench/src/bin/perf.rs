//! Hot-path microbenchmarks: exact work counters, gated by `--smoke`
//! against `results/golden/perf_ops.json`.

fn main() {
    baldur_bench::registry_main("perf")
}
