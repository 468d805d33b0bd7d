#!/usr/bin/env bash
# The repo benchmark: builds the standalone benchmark/ workspace from
# source, then runs it. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--reps R]   every workload, traced run, probes, checks
#   benchmark/run.sh --agree                 the same twice; compares the two sets
#   benchmark/run.sh --smoke                 quarter-size, one rep: API-drift check (< 10 s)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                            one workload, JSON result on the last line
#                                            (how BENCHMARK.json's command is invoked)
set -euo pipefail

# Always run from the repository root, wherever the script was called from.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Share the root workspace's target directory unless the caller chose one.
target="${CARGO_TARGET_DIR:-target}"

# Pin glibc's mmap threshold at its default. Left alone it grows with the
# largest buffer freed so far, and then whether a simulated heap is handed
# back to the kernel depends on the order earlier ones were dropped in:
# host_peak_rss_mb swung between 66 and 83 MiB from seed to seed.
export MALLOC_MMAP_THRESHOLD_=131072

# Build output goes to stderr so the last line of stdout stays the result.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

exec "$target/release/teraheap-benchmark" "$@"
