#!/usr/bin/env bash
# Tier-1 verification plus the hermeticity guard.
#
# The workspace is zero-dependency by design (see crates/util): every crate
# depends only on path = ... workspace members and std, so a clean checkout
# builds fully offline. This script fails if
#   1. any Cargo.toml grows a non-path (registry) dependency, or
#   2. the offline release build or test suite fails.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hermeticity guard: no registry dependencies =="
# A registry dependency line looks like `name = "1.2"` or
# `name = { version = "1", ... }`. Package-metadata keys (version, edition,
# rust-version, resolver) are the only legitimate `key = "literal"` lines.
violations=$(grep -nE '^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*("[0-9^~<>=*]|\{[^}]*\bversion\b)' \
    Cargo.toml crates/*/Cargo.toml \
    | grep -vE ':[0-9]+:[[:space:]]*(version|edition|rust-version|resolver)[[:space:]]*=' \
    || true)
if [[ -n "$violations" ]]; then
    echo "ERROR: non-path dependencies found (the workspace must stay hermetic):" >&2
    echo "$violations" >&2
    exit 1
fi
# Dotted dependency sections (`[dependencies.foo]` + `version = ...`) would
# slip past the line-based check above because `version` is an allowed key;
# the workspace uses none, so reject the section form outright.
if grep -nE '^\[[A-Za-z-]*dependencies\.' Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: dotted dependency section found; use inline path/workspace deps." >&2
    exit 1
fi
# Belt and braces: the historical external crates must never reappear.
if grep -nE '^[^#]*\b(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde)[[:space:]]*=' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: external crate dependency reintroduced." >&2
    exit 1
fi
echo "ok"

echo "== offline release build =="
cargo build --release --offline --workspace

echo "== offline tests =="
cargo test -q --offline --workspace

# The invariant suites as one table: suite (crate/target::module), DESIGN.md
# section, what it pins. The workspace pass above has just run every one of
# them; the stage below only asserts, from the test listing, that each still
# exists and still lists a test, so a renamed or emptied suite cannot drop
# out of the gate unnoticed. "(golden)" marks a table kept as a data file,
# crates/*/tests/golden/*.txt, behind teraheap_util::golden; scripts/repin.sh
# rewrites those.
suites=$(cat <<'TABLE'
teraheap_util/lib::golden::                   §6   the golden helper: write/read round trip, moved-cell report, missing, unclaimed and duplicate arms
teraheap_storage/lib::mmap::reference::       §7   the page table + intrusive list is an exact LRU: random programs, and word-sized ones that mostly take the resident-hit early exit of `touch`, leave it and the recency-vector reference with the same statistics, ns, events, write-back log and recency order
teraheap_runtime/lib::gc::units::reference::  §7   the mark bitmap scan is the live set in relocation order; its rank-indexed forwarding answers every probe like the direct-mapped reference table
teraheap_runtime/trace_equivalence::          §8   tracing observes the clock and never advances it
teraheap_storage/bulk_equivalence::           §9   touch_run is bit-identical to the word-at-a-time loop: same ns, counters, events
teraheap_runtime/bulk_equivalence::           §9   view_prims, view_prims_at, read_prims and the read_prim loop observe and charge the same, as do write_prims, fill_prims_at and the write_prim loop, on H1, paged and DAX H2 and across the Panthera NVM boundary; the pinned *_at accessors match the handle accessors across minor and major GCs, H2 promotion of the pinned object and a sliced cycle in flight
mini_giraph/charge_pin::                      §9   the superstep loop, message stores and OOC blob path: per-category ns, GC counts, offloads/reloads, charge-call counts, checksum (golden)
mini_spark/charge_pin::                       §9   the scan loops, block manager and dataset loaders: per-category ns, GC and S/D counts, faults, charge-call counts, live roots at exit (golden)
kryo_sim/stream_pin::                         §9   stream bytes, size estimate and every charge of serialize, serialized_size and deserialize (golden)
teraheap_storage/crash_consistency::          §10  the crash sweep passes at every write-back boundary with zero silent-corruption escapes
teraheap_runtime/fault_recovery::             §10  the recovery properties; also holds the chaos_smoke_* tests the faults smoke stage drives
teraheap_runtime/fault_equivalence::          §10  a zero-rate fault plane is bit-identical to no plane at all
teraheap_runtime/gc_equivalence::             §11  simulated ns, phase breakdowns and graph checksum over variant x gc_threads x pause budget x armed fault plane (golden), the armed-idle run, and (§12) that a sole tenant never queues
teraheap_runtime/lane_determinism::           §11  lane accounting is deterministic across runs, thread counts and host parallelism
teraheap_runtime/incremental_marking::        §11  a pause-budgeted run converges to the stop-world logical heap at any budget and lane count; slices replay bit-identically
teraheap_server/lib::                         §12  N-tenant server runs are deterministic, with typed config rejection
teraheap_runtime/fault_isolation::            §12  one tenant's injected crash leaves its neighbours' simulated time, heap census and arbitration counters untouched
teraheap_core/properties::                    §13  the lifetime profiler replays bit-identically and never retracts a pretenure decision; region-group liveness is merge-order invariant
mini_spark/placement_properties::             §13  the placement cost model is deterministic and monotone in device latency and S/D cost
teraheap_query/charge_pin::                   §14  the read path's simulated charges, cold and hot (golden)
teraheap_query/query_properties::             §14  the executor matches its naive oracle, the index plan is answer-bit-equal to the full scan, answers are invariant across runtime knobs
teraheap_query/endurance::                    §14  the retriever-style churn loop stays leak-free with the heap checker armed
teraheap_query/gc_equivalence::               §14  with the query crate linked but idle the runtime golden reproduces bit-identically
TABLE
)
echo "== suite table: every named suite exists and lists a test =="
# One `crate/target::test` line per listed test: the unit-test binary's name
# gives the crate, and a crate's integration tests follow its unit tests.
listed=$(cargo test --offline --workspace -- --list 2>&1 | awk '
    /^ +Running unittests src\/lib\.rs/ {
        n = split($NF, path, "/"); crate = path[n]; sub(/-[0-9a-f]+\)$/, "", crate); target = "lib"
    }
    /^ +Running unittests src\/bin\// { target = "" }
    /^ +Running tests\//              { target = $2; sub(/^tests\//, "", target); sub(/\.rs$/, "", target) }
    /^ +Doc-tests /                   { target = "" }
    /: test$/ && target != ""         { sub(/: test$/, ""); print crate "/" target "::" $0 }')
named=0
while read -r suite _; do
    named=$((named + 1))
    if ! grep -q "^$suite" <<<"$listed"; then
        echo "ERROR: suite $suite is in the table but lists no test (renamed? emptied?)." >&2
        exit 1
    fi
done <<<"$suites"
echo "ok ($named suites)"

# One golden mechanism: the print-and-paste capture path stays gone, and every
# golden file is opened by a suite beside it (the helper itself reports file
# *rows* no arm claims; this covers whole files).
echo "== goldens: one mechanism, no orphan file =="
if grep -rn --exclude=verify.sh TERAHEAP_GOLDEN_PRINT \
    crates src tests examples benchmark scripts .claude README.md DESIGN.md; then
    echo "ERROR: TERAHEAP_GOLDEN_PRINT is gone; pin through teraheap_util::golden, re-pin with scripts/repin.sh." >&2
    exit 1
fi
for file in crates/*/tests/golden/*.txt; do
    stem=$(basename "$file" .txt)
    if ! grep -qF "\"$stem\"" "${file%/golden/*}"/*.rs; then
        echo "ERROR: no suite beside $file opens \"$stem\"." >&2
        exit 1
    fi
done
echo "ok"

echo "== lints: clippy -D warnings =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings
echo "ok"

# A deleted or renamed public item must take the intra-doc links that name
# it along. (Links from public docs to private items only warn; the flag
# does not deny them.)
echo "== docs: no dangling intra-doc links =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --offline --workspace -q
echo "ok"

# The repo benchmark is its own workspace (benchmark/), so the builds above
# never compile it. Its quarter-size run is the API-drift check: it fails if
# a crate entry point the harness drives was renamed or an output check
# (checksum parity, rep determinism) no longer holds. Each workload's
# `sim_fingerprint` folds every simulated number the run observed, so the
# five are also compared with the committed ones: a host-only change must
# print exactly these.
echo "== benchmark smoke: harness builds, its checks pass, fingerprints unmoved =="
fingerprints=$(benchmark/run.sh --smoke \
    | awk '/^== /{workload=$2} /^note sim_fingerprint /{print workload, $3}')
if ! diff <(echo "$fingerprints") scripts/smoke_fingerprints.txt; then
    echo "ERROR: smoke sim_fingerprints differ from scripts/smoke_fingerprints.txt." >&2
    echo "Only a PR that means to move simulated time re-pins that file (scripts/repin.sh)." >&2
    exit 1
fi
echo "ok"

# Faults smoke stage — the one thing here the workspace pass did not do: one
# seeded chaos run per device profile (NVMe page cache, Optane NVM,
# DRAM-DAX), injected through the production TERAHEAP_FAULTS path with the
# full-heap checker armed at every GC boundary. The fixed seed keeps the
# stage replayable bit-for-bit.
echo "== faults smoke: seeded chaos per device profile =="
chaos="seed=20260806,read_err_ppm=20000,write_err_ppm=20000,max_retries=4,backoff_ns=50000,spike_every=512,spike_len=32,spike_mult=8"
for profile in nvme nvm dax; do
    echo "  chaos profile: $profile"
    TERAHEAP_FAULTS="$chaos" TERAHEAP_HEAP_CHECK=1 \
        cargo test -q --offline -p teraheap-runtime --test fault_recovery \
        "chaos_smoke_${profile}" >/dev/null
done
echo "ok"

# Simulated-determinism guard: every committed figure CSV must regenerate
# bit-identically. Simulated time is a pure function of the cost model and
# the deterministic workloads, so any diff here means a change quietly
# altered experiment results. microbench.csv is excluded (it records real
# wall-clock times). Skip with VERIFY_SKIP_RESULTS=1 for a quick check.
if [[ "${VERIFY_SKIP_RESULTS:-0}" != "1" ]]; then
    echo "== results determinism: regenerate and diff results/*.csv =="
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    cp -r results "$tmp/committed"
    cargo run -q --release --offline -p teraheap-bench --bin figures -- all >/dev/null
    if ! diff -rq -x microbench.csv "$tmp/committed" results; then
        echo "ERROR: regenerated results differ from committed CSVs." >&2
        echo "Simulated time must be deterministic; if the change is an" >&2
        echo "intentional cost-model/bug fix, re-pin with scripts/repin.sh and" >&2
        echo "say so in the PR." >&2
        exit 1
    fi
    echo "ok"
fi

echo "verify: all checks passed"
