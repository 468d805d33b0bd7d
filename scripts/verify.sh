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
    echo "Only a PR that means to move simulated time re-pins that file." >&2
    exit 1
fi
echo "ok"

# Flight-recorder invariant (DESIGN.md §8): tracing observes the clock and
# never advances it. Run the suite explicitly even though the workspace
# test pass above includes it, so a skipped/filtered test run cannot hide
# a trace-equivalence regression.
echo "== trace equivalence: tracing never perturbs simulated time =="
cargo test -q --offline -p teraheap-runtime --test trace_equivalence
echo "ok"

# Collector invariants (DESIGN.md §11). The golden table pins simulated ns,
# phase breakdowns and the graph checksum over variant x gc_threads x pause
# budget x armed fault plane (plus the armed-idle and sole-tenant goldens);
# lane accounting must be deterministic across runs, thread counts, and host
# parallelism. Run both suites explicitly.
echo "== collector goldens: configuration-product table + lane determinism =="
cargo test -q --offline -p teraheap-runtime --test gc_equivalence
cargo test -q --offline -p teraheap-runtime --test lane_determinism
echo "ok"

# Sliced-cycle invariants (DESIGN.md §11): a pause-budgeted run must
# converge to the same logical heap as one run whole at any budget and lane
# count, and slices must replay bit-identically. Run the suite explicitly.
echo "== incremental equivalence: sliced majors converge to stop-world =="
cargo test -q --offline -p teraheap-runtime --test incremental_marking
echo "ok"

# Bulk-access-plane invariant (DESIGN.md §9): touch_run must be bit-identical
# to the word-at-a-time loop — same ns, same counters, same events. Run the
# property suite explicitly for the same reason as above.
echo "== bulk equivalence: batched touches match the per-word loop =="
cargo test -q --offline -p teraheap-storage --test bulk_equivalence
# The same invariant one layer up: Heap::view_prims (borrowed), view_prims_at
# (through a pin), read_prims (copied) and the read_prim loop observe and
# charge the same, as do write_prims, fill_prims_at (in place) and the
# write_prim loop — on H1, paged and DAX H2, and across the Panthera NVM
# boundary. The same suite holds the pinned twin: the *_at accessors, word
# and bulk, over pins taken before any collection must be indistinguishable
# from the handle accessors across minor and major GCs, H2 promotion of the
# pinned object and a sliced cycle in flight.
cargo test -q --offline -p teraheap-runtime --test bulk_equivalence
echo "ok"

# Framework and kryo charge pins (DESIGN.md §9): Giraph's superstep loop,
# message stores and OOC blob path, Spark's scan loops, block manager and
# dataset loaders are host-optimized, so their simulated numbers —
# per-category ns, GC and S/D counts, offloads/reloads, faults, charge-call
# counts, live roots at exit, stream bytes — are pinned to tables captured
# before that work.
echo "== charge pins: giraph superstep plane, spark scan plane, kryo streams =="
cargo test -q --offline -p mini-giraph --test charge_pin
cargo test -q --offline -p mini-spark --test charge_pin
cargo test -q --offline -p kryo-sim --test stream_pin
echo "ok"

# Page-cache invariant (DESIGN.md §7): the page table + intrusive list is an
# exact LRU — random programs, and word-sized ones that mostly take the
# resident-hit early exit of `touch`, leave it and the recency-vector
# reference with the same statistics, ns, events, write-back log and recency
# order.
echo "== page cache: list cache matches the reference cache =="
cargo test -q --offline -p teraheap-storage --lib mmap::reference
echo "ok"

# Major-collector side table (DESIGN.md §7): the mark bitmap's scan must be
# the live set in relocation order, and its rank-indexed forwarding must
# answer every probe like the direct-mapped reference table.
echo "== mark bitmap: rank forwarding matches the dense reference table =="
cargo test -q --offline -p teraheap-runtime --lib gc::units::reference
echo "ok"

# Fault-plane invariants (DESIGN.md §10): the crash-consistency sweep must
# pass at every write-back boundary with zero silent-corruption escapes, the
# recovery property suite must hold, and a zero-rate plane must be
# bit-identical to no plane at all. Run the three suites explicitly so a
# filtered test run cannot hide a regression.
echo "== faults: crash-consistency sweep, recovery properties, differential =="
cargo test -q --offline -p teraheap-storage --test crash_consistency
cargo test -q --offline -p teraheap-runtime --test fault_recovery
cargo test -q --offline -p teraheap-runtime --test fault_equivalence
echo "ok"

# Shared-device invariants (DESIGN.md §12): N-tenant server runs must be
# deterministic with typed config rejection, and one tenant's injected crash
# must leave its neighbours' simulated time, heap census and arbitration
# counters untouched. (That a sole tenant never queues is part of the
# gc_equivalence stage above.) Run both suites explicitly.
echo "== shared device: server plane, fault isolation =="
cargo test -q --offline -p teraheap-server
cargo test -q --offline -p teraheap-runtime --test fault_isolation
echo "ok"

# Adaptive-placement invariants (DESIGN.md §13): the lifetime profiler must
# replay bit-identically and never retract a pretenure decision, region
# group liveness must be merge-order invariant, and the placement cost
# model must be deterministic and monotone in device latency and S/D cost.
# Run both property suites explicitly.
echo "== adaptive placement: lifetime-profile + cost-model properties =="
cargo test -q --offline -p teraheap-core --test properties
cargo test -q --offline -p mini-spark --test placement_properties
echo "ok"

# Query-plane invariants (DESIGN.md §14): the executor must match its
# naive oracle with the index plan answer-bit-equal to the full scan and
# answers invariant across runtime knobs; the retriever-style endurance
# loop must stay leak-free with the heap checker armed; and with the query
# crate linked but idle the runtime golden must reproduce bit-identically
# (the events, labeled entry points and server variant cost nothing
# unused). The read path's simulated charges are pinned to constants. Run
# the four suites explicitly.
echo "== query plane: oracle properties, endurance churn, linked-idle golden, charge pin =="
cargo test -q --offline -p teraheap-query --test charge_pin
cargo test -q --offline -p teraheap-query --test query_properties
cargo test -q --offline -p teraheap-query --test endurance
cargo test -q --offline -p teraheap-query --test gc_equivalence
echo "ok"

# Faults smoke stage: one seeded chaos run per device profile (NVMe page
# cache, Optane NVM, DRAM-DAX), injected through the production
# TERAHEAP_FAULTS path with the full-heap checker armed at every GC
# boundary. The fixed seed keeps the stage replayable bit-for-bit.
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
        echo "intentional cost-model/bug fix, re-commit the CSVs and say so" >&2
        echo "in the PR (see crates/runtime/tests/gc_equivalence.rs)." >&2
        exit 1
    fi
    echo "ok"
fi

echo "verify: all checks passed"
