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

# The runtime's property suites share one mutator-program language
# (crates/runtime/tests/common/program.rs); a second op enum there (`enum
# Op`, `enum WordOp`, any `enum <Name>Op`) would fork it.
# TERAHEAP_BENCH_THREADS is the figure harness's host-thread knob: if no
# code outside crates/bench/ names it, the simulation cannot read it.
# Every checksum, fingerprint and pinned digest folds through the one
# `teraheap_util::Fnv`; the FNV offset basis anywhere else is a second copy.
# The collector has one H2 assignment rule: an injected ENOSPC reaches it as
# an ordinary full H2, so nothing under crates/runtime/src names the fault
# plane. H2 lives and dies with the process, as in the paper: there is no
# durable image, crash point or recovery, so no code under crates/ names
# them (`crash_at_writeback` may appear quoted or in backticks, where the
# fault-string parser's tests pin it as an ignored key).
# A region dies when nothing live reaches it (§3.3's dependency lists), and
# that is the only liveness rule: the union-find groups the paper rejects
# live privately in crates/bench/src/figures/ablations.rs, which measures them.
# Adaptive placement is its per-partition cost model: the lifetime profiler,
# H2 pretenuring, the threshold controller and the synthetic Mix workload
# that alone exercised them are gone.
echo "== layout guards: one program language, bench-only env knob, one FNV, plane-blind collector, no crash plane, one region-liveness rule, placement is its cost model =="
if grep -rlE '^[[:space:]]*(pub[[:space:]]+)?enum[[:space:]]+[A-Za-z0-9_]*Op\b' crates/runtime/tests \
    | grep -v '^crates/runtime/tests/common/'; then
    echo "ERROR: an op enum outside crates/runtime/tests/common/; extend the shared language instead." >&2
    exit 1
fi
if grep -rl --include='*.rs' TERAHEAP_BENCH_THREADS crates src tests examples | grep -v '^crates/bench/'; then
    echo "ERROR: TERAHEAP_BENCH_THREADS is read outside crates/bench/." >&2
    exit 1
fi
fnv_basis=$(sed 's/./&_?/g; s/_?$//' <<<cbf29ce484222325) # any `_` grouping
if grep -rliE --include='*.rs' --exclude-dir=target "$fnv_basis" \
    crates src tests examples benchmark scripts | grep -v '^crates/util/src/'; then
    echo "ERROR: FNV offset basis outside crates/util/src/; use teraheap_util::Fnv." >&2
    exit 1
fi
if grep -rnE 'fault_plane|FaultPlane|FaultPlan' crates/runtime/src; then
    echo "ERROR: crates/runtime/src names the fault plane; H2 reports its faults as H2Error." >&2
    exit 1
fi
if grep -rnE --include='*.rs' 'DurableStore|recover_from_crash|CrashPoint|(^|[^"`])crash_at_writeback' crates; then
    echo "ERROR: crates/ names the deleted crash-recovery plane; H2 has no durable image." >&2
    exit 1
fi
if grep -rniE 'RegionGroups|site_groups|union' crates/core/src crates/runtime/src; then
    echo "ERROR: a second region-liveness rule; regions die by dependency lists alone." >&2
    exit 1
fi
if grep -rnE 'LifetimeProfiles|should_pretenure|set_alloc_site|set_adaptive|with_adaptive|Workload::Mix' \
    crates/*/src; then
    echo "ERROR: the deleted placement plane is back; adaptive placement is the cost model alone." >&2
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
teraheap_util/lib::rng::tests::sampling_      §6   every sampling helper's stream (f64 and integer ranges, gen_bool, bounded_u64 up to 2^63 + 1, shuffle): 100,000 draws each, digest-exact
teraheap_storage/lib::mmap::reference::       §7   the page table + intrusive list is an exact LRU: random programs, and word-sized ones that mostly take the resident-hit early exit of `touch`, leave it and the recency-vector reference with the same statistics, ns and events, and the same recency order after every op
teraheap_storage/page_cache::                  §7   the dead-region sweep's discard: it forgets readahead heads inside the range, drops the most recent page, writes nothing back, and the re-fault costs what the first fault did; an armed zero-rate plane charges what no plane does
teraheap_workloads/lib::reference::           §7   the power-law generator written straight into CSR gives the two-pass generator's edge list and counting-sort adjacency, at 2-3,000 vertices and 1-40 edges per vertex
teraheap_runtime/lib::gc::units::reference::  §7   the mark bitmap scan is the live set in relocation order; its rank-indexed forwarding answers every probe like the direct-mapped reference table
teraheap_runtime/trace_equivalence::          §8   tracing observes the clock and never advances it, on the mixed workload the gc_equivalence golden pins
teraheap_obs/lib::tests::ring_counts_         §8   the recorder's one lock: after every emit, resize, level flip or clear, emitted = ring length + dropped = sum of per-class counts, and ring seqs are contiguous
teraheap_runtime/mutator_programs::spans_arm  §8   over random mutator programs, spans nest per slot and major-GC phases occur only inside a major GC
teraheap_storage/bulk_equivalence::           §9   touch_run is bit-identical to the word-at-a-time loop: same ns, counters, events
teraheap_runtime/bulk_equivalence::           §9   programs of the shared mutator language observe and charge the same through the word loop, read_prims/write_prims, view_prims and the pinned *_at accessors: scripted ranges on H1, paged and DAX H2 and across the Panthera NVM boundary, and random programs whose pins ride minor and major GCs, H2 promotion and a sliced cycle in flight
mini_giraph/charge_pin::                      §9   the superstep loop, message stores and OOC blob path: per-category ns, GC counts, offloads/reloads, charge-call counts, checksum (golden)
mini_spark/charge_pin::                       §9   the scan loops, block manager and dataset loaders: per-category ns, GC and S/D counts, faults, charge-call counts, live roots at exit (golden)
kryo_sim/stream_pin::                         §9   stream bytes, size estimate and every charge of serialize, serialized_size and deserialize (golden)
teraheap_storage/lib::fault::tests::parse_     §10  TERAHEAP_FAULTS parsing: the documented keys round-trip; fuzzed strings never panic; an unknown key or a value too large for its u32 field is ignored, never turning a plan off
teraheap_runtime/fault_recovery::             §10  the chaos_smoke_* tests the faults smoke stage drives: seeded transient errors and latency spikes on NVMe, NVM and DAX keep every payload, checked at every GC boundary
teraheap_runtime/mutator_programs::faults_arm §10  a random fault plan never corrupts a payload, and H2 degrades only under ENOSPC or write errors
teraheap_runtime/fault_equivalence::          §10  a zero-rate fault plane is bit-identical to no plane at all
teraheap_runtime/gc_equivalence::             §11  simulated ns, phase breakdowns and graph checksum over variant x gc_threads x pause budget x armed fault plane (golden), the SATB barrier idle on stop-world arms, and (§12) that a sole tenant never queues
teraheap_runtime/mutator_programs::graph_arm  §6   random mutator programs leave the heap equal to a shadow logical graph (the oracle every arm runs)
teraheap_runtime/mutator_programs::product_arm §6  the oracle and the armed checker hold over variant x lanes x pause budget x device x fault plan x access mode
teraheap_runtime/mutator_programs::lanes_arm  §11  lane accounting is deterministic across runs, thread counts and host parallelism
teraheap_runtime/incremental_marking::        §11  the incremental arm: a pause-budgeted run converges to the stop-world logical heap, H2 residency included, at any budget, lane count and access mode; runs replay bit-identically
teraheap_storage/lib::shared::reference::     §12  the FIFO device clock gives the waits, device virtual time and per-tenant counters of the equal-weight start-time fair queue it replaced, over 1-8 tenants with production-style and arbitrary arrivals
teraheap_server/lib::                         §12  N-tenant server runs are deterministic, with typed config rejection
teraheap_runtime/fault_isolation::            §12  a neighbour degrading under injected ENOSPC leaves a tenant's simulated time, heap census and arbitration counters untouched; the degraded tenant still passes the checker
teraheap_core/properties::                    §3   dependency-list liveness never frees a reachable region, the card table never loses a dirty mark and its index matches a full sweep, and allocations never overlap
teraheap_bench/lib::figures::ablations::tests::groups_over_approximate_directional  §3  the ablation's private union-find keeps every region the dependency lists keep
teraheap_bench/figures::table_matches_committed_results  §4   every entry has one committed CSV with its header and one EXPERIMENTS.md heading, whose `Figure N`/`Table N` matches the title's
teraheap_bench/figures::every_arm_earns_its_row  §4   no two arms of a figure render one committed CSV row unless both are OOM or an exact alias names the family
mini_spark/placement_properties::             §13  the placement cost model is deterministic and monotone in device latency and S/D cost
teraheap_query/charge_pin::                   §14  the read path's simulated charges, cold and hot (golden)
teraheap_query/query_properties::             §14  the executor matches its naive oracle, the index plan is answer-bit-equal to the full scan (point lookups of held and absent keys included), answers are invariant across runtime knobs and across a permuted chunk/run visiting order
teraheap_query/scan_order::                   §14  a cold table loaded through minor GCs lies in H2 out of directory order; a full-scan aggregate visiting it in storage order takes >= 90% of its faults sequentially (directory order: under 90%) and answers the same
teraheap_query/lib::index::tests::bloom_filter_has_no_false_negatives  §14  every key a run holds passes its Bloom filter: 1-256 keys per run, duplicates, 0 and u64::MAX
teraheap_query/lib::index::tests::point_lookup_views_few_of_128_runs   §14  a point lookup of a present key views at most 3 of 128 runs on average (IndexProbe), where zone maps alone would view nearly all
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

# The two documents share one size budget and DESIGN.md has its own (each
# fact has one owner, so a restated one costs room), the heap stays split
# by mechanism, and every `DESIGN.md §N` pointer (the suite table's §
# column included) names a `## N.` heading that exists.
echo "== docs and layout: size gates, heap files, DESIGN.md pointers =="
design_bytes=$(wc -c <DESIGN.md)
if (( design_bytes >= 48810 )); then
    echo "ERROR: DESIGN.md is $design_bytes bytes; it must stay under 48810." >&2
    exit 1
fi
doc_bytes=$(cat DESIGN.md EXPERIMENTS.md | wc -c)
if (( doc_bytes > 88523 )); then
    echo "ERROR: DESIGN.md + EXPERIMENTS.md are $doc_bytes bytes; the gate is 88523." >&2
    exit 1
fi
for file in crates/runtime/src/heap/*.rs; do
    if (( $(wc -l <"$file") > 500 )); then
        echo "ERROR: $file is over 500 lines; split it by mechanism." >&2
        exit 1
    fi
done
pointers=$({
    grep -rhoE 'DESIGN\.md`? §[0-9]+((,| and) §[0-9]+)*' crates scripts src tests examples \
        README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md
    awk '{print $2}' <<<"$suites"
} | grep -oE '§[0-9]+' | grep -oE '[0-9]+' | sort -un)
for n in $pointers; do
    if ! grep -qE "^## $n\. " DESIGN.md; then
        echo "ERROR: DESIGN.md has no '## $n.' heading, but §$n is cited:" >&2
        grep -rnE "DESIGN\.md\`? (§[0-9]+(,| and) )*§$n\b|^[^ ]+ +§$n " crates scripts src tests \
            examples README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md >&2 || true
        exit 1
    fi
done
echo "ok (DESIGN.md $design_bytes, both $doc_bytes bytes; sections cited: $(echo $pointers))"

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

# The profiler lives outside the workspace (it needs `unsafe` and
# `extern "C"`), so nothing above builds it; compile it here so it cannot rot.
# The A/B tool only needs to parse and answer --help (a run takes minutes).
echo "== host tools: scripts/prof/sigprof.rs compiles, profile.sh and ab.sh parse =="
prof=$(mktemp -d)
rustc --edition 2021 -O -D warnings --crate-type cdylib -o "$prof/libsigprof.so" scripts/prof/sigprof.rs
rm -rf "$prof"
bash -n scripts/profile.sh
bash -n scripts/ab.sh
scripts/ab.sh --help >/dev/null
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
