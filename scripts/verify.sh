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
# Adaptive placement is an on-heap budget in front of H2, one rule in
# BlockManager::put: the lifetime profiler, H2 pretenuring, the threshold
# controller and the synthetic Mix workload that alone exercised them are
# gone, and so is the per-partition cost model, which decided as the rule
# does on every committed arm.
# The major collector is one stop-world cycle, as the paper's Parallel
# Scavenge is: the pause-budgeted sliced cycle, its pacing and its slice
# events are gone.
# Spark and Giraph runs report through one teraheap_runtime::RunReport,
# built by its two constructors; a HeapConfig is built by struct update.
# Both collectors scan an H2 card through one walk, gc::walk_h2_card, the
# only collector code that reads H2 through the charged device path; a
# `.read_word(`/`.read_words(` anywhere else under gc/ is a second scan.
# H2 owns its region metadata: the object-start index, its sort and a dead
# region's reset live in teraheap-core, so the runtime keeps no copy of them.
# Spark-SD and Giraph-OOC reach their device only through kryo_sim's
# offload/reload pair, the one serialized off-heap path: a framework that
# serializes or charges device I/O itself is a second copy of it.
# Every simulated device operation, H2 page cache and blob tier alike, is a
# DeviceLease submission: device service reaches a clock only through the
# lease in storage/src/shared.rs, so a charge in device.rs or mmap.rs is a
# second device path.
# A read that charges nothing has two uses outside the runtime, both in the
# query table's run search: it peeks a frozen index run to build a key-column
# chunk's selection bitmap, and pays for the chunk's charged view all the
# same; and it peeks the runs' key halves for its key order, which gives
# every run its matching keys. Heap::peek_prims is the one H1/H2 entry, and
# H2::peek_words is reached only through it. The key order's one binary
# search is the only `partition_point(` outside tests in crates/query/src: a
# second is a per-run search back.
# The query index's run filters are bit-sliced, 64 runs a block, and a
# point probe asks one mask per block; a per-run `bloom` field or a
# per-run `may_contain(` outside tests is a second filter layout.
# An H1 word's price has one owner, config::H1Price: outside its constructor
# no runtime code reads the DRAM word cost, Memory mode's flag or miss ratio
# (MEMORY_MODE_MISS_PERCENT) or Panthera's NVM split (definitions, comments
# and tests aside).
# Round memory has one owner, teraheap_storage::spare: a heap's H1 words and
# an H2 store are allocated by spare::zeroed and handed back by
# spare::give_back, so a server run recycles every one of them; a `vec![`
# outside tests in the heap or the H2 store is a second allocation path.
# The panic ratchet counts the unwrap/expect/panic!/unreachable! lines of a
# crate; it may fall, never rise. "Outside tests" is what scripts/loc.sh
# keeps: no cfg(test) item, statement or oracle file, wherever it sits.
echo "== layout guards: one program language, bench-only env knob, one FNV, plane-blind collector, no crash plane, one region-liveness rule, placement is a budget rule, one stop-world major, one run report, one H2 card walk, H2 owns its region metadata, one serialized off-heap path, one device path, uncharged peeks for run search only, one key-order search, bit-sliced run filters, one H1 word price, round memory through the spare pool, panic ratchet =="
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
if grep -rnE 'LifetimeProfiles|should_pretenure|set_alloc_site|set_adaptive|with_adaptive|Workload::Mix|PlacementModel|PlacementInputs|observe_serde|expected_gets|serialized_cost_ns|h2_cost_ns|onheap_cost_ns' \
    crates/*/src; then
    echo "ERROR: the deleted placement plane is back; adaptive placement is an on-heap budget in front of H2." >&2
    exit 1
fi
if grep -rnE 'CacheMode|budgeted *: *HashMap|\.budgeted\b' crates/spark/src; then
    echo "ERROR: a second cache rule; Spark-SD and adaptive share one budgeted put whose slots hold their budget." >&2
    exit 1
fi
if grep -rnE --include='*.rs' 'pause_budget|run_slice|SliceBegin|incr_poll' crates src examples; then
    echo "ERROR: the sliced major cycle is back; the major collector is one stop-world cycle." >&2
    exit 1
fi
if grep -rnE --include='*.rs' 'GiraphReport|run_workload_reported|HeapConfigBuilder' crates src examples; then
    echo "ERROR: a second run report or heap-config path; runs report through teraheap_runtime::RunReport." >&2
    exit 1
fi
stray_reads=$(awk '
    FNR == 1 { walk = 0 }
    FILENAME ~ /\/gc\/mod\.rs$/ && /^fn walk_h2_card\(/ { walk = 1 }
    /\.read_words?\(/ && !walk { print FILENAME ":" FNR ": " $0 }
    /^}/ { walk = 0 }' crates/runtime/src/gc/*.rs)
if [[ -n "$stray_reads" ]]; then
    echo "$stray_reads"
    echo "ERROR: an H2 read outside gc::walk_h2_card; scan H2 cards through the one walk." >&2
    exit 1
fi
if grep -rnE 'h2_starts|clear_region_cards|promoted_regions' crates/runtime/src; then
    echo "ERROR: the runtime indexes or resets H2 regions; that metadata belongs to teraheap-core." >&2
    exit 1
fi
if grep -rnE 'kryo_sim::(de)?serialize\(|Category::Io' crates/spark/src crates/giraph/src; then
    echo "ERROR: a framework serializes to its device itself; go through kryo_sim::offload/reload." >&2
    exit 1
fi
if grep -nE '\.charge(_batched)?\(|add_many\(' crates/storage/src/device.rs crates/storage/src/mmap.rs; then
    echo "ERROR: a device charges a clock itself; serve it through its DeviceLease (shared.rs)." >&2
    exit 1
fi
stray_peeks=$({
    grep -rnE --include='*.rs' '\.peek_prims\(' crates src tests examples \
        | grep -vE '^crates/(runtime/|query/src/table\.rs:)'
    grep -rnE --include='*.rs' '\.peek_words\(' crates src tests examples \
        | grep -v '^crates/runtime/src/heap/access\.rs:'
    awk '/^    pub fn peek_prims\(/ { peek = 1 }
        /\.peek_words\(/ && !peek { print FILENAME ":" FNR ": " $0 }
        /^    }$/ { peek = 0 }' crates/runtime/src/heap/access.rs
} || true)
if [[ -n "$stray_peeks" ]]; then
    echo "$stray_peeks"
    echo "ERROR: an uncharged read outside Heap::peek_prims or the query table's run search; read through a charged view." >&2
    exit 1
fi
searches=$(scripts/loc.sh --lines crates/query/src | grep -F 'partition_point(' || true)
if [[ $(grep -c . <<<"$searches") -ne 1 ]]; then
    echo "$searches"
    echo "ERROR: crates/query/src must search by key once, in the key order (KeyOrder::walk); a run's matches come from its walk." >&2
    exit 1
fi
if scripts/loc.sh --lines crates/query/src | grep -E '(^|[^A-Za-z0-9_])bloom[[:space:]]*:|may_contain\('; then
    echo "ERROR: a per-run Bloom filter in crates/query/src; probe the index's bit-sliced masks (SortedRunIndex::filter_masks)." >&2
    exit 1
fi
stray_price=$(scripts/loc.sh --lines crates/runtime/src | awk '
    { text = $0; sub(/^[^:]*:[^:]*:/, "", text) }
    /^[^:]*\/config\.rs:/ && text ~ /^    pub\(crate\) fn new\(config: &HeapConfig/ { build = 1 }
    text ~ /(^|[^A-Za-z0-9_])(dram_word_ns|memory_mode|MEMORY_MODE_MISS_PERCENT|panthera_nvm)([^A-Za-z0-9_]|$)/ \
        && !build && text !~ /^[[:space:]]*\/\/|pub (memory_mode|panthera_nvm):|memory_mode: false|panthera_nvm: (None|Some)|pub const MEMORY_MODE_MISS_PERCENT/
    build && text ~ /^    }$/ { build = 0 }')
if [[ -n "$stray_price" ]]; then
    echo "$stray_price"
    echo "ERROR: an H1 word price read outside H1Price::new; ask the heap's h1_price." >&2
    exit 1
fi
stray_words=$(scripts/loc.sh --lines crates/runtime/src/heap crates/core/src/h2.rs | grep -F 'vec![' || true)
if [[ -n "$stray_words" ]] \
    || ! grep -q 'mem: spare::zeroed(' crates/runtime/src/heap/mod.rs \
    || ! grep -q 'spare::give_back(&mut self.mem,' crates/runtime/src/heap/mod.rs \
    || ! grep -q 'data: spare::zeroed(' crates/core/src/h2.rs \
    || ! grep -q 'spare::give_back(&mut self.data,' crates/core/src/h2.rs; then
    echo "$stray_words"
    echo "ERROR: H1 words or an H2 store allocated or freed outside teraheap_storage::spare." >&2
    exit 1
fi
panic_sites() {
    scripts/loc.sh --lines "$1" | cut -d: -f3- \
        | awk '/unwrap\(\)|\.expect\(|panic!|unreachable!/ && !/^[[:space:]]*\/\//' | wc -l
}
for bound in crates/runtime/src:5 crates/core/src:0 crates/kryo/src:2 crates/giraph/src:5 \
    crates/spark/src:7 crates/storage/src:1 crates/server/src:2 crates/query/src:3 \
    crates/obs/src:0 crates/workloads/src:1; do
    sites=$(panic_sites "${bound%:*}")
    if (( sites > ${bound#*:} )); then
        echo "ERROR: ${bound%:*} has $sites panic sites outside tests; the ratchet allows ${bound#*:}." >&2
        exit 1
    fi
done
echo "ok"

# The north star counts lines, so the count has one method: scripts/loc.sh,
# which strips every cfg(test) item, statement and oracle file by bracket
# matching. Its fixture pins the stripper on each position a test item takes
# in this tree (no line carrying the fixture's `// gone` marker survives,
# and the counts are the expected ones). Each crate's count is pinned like
# the panic sites: it may fall, never rise; a change that raises one re-pins
# it here and says why in CHANGES.md, and a new crate needs a pin.
echo "== size: loc.sh's fixture, then each crate's non-test lines under its pin =="
if ! diff <(scripts/loc.sh --root scripts/loc_fixture) scripts/loc_fixture/expected.txt \
    || scripts/loc.sh --lines scripts/loc_fixture | grep 'gone'; then
    echo "ERROR: scripts/loc.sh miscounts its fixture (scripts/loc_fixture)." >&2
    exit 1
fi
loc=$(scripts/loc.sh)
echo "$loc"
declare -A pin=([bench]=2467 [core]=1669 [giraph]=1146 [kryo]=496 [obs]=847 [query]=1529
    [runtime]=4426 [server]=472 [spark]=1243 [storage]=2245 [util]=1573 [workloads]=257)
while read -r crate lines; do
    [[ $crate == crate || $crate == total ]] && continue
    if [[ -z ${pin[$crate]:-} ]]; then
        echo "ERROR: crates/$crate has no line-count pin; add one." >&2
        exit 1
    fi
    if (( lines > pin[$crate] )); then
        echo "ERROR: crates/$crate has $lines non-test lines; the ratchet allows ${pin[$crate]}." >&2
        echo "A change that grows a crate re-pins it here and says why in CHANGES.md." >&2
        exit 1
    elif (( lines < pin[$crate] )); then
        echo "  crates/$crate fell below its pin ($lines < ${pin[$crate]}): lower the pin."
    fi
done <<<"$loc"
# The census list only shrinks (scripts/census.sh fails on an entry that
# owns nothing): its entry count is pinned like a crate's lines, so a new
# unexercised knob, function or column, or an unread field, cannot arrive
# with a new owner unnoticed. A change that must add an owner re-pins it here and says why
# in CHANGES.md.
census_entries=$(grep -cvE '^[[:space:]]*(#|$)' scripts/census.txt)
if (( census_entries > 89 )); then
    echo "ERROR: scripts/census.txt has $census_entries entries; the ratchet allows 89." >&2
    exit 1
elif (( census_entries < 89 )); then
    echo "  scripts/census.txt fell below its pin ($census_entries < 89): lower the pin."
fi
echo "ok"

# The tree is written in rustfmt's style (rustfmt.toml), so the line counts
# above measure code, not layout; an unformatted file fails here.
echo "== format: cargo fmt --check =="
cargo fmt --all -- --check
echo "ok"

echo "== offline release build =="
cargo build --release --offline --workspace

echo "== offline tests =="
cargo test -q --offline --workspace

# README points users at the examples, so each must still run, not just
# compile. They are demos: the census does not count them as committed runs.
echo "== examples: each runs to exit 0 =="
cargo build --release --offline -q --examples
for src in examples/*.rs; do
    example=$(basename "$src" .rs)
    if ! "${CARGO_TARGET_DIR:-target}/release/examples/$example" >/dev/null; then
        echo "ERROR: example $example exited nonzero." >&2
        exit 1
    fi
done
echo "ok"

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
teraheap_storage/lib::mmap::tests::fault_path_costs_  §7   the page-fault and write-back services computed once per mapping equal the device's read and write cost of one page, for every device and page size
teraheap_storage/page_cache::                  §7   the dead-region sweep's discard: it forgets readahead heads inside the range, drops the most recent page, writes nothing back, and the re-fault costs what the first fault did; an armed zero-rate plane charges what no plane does
teraheap_workloads/lib::reference::           §7   the power-law generator written straight into CSR gives the two-pass generator's edge list and counting-sort adjacency, at 2-3,000 vertices and 1-40 edges per vertex
teraheap_runtime/lib::gc::units::reference::  §7   the mark bitmap scan is the live set in relocation order; its rank-indexed forwarding answers every probe like the direct-mapped reference table
teraheap_runtime/lib::gc::major::dense_oracle:: §7  a stop-world cycle planning and sliding its dense prefix by span gives the per-object cycle's clock totals, events, forwarding addresses, start lists and heap words: PS, G1, Panthera and Memory mode at 1 and 4 lanes, a low-yield heap whose prefix holds most live objects, and the armed checker's coverage audit
teraheap_runtime/trace_equivalence::          §8   tracing observes the clock and never advances it, on the mixed workload the gc_equivalence golden pins
teraheap_obs/lib::tests::ring_counts_         §8   the recorder's one lock: after every emit, resize, level flip or clear, emitted = ring length + dropped = sum of per-class counts, and ring seqs are contiguous
teraheap_runtime/mutator_programs::spans_arm  §8   over random mutator programs, spans nest per slot and major-GC phases occur only inside a major GC
teraheap_storage/bulk_equivalence::           §9   touch_run is bit-identical to the word-at-a-time loop: same ns, counters, events
teraheap_runtime/bulk_equivalence::           §9   programs of the shared mutator language observe and charge the same through the word loop, read_prims/write_prims, view_prims and the pinned *_at accessors, and the uncharged peek_prims sees their words and leaves no trace: scripted ranges on H1, paged and DAX H2 and across the Panthera NVM boundary, and random programs whose pins ride minor and major GCs and H2 promotion
teraheap_runtime/lib::heap::batch::tests::    §9   a word batch's reads, writes, length load and fill cost what the per-word accessors do, charge for charge, across Panthera's NVM boundary and under Memory mode
mini_giraph/charge_pin::                      §9   the superstep loop, message stores and OOC blob path: per-category ns, GC counts, offloads/reloads, charge-call counts, checksum (golden)
mini_giraph/lib::tests::delivery_oracle::     §9   edge delivery in word-batched runs against the per-edge loop, PR/CDLP/WCC on hinted and hint-less TeraHeap, OOC, two-tenant DAX, Memory mode and Panthera: breakdown, I/O counters, charge counts, event classes, the event ring, tenant arbitration and checksum all equal
kryo_sim/lib::tests::a_recycled_blob_buffer_  §9   a consumed blob's buffer serializes the next stream with no stale bytes: the same bytes and length as a fresh stream, in the reused buffer
mini_spark/charge_pin::                       §9   the scan loops, block manager and dataset loaders: per-category ns, GC and S/D counts, faults, charge-call counts, live roots at exit (golden)
kryo_sim/stream_pin::                         §9   stream bytes, size estimate and every charge of serialize, serialized_size and deserialize (golden)
teraheap_storage/lib::fault::tests::parse_     §10  TERAHEAP_FAULTS parsing: the documented keys round-trip; fuzzed strings never panic; an unknown key or a value too large for its u32 field is ignored, never turning a plan off
teraheap_runtime/fault_recovery::             §10  the chaos_smoke_* tests the faults smoke stage drives: seeded transient errors and latency spikes on NVMe, NVM and DAX keep every payload, checked at every GC boundary; the plan must fire on NVMe and not on DAX
teraheap_runtime/mutator_programs::faults_arm §10  a random fault plan never corrupts a payload, and H2 degrades only under ENOSPC or write errors
teraheap_runtime/fault_equivalence::          §10  a zero-rate fault plane is bit-identical to no plane at all
teraheap_runtime/gc_equivalence::             §11  simulated ns, phase breakdowns and graph checksum over variant x gc_threads x armed fault plane, plus the paper's 8 KB card (two pages a card), a DAX device and NVM Memory mode (golden), and (§12) that a sole tenant never queues
teraheap_runtime/gc_behaviour::collections_never_read_h2_behind_clean_cards  §11  a closure with no H1 reference leaves its cards clean, and minor and major GCs then read none of H2 (DAX read ops and faults unchanged); one H1 store dirties a card the next minor GC reads
teraheap_runtime/mutator_programs::graph_arm  §6   random mutator programs leave the heap equal to a shadow logical graph (the oracle every arm runs)
teraheap_runtime/mutator_programs::product_arm §6  the oracle and the armed checker hold over variant x lanes x device x fault plan x access mode
teraheap_runtime/mutator_programs::lanes_arm  §11  lane accounting is deterministic across runs, thread counts and host parallelism
teraheap_storage/lib::shared::reference::     §12  the earliest-fit device calendar gives the waits, device virtual time and per-tenant counters of a brute-force scan over every booking, keeps its bookings sorted, disjoint and merged, and gives a sole tenant the FIFO's waits, over 1-8 tenants with production-style (pruning) and arbitrary arrivals
teraheap_storage/lib::device::tests::store_and_load_are_served_  §12  one device path: a blob store and load book two ops on their private device's arbiter for exactly their service, and a refused blob books nothing and leaves the clock where it was
teraheap_server/lib::                         §12  N-tenant server runs are deterministic, with typed config rejection
teraheap_server/lib::tests::recycled_round_memory_  §12  rounds built in recycled H1 words and H2 stores report what rounds in fresh memory do, bit for bit (per-round ns, checksums, TenantIo), and the pool is empty after the run
teraheap_storage/lib::spare::                 §12  the spare pool reuses only exact-length all-zero buffers, parks nothing outside a run and is emptied when the run ends
teraheap_runtime/fault_isolation::            §12  a neighbour degrading under injected ENOSPC leaves a tenant's simulated time, heap census and arbitration counters untouched; the degraded tenant still passes the checker
teraheap_core/properties::                    §3   dependency-list liveness never frees a reachable region, the card table never loses a dirty mark and its index matches a full sweep, and allocations never overlap
teraheap_bench/lib::figures::ablations::tests::groups_over_approximate_directional  §3  the ablation's private union-find keeps every region the dependency lists keep
teraheap_bench/figures::table_matches_committed_results  §4   every entry has one committed CSV with its header and one EXPERIMENTS.md heading, whose `Figure N`/`Table N` matches the title's
teraheap_bench/figures::every_arm_earns_its_row  §4   no two arms of a figure render one committed CSV row unless both are OOM or an exact alias names the family
mini_spark/lib::block::tests::adaptive_       §13  the adaptive rule: a put that fits the on-heap budget stays on H1, one past it goes to H2 if attached and to the serialized tier if not, and each put emits one PlacementDecision with its tier
mini_spark/lib::block::tests::budgeted_       §13  Spark-SD and adaptive return a block's budget words on unpersist and on a put over its id; only adaptive emits PlacementDecision
mini_giraph/lib::workloads::tests::an_oom_report_  §13  one run report for Spark and Giraph: a Giraph run that outgrows its heap reports oom, its OomError's text and a NaN checksum
teraheap_query/charge_pin::                   §14  the read path's simulated charges, cold and hot (golden)
teraheap_query/query_properties::             §14  the executor matches its naive oracle, the index plan is answer-bit-equal to the full scan (point lookups of held and absent keys included), answers are invariant across runtime knobs and across a permuted chunk/run visiting order
teraheap_query/scan_order::                   §14  a cold table loaded through minor GCs lies in H2 out of directory order; a full-scan aggregate visiting it in storage order takes >= 90% of its faults sequentially (directory order: under 90%) and answers the same
teraheap_query/lib::index::tests::bloom_filter_has_no_false_negatives  §14  every key a run holds passes its Bloom filter: one run length per case, 1-256 keys, duplicates, 0 and u64::MAX
teraheap_query/lib::index::tests::sliced_masks_equal_per_run_filters   §14  the bit-sliced filter masks equal a per-run filter oracle for held and absent keys, false positives included, at 1, 63, 64, 65 and 130 runs of 1-256 keys
teraheap_query/lib::index::tests::point_lookup_views_few_of_128_runs   §14  a point lookup of a present key views at most 3 of 128 runs on average (IndexProbe), where zone maps alone would view nearly all
teraheap_query/lib::exec::tests::run_bitmaps_equal_value_scan_bitmaps  §14  a key-column chunk's selection bitmap built from its sorted run, from the key order's spans, equals the value scan's, hot and cold, chunks of 10-256 rows with duplicate keys, for inverted, out-of-range, boundary, one-key and full-range predicates
teraheap_query/lib::table::tests::key_order_spans_equal_per_run_search  §14  the key order gives every run the span of a per-run binary search oracle, at 1, 63, 64, 65 and 130 runs of 1-256 keys, duplicates within and across runs, 0 and u64::MAX, empty predicates, appends between probes
teraheap_query/lib::table::tests::a_refilled_table_answers_from_its_new_keys  §14  after drop_storage and a refill to the same chunk count with other keys, the index plan answers what a value scan does
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
if (( design_bytes >= 44349 )); then
    echo "ERROR: DESIGN.md is $design_bytes bytes; it must stay under 44349." >&2
    exit 1
fi
doc_bytes=$(cat DESIGN.md EXPERIMENTS.md | wc -c)
if (( doc_bytes > 67026 )); then
    echo "ERROR: DESIGN.md + EXPERIMENTS.md are $doc_bytes bytes; the gate is 67026." >&2
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
# The A/B tool only needs to parse and answer --help (a run takes minutes);
# so does the line counter, which the size stage above has just run.
echo "== host tools: scripts/prof/sigprof.rs compiles, profile.sh, ab.sh, loc.sh and census.sh parse =="
prof=$(mktemp -d)
rustc --edition 2021 -O -D warnings --crate-type cdylib -o "$prof/libsigprof.so" scripts/prof/sigprof.rs
rm -rf "$prof"
bash -n scripts/profile.sh
bash -n scripts/ab.sh
scripts/ab.sh --help >/dev/null
bash -n scripts/loc.sh
scripts/loc.sh --help >/dev/null
bash -n scripts/census.sh
scripts/census.sh --help >/dev/null
echo "ok"

echo "== lints: clippy -D warnings =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings
echo "ok"

# A deleted or renamed public item must take the intra-doc links that name
# it along, and public docs link only to public items (a private one is a
# dead link in the rendered docs; name it in a code span instead).
echo "== docs: no dangling or private intra-doc links =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --offline --workspace -q
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
# stage replayable bit-for-bit. The NVMe run fails unless the plan fired
# (I/O retries on the H2 mapping); the DAX runs fail if it did.
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
# wall-clock times). The checked stage runs every figure again with the
# full-heap checker armed at every GC boundary (and the collectors'
# work-unit coverage audit with it): a violated invariant panics the run,
# and the checker charges nothing, so the results must still match. Skip
# both with VERIFY_SKIP_RESULTS=1 for a quick check.
if [[ "${VERIFY_SKIP_RESULTS:-0}" != "1" ]]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    cp -r results "$tmp/committed"
    regenerate_and_diff() {
        cargo run -q --release --offline -p teraheap-bench --bin figures -- all >/dev/null
        if ! diff -rq -x microbench.csv "$tmp/committed" results; then
            echo "ERROR: regenerated results differ from committed CSVs." >&2
            echo "Simulated time must be deterministic; if the change is an" >&2
            echo "intentional cost-model/bug fix, re-pin with scripts/repin.sh and" >&2
            echo "say so in the PR." >&2
            exit 1
        fi
    }
    echo "== results determinism: regenerate and diff results/*.csv =="
    regenerate_and_diff
    echo "ok"
    echo "== checked results: every figure under TERAHEAP_HEAP_CHECK=1, same results =="
    TERAHEAP_HEAP_CHECK=1 regenerate_and_diff
    echo "ok"

    # The census: a hooked export of the tree runs `figures all`, the smoke
    # and every test binary, and every config field that holds one value,
    # function no committed run reaches, all-zero column and `pub` field no
    # kept line reads must have an owner in scripts/census.txt (and every entry a finding; a `test` entry
    # owns only what its test reaches), so what nothing exercises is deleted
    # or named. The tree is never edited; the export lives in target/census.
    echo "== census: every unexercised knob, function, column and field has an owner =="
    scripts/census.sh
    echo "ok"
fi

echo "verify: all checks passed"
