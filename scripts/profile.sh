#!/usr/bin/env bash
# Sampling CPU profile of one benchmark workload.
#
#   scripts/profile.sh <workload> [seed]     seed defaults to 42
#
# Builds scripts/prof/sigprof.rs with bare rustc into a temporary directory,
# builds teraheap-benchmark with frame pointers into target/profile, runs
# `<workload> --seed <seed> --seconds 10 --trace 0` with the profiler
# LD_PRELOADed, and symbolises the samples with `nm -C`. It prints the top
# self frames (where the CPU was), the top inclusive frames (what was on the
# stack), the share of samples with a collector frame (teraheap_runtime::gc)
# on the stack, the system-time share of the process's CPU time, and a
# per-crate roll-up, each crate being one layer of the stack. Addresses
# outside the executable are reported by the mapping they fall in, e.g.
# [libc.so.6], and their self samples also by the nearest caller inside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload=${1:?usage: scripts/profile.sh <workload> [seed]}
seed=${2:-42}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

rustc --edition 2021 -O --crate-type cdylib -o "$tmp/libsigprof.so" scripts/prof/sigprof.rs
target=target/profile
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=1 \
    cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin=$(cd "$target/release" && pwd -P)/teraheap-benchmark

# The same allocator setting benchmark/run.sh pins.
MALLOC_MMAP_THRESHOLD_=131072 LD_PRELOAD="$tmp/libsigprof.so" SIGPROF_OUT="$tmp/samples" \
    "$bin" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 >"$tmp/result"
nm -C --defined-only -n "$bin" >"$tmp/symbols"

awk -v exe="$bin" -v top=25 -v title="$workload seed $seed" '
function hex(s,    i, n) {
    n = 0
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}
# The text symbol at or below `a` (a link-time address), by binary search.
function symbol(a,    lo, hi, mid) {
    if (nsym == 0 || a < saddr[1]) return "[unknown]"
    lo = 1; hi = nsym
    while (lo < hi) {
        mid = int((lo + hi + 1) / 2)
        if (saddr[mid] <= a) lo = mid; else hi = mid - 1
    }
    return sname[lo]
}
function resolve(word, leaf,    a, m, path) {
    if ((word SUBSEP leaf) in memo) return memo[word, leaf]
    a = hex(word) - (leaf ? 0 : 1)    # a return address points past its call
    for (m = 1; m <= nmap; m++) if (a >= mlo[m] && a < mhi[m]) break
    if (m > nmap) path = "[unknown]"
    else if (mpath[m] == exe) path = symbol(a - bias)
    else { path = mpath[m]; sub(/.*\//, "", path); path = "[" (path == "" ? "anon" : path) "]" }
    return memo[word, leaf] = path
}
function crate(name,    s) {
    if (name ~ /^\[/) return name
    s = name
    # `<u64 as teraheap_util::..>::f` is counted under the crate of the trait.
    while (sub(/^(<|&|\*const |\*mut |dyn |impl |[^:<> ]+ as )/, "", s)) {}
    return index(s, "::") ? substr(s, 1, index(s, "::") - 1) : "(no crate)"
}
function pct(n) { return sprintf("%5.1f%%", 100 * n / (samples ? samples : 1)) }
# Prints the `k` largest entries of `count` (selection, no external sort).
function ranked(count, k,    done, r, key, best) {
    split("", done)
    for (r = 1; r <= k; r++) {
        best = ""
        for (key in count) if (!(key in done) && (best == "" || count[key] > count[best])) best = key
        if (best == "") break
        done[best] = 1
        printf "  %s  %s\n", pct(count[best]), substr(best, 1, 150)
    }
}
FNR == NR {
    if (NF >= 3 && $2 ~ /^[tTwW]$/) {
        nsym++; saddr[nsym] = hex($1); sname[nsym] = substr($0, length($1) + length($2) + 3)
    }
    next
}
/^H / { for (i = 2; i <= NF; i++) { split($i, kv, "="); header[kv[1]] = kv[2] }; next }
/^M / {
    split($2, span, "-"); nmap++
    mlo[nmap] = hex(span[1]); mhi[nmap] = hex(span[2]); mpath[nmap] = NF >= 7 ? $7 : ""
    if (mpath[nmap] == exe && hex($4) == 0 && !based) { bias = mlo[nmap]; based = 1 }
    next
}
/^S / {
    samples++
    split("", seen); split("", crates_seen)
    gc = 0; outer = ""
    for (i = 2; i <= NF; i++) {
        name = resolve($i, i == 2)
        if (i == 2) { self[name]++; crate_self[crate(name)]++ }
        # A leaf outside the executable is charged to its nearest caller in it.
        if (i == 2 && name ~ /^\[/) outer = name
        if (outer != "" && name !~ /^\[/) { outside[outer " <- " name]++; outer = "" }
        if (!(name in seen)) { seen[name] = 1; inclusive[name]++ }
        c = crate(name)
        if (!(c in crates_seen)) { crates_seen[c] = 1; crate_incl[c]++ }
        if (name ~ /teraheap_runtime::gc::/) gc = 1
    }
    collector += gc
}
END {
    cpu = header["utime"] + header["stime"]
    printf "profile: %s: %d samples (%d dropped)\n", title, samples, header["dropped"]
    printf "collector share: %s of samples have a teraheap_runtime::gc frame on the stack\n", pct(collector)
    printf "sys share: %5.1f%% of the process CPU time (utime %d, stime %d ticks)\n",
        cpu ? 100 * header["stime"] / cpu : 0, header["utime"], header["stime"]
    print "== top self frames =="; ranked(self, top)
    print "== top inclusive frames =="; ranked(inclusive, top)
    print "== self outside the executable, by nearest caller =="; ranked(outside, top)
    print "== per crate, self =="; ranked(crate_self, top)
    print "== per crate, inclusive =="; ranked(crate_incl, top)
}' "$tmp/symbols" "$tmp/samples"
