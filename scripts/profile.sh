#!/usr/bin/env bash
# Sampling CPU profile of one benchmark workload.
#
#   scripts/profile.sh <workload> [seed] [--lines <path-substring>]
#
# The seed defaults to 42.
#
# Builds scripts/prof/sigprof.rs with bare rustc into a temporary directory,
# builds teraheap-benchmark with frame pointers into target/profile, runs
# `<workload> --seed <seed> --seconds 10 --trace 0` with the profiler
# LD_PRELOADed, and symbolises the samples with `nm -C`. It prints the top
# self frames (where the CPU was), the top inclusive frames (what was on the
# stack), the share of samples with a collector frame (teraheap_runtime::gc)
# on the stack, the system-time share of the process's CPU time with the
# process's minor and major page faults (in total and per rep), and a
# per-crate roll-up, each crate being one layer of the stack. Addresses
# outside the executable are reported by the mapping they fall in, e.g.
# [libc.so.6], and their self samples also by the nearest caller inside it.
#
# It also writes target/profile/<workload>.folded: one line per sample, the
# stack's frames outermost first joined by `;` (a `;` inside a frame name
# becomes `,`), then a count of 1 — the folded form flame-graph tools read.
# Grep it to split a share by caller, e.g. the collector's samples under
# Spark-SD's BlockManager frames by innermost collector function:
#
#   grep BlockManager target/profile/spark_batch.folded | grep 'gc::' |
#       sed -E 's/.*(gc::[a-z]+::[a-z_]+).*/\1/' | sort | uniq -c | sort -rn
#
# With --lines, it also prints the top source lines of the self samples: each
# sample's innermost instruction pointer goes through `addr2line -i -f -C -a`
# over the build's line tables, and the sample counts for the innermost
# inlined frame whose file path contains <path-substring> (`query/src`,
# `exec.rs`, ...), as `file:line  function`. Samples with no such frame are
# only counted. This names the line a host-time change moved.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage="usage: scripts/profile.sh <workload> [seed] [--lines <path-substring>]"
workload="" seed="" lines=""
while (($#)); do
    case $1 in
        --lines) lines=${2:?--lines needs a path substring}; shift 2 ;;
        -*) echo "$usage" >&2; exit 2 ;;
        *)
            if [[ -z $workload ]]; then workload=$1
            elif [[ -z $seed ]]; then seed=$1
            else echo "$usage" >&2; exit 2; fi
            shift ;;
    esac
done
[[ -n $workload ]] || { echo "$usage" >&2; exit 2; }
seed=${seed:-42}

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
# Reps run: the timed ones, from the printed result, and the warm-up.
reps=$(awk '$1 == "metric" && $2 == "bench.reps" { print $3 + 1 }' "$tmp/result")

folded="$target/$workload.folded"
: >"$folded"
awk -v exe="$bin" -v top=25 -v title="$workload seed $seed" -v reps="${reps:-0}" -v folded="$folded" \
    -v leaves="$tmp/leaves" '
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
# Lowercase hex of a non-negative integer (the %x of mawk stops at 2^32).
function tohex(n,    s) {
    s = ""
    do { s = substr("0123456789abcdef", n % 16 + 1, 1) s; n = int(n / 16) } while (n > 0)
    return s
}
# Records the link-time address of a self sample, `-` outside the executable.
function note_leaf(word,    a, m) {
    a = hex(word)
    for (m = 1; m <= nmap; m++) if (a >= mlo[m] && a < mhi[m]) break
    print (m <= nmap && mpath[m] == exe ? "0x" tohex(a - bias) : "-") > leaves
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
    gc = 0; outer = ""; stack = ""
    for (i = 2; i <= NF; i++) {
        name = resolve($i, i == 2)
        frame = name; gsub(/;/, ",", frame)
        stack = i == 2 ? frame : frame ";" stack
        if (i == 2) { self[name]++; crate_self[crate(name)]++; note_leaf($i) }
        # A leaf outside the executable is charged to its nearest caller in it.
        if (i == 2 && name ~ /^\[/) outer = name
        if (outer != "" && name !~ /^\[/) { outside[outer " <- " name]++; outer = "" }
        if (!(name in seen)) { seen[name] = 1; inclusive[name]++ }
        c = crate(name)
        if (!(c in crates_seen)) { crates_seen[c] = 1; crate_incl[c]++ }
        if (name ~ /teraheap_runtime::gc::/) gc = 1
    }
    collector += gc
    print stack " 1" > folded
}
END {
    cpu = header["utime"] + header["stime"]
    printf "profile: %s: %d samples (%d dropped)\n", title, samples, header["dropped"]
    printf "collector share: %s of samples have a teraheap_runtime::gc frame on the stack\n", pct(collector)
    printf "sys share: %5.1f%% of the process CPU time (utime %d, stime %d ticks)",
        cpu ? 100 * header["stime"] / cpu : 0, header["utime"], header["stime"]
    printf "; faults: %d minor, %d major (%d minor, %d major per rep over %d reps, warm-up included)\n",
        header["minflt"], header["majflt"],
        reps ? header["minflt"] / reps : 0, reps ? header["majflt"] / reps : 0, reps
    print "== top self frames =="; ranked(self, top)
    print "== top inclusive frames =="; ranked(inclusive, top)
    print "== self outside the executable, by nearest caller =="; ranked(outside, top)
    print "== per crate, self =="; ranked(crate_self, top)
    print "== per crate, inclusive =="; ranked(crate_incl, top)
    printf "folded stacks: %s\n", folded
}' "$tmp/symbols" "$tmp/samples"

[[ -n $lines ]] || exit 0
touch "$tmp/leaves"
sort "$tmp/leaves" | uniq -c >"$tmp/counts"
awk '$2 != "-" { print $2 }' "$tmp/counts" | addr2line -i -f -C -a -e "$bin" >"$tmp/located"
# `addr2line -a` prints the address, then a function line and a file:line line
# per inlined frame, innermost first.
awk -v want="$lines" -v root="$(pwd -P)/" -v top=25 '
function norm(a) { sub(/^0x0*/, "", a); return a }
FNR == NR { count[norm($2)] = $1; samples += $1; next }
/^0x[0-9a-f]+$/ { addr = norm($0); frame = 0; taken = 0; next }
{
    frame++
    if (frame % 2 == 1) { fn = $0; next }
    loc = $1
    if (taken || index(loc, want) == 0) next
    taken = 1
    if (index(loc, root) == 1) loc = substr(loc, length(root) + 1)
    key = loc "  " substr(fn, 1, 90)
    hits[key] += count[addr]; matched += count[addr]
}
END {
    printf "== top source lines of self samples in files matching \"%s\" (%.1f%% of %d samples) ==\n",
        want, 100 * matched / (samples ? samples : 1), samples
    for (r = 1; r <= top; r++) {
        best = ""
        for (key in hits) if (!(key in done) && (best == "" || hits[key] > hits[best])) best = key
        if (best == "") break
        done[best] = 1
        printf "  %5.1f%%  %s\n", 100 * hits[best] / (samples ? samples : 1), best
    }
}' "$tmp/counts" "$tmp/located"
