#!/usr/bin/env bash
# Host-time A/B of the working tree against a base commit on one workload.
#
#   scripts/ab.sh <base-ref> --workload W [--pairs N] [--seeds a,b,..]
#
# Checks <base-ref> out into a detached git worktree in a temporary
# directory, builds the benchmark of each side into its own target directory
# (the base's in the temporary directory, the working tree's in target/),
# then runs each side's unmodified contract form
#
#   benchmark/run.sh --workload W --seed S --seconds 10 --trace 0
#
# once per seed, alternating which side goes first. Seeds default to 42,
# 43, .. (N of them, N defaults to 10); --seeds names them instead.
#
# A fixed anchor commit (`anchor=` in this script) also runs, on the first
# three seeds, each run just before that seed's pair. Raw host seconds from different sessions
# are not comparable; a side's median host_s over the anchor's is. The
# anchor's simulator is older, so its sim_* are not compared.
#
# It prints a markdown table of the seven end-to-end metrics: each side's
# median [q1, q3] over the seeds, the change in the median and how many
# pairs the working tree won, then the claim rule's verdict for host_s: the
# working tree wins at least N-1 of N pairs and its median is better by more
# than the base's interquartile range, and each side's host_s / anchor host_s.
#
# Exits 1 if any pair differs in sim_fingerprint or any sim_* metric, if a
# run reports `"correct":false`, or if the working tree fails a larger share
# of operations than the base. The worktrees are removed on every exit.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$(pwd -P)
anchor=6cb20e2

usage() { awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "${BASH_SOURCE[0]}"; }

base="" workload="" pairs="" seeds=""
while (($#)); do
    case $1 in
        -h | --help) usage; exit 0 ;;
        --workload) workload=${2:?--workload needs a value}; shift 2 ;;
        --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
        --seeds) seeds=${2:?--seeds needs a value}; shift 2 ;;
        -*) echo "ab.sh: unknown argument $1" >&2; exit 2 ;;
        *) [[ -z $base ]] || { echo "ab.sh: one base ref only" >&2; exit 2; }; base=$1; shift ;;
    esac
done
[[ -n $base && -n $workload ]] || { usage >&2; exit 2; }
if [[ -n $seeds && -n $pairs ]]; then
    echo "ab.sh: give --pairs or --seeds, not both" >&2
    exit 2
fi
if [[ -z $seeds ]]; then
    [[ ${pairs:=10} =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: --pairs must be positive" >&2; exit 2; }
    seeds=42
    for ((s = 43; s < 42 + pairs; s++)); do seeds+=",$s"; done
fi
[[ $seeds =~ ^[0-9]+(,[0-9]+)*$ ]] || { echo "ab.sh: --seeds takes a,b,.." >&2; exit 2; }
base_sha=$(git rev-parse --verify "$base^{commit}")

tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
    git -C "$root" worktree remove --force "$tmp/anchor" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tmp/base" "$base_sha"
git worktree add --detach --quiet "$tmp/anchor" "$anchor"

# side name -> checkout root and target directory.
declare -A tree=([base]="$tmp/base" [change]="$root" [anchor]="$tmp/anchor")
declare -A target=([base]="$tmp/target" [change]="$root/target" [anchor]="$tmp/anchor-target")
for side in base change anchor; do
    echo "ab.sh: building $side" >&2
    cargo build --release --offline --quiet --manifest-path "${tree[$side]}/benchmark/Cargo.toml" \
        --target-dir "${target[$side]}" >&2
done

i=0
for seed in ${seeds//,/ }; do
    order="base change"
    ((i % 2)) && order="change base"
    ((i++ < 3)) && order="anchor $order"
    for side in $order; do
        echo "ab.sh: seed $seed $side" >&2
        CARGO_TARGET_DIR="${target[$side]}" bash "${tree[$side]}/benchmark/run.sh" \
            --workload "$workload" --seed "$seed" --seconds 10 --trace 0 \
            >"$tmp/$side.$seed.out" 2>"$tmp/$side.$seed.err"
        echo "$side $seed $tmp/$side.$seed.out" >>"$tmp/runs"
    done
done

echo "## $workload: $(git rev-parse --short "$base_sha") (base) vs working tree, seeds $seeds"
echo
awk '
function value(line, key,    m) {
    if (!match(line, "\"" key "\":\\{\"value\":[-+0-9.eE]+")) return ""
    m = substr(line, RSTART, RLENGTH)
    return substr(m, index(m, "value\":") + 7) + 0
}
function field(line, key) {
    return match(line, "\"" key "\":[a-z0-9]+") ? substr(line, RSTART + length(key) + 3, RLENGTH - length(key) - 3) : ""
}
# Quantile q of v[1..n] by linear interpolation (v sorted in place).
function quantile(v, n, q,    i, j, t, h) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    h = 1 + (n - 1) * q
    return v[int(h)] + (h - int(h)) * (v[int(h) + 1] - v[int(h)])
}
function summary(side, m,    v, s, n) {
    n = 0
    for (s = 1; s <= nseed; s++) if ((side, m, seed[s]) in val) v[++n] = val[side, m, seed[s]]
    q1[side, m] = quantile(v, n, 0.25); med[side, m] = quantile(v, n, 0.5); q3[side, m] = quantile(v, n, 0.75)
    return sprintf("%.5g [%.5g, %.5g]", med[side, m], q1[side, m], q3[side, m])
}
$1 == "anchor" {
    while ((getline line < $3) > 0) if (line ~ /^\{/ && (x = value(line, "host_s")) != "") val["anchor", "host_s", $2] = x
    close($3)
    next
}
{
    file[$1, $2] = $3
    if (!($2 in known)) { known[$2] = 1; seed[++nseed] = $2 }
}
END {
    split("setup_s host_s host_peak_rss_mb sim_s sim_ops_per_s sim_lat_p50_us sim_lat_p99_us", names, " ")
    units["setup_s"] = "s"; units["host_s"] = "s"; units["host_peak_rss_mb"] = "MiB"; units["sim_s"] = "s"
    units["sim_ops_per_s"] = "1/s"; units["sim_lat_p50_us"] = "us"; units["sim_lat_p99_us"] = "us"
    bad = 0
    for (s = 1; s <= nseed; s++) for (k = 1; k <= 2; k++) {
        side = k == 1 ? "base" : "change"; path = file[side, seed[s]]
        json = ""; fp[side] = ""
        while ((getline line < path) > 0) {
            if (line ~ /^note sim_fingerprint /) { split(line, w, " "); fp[side] = w[3] }
            if (line ~ /^\{/) json = line
        }
        close(path)
        if (json == "") { printf "ERROR: seed %s %s printed no JSON result (see %s)\n", seed[s], side, path; bad = 1; continue }
        if (field(json, "correct") != "true") { printf "ERROR: seed %s %s: correct is not true\n", seed[s], side; bad = 1 }
        attempted[side] += field(json, "attempted"); failed[side] += field(json, "failed")
        for (m in units) { x = value(json, m); if (x != "") val[side, m, seed[s]] = x }
        if (k == 2) {
            if (fp["base"] != fp["change"]) { printf "ERROR: seed %s: sim_fingerprint %s (base) != %s\n", seed[s], fp["base"], fp["change"]; bad = 1 }
            for (m in units) if (m ~ /^sim_/ && val["base", m, seed[s]] != val["change", m, seed[s]]) {
                printf "ERROR: seed %s: %s %s (base) != %s\n", seed[s], m, val["base", m, seed[s]], val["change", m, seed[s]]; bad = 1
            }
        }
    }
    share["base"] = failed["base"] / (attempted["base"] ? attempted["base"] : 1)
    share["change"] = failed["change"] / (attempted["change"] ? attempted["change"] : 1)
    if (share["change"] > share["base"]) { printf "ERROR: failed share %.4g > base %.4g\n", share["change"], share["base"]; bad = 1 }
    print "| metric | base median [q1, q3] | working tree median [q1, q3] | change | pairs won |"
    print "|---|---|---|---|---|"
    for (k = 1; k <= 7; k++) {
        m = names[k]; higher = m == "sim_ops_per_s"
        a = summary("base", m); b = summary("change", m); won = 0
        for (s = 1; s <= nseed; s++) {
            x = val["base", m, seed[s]]; y = val["change", m, seed[s]]
            if (higher ? y > x : y < x) won++
        }
        delta = med["base", m] ? 100 * (med["change", m] - med["base", m]) / med["base", m] : 0
        printf "| %s (%s, %s better) | %s | %s | %+.1f%% | %d/%d |\n", m, units[m], higher ? "higher" : "lower", a, b, delta, won, nseed
        wins[m] = won
    }
    gap = med["base", "host_s"] - med["change", "host_s"]; iqr = q3["base", "host_s"] - q1["base", "host_s"]
    verdict = wins["host_s"] >= nseed - 1 && gap > iqr ? "holds" : "does not hold"
    printf "\nclaim rule (host_s): wins %d/%d (needs >= %d), median gap %.4g s vs base IQR %.4g s: %s\n", wins["host_s"], nseed, nseed - 1, gap, iqr, verdict
    printf "failed share: base %.4g, working tree %.4g\n", share["base"], share["change"]
    a = summary("anchor", "host_s")
    if (med["anchor", "host_s"] > 0) {
        printf "anchor %s host_s %s: base %.4f, working tree %.4f of it\n", anchor, a, med["base", "host_s"] / med["anchor", "host_s"], med["change", "host_s"] / med["anchor", "host_s"]
    } else { printf "ERROR: the anchor %s reported no host_s\n", anchor; bad = 1 }
    if (!bad) printf "sim_fingerprint and every sim_* equal on all %d pairs\n", nseed
    exit bad
}' anchor="$anchor" "$tmp/runs"
