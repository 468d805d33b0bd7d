#!/usr/bin/env bash
# Re-pin every committed simulated number in one command, for a change that
# means to move simulated time (a cost-model change, a fidelity fix):
#
#   1. the golden tables, crates/*/tests/golden/*.txt (teraheap_util::golden
#      in write mode),
#   2. the figure CSVs, results/*.csv (`figures all`),
#   3. the smoke fingerprints, scripts/smoke_fingerprints.txt,
#   4. then the whole workspace again in compare mode, so the script exits
#      non-zero while anything is still red — a literal pin outside the
#      golden helper (the verify skill lists them), a broken invariant —
#      and `git diff --stat` of what moved.
#
# The PR body of a number-moving change is this script's diff plus the
# moved-cell report the suites print before it is run (ROADMAP, PR 23 rule).
# On a tree whose numbers did not move it changes nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/4 goldens: rewrite crates/*/tests/golden/*.txt =="
# A test that borrows a pinned row (Golden::row/cell) may read a file its
# suite has not rewritten yet and fail in this pass; step 4 is the verdict.
TERAHEAP_GOLDEN_WRITE=1 cargo test -q --offline --workspace --no-fail-fast >/dev/null 2>&1 || true
git status --short -- 'crates/*/tests/golden/*'

echo "== 2/4 figures: regenerate results/*.csv =="
cargo run -q --release --offline -p teraheap-bench --bin figures -- all >/dev/null

echo "== 3/4 smoke fingerprints: scripts/smoke_fingerprints.txt =="
fingerprints=$(benchmark/run.sh --smoke \
    | awk '/^== /{workload=$2} /^note sim_fingerprint /{print workload, $3}')
echo "$fingerprints" >scripts/smoke_fingerprints.txt

echo "== 4/4 compare: the whole workspace against what was just written =="
cargo test -q --offline --workspace

echo "== what moved =="
git diff --stat
echo "== re-check by hand: full-size fingerprints the verify skill quotes =="
grep -nE 'sim_fingerprint [0-9a-f]{16}' .claude/skills/verify/SKILL.md || true
