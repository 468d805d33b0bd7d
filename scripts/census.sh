#!/usr/bin/env bash
# The census: what no committed run exercises, and who owns it.
#
#   scripts/census.sh   export the working tree into target/census/src, hook
#                       that copy, build it into target/census/target, run
#                       the committed runs there (`figures all` and
#                       `benchmark/run.sh --smoke` and `--probes`), then
#                       every test binary, reduce the recordings to
#                       findings and check them against scripts/census.txt
#                       (~2.5 min the first time, less when little changed)
#
# The working tree is never edited. The export is `git archive` of a tree
# written from a throw-away index (`git add -A` honours .gitignore, so new
# files count and build output does not) into target/census/stage; only the
# files whose bytes changed then replace those of the copy, so a second run
# rebuilds only what changed. Two observe-only hooks go into the export and
# nowhere else, both writing to $TERAHEAP_CENSUS_OUT:
#   - a config dump, `{:#?}` of each distinct resolved config, at its one
#     construction site (the ANCHORS below; a missing anchor fails the run);
#   - a once-per-site marker at the entry of every function that
#     `scripts/loc.sh --lines crates/*/src` keeps, trait-impl methods,
#     `const fn`s and macro bodies aside.
# The hooked `figures all` must still write the committed results/ byte for
# byte, the smoke must print scripts/smoke_fingerprints.txt and the probes
# must exit 0. Each test binary of the copy then runs with a recording of its
# own, target/census/tests/<crate>/<target>.txt (grep one for `@@fn
# <subject>` to find a test that reaches a function); the tests count for
# `test` owners only, never as committed runs, and the examples do not run.
#
# Findings, one `kind subject` each:
#   knob <Type>.<field>    a config field (a struct's, or an enum variant's)
#                          that holds one value in every dump; the outermost
#                          such field is reported, not the fields inside it
#   fn <crate>/<file>::[<Type>::]<name>
#                          a function no run reaches (<file> is relative to
#                          the crate's src/)
#   column <file>:<name>   a results/*.csv or crates/*/tests/golden/*.txt
#                          column whose every numeric cell is 0
#   field <Type>.<name>    a `pub` field of a struct declared in the kept
#                          lines of crates/*/src that no kept line of
#                          crates/*/src or benchmark/src reads (a field of
#                          the same name read elsewhere hides it)
#
# scripts/census.txt owns them, one `kind subject owner` line each (`#`
# comments). The subject may use `*` wildcards (a file, a struct prefix). The
# owner is a ROADMAP item number (`15`, `5(b)`), `bench` (benchmark/src
# names a knob's or a field's type, or a function's `Type::name` or bare
# name), `test <crate>/<target>` (a test target that reaches it: `lib` or a
# crates/<crate>/tests/<target>.rs; `root/<target>` for tests/), `debug` or
# `data` (a seed or an input size). A `test` entry owns only what its
# target's recording shows: the functions it reaches and the fields it sets
# to a value no committed run holds; for a column, the target's source must
# name the golden file, and for a field, `.<name>`. The census fails on a
# finding no entry owns and on an entry that owns no finding, so the list
# only shrinks: delete what a finding names, or own it with a reason a
# reader can check.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD

usage() { awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "${BASH_SOURCE[0]}"; }

case ${1-} in
    '') ;;
    -h | --help) usage; exit 0 ;;
    *) echo "census.sh: unknown argument $1" >&2; usage >&2; exit 2 ;;
esac

out=$root/target/census
copy=$out/src stage=$out/stage
record=$out/record.txt
sites=$out/sites.txt
tests=$out/tests

# file|anchor text (must occur once)|the resolved config at that site
ANCHORS='crates/runtime/src/heap/mod.rs|pub fn with_clock(config: HeapConfig|config
crates/core/src/h2.rs|fn over(config: H2Config|config
crates/spark/src/context.rs|pub fn with_heap(config: SparkConfig|config
crates/giraph/src/workloads.rs|pub fn run_giraph_on(|config
crates/query/src/session.rs|pub fn run_query_plane(cfg: &QueryPlaneConfig|cfg
crates/query/src/table.rs|pub fn new(cfg: TableConfig|cfg
crates/server/src/server.rs|pub fn run(&mut self) -> ServerReport|self.config'

# Rust that appends the bytes `$1` to $TERAHEAP_CENSUS_OUT in one write
# (O_APPEND keeps the records of concurrent writers whole).
emit() {
    printf '%s' "if let Some(p) = std::env::var_os(\"TERAHEAP_CENSUS_OUT\") { if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(p) { let _ = std::io::Write::write_all(&mut f, $1); } }"
}

# The entry brace of every kept function: `file line column subject`.
find_sites() {
    scripts/loc.sh --masked crates/*/src | LC_ALL=C awk '
# What a `{` opens, from the code since the last `;`, `{` or `}`: an impl
# (its type in tn), a trait impl, a trait, a macro body or a plain block.
function block_kind(h,   t, q, a, cc) {
    gsub(/^[ \t]+/, "", h)
    while (sub(/^#\[[^]]*\][ \t]*/, "", h)) {}
    if (h ~ /^macro_rules!/) return "macro"
    if (h ~ /^(pub(\([^)]*\))? *)?(unsafe +)?trait /) {
        t = h; sub(/^.*trait +/, "", t); sub(/[^A-Za-z0-9_].*$/, "", t); tn = t
        return "trait"
    }
    if (h !~ /^(unsafe +)?impl[ <]/) return "block"
    t = h; sub(/^(unsafe +)?impl */, "", t)
    if (substr(t, 1, 1) == "<") {               # the impl generics
        a = 0
        for (q = 1; q <= length(t); q++) {
            cc = substr(t, q, 1)
            if (cc == "<") a++
            else if (cc == ">" && substr(t, q - 1, 1) != "-" && !--a) break
        }
        t = substr(t, q + 1)
    }
    if (t ~ /[ \t]for[ \t]/) return "trait-impl"
    sub(/^[ \t]+/, "", t); sub(/[<{ \t].*$/, "", t); sub(/^.*::/, "", t); tn = t
    return "impl"
}

{
    i = index($0, ":"); file = substr($0, 1, i - 1); rest = substr($0, i + 1)
    i = index(rest, ":"); line = substr(rest, 1, i - 1); m = substr(rest, i + 1)
    if (file != cur) { cur = file; depth = 0; hdr = ""; sig = 0 }
    for (j = 1; j <= length(m); j++) {
        c = substr(m, j, 1)
        if (sig) {                              # inside a signature
            if (c == "(" || c == "[") pd++
            else if (c == ")" || c == "]") pd--
            else if (pd == 0 && c == ";") { sig = 0; hdr = "" }
            else if (pd == 0 && c == "{") {
                sig = 0; skip = fconst
                for (k = 1; k <= depth; k++) if (kind[k] == "trait-impl" || kind[k] == "macro") skip = 1
                if (!skip) {
                    ty = ""
                    for (k = depth; k >= 1; k--) if (kind[k] == "impl" || kind[k] == "trait") { ty = tname[k] "::"; break }
                    subj = file; sub(/^crates\//, "", subj); sub(/\/src\//, "/", subj)
                    print file, line, j, subj "::" ty fname
                }
                kind[++depth] = "fn"; hdr = ""
            }
            continue
        }
        if (c == "{") { kind[++depth] = block_kind(hdr); tname[depth] = tn; hdr = ""; continue }
        if (c == "}") { depth--; hdr = ""; continue }
        if (c == ";") { hdr = ""; continue }
        hdr = hdr c
        if (c == "n" && substr(m, j - 1, 2) == "fn" && (j == 2 || substr(m, j - 2, 1) !~ /[A-Za-z0-9_]/) \
            && substr(m, j + 1, 1) ~ /[ \t]/) {
            t = substr(m, j + 1); sub(/^[ \t]+/, "", t)
            if (match(t, /^[A-Za-z_][A-Za-z0-9_]*/)) {
                fname = substr(t, 1, RLENGTH); sig = 1; pd = 0
                fconst = (hdr ~ /(^|[^A-Za-z0-9_])const[ \t]+fn$/)
            }
        }
    }
    if (!sig) hdr = hdr " "
}'
}

# Exports the working tree into $stage, hooks it there and brings $copy
# up to date with it.
export_and_hook() {
    rm -rf "$stage"
    mkdir -p "$stage" "$copy"
    local index tree
    index=$(mktemp)
    rm -f "$index"
    tree=$(GIT_INDEX_FILE=$index git add -A && GIT_INDEX_FILE=$index git write-tree)
    rm -f "$index"
    git archive "$tree" | tar -x -C "$stage"

    # Config dumps: appended to the line that opens the anchor's body.
    local file anchor expr at hook
    while IFS='|' read -r file anchor expr; do
        if [[ $(grep -cF -- "$anchor" "$stage/$file" || true) != 1 ]]; then
            echo "ERROR: census anchor '$anchor' does not occur exactly once in $file." >&2
            exit 1
        fi
        at=$(LC_ALL=C awk -v a="$anchor" 'index($0, a) { on = 1 } on && /\{[ \t]*$/ { print NR; exit }' "$stage/$file")
        hook="{ static CENSUS_SEEN: std::sync::Mutex<std::collections::BTreeSet<String>> = std::sync::Mutex::new(std::collections::BTreeSet::new()); let dump = format!(\"@@knob\\n{:#?}\\n\", $expr); if CENSUS_SEEN.lock().map_or(false, |mut seen| seen.insert(dump.clone())) { $(emit 'dump.as_bytes()') } }"
        HOOK=$hook LC_ALL=C awk -v at="$at" 'NR == at { $0 = $0 " " ENVIRON["HOOK"] } { print }' \
            "$stage/$file" >"$stage/$file.census" && mv "$stage/$file.census" "$stage/$file"
    done <<<"$ANCHORS"

    # Function markers: inserted just after each entry brace, on its line.
    find_sites >"$sites"
    local f
    for f in $(cut -d' ' -f1 "$sites" | sort -u); do
        MARK="{ static CENSUS_SITE: std::sync::Once = std::sync::Once::new(); CENSUS_SITE.call_once(|| { $(emit 'b"@@fn SUBJECT\n"') }); }" \
            LC_ALL=C awk -v f="$f" '
            FILENAME == ARGV[1] { if ($1 == f) { col[$2] = col[$2] " " $3; subj[$2 " " $3] = $4 }; next }
            FNR in col {
                n = split(col[FNR], cs, " ")
                for (k = n; k >= 1; k--) {      # right to left keeps columns valid
                    e = ENVIRON["MARK"]; sub(/SUBJECT/, subj[FNR " " cs[k]], e)
                    $0 = substr($0, 1, cs[k]) " " e substr($0, cs[k] + 1)
                }
            }
            { print }' "$sites" "$stage/$f" >"$stage/$f.census" && mv "$stage/$f.census" "$stage/$f"
    done

    # Only files whose bytes changed reach the copy: the rest keep their
    # mtimes, so cargo rebuilds just what changed since the last census.
    (cd "$stage" && find . -type f) | while read -r f; do
        cmp -s "$stage/$f" "$copy/$f" || { mkdir -p "$(dirname "$copy/$f")"; cp "$stage/$f" "$copy/$f"; }
    done
    (cd "$copy" && find . -type f) | while read -r f; do
        [[ -e $stage/$f ]] || rm "$copy/$f"
    done
}

# Builds and runs the hooked copy; its outputs must be the committed ones.
run_copy() {
    : >"$record"
    export TERAHEAP_CENSUS_OUT=$record CARGO_TARGET_DIR=$out/target
    unset TERAHEAP_FAULTS TERAHEAP_HEAP_CHECK
    (
        cd "$copy"
        cargo build --release --offline -q -p teraheap-bench --bin figures
        "$CARGO_TARGET_DIR/release/figures" all >/dev/null
        if ! diff -rq -x microbench.csv "$root/results" results; then
            echo "ERROR: the hooked copy's figures differ from the committed results/." >&2
            exit 1
        fi
        fingerprints=$(benchmark/run.sh --smoke \
            | awk '/^== /{workload=$2} /^note sim_fingerprint /{print workload, $3}')
        if ! diff <(echo "$fingerprints") scripts/smoke_fingerprints.txt; then
            echo "ERROR: the hooked copy's smoke fingerprints differ from scripts/smoke_fingerprints.txt." >&2
            exit 1
        fi
        benchmark/run.sh --probes --seed 42 >/dev/null
    )
}

# Builds every test binary of the hooked copy and runs each with its own
# recording, $tests/<crate>/<target>.txt.
run_tests() {
    rm -rf "$tests"
    local line src exe rel t dir
    (cd "$copy" && cargo test --release --offline -q --workspace --no-run --message-format=json-render-diagnostics) \
        | grep '"test":true},"features"' | while read -r line; do
        src=$(grep -o '"src_path":"[^"]*"' <<<"$line" | sed 's/^"src_path":"//; s/"$//')
        exe=$(grep -o '"executable":"[^"]*"' <<<"$line" | sed 's/^"executable":"//; s/"$//')
        rel=${src#"$copy"/}
        case $rel in
            crates/*/src/lib.rs) t=${rel#crates/}; t=${t%%/*}/lib ;;
            crates/*/tests/*.rs) t=${rel#crates/}; t=${t/\/tests\//\/}; t=${t%.rs} ;;
            crates/*/src/bin/*.rs) t=${rel#crates/}; t=${t/\/src\//\/}; t=${t%.rs} ;;
            src/lib.rs) t=root/lib ;;
            tests/*.rs) t=root/${rel#tests/}; t=${t%.rs} ;;
            *) echo "ERROR: census: no target name for the test binary of $rel." >&2; exit 1 ;;
        esac
        dir=$copy/crates/${t%%/*}
        [[ $t == root/* ]] && dir=$copy
        mkdir -p "$tests/${t%/*}"
        if ! (cd "$dir" && TERAHEAP_CENSUS_OUT=$tests/$t.txt "$exe" -q >"$tests/$t.log" 2>&1); then
            tail -20 "$tests/$t.log" >&2
            echo "ERROR: test $t fails in the hooked copy." >&2
            exit 1
        fi
    done
}

# Prints `knob <Type>.<field>` for the fields of the config dumps in the
# files $2.. that hold one value in every dump (the outermost such field),
# or, with $1 = many, for every field that holds two values or more.
knobs() {
    LC_ALL=C awk -v mode="$1" '
        function indent(s) { match(s, /^ */); return RLENGTH }
        function dump(   i, j, ind, lvl, t, field, val, key, v, hd) {
            if (nd == 0 || seen[text]++) return
            for (i = 1; i <= nd; i++) {
                ind = indent(D[i]); lvl = ind / 4; t = substr(D[i], ind + 1)
                if (t ~ /^[)}\]],?$/) continue
                field = ""; val = t
                if (match(t, /^[a-z_][a-z0-9_]*: /)) { field = substr(t, 1, RLENGTH - 2); val = substr(t, RLENGTH + 1) }
                if (field != "") {
                    key = type[lvl - 1] "." field
                    if (val ~ /[{(\[]$/) {
                        v = ""
                        for (j = i; j <= nd && (j == i || indent(D[j]) > ind); j++) v = v substr(D[j], ind + 1)
                        v = v substr(D[j], ind + 1)
                    } else { v = val; sub(/,$/, "", v) }
                    n++; okey[n] = key; oanc[n] = chain[lvl - 1]
                    if (!((key, v) in vals)) { vals[key, v] = 1; nvals[key]++ }
                }
                if (val ~ /[{(\[]$/) {
                    hd = val; sub(/ *[{(\[]$/, "", hd)
                    type[lvl] = (val ~ /\{$/) ? hd : ""
                    chain[lvl] = (lvl ? chain[lvl - 1] : "") (field != "" ? " " key : "")
                }
            }
        }
        /^@@knob$/ { dump(); nd = 0; text = ""; inside = 1; next }
        /^@@/ { dump(); nd = 0; text = ""; inside = 0; next }
        inside { D[++nd] = $0; text = text $0 "\n" }
        END {
            dump()
            if (mode == "many") { for (k in nvals) if (nvals[k] > 1) print "knob", k; exit }
            for (i = 1; i <= n; i++) {
                if (nvals[okey[i]] != 1) continue
                split(oanc[i], a, " "); covered = 0
                for (k in a) if (nvals[a[k]] == 1) covered = 1
                if (!covered) out[okey[i]] = 1
            }
            for (k in out) print "knob", k
        }' "${@:2}"
}

# Prints `field <Type>.<name>` for every `pub` field of a struct declared in
# the kept lines of crates/*/src that no kept line of crates/*/src or
# benchmark/src reads. A read is `.name` that is no method call and not on
# the left of `=` or of a compound assignment, or `name` inside a
# `Type { .. }` pattern (a `let` or `for` pattern on the type's line, or
# one whose `}` is followed by `=` or `=>`).
fields() {
    scripts/loc.sh --masked crates/*/src benchmark/src | LC_ALL=C awk '
        function reads(m,   t, name, rest, prev) {
            prev = " "
            while (match(m, /\.[A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr(m, RSTART + 1, RLENGTH - 1); rest = substr(m, RSTART + RLENGTH)
                if (RSTART > 1) prev = substr(m, RSTART - 1, 1)
                t = rest; sub(/^[ \t]+/, "", t)
                if (prev != "." && t !~ /^(\(|::|=([^=>]|$)|([-+*\/%&|^]|<<|>>)=)/) dot[name] = 1
                m = rest; prev = "x"
            }
        }
        # The `Type { .. }` patterns of one file, its kept text in T.
        function patterns(T,   s, at, ty, before, j, d, c, end, after, body, n, k, p) {
            s = T; at = 0
            while (match(s, /[A-Za-z_][A-Za-z0-9_]*[ \t\n]*\{/)) {
                ty = substr(s, RSTART, RLENGTH); sub(/[ \t\n]*\{$/, "", ty)
                before = substr(T, 1, at + RSTART - 1); sub(/^.*\n/, "", before)
                j = at + RSTART + RLENGTH          # just past the `{` in T
                s = substr(s, RSTART + RLENGTH); at = j - 1
                if (!(ty in struct) || substr(before, length(before)) ~ /[A-Za-z0-9_]/ \
                    || before ~ /^[ \t]*(pub[^ ]* +)?(unsafe +)?impl[ <]/) continue
                for (d = 1; d && j <= length(T); j++) {
                    c = substr(T, j, 1)
                    if (c == "{") d++
                    else if (c == "}") d--
                }
                end = j - 1
                after = substr(T, j, 40); sub(/^[ \t\n)\]]*/, "", after)
                if (before !~ /(^|[^A-Za-z0-9_])(let|for)[ \t(&\[]*([A-Za-z_][A-Za-z0-9_]*::)*$/ \
                    && after !~ /^=([^=]|$)/) continue
                body = substr(T, at + 1, end - at - 1)
                n = split(body, p, ",")            # the commas of a nested pattern only add reads
                for (k = 1; k <= n; k++) {
                    sub(/^[ \t\n]*(ref[ \t\n]+)?(mut[ \t\n]+)?/, "", p[k])
                    if (match(p[k], /^[A-Za-z_][A-Za-z0-9_]*/)) pat[ty "." substr(p[k], 1, RLENGTH)] = 1
                }
            }
        }
        {
            i = index($0, ":"); file = substr($0, 1, i - 1); rest = substr($0, i + 1)
            m = substr(rest, index(rest, ":") + 1)
            if (file != cur) { cur = file; body = 0 }
            text[file] = text[file] m "\n"
            reads(m)
            if (file !~ /^crates\//) next
            if (body) {
                if (depth == 1 && match(m, /^[ \t]*pub[ \t]+[a-z_][a-z0-9_]*[ \t]*:/)) {
                    f = substr(m, 1, RLENGTH); sub(/^[ \t]*pub[ \t]+/, "", f); sub(/[ \t]*:$/, "", f)
                    decl[++nd] = sname "." f; fname[nd] = f
                }
                depth += gsub(/\{/, "{", m) - gsub(/\}/, "}", m)
                body = depth > 0
            } else if (match(m, /(^|[^A-Za-z0-9_])struct[ \t]+[A-Za-z_][A-Za-z0-9_]*(<[^{]*>)?[ \t]*\{[ \t]*$/)) {
                sname = substr(m, RSTART, RLENGTH); sub(/^.*struct[ \t]+/, "", sname); sub(/[<{ \t].*$/, "", sname)
                struct[sname] = 1; body = 1; depth = 1
            }
        }
        END {
            for (f in text) patterns(text[f])
            for (k = 1; k <= nd; k++) if (!(fname[k] in dot) && !(decl[k] in pat)) print "field", decl[k]
        }'
}

# Prints every finding as `kind subject`.
findings() {
    # functions: marked sites the recording never reached
    LC_ALL=C awk 'FILENAME == ARGV[1] { if (/^@@fn /) hit[substr($0, 6)] = 1; next }
        !($4 in hit) { print "fn", $4 }' "$record" "$sites"
    # config fields: one value in every dump
    knobs one "$record"
    # columns: every numeric cell 0
    LC_ALL=C awk '
        function cell(name, v) {
            if (v !~ /^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/) return
            num[FILENAME ":" name]++
            if (v + 0 == 0) zero[FILENAME ":" name]++
        }
        FNR == 1 { golden = FILENAME ~ /\.txt$/; if (!golden) split($0, H, ",") }
        golden && /^# columns:/ { split(substr($0, 11), H, " "); next }
        golden && /^#/ { next }
        golden && FNR > 1 { for (c = 2; c <= NF; c++) cell(H[c - 1], $c); next }
        !golden && FNR > 1 { n = split($0, V, ","); for (c = 1; c <= n; c++) cell(H[c], V[c]) }
        END { for (k in num) if (zero[k] == num[k]) { sub(/^crates\//, "", k); print "column", k } }
    ' results/*.csv crates/*/tests/golden/*.txt
    # fields: no kept line reads them
    fields
}

# The file or directory of test target $1's source.
test_source() {
    case $1 in
        root/lib) echo src ;;
        root/*) echo "tests/${1#root/}.rs" ;;
        */lib) echo "crates/${1%%/*}/src" ;;
        */bin/*) echo "crates/${1%%/*}/src/${1#*/}.rs" ;;
        *) echo "crates/${1%%/*}/tests/${1#*/}.rs" ;;
    esac
}

# Checks every finding against scripts/census.txt, every entry against the
# findings and every `test` owner against its target's recording.
judge() {
    local list=scripts/census.txt bad=0 kind subject owner n=0 t golden r name
    while read -r kind subject owner; do
        n=$((n + 1))
        [[ -z $kind || $kind == \#* ]] && continue
        case $kind in knob | fn | column | field) ;; *) echo "ERROR: $list:$n: unknown kind '$kind'." >&2; bad=1 ;; esac
        case $owner in
            debug | data) ;;
            bench)
                # What benchmark/src must name: a knob's or a field's type, a
                # function's `Type::name` (its type for a `*`) or bare name.
                if [[ $kind == knob || $kind == field ]]; then
                    name=${subject%%.*}
                else
                    name=${subject#*::}; name=${name%::\*}
                fi
                if ! grep -rqwF -- "$name" benchmark/src; then
                    echo "ERROR: $list:$n: benchmark/src does not name $name." >&2
                    bad=1
                fi ;;
            test\ */*) t=${owner#test }
                if [[ ! -f $tests/$t.txt ]]; then
                    echo "ERROR: $list:$n: no test target '$t'." >&2
                    bad=1
                elif [[ $kind == column ]]; then
                    golden=${subject%%:*}; golden=${golden##*/}; golden=${golden%.*}
                    if ! grep -rqF -- "$golden" "$(test_source "$t")"; then
                        echo "ERROR: $list:$n: test $t does not name ${subject%%:*}." >&2
                        bad=1
                    fi
                elif [[ $kind == field ]] && ! grep -rqE -- "\.${subject#*.}([^A-Za-z0-9_]|$)" "$(test_source "$t")"; then
                    echo "ERROR: $list:$n: test $t does not name .${subject#*.}." >&2
                    bad=1
                fi ;;
            *) if ! [[ $owner =~ ^([0-9]+)(\([a-z]\))?$ ]] || ! grep -qE "^${BASH_REMATCH[1]}\. \*\*" ROADMAP.md; then
                   echo "ERROR: $list:$n: owner '$owner' is no ROADMAP item, bench, test <crate>/<target>, debug or data." >&2
                   bad=1
               fi ;;
        esac
    done <"$list"
    ((bad == 0)) || exit 1

    # What each test target reaches: `<target> fn <subject>` and
    # `<target> knob <field>` (a field it sets to a value no committed run
    # holds).
    find "$tests" -name '*.txt' | sort | while read -r r; do
        t=${r#"$tests"/}; t=${t%.txt}
        { LC_ALL=C awk '/^@@fn / { print "fn", substr($0, 6) }' "$r"; knobs many "$record" "$r"; } | sed "s|^|$t |"
    done >"$out/reach.txt"

    # One line per problem; globs become anchored regexes.
    findings | sort | LC_ALL=C awk -v list="$list" -v reach="$out/reach.txt" '
        BEGIN {
            while ((getline l < reach) > 0) reached[l] = 1
            while ((getline l < list) > 0) {
                ln++
                if (l ~ /^[ \t]*(#|$)/) continue
                split(l, f, /[ \t]+/)
                e++; ekind[e] = f[1]; esubj[e] = f[2]; eline[e] = ln
                if (f[3] == "test" && f[1] != "column" && f[1] != "field") etest[e] = f[4]
                re = f[2]; gsub(/[][\\.^$+?(){}|]/, "\\\\&", re); gsub(/\*/, ".*", re); ere[e] = "^" re "$"
            }
        }
        {
            total++; owned = 0; missed = ""
            for (i = 1; i <= e; i++) if ($1 == ekind[i] && $2 ~ ere[i]) {
                if ((i in etest) && !((etest[i] " " $0) in reached)) { missed = missed ", " etest[i]; continue }
                used[i] = 1; owned = 1
            }
            if (!owned) {
                print "ERROR: finding `" $0 "` has no owner in " list \
                    (missed == "" ? "." : "; the test" substr(missed, 2) " does not " ($1 == "fn" ? "reach" : "vary") " it.")
                bad = 1
            }
            count[$1]++
        }
        END {
            for (i = 1; i <= e; i++) if (!(i in used)) {
                print "ERROR: " list ":" eline[i] ": `" ekind[i] " " esubj[i] "` owns no finding; delete the entry."
                bad = 1
            }
            printf "census: %d findings (%d knob, %d fn, %d column, %d field), %d owner entries\n", \
                total, count["knob"], count["fn"], count["column"], count["field"], e
            exit bad
        }' >&2
}

export_and_hook
run_copy
run_tests
judge
