#!/usr/bin/env bash
# The workspace's non-test size: one stripper, one count.
#
#   scripts/loc.sh [--root DIR]     per-crate non-test lines of DIR/crates/*/src
#                                   (DIR defaults to this script's repository)
#                                   and the total
#   scripts/loc.sh --lines PATH..   every non-test line of the .rs files under
#                                   each PATH (a file or a directory), as
#                                   file:line:text
#   scripts/loc.sh --masked PATH..  the same lines with comments blanked and
#                                   the insides of literals as `_`, column
#                                   for column (what scripts/census.sh parses)
#
# A line is a test line when it lies inside something a `#[cfg(test)]`
# attribute removes from the build: an item, a module, a method, a
# statement, a field or a match arm. Its extent is found by matching
# brackets outside comments, string literals (raw and byte forms included)
# and char literals; it ends at the `;` or `,` that closes it, at the `}`
# of its body (an `else` or a trailing `;` or `,` joins it), or before the
# bracket that closes its enclosing block. The doc comments, comments and
# attributes directly above the attribute go with it. An out-of-line
# `#[cfg(test)] mod x;` takes the file it names along (x.rs or x/mod.rs
# beside the declaring module, and everything under x/). `#[cfg(not(test))]`
# items are ordinary code. Every other physical line counts: blank lines
# and comments included.
#
# Generic brackets are told from comparisons by rustfmt's operator spacing
# (`Vec<T>` against `a < b`), which every file here follows.
#
# scripts/verify.sh ratchets the per-crate counts and counts panic sites
# over the --lines output.
set -euo pipefail

usage() { awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "${BASH_SOURCE[0]}"; }

mode=table root=$(dirname "${BASH_SOURCE[0]}")/.. paths=()
while (($#)); do
    case $1 in
        -h | --help) usage; exit 0 ;;
        --root) root=${2:?--root needs a directory}; shift 2 ;;
        --lines | --masked) mode=${1#--}; shift; paths=("$@"); break ;;
        *) echo "loc.sh: unknown argument $1" >&2; usage >&2; exit 2 ;;
    esac
done
if [[ $mode == table ]]; then
    paths=("$root"/crates/*/src)
fi
((${#paths[@]})) || { echo "loc.sh: --$mode needs a path" >&2; exit 2; }

files=$(find "${paths[@]}" -name '*.rs' | sort)
[[ -n $files ]] || { echo "loc.sh: no .rs files under ${paths[*]}" >&2; exit 2; }

# Prints `file count` per counted file (table mode) or the kept lines.
# shellcheck disable=SC2086
strip() {
    LC_ALL=C awk -v mode="$mode" '
function flush() {
    if (n) { process(file, n) }
    n = 0
}
FNR == 1 { flush(); file = FILENAME }
{ L[++n] = $0 }
END {
    flush()
    for (f = 1; f <= nfiles; f++) {
        name = F[f]
        if (skipped(name)) continue
        if (mode != "table") printf "%s", OUT[name]
        else print name, KEPT[name]
    }
}

function skipped(name,   p) {
    for (p in SKIP) {
        if (name == p ".rs" || substr(name, 1, length(p) + 1) == p "/") return 1
    }
    return 0
}

# M[i]: line i with comments blanked to spaces and the insides of string
# and char literals replaced by "_", so brackets and separators in it are
# code. The lexer state carries across lines.
function mask(nl,   i, j, s, len, c, d, out, st, depth, hashes, q, k, rest, lit) {
    st = 0
    for (i = 1; i <= nl; i++) {
        s = L[i]; len = length(s); out = ""
        j = 1
        while (j <= len) {
            c = substr(s, j, 1)
            if (st == 1) {                      # block comment, nesting
                d = substr(s, j, 2)
                if (d == "*/") { depth--; out = out "  "; j += 2; if (!depth) st = 0; continue }
                if (d == "/*") { depth++; out = out "  "; j += 2; continue }
                out = out " "; j++; continue
            }
            if (st == 2) {                      # string, escapes
                if (c == "\\") { out = out "__"; j += 2; continue }
                if (c == "\"") { out = out "\""; st = 0; j++; continue }
                out = out "_"; j++; continue
            }
            if (st == 3) {                      # raw string, `hashes` #s
                if (c == "\"" && substr(s, j + 1, hashes) == substr("################", 1, hashes)) {
                    out = out "\"" substr(s, j + 1, hashes); j += 1 + hashes; st = 0; continue
                }
                out = out "_"; j++; continue
            }
            d = substr(s, j, 2)
            if (d == "//") { out = out sprintf("%" (len - j + 1) "s", ""); break }
            if (d == "/*") { st = 1; depth = 1; out = out "  "; j += 2; continue }
            if (c == "\"") { st = 2; out = out c; j++; continue }
            if ((c == "r" || c == "b") && (j == 1 || substr(s, j - 1, 1) !~ /[A-Za-z0-9_]/)) {
                rest = substr(s, j)
                if (match(rest, /^b?r#*"/)) {
                    hashes = RLENGTH - (c == "b" ? 3 : 2)
                    out = out substr(rest, 1, RLENGTH); j += RLENGTH; st = 3; continue
                }
            }
            if (c == "'\''") {
                q = 0
                d = substr(s, j + 1, 1)
                if (d == "\\") {
                    k = index(substr(s, j + 3), "'\''")
                    if (k) q = j + 2 + k
                } else if (d != "" && d < "\200" && substr(s, j + 2, 1) == "'\''") {
                    q = j + 2
                } else if (d >= "\200") {
                    for (k = j + 2; k <= j + 4; k++) if (substr(s, k, 1) == "'\''") { q = k; break }
                }
                if (q) {
                    lit = sprintf("%" (q - j - 1) "s", ""); gsub(/ /, "_", lit)
                    out = out "'\''" lit "'\''"; j = q + 1; continue
                }
            }
            out = out c; j++
        }
        M[i] = out
    }
}

# The next code character at or after (ci, cj) that is not white space:
# sets ci and cj and returns it, or "" at the end of the file.
function next_code(nl) {
    while (ci <= nl) {
        while (cj <= length(M[ci])) {
            if (substr(M[ci], cj, 1) !~ /[ \t]/) return substr(M[ci], cj, 1)
            cj++
        }
        ci++; cj = 1
    }
    return ""
}

# From (ci, cj), just past a test attribute, finds where the thing it
# removes ends: sets ei and ej to its last character (ej = 0: it ends just
# before column 1 of line ei).
function item_end(nl,   c, depth, angle, prev, sv_i, sv_j, word) {
    depth = 0; angle = 0
    for (;;) {
        c = next_code(nl)
        if (c == "") { ei = nl; ej = length(M[nl]); return }
        if (c == "#" && substr(M[ci], cj + 1, 1) == "[") {
            # a further attribute on the same item: skip it whole
            cj += 2; skip_brackets(nl, 1); continue
        }
        break
    }
    item_i = ci; item_j = cj
    for (;;) {
        if (ci > nl) { ei = nl; ej = length(M[nl]); return }
        if (cj > length(M[ci])) { ci++; cj = 1; prev = " "; continue }
        c = substr(M[ci], cj, 1)
        if (c ~ /[([{]/) {
            depth++
        } else if (c ~ /[)\]}]/) {
            if (depth == 0) { ei = ci; ej = cj - 1; return }
            depth--
            if (depth == 0 && c == "}") {
                sv_i = ci; sv_j = cj
                cj++
                c = next_code(nl)
                word = substr(M[ci], cj, 5)
                if (c == ";" || c == ",") { ei = ci; ej = cj; return }
                if (word !~ /^else([^A-Za-z0-9_]|$)/) { ei = sv_i; ej = sv_j; return }
                continue
            }
        } else if (c == "<" && prev ~ /[A-Za-z0-9_:]/) {
            angle++
        } else if (c == ">" && angle > 0 && prev !~ /[-=]/) {
            angle--
        } else if (depth == 0 && (c == ";" || (c == "," && angle == 0))) {
            ei = ci; ej = cj; return
        }
        prev = c
        cj++
    }
}

# Moves (ci, cj) past the bracket that closes `open` already-open ones.
function skip_brackets(nl, open,   c) {
    while (ci <= nl) {
        while (cj <= length(M[ci])) {
            c = substr(M[ci], cj++, 1)
            if (c ~ /[([{]/) open++
            else if (c ~ /[)\]}]/ && !--open) return
        }
        ci++; cj = 1
    }
}

# Whether line i is only a comment or only an attribute (so it belongs to
# the item below it).
function leading(i,   t) {
    t = L[i]; sub(/^[ \t]+/, "", t)
    if (t ~ /^\/\// && t !~ /^\/\/!/) return 1
    t = M[i]; gsub(/^[ \t]+|[ \t]+$/, "", t)
    return t ~ /^#\[.*\]$/
}

function process(name, nl,   i, s, pos, a, from, last, dir, base, m) {
    F[++nfiles] = name
    for (i = 1; i <= nl; i++) T[i] = 0
    mask(nl)
    i = 1; pos = 1
    while (i <= nl) {
        s = substr(M[i], pos)
        if (!match(s, /#\[ *cfg *\( *test *\) *\]/)) { i++; pos = 1; continue }
        a = pos + RSTART - 1
        ci = i; cj = a + RLENGTH
        item_end(nl)
        # whole lines only: a line keeps its code outside the item
        from = i
        if (substr(M[i], 1, a - 1) ~ /[^ \t]/) from = i + 1
        else while (from > 1 && leading(from - 1)) from--
        last = ei
        if (substr(M[ei], ej + 1) ~ /[^ \t]/) last = ei - 1
        for (m = from; m <= last; m++) T[m] = 1
        # an out-of-line test module takes its file along
        s = ""
        for (m = item_i; m <= ei && m <= item_i + 2; m++) s = s " " M[m]
        s = substr(s, item_j + 1)
        if (match(s, /^(pub(\([^)]*\))? +)?mod +[A-Za-z_][A-Za-z0-9_]* *;/)) {
            s = substr(s, 1, RLENGTH); sub(/^.*mod +/, "", s); sub(/ *;$/, "", s)
            dir = name; sub(/\/[^\/]*$/, "", dir)
            base = name; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
            SKIP[(base ~ /^(lib|main|mod)$/ ? dir : dir "/" base) "/" s] = 1
        }
        i = ei; pos = ej + 1
    }
    KEPT[name] = 0
    for (i = 1; i <= nl; i++) {
        if (T[i]) continue
        KEPT[name]++
        if (mode != "table") OUT[name] = OUT[name] name ":" i ":" (mode == "masked" ? M[i] : L[i]) "\n"
    }
}
' $files
}

if [[ $mode != table ]]; then
    strip
    exit
fi
strip | awk -v root="$root/crates/" '
    { name = substr($1, length(root) + 1); sub(/\/.*/, "", name); count[name] += $2; total += $2 }
    END {
        printf "%-10s %6s\n", "crate", "lines"
        for (c in count) printf "%-10s %6d\n", c, count[c] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }'
