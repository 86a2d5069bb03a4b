#!/usr/bin/env bash
# Count the non-test lines of Rust source in crates/*/src and vendor/.
#
# A file's non-test lines are the lines before its first column-0
# `#[cfg(test)]` that introduces an inline `mod` (`mod tests { ... }`);
# everything from there on is treated as test code. A `#[cfg(test)]` on any
# other item (an `extern crate`, a `use`) is counted like the item. A
# `#[cfg(test)] mod name;` declaration is not counted, and the file it
# declares is test code as a whole, as is a file that opens with
# `#![cfg(test)]`.
#
# Usage: tools/nontest-lines.sh [REV] [TOP]
#   REV  a git revision to count instead of the working tree ("" for the tree)
#   TOP  how many of the largest files to list (default 8)
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev=${1:-}
top=${2:-8}

if [[ -n $rev ]]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates vendor |
        grep -E '^(crates/[^/]+/src/|vendor/).*\.rs$')
    show() { git show "$rev:$1"; }
else
    files=$(find crates/*/src vendor -name '*.rs' | sort)
    show() { cat "$1"; }
fi

# The files declared behind `#[cfg(test)] mod name;`, one path per line.
test_only_children() {
    local f=$1 dir
    case $(basename "$f") in
    lib.rs | main.rs | mod.rs) dir=$(dirname "$f") ;;
    *) dir=${f%.rs} ;;
    esac
    show "$f" | awk -v dir="$dir" '
        prev ~ /^#\[cfg\(test\)\]/ && match($0, /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) {
            name = $0
            sub(/^(pub(\([a-z]+\))? )?mod /, "", name)
            sub(/;.*/, "", name)
            print dir "/" name ".rs"
            print dir "/" name "/mod.rs"
        }
        { prev = $0 }'
}

count() {
    awk '
        { line[NR] = $0 }
        END {
            n = 0
            for (i = 1; i <= NR; i++) {
                if (line[i] ~ /^#!\[cfg\(test\)\]/) { print 0; exit }
                if (line[i] ~ /^#\[cfg\(test\)\]/) {
                    j = i + 1
                    while (j <= NR && line[j] ~ /^#\[/) j++
                    if (line[j] ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) break
                    if (line[j] ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) { i = j; continue }
                }
                n++
            }
            print n
        }'
}

test_files=$(for f in $files; do test_only_children "$f"; done)

counts=$(for f in $files; do
    if grep -qxF "$f" <<<"$test_files"; then
        n=0
    else
        n=$(show "$f" | count)
    fi
    printf '%6d %s\n' "$n" "$f"
done | sort -rn)

echo "non-test lines: $(awk '{ s += $1 } END { print s }' <<<"$counts")"
head -n "$top" <<<"$counts"
