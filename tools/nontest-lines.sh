#!/usr/bin/env bash
# Count the non-test lines of Rust source in crates/*/src and vendor/.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# at column 0; everything from there on is treated as test code. Files
# that are test-only as a whole (declared behind `#[cfg(test)] mod` in
# their parent) still count in full.
#
# Usage: tools/nontest-lines.sh [REV] [TOP]
#   REV  a git revision to count instead of the working tree
#   TOP  how many of the largest files to list (default 8)
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev=${1:-}
top=${2:-8}

count() { awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'; }

if [[ -n $rev ]]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates vendor |
        grep -E '^(crates/[^/]+/src/|vendor/).*\.rs$')
else
    files=$(find crates/*/src vendor -name '*.rs' | sort)
fi

counts=$(for f in $files; do
    if [[ -n $rev ]]; then
        n=$(git show "$rev:$f" | count)
    else
        n=$(count <"$f")
    fi
    printf '%6d %s\n' "$n" "$f"
done | sort -rn)

echo "non-test lines: $(awk '{ s += $1 } END { print s }' <<<"$counts")"
head -n "$top" <<<"$counts"
