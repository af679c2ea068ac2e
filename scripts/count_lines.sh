#!/bin/sh
# Prints, per crate under crates/, the non-test lines and the `pub fn`s
# among them, then the totals.
#
# A src file's non-test lines are the lines before its first
# `#[cfg(test)]` (all of it when there is none). A `pub fn` is a line
# whose first token is `pub fn`, `pub const fn` or `pub unsafe fn`;
# `pub(crate)` and other restricted items do not count. Tests under
# crates/*/tests are not counted.
#
# Usage: scripts/count_lines.sh [repo root]   (default: the current directory)
set -eu
cd "${1:-.}"
printf '%-12s %8s %7s\n' crate lines pub_fn
for dir in crates/*/; do
    name=$(basename "$dir")
    find "$dir/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test {
            lines++
            if ($0 ~ /^[[:space:]]*pub (const |unsafe )?fn /) pub_fn++
        }
        END { printf "%d %d\n", lines, pub_fn }
    ' | while read -r lines pub_fn; do
        printf '%-12s %8d %7d\n' "$name" "$lines" "$pub_fn"
    done
done | awk '
    { print; lines += $2; pub_fn += $3 }
    END { printf "%-12s %8d %7d\n", "total", lines, pub_fn }
'
