#!/bin/sh
# Prints, per crate under crates/, the non-test lines, the `pub fn`s and
# the public types among them, then the totals.
#
# A src file's non-test lines are the lines before its first
# `#[cfg(test)]` (all of it when there is none). A `pub fn` is a line
# whose first token is `pub fn`, `pub const fn` or `pub unsafe fn`; a
# public type is a line whose first token is `pub struct`, `pub enum`,
# `pub trait` or `pub type`. `pub(crate)` and other restricted items do
# not count. Tests under crates/*/tests are not counted.
#
# Usage: scripts/count_lines.sh [repo root]   (default: the current directory)
set -eu
cd "${1:-.}"
printf '%-12s %8s %7s %8s\n' crate lines pub_fn pub_type
for dir in crates/*/; do
    name=$(basename "$dir")
    find "$dir/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test {
            lines++
            if ($0 ~ /^[[:space:]]*pub (const |unsafe )?fn /) pub_fn++
            if ($0 ~ /^[[:space:]]*pub (struct|enum|trait|type) /) pub_type++
        }
        END { printf "%d %d %d\n", lines, pub_fn, pub_type }
    ' | while read -r lines pub_fn pub_type; do
        printf '%-12s %8d %7d %8d\n' "$name" "$lines" "$pub_fn" "$pub_type"
    done
done | awk '
    { print; lines += $2; pub_fn += $3; pub_type += $4 }
    END { printf "%-12s %8d %7d %8d\n", "total", lines, pub_fn, pub_type }
'
