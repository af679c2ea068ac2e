#!/bin/sh
# Prints, per crate under crates/, the non-test lines, the `pub fn`s and
# the public types among them, then the totals.
#
# A `#[cfg(test)]` that marks a `mod` starts a src file's test region,
# which runs to the end of the file. A `#[cfg(test)]` that marks any
# other item (a test-only helper fn, a `use`) leaves out that item alone:
# its attribute lines, then its lines up to the `}` that closes it or,
# for an item without a body, up to its `;`. Every other line is a
# non-test line. A `pub fn` is a line whose first token is `pub fn`,
# `pub const fn` or `pub unsafe fn`; a public type is a line whose first
# token is `pub struct`, `pub enum`, `pub trait` or `pub type`.
# `pub(crate)` and other restricted items do not count. Tests under
# crates/*/tests are not counted.
#
# Usage: scripts/count_lines.sh [repo root]   (default: the current directory)
set -eu
cd "${1:-.}"
printf '%-12s %8s %7s %8s\n' crate lines pub_fn pub_type
for dir in crates/*/; do
    name=$(basename "$dir")
    find "$dir/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_test = 0; marked = 0; in_item = 0 }
        in_test { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { marked = 1; next }
        marked && /^[[:space:]]*#\[/ { next }
        marked && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { in_test = 1; next }
        marked { marked = 0; in_item = 1; depth = 0; opened = 0 }
        in_item {
            braces = gsub(/\{/, "{")
            depth += braces - gsub(/\}/, "}")
            if (braces > 0) opened = 1
            if (depth <= 0 && (opened || /;/)) in_item = 0
            next
        }
        {
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
