#!/bin/sh
# Non-test Rust line counts, by the one rule CHANGES.md entries quote: a
# source file counts the lines above its first `#[cfg(test)]` (all of its
# lines if it has none). Files under a `tests/` directory are counted apart,
# whole. `crates/vendor` and `perfbench` are not counted.
#
#   scripts/loc.sh           one row per crate (src/ and tests/), then totals
#   scripts/loc.sh PATH...   the non-test lines of the given files and
#                            directories, one row each, then their sum
#
# Uses only POSIX sh, find and awk.
set -eu
cd "$(dirname "$0")/.."

# Non-test lines of every .rs file under the given paths.
nontest() {
    find "$@" -name '*.rs' -type f -exec awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

# All lines of every .rs file under the given paths.
whole() {
    find "$@" -name '*.rs' -type f -exec cat {} + | wc -l | tr -d ' '
}

if [ "$#" -gt 0 ]; then
    sum=0
    for path in "$@"; do
        n=$(nontest "$path")
        printf '%-60s %7d\n' "$path" "$n"
        sum=$((sum + n))
    done
    printf '%-60s %7d\n' total "$sum"
    exit 0
fi

printf '%-24s %7s %7s\n' crate src tests
src_sum=0
tests_sum=0
for dir in . crates/*; do
    [ "$dir" = crates/vendor ] && continue
    [ -d "$dir/src" ] || continue
    src=$(nontest "$dir/src")
    tests=0
    [ -d "$dir/tests" ] && tests=$(whole "$dir/tests")
    name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$dir/Cargo.toml")
    printf '%-24s %7d %7d\n' "$name" "$src" "$tests"
    src_sum=$((src_sum + src))
    tests_sum=$((tests_sum + tests))
done
printf '%-24s %7d %7d\n' total "$src_sum" "$tests_sum"
