#!/usr/bin/env bash
# Net line count of the workspace's Rust sources, reported (not gated)
# so a change's size can be compared with its parent's.
#
#   non-test lines: every `.rs` line under `src/` and `crates/*/src/`,
#                   each file counted up to its first `#[cfg(test)]` line;
#   test lines:     the rest of those files, plus every `.rs` line under
#                   `tests/` and `crates/*/tests/`.
#
# Run from anywhere; counts the checkout the script lives in.
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints "<non-test> <in-file test>" for the given files; summed again
# because xargs may split a long file list over several awk runs.
split_counts() {
  xargs -0 awk '
    FNR == 1 { testing = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { testing = 1 }
    { if (testing) t++; else n++ }
    END { print n + 0, t + 0 }' |
    awk '{ n += $1; t += $2 } END { print n + 0, t + 0 }'
}

read -r non_test in_file_tests < <(find src crates/*/src -type f -name '*.rs' -print0 | split_counts)
test_files=$(find tests crates/*/tests -type f -name '*.rs' -print0 | xargs -0 cat | wc -l)

echo "non-test lines: ${non_test}"
echo "test lines: $((in_file_tests + test_files))"
