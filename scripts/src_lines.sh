#!/usr/bin/env sh
# Count the C++ lines (*.cpp, *.hpp) under src/ at a base ref and in the
# working tree, and print the difference: the net src/ line count a change
# reports in CHANGES.md.
#
# Usage: scripts/src_lines.sh [base-ref]    (default: HEAD)
#
# The working-tree count includes uncommitted and untracked files.
set -eu

base=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"

base_lines=$(git archive "$base" src |
  tar -xO --wildcards '*.cpp' '*.hpp' 2>/dev/null | wc -l)
tree_lines=$(find src -type f \( -name '*.cpp' -o -name '*.hpp' \) \
  -exec cat {} + | wc -l)

echo "src/ lines at $base: $base_lines"
echo "src/ lines in working tree: $tree_lines"
echo "net: $((tree_lines - base_lines))"
