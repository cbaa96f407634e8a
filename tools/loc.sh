#!/usr/bin/env bash
# Go line counts per package, non-test and test (`*_test.go`) apart: the
# one way every "LoC down by N" criterion in ISSUE.md and ROADMAP.md is
# checked. Plain `wc -l` lines — blanks and comments count, so deleting a
# comment or reflowing code moves the number; reviewers read the diff for
# that. benchmark/ is its own module under its own contract and is left
# out. Prints a markdown table (CI appends it to the step summary).
#
#   tools/loc.sh          (or: make loc)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

echo "| package | non-test | test |"
echo "|---|---:|---:|"
find . \( -path ./benchmark -o -name '.?*' \) -prune -o -name '*.go' -print0 | xargs -0 wc -l | awk '
	$2 == "total" { next }
	{
		f = $2; sub(/^\.\//, "", f)
		dir = f; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		t = f ~ /_test\.go$/
		n[dir, t] += $1; seen[dir] = 1; tot[t] += $1
	}
	END {
		for (p in seen) printf "| %s | %d | %d |\n", p, n[p, 0], n[p, 1] | "sort"
		close("sort")
		printf "| **total** | %d | %d |\n", tot[0], tot[1]
	}'
