#!/usr/bin/env bash
# Paired runs of one BENCHMARK.json workload, parent against change, the
# way a claimed gain has to be measured in a small sandbox
# (choosing-metrics section 8): N pairs, the side that runs first
# alternating, one fresh seed per pair shared by both sides, tracing off.
# Prints, per end-to-end metric, each side's median and quartiles, the
# ratio of the medians, how many pairs the change won (ties count for
# neither side), and whether that is a claimable gain: at least nine
# tenths of the pairs won and the medians further apart than the parent's
# own quartiles.
#
#   tools/benchpairs.sh WORKLOAD BASE [N]     (or: make benchmark-pairs ...)
#
# BASE is a revision, checked out into a temporary git worktree that is
# removed afterwards, or a directory that already holds a checkout. The
# change is the working tree this script sits in, uncommitted edits
# included. Each side builds and runs its own benchmark/ with its own
# benchmark/run.sh; nothing under benchmark/ is touched.
set -euo pipefail

workload="${1:-}" base="${2:-}" pairs="${3:-10}"
if [ -z "$workload" ] || [ -z "$base" ]; then
	echo "usage: $0 WORKLOAD BASE [N]" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Run length is the benchmark's, the same on both sides.
seconds="$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' "$root/BENCHMARK.json")"

if [ -d "$base" ]; then
	parent="$(cd "$base" && pwd)"
else
	parent="$(mktemp -d "${TMPDIR:-/tmp}/benchpairs.XXXXXX")"
	git -C "$root" worktree add --detach --quiet "$parent" "$base"
	trap 'git -C "$root" worktree remove --force "$parent"' EXIT
fi
echo "workload $workload: $pairs pairs of ${seconds} s runs"
echo "parent   $parent ($(git -C "$parent" rev-parse --short HEAD 2>/dev/null || echo "no git"))"
echo "change   $root (working tree)"

# name:better for every end-to-end metric BENCHMARK.json declares.
metrics="$(awk '
	/"end_to_end"/ { on = 1 }
	/"per_layer"/  { on = 0 }
	on && /"name"/   { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name ":" $2 }
' "$root/BENCHMARK.json")"

# run DIR SEED: one run; prints the contract line (the last line of stdout).
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) | tail -n 1
}

# field LINE KEY: a top-level number, or a metric's value, out of the contract line.
field() {
	printf '%s\n' "$1" | grep -o "\"$2\":\({\"value\":\)\?[-0-9.eE+]*" | head -n 1 | sed 's/.*://'
}

seed0="$(date +%s)"
parent_lines=() change_lines=()
for ((i = 1; i <= pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2)); then
		p="$(run "$parent" "$seed")"
		c="$(run "$root" "$seed")"
	else
		c="$(run "$root" "$seed")"
		p="$(run "$parent" "$seed")"
	fi
	parent_lines+=("$p") change_lines+=("$c")
	echo "pair $i seed $seed: ops_per_s parent $(field "$p" ops_per_s) change $(field "$c" ops_per_s);" \
		"failed parent $(field "$p" failed)/$(field "$p" attempted) change $(field "$c" failed)/$(field "$c" attempted)"
done

printf '\n%-12s %-7s %-34s %-34s %-8s %-6s %s\n' metric better "parent median [q1, q3]" "change median [q1, q3]" ratio wins claimable
for m in $metrics; do
	name="${m%%:*}" better="${m##*:}"
	for ((i = 0; i < pairs; i++)); do
		echo "$(field "${parent_lines[i]}" "$name") $(field "${change_lines[i]}" "$name")"
	done | awk -v name="$name" -v better="$better" '
		# Quantile by linear interpolation between order statistics.
		function quantile(v, n, q,    pos, lo) {
			pos = (n - 1) * q; lo = int(pos)
			return lo + 1 >= n ? v[n] : v[lo + 1] + (pos - lo) * (v[lo + 2] - v[lo + 1])
		}
		function sorted(src, dst, n,    i, j, t) {
			for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
		}
		{
			n++; p[n] = $1; c[n] = $2
			if (better == "higher" ? $2 > $1 : $2 < $1) wins++
		}
		END {
			sorted(p, ps, n); sorted(c, cs, n)
			pm = quantile(ps, n, 0.5); p1 = quantile(ps, n, 0.25); p3 = quantile(ps, n, 0.75)
			cm = quantile(cs, n, 0.5); c1 = quantile(cs, n, 0.25); c3 = quantile(cs, n, 0.75)
			gap = cm - pm; if (gap < 0) gap = -gap
			improved = better == "higher" ? cm > pm : cm < pm
			claim = (wins >= 0.9 * n && improved && gap > p3 - p1) ? "yes" : "no"
			printf "%-12s %-7s %-34s %-34s %-8s %-6s %s\n", name, better,
				sprintf("%.4g [%.4g, %.4g]", pm, p1, p3), sprintf("%.4g [%.4g, %.4g]", cm, c1, c3),
				sprintf("%.2fx", pm ? cm / pm : 0), wins + 0 "/" n, claim
		}'
done
