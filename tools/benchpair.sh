#!/usr/bin/env bash
# Paired benchmark runs of a parent revision against the working tree.
#
#	tools/benchpair.sh <parent-rev> <workload|all> [pairs=10]
#
# The parent is exported with `git archive` into a temporary directory
# (nothing is registered in .git) and both sides are built and run by
# their own bench/run.sh. Pair n runs both sides with --seed n
# --seconds 10 --trace 0, the parent first when n is odd and the change
# first when n is even. For every end-to-end metric of BENCHMARK.json the
# report gives both medians, both quartile pairs, the pairs the change
# won (ties count for neither side), the verdict against the metric's
# bound, and the change's min-max spread in the metric's own unit beside
# bound x the parent's median - the width an acceptance run may hold
# against a change however large its gain. Failed operations and every
# single run are listed under each table. The report is markdown on
# stdout; progress goes to stderr.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	sed -n '2,4p' "$0" >&2
	exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/runs"
git -C "$root" archive "$parent_rev" | tar -x -C "$tmp/parent"

if [ "$workload" = all ]; then
	workloads=$(sed -n '/"workloads"/,/\]/p' "$root/BENCHMARK.json" | sed -n 's/.*"name": *"\([^"]*\)".*/\1/p')
else
	workloads=$workload
fi

# run <side> <dir> <workload> <seed>: the contract's JSON line, one file per run.
run() {
	echo "  $1 $3 seed $4" >&2
	(cd "$2" && bash bench/run.sh --workload "$3" --seed "$4" --seconds 10 --trace 0) | tail -n 1 >"$tmp/runs/$3.$1.$4"
}

for w in $workloads; do
	for seed in $(seq 1 "$pairs"); do
		if [ $((seed % 2)) -eq 1 ]; then
			run parent "$tmp/parent" "$w" "$seed"
			run change "$root" "$w" "$seed"
		else
			run change "$root" "$w" "$seed"
			run parent "$tmp/parent" "$w" "$seed"
		fi
	done
done

echo "Parent $(git -C "$root" rev-parse --short "$parent_rev") against the working tree, $pairs alternating pairs, seeds 1..$pairs, --seconds 10 --trace 0."
for w in $workloads; do
	# The metric definitions (name, better, bound) come first on awk's input,
	# then one line per run: side, seed, JSON.
	{
		sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" | tr -d ' \n' | tr '}' '\n' |
			sed -n 's/.*"name":"\([^"]*\)".*"better":"\([^"]*\)","bound":\([0-9.]*\).*/def \1 \2 \3/p'
		for seed in $(seq 1 "$pairs"); do
			for side in parent change; do
				echo "run $side $seed $(cat "$tmp/runs/$w.$side.$seed")"
			done
		done
	} | awk -v workload="$w" -v pairs="$pairs" '
	function value(json, name,    at) {
		if (!match(json, "\"" name "\":\\{\"value\":[-+0-9.eE]+")) return "nan"
		at = RSTART + length(name) + 12
		return substr(json, at, RSTART + RLENGTH - at) + 0
	}
	# sorted copies the side s values of metric m into v[1..pairs], ascending.
	function sorted(m, s, v,    i, j, t) {
		for (i = 1; i <= pairs; i++) v[i] = val[m, s, i]
		for (i = 2; i <= pairs; i++) for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	}
	# quantile interpolates linearly between order statistics.
	function quantile(v, q,    h, lo) {
		h = (pairs - 1) * q + 1; lo = int(h)
		if (lo >= pairs) return v[pairs]
		return v[lo] + (h - lo) * (v[lo+1] - v[lo])
	}
	$1 == "def" { n++; name[n] = $2; better[n] = $3; bound[n] = $4 }
	$1 == "run" {
		side = $2; seed = $3; json = $0; sub(/^run [a-z]+ [0-9]+ /, "", json)
		for (m = 1; m <= n; m++) val[m, side, seed] = value(json, name[m])
		match(json, "\"attempted\":[0-9]+"); attempted[side] += substr(json, RSTART + 12, RLENGTH - 12)
		match(json, "\"failed\":[0-9]+"); failed[side] += substr(json, RSTART + 9, RLENGTH - 9)
		if (json !~ /"correct":true/) incorrect[side]++
	}
	END {
		printf "\n### %s\n\n", workload
		print "| metric | parent median [Q1, Q3] | change median [Q1, Q3] | change / parent | pairs won | bound | verdict | change min-max spread | bound x parent median |"
		print "|---|---|---|---|---|---|---|---|---|"
		for (m = 1; m <= n; m++) {
			sorted(m, "parent", p); sorted(m, "change", c)
			pm = quantile(p, 0.5); cm = quantile(c, 0.5)
			won = 0; lost = 0
			for (i = 1; i <= pairs; i++) {
				d = val[m, "change", i] - val[m, "parent", i]
				if (better[m] == "lower") d = -d
				if (d > 0) won++; else if (d < 0) lost++
			}
			worse = (better[m] == "lower") ? cm - pm : pm - cm
			iqr = quantile(p, 0.75) - quantile(p, 0.25)
			verdict = "within bound"
			if (worse > bound[m] * pm) verdict = "WORSE THAN BOUND"
			else if (-worse > iqr && won * 10 >= pairs * 9) verdict = "better (beyond parent IQR, >= 9/10 pairs)"
			spread = c[pairs] - c[1]
			printf "| %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f | %d of %d (%d lost) | %g | %s | %.4g%s | %.4g |\n", \
				name[m], pm, quantile(p, 0.25), quantile(p, 0.75), cm, quantile(c, 0.25), quantile(c, 0.75), \
				(pm != 0) ? cm / pm : 0, won, pairs, lost, bound[m], verdict, \
				spread, (spread > bound[m] * pm) ? " (WIDER)" : "", bound[m] * pm
		}
		printf "\nFailed operations: parent %d of %d, change %d of %d; runs not `correct`: parent %d, change %d.\n", \
			failed["parent"], attempted["parent"], failed["change"], attempted["change"], incorrect["parent"], incorrect["change"]
		printf "\nEvery run (parent / change per seed):\n\n| metric |"
		for (i = 1; i <= pairs; i++) printf " %d |", i
		printf "\n|---|"
		for (i = 1; i <= pairs; i++) printf "---|"
		print ""
		for (m = 1; m <= n; m++) {
			printf "| %s |", name[m]
			for (i = 1; i <= pairs; i++) printf " %.4g / %.4g |", val[m, "parent", i], val[m, "change", i]
			print ""
		}
	}'
done
