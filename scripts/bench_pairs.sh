#!/usr/bin/env bash
# bench_pairs.sh BASE WORKLOAD [N] — the paired measurement a performance
# claim rests on (ROADMAP item 1's "interleaved merge-base vs HEAD"):
# N runs of bench/run.sh on BASE and N on this checkout, one workload,
# alternating which side goes first so that drift of the host falls on
# both; then each pair's reading of METRIC and bench's own -compare over
# all 2N runs. BASE is exported into .bench_build/ (git-ignored) and
# built there by its own bench/run.sh; nothing else is written.
#
# Environment: SEED (42; several, as in SEED="42 2026", run N pairs and
# one verdict per seed — the second is how "holds on a seed not used
# during development" is checked), RUN_SECONDS (6, BENCHMARK.json's run
# length), METRIC (ingest_mpps: the end-to-end metric whose pairs are
# counted).
set -euo pipefail

base_rev=${1:?usage: bench_pairs.sh BASE WORKLOAD [N]}
workload=${2:?usage: bench_pairs.sh BASE WORKLOAD [N]}
pairs=${3:-10}
seeds=${SEED:-42}
seconds=${RUN_SECONDS:-6}
metric=${METRIC:-ingest_mpps}

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base_rev^{commit}")
head_sha=$(git rev-parse HEAD)
git diff --quiet HEAD -- || head_sha="$head_sha+uncommitted"
work="$root/.bench_build/pairs"
base_dir="$work/base-$base_sha"
# One exported base at a time: another BASE's tree copy goes, this one's
# is refreshed in place (so repeated calls with one BASE reuse its build).
for d in "$work"/base-*; do
	[ "$d" = "$base_dir" ] || rm -rf "$d"
done
mkdir -p "$base_dir"
git archive "$base_sha" | tar -x -C "$base_dir"

# run SIDE DIR COMMIT I: one untraced run; keeps the full result for
# -compare and the contract line for the per-pair table. A run that
# fails a check stops the script.
run() {
	(cd "$2" && BENCH_GIT_COMMIT=$3 bash bench/run.sh --workload "$workload" \
		--seed "$seed" --seconds "$seconds" --trace 0 \
		--detail "$work/runs/$1-$4.json") | tail -n 1 >"$work/runs/$1-$4.line"
}

# reading SIDE I: the metric's value in a run's contract line.
reading() {
	sed -E "s/.*\"$metric\":\{\"value\":([^,}]*).*/\1/" "$work/runs/$1-$2.line"
}

# results SIDE COMMIT: the runs of one side as a file -compare reads.
results() {
	printf '{"host":{"git_commit":"%s"},"seed":%s,"seconds":%s,"runs":[' "$2" "$seed" "$seconds"
	sep=
	for f in "$work/runs/$1"-*.json; do
		printf '%s' "$sep"
		cat "$f"
		sep=,
	done
	printf ']}\n'
}

case $metric in
ingest_mpps | reports_per_s) ahead='h > b' ;;
*) ahead='h < b' ;;
esac

regressed=0
for seed in $seeds; do
	echo "seed $seed"
	rm -rf "$work/runs"
	mkdir -p "$work/runs"
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$base_dir" "$base_sha" "$i"
			run head "$root" "$head_sha" "$i"
		else
			run head "$root" "$head_sha" "$i"
			run base "$base_dir" "$base_sha" "$i"
		fi
		echo "pair $i: $metric base $(reading base "$i") head $(reading head "$i")"
	done
	results base "$base_sha" >"$work/base.json"
	results head "$head_sha" >"$work/head.json"

	for i in $(seq 1 "$pairs"); do
		echo "$(reading base "$i") $(reading head "$i")"
	done | awk "{ b = \$1; h = \$2; if ($ahead) wins++; else if (h != b) losses++ }
		END { printf \"$metric on $workload: head ahead in %d of %d pairs, behind in %d\n\", wins, NR, losses }"

	# -compare lists every workload of BENCHMARK.json and fails on the ones
	# a side lacks; this script ran one, so only its rows are kept and only
	# a regression on them fails.
	verdict=$("$root/.bench_build/p4bench" -compare "$work/base.json" "$work/head.json" | grep -v ' MISSING ' || true)
	echo "$verdict"
	if grep -q REGRESSED <<<"$verdict"; then
		regressed=1
	fi
done
[ "$regressed" -eq 0 ]
