#!/usr/bin/env bash
# bench_scaling.sh [N] — the scaling check of ROADMAP item 12: does a
# second pipe pay for itself on this host? N untraced runs each of
# bench/run.sh's `elephants` (one shard) and `elephants_2shard` (the same
# stream through two), alternated so that drift of the host falls on
# both, then each side's median and min–max of ingest_mpps and the ratio
# of the medians. Exits 1 when the host has at least two CPUs and two
# shards came out slower than one (negative scaling); on one CPU the
# ratio is printed and nothing is judged. Timing, so it runs nightly and
# by hand, not in `make ci`.
#
# Environment: SEED (42), RUN_SECONDS (6, BENCHMARK.json's run length).
set -euo pipefail

runs=${1:-5}
seed=${SEED:-42}
seconds=${RUN_SECONDS:-6}

cd "$(git rev-parse --show-toplevel)"

# reading WORKLOAD: ingest_mpps of one untraced run. A run that fails a
# check stops the script.
reading() {
	bash bench/run.sh --workload "$1" --seed "$seed" --seconds "$seconds" --trace 0 |
		tail -n 1 | sed -E 's/.*"ingest_mpps":\{"value":([^,}]*).*/\1/'
}

one=() two=()
for i in $(seq 1 "$runs"); do
	if [ $((i % 2)) -eq 1 ]; then
		one+=("$(reading elephants)")
		two+=("$(reading elephants_2shard)")
	else
		two+=("$(reading elephants_2shard)")
		one+=("$(reading elephants)")
	fi
	echo "run $i: ingest_mpps elephants ${one[-1]} elephants_2shard ${two[-1]}"
done

# summary VALUE...: "median min max" of the readings.
summary() {
	printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 }
		END { m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; print m, v[1], v[NR] }'
}
read -r med1 min1 max1 <<<"$(summary "${one[@]}")"
read -r med2 min2 max2 <<<"$(summary "${two[@]}")"
cpus=$(nproc)
awk -v m1="$med1" -v lo1="$min1" -v hi1="$max1" -v m2="$med2" -v lo2="$min2" -v hi2="$max2" \
	-v n="$runs" -v seed="$seed" -v cpus="$cpus" 'BEGIN {
	printf "elephants        ingest_mpps median %.2f (%.2f–%.2f), n=%d, seed %s\n", m1, lo1, hi1, n, seed
	printf "elephants_2shard ingest_mpps median %.2f (%.2f–%.2f), n=%d, seed %s\n", m2, lo2, hi2, n, seed
	printf "two shards / one shard = %.2f on %d CPUs\n", m2 / m1, cpus
	if (cpus >= 2 && m2 < m1) {
		print "negative scaling: two pipes are slower than one"
		exit 1
	}
}'
