#!/usr/bin/env bash
# bench_pairs.sh BASE WORKLOAD [N] — the paired measurement a performance
# claim rests on (ROADMAP item 17's trajectory of interleaved pairs):
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
#
# Each seed's result is also appended as one row to PERF_LEDGER.tsv at
# the root of the checkout, the speed trajectory a PR commits its claim
# rows to. A row holds the date, the head and base commits, workload,
# seed, metric and N; each side's median and interquartile distance (as
# a percentage of that median); the pairs the head won and -compare's
# status for the metric; the CPU model and nproc; each side's median
# calibration_mb_per_s (the CRC-32 kernel bench/host.go runs around
# every run) and the metric divided by it; and "pairs" as its source
# (rows backfilled from CHANGES.md say "prose" and have no calibration).
# A dirty checkout is recorded as HEAD's commit with "+uncommitted": the
# change measured is the child of that commit which carries the row.
# Neither the ledger's own rows nor Markdown files make a checkout dirty
# (nothing bench/run.sh builds reads Markdown: its one go:embed is
# bench/golden/*.json), so a chain of calls on a clean commit names the
# bare commit in every row, and so do runs while only docs are edited.
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
git diff --quiet HEAD -- . ':(exclude)PERF_LEDGER.tsv' ':(exclude)*.md' || head_sha="$head_sha+uncommitted"
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

# calibration SIDE I: the mean of the calibration kernel's readings
# (before and after the run) in a run's detail file, in MB/s.
calibration() {
	awk '/"calibration_mb_per_s"/ { on = 1; next }
		on && /\]/ { on = 0 }
		on { gsub(/[ ,]/, ""); sum += $0; n++ }
		END { if (n) printf "%.6g\n", sum / n }' "$work/runs/$1-$2.json"
}

# quartiles: the median and the interquartile distance of the numbers
# on stdin, one per line, with bench's rule (Python's
# statistics.quantiles, exclusive method); "median iqr".
quartiles() {
	sort -g | awk '{ s[NR] = $1 }
		function cut(i,   m, j, d) {
			m = NR + 1; j = int(i * m / 4)
			if (j < 1) j = 1
			if (j > NR - 1) j = NR - 1
			d = i * m - j * 4
			return (s[j] * (4 - d) + s[j + 1] * d) / 4
		}
		END {
			med = NR % 2 ? s[(NR + 1) / 2] : (s[NR / 2] + s[NR / 2 + 1]) / 2
			printf "%.6g %.6g\n", med, (NR > 1 ? cut(3) - cut(1) : 0)
		}'
}

ledger="$root/PERF_LEDGER.tsv"
cpu_model=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
cpu_model=${cpu_model:-unknown}

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
		END { printf \"$metric on $workload: head ahead in %d of %d pairs, behind in %d\n\", wins, NR, losses }" |
		tee "$work/ahead"

	# -compare lists every workload of BENCHMARK.json and fails on the ones
	# a side lacks; this script ran one, so only its rows are kept and only
	# a regression on them fails.
	verdict=$("$root/.bench_build/p4bench" -compare "$work/base.json" "$work/head.json" | grep -v ' MISSING ' || true)
	echo "$verdict"
	if grep -q REGRESSED <<<"$verdict"; then
		regressed=1
	fi

	# The ledger row: both sides' median and interquartile distance (as a
	# percentage of the median), the pairs won, -compare's status for the
	# metric, the host, each side's median calibration and the metric per
	# calibration unit.
	read -r bmed biqr < <(for i in $(seq 1 "$pairs"); do reading base "$i"; done | quartiles)
	read -r hmed hiqr < <(for i in $(seq 1 "$pairs"); do reading head "$i"; done | quartiles)
	read -r bcal _ < <(for i in $(seq 1 "$pairs"); do calibration base "$i"; done | quartiles)
	read -r hcal _ < <(for i in $(seq 1 "$pairs"); do calibration head "$i"; done | quartiles)
	won=$(awk '{ print $7 "/" $9 }' "$work/ahead")
	status=$(awk -v w="$workload" -v m="$metric" '$1 == w && $2 == m { print $(NF-1); exit }' <<<"$verdict")
	if [ ! -s "$ledger" ]; then
		printf 'date\thead\tbase\tworkload\tseed\tmetric\tn\tbase_median\tbase_iqr_pct\thead_median\thead_iqr_pct\tpairs_ahead\tverdict\tcpu_model\tnproc\tbase_calibration_mb_s\thead_calibration_mb_s\tbase_per_calibration\thead_per_calibration\tsource\n' >"$ledger"
	fi
	awk -v OFS='\t' -v date="$(date -u +%F)" -v head="$head_sha" -v base="$base_sha" -v w="$workload" \
		-v seed="$seed" -v m="$metric" -v n="$pairs" -v bmed="$bmed" -v biqr="$biqr" -v hmed="$hmed" \
		-v hiqr="$hiqr" -v won="$won" -v status="${status:-unknown}" -v cpu="$cpu_model" -v nproc="$(nproc)" \
		-v bcal="${bcal:-0}" -v hcal="${hcal:-0}" 'function ratio(a, b, f) { return b == 0 ? "-" : sprintf(f, a / b) }
		BEGIN {
			print date, head, base, w, seed, m, n, bmed, ratio(100 * biqr, bmed, "%.1f"), hmed,
				ratio(100 * hiqr, hmed, "%.1f"), won, status, cpu, nproc, bcal, hcal,
				ratio(bmed, bcal, "%.6g"), ratio(hmed, hcal, "%.6g"), "pairs"
		}' >>"$ledger"
	echo "ledger: appended $workload seed $seed $metric to PERF_LEDGER.tsv"
done
[ "$regressed" -eq 0 ]
