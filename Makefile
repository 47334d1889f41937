# Convenience targets mirroring the CI gate (.github/workflows/ci.yml).

GO ?= go

# The coverage ratchet: `make cover` (and CI's cover job) fails when
# total statement coverage drops below this. Raise it in the PR that
# raises coverage; never lower it to make a build pass.
COVER_MIN = 79.0

.PHONY: all build vet test race bench-test bench-pairs bench-scaling lint unreached chaos cover obs scale federation docs witness ci

all: ci

# build also cross-compiles for darwin (unix, mapped pipe state) and
# windows (internal/sram's make fallback): internal/sram has a unix
# file and a !unix file, and the tests run on Linux only, so these
# builds are what keeps the other two compiling. CI's build step runs
# this target.
build:
	$(GO) build ./...
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

# vet also fails when a tracked Go file is not gofmt-clean.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# -shuffle=on runs tests in random order (the seed is printed), so a
# test that leans on another's side effects fails instead of passing by
# order; the experiment tests share cached runs across parallel tests.
test:
	$(GO) test -shuffle=on ./...

# The race-instrumented experiment simulations are the slow package:
# `go test -race ./internal/experiments` took 138 s (2 m 22 s of wall
# time with the build) on a 2-vCPU host with its tests in parallel. A
# 1-CPU runner gets no overlap, so the timeout is raised past go test's
# 10-minute default.
race:
	$(GO) test -race -shuffle=on -timeout 30m ./...

# bench-test builds and tests the benchmark module. bench/ is a module
# of its own (BENCHMARK.json's contract), so `./...` above never
# compiles it, yet it is written against the data-plane, control-plane
# and archiver API of this module: this target is what notices when a
# change here breaks it. Every workload runs at about 1/1000 scale with
# all its checks.
bench-test:
	(cd bench && $(GO) vet ./... && $(GO) test -race ./...)

# bench-pairs is how a performance claim is measured: N interleaved
# runs of one benchmark workload on BASE and on this checkout,
# alternating which side goes first, then bench's own -compare (median
# delta against BENCHMARK.json's bound, spread of each side) and the
# count of pairs this checkout won. BASE is built in .bench_build/.
#   make bench-pairs BASE=HEAD~1 W=elephants N=10
#   SEED="42 2026" make bench-pairs ...   (N pairs and a verdict per seed)
BASE ?= HEAD~1
W ?= elephants
N ?= 10
bench-pairs:
	bash scripts/bench_pairs.sh $(BASE) $(W) $(N)

# bench-scaling asks whether a second pipe pays for itself on this
# host: N alternated runs of `elephants` (one shard) and
# `elephants_2shard`, both medians and their ratio; fails on negative
# scaling when there are at least two CPUs. Timing, so the nightly
# workflow runs it, not `make ci`.
#   make bench-scaling N=5
bench-scaling:
	bash scripts/bench_scaling.sh $(N)

# lint runs the six p4lint passes over one load of the module (parsed
# and type-checked once, call graph built once) and fails on any
# finding, a package that does not type-check included. Lock values
# copied by value are `vet`'s copylocks check. Inside GitHub Actions it
# emits ::error annotations so findings land inline on the PR diff.
lint:
	$(GO) run ./cmd/p4lint $(if $(GITHUB_ACTIONS),-gha) ./...

# unreached fails on a non-test function that no root (cmd/*,
# examples/*, the bench module) reaches in the linker's own dead-code
# graph, unless DESIGN.md §6.1 keeps it with a reason.
unreached:
	bash scripts/unreached.sh

# chaos runs the fault-injection suites under the race detector: the
# faultnet harness itself, the scripted-outage shipper tests, the
# archiver ingest robustness tests, the config-channel fault tests and
# the generation store's; then, from internal/experiments, the
# end-to-end outage (TestExtOutage*) and reconfiguration (TestReconfig*)
# scenarios.
chaos:
	$(GO) test -race -timeout 30m ./internal/faultnet ./internal/resilient ./internal/psarchiver ./internal/psconfig ./internal/genconfig
	$(GO) test -race -timeout 30m -run 'TestExtOutage|TestReconfig' ./internal/experiments

# cover measures statement coverage across every package and enforces
# the ratchet. go test's own per-package "coverage:" lines are kept in
# cover-by-package.txt (CI uploads it with cover.out); a failing test
# prints that output and fails the target. The total is one sum over
# the profile: each block (file:span) counted once, its statements
# covered when any line for it has a count above 0.
cover:
	$(GO) test ./... -coverprofile=cover.out -timeout 30m > cover-by-package.txt || { cat cover-by-package.txt; exit 1; }
	@cat cover-by-package.txt
	@awk -v min=$(COVER_MIN) 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
	END { for (b in n) { t += n[b]; if (b in hit) c += n[b] }; pct = t ? 100 * c / t : 0; \
	printf "total: %.1f%% (%d/%d stmts), ratchet minimum %s%%\n", pct, c, t, min; exit !(t && pct >= min) }' cover.out

# obs gates the self-telemetry layer: the exposition-format golden and
# trace-ring ordering tests under the race detector, the mid-outage
# /metrics ladder-invariant scrape test, and the zero-alloc assertions
# proving instrumentation adds nothing to the packet path (these last
# run without -race, whose instrumented allocator would distort them).
obs:
	$(GO) test -race -timeout 30m ./internal/obs
	$(GO) test -race -timeout 30m -run 'TestExtOutageObsInvariant' ./internal/experiments
	$(GO) test -run 'TestAllocFree' -count=1 .

# scale gates the memory-bounded telemetry tier: the sketch, admission
# and aging suites under the race detector, then the CI-sized
# accuracy-vs-memory sweep (10k–200k flows) via the batch front-end at
# two seeds, each its own flow population audited against the oracle.
# The nightly workflow runs the same sweep to the 1M-flow paper point.
scale:
	$(GO) test -race -timeout 30m ./internal/sketch
	$(GO) test -race -timeout 30m -run 'TestAdmission|TestAgeFlows|TestRTTHist|TestRTTBucket|TestFlowTableMemory' ./internal/dataplane
	$(GO) test -race -timeout 30m -run 'TestScaleSweep' ./internal/experiments
	$(GO) run ./cmd/p4psonar run scale
	$(GO) run ./cmd/p4psonar run -seed 2026 scale

# federation runs the fleet scenario end to end: the CI-sized 2×2
# topology under -race (member partition, spill and replay, exact
# cross-site accounting, byte-stable witness), then the CLI wiring
# through cmd/p4psonar. The nightly workflow runs the 10-switch -paper
# topology.
federation:
	$(GO) test -race -timeout 10m -run 'TestRunFederation|TestFederationPaper' ./internal/experiments
	$(GO) run ./cmd/p4psonar run federation

# docs keeps the prose honest: every make target, CLI flag and obs
# metric name in the five docs' code regions must exist (Makefile
# targets, flag registrations in cmd/, the generated metrics
# inventory), and every line of a fence that names a results/ file must
# be a line of that file. CI's docs job runs this.
docs:
	$(GO) run ./cmd/docscheck

# witness reruns every experiment at seed 42 and diffs stdout and the
# CSVs against the committed results/, byte for byte: the standing
# rule that a change which claims to keep the experiments' output
# keeps it. The federation CSVs come from the paper-scale `run
# federation` (about 2 s), not `all`. EXPERIMENTS.md quotes lines of
# results/ that `make docs` checks, so with this diff every number it
# quotes is what the code prints.
witness:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/p4psonar run -seed 42 -out $$tmp all > $$tmp/run_all.txt && \
	$(GO) run ./cmd/p4psonar run -paper -seed 42 -out $$tmp federation > /dev/null && \
	diff -r results $$tmp; \
	status=$$?; rm -rf $$tmp; exit $$status

ci: build vet test race bench-test lint unreached docs witness
