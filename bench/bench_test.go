package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/replay"
	"repro/internal/simtime"
)

// small shrinks a workload to a few tens of thousands of records, about
// a thousandth of its benchmark size: the same code path and the same
// checks. Records are spaced 50 µs apart so that the stream still spans
// two simulated seconds (the control plane ticks at 1 Hz), and the
// long-flow workloads get 8 and 20 flows so that every flow still crosses
// the 1 MiB announcement threshold.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	const spacing = 50 * simtime.Microsecond
	synth := func(flows, base, n int) *stream {
		mk := func() *replay.Synth {
			return &replay.Synth{Flows: flows, MSS: 1460, Packets: n, Spacing: spacing, FlowBase: base}
		}
		return &stream{
			src:          mk(),
			flowsOffered: func() uint64 { return uint64(flows) },
			sampleFlows:  func(k int) []int { return spread(base, flows, k) },
			truth:        func(n uint64, fl []int) map[int]uint64 { return synthTruth(mk(), n, fl) },
			keyFlows:     spread(base, flows, flows),
		}
	}
	switch name {
	case "elephants", "elephants_2shard":
		w.records = func(int) int { return 60_000 }
		w.source = func(seed uint64, n int) *stream {
			return synth(8, aliasFreeBase(simtime.NewRNG(seed), 8, true), n)
		}
	case "mice":
		w.records = func(int) int { return 60_000 }
		w.source = func(seed uint64, n int) *stream {
			base := 1 + int(seed%1000)
			live := &generations{base: base, left: n, spacing: spacing}
			return &stream{
				src:          live,
				flowsOffered: func() uint64 { return uint64(live.gen) * miceFlows },
				sampleFlows:  func(k int) []int { return spread(base, n/2, k) },
				truth: func(n uint64, fl []int) map[int]uint64 {
					return synthTruth(&generations{base: base, left: int(n), spacing: spacing}, n, fl)
				},
				keyFlows: spread(base, 4096, 4096),
			}
		}
	case "report_storm":
		w.reports = func(int) int { return 300 }
		w.source = func(seed uint64, _ int) *stream {
			return synth(20, aliasFreeBase(simtime.NewRNG(seed), 20, false), math.MaxInt)
		}
	}
	return w
}

func requireChecks(t *testing.T, res *result) {
	t.Helper()
	if len(res.Checks) == 0 {
		t.Fatal("run made no correctness checks")
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
}

// requireDeclared fails on a measured name the metric tables do not
// declare: fill would drop it silently.
func requireDeclared(t *testing.T, values map[string]float64) {
	t.Helper()
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	for name := range values {
		if !declared[name] {
			t.Errorf("metric %q is measured but not declared", name)
		}
	}
}

func requireNonZero(t *testing.T, values map[string]float64) {
	t.Helper()
	for _, d := range endToEnd {
		if v := values[d.name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("end-to-end metric %s = %v, want a positive number", d.name, v)
		}
	}
}

func TestIngestWorkloadsEndToEnd(t *testing.T) {
	for _, name := range []string{"elephants", "elephants_2shard", "mice", "report_storm"} {
		t.Run(name, func(t *testing.T) {
			res := &result{Workload: name, Seed: 7, Seconds: 1, Samples: map[string]int{}}
			values := map[string]float64{}
			if err := untracedIngest(small(t, name), res, values); err != nil {
				t.Fatal(err)
			}
			res.Failed += uint64(failedChecks(res.Checks))
			requireChecks(t, res)
			requireDeclared(t, values)
			requireNonZero(t, values)
			if res.Fingerprint.ReportsEmitted == 0 || res.Fingerprint.Records == 0 {
				t.Errorf("empty fingerprint %+v", res.Fingerprint)
			}
		})
	}
}

func TestIngestWorkloadsTraced(t *testing.T) {
	for _, name := range []string{"elephants", "elephants_2shard", "mice", "report_storm"} {
		t.Run(name, func(t *testing.T) {
			res := &result{Workload: name, Seed: 7, Seconds: 1, Traced: true, Samples: map[string]int{}}
			values := map[string]float64{}
			w := small(t, name)
			if full := w.records; full != nil {
				w.records = func(s int) int { return 4 * full(s) } // traced passes run a quarter
			}
			if err := tracedIngest(w, res, values, t.TempDir(), 1<<12); err != nil {
				t.Fatal(err)
			}
			res.Failed += uint64(failedChecks(res.Checks))
			requireChecks(t, res)
			requireDeclared(t, values)
			if values["dataplane.process_ns_per_record"] <= 0 || values["resilient.emit_ns_per_report"] <= 0 {
				t.Errorf("spans gave no time: process %v ns/record, emit %v ns/report",
					values["dataplane.process_ns_per_record"], values["resilient.emit_ns_per_report"])
			}
			if wait := values["dataplane.flush_wait_ns_per_front"]; name != "elephants_2shard" && wait != 0 {
				t.Errorf("flush wait %v ns on a single pipe", wait)
			}
		})
	}
}

func TestObservatory(t *testing.T) {
	res := &result{Workload: "observatory", Seed: 7, Seconds: 1, Samples: map[string]int{}}
	values := map[string]float64{}
	if err := untracedObservatory(res, values); err != nil {
		t.Fatal(err)
	}
	res.Failed += uint64(failedChecks(res.Checks))
	requireChecks(t, res)
	requireDeclared(t, values)
	requireNonZero(t, values)
	if res.Samples["query_ms"] == 0 || res.Samples["fleet_view_ms"] == 0 || values["query_ms_p50"] <= 0 {
		t.Errorf("reader ran no queries: %v", res.Samples)
	}

	res = &result{Workload: "observatory", Seed: 7, Seconds: 4, Traced: true, Samples: map[string]int{}}
	values = map[string]float64{}
	if err := tracedObservatory(res, values, t.TempDir(), 1<<12); err != nil {
		t.Fatal(err)
	}
	res.Failed += uint64(failedChecks(res.Checks))
	requireChecks(t, res)
	requireDeclared(t, values)
	for name, v := range values {
		if len(name) > 10 && name[:10] == "dataplane." && name != "dataplane.shard_skew" && v != 0 {
			t.Errorf("observatory ran data-plane code: %s = %v", name, v)
		}
	}
}

// TestSameSeedSameRun: the fingerprint is a function of the seed alone,
// and another seed gives other inputs.
func TestSameSeedSameRun(t *testing.T) {
	run := func(seed uint64) fingerprint {
		w := small(t, "elephants")
		p := &ingestPass{w: w, seed: seed, records: w.recordsFor(1)}
		out, err := p.run()
		if err != nil {
			t.Fatal(err)
		}
		return out.fp
	}
	if a, b := run(3), run(3); a != b || a.ReportsEmitted == 0 {
		t.Errorf("seed 3 twice: %+v then %+v", a, b)
	}
	for _, w := range workloads() {
		if w.source == nil {
			continue
		}
		var a, b replay.Record
		w.source(3, 10).src.Next(&a)
		w.source(4, 10).src.Next(&b)
		if a == b {
			t.Errorf("%s: seeds 3 and 4 start with the same record %+v", w.name, a)
		}
	}
}

// TestGoldenFilesAgree: the committed fingerprints say the sharded run
// leaves exactly what the single pipe leaves.
func TestGoldenFilesAgree(t *testing.T) {
	one, two := loadGolden("elephants"), loadGolden("elephants_2shard")
	key := goldenKey(defaultSeconds, false)
	if _, ok := one[key]; !ok {
		t.Fatalf("golden/elephants.json has no %s fingerprint", key)
	}
	if one[key] != two[key] {
		t.Errorf("golden fingerprints differ: one pipe %+v, two shards %+v", one[key], two[key])
	}
	for _, w := range workloads() {
		if _, ok := loadGolden(w.name)[key]; !ok {
			t.Errorf("golden/%s.json has no %s fingerprint", w.name, key)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON: every workload and metric the program
// prints is in BENCHMARK.json with the same unit, direction and bound,
// and nothing is listed there that the program does not print.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Errorf("%d workloads listed, %d run", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
		if i < len(bj.Workloads) && (bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why) {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, listed []benchMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, %d printed", kind, len(listed), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, d.name)
			}
			seen[d.name] = true
			if i >= len(listed) {
				continue
			}
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better || l.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, l, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	hasSetup := false
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	m := benchMetric{Name: "ingest_mpps", Better: "higher", Bound: 0.07}
	if v := judge("w", m, []float64{2.0, 2.01, 1.99}, []float64{1.8, 1.81, 1.79}); v.status != "REGRESSED" {
		t.Errorf("10%% lower throughput judged %s", v.status)
	}
	if v := judge("w", m, []float64{2.0, 2.01, 1.99}, []float64{1.98, 2.0, 1.99}); v.status != "ok" {
		t.Errorf("A/A within the bound judged %s", v.status)
	}
	if v := judge("w", m, []float64{2.0, 2.6, 1.6}, []float64{2.0, 2.5, 1.7}); v.status != "unresolved" {
		t.Errorf("spread wider than the bound judged %s", v.status)
	}
	lower := benchMetric{Name: "cpu_s", Better: "lower", Bound: 0.07}
	if v := judge("w", lower, []float64{4.0, 4.1}, []float64{4.5, 4.6}); v.status != "REGRESSED" {
		t.Errorf("12%% more CPU judged %s", v.status)
	}
}

// TestCompareRefusesBrokenSides: a side that lost a workload, failed a
// check or ran other inputs must not compare clean.
func TestCompareRefusesBrokenSides(t *testing.T) {
	bj, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	side := func(drop string, correct bool) *resultsFile {
		f := &resultsFile{Seed: 42, Seconds: 6}
		for _, w := range workloads() {
			if w.name == drop {
				continue
			}
			values := map[string]float64{}
			for _, d := range endToEnd {
				values[d.name] = 1
			}
			for i := 0; i < 3; i++ {
				f.Runs = append(f.Runs, &result{Workload: w.name, Seed: 42, Seconds: 6, Correct: correct, Metrics: fill(endToEnd, values)})
			}
		}
		return f
	}
	if code := printComparison(bj, side("", true), side("", true)); code != 0 {
		t.Errorf("two clean equal sides: exit %d", code)
	}
	if code := printComparison(bj, side("", true), side("mice", true)); code != 1 {
		t.Errorf("B without mice: exit %d, want 1", code)
	}
	if code := printComparison(bj, side("", true), side("", false)); code != 1 {
		t.Errorf("B with failed runs: exit %d, want 1", code)
	}

	dir := t.TempDir()
	write := func(name string, f *resultsFile) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	other := side("", true)
	other.Seed = 7
	a, b := write("a.json", side("", true)), write("b.json", other)
	if code := compareFiles(a, b, "../BENCHMARK.json"); code != 2 {
		t.Errorf("sides of two seeds: exit %d, want 2", code)
	}
	if code := compareFiles(a+","+b, a, "../BENCHMARK.json"); code != 2 {
		t.Errorf("a side pooled from two seeds: exit %d, want 2", code)
	}
	if code := compareFiles(a+","+a, a, "../BENCHMARK.json"); code != 0 {
		t.Errorf("same-seed files pooled: exit %d", code)
	}
}
