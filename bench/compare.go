package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json -compare and the tests
// read.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// readResults reads one side of a comparison: a results file, or
// several joined by commas (the sets of an interleaved A/A or
// parent/change series), whose runs are pooled under the first file's
// header. Files of one side must be of one seed and one run length.
func readResults(paths string) (*resultsFile, error) {
	var all *resultsFile
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case all == nil:
			all = &f
		case f.Seed != all.Seed || f.Seconds != all.Seconds:
			return nil, fmt.Errorf("%s: seed %d, %d s, but the files before it have seed %d, %d s",
				path, f.Seed, f.Seconds, all.Seed, all.Seconds)
		default:
			all.Runs = append(all.Runs, f.Runs...)
		}
	}
	return all, nil
}

// sideHealth counts a side's untraced runs that may not be compared
// (failed a correctness check or lost an operation) and those the
// calibration kernel marked noisy.
func sideHealth(f *resultsFile) (incorrect, noisy int) {
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if !r.Correct || r.Failed > 0 {
			incorrect++
		}
		if r.Noisy {
			noisy++
		}
	}
	return incorrect, noisy
}

// untracedValues collects, per workload, the values of one metric over a
// file's untraced runs.
func untracedValues(f *resultsFile, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out[r.Workload] = append(out[r.Workload], v.Value)
		}
	}
	return out
}

// verdict judges B against A on one workload × metric by the rule the
// repository's changes are held to: B's median may not be worse than A's
// by more than bound (a share of A's median); where either side's own
// run-to-run spread is wider than the bound the pair is unresolved, not
// unchanged, unless every run of B reads better than every run of A.
type verdict struct {
	workload, metric   string
	medA, medB         float64
	worsePct, boundPct float64
	spreadA, spreadB   float64
	status             string // ok, REGRESSED, unresolved
}

func judge(workload string, m benchMetric, a, b []float64) verdict {
	v := verdict{workload: workload, metric: m.Name, medA: median(a), medB: median(b),
		boundPct: m.Bound * 100, spreadA: spreadShare(a) * 100, spreadB: spreadShare(b) * 100}
	if v.medA != 0 {
		v.worsePct = (v.medB - v.medA) / v.medA * 100
		if m.Better == "higher" {
			v.worsePct = -v.worsePct
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if (m.Better == "higher" && x <= y) || (m.Better != "higher" && x >= y) {
				allBetter = false
			}
		}
	}
	switch {
	case v.worsePct > v.boundPct:
		v.status = "REGRESSED"
	case (v.spreadA > v.boundPct || v.spreadB > v.boundPct) && !allBetter:
		v.status = "unresolved"
	default:
		v.status = "ok"
	}
	return v
}

// compareFiles prints the table and returns the exit code: 1 when any
// pair regressed beyond its bound, when either side lacks a workload or
// a metric BENCHMARK.json lists, or when a run on either side was not
// correct; 2 when the two sides are not comparable at all (unreadable,
// or of different seeds or run lengths); 0 otherwise. Unresolved pairs
// are reported, not failed: they say the inputs cannot answer the
// question.
func compareFiles(pathA, pathB, benchPath string) int {
	bj, err := readBenchmarkJSON(benchPath)
	if err == nil {
		var fa, fb *resultsFile
		if fa, err = readResults(pathA); err == nil {
			if fb, err = readResults(pathB); err == nil {
				if fa.Seed == fb.Seed && fa.Seconds == fb.Seconds {
					return printComparison(bj, fa, fb)
				}
				err = fmt.Errorf("A is seed %d, %d s and B is seed %d, %d s: not the same inputs",
					fa.Seed, fa.Seconds, fb.Seed, fb.Seconds)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench: -compare:", err)
	return 2
}

func printComparison(bj *benchmarkJSON, fa, fb *resultsFile) int {
	fmt.Printf("A: commit %s, %s, seed %d, %d s\nB: commit %s, %s, seed %d, %d s\n",
		fa.Host.GitCommit, fa.Host.CPUModel, fa.Seed, fa.Seconds,
		fb.Host.GitCommit, fb.Host.CPUModel, fb.Seed, fb.Seconds)
	fmt.Printf("%-17s %-22s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "worse%", "bound%", "iqr A%", "iqr B%", "verdict")
	regressed, unresolved, missing := 0, 0, 0
	for _, m := range bj.EndToEnd {
		va, vb := untracedValues(fa, m.Name), untracedValues(fb, m.Name)
		// The rows are BENCHMARK.json's workloads, not what the files
		// happen to hold: a side that lost a workload (its child process
		// crashed) must not compare clean.
		for _, wl := range bj.Workloads {
			w := wl.Name
			if len(va[w]) == 0 || len(vb[w]) == 0 {
				fmt.Printf("%-17s %-22s MISSING (n=%d,%d)\n", w, m.Name, len(va[w]), len(vb[w]))
				missing++
				continue
			}
			v := judge(w, m, va[w], vb[w])
			fmt.Printf("%-17s %-22s %12.5g %12.5g %+8.2f %7.1f %8.2f %8.2f  %s (n=%d,%d)\n",
				v.workload, v.metric, v.medA, v.medB, v.worsePct, v.boundPct, v.spreadA, v.spreadB, v.status, len(va[w]), len(vb[w]))
			switch v.status {
			case "REGRESSED":
				regressed++
			case "unresolved":
				unresolved++
			}
		}
	}
	badA, noisyA := sideHealth(fa)
	badB, noisyB := sideHealth(fb)
	fmt.Printf("%d regressed beyond the bound, %d unresolved, %d missing; runs not correct: A %d, B %d; noisy runs: A %d, B %d\n",
		regressed, unresolved, missing, badA, badB, noisyA, noisyB)
	if regressed > 0 || missing > 0 || badA > 0 || badB > 0 {
		return 1
	}
	return 0
}
