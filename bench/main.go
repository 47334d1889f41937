// Command bench is the repository's end-to-end benchmark: it drives the
// whole production path from outside, through public functions only —
// replay.Synth → dataplane.Front.AppendCopy → dataplane.Pipes.ProcessFront
// → simtime.Engine.Run firing the controlplane.ControlPlane tickers →
// resilient.Shipper.Emit → TCP on 127.0.0.1 → psarchiver.TCPInput →
// Pipeline → Store — prints every metric by name with its unit, checks
// that the outputs are right, and exits non-zero on any failed check.
//
// It has three modes:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//	    one workload in this process; the last line of standard output is
//	    the result object BENCHMARK.json's contract describes
//	    (--trace 0: end-to-end metrics from the untraced full-length run;
//	    --trace 1: per-layer metrics from the traced quarter-length run
//	    and the isolated kernels).
//	bench [-seed N] [-seconds S] [-runs R] [-layers=false] [-out FILE]
//	    every workload, untraced then traced, each in a child process of
//	    its own (this binary re-executed) so CPU time and peak RSS are per
//	    workload; writes FILE (default bench/out/results.json) and exits
//	    non-zero if any run failed.
//	bench -compare A.json B.json
//	    per workload and end-to-end metric, B's median against A's and the
//	    bound in BENCHMARK.json; exits non-zero beyond a bound. Either side
//	    may be several files joined by commas (interleaved sets).
//
// bench/run.sh builds it into .bench_build/ and runs it; README.md in
// this directory explains the workloads, the metrics and how to word a
// claim against them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// outDir is where results.json and trace-<workload>.json go, relative to
// the root of the checkout the benchmark is run from.
const outDir = "bench/out"

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in-process (default: all, each in a child process)")
	seed := fs.Uint64("seed", goldenSeed, "seed every generated input derives from")
	seconds := fs.Int("seconds", defaultSeconds, "measured-phase length on the reference box; sizes the fixed work")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced quarter-length run")
	out := fs.String("out", filepath.Join(outDir, "results.json"), "results file of the all-workloads mode")
	runs := fs.Int("runs", 1, "all-workloads mode: repetitions of every untraced run")
	layers := fs.Bool("layers", true, "all-workloads mode: also make the traced run of every workload")
	detail := fs.String("detail", "", "also write the full result (checks, fingerprint, samples) to this file")
	compare := fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	updateGolden := fs.String("update-golden", "", "write this run's fingerprint into the golden directory given (seed 42 only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be 1..60 and --trace 0 or 1")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json")
	}
	if *name == "" {
		return runAll(*seed, *seconds, *runs, *layers, *out)
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *updateGolden != "" && *seed == goldenSeed {
		if err := writeGolden(*updateGolden, w.name, *seconds, *trace == 1, res.Fingerprint); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *detail != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*detail, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing detail:", err)
			return 1
		}
	}
	fmt.Print(describe(res))
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// resultsFile is what the all-workloads mode writes and -compare reads.
type resultsFile struct {
	Host    hostInfo  `json:"host"`
	Seed    uint64    `json:"seed"`
	Seconds int       `json:"seconds"`
	Runs    []*result `json:"runs"`
}

// runAll runs every workload in child processes: runs untraced
// repetitions each (interleaved across workloads, so drift of the host
// spreads over all of them) and then one traced run each.
func runAll(seed uint64, seconds, runs int, layers bool, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	list := workloads()
	file := resultsFile{Host: readHost(), Seed: seed, Seconds: seconds}
	failed := false
	child := func(w workload, trace int) {
		detail := filepath.Join(outDir, fmt.Sprintf(".detail-%s-%d.json", w.name, trace))
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--detail", detail)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, trace, err)
			failed = true
		}
		b, err := os.ReadFile(detail)
		if err != nil {
			failed = true
			return
		}
		_ = os.Remove(detail) // scratch hand-over file; results.json keeps its content
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", detail, err)
			failed = true
			return
		}
		file.Runs = append(file.Runs, &res)
	}
	for r := 0; r < runs; r++ {
		for _, w := range list {
			child(w, 0)
		}
	}
	for _, w := range list {
		if layers {
			child(w, 1)
		}
	}
	for _, c := range crossChecks(file.Runs) {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "bench: FAILED %s: %s\n", c.Name, c.Detail)
			failed = true
		}
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(outPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s (%d runs)\n", outPath, len(file.Runs))
	if failed {
		return 1
	}
	return 0
}

// crossChecks are the assertions that need two workloads' results: the
// sharded run must leave exactly the counters the single-pipe run leaves.
func crossChecks(runs []*result) []check {
	var one, two *result
	for _, r := range runs {
		if r.Traced {
			continue
		}
		switch r.Workload {
		case "elephants":
			one = r
		case "elephants_2shard":
			two = r
		}
	}
	if one == nil || two == nil {
		return nil
	}
	return []check{checkf("elephants_2shard_fingerprint_eq_elephants", one.Fingerprint == two.Fingerprint,
		"one pipe %+v, two shards %+v", one.Fingerprint, two.Fingerprint)}
}
