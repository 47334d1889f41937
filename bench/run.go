package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/psarchiver"
)

// result is one workload run: what the last stdout line carries plus
// what the runner and -compare need (written with -detail).
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds what an untraced run measures besides the end-to-end
	// metrics at no extra cost (report latency, the observatory's query
	// times): printed and kept in results.json, never gated.
	Info        map[string]metricValue `json:"info,omitempty"`
	Samples     map[string]int         `json:"samples"`
	Checks      []check                `json:"checks"`
	Fingerprint fingerprint            `json:"fingerprint"`
	// Noisy marks a run whose two calibration readings differ by more
	// than 10%: the host moved under it, so its timings are suspect.
	Noisy       bool       `json:"noisy"`
	Calibration [2]float64 `json:"calibration_mb_per_s"`
	WallS       float64    `json:"wall_s"`
}

// minSetups and maxSetups bound how many times set-up is repeated for
// its median; cheap set-ups repeat until a sixth of the run's --seconds
// is spent on them. A set-up of a few milliseconds (listener, dial,
// register allocation) reads 6% apart from one median of 21 to the next
// within one process and 0.5% apart at 51, so at the default run length
// the cheap ones get about a hundred.
const (
	minSetups = 5
	maxSetups = 101
)

// runWorkload runs one workload once and returns its result. traced
// selects the quarter-length traced pass with the isolated kernels
// (per-layer metrics); otherwise the full-length untraced run
// (end-to-end metrics).
func runWorkload(w workload, seed uint64, seconds int, traced bool, outDir string) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Samples: map[string]int{}}
	start := nowNs()
	res.Calibration[0] = calibrate()
	values := map[string]float64{}
	var err error
	switch {
	case w.observatory && traced:
		err = tracedObservatory(res, values, outDir, kernelItems)
	case w.observatory:
		err = untracedObservatory(res, values)
	case traced:
		err = tracedIngest(w, res, values, outDir, kernelItems)
	default:
		err = untracedIngest(w, res, values)
	}
	if err != nil {
		return nil, err
	}
	res.Calibration[1] = calibrate()
	drift := math.Abs(res.Calibration[1]-res.Calibration[0]) / res.Calibration[0] * 100
	res.Noisy = drift > 10
	defs := endToEnd
	if traced {
		defs = perLayer
		values["bench.calibration_mb_per_s"] = (res.Calibration[0] + res.Calibration[1]) / 2
		values["bench.calibration_drift_pct"] = drift
	}
	res.Metrics = fill(defs, values)
	if !traced {
		res.Info = map[string]metricValue{}
		for _, d := range perLayer {
			if v, ok := values[d.name]; ok {
				res.Info[d.name] = metricValue{Value: v, Unit: d.unit}
			}
		}
	}
	res.Checks = append(res.Checks, checkGolden(w.name, seed, seconds, traced, res.Fingerprint)...)
	res.Failed += uint64(failedChecks(res.Checks))
	res.Correct = res.Failed == 0
	res.WallS = float64(nowNs()-start) / 1e9
	return res, nil
}

// releaseMemory returns freed heap to the OS between phases, so one
// phase's garbage is not the next one's resident set.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setupMedian repeats a workload's set-up (and untimed teardown) and
// returns the median with the first, real set-up included.
func setupMedian(first float64, seconds int, again func() (float64, error)) (float64, error) {
	setups := []float64{first}
	spent, budget := first, float64(seconds)/6
	for len(setups) < minSetups || (spent < budget && len(setups) < maxSetups) {
		s, err := again()
		if err != nil {
			return 0, err
		}
		setups = append(setups, s)
		spent += s
		releaseMemory()
	}
	return median(setups), nil
}

func (p *ingestPass) setupOnce() (float64, error) {
	t0 := nowNs()
	if err := p.setup(); err != nil {
		return 0, err
	}
	s := float64(nowNs()-t0) / 1e9
	if err := p.m.drain(); err != nil {
		return 0, err
	}
	return s, p.teardown()
}

func latencyMetrics(lat []float64, values map[string]float64, samples map[string]int) {
	values["report_latency_ms_p50"] = median(lat)
	values["report_latency_ms_p99"] = percentile(lat, 99)
	samples["report_latency_ms"] = len(lat)
}

func queryMetrics(q *queryStats, values map[string]float64, samples map[string]int) {
	qs := q.queryMs()
	values["query_ms_p50"] = median(qs)
	values["query_ms_p99"] = percentile(qs, 99)
	values["fleet_view_ms_p50"] = median(q.crossMs)
	samples["query_ms"] = len(qs)
	samples["fleet_view_ms"] = len(q.crossMs)
}

// untracedIngest is the end-to-end run of a data-plane workload: one
// full-length pass, then the extra set-ups for the set-up median.
func untracedIngest(w workload, res *result, values map[string]float64) error {
	p := &ingestPass{w: w, seed: res.Seed, records: w.recordsFor(res.Seconds), reports: w.reportsFor(res.Seconds)}
	out, err := p.run()
	if err != nil {
		return err
	}
	values["ingest_mpps"] = out.ingestMpps
	values["reports_per_s"] = out.reportsPerS
	values["cpu_s"] = out.cpuS
	values["peak_rss_mb"] = out.peakRSSMB
	values["state_bytes_per_flow"] = out.stateBytes
	latencyMetrics(out.latencyMs, values, res.Samples)
	res.Fingerprint = out.fp
	res.Checks = out.checks

	res.Attempted = out.records + out.emitted
	res.Failed = out.emitted - out.indexed

	p.arch = nil
	releaseMemory()
	values["setup_s"], err = setupMedian(out.setupS, res.Seconds, func() (float64, error) {
		q := &ingestPass{w: w, seed: res.Seed, records: p.records, reports: p.reports}
		return q.setupOnce()
	})
	return err
}

func (w workload) recordsFor(seconds int) int {
	if w.records == nil {
		return 0
	}
	return w.records(seconds)
}

func (w workload) reportsFor(seconds int) int {
	if w.reports == nil {
		return 0
	}
	return w.reports(seconds)
}

// untracedObservatory is the end-to-end run of the observatory: one
// full-length pass, then the extra set-ups.
func untracedObservatory(res *result, values map[string]float64) error {
	p := &observatoryPass{seed: res.Seed, seconds: res.Seconds}
	out, err := p.run()
	if err != nil {
		return err
	}
	// The observatory has no data plane: the records it ingests are the
	// members' reports, so its ingest_mpps is those over the same wall
	// time (README.md, "What each cell is").
	values["ingest_mpps"] = float64(out.indexed) / out.wallS / 1e6
	values["reports_per_s"] = out.reportsPerS
	values["cpu_s"] = out.cpuS
	values["peak_rss_mb"] = out.peakRSSMB
	latencyMetrics(out.latencyMs, values, res.Samples)
	queryMetrics(&out.queries, values, res.Samples)
	res.Fingerprint = out.fp
	res.Checks = out.checks
	res.Attempted = out.emitted + uint64(out.queries.ops)
	res.Failed = out.emitted - out.indexed + uint64(out.queries.mismatches)
	*p = observatoryPass{}
	releaseMemory()

	values["setup_s"], err = setupMedian(out.setupS, res.Seconds, func() (float64, error) {
		q := &observatoryPass{seed: res.Seed, seconds: res.Seconds}
		t0 := nowNs()
		if err := q.setup(); err != nil {
			return 0, err
		}
		s := float64(nowNs()-t0) / 1e9
		return s, q.teardown()
	})
	return err
}

// heapPerDoc is the live heap per stored document after a collection:
// what one Document costs to keep.
func heapPerDoc(store *psarchiver.Store) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if docs := storeDocs(store); docs > 0 {
		return float64(ms.HeapInuse) / float64(docs)
	}
	return 0
}

// layerShare returns the share of the blocking path's self time spent
// in spans whose name starts with prefix.
func layerShare(self map[string]int64, prefix string) float64 {
	var in, all int64
	for name, ns := range self {
		all += ns
		if strings.HasPrefix(name, prefix) {
			in += ns
		}
	}
	if all == 0 {
		return 0
	}
	return float64(in) / float64(all)
}

// overheadPct is how much slower (or lower) the instrumented headline is
// than the plain one, in percent of the plain one.
func overheadPct(plain, instrumented float64) float64 {
	if plain == 0 {
		return 0
	}
	return (plain - instrumented) / plain * 100
}

func describe(res *result) string {
	var b strings.Builder
	kind := "end-to-end, untraced"
	defs := endToEnd
	if res.Traced {
		kind, defs = "per-layer, traced run at quarter length", perLayer
	}
	fmt.Fprintf(&b, "workload %s  seed %d  seconds %d  (%s)\n", res.Workload, res.Seed, res.Seconds, kind)
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-38s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if len(res.Info) > 0 {
		b.WriteString("  also measured, not gated:\n")
		for _, d := range perLayer {
			if v, ok := res.Info[d.name]; ok {
				fmt.Fprintf(&b, "  %-38s %16.6g %s\n", d.name, v.Value, d.unit)
			}
		}
	}
	for _, name := range []string{"report_latency_ms", "query_ms", "fleet_view_ms"} {
		if n, ok := res.Samples[name]; ok {
			fmt.Fprintf(&b, "  samples %-30s %16d\n", name, n)
		}
	}
	fmt.Fprintf(&b, "  calibration %.0f → %.0f MB/s", res.Calibration[0], res.Calibration[1])
	if res.Noisy {
		b.WriteString("  NOISY: the host moved by more than 10% during this run")
	}
	fmt.Fprintf(&b, "\n  checks %d, failed %d; operations attempted %d, failed %d\n",
		len(res.Checks), failedChecks(res.Checks), res.Attempted, res.Failed)
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(&b, "  FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	return b.String()
}
