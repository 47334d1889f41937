package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark only, around its calls into each layer; the program
// under test carries no tracing of its own yet.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the process started
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op on it, so call sites need no
// second code path.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<16)}
}

// processEpoch is the zero of every timestamp the benchmark takes, so
// stamps from different goroutines and layers can be subtracted.
var processEpoch = time.Now()

// nowNs returns monotonic nanoseconds since the process started.
func nowNs() int64 { return int64(time.Since(processEpoch)) }

// begin opens a span and returns its id (-1 on the untraced run).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := nowNs()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := nowNs()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the
// cross-goroutine report spans are assembled after the run from
// timestamps each goroutine took on its own).
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// selfNs returns each span's self time: its duration minus the part its
// direct children cover (children of one span never overlap here: they
// are sequential calls on one goroutine, or consecutive stages of one
// report).
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]int64 {
	out := make(map[string]int64)
	for i, ns := range t.selfNs() {
		out[t.spans[i].Name] += ns
	}
	return out
}

// selfMs returns the self time (ms) of every span with the given name,
// in recording order.
func (t *tracer) selfMs(name string) []float64 {
	var out []float64
	for i, ns := range t.selfNs() {
		if t.spans[i].Name == name {
			out = append(out, float64(ns)/1e6)
		}
	}
	return out
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// BlockingSelfNs is self time per span name over the producer's
	// spans only (fronts, window waits, reader operations): the sampled
	// cross-goroutine report spans in Spans repeat some of those names
	// and are left out of it.
	BlockingSelfNs map[string]int64 `json:"blocking_self_ns_by_name"`
	Spans          []span           `json:"spans"`
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64, blockingSelf map[string]int64) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, BlockingSelfNs: blockingSelf, Spans: t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
