package obs

import (
	"fmt"
	"io"
	"runtime"
	"sync"
)

// MetricWriter receives one scrape's worth of metric samples. The
// Registry passes an implementation rendering Prometheus text or a
// plain map; Collect callbacks write into whichever is scraping.
type MetricWriter interface {
	// Counter emits a monotonically increasing value.
	Counter(name, help string, v uint64)
	// Gauge emits an instantaneous value.
	Gauge(name, help string, v uint64)
	// Histo emits a full histogram snapshot.
	Histo(name, help string, s HistogramSnapshot)
}

// CollectFunc renders a group of related metrics from one consistent
// snapshot. Registering a CollectFunc (rather than independent gauge
// funcs) is how multi-metric invariants — the shipper's ladder
// accounting — stay exactly true in every scrape.
type CollectFunc func(w MetricWriter)

// Registry owns a named set of metrics, collectors and traces and
// renders them for the HTTP layer. Registration takes the registry
// lock; metric mutation never does.
type Registry struct {
	// Sync, when non-nil, wraps every metric scrape. The collector
	// daemon points it at the mutex that guards the simulation step so
	// scrape-time reads of single-threaded simulation state (register
	// scans, flow-directory sizes) cannot race the engine.
	Sync func(f func())

	mu      sync.Mutex
	order   []string
	entries map[string]entry
	collect []CollectFunc
	traces  []*Trace
}

type entry struct {
	help string
	fn   func(w MetricWriter, name, help string)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

func (r *Registry) register(name, help string, fn func(w MetricWriter, name, help string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.entries[name] = entry{help: help, fn: fn}
	r.order = append(r.order, name)
}

// NewCounter registers and returns a counter. Duplicate names panic.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, func(w MetricWriter, name, help string) {
		w.Counter(name, help, c.Value())
	})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, func(w MetricWriter, name, help string) {
		w.Gauge(name, help, g.Value())
	})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed at scrape
// time. fn runs under Registry.Sync when that is set.
func (r *Registry) NewGaugeFunc(name, help string, fn func() uint64) {
	r.register(name, help, func(w MetricWriter, name, help string) {
		w.Gauge(name, help, fn())
	})
}

// NewHistogram registers and returns a histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(name, help, func(w MetricWriter, name, help string) {
		w.Histo(name, help, h.Snapshot())
	})
	return h
}

// Collect registers a snapshot-consistent metric group.
func (r *Registry) Collect(fn CollectFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collect = append(r.collect, fn)
}

// NewTrace builds a trace ring and exposes it at /trace.
func (r *Registry) NewTrace(name string, capacity int) *Trace {
	t := NewTrace(name, capacity)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces = append(r.traces, t)
	return t
}

// Traces returns the registered trace rings in registration order.
func (r *Registry) Traces() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Trace(nil), r.traces...)
}

// AddProcessMetrics registers Go-runtime self-metrics (goroutines,
// heap, GC cycles) — the part of self-telemetry every binary gets for
// free, registry contents aside.
func (r *Registry) AddProcessMetrics() {
	r.Collect(func(w MetricWriter) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Gauge("p4_process_goroutines", "Number of live goroutines.", uint64(runtime.NumGoroutine()))
		w.Gauge("p4_process_heap_alloc_bytes", "Bytes of allocated heap objects.", ms.HeapAlloc)
		w.Counter("p4_process_total_alloc_bytes", "Cumulative bytes allocated for heap objects.", ms.TotalAlloc)
		w.Counter("p4_process_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))
	})
}

// scrape runs every registered renderer and collector against w, under
// Sync when configured.
func (r *Registry) scrape(w MetricWriter) {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	entries := make(map[string]entry, len(r.entries))
	for k, v := range r.entries {
		entries[k] = v
	}
	collect := append([]CollectFunc(nil), r.collect...)
	sync := r.Sync
	r.mu.Unlock()

	run := func() {
		for _, name := range order {
			e := entries[name]
			e.fn(w, name, e.help)
		}
		for _, fn := range collect {
			fn(w)
		}
	}
	if sync != nil {
		sync(run)
	} else {
		run()
	}
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), in registration order with
// collectors last.
func (r *Registry) WritePrometheus(w io.Writer) {
	pw := &promWriter{w: w}
	r.scrape(pw)
}

// promWriter renders samples as Prometheus text.
type promWriter struct {
	w io.Writer
}

func (p *promWriter) header(name, help, typ string) {
	if help != "" {
		fmt.Fprintf(p.w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
}

func (p *promWriter) Counter(name, help string, v uint64) {
	p.header(name, help, "counter")
	fmt.Fprintf(p.w, "%s %d\n", name, v)
}

func (p *promWriter) Gauge(name, help string, v uint64) {
	p.header(name, help, "gauge")
	fmt.Fprintf(p.w, "%s %d\n", name, v)
}

func (p *promWriter) Histo(name, help string, s HistogramSnapshot) {
	p.header(name, help, "histogram")
	// Power-of-two buckets, rendered cumulatively up to the highest
	// non-empty bucket: le is the inclusive upper bound 2^i − 1.
	top := 0
	for i, c := range s.Buckets {
		if c > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += s.Buckets[i]
		fmt.Fprintf(p.w, "%s_bucket{le=\"%d\"} %d\n", name, BucketUpper(i), cum)
	}
	fmt.Fprintf(p.w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(p.w, "%s_sum %d\n", name, s.Sum)
	fmt.Fprintf(p.w, "%s_count %d\n", name, s.Count)
}

// Snapshot renders every metric as a plain map (for tests that read
// values without parsing the exposition): counters and gauges map to their value, histograms to a
// {count, sum, buckets} object keyed by inclusive upper bound.
func (r *Registry) Snapshot() map[string]interface{} {
	vw := &varsWriter{out: make(map[string]interface{})}
	r.scrape(vw)
	return vw.out
}

type varsWriter struct {
	out map[string]interface{}
}

func (v *varsWriter) Counter(name, help string, val uint64) { v.out[name] = val }
func (v *varsWriter) Gauge(name, help string, val uint64)   { v.out[name] = val }

func (v *varsWriter) Histo(name, help string, s HistogramSnapshot) {
	buckets := make(map[string]uint64)
	for i, c := range s.Buckets {
		if c > 0 {
			buckets[fmt.Sprintf("le_%d", BucketUpper(i))] = c
		}
	}
	v.out[name] = map[string]interface{}{
		"count":   s.Count,
		"sum":     s.Sum,
		"buckets": buckets,
	}
}
