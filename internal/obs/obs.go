// Package obs is the system's self-telemetry layer: the measurement
// pipeline measures the network per packet, and this package makes the
// pipeline itself observable with the same discipline. It provides
// atomic counters and gauges, fixed-bucket power-of-two histograms
// (preallocated, mutated with atomic adds only — safe to call from the
// zero-allocation packet path), a bounded ring-buffer event trace for
// report-lifecycle and ladder-transition events, and a Registry that
// renders everything as Prometheus text and a /trace dump next to
// net/http/pprof. Everything is stdlib-only.
//
// Design constraints, in order:
//
//  1. Hot-path mutation (Counter.Inc, Gauge.Set, Histogram.Observe,
//     Trace.Add) performs zero heap allocations and takes no registry
//     lock; the per-packet alloc assertions in bench_alloc_test.go run
//     with instrumentation enabled.
//  2. Scrapes see consistent snapshots where consistency carries
//     meaning: multi-metric invariants (the resilient shipper's ladder
//     accounting, the data plane's per-shard groups and their sums)
//     are rendered by a Collect callback that reads one mutex-guarded
//     snapshot, not by independent gauges. An event a layer already
//     counts in its own state is read from there at scrape time, not
//     counted a second time in a Counter beside it.
//  3. Instrumentation is opt-in and nil-safe: packages hold a nil
//     metrics struct until RegisterObs wires them to a Registry, so
//     the uninstrumented configuration pays only a nil check.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v uint64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() uint64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket 0 holds the value 0,
// bucket i (1..64) holds values v with bits.Len64(v) == i, i.e. the
// power-of-two interval [2^(i-1), 2^i). 65 preallocated cells cover
// the entire uint64 range, so Observe never grows anything.
const histBuckets = 65

// Histogram is a fixed-bucket log-scale histogram in the style of
// P4TG's RTT histograms: power-of-two buckets, preallocated, mutated
// with atomic adds only. The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one sample. It allocates nothing and takes no lock.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot returns an atomic-read copy of the histogram state. The
// per-bucket loads are individually atomic; the snapshot as a whole is
// approximate under concurrent observation, which is the standard
// contract for lock-free histograms.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is one scrape's view of a Histogram.
type HistogramSnapshot struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
}

// BucketUpper returns the inclusive upper bound of bucket i: 0 for
// bucket 0, 2^i − 1 for bucket i ≥ 1 (the largest value whose
// bit-length is i).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}
