package obs

import (
	"strings"
	"testing"
)

// TestPrometheusExpositionGolden pins the /metrics wire format — the
// CI obs job's exposition snapshot. Every renderer (counter, gauge,
// gauge func, histogram, collector group) contributes, with fixed
// observations so the output is byte-deterministic.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("p4_test_events_total", "Events seen.")
	g := r.NewGauge("p4_test_depth", "Current queue depth.")
	r.NewGaugeFunc("p4_test_capacity", "Configured capacity.", func() uint64 { return 4096 })
	h := r.NewHistogram("p4_test_latency_ns", "Operation latency.")
	r.Collect(func(w MetricWriter) {
		w.Gauge("p4_test_group_a", "First of a consistent pair.", 2)
		w.Gauge("p4_test_group_b", "Second of a consistent pair.", 3)
	})

	for i := 0; i < 12; i++ {
		c.Inc()
	}
	g.Set(7)
	for _, v := range []uint64{0, 1, 2, 3, 900, 1000} {
		h.Observe(v)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP p4_test_events_total Events seen.
# TYPE p4_test_events_total counter
p4_test_events_total 12
# HELP p4_test_depth Current queue depth.
# TYPE p4_test_depth gauge
p4_test_depth 7
# HELP p4_test_capacity Configured capacity.
# TYPE p4_test_capacity gauge
p4_test_capacity 4096
# HELP p4_test_latency_ns Operation latency.
# TYPE p4_test_latency_ns histogram
p4_test_latency_ns_bucket{le="0"} 1
p4_test_latency_ns_bucket{le="1"} 2
p4_test_latency_ns_bucket{le="3"} 4
p4_test_latency_ns_bucket{le="7"} 4
p4_test_latency_ns_bucket{le="15"} 4
p4_test_latency_ns_bucket{le="31"} 4
p4_test_latency_ns_bucket{le="63"} 4
p4_test_latency_ns_bucket{le="127"} 4
p4_test_latency_ns_bucket{le="255"} 4
p4_test_latency_ns_bucket{le="511"} 4
p4_test_latency_ns_bucket{le="1023"} 6
p4_test_latency_ns_bucket{le="+Inf"} 6
p4_test_latency_ns_sum 1906
p4_test_latency_ns_count 6
# HELP p4_test_group_a First of a consistent pair.
# TYPE p4_test_group_a gauge
p4_test_group_a 2
# HELP p4_test_group_b Second of a consistent pair.
# TYPE p4_test_group_b gauge
p4_test_group_b 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
