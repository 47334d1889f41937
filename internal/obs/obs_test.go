package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	var g Gauge
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge after a second Set = %d, want 3", got)
	}
}

// TestHistogramBuckets pins the log2 bucketing contract: bucket 0
// holds the value 0, bucket i holds [2^(i-1), 2^i).
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxUint64, 64},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1, 64: 1}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if s.Count != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", s.Count, len(cases))
	}
}

func TestBucketUpper(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 64: math.MaxUint64, 70: math.MaxUint64}
	for i, want := range cases {
		if got := BucketUpper(i); got != want {
			t.Errorf("BucketUpper(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestHistogramConcurrent drives a Histogram, a Counter and a Gauge
// from many goroutines while another reads them — under -race this
// proves the atomic-only contract of every metric type — and checks
// the exact totals.
func TestHistogramConcurrent(t *testing.T) {
	var (
		h    Histogram
		c    Counter
		last Gauge
	)
	const workers, each = 8, 1000
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.Value(); v < prev {
				t.Errorf("counter went back from %d to %d", prev, v)
			} else {
				prev = v
			}
			_, _ = h.Snapshot(), last.Value()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(uint64(w*each + i))
				c.Inc()
				last.Set(uint64(w))
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	const n = workers * each
	snap := h.Snapshot()
	if snap.Count != n {
		t.Fatalf("histogram count = %d, want %d", snap.Count, n)
	}
	if want := uint64(n * (n - 1) / 2); snap.Sum != want {
		t.Fatalf("histogram sum = %d, want %d", snap.Sum, want)
	}
	if got := c.Value(); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	if got := last.Value(); got >= workers {
		t.Fatalf("gauge after Set = %d, want a value some worker set (< %d)", got, workers)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup", "")
}

func TestRegistrySync(t *testing.T) {
	r := NewRegistry()
	synced := 0
	r.Sync = func(f func()) { synced++; f() }
	r.NewGaugeFunc("g", "", func() uint64 { return 1 })
	_ = r.Snapshot()
	if synced != 1 {
		t.Fatalf("Sync ran %d times, want 1", synced)
	}
}

func TestSnapshotValues(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h_ns", "")
	r.Collect(func(w MetricWriter) { w.Gauge("from_collector", "", 5) })
	c.Inc()
	c.Inc()
	c.Inc()
	g.Set(9)
	h.Observe(100)
	snap := r.Snapshot()
	if snap["c_total"] != uint64(3) || snap["g"] != uint64(9) || snap["from_collector"] != uint64(5) {
		t.Fatalf("snapshot = %#v", snap)
	}
	hv, ok := snap["h_ns"].(map[string]interface{})
	if !ok || hv["count"] != uint64(1) || hv["sum"] != uint64(100) {
		t.Fatalf("histogram snapshot = %#v", snap["h_ns"])
	}
}
