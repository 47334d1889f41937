package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 100 {
		t.Fatalf("clock should land on until: %v", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run(100)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

func TestEngineRunStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(50, func() { ran = true })
	e.Run(49)
	if ran {
		t.Fatal("event beyond until must not run")
	}
	if len(e.pq) != 1 {
		t.Fatalf("event should remain queued, pending=%d", len(e.pq))
	}
	e.Run(50)
	if !ran {
		t.Fatal("event at boundary must run")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run(20)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		fired := false
		e.Schedule(-5, func() { fired = true })
		_ = fired
	})
	e.Run(20) // must not panic
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var at []Time
	NewTicker(e, 100, 50, func(now Time) { at = append(at, now) })
	e.Run(300)
	want := []Time{100, 150, 200, 250, 300}
	if len(at) != len(want) {
		t.Fatalf("got %d firings %v, want %v", len(at), at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestTickerSetIntervalEscalation(t *testing.T) {
	// The control plane escalates the reporting rate from inside the
	// tick callback when an alert threshold trips; the new interval
	// must take effect for the very next firing.
	e := NewEngine()
	var at []Time
	var tk *Ticker
	tk = NewTicker(e, 0, 100, func(now Time) {
		at = append(at, now)
		if now == 100 {
			tk.SetInterval(10)
		}
	})
	e.Run(130)
	want := []Time{0, 100, 110, 120, 130}
	if len(at) != len(want) {
		t.Fatalf("got %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, at[i], want[i])
		}
	}
	if tk.Interval() != 10 {
		t.Fatalf("interval not updated: %v", tk.Interval())
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		1500:            "1.500us",
		2 * Millisecond: "2.000ms",
		3 * Second:      "3.000000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(time.Millisecond) != Millisecond {
		t.Fatal("Duration conversion wrong")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("uniform mean off: %f", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Fork()
	// The child stream must not simply replay the parent stream.
	p2 := NewRNG(5)
	p2.Uint64() // consume what Fork consumed
	same := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == p2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked stream tracks parent (%d collisions)", same)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%1000), func() {})
		if len(e.pq) > 10000 {
			e.RunAll()
		}
	}
	e.RunAll()
}
