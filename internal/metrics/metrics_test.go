package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestJainFairnessEqualAllocations(t *testing.T) {
	if f := JainFairness([]float64{5, 5, 5}); math.Abs(f-1) > 1e-12 {
		t.Fatalf("equal allocations must give 1, got %f", f)
	}
}

func TestJainFairnessMonopoly(t *testing.T) {
	// One flow hogging everything: F = 1/N.
	f := JainFairness([]float64{10, 0, 0, 0})
	if math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("monopoly with N=4 must give 0.25, got %f", f)
	}
}

func TestJainFairnessPaperExample(t *testing.T) {
	// Two flows at parity, one at half: F = (2.5)^2 / (3*2.25) = 0.926.
	f := JainFairness([]float64{1, 1, 0.5})
	want := 2.5 * 2.5 / (3 * 2.25)
	if math.Abs(f-want) > 1e-12 {
		t.Fatalf("got %f, want %f", f, want)
	}
}

func TestJainFairnessEdgeCases(t *testing.T) {
	if JainFairness(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
	if JainFairness([]float64{0, 0}) != 0 {
		t.Fatal("all-zero input must give 0")
	}
	if JainFairness([]float64{7}) != 1 {
		t.Fatal("single flow is trivially fair")
	}
}

func TestJainFairnessBoundsProperty(t *testing.T) {
	// 1/N <= F <= 1 for any non-negative, non-all-zero allocation.
	f := func(a, b, c, d uint16) bool {
		x := []float64{float64(a), float64(b), float64(c), float64(d)}
		sum := x[0] + x[1] + x[2] + x[3]
		if sum == 0 {
			return JainFairness(x) == 0
		}
		v := JainFairness(x)
		return v >= 0.25-1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestJainFairnessScaleInvariance(t *testing.T) {
	x := []float64{3, 7, 2, 9}
	y := []float64{30, 70, 20, 90}
	if math.Abs(JainFairness(x)-JainFairness(y)) > 1e-12 {
		t.Fatal("fairness must be scale invariant")
	}
}

func TestUtilization(t *testing.T) {
	if u := Utilization([]float64{4e9, 5e9}, 10e9); math.Abs(u-0.9) > 1e-12 {
		t.Fatalf("u=%f", u)
	}
	if u := Utilization([]float64{20e9}, 10e9); u != 1 {
		t.Fatalf("must clamp to 1, got %f", u)
	}
	if Utilization(nil, 10e9) != 0 || Utilization([]float64{1}, 0) != 0 {
		t.Fatal("edge cases wrong")
	}
}

func TestSeriesAppendAndQuery(t *testing.T) {
	s := NewSeries("tput")
	for i := 0; i < 10; i++ {
		s.Append(simtime.Time(i)*simtime.Second, float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("len=%d", s.Len())
	}
	if s.Points[9].V != 9 {
		t.Fatalf("last=%v", s.Points[9])
	}
	mid := s.Between(3*simtime.Second, 6*simtime.Second)
	if len(mid) != 3 || mid[0].V != 3 || mid[2].V != 5 {
		t.Fatalf("between: %v", mid)
	}
}

func TestSeriesRejectsTimeTravel(t *testing.T) {
	s := NewSeries("x")
	s.Append(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("descending timestamps must panic")
		}
	}()
	s.Append(5, 2)
}

func TestSeriesStats(t *testing.T) {
	s := NewSeries("x")
	for i, v := range []float64{2, 8, 5} {
		s.Append(simtime.Time(i), v)
	}
	if s.Max() != 8 || s.Mean() != 5 {
		t.Fatalf("max=%f mean=%f", s.Max(), s.Mean())
	}
	empty := NewSeries("e")
	if empty.Max() != 0 || empty.Mean() != 0 {
		t.Fatal("empty series stats must be 0")
	}
}
