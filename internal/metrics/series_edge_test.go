package metrics

import (
	"testing"

	"repro/internal/simtime"
)

// TestSeriesEmpty pins every accessor's zero-value behaviour: the
// experiment harness queries series before the first report interval
// lands, so all of these must be total functions.
func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Between(0, simtime.Second); len(got) != 0 {
		t.Fatalf("Between on empty = %v", got)
	}
	if s.Max() != 0 || s.Mean() != 0 {
		t.Fatalf("empty stats: max=%v mean=%v", s.Max(), s.Mean())
	}
}

// TestSeriesSinglePoint pins the one-sample case, where max == mean
// and every Between window either contains the point or not.
func TestSeriesSinglePoint(t *testing.T) {
	s := NewSeries("single")
	s.Append(3*simtime.Second, -7.5)
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Points[0]; got.T != 3*simtime.Second || got.V != -7.5 {
		t.Fatalf("point = %+v", got)
	}
	// A negative value exercises Max's first-element seeding: a naive
	// "m := 0" maximum would wrongly report 0.
	if s.Max() != -7.5 || s.Mean() != -7.5 {
		t.Fatalf("stats: max=%v mean=%v, want both -7.5", s.Max(), s.Mean())
	}
	if got := s.Between(0, 3*simtime.Second); len(got) != 0 {
		t.Fatalf("half-open window must exclude T==to: %v", got)
	}
	if got := s.Between(3*simtime.Second, 4*simtime.Second); len(got) != 1 {
		t.Fatalf("window starting at the sample must include it: %v", got)
	}
}

// TestSeriesNonMonotonicAppend pins the append contract from both
// sides: strictly decreasing timestamps panic (a scheduling bug
// upstream must not be silently recorded), while equal timestamps are
// legal — two reports can legitimately land in the same tick.
func TestSeriesNonMonotonicAppend(t *testing.T) {
	s := NewSeries("ties")
	s.Append(simtime.Second, 1)
	s.Append(simtime.Second, 2) // tie: allowed
	s.Append(simtime.Second, 3)
	if s.Len() != 3 || s.Points[2].V != 3 {
		t.Fatalf("ties rejected: len=%d points=%+v", s.Len(), s.Points)
	}
	if got := s.Between(simtime.Second, simtime.Second+1); len(got) != 3 {
		t.Fatalf("Between must return all tied samples: %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("decreasing timestamp must panic")
		}
		if s.Len() != 3 {
			t.Fatalf("failed append mutated the series: len=%d", s.Len())
		}
	}()
	s.Append(simtime.Second-1, 4)
}
