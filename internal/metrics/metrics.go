// Package metrics provides the small numerical toolbox the control
// plane and the experiment harness share: time series containers and
// the aggregate statistics the paper's §5.3 derives in the switch
// control plane (Jain's fairness index, link utilisation).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simtime"
)

// Point is one timestamped sample.
type Point struct {
	T simtime.Time
	V float64
}

// Series is an append-only time series, the unit every figure in the
// paper plots.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Append adds a sample; timestamps must be non-decreasing.
func (s *Series) Append(t simtime.Time, v float64) {
	if n := len(s.Points); n > 0 && s.Points[n-1].T > t {
		panic(fmt.Sprintf("metrics: series %s: timestamp %v before %v", s.Name, t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Between returns the samples with T in [from, to).
func (s *Series) Between(from, to simtime.Time) []Point {
	lo := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= from })
	hi := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= to })
	return s.Points[lo:hi]
}

// Max returns the maximum value, or 0 for an empty series.
func (s *Series) Max() float64 {
	m := 0.0
	for i, p := range s.Points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// JainFairness computes Jain's fairness index over per-flow resource
// allocations (Eq. 1 of the paper):
//
//	F = (Σ x_i)^2 / (N · Σ x_i^2)
//
// The result is 1 for perfectly equal allocations and approaches 1/N as
// one flow monopolises the resource. Zero-only inputs return 0.
func JainFairness(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range x {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(x)) * sumSq)
}

// Utilization is the aggregate throughput over capacity, clamped to
// [0, 1].
func Utilization(throughputBps []float64, capacityBps float64) float64 {
	if capacityBps <= 0 {
		return 0
	}
	var sum float64
	for _, v := range throughputBps {
		sum += v
	}
	u := sum / capacityBps
	return math.Min(math.Max(u, 0), 1)
}
