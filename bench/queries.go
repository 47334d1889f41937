package main

import (
	"fmt"

	"repro/internal/psarchiver"
)

const (
	indexPrefix = "p4-psonar"
	metricIndex = indexPrefix + "-metric"
)

// Each rotation of the reader is 8 Search : 4 Aggregate : 1 CrossSite,
// the mix a dashboard refreshing per-flow panels beside one fleet view
// issues.
const (
	searchesPerRotation   = 8
	aggregatesPerRotation = 4
)

// queryStats is what a reader measured.
type queryStats struct {
	searchMs, aggMs, crossMs []float64
	scanned                  []float64 // documents in the index when each Search/Aggregate ran
	ops, mismatches          int
	firstMismatch            string
}

// queryMs is Search and Aggregate together, in issue order.
func (q *queryStats) queryMs() []float64 {
	return append(append([]float64(nil), q.searchMs...), q.aggMs...)
}

// reader issues the rotation against a store and checks every answer
// against the generator's own count.
type reader struct {
	store *psarchiver.Store
	// next returns the next per-flow query, the number of documents the
	// generator knows it matches, and how many of those carry a "value"
	// (a zero sample is omitted from Report_v1, and Aggregate counts only
	// documents that have the field).
	next func() (q psarchiver.Query, hits, valued int)
	// fleetOK judges a CrossSite answer; docsBefore and docsAfter bracket
	// the store's size while it was computed.
	fleetOK func(f psarchiver.FleetAggregate, docsBefore, docsAfter int) bool
	tr      *tracer
	stats   queryStats
}

func (r *reader) mismatch(format string, args ...interface{}) {
	r.stats.mismatches++
	if r.stats.firstMismatch == "" {
		r.stats.firstMismatch = fmt.Sprintf(format, args...)
	}
}

// rotation runs one 8:4:1 round.
func (r *reader) rotation() {
	for i := 0; i < searchesPerRotation; i++ {
		q, want, _ := r.next()
		r.stats.scanned = append(r.stats.scanned, float64(r.store.Count(q.Index)))
		s := r.tr.begin("psarchiver.search", -1)
		t0 := nowNs()
		hits := r.store.Search(q)
		r.stats.searchMs = append(r.stats.searchMs, float64(nowNs()-t0)/1e6)
		r.tr.end(s)
		r.stats.ops++
		if len(hits) != want {
			r.mismatch("Search %+v: %d hits, generator says %d", q, len(hits), want)
		}
	}
	for i := 0; i < aggregatesPerRotation; i++ {
		q, _, want := r.next()
		r.stats.scanned = append(r.stats.scanned, float64(r.store.Count(q.Index)))
		s := r.tr.begin("psarchiver.aggregate", -1)
		t0 := nowNs()
		agg, err := r.store.Aggregate(q, "value")
		r.stats.aggMs = append(r.stats.aggMs, float64(nowNs()-t0)/1e6)
		r.tr.end(s)
		r.stats.ops++
		// Aggregate reports an empty match as an error; the generator
		// expecting none is then the right answer.
		if (err != nil && want != 0) || agg.Count != want {
			r.mismatch("Aggregate %+v: count %d (err %v), generator says %d", q, agg.Count, err, want)
		}
	}
	before := storeDocs(r.store)
	s := r.tr.begin("psarchiver.crosssite", -1)
	t0 := nowNs()
	fleet := psarchiver.CrossSite(r.store, indexPrefix)
	r.stats.crossMs = append(r.stats.crossMs, float64(nowNs()-t0)/1e6)
	r.tr.end(s)
	r.stats.ops++
	if after := storeDocs(r.store); !r.fleetOK(fleet, before, after) {
		r.mismatch("CrossSite: %d documents (%d unstamped, %d sites, %d paths) with the store at %d..%d",
			fleet.Documents, fleet.Unstamped, len(fleet.Sites), len(fleet.Paths), before, after)
	}
}
