package dataplane

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestObsDataplaneSeriesAreShardCountIndependent scrapes an
// instrumented front-end after the same trace, whose sixteen flows
// contend for no cell (the aliased-packets series says so), at one shard
// and at four: the p4_dataplane_* name set must be identical and every
// deterministic series must carry the same value — a sharded collector
// sees the packet path exactly as an unsharded one does, with
// p4_pipes_shard<i>_* as the only per-shard view.
func TestObsDataplaneSeriesAreShardCountIndependent(t *testing.T) {
	scrape := func(shards int) (map[string]interface{}, *Pipes) {
		p := NewPipes(traceConfig, shards)
		r := obs.NewRegistry()
		p.RegisterObs(r)
		for _, c := range buildTrace(16, 40) {
			p.ProcessCopy(c)
		}
		p.Flush()
		ft := traceFlow(0)
		p.ReadFlow(HashFiveTuple(ft), HashReverse(ft))
		series := r.Snapshot()
		for name := range series {
			if !strings.HasPrefix(name, "p4_dataplane_") {
				delete(series, name)
			}
		}
		return series, p
	}
	one, _ := scrape(1)
	four, p := scrape(4)

	st := p.StatsSnapshot()
	for name, want := range map[string]uint64{
		"p4_dataplane_ingress_copies_total":  st.IngressCopies,
		"p4_dataplane_egress_copies_total":   st.EgressCopies,
		"p4_dataplane_rtt_samples_total":     st.RTTSamples,
		"p4_dataplane_flow_table_occupancy":  p.OccupiedCells(),
		"p4_dataplane_sketch_memory_bytes":   p.LeanMemoryBytes(),
		"p4_dataplane_aliased_packets_total": 0,
	} {
		if got, ok := four[name].(uint64); !ok || got != want {
			t.Errorf("shards=4 %s = %v, want %d", name, four[name], want)
		}
	}
	if st.RTTSamples == 0 {
		t.Fatal("trace produced no RTT samples; the comparison is vacuous")
	}
	for name, v := range one {
		w, ok := four[name]
		switch {
		case !ok:
			t.Errorf("%s is exported at one shard but not at four", name)
		case name == "p4_dataplane_extract_wall_ns":
			// Wall-clock latency: one observation each, value not comparable.
		case name == "p4_dataplane_sketch_memory_bytes":
			// One sketch tier per shard.
		case name == "p4_dataplane_mapped_bytes":
			// Every live pipe in the process: the one-shard front-end's too.
		case !reflect.DeepEqual(v, w):
			t.Errorf("%s = %v at one shard, %v at four", name, v, w)
		}
	}
	for name := range four {
		if _, ok := one[name]; !ok {
			t.Errorf("%s is exported at four shards but not at one", name)
		}
	}
}
