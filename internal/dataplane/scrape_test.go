package dataplane_test

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/replay"
)

// TestScrapeDuringReplay scrapes an instrumented four-shard front-end in
// a loop while fronts are ingested beside it. A replay outlives the
// ProcessFront that launched it, so holding the mutex is not enough for
// a gauge to read shard state: it has to wait for the replay in flight.
// The race detector is one assertion; the totals check that waiting is
// all a scrape did (nothing lost, nothing replayed twice). The other is
// that a scrape is one snapshot: in every one taken mid-replay the
// per-shard copy counts sum to the p4_dataplane_* totals, and the event
// totals are exposed as counters. The dup filter's load is read in the
// same snapshot, and reading it logs none of the inserts it counts as
// deferred.
func TestScrapeDuringReplay(t *testing.T) {
	const fronts, batch = 200, 256
	p := dataplane.NewPipes(dataplane.Config{LongFlowBytes: 64 << 10}, 4)
	r := obs.NewRegistry()
	p.RegisterObs(r)
	announced := 0
	p.SetLongFlowHandler(func(dataplane.LongFlowEvent) { announced++ })

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.WritePrometheus(io.Discard)
				series := r.Snapshot()
				for _, dir := range []string{"ingress", "egress"} {
					var perShard uint64
					for i := 0; i < p.NumShards(); i++ {
						perShard += series[fmt.Sprintf("p4_pipes_shard%d_%s_copies_total", i, dir)].(uint64)
					}
					if total := series["p4_dataplane_"+dir+"_copies_total"].(uint64); perShard != total {
						t.Errorf("mid-replay scrape: shards sum to %d %s copies, total says %d", perShard, dir, total)
						return
					}
				}
				ins := series["p4_dataplane_dup_filter_inserts_total"].(uint64)
				if def := series["p4_dataplane_dup_filter_deferred_pairs"].(uint64); def > ins {
					t.Errorf("mid-replay scrape: %d dup-filter pairs deferred of %d inserted", def, ins)
					return
				}
			}
		}
	}()

	var (
		rec   replay.Record
		pkt   packet.Packet
		front = dataplane.NewFront(batch)
		src   = &replay.Synth{Flows: 64, Packets: fronts * batch}
	)
	for src.Next(&rec) {
		if front.AppendCopy(rec.CopyInto(&pkt)); front.Len() == batch {
			p.ProcessFront(front)
			front.Reset()
		}
	}
	p.Flush()
	close(stop)
	scraper.Wait()

	st := p.StatsSnapshot()
	if got := st.IngressCopies + st.EgressCopies; got != fronts*batch {
		t.Fatalf("%d copies processed, %d offered", got, fronts*batch)
	}
	if announced == 0 {
		t.Fatal("no flow announced: the scrape loop ran beside no events")
	}
	var text strings.Builder
	r.WritePrometheus(&text)
	for _, name := range []string{"ingress_copies", "egress_copies", "rtt_samples", "microbursts",
		"aliased_packets", "flow_evictions"} {
		if want := "# TYPE p4_dataplane_" + name + "_total counter\n"; !strings.Contains(text.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	var perShard uint64
	series := r.Snapshot()
	for i := 0; i < p.NumShards(); i++ {
		perShard += series[fmt.Sprintf("p4_pipes_shard%d_ingress_copies_total", i)].(uint64)
	}
	if perShard != st.IngressCopies {
		t.Fatalf("per-shard gauges sum to %d ingress copies, merged snapshot %d", perShard, st.IngressCopies)
	}

	// The dup filter's load is the shards' sum, and reading it logs no
	// deferred insert: the trace aliases nothing, so no test ever ran and
	// a second scrape still finds every distinct pair deferred.
	var ins, def uint64
	for i := 0; i < p.NumShards(); i++ {
		si, sd := p.Shard(i).Lean().DupLoad()
		ins, def = ins+si, def+sd
	}
	if st.AliasedPackets != 0 || def == 0 {
		t.Fatalf("aliased %d packets, %d pairs deferred: the trace must leave runs open", st.AliasedPackets, def)
	}
	for range 2 {
		series = r.Snapshot()
		if got := series["p4_dataplane_dup_filter_inserts_total"].(uint64); got != ins {
			t.Errorf("p4_dataplane_dup_filter_inserts_total = %d, shards hold %d", got, ins)
		}
		if got := series["p4_dataplane_dup_filter_deferred_pairs"].(uint64); got != def {
			t.Errorf("p4_dataplane_dup_filter_deferred_pairs = %d, shards hold %d", got, def)
		}
	}
	if !strings.Contains(text.String(), "# TYPE p4_dataplane_dup_filter_inserts_total counter\n") {
		t.Error("exposition lacks the dup-filter insert counter")
	}
}
