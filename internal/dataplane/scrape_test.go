package dataplane_test

import (
	"fmt"
	"io"
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
// The race detector is the assertion; the totals check that waiting is
// all a scrape did (nothing lost, nothing replayed twice).
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
	var perShard uint64
	series := r.Snapshot()
	for i := 0; i < p.NumShards(); i++ {
		perShard += series[fmt.Sprintf("p4_pipes_shard%d_ingress_copies_total", i)].(uint64)
	}
	if perShard != st.IngressCopies {
		t.Fatalf("per-shard gauges sum to %d ingress copies, merged snapshot %d", perShard, st.IngressCopies)
	}
}
