package dataplane_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/oracle"
	"repro/internal/packet"
	"repro/internal/replay"
)

// splitShards are the shard counts the fuzzer chooses from.
var splitShards = []int{1, 2, 3, 4, 8}

// splitConfig lowers the long-flow threshold so every flow of the
// trace announces and the digest path is part of the property.
var splitConfig = dataplane.Config{LongFlowBytes: 64 << 10}

// splitSynth returns the fuzz target's trace: 24 flows, 6000 TAP
// records, with retransmissions and egress copies. Every segment is
// acknowledged, so no expected-ACK entry outlives its RTT sample: a
// stale entry is evicted by whichever flow next hashes to its slot on
// a single pipe but only by a flow of its own shard when sharded, and
// the eviction counter would differ for a reason that is not a merge
// bug.
func splitSynth(flowBase int) *replay.Synth {
	return &replay.Synth{Flows: 24, Packets: 6000, AckEvery: 1, RetransEvery: 37, FlowBase: flowBase}
}

// FuzzPipesSplitInvariance: however the flows are numbered, however
// the trace is cut into fronts and single copies, and over however many
// shards, every flow reads what the oracle says, every announcement
// comes from the shard the partition picks, and where the single pipe
// shows no contention, every merged read equals its answer. shardSel
// picks the shard count, and from 128 up a 16-cell flow table for the
// trace's 24 flows: cells are always contended, so aliasing, slot
// collisions and expected-ACK evictions are part of the input. splits
// is consumed cyclically: a zero byte sends the next record through
// ProcessCopy, any other byte b sends the next b records as one front
// through ProcessFront. The seed corpus in testdata/fuzz makes it a
// plain test under `go test`.
func FuzzPipesSplitInvariance(f *testing.F) {
	f.Fuzz(func(t *testing.T, shardSel uint8, splits []byte, flowBase uint16) {
		cfg := splitConfig
		if shardSel >= 128 {
			cfg.FlowTableSize = 16
		}
		checkSplitInvariance(t, cfg, splitShards[int(shardSel)%len(splitShards)], splits, flowBase)
	})
}

// TestPipesMergePropertyMatchesSinglePipe holds per-packet ingest at
// every shard count to the fuzz property, at flow numberings where the
// single pipe is uncontended, so every merged read is compared with it.
func TestPipesMergePropertyMatchesSinglePipe(t *testing.T) {
	for i, flowBase := range []uint16{0, 2026, 7, 4242, 31337} {
		t.Run(fmt.Sprintf("shards=%d", splitShards[i]), func(t *testing.T) {
			if !checkSplitInvariance(t, splitConfig, splitShards[i], nil, flowBase) {
				t.Fatalf("flow base %d: the single pipe sees contention, so nothing was compared with it", flowBase)
			}
		})
	}
}

// checkSplitInvariance is the fuzz property for one input. It reports
// whether the single pipe was uncontended, so the merge was compared.
func checkSplitInvariance(t *testing.T, cfg dataplane.Config, shards int, splits []byte, flowBase uint16) bool {
	truth, single := oracle.New(), dataplane.New(cfg)
	var singleAnnounced, announced []dataplane.FlowID
	single.OnLongFlow = func(ev dataplane.LongFlowEvent) { singleAnnounced = append(singleAnnounced, ev.ID) }
	p := dataplane.NewPipes(cfg, shards)
	p.SetLongFlowHandler(func(ev dataplane.LongFlowEvent) {
		if want := dataplane.ShardOf(dataplane.KeyOf(ev.Tuple), shards); ev.Shard != want {
			t.Errorf("flow %v announced by shard %d, the partition picks %d", ev.Tuple, ev.Shard, want)
		}
		announced = append(announced, ev.ID)
	})

	var (
		rec   replay.Record
		pkt   packet.Packet
		front = dataplane.NewFront(256)
		src   = splitSynth(int(flowBase))
	)
	for whole := splitSynth(int(flowBase)); whole.Next(&rec); {
		c := rec.CopyInto(&pkt)
		truth.Observe(c)
		single.ProcessCopy(c)
	}
	for k, more := 0, true; more; k++ {
		n := 0
		if len(splits) > 0 {
			n = int(splits[k%len(splits)])
		}
		if n == 0 {
			if more = src.Next(&rec); more {
				p.ProcessCopy(rec.CopyInto(&pkt))
			}
			continue
		}
		for ; n > 0 && more; n-- {
			if more = src.Next(&rec); more {
				front.AppendCopy(rec.CopyInto(&pkt))
			}
		}
		p.ProcessFront(front)
		front.Reset()
	}
	p.Flush()

	st := p.StatsSnapshot()
	slices.Sort(announced)
	for _, ft := range truth.DataFlows() {
		// Admitted, a direction's exact counters are its truth bit for
		// bit; on either tier, its estimate never undercounts it.
		admitted := false // the data direction's, checked last
		for _, dir := range []packet.FiveTuple{ft.Reverse(), ft} {
			est, w := p.EstimateFlow(dataplane.KeyOf(dir)), truth.Flow(dir)
			if est.Admitted && (est.ExactBytes != w.Bytes || est.ExactPkts != w.Pkts || est.ExactLoss != w.PktLoss) ||
				est.Bytes < w.Bytes || est.Pkts < w.Pkts || est.Loss < w.PktLoss {
				t.Errorf("flow %v: estimate %+v, oracle %d B %d pkts %d lost", dir, est, w.Bytes, w.Pkts, w.PktLoss)
			}
			admitted = est.Admitted
		}
		if !admitted {
			continue
		}
		// An admitted flow holds its cell from its first segment, and
		// the long-flow sketch never undercounts it.
		_, found := slices.BinarySearch(announced, dataplane.HashFiveTuple(ft))
		if b := truth.Flow(ft).Bytes; b >= cfg.LongFlowBytes && !found {
			t.Errorf("flow %v sent %d B, over the long-flow threshold, and was not announced", ft, b)
		}
		// With every packet admitted, every expected ACK kept until
		// its ACK and every ingress stamp until its egress copy, each
		// register the rules define holds the oracle's value.
		if st.AliasedPackets+st.EACKEvictions+st.QSigMismatches == 0 {
			got, w := p.ReadFlow(dataplane.HashFiveTuple(ft), dataplane.HashReverse(ft)), truth.Flow(ft)
			want := dataplane.FlowSnapshot{Bytes: w.Bytes, Pkts: w.Pkts, PktLoss: w.PktLoss, RTT: w.RTT, QDelay: w.QDelay,
				Flight: w.Flight, FlightMaxW: w.FlightMaxW, FlightMinW: w.FlightMinW}
			got.MaxIAT, got.FirstSeen, got.LastSeen, got.FinSeen = 0, 0, 0, false
			if got != want {
				t.Errorf("flow %v: snapshot %+v, oracle %+v", ft, got, want)
			}
		}
	}

	// The merge property is stated for traffic the single pipe holds
	// without contention: a cell, expected-ACK slot or ingress stamp
	// two flows contend for goes to one of them per pipe, so sharding
	// legitimately changes who wins.
	if rs := single.Stats; rs.SlotCollisions+rs.AliasedPackets+rs.EACKEvictions+rs.QSigMismatches == 0 {
		dataplane.AssertMergedEqualsSinglePipe(t, p, single, truth.DataFlows())
		slices.Sort(singleAnnounced)
		if len(singleAnnounced) != len(truth.DataFlows()) || !slices.Equal(announced, singleAnnounced) {
			t.Fatalf("shards=%d announced %v, single pipe %v of %d flows", shards, announced, singleAnnounced, len(truth.DataFlows()))
		}
		return true
	}
	return false
}
