package dataplane_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dataplane"
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

// splitReference is the single-pipe answer, computed once: a bare
// DataPlane fed the trace packet by packet. Synth numbers flows
// consecutively and flow IDs are CRCs, so the flow numbering is
// searched for one the reference shows to be alias-free — no packet in
// the sketch tier, no contended cell or signature slot; the property
// is stated for such traffic (a cell two flows contend for goes to one
// of them per pipe, so sharding legitimately admits both).
var splitReference = sync.OnceValue(func() (ref struct {
	flowBase  int
	plane     *dataplane.DataPlane
	flows     []packet.FiveTuple
	announced []dataplane.FlowID
}) {
	for ; ref.flowBase < 24*64; ref.flowBase += 24 {
		ref.plane, ref.flows, ref.announced = dataplane.New(splitConfig), nil, nil
		ref.plane.OnLongFlow = func(ev dataplane.LongFlowEvent) {
			ref.announced = append(ref.announced, ev.ID)
		}
		var (
			rec replay.Record
			pkt packet.Packet
		)
		for src := splitSynth(ref.flowBase); src.Next(&rec); {
			c := rec.CopyInto(&pkt)
			if ft := pkt.FiveTuple(); ft.DstPort == 5201 && !slices.Contains(ref.flows, ft) {
				ref.flows = append(ref.flows, ft)
			}
			ref.plane.ProcessCopy(c)
		}
		st := ref.plane.Stats
		if st.SlotCollisions+st.AliasedPackets+st.EACKEvictions+st.QSigMismatches == 0 &&
			ref.plane.OccupiedCells() == uint64(2*len(ref.flows)) {
			slices.Sort(ref.announced)
			return ref
		}
	}
	panic("no alias-free flow numbering among 64 candidates")
})

// FuzzPipesSplitInvariance: however the trace is cut into fronts and
// single copies, and over however many shards, every merged read
// equals the single-pipe answer and the same flows are announced.
// splits is consumed cyclically: a zero byte sends the next record
// through ProcessCopy, any other byte b sends the next b records as
// one front through ProcessFront. The seed corpus in testdata/fuzz
// makes it a plain test under `go test`.
func FuzzPipesSplitInvariance(f *testing.F) {
	f.Fuzz(func(t *testing.T, shardSel uint8, splits []byte) {
		ref := splitReference()
		shards := splitShards[int(shardSel)%len(splitShards)]
		p := dataplane.NewPipes(splitConfig, shards)
		var announced []dataplane.FlowID
		p.SetLongFlowHandler(func(ev dataplane.LongFlowEvent) {
			if ev.Shard < 0 || ev.Shard >= shards {
				t.Errorf("event shard %d outside [0,%d)", ev.Shard, shards)
			}
			announced = append(announced, ev.ID)
		})

		var (
			rec   replay.Record
			pkt   packet.Packet
			front = dataplane.NewFront(256)
			src   = splitSynth(ref.flowBase)
		)
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

		dataplane.AssertMergedEqualsSinglePipe(t, p, ref.plane, ref.flows)
		slices.Sort(announced)
		if !slices.Equal(announced, ref.announced) {
			t.Fatalf("shards=%d announced %v, single pipe %v", shards, announced, ref.announced)
		}
	})
}
