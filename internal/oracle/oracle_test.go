package oracle

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tap"
)

const ms = simtime.Millisecond

var (
	fwd = packet.FiveTuple{
		SrcIP: packet.MustAddr("10.0.0.1"), DstIP: packet.MustAddr("10.0.1.1"),
		SrcPort: 40000, DstPort: 5201, Proto: packet.ProtoTCP,
	}
	rev = fwd.Reverse()
)

// data is the ingress copy of a data segment of fwd: 40 header bytes
// plus payload, expected ACK seq+payload.
func data(seq uint64, payload int, ipid uint16, at simtime.Time) tap.Copy {
	p := packet.NewTCP(fwd, seq, 0, packet.FlagACK, payload)
	p.IPID = ipid
	return tap.Copy{Pkt: p, Point: tap.Ingress, At: at}
}

// ack is the ingress copy of a pure ACK from fwd's receiver (40 bytes).
func ack(n uint64, at simtime.Time) tap.Copy {
	return tap.Copy{Pkt: packet.NewTCP(rev, 0, n, packet.FlagACK, 0), Point: tap.Ingress, At: at}
}

// egress is the egress copy of c's packet.
func egress(c tap.Copy, at simtime.Time) tap.Copy {
	return tap.Copy{Pkt: c.Pkt, Point: tap.Egress, At: at}
}

// truth is the exported part of a Flow.
type truth struct {
	Bytes, Pkts, PktLoss           uint64
	RTT, QDelay                    simtime.Time
	Flight, FlightMaxW, FlightMinW uint64
}

func exported(f Flow) truth {
	return truth{f.Bytes, f.Pkts, f.PktLoss, f.RTT, f.QDelay, f.Flight, f.FlightMaxW, f.FlightMinW}
}

// TestRules drives each rule with hand-built TAP copies and compares
// fwd's truth, the total loss and the data-flow count with answers
// worked out by hand from the package doc's rules.
func TestRules(t *testing.T) {
	noFlight := uint64(math.MaxUint64)
	seq0, seq1 := data(0, 1000, 1, 1*ms), data(1000, 1000, 2, 2*ms)
	revID2 := ack(0, 0) // a packet of rev with fwd's IP ID 2
	revID2.Pkt.IPID = 2
	cases := []struct {
		name   string
		copies []tap.Copy
		want   truth
		loss   uint64
		flows  int
	}{{
		// 2000 precedes the resent 1000, which is a loss and leaves no
		// stamp: ACK 1100 times the first send (1 ms), not the resend.
		name: "sequence regression counts one loss and stamps nothing",
		copies: []tap.Copy{
			data(1000, 100, 1, 1*ms), data(2000, 100, 2, 2*ms), data(1000, 100, 3, 3*ms),
			ack(1100, 10*ms),
		},
		want: truth{Bytes: 420, Pkts: 3, PktLoss: 1, RTT: 9 * ms, Flight: 1000, FlightMaxW: 1000, FlightMinW: 1000},
		loss: 1, flows: 1,
	}, {
		name:   "an ACK equal to an expected ACK gives that RTT",
		copies: []tap.Copy{seq0, ack(1000, 21*ms)},
		want:   truth{Bytes: 1040, Pkts: 1, RTT: 20 * ms},
		flows:  1,
	}, {
		// ACK 1500 matches no stamp and consumes the one at 1000, so the
		// late ACK 1000 finds nothing to time.
		name:   "an ACK above an expected ACK drops its stamp",
		copies: []tap.Copy{seq0, ack(1500, 20*ms), ack(1000, 30*ms)},
		want:   truth{Bytes: 1040, Pkts: 1},
		flows:  1,
	}, {
		// IP ID 2 leaves 3 ms after it entered; the ingress copy of IP
		// ID 1, sent before it, goes with it, so its own late egress
		// pairs with nothing; rev's copy of IP ID 2 is another flow's.
		name: "an egress copy pairs with its flow's ingress copy of the same IP ID",
		copies: []tap.Copy{
			seq0, seq1, egress(seq1, 5*ms), egress(seq0, 6*ms),
			egress(revID2, 7*ms),
		},
		want:  truth{Bytes: 2080, Pkts: 2, QDelay: 3 * ms, FlightMinW: noFlight},
		flows: 1,
	}, {
		// Expected ACKs 1000, 2000, 3000; ACK 1000 leaves 2000 in
		// flight, ACK 3000 none, and times the segment sent at 3 ms.
		name: "flight and its extremes over two ACKs",
		copies: []tap.Copy{
			seq0, seq1, data(2000, 1000, 3, 3*ms),
			ack(1000, 10*ms), ack(3000, 13*ms),
		},
		want:  truth{Bytes: 3120, Pkts: 3, RTT: 10 * ms, Flight: 0, FlightMaxW: 2000, FlightMinW: 0},
		flows: 1,
	}, {
		name:   "a pure ACK for an unseen reverse flow changes nothing",
		copies: []tap.Copy{ack(1000, 10*ms)},
		want:   truth{FlightMinW: noFlight},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := New()
			for _, c := range tc.copies {
				o.Observe(c)
			}
			if got := exported(o.Flow(fwd)); got != tc.want {
				t.Errorf("fwd truth\n got %+v\nwant %+v", got, tc.want)
			}
			if o.Loss() != tc.loss {
				t.Errorf("Loss() = %d, want %d", o.Loss(), tc.loss)
			}
			if len(o.DataFlows()) != tc.flows {
				t.Errorf("DataFlows() = %v, want %d flows", o.DataFlows(), tc.flows)
			}
		})
	}
}
