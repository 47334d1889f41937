package trafficgen

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/tap"
)

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	return netip.MustParseAddr(s)
}

func simAt(i int) simtime.Time { return simtime.Time(i+1) * simtime.Microsecond }

// TestRecorderTee: copies reach the inner monitor unchanged while the
// trace captures them; replaying the trace reproduces the same
// pipeline state the live run built.
func TestRecorderTee(t *testing.T) {
	cfg := dataplane.Config{FlowTableSize: 256}
	live := dataplane.NewPipes(cfg, 1)
	var buf bytes.Buffer
	rec := NewRecorder(live, &buf)

	ft := packet.FiveTuple{
		SrcIP:   mustAddr(t, "10.0.0.1"),
		DstIP:   mustAddr(t, "10.0.0.2"),
		SrcPort: 40000, DstPort: 5201, Proto: packet.ProtoTCP,
	}
	var n uint64
	seq := uint64(1)
	for i := 0; i < 500; i++ {
		pkt := packet.NewTCP(ft, seq, 0, packet.FlagACK, 1460)
		pkt.IPID = uint16(i)
		seq += 1460
		rec.ProcessCopy(tap.Copy{Pkt: pkt, Point: tap.Ingress, At: simAt(i)})
		n++
		if i%3 == 0 {
			rec.ProcessCopy(tap.Copy{Pkt: pkt, Point: tap.Egress, At: simAt(i) + 500})
			n++
		}
	}
	if rec.Count() != n {
		t.Fatalf("recorded %d copies, processed %d", rec.Count(), n)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	replayed := dataplane.NewPipes(cfg, 1)
	res := replay.Runner{Plane: replayed}.Run(replay.NewReader(&buf))
	if res.Packets != n {
		t.Fatalf("trace replayed %d records, recorded %d", res.Packets, n)
	}
	if res.Stats != live.StatsSnapshot() {
		t.Fatalf("replayed stats diverge from live run:\n replay %+v\n live   %+v",
			res.Stats, live.StatsSnapshot())
	}
	for _, name := range live.Shard(0).RegisterNames() {
		for idx := uint32(0); idx < uint32(cfg.FlowTableSize); idx++ {
			lv, _ := live.ReadRegister(name, idx)
			rv, _ := replayed.ReadRegister(name, idx)
			if lv != rv {
				t.Fatalf("register %s[%d]: live %d, replayed %d", name, idx, lv, rv)
			}
		}
	}
}
