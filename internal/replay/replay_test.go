package replay

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/tap"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// TestSynthDeterministic: two generators with identical parameters
// emit byte-identical record streams.
func TestSynthDeterministic(t *testing.T) {
	mk := func() *Synth { return &Synth{Flows: 3, Packets: 5000} }
	a, b := mk(), mk()
	var ra, rb Record
	for i := 0; ; i++ {
		oka, okb := a.Next(&ra), b.Next(&rb)
		if oka != okb {
			t.Fatalf("streams diverge in length at record %d", i)
		}
		if !oka {
			break
		}
		if ra != rb {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestSynthShape checks the generator produces what it promises:
// the exact record count, monotonic timestamps, both TAP points,
// pure ACKs, and at least one retransmission.
func TestSynthShape(t *testing.T) {
	s := &Synth{Flows: 2, Packets: 4000, RetransEvery: 100}
	var (
		r                   Record
		n                   int
		lastAt              uint64
		egress, acks, datas int
		sawRetrans          bool
		prevSeq             = map[[4]byte]uint64{}
	)
	for s.Next(&r) {
		n++
		if r.At < lastAt {
			t.Fatalf("timestamp went backwards at record %d: %d < %d", n, r.At, lastAt)
		}
		lastAt = r.At
		switch {
		case r.Point == 1:
			egress++
		case r.TotalLen == 40:
			acks++
		default:
			datas++
			if r.Seq < prevSeq[r.SrcIP] {
				sawRetrans = true
			}
			if r.Seq > prevSeq[r.SrcIP] {
				prevSeq[r.SrcIP] = r.Seq
			}
		}
	}
	if n != 4000 {
		t.Fatalf("Packets=4000 produced %d records", n)
	}
	if egress == 0 || acks == 0 || datas == 0 {
		t.Fatalf("workload not mixed: %d data, %d acks, %d egress", datas, acks, egress)
	}
	if !sawRetrans {
		t.Fatal("RetransEvery=100 produced no sequence rewind")
	}
}

// TestSynthFlowKey: the exported key of flow number g is the key the
// data plane's parser gives the first data record the generator emits
// for that flow, wherever FlowBase puts the split between base and
// index, across the 2^16 boundary where the port starts to carry bits.
func TestSynthFlowKey(t *testing.T) {
	for _, g := range []int{0, 1, 255, 65535, 65536, 199999} {
		for _, base := range []int{0, g / 2, g} {
			// One round: every flow opens with a data segment, so the
			// last record is flow g's first.
			src := &Synth{Flows: g - base + 1, FlowBase: base, Packets: g - base + 1}
			var rec Record
			for src.Next(&rec) {
			}
			var pkt packet.Packet
			rec.Fill(&pkt)
			if rec.Point != 0 || !pkt.CarriesData() {
				t.Fatalf("g=%d base=%d: record %+v is not an ingress data segment", g, base, rec)
			}
			if got, want := SynthFlowKey(g), dataplane.KeyOf(pkt.FiveTuple()); got != want {
				t.Errorf("g=%d base=%d: SynthFlowKey %v, generator emits %v", g, base, got, want)
			}
		}
	}
}

// TestRecordRoundTrip: encode/decode is the identity, through the
// Writer/Reader pair.
func TestRecordRoundTrip(t *testing.T) {
	src := &Synth{Flows: 3, Packets: 1000}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var recs []Record
	var r Record
	for src.Next(&r) {
		recs = append(recs, r)
		if err := w.Write(&r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count=%d, wrote %d", w.Count(), len(recs))
	}
	wantSize := len(traceMagic) + len(recs)*recordSize
	if buf.Len() != wantSize {
		t.Fatalf("trace size %d, want %d", buf.Len(), wantSize)
	}

	rd := NewReader(&buf)
	for i := range recs {
		if !rd.Next(&r) {
			t.Fatalf("stream ended at record %d of %d (err %v)", i, len(recs), rd.Err())
		}
		if r != recs[i] {
			t.Fatalf("record %d round-trip mismatch: %+v vs %+v", i, r, recs[i])
		}
	}
	if rd.Next(&r) {
		t.Fatal("reader produced an extra record")
	}
	if rd.Err() != nil {
		t.Fatalf("clean EOF reported error: %v", rd.Err())
	}
}

// TestReaderRejectsBadMagicAndTornTrace: malformed traces surface as
// errors, not silent truncation.
func TestReaderRejectsBadMagicAndTornTrace(t *testing.T) {
	rd := NewReader(strings.NewReader("NOTATRCE" + strings.Repeat("x", recordSize)))
	var r Record
	if rd.Next(&r) {
		t.Fatal("reader accepted bad magic")
	}
	if rd.Err() == nil {
		t.Fatal("bad magic produced no error")
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	src := &Synth{Flows: 1, Packets: 3}
	for src.Next(&r) {
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-7]
	rd = NewReader(bytes.NewReader(torn))
	n := 0
	for rd.Next(&r) {
		n++
	}
	if n != 2 {
		t.Fatalf("torn trace yielded %d whole records, want 2", n)
	}
	if rd.Err() != errTornTrace {
		t.Fatalf("torn trace error = %v, want errTornTrace", rd.Err())
	}

	// Empty input: valid zero-record trace, no error.
	rd = NewReader(strings.NewReader(""))
	if rd.Next(&r) || rd.Err() != nil {
		t.Fatalf("empty trace: next=%v err=%v", false, rd.Err())
	}
}

// TestRecordFromCopyFill: a TAP copy survives the Record round trip —
// the fields the data-plane parser reads are preserved exactly.
func TestRecordFromCopyFill(t *testing.T) {
	ft := packet.FiveTuple{
		SrcIP:   mustAddr("192.168.7.9"),
		DstIP:   mustAddr("10.20.30.40"),
		SrcPort: 12345, DstPort: 5201, Proto: packet.ProtoTCP,
	}
	orig := packet.NewTCP(ft, 99991, 417, packet.FlagACK|packet.FlagPSH, 1460)
	orig.IPID = 5151
	var r Record
	r.FromCopy(tap.Copy{Pkt: orig, Point: tap.Egress, At: 123456789})

	var got packet.Packet
	c := r.CopyInto(&got)
	if c.Point != tap.Egress || uint64(c.At) != 123456789 {
		t.Fatalf("copy metadata lost: %+v", c)
	}
	if got.FiveTuple() != ft {
		t.Fatalf("five-tuple mismatch: %v vs %v", got.FiveTuple(), ft)
	}
	if got.SeqExt != orig.SeqExt || got.AckExt != orig.AckExt ||
		got.TotalLen != orig.TotalLen || got.IPID != orig.IPID ||
		got.Flags != orig.Flags || got.PayloadLen != orig.PayloadLen ||
		got.ExpectedAck() != orig.ExpectedAck() ||
		got.CarriesData() != orig.CarriesData() ||
		got.IsACKOnly() != orig.IsACKOnly() {
		t.Fatalf("parser-visible fields differ:\n got %+v\nwant %+v", got, *orig)
	}
}

// TestRunnerMatchesPerPacketPath: replaying a synthetic source through
// the Runner's batch path leaves the pipeline in exactly the state the
// per-packet ProcessCopy path produces, at 1 and 4 shards.
func TestRunnerMatchesPerPacketPath(t *testing.T) {
	for _, shards := range []int{1, 4} {
		mkSrc := func() *Synth { return &Synth{Flows: 5, Packets: 20000, RetransEvery: 50} }
		cfg := dataplane.Config{FlowTableSize: 512}

		batch := dataplane.NewPipes(cfg, shards)
		got := Runner{Plane: batch, Batch: 100}.Run(mkSrc())

		serial := dataplane.NewPipes(cfg, shards)
		var (
			r   Record
			pkt packet.Packet
			n   uint64
		)
		src := mkSrc()
		for src.Next(&r) {
			serial.ProcessCopy(r.CopyInto(&pkt))
			n++
		}
		serial.Flush()

		if got.Packets != n {
			t.Fatalf("shards=%d: runner saw %d records, serial %d", shards, got.Packets, n)
		}
		if got.Stats.RTTSamples == 0 {
			t.Fatalf("shards=%d: no RTT samples — the workload does not exercise the program", shards)
		}
		if got.Stats != serial.StatsSnapshot() {
			t.Fatalf("shards=%d: stats diverge\n batch %+v\nserial %+v",
				shards, got.Stats, serial.StatsSnapshot())
		}
		for _, name := range batch.RegisterNames() {
			for idx := uint32(0); idx < uint32(cfg.FlowTableSize); idx++ {
				bv, _ := batch.ReadRegister(name, idx)
				sv, _ := serial.ReadRegister(name, idx)
				if bv != sv {
					t.Fatalf("shards=%d: register %s[%d] = %d via batch, %d serial",
						shards, name, idx, bv, sv)
				}
			}
		}
		if got.PPS() <= 0 || got.Gbps() <= 0 {
			t.Fatalf("throughput not measured: pps=%v gbps=%v", got.PPS(), got.Gbps())
		}
	}
}
