package psarchiver

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/replay"
	"repro/internal/simtime"
)

// controlPlaneStream returns what a control plane emits, in order, for
// flows Synth flows interleaved record by record, all four metrics at 5
// samples/s, over the given simulated seconds: one tick's reports
// alternate between flows, and every throughput tick adds the
// limitation lines (which carry no rev_id) and one aggregate.
func controlPlaneStream(tb testing.TB, flows int, seconds simtime.Time) []controlplane.Report {
	tb.Helper()
	sink := &controlplane.MemorySink{}
	e := simtime.NewEngine()
	dp := dataplane.NewPipes(dataplane.Config{LongFlowBytes: 16 << 10}, 1)
	cp := controlplane.New(e, dp, sink, controlplane.Config{LinkCapacityBps: 10e9})
	cp.Start()
	for _, m := range controlplane.AllMetrics() {
		if err := cp.SetRate(m, 5); err != nil {
			tb.Fatal(err)
		}
	}
	src := &replay.Synth{Flows: flows, Packets: math.MaxInt, Spacing: 20 * simtime.Microsecond, FlowBase: 1 << 12, RetransEvery: 101}
	var rec replay.Record
	var pkt packet.Packet
	for n := 0; src.Next(&rec); n++ {
		if simtime.Time(rec.At) >= seconds*simtime.Second {
			break
		}
		dp.ProcessCopy(rec.CopyInto(&pkt))
		if n%1024 == 1023 {
			e.Run(simtime.Time(rec.At))
		}
	}
	e.Run(seconds * simtime.Second)
	if len(sink.ByKind(controlplane.KindLimitation)) == 0 || len(sink.ByKind(controlplane.KindMetric)) == 0 {
		tb.Fatalf("the stream lacks metric or limitation lines: %d reports", len(sink.Reports))
	}
	return sink.Reports
}

// TestControlPlaneStreamRoundTrip runs a control plane's own interleaved
// stream through the codec and the store and checks each report against
// encoding/json: the line is json.Marshal's, the typed decoder takes it
// (through one warm interner, as a connection does) and rebuilds what
// json.Unmarshal rebuilds, and the stored document reads, key by key, as
// the line's JSON object does.
func TestControlPlaneStreamRoundTrip(t *testing.T) {
	reports := controlPlaneStream(t, 64, 3)
	var strs controlplane.Interner
	var doc Document
	store := NewStore()
	var lines [][]byte
	for i := range reports {
		r := &reports[i]
		line, err := r.AppendJSONLine(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(*r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, append(want, '\n')) {
			t.Fatalf("report %d:\n got %s\nwant %s", i, line, want)
		}
		line = line[:len(line)-1]
		var viaJSON controlplane.Report
		if err := json.Unmarshal(line, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if fallback, err := doc.decode(line, &strs); err != nil || fallback {
			t.Fatalf("report %d: decode fallback %v, err %v: %s", i, fallback, err, line)
		}
		if doc.Report != viaJSON || doc.Report != *r {
			t.Fatalf("report %d: decoded\n %+v\nencoding/json\n %+v\nemitted\n %+v", i, doc.Report, viaJSON, *r)
		}
		store.Index("i", doc)
		lines = append(lines, line)
	}
	stored := store.Search(Query{Index: "i"})
	if len(stored) != len(lines) {
		t.Fatalf("stored %d of %d documents", len(stored), len(lines))
	}
	for i, line := range lines {
		var want map[string]interface{}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		d := &stored[i]
		for _, k := range schemaKeys() {
			if w, _ := want[k].(string); d.Str(k) != w {
				t.Fatalf("document %d: Str(%q) = %q, the line has %#v", i, k, d.Str(k), want[k])
			}
			w, wok := want[k].(float64)
			if got, ok := d.Float(k); ok != wok || got != w {
				t.Fatalf("document %d: Float(%q) = %v, %v; the line has %#v", i, k, got, ok, want[k])
			}
		}
	}
}

// BenchmarkReportCodec times the two ends of the wire on a control
// plane's interleaved stream: AppendJSONLine as Shipper.Emit runs it,
// and Document.decode through one connection's interner as the TCP input
// runs it; and Store.Index of the decoded documents, each into the index
// of its kind.
func BenchmarkReportCodec(b *testing.B) {
	reports := controlPlaneStream(b, 1500, 3)
	var buf []byte
	var lines [][]byte
	for i := range reports {
		start := len(buf)
		buf, _ = reports[i].AppendJSONLine(buf)
		lines = append(lines, buf[start:len(buf)-1])
	}
	b.Run("encode", func(b *testing.B) {
		var scratch [512]byte
		for i := 0; i < b.N; i++ {
			line, _ := reports[i%len(reports)].AppendJSONLine(scratch[:0])
			codecSink += len(line)
		}
	})
	b.Run("decode", func(b *testing.B) {
		var strs controlplane.Interner
		var doc Document
		for i := 0; i < b.N; i++ {
			if _, err := doc.decode(lines[i%len(lines)], &strs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		var strs controlplane.Interner
		docs := make([]Document, len(lines))
		names := make([]string, len(lines)) // as Pipeline.process routes each
		for i := range lines {
			if _, err := docs[i].decode(lines[i], &strs); err != nil {
				b.Fatal(err)
			}
			names[i] = indexNames[docs[i].str(kindField, "kind")]
		}
		store := NewStore()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.Index(names[i%len(docs)], docs[i%len(docs)])
		}
	})
}

var codecSink int
