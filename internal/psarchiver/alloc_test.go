//go:build !race

// The race detector instruments allocations, so the allocation pin runs
// only in the ordinary test configuration.
package psarchiver

import (
	"testing"

	"repro/internal/controlplane"
)

// allocReport is one of a control plane's metric reports.
var allocReport = controlplane.Report{
	Kind: controlplane.KindMetric, TimeNs: 2_200_000_000,
	FlowID: "9f3c2a7d", RevID: "46180eb5", SrcIP: "10.0.3.17", DstIP: "10.1.0.1",
	SrcPort: 40017, DstPort: 5201, Proto: "tcp",
	Metric: controlplane.MetricRTT, Value: 20.125, Unit: "ms", RTTP50Ms: 16.777216, RTTP95Ms: 33.554432, RTTP99Ms: 33.554432,
}

// TestAllocFreeProcess pins the in-simulation input at zero
// allocations: Emit and Process keep the document on the caller's
// stack, stamp it in place and hand each output a copy.
func TestAllocFreeProcess(t *testing.T) {
	p := NewPipeline()
	var shipped int
	p.AddOutput(func(string, Document) { shipped++ })
	doc := NewDocument(allocReport, nil)
	const runs = 200
	if avg := testing.AllocsPerRun(runs, func() { p.Emit(allocReport) }); avg != 0 {
		t.Errorf("Pipeline.Emit: %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(runs, func() { p.Process(doc) }); avg != 0 {
		t.Errorf("Pipeline.Process: %.2f allocs/op, want 0", avg)
	}
	if want := 2 * (runs + 1); shipped != want {
		t.Fatalf("outputs saw %d documents, want %d", shipped, want)
	}
}

// TestAllocFreeInputLine pins the TCP input's per-line path at zero
// allocations once the connection's interner and the index's open
// segment are warm: the line decodes into the connection's one Document,
// AddMetadata changes it in place, and Store.Index copies it into columns.
func TestAllocFreeInputLine(t *testing.T) {
	line, err := allocReport.AppendJSONLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	line = line[:len(line)-1]

	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	in := &TCPInput{pipeline: p}
	var strs controlplane.Interner
	doc := new(Document)
	// Fill the segments of 16, 32, …, 512 documents and open the first of
	// 1024, which then has room for the warm-up call and every run.
	warm := 0
	for size := minSegmentDocs; size < maxSegmentDocs; size *= 2 {
		warm += size
	}
	for i := 0; i <= warm; i++ {
		in.handleLine(line, &strs, doc)
	}

	const runs = 200
	if avg := testing.AllocsPerRun(runs, func() { in.handleLine(line, &strs, doc) }); avg != 0 {
		t.Errorf("TCPInput.handleLine: %.2f allocs/op, want 0", avg)
	}
	// warm+1 lines above, then AllocsPerRun's own warm-up call and runs.
	if n, want := store.Count("p4-psonar-metric"), warm+2+runs; n != want {
		t.Fatalf("store holds %d documents, want %d", n, want)
	}
	if in.errors.Load() != 0 || in.fallbacks.Load() != 0 {
		t.Fatalf("errors %d, fallbacks %d: the typed decoder declined the encoder's line", in.errors.Load(), in.fallbacks.Load())
	}
}
