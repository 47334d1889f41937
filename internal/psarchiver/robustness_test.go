package psarchiver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/faultnet"
)

func waitCount(t *testing.T, what string, want int, get func() int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if get() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s: got %d, want %d", what, get(), want)
}

// TestTCPInputOversizedLineCountedAndSurvived is the regression test
// for the silent-kill bug: a line over the 1 MB cap used to terminate
// the scanner loop with sc.Err() unchecked — no error counted, the
// rest of the stream discarded. Now the oversized line counts as one
// error and BOTH a later line on the same connection and lines on
// subsequent connections still ingest.
func TestTCPInputOversizedLineCountedAndSurvived(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	in, err := NewTCPInput(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	conn, err := net.Dial("tcp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"kind":"metric","i":1}` + "\n")); err != nil {
		t.Fatal(err)
	}
	// An oversized (>1 MB) line: valid JSON, but over the cap.
	huge := append([]byte(`{"kind":"metric","pad":"`), bytes.Repeat([]byte{'x'}, maxLineBytes+1024)...)
	huge = append(huge, []byte(`"}`+"\n")...)
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	// The same connection must keep working afterwards.
	if _, err := conn.Write([]byte(`{"kind":"metric","i":2}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	waitCount(t, "both small docs ingested", 2, func() int { return store.Count("p4-psonar-metric") })
	waitCount(t, "oversized line counted", 1, func() int { return int(in.Errors()) })

	// A fresh connection is served as before.
	conn2, err := net.Dial("tcp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write([]byte(`{"kind":"metric","i":3}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn2.Close()
	waitCount(t, "doc on follow-up connection", 3, func() int { return store.Count("p4-psonar-metric") })
}

// TestTCPInputMidLineReset asserts that a connection dying in the
// middle of a record neither ingests the fragment nor goes
// unaccounted: the torn prefix is one counted error.
func TestTCPInputMidLineReset(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	in, err := NewTCPInput(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	conn, err := net.Dial("tcp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"kind":"metric","i":1}` + "\n" + `{"kind":"metr`)); err != nil {
		t.Fatal(err)
	}
	conn.Close() // mid-line

	waitCount(t, "complete doc ingested", 1, func() int { return store.Count("p4-psonar-metric") })
	waitCount(t, "torn fragment counted", 1, func() int { return int(in.Errors()) })
}

// TestTCPInputManySimultaneousConnections hammers the input with
// concurrent connections, some of which die mid-line, and checks exact
// accounting: every complete line ingests, every torn one counts.
func TestTCPInputManySimultaneousConnections(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	in, err := NewTCPInput(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	const conns = 16
	const docsPer = 50
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", in.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := 0; i < docsPer; i++ {
				fmt.Fprintf(conn, "{\"kind\":\"metric\",\"conn\":%d,\"i\":%d}\n", c, i)
			}
			if c%2 == 0 {
				// Half the connections die mid-record.
				fmt.Fprintf(conn, "{\"kind\":\"met")
			}
		}(c)
	}
	wg.Wait()

	waitCount(t, "all complete docs ingested", conns*docsPer, func() int { return store.Count("p4-psonar-metric") })
	waitCount(t, "all torn fragments counted", conns/2, func() int { return int(in.Errors()) })
}

// TestTCPInputOverFaultnetListener runs the real ingest loop over the
// in-memory fault-injection listener: a scripted reset tears one
// record, which must surface as exactly one counted error while every
// intact record ingests.
func TestTCPInputOverFaultnetListener(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	l := faultnet.NewListener()
	in := NewInputFromListener(p, l)
	defer in.Close()

	line := []byte(`{"kind":"metric","i":0}` + "\n")
	// Cut the second record in half.
	l.ScriptNext(faultnet.Script{{AfterBytes: len(line) + 10, Kind: faultnet.Reset}})
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := conn.Write(append(append([]byte{}, line...), line...)); werr == nil {
		t.Fatal("scripted reset should fail the write")
	}

	waitCount(t, "intact record ingested", 1, func() int { return store.Count("p4-psonar-metric") })
	waitCount(t, "torn record counted", 1, func() int { return int(in.Errors()) })
}

// TestPipelineConcurrentProcessAndMutation drives Process from many
// goroutines while filters and outputs are appended concurrently —
// run under -race, it proves the pipeline's locking discipline.
func TestPipelineConcurrentProcessAndMutation(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)

	const workers = 8
	const docs = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				p.Process(Document{Extra: obj{"kind": "metric", "w": w, "i": i}})
			}
		}(w)
	}
	// Mutate the chains while documents are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			p.AddFilter(func(d *Document) bool { return true })
			p.AddOutput(func(index string, doc Document) {})
		}
	}()
	// And poll the stats, like the collector does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = p.Stats()
		}
	}()
	wg.Wait()

	st := p.Stats()
	if st.Received != workers*docs || st.Shipped != workers*docs || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got := store.Count("p4-psonar-metric"); got != workers*docs {
		t.Fatalf("store holds %d docs, want %d", got, workers*docs)
	}
}

// TestPipelineEmitConcurrentWithTCPInput mixes the two input paths —
// direct Sink emits and TCP-ingested lines — concurrently.
func TestPipelineEmitConcurrentWithTCPInput(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	in, err := NewTCPInput(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	const n = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p.Emit(controlplane.Report{Kind: controlplane.KindMetric, TimeNs: int64(i)})
		}
	}()
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", in.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		for i := 0; i < n; i++ {
			fmt.Fprintf(conn, "{\"kind\":\"metric\",\"i\":%d}\n", i)
		}
	}()
	wg.Wait()
	waitCount(t, "both paths ingested", 2*n, func() int { return store.Count("p4-psonar-metric") })
	if in.Errors() != 0 {
		t.Fatalf("errors=%d", in.Errors())
	}
}

// TestTCPInputNonObjectJSONIsAnError is the regression test for the
// one-line crash: "null" is valid JSON that decodes into a nil map
// without an error, and the metadata filter then assigned into it — one
// `printf 'null\n' | nc` panicked the archiver. JSON that is not an
// object is one counted input error each, never a document, and the
// connection keeps serving.
func TestTCPInputNonObjectJSONIsAnError(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	l := faultnet.NewListener()
	in := NewInputFromListener(p, l)
	defer in.Close()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	notObjects := []string{"null", "[]", "1", `"x"`, "true", " null ", "[{}]"}
	for _, line := range notObjects {
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write([]byte(`{"kind":"metric","i":1}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	waitCount(t, "the object after them ingested", 1, func() int { return store.Count("p4-psonar-metric") })
	waitCount(t, "each non-object counted", len(notObjects), func() int { return int(in.Errors()) })
	if st := p.Stats(); st.Received != 1 || st.Shipped != 1 {
		t.Fatalf("a non-object reached the pipeline: %+v", st)
	}
	var doc Document
	for _, line := range notObjects {
		if err := json.Unmarshal([]byte(line), &doc); err == nil {
			t.Errorf("json.Unmarshal(%q) into a Document: no error", line)
		}
	}
}

// TestTCPInputCountsFallbackLines pins the fallback rule from outside: a
// line of the shape Report.AppendJSONLine writes is decoded by the typed
// decoder, any other valid object by encoding/json — counted, and with
// the same meaning.
func TestTCPInputCountsFallbackLines(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	l := faultnet.NewListener()
	in := NewInputFromListener(p, l)
	defer in.Close()

	r := controlplane.Report{Kind: controlplane.KindMetric, TimeNs: 1_000_000_007, FlowID: "ab12", SrcPort: 40000, Metric: controlplane.MetricRTT, Value: 1.25, Unit: "ms"}
	typed, err := r.MarshalJSONLine()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range [][]byte{
		typed,
		[]byte(`{"time_ns":1000000007,"kind":"metric","flow_id":"ab12","src_port":40000,"metric":"rtt","value":1.25,"unit":"ms"}` + "\n"),  // key order
		[]byte(`{"kind":"metric", "time_ns":1000000007,"flow_id":"ab12","src_port":4e4,"metric":"rtt","value":1.25,"unit":"ms"}` + "\r\n"), // a space, 4e4
		[]byte(`{"kind":"metric","time_ns":1000000007,"flow_id":"ab12","src_port":40000,"metric":"rtt","value":1.25,"unit":"ms","host":"elsewhere"}` + "\n"),
	} {
		if _, err := conn.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	waitCount(t, "all four ingested", 4, func() int { return store.Count("p4-psonar-metric") })
	if got := in.fallbacks.Load(); got != 3 || in.Errors() != 0 {
		t.Fatalf("fallback lines = %d, errors = %d; want 3 and 0", got, in.Errors())
	}
	// One query over a schema field, a metadata constant and the copied
	// timestamp finds all four, and all four read the same through the
	// accessors, typed or not.
	docs := store.Search(Query{
		Index: "p4-psonar-metric", Terms: map[string]string{"flow_id": "ab12", "host": "p4-switch-cp"},
		TimeField: "@timestamp_ns", FromNs: 1_000_000_007, ToNs: 1_000_000_008,
	})
	if len(docs) != 4 || docs[0].Report != r {
		t.Fatalf("query matched %d of 4 documents, the first %+v", len(docs), docs[0].Report)
	}
	for i := range docs[1:] {
		for _, k := range schemaKeys() {
			wantNum, wantOK := docs[0].Float(k)
			if got, ok := docs[i+1].Float(k); docs[i+1].Str(k) != docs[0].Str(k) || got != wantNum || ok != wantOK {
				t.Errorf("line %d, %s: %q %v %v; the typed line reads %q %v %v", i+1, k, docs[i+1].Str(k), got, ok, docs[0].Str(k), wantNum, wantOK)
			}
		}
	}
}
