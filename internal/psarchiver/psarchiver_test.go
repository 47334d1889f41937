package psarchiver

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/controlplane"
)

// obj is a decoded JSON object; Document{Extra: obj{...}} is the document
// encoding/json's fallback builds from it.
type obj = map[string]interface{}

func TestStoreIndexAndCount(t *testing.T) {
	s := NewStore()
	s.Index("a", Document{Extra: obj{"x": 1.0}})
	s.Index("a", Document{Extra: obj{"x": 2.0}})
	s.Index("b", Document{Extra: obj{"x": 3.0}})
	if s.Count("a") != 2 || s.Count("b") != 1 || s.Count("zzz") != 0 {
		t.Fatal("counts wrong")
	}
	idx := s.Indices()
	if len(idx) != 2 || idx[0] != "a" || idx[1] != "b" {
		t.Fatalf("indices: %v", idx)
	}
}

func TestStoreSearchTerms(t *testing.T) {
	s := NewStore()
	s.Index("m", Document{Extra: obj{"flow_id": "aa", "v": 1.0}})
	s.Index("m", Document{Extra: obj{"flow_id": "bb", "v": 2.0}})
	s.Index("m", Document{Extra: obj{"flow_id": "aa", "v": 3.0}})
	got := s.Search(Query{Index: "m", Terms: map[string]string{"flow_id": "aa"}})
	if len(got) != 2 {
		t.Fatalf("got %d docs", len(got))
	}
}

func TestStoreSearchTimeRange(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Index("m", Document{Extra: obj{"time_ns": float64(i * 1000)}})
	}
	got := s.Search(Query{Index: "m", TimeField: "time_ns", FromNs: 3000, ToNs: 7000})
	if len(got) != 4 { // 3000,4000,5000,6000
		t.Fatalf("got %d docs", len(got))
	}
}

func TestStoreAggregate(t *testing.T) {
	s := NewStore()
	for _, v := range []float64{10, 20, 30} {
		s.Index("m", Document{Extra: obj{"value": v}})
	}
	st, err := s.Aggregate(Query{Index: "m"}, "value")
	if err != nil {
		t.Fatal(err)
	}
	if st.Min != 10 || st.Max != 30 || st.Mean != 20 || st.Count != 3 || st.Sum != 60 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := s.Aggregate(Query{Index: "m"}, "missing"); err == nil {
		t.Fatal("aggregate over missing field must error")
	}
}

func TestDocumentAccessors(t *testing.T) {
	d := Document{Extra: obj{"f": 1.5, "i": 7, "s": "hi"}}
	if v, ok := d.Float("f"); !ok || v != 1.5 {
		t.Fatal("float accessor")
	}
	if v, ok := d.Float("i"); !ok || v != 7 {
		t.Fatal("int accessor")
	}
	if _, ok := d.Float("s"); ok {
		t.Fatal("string must not read as float")
	}
	if d.Str("s") != "hi" || d.Str("f") != "" {
		t.Fatal("str accessor")
	}
}

func TestPipelineAddsMetadataAndRoutes(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	p.Process(NewDocument(controlplane.Report{Kind: "metric", TimeNs: 42}, nil))
	if store.Count("p4-psonar-metric") != 1 {
		t.Fatalf("routing wrong: %v", store.Indices())
	}
	doc := store.Search(Query{Index: "p4-psonar-metric"})[0]
	if doc.Str("host") != "p4-switch-cp" || doc.Str("@version") != "1" {
		t.Fatalf("metadata missing: %+v", doc)
	}
	if ts, ok := doc.Float("@timestamp_ns"); !ok || ts != 42 {
		t.Fatalf("timestamp not copied: %v %v", ts, ok)
	}
}

func TestPipelineEmitImplementsSink(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	var sink controlplane.Sink = p
	sink.Emit(controlplane.Report{Kind: controlplane.KindAlert, TimeNs: 7, Metric: controlplane.MetricRTT, Value: 3})
	docs := store.Search(Query{Index: "p4-psonar-alert"})
	if len(docs) != 1 {
		t.Fatalf("docs=%d", len(docs))
	}
	if docs[0].Str("metric") != "rtt" {
		t.Fatalf("doc: %+v", docs[0])
	}
}

func TestPipelineUnknownKind(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	p.Process(Document{Extra: obj{"v": 1.0}})
	if store.Count("p4-psonar-unknown") != 1 {
		t.Fatal("unknown kind not routed")
	}
}

func TestTCPInputIngestsJSONLines(t *testing.T) {
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
	for i := 0; i < 5; i++ {
		line, _ := json.Marshal(map[string]interface{}{"kind": "metric", "value": i})
		conn.Write(append(line, '\n'))
	}
	conn.Write([]byte("this is not json\n"))
	conn.Close()

	// The garbage line follows the fifth document on the same connection,
	// so its error is counted only after that document is indexed: wait
	// for both under one deadline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if store.Count("p4-psonar-metric") == 5 && in.Errors() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := store.Count("p4-psonar-metric"); got != 5 {
		t.Fatalf("ingested %d docs, want 5", got)
	}
	if got := in.Errors(); got != 1 {
		t.Fatalf("errors=%d, want 1 for the garbage line", got)
	}
}

func TestTCPInputMultipleConnections(t *testing.T) {
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	in, err := NewTCPInput(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	const conns = 4
	const docsPer = 25
	done := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			conn, err := net.Dial("tcp", in.Addr())
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			for i := 0; i < docsPer; i++ {
				fmt.Fprintf(conn, "{\"kind\":\"metric\",\"conn\":%d,\"i\":%d}\n", c, i)
			}
			done <- nil
		}(c)
	}
	for c := 0; c < conns; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if store.Count("p4-psonar-metric") == conns*docsPer {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := store.Count("p4-psonar-metric"); got != conns*docsPer {
		t.Fatalf("ingested %d, want %d", got, conns*docsPer)
	}
}

// TestTCPInputCloseIdempotent closes an input that has served one
// connection, twice, and requires its accept loop and the connection's
// serve goroutine to be gone once the first Close returns.
func TestTCPInputCloseIdempotent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := NewPipeline()
	store := NewStore()
	p.OpenSearchOutput(store)
	in, err := NewTCPInput(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(conn, `{"kind":"metric"}`)
	for deadline := time.Now().Add(2 * time.Second); store.Count("p4-psonar-metric") == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	conn.Close()

	closed := make(chan error, 1)
	go func() { closed <- in.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: the accept loop or a serve goroutine is still running")
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline=%d now=%d", baseline, runtime.NumGoroutine())
		}
	}
}
