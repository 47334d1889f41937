package psarchiver

import (
	"bytes"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/faultnet"
)

// schemaKeys lists Report_v1's JSON names, read off the struct tags here
// rather than taken from the table under test.
func schemaKeys() []string {
	t := reflect.TypeOf(controlplane.Report{})
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return keys
}

// FuzzReportLine pins the archiver's wire format from the reading side.
// Whatever the bytes, the input accepts a line exactly when
// encoding/json decodes it into a non-nil map, and then every key —
// Report_v1's whole schema and whatever else the object carries — reads
// through Str and Float as it reads from that map: the typed decoder,
// its hand-off to encoding/json and the typed Document are invisible,
// also on a second decode through the same interner into a Document that
// last held another line (as the TCP input's one Document per connection
// does; here a fallback line with Extra and the metadata flag), when the
// line comes in through json.Unmarshal, and on each of those documents
// stored and searched back out of the store's columns. After the
// metadata filter the four Logstash fields read as stamped.
// The seed corpus in testdata/fuzz makes it a plain test under `go test`.
func FuzzReportLine(f *testing.F) {
	// The four Logstash keys too: before AddMetadata they read as the line
	// has them, however the document was last used.
	keys := append(schemaKeys(), "@version", "host", "pipeline", "@timestamp_ns")
	// A line the typed decoder declines (a key outside the schema), with
	// a schema key of each kind the fuzzed line may or may not carry.
	reusedLine := []byte(`{"kind":"stale","time_ns":7,"flow_id":"0badf00d","value":3.5,"x":[1]}`)
	f.Fuzz(func(t *testing.T, line []byte) {
		var want map[string]interface{}
		wantErr := json.Unmarshal(line, &want)

		var strs controlplane.Interner
		var doc, again Document
		if _, err := again.decode(reusedLine, &strs); err != nil || again.Extra == nil {
			t.Fatalf("the reused document's first line: %v, Extra %v", err, again.Extra)
		}
		AddMetadata(&again)
		_, err := doc.decode(line, &strs)
		if accepted := wantErr == nil && want != nil; (err == nil) != accepted {
			t.Fatalf("decode error %v, but encoding/json into a map: %v (nil map: %v)", err, wantErr, want == nil)
		}
		if err != nil {
			return
		}
		// Same again through the warm interner into the reused document,
		// and through json.Unmarshal (which trims the value before
		// UnmarshalJSON sees it, so the same line may arrive typed there and
		// as a map here).
		var viaJSON Document
		if _, err := again.decode(line, &strs); err != nil {
			t.Fatalf("second decode through the interner: %v", err)
		}
		if err := json.Unmarshal(line, &viaJSON); err != nil {
			t.Fatalf("json.Unmarshal into a Document: %v", err)
		}

		same := func(stage string) {
			t.Helper()
			store := NewStore()
			for _, d := range []*Document{&doc, &again, &viaJSON} {
				store.Index("i", *d)
			}
			stored := store.Search(Query{Index: "i"})
			check := func(d *Document, k string) {
				t.Helper()
				wantStr, _ := want[k].(string)
				if got := d.Str(k); got != wantStr {
					t.Fatalf("%s: Str(%q) = %q, the map holds %#v", stage, k, got, want[k])
				}
				wantNum, wantOK := want[k].(float64)
				if got, ok := d.Float(k); ok != wantOK || got != wantNum {
					t.Fatalf("%s: Float(%q) = %v, %v; the map holds %#v", stage, k, got, ok, want[k])
				}
			}
			for _, d := range []*Document{&doc, &again, &viaJSON, &stored[0], &stored[1], &stored[2]} {
				for _, k := range keys {
					check(d, k)
				}
				for k := range want {
					check(d, k)
				}
			}
		}
		same("decoded")

		// What AddMetadata did to the map it now does to the document.
		if t, ok := want["time_ns"]; ok {
			want["@timestamp_ns"] = t
		}
		want["@version"], want["host"], want["pipeline"] = "1", "p4-switch-cp", "p4-psonar"
		for _, d := range []*Document{&doc, &again, &viaJSON} {
			if !AddMetadata(d) {
				t.Fatal("AddMetadata dropped the document")
			}
		}
		same("with metadata")
	})
}

// FuzzTCPInputFraming pins TCPInput.serve's line framing: a byte stream
// cut into fuzzer-chosen writes over a faultnet connection (one write of
// 1 + cuts[i] bytes at a time, cycling through cuts; the whole stream at
// once when cuts is empty) stores exactly the documents, and counts
// exactly the lines and errors, that decoding its newline-terminated
// lines one at a time into fresh Documents gives — an unterminated tail
// being one line and one error. The seed corpus in testdata/fuzz makes it
// a plain test under `go test`.
func FuzzTCPInputFraming(f *testing.F) {
	// A line longer than the input's 64 KB read buffer, so ReadSlice
	// returns it in pieces. Written at once: in small writes it would
	// slow every execution the fuzzer derives from it.
	long := []byte(`{"kind":"metric","time_ns":9,"flow_id":"` + strings.Repeat("f", 70_000) + "\"}\n")
	f.Add(long, []byte(nil))
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		if len(stream) > maxLineBytes {
			return // an oversized line is one error, not what this target models
		}
		want := NewStore()
		ref := NewPipeline()
		ref.OpenSearchOutput(want)
		var wantLines, wantErrors uint64
		rest := stream
		for {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			line := bytes.TrimRight(rest[:i+1], "\r\n")
			rest = rest[i+1:]
			if len(line) == 0 {
				continue
			}
			wantLines++
			var doc Document
			if _, err := doc.decode(line, nil); err != nil {
				wantErrors++
				continue
			}
			ref.Process(doc)
		}
		if len(rest) > 0 {
			wantLines, wantErrors = wantLines+1, wantErrors+1
		}

		got := NewStore()
		p := NewPipeline()
		p.OpenSearchOutput(got)
		fl := faultnet.NewListener()
		ln := &servedListener{Listener: fl, served: make(chan struct{})}
		in := NewInputFromListener(p, ln)
		conn, err := fl.Dial()
		if err != nil {
			t.Fatal(err)
		}
		for i, off := 0, 0; off < len(stream); i++ {
			n := len(stream) - off
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)]))
			}
			if _, err := conn.Write(stream[off : off+n]); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			off += n
		}
		_ = conn.Close() // the input reads EOF
		// Closing the input cuts the server half, which a read still to
		// come would count as a read error: wait for serve to return first.
		select {
		case <-ln.served:
		case <-time.After(10 * time.Second):
			t.Fatal("the input never finished the connection")
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}

		if l, e := in.lines.Load(), in.Errors(); l != wantLines || e != wantErrors {
			t.Fatalf("input counted %d lines and %d errors, want %d and %d", l, e, wantLines, wantErrors)
		}
		if g, w := p.Stats(), ref.Stats(); g != w {
			t.Fatalf("pipeline stats %+v, want %+v", g, w)
		}
		if g, w := got.Indices(), want.Indices(); !reflect.DeepEqual(g, w) {
			t.Fatalf("indices %v, want %v", g, w)
		}
		for _, name := range want.Indices() {
			g, w := got.Search(Query{Index: name}), want.Search(Query{Index: name})
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("index %s holds\n%+v\nwant\n%+v", name, g, w)
			}
		}
	})
}

// servedListener closes served when the input closes the connection it
// accepted, which serve does as it returns.
type servedListener struct {
	net.Listener
	served chan struct{}
}

func (l *servedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &servedConn{Conn: c, served: l.served}, nil
}

type servedConn struct {
	net.Conn
	served chan struct{}
}

func (c *servedConn) Close() error {
	close(c.served)
	return c.Conn.Close()
}
