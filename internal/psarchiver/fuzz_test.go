package psarchiver

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/controlplane"
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
// also on a second decode through the same interner, when the line
// comes in through json.Unmarshal, and on each of those documents
// stored and searched back out of the store's columns. After the
// metadata filter the four Logstash fields read as stamped.
// The seed corpus in testdata/fuzz makes it a plain test under `go test`.
func FuzzReportLine(f *testing.F) {
	keys := schemaKeys()
	f.Fuzz(func(t *testing.T, line []byte) {
		var want map[string]interface{}
		wantErr := json.Unmarshal(line, &want)

		var strs controlplane.Interner
		var doc, again Document
		_, err := doc.decode(line, &strs)
		if accepted := wantErr == nil && want != nil; (err == nil) != accepted {
			t.Fatalf("decode error %v, but encoding/json into a map: %v (nil map: %v)", err, wantErr, want == nil)
		}
		if err != nil {
			return
		}
		// Same again through the warm interner, and through json.Unmarshal
		// (which trims the value before UnmarshalJSON sees it, so the same
		// line may arrive typed there and as a map here).
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
