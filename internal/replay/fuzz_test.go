package replay

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzTraceReader feeds arbitrary bytes to the trace reader. No input
// panics. An empty input is an empty trace. The magic followed by k
// whole records yields exactly k records and no error, and a torn final
// record yields the k whole ones and errTornTrace. Any other start — a
// wrong magic, or fewer bytes than the magic — yields no record and an
// error. Every record returned re-encodes to its 44 input bytes, the
// pad byte zeroed.
func FuzzTraceReader(f *testing.F) {
	rec := strings.Repeat("\x01\x02\x03\x04", recordSize/4)
	for _, seed := range []string{
		"", "P4TR", traceMagic, traceMagic + rec, traceMagic + rec + rec[:7],
		traceMagic + rec + rec, "NOTATRCE" + rec, "P4TRACE2" + rec,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		rd := NewReader(bytes.NewReader(in))
		var got []Record
		var r Record
		for rd.Next(&r) {
			got = append(got, r)
		}
		if rd.Next(&r) {
			t.Fatal("Next returned a record after the stream ended")
		}
		switch {
		case len(in) == 0:
			if len(got) != 0 || rd.Err() != nil {
				t.Fatalf("empty input: %d records, err %v; want none and nil", len(got), rd.Err())
			}
			return
		case len(in) < len(traceMagic) || string(in[:len(traceMagic)]) != traceMagic:
			if len(got) != 0 || rd.Err() == nil {
				t.Fatalf("no magic: %d records, err %v; want none and an error", len(got), rd.Err())
			}
			return
		}
		body := in[len(traceMagic):]
		k, torn := len(body)/recordSize, len(body)%recordSize != 0
		if len(got) != k {
			t.Fatalf("%d bytes after the magic: %d records, want %d", len(body), len(got), k)
		}
		if torn && rd.Err() != errTornTrace || !torn && rd.Err() != nil {
			t.Fatalf("%d bytes after the magic: err %v, want torn %v", len(body), rd.Err(), torn)
		}
		for i := range got {
			var b [recordSize]byte
			got[i].encode(&b)
			want := body[i*recordSize : (i+1)*recordSize]
			if !bytes.Equal(b[:recordSize-1], want[:recordSize-1]) || b[recordSize-1] != 0 {
				t.Fatalf("record %d re-encodes to %x, read from %x", i, b, want)
			}
		}
	})
}
