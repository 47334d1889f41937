package resilient

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// checkReopen writes existing as the spool file, reopens the spool, and
// holds it to the reopen contract: the file is existing cut after its
// last newline, pending counts the complete records, and peek and
// delivered replay exactly those records in order, then a record
// appended after the reopen, intact, and then the file is truncated.
func checkReopen(t *testing.T, existing []byte) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, SpoolFileName)
	if err := os.WriteFile(path, existing, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := openDiskSpool(dir, 1<<40)
	if err != nil {
		t.Fatalf("reopen over %q: %v", existing, err)
	}
	defer d.close()
	kept := existing[:bytes.LastIndexByte(existing, '\n')+1]
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("reopen over %q left %q (%v), want %q", existing, got, err, kept)
	}
	var want [][]byte
	for rest := kept; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n')
		want, rest = append(want, rest[:i+1]), rest[i+1:]
	}
	if d.pending != int64(len(want)) {
		t.Fatalf("reopen over %q: %d pending, want %d", existing, d.pending, len(want))
	}
	appended := []byte(`{"kind":"metric","time_ns":1}` + "\n")
	if err := d.append(appended); err != nil {
		t.Fatal(err)
	}
	for i, w := range append(want, appended) {
		line, err := d.peek()
		if err != nil || !bytes.Equal(line, w) {
			t.Fatalf("reopen over %q: record %d replays as %q (%v), want %q", existing, i, line, err, w)
		}
		if err := d.delivered(); err != nil {
			t.Fatal(err)
		}
	}
	if line, err := d.peek(); line != nil || err != nil {
		t.Fatalf("reopen over %q: %q (%v) after the last record", existing, line, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("reopen over %q: the drained spool was not truncated (%v)", existing, err)
	}
}

// TestDiskSpoolReopenTornAtEveryOffset cuts a three-record spool file at
// every byte offset, as a crash mid-spill would, and reopens it.
func TestDiskSpoolReopenTornAtEveryOffset(t *testing.T) {
	var file []byte
	for i := 0; i < 3; i++ {
		line, err := report(i).MarshalJSONLine()
		if err != nil {
			t.Fatal(err)
		}
		file = append(file, line...)
	}
	for off := 0; off <= len(file); off++ {
		checkReopen(t, file[:off])
	}
}

// FuzzDiskSpoolReopen reopens a spool over arbitrary existing contents.
func FuzzDiskSpoolReopen(f *testing.F) {
	for _, seed := range []string{
		"", "\n", "\n\n", "torn", "{\"a\":1}\n{\"b\"", "{\"a\":1}\n{\"b\":2}\n", "\x00\xff\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkReopen)
}
