package export

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

func twoSeries() (*metrics.Series, *metrics.Series) {
	a := metrics.NewSeries("alpha")
	b := metrics.NewSeries("beta")
	for i := 0; i < 5; i++ {
		a.Append(simtime.Time(i)*simtime.Second, float64(i))
	}
	b.Append(simtime.Second, 100)
	b.Append(3*simtime.Second, 300)
	return a, b
}

func TestWriteCSV(t *testing.T) {
	a, b := twoSeries()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_s,alpha,beta" {
		t.Fatalf("header: %q", lines[0])
	}
	if len(lines) != 6 { // 5 union timestamps + header
		t.Fatalf("lines: %d\n%s", len(lines), buf.String())
	}
	// t=1s row has both values.
	found := false
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "1.000000,") {
			if l != "1.000000,1,100" {
				t.Fatalf("row: %q", l)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("missing merged row")
	}
}

func TestWriteCSVNoSeries(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf); err == nil {
		t.Fatal("empty input must error")
	}
}

func TestSaveCSV(t *testing.T) {
	a, b := twoSeries()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sub", "out.csv")
	if err := SaveCSV(csvPath, a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csvPath); err != nil {
		t.Fatal(err)
	}
}

func TestSaveCSVPropagatesCreateError(t *testing.T) {
	a, _ := twoSeries()
	dir := t.TempDir()
	// Parent path component is a regular file: MkdirAll must fail and
	// SaveCSV must surface it.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveCSV(filepath.Join(blocker, "out.csv"), a); err == nil {
		t.Fatal("SaveCSV through a regular file must error")
	}
	// Path itself is a directory: os.Create must fail and SaveCSV must
	// surface it.
	if err := SaveCSV(dir, a); err == nil {
		t.Fatal("SaveCSV onto a directory must error")
	}
}

func TestSaveCSVReadOnlyDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("permission bits do not bind root")
	}
	a, _ := twoSeries()
	dir := t.TempDir()
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if err := SaveCSV(filepath.Join(ro, "out.csv"), a); err == nil {
		t.Fatal("SaveCSV into a read-only dir must error")
	}
}

func TestSaveCSVPropagatesWriteError(t *testing.T) {
	// /dev/full accepts the open but fails every write with ENOSPC —
	// the deterministic stand-in for a disk filling up mid-save. Before
	// SaveCSV propagated close/write failures, a caller could be told a
	// truncated file was saved successfully.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	a, _ := twoSeries()
	if err := SaveCSV("/dev/full", a); err == nil {
		t.Fatal("SaveCSV to /dev/full must report the write failure")
	}
}

func TestChartRendersAllSeries(t *testing.T) {
	a, b := twoSeries()
	out := Chart("test chart", 60, 10, a, b)
	if !strings.Contains(out, "test chart") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("series glyphs missing")
	}
	if !strings.Contains(out, "*=alpha") || !strings.Contains(out, "+=beta") {
		t.Fatal("legend missing")
	}
}

func TestChartEmptySeries(t *testing.T) {
	s := metrics.NewSeries("empty")
	out := Chart("nothing", 40, 8, s)
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty chart: %q", out)
	}
}

func TestChartConstantSeries(t *testing.T) {
	s := metrics.NewSeries("const")
	s.Append(0, 5)
	s.Append(simtime.Second, 5)
	out := Chart("flat", 40, 8, s)
	if strings.Contains(out, "(no data)") {
		t.Fatal("constant series should still draw")
	}
}

func TestChartClampsTinyDimensions(t *testing.T) {
	a, _ := twoSeries()
	out := Chart("tiny", 1, 1, a)
	if len(out) == 0 {
		t.Fatal("no output")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"wide-cell", "x"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a          long-header") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---------") {
		t.Fatalf("separator: %q", lines[1])
	}
}
