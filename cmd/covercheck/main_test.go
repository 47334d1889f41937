package main

import (
	"bufio"
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
)

const sampleProfile = `mode: atomic
repro/internal/obs/obs.go:10.2,12.3 2 5
repro/internal/obs/obs.go:14.2,16.3 3 0
repro/internal/obs/trace.go:8.2,9.3 1 1
repro/internal/dataplane/reads.go:20.2,22.3 4 2
repro/internal/dataplane/reads.go:20.2,22.3 4 0
`

func parse(t *testing.T, profile string) map[string]block {
	t.Helper()
	blocks, err := parseProfile(bufio.NewScanner(strings.NewReader(profile)))
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func TestParseProfile(t *testing.T) {
	blocks := parse(t, sampleProfile)
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4 (duplicate merged)", len(blocks))
	}
	// The duplicate dataplane block must keep the max count, so the
	// package reads as covered even though one test binary missed it.
	b, ok := blocks["repro/internal/dataplane/reads.go:20.2,22.3"]
	if !ok {
		t.Fatal("dataplane block missing")
	}
	if b.count != 2 || b.numStmts != 4 {
		t.Fatalf("dedup kept count=%d stmts=%d, want count=2 stmts=4", b.count, b.numStmts)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not a mode line\n",
		"mode: set\nmissing-fields\n",
		"mode: set\nf.go:1.1,2.2 x 1\n",
		"mode: set\nf.go:1.1,2.2 1 y\n",
		"mode: set\nf.go:1.1,2.2 -500 0\n",
		"mode: set\nf.go:1.1,2.2 1 -1\n",
		"mode: set\nf.go:1.1,2.2 1 1\nf.go:1.1,2.2 3 0\n",
	} {
		if _, err := parseProfile(bufio.NewScanner(strings.NewReader(bad))); err == nil {
			t.Errorf("profile %q parsed without error", bad)
		}
	}
}

// TestParseProfileNegativeCountNamesLine: a negative statement count
// would subtract from the total and could lift a failing profile over
// the ratchet; the error names the line that carries it.
func TestParseProfileNegativeCountNamesLine(t *testing.T) {
	for _, bad := range []string{
		sampleProfile + "x.go:1.1,2.2 -500 0\n",
		sampleProfile + "x.go:1.1,2.2 1 -3\n",
	} {
		_, err := parseProfile(bufio.NewScanner(strings.NewReader(bad)))
		if err == nil || !strings.Contains(err.Error(), "line 7:") {
			t.Errorf("profile ending %q: error %v, want one naming line 7", bad[len(sampleProfile):], err)
		}
	}
}

// FuzzParseProfile: no input panics; every accepted block has
// non-negative counts; and the parse does not depend on the order of
// the block lines (the mode line stays first): reversing them is
// accepted exactly when the original is, to the same map.
func FuzzParseProfile(f *testing.F) {
	f.Add([]byte(sampleProfile))
	f.Fuzz(func(t *testing.T, in []byte) {
		blocks, err := parseProfile(bufio.NewScanner(bytes.NewReader(in)))
		for pos, b := range blocks {
			if b.numStmts < 0 || b.count < 0 {
				t.Fatalf("accepted block %s with counts %d %d", pos, b.numStmts, b.count)
			}
		}
		lines := strings.Split(string(in), "\n")
		slices.Reverse(lines[1:])
		rev, revErr := parseProfile(bufio.NewScanner(strings.NewReader(strings.Join(lines, "\n"))))
		if (err == nil) != (revErr == nil) {
			t.Fatalf("in order: %v; block lines reversed: %v", err, revErr)
		}
		if !maps.Equal(blocks, rev) {
			t.Fatalf("in order: %v; block lines reversed: %v", blocks, rev)
		}
	})
}

func TestPkgOf(t *testing.T) {
	for pos, want := range map[string]string{
		"repro/internal/obs/obs.go:10.2,12.3": "repro/internal/obs",
		"repro/main.go:1.1,2.2":               "repro",
	} {
		if got := pkgOf(pos); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", pos, got, want)
		}
	}
}

func TestTallyPct(t *testing.T) {
	blocks := parse(t, sampleProfile)
	var grand tally
	for _, b := range blocks {
		grand.total += b.numStmts
		if b.count > 0 {
			grand.covered += b.numStmts
		}
	}
	// 2+1+4 covered of 2+3+1+4 total.
	if grand.total != 10 || grand.covered != 7 {
		t.Fatalf("tally = %d/%d, want 7/10", grand.covered, grand.total)
	}
	if pct := grand.pct(); pct != 70.0 {
		t.Fatalf("pct = %v, want 70.0", pct)
	}
	if (tally{}).pct() != 100.0 {
		t.Fatal("empty tally must read 100%, not NaN")
	}
}
