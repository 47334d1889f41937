// Command covercheck enforces the repository's coverage ratchet: it
// parses a `go test -coverprofile` file with no dependencies beyond
// the standard library, prints a per-package statement-coverage
// breakdown, and exits non-zero when total coverage falls below the
// committed minimum.
//
// Usage:
//
//	go test ./... -coverprofile=cover.out
//	go run ./cmd/covercheck -profile cover.out -min 78.0 [-breakdown cover.txt]
//
// The -min threshold is the ratchet: it is committed in the Makefile
// (COVER_MIN) and CI fails below it. When coverage rises, raise the
// ratchet in the same PR; it must never be lowered to make a build
// pass.
//
// Profile format (cover/profile.go in golang.org/x/tools is the
// canonical parser; this is a minimal reimplementation):
//
//	mode: set|count|atomic
//	name.go:line.col,line.col numStmts count
//
// The same block can appear multiple times when several test binaries
// ran the same package; blocks are deduplicated by position, keeping
// the highest count, exactly like `go tool cover -func` does. A
// negative count, or a repeated block whose statement count differs,
// is an error: either would let the total depend on a corrupt line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// block is one coverage block: a span of statements and whether the
// tests executed it.
type block struct {
	numStmts int
	count    int
}

// parseProfile reads a coverprofile and returns blocks keyed by
// "file:start,end", with duplicate blocks merged by max count. The
// result does not depend on the order of the block lines.
func parseProfile(r *bufio.Scanner) (map[string]block, error) {
	blocks := make(map[string]block)
	lineNo := 0
	for r.Scan() {
		lineNo++
		line := strings.TrimSpace(r.Text())
		if line == "" {
			continue
		}
		if lineNo == 1 {
			if !strings.HasPrefix(line, "mode: ") {
				return nil, fmt.Errorf("line 1: want \"mode: ...\", got %q", line)
			}
			continue
		}
		// file.go:sl.sc,el.ec numStmts count
		pos, rest, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("line %d: malformed block %q", lineNo, line)
		}
		stmtsStr, countStr, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, fmt.Errorf("line %d: malformed block %q", lineNo, line)
		}
		numStmts, err := strconv.Atoi(stmtsStr)
		if err != nil || numStmts < 0 {
			return nil, fmt.Errorf("line %d: bad statement count %q", lineNo, stmtsStr)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 0 {
			return nil, fmt.Errorf("line %d: bad execution count %q", lineNo, countStr)
		}
		if b, dup := blocks[pos]; dup {
			if numStmts != b.numStmts {
				return nil, fmt.Errorf("line %d: block %s has %d statements, an earlier line says %d", lineNo, pos, numStmts, b.numStmts)
			}
			if count > b.count {
				b.count = count
				blocks[pos] = b
			}
			continue
		}
		blocks[pos] = block{numStmts: numStmts, count: count}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return blocks, nil
}

// pkgOf maps a block position ("repro/internal/obs/obs.go:10.2,12.3")
// to its package directory ("repro/internal/obs").
func pkgOf(pos string) string {
	file := pos
	if i := strings.LastIndexByte(pos, ':'); i >= 0 {
		file = pos[:i]
	}
	return path.Dir(file)
}

// tally is per-package statement accounting.
type tally struct {
	total   int
	covered int
}

func (t tally) pct() float64 {
	if t.total == 0 {
		return 100.0
	}
	return 100.0 * float64(t.covered) / float64(t.total)
}

func run() error {
	profile := flag.String("profile", "cover.out", "coverage profile from go test -coverprofile")
	min := flag.Float64("min", 0, "fail when total statement coverage is below this percentage")
	breakdown := flag.String("breakdown", "", "also write the per-package table to this file")
	flag.Parse()

	f, err := os.Open(*profile)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	blocks, err := parseProfile(sc)
	if err != nil {
		return fmt.Errorf("%s: %w", *profile, err)
	}
	if len(blocks) == 0 {
		return fmt.Errorf("%s: no coverage blocks", *profile)
	}

	perPkg := make(map[string]tally)
	var grand tally
	for pos, b := range blocks {
		pkg := pkgOf(pos)
		t := perPkg[pkg]
		t.total += b.numStmts
		grand.total += b.numStmts
		if b.count > 0 {
			t.covered += b.numStmts
			grand.covered += b.numStmts
		}
		perPkg[pkg] = t
	}

	pkgs := make([]string, 0, len(perPkg))
	for pkg := range perPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)

	var out strings.Builder
	w := func(format string, args ...interface{}) {
		fmt.Fprintf(&out, format, args...)
	}
	w("statement coverage by package:\n")
	for _, pkg := range pkgs {
		t := perPkg[pkg]
		w("  %-40s %6.1f%%  (%d/%d stmts)\n", pkg, t.pct(), t.covered, t.total)
	}
	w("total: %.1f%% (%d/%d stmts), ratchet minimum %.1f%%\n",
		grand.pct(), grand.covered, grand.total, *min)
	fmt.Print(out.String())
	if *breakdown != "" {
		if err := os.WriteFile(*breakdown, []byte(out.String()), 0o644); err != nil {
			return err
		}
	}

	if grand.pct() < *min {
		return fmt.Errorf("total coverage %.1f%% is below the ratchet minimum %.1f%%", grand.pct(), *min)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "covercheck:", err)
		os.Exit(1)
	}
}
