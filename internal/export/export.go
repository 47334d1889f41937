// Package export renders experiment results: CSV series files for
// plotting, and ASCII charts for the terminal — the repository's
// stand-in for the paper's Grafana dashboards.
package export

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// WriteCSV writes one or more series sharing a time axis to w. Series
// are sampled at their own timestamps; rows are the union of all
// timestamps with empty cells for missing samples.
func WriteCSV(w io.Writer, series ...*metrics.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("export: no series")
	}
	header := []string{"time_s"}
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}

	type cell struct {
		col int
		v   float64
	}
	rows := map[int64][]cell{}
	var times []int64
	for col, s := range series {
		for _, p := range s.Points {
			t := int64(p.T)
			if _, ok := rows[t]; !ok {
				times = append(times, t)
			}
			rows[t] = append(rows[t], cell{col: col, v: p.V})
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	for _, t := range times {
		cols := make([]string, len(series)+1)
		cols[0] = fmt.Sprintf("%.6f", float64(t)/1e9)
		for _, c := range rows[t] {
			cols[c.col+1] = fmt.Sprintf("%g", c.v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	return nil
}

// SaveCSV writes series to a file, creating parent directories. The
// file's Close error is propagated: on many filesystems delayed writes
// surface only at close, so `defer f.Close()` would silently report a
// truncated file as saved.
func SaveCSV(path string, series ...*metrics.Series) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return WriteCSV(f, series...)
}

// Chart renders series as an ASCII line chart of the given size.
// Multiple series share axes and draw with distinct glyphs.
func Chart(title string, width, height int, series ...*metrics.Series) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@'}

	// Bounds.
	minT, maxT := math.MaxFloat64, -math.MaxFloat64
	minV, maxV := 0.0, -math.MaxFloat64
	any := false
	for _, s := range series {
		for _, p := range s.Points {
			ts := p.T.Seconds()
			if ts < minT {
				minT = ts
			}
			if ts > maxT {
				maxT = ts
			}
			if p.V > maxV {
				maxV = p.V
			}
			if p.V < minV {
				minV = p.V
			}
			any = true
		}
	}
	if !any {
		return title + "\n(no data)\n"
	}
	if maxV == minV {
		maxV = minV + 1
	}
	if maxT == minT {
		maxT = minT + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			x := int((p.T.Seconds() - minT) / (maxT - minT) * float64(width-1))
			y := int((p.V - minV) / (maxV - minV) * float64(height-1))
			row := height - 1 - y
			grid[row][x] = g
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%12.4g ┤%s\n", maxV, string(grid[0]))
	for i := 1; i < height-1; i++ {
		fmt.Fprintf(&b, "%12s │%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(&b, "%12.4g ┤%s\n", minV, string(grid[height-1]))
	fmt.Fprintf(&b, "%12s  %-10.4g%*s%10.4g (s)\n", "", minT, width-20, "", maxT)
	legend := make([]string, len(series))
	for i, s := range series {
		legend[i] = fmt.Sprintf("%c=%s", glyphs[i%len(glyphs)], s.Name)
	}
	fmt.Fprintf(&b, "%12s  %s\n", "", strings.Join(legend, "  "))
	return b.String()
}

// Table renders rows as an aligned text table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
