package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// sortDiagnostics puts findings into the reporting order the driver and
// CI rely on being stable run to run: file, line, pass, column,
// message. Run applies it before returning; the ordering regression
// test pins it down as a contract.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// RenderText writes the conventional file:line:col: pass: message
// lines.
func RenderText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}

// RenderGitHub writes GitHub Actions workflow commands, one ::error
// annotation per finding, so CI failures surface inline on the PR diff.
// Message data is escaped per the workflow-command rules (%, CR, LF;
// plus comma and colon inside properties).
func RenderGitHub(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=p4lint %s::%s\n",
			ghaProperty(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
			ghaProperty(d.Analyzer), ghaData(d.Message))
	}
}

// ghaData escapes a workflow-command data section.
func ghaData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// ghaProperty escapes a workflow-command property value.
func ghaProperty(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}
