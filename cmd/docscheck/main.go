// Command docscheck keeps the prose documentation honest: every make
// target and every CLI flag named in the documentation must actually
// exist. It parses the Makefile for target names and the cmd/
// packages for flag registrations (both flag.FlagSet calls and the
// literal "--flag" tokens of manually parsed commands like psconfig),
// then scans the code regions of the given markdown files — fenced
// blocks and inline `spans`, with backslash continuations joined and
// shell comments stripped — and reports any `make <target>` whose
// target the Makefile lacks, any cmd/<name> or bin/<name> path whose
// command has no package under -cmd-dir, or any -flag/--flag on a
// command line whose binary does not register it.
//
// It also generates a metrics inventory: every "p4_..." string
// literal in the non-test Go sources is a registered metric name (or,
// for fleet deployments, a registration prefix like "p4_shipper"), and
// every p4_-shaped token in the documentation must resolve against
// that inventory — exactly, or as <prefix>_<suffix> for prefix-
// registered families and histogram _bucket/_sum/_count expansions.
// This closes the drift class where docs keep referencing a renamed
// gauge.
//
// Usage:
//
//	docscheck [-makefile Makefile] [-cmd-dir cmd] [-metrics-src internal,cmd] [file.md ...]
//
// Without file arguments it checks README.md, ARCHITECTURE.md and
// OPERATIONS.md.
// Exit status is 1 when any reference is stale, making it suitable as
// a CI gate (the docs job runs `make docs`).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	makefile := flag.String("makefile", "Makefile", "Makefile to harvest targets from")
	cmdDir := flag.String("cmd-dir", "cmd", "directory holding the command packages")
	metricsSrc := flag.String("metrics-src", "internal,cmd", "comma-separated source trees to harvest the metrics inventory from")
	flag.Parse()
	docs := flag.Args()
	if len(docs) == 0 {
		docs = []string{"README.md", "ARCHITECTURE.md", "OPERATIONS.md"}
	}

	targets, err := makefileTargets(*makefile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	cmds, err := commandFlags(*cmdDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	metrics, err := metricsInventory(strings.Split(*metricsSrc, ","))
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	var problems []string
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		problems = append(problems, checkDoc(doc, string(data), targets, cmds, metrics)...)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d stale reference(s)\n", len(problems))
		os.Exit(1)
	}
	names := make([]string, 0, len(cmds))
	for n := range cmds {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("docscheck: ok (%d make targets, %d metric names, %d commands: %s)\n",
		len(targets), len(metrics), len(names), strings.Join(names, " "))
}

// makefileTargets returns the set of rule targets declared in the
// Makefile: fields before a ':' at the start of a line, skipping
// variable assignments (:=), pattern rules and .SPECIAL targets.
func makefileTargets(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '\t' || line[0] == '#' || line[0] == ' ' {
			continue
		}
		i := strings.IndexByte(line, ':')
		if i <= 0 || strings.HasPrefix(line[i:], ":=") {
			continue
		}
		for _, name := range strings.Fields(line[:i]) {
			if strings.HasPrefix(name, ".") || strings.ContainsAny(name, "%$=") {
				continue
			}
			targets[name] = true
		}
	}
	return targets, nil
}

// flagMethods are the flag.FlagSet registration calls whose first
// string-literal argument names a flag.
var flagMethods = map[string]bool{
	"String": true, "StringVar": true, "Bool": true, "BoolVar": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
	"Float64": true, "Float64Var": true, "Duration": true, "DurationVar": true,
	"Var": true, "Func": true, "TextVar": true,
}

// literalFlagRe finds "--flag"-shaped tokens inside string literals —
// the registration form of manually parsed commands (psconfig) whose
// usage strings and comparisons spell the flags out.
var literalFlagRe = regexp.MustCompile(`(?:^|[^\w-])(--?[A-Za-z][A-Za-z0-9_-]*)`)

// commandFlags harvests, per command package under dir, the set of
// flag names the binary accepts.
func commandFlags(dir string) (map[string]map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	cmds := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		flags := map[string]bool{"h": true, "help": true} // flag package built-ins
		srcs, err := filepath.Glob(filepath.Join(dir, name, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, src, nil, 0)
			if err != nil {
				return nil, err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if name, ok := flagCallName(x); ok {
						flags[name] = true
					}
				case *ast.BasicLit:
					if x.Kind == token.STRING {
						if s, err := strconv.Unquote(x.Value); err == nil {
							for _, m := range literalFlagRe.FindAllStringSubmatch(s, -1) {
								flags[strings.TrimLeft(m[1], "-")] = true
							}
						}
					}
				}
				return true
			})
		}
		cmds[name] = flags
	}
	return cmds, nil
}

// flagCallName extracts the flag name from a registration call like
// flag.String("addr", ...) or fs.IntVar(&v, "shards", ...).
func flagCallName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !flagMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return "", false
	}
	arg := call.Args[0]
	if strings.HasSuffix(sel.Sel.Name, "Var") && len(call.Args) > 1 {
		arg = call.Args[1]
	}
	lit, ok := arg.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil || s == "" {
		return "", false
	}
	return s, true
}

// metricLiteralRe matches the leading metric-shaped run of a string
// literal: the repo's metric namespace is "p4_" + lowercase snake.
// Matching the prefix rather than the whole literal also harvests
// format-built families ("p4_pipes_shard%d_" → p4_pipes_shard).
var metricLiteralRe = regexp.MustCompile(`"(p4_[a-z0-9_]+)`)

// metricsInventory harvests every metric-shaped string literal from
// the non-test Go sources under dirs. The result is the generated
// inventory documented metric names are verified against: literals
// registered whole (p4_archiver_store_documents) and prefixes handed to
// prefix-parameterised registrations (p4_shipper → the per-member
// p4_shipper_<site>_<switch>_* families).
func metricsInventory(dirs []string) (map[string]bool, error) {
	inv := map[string]bool{}
	for _, dir := range dirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricLiteralRe.FindAllStringSubmatch(string(data), -1) {
				inv[strings.TrimRight(m[1], "_")] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return inv, nil
}

// docMetricRe finds metric-shaped tokens inside documentation code
// regions, including glob-style family references (p4_pipes_*).
var docMetricRe = regexp.MustCompile(`\bp4_[a-z0-9_]+\*?`)

// knownMetric reports whether a documented metric name resolves
// against the inventory: exactly; as a suffixed expansion of a
// registered name or prefix (prefix-parameterised shipper families,
// histogram _bucket/_sum/_count series); or, for a glob family
// reference like "p4_pipes_*", when at least one registered name
// carries the prefix.
func knownMetric(name string, metrics map[string]bool) bool {
	if glob, ok := strings.CutSuffix(name, "*"); ok {
		for m := range metrics {
			if strings.HasPrefix(m, glob) {
				return true
			}
		}
		return false
	}
	name = strings.TrimRight(name, "_")
	if metrics[name] {
		return true
	}
	for i := strings.LastIndexByte(name, '_'); i > 0; i = strings.LastIndexByte(name[:i], '_') {
		if metrics[name[:i]] {
			return true
		}
	}
	return false
}

// codeRegion is one checkable chunk of a markdown file: a line of a
// fenced code block or the contents of an inline `span`.
type codeRegion struct {
	line int // 1-based line in the source file
	text string
}

var inlineSpanRe = regexp.MustCompile("`([^`\n]+)`")

// codeRegions extracts fenced-block lines (with trailing-backslash
// continuations joined and shell comments stripped) and inline code
// spans from a markdown document.
func codeRegions(doc string) []codeRegion {
	var regions []codeRegion
	lines := strings.Split(doc, "\n")
	inFence := false
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			start := i
			joined := strings.TrimSuffix(line, "\r")
			for strings.HasSuffix(stripComment(joined), "\\") && i+1 < len(lines) {
				joined = strings.TrimSuffix(stripComment(joined), "\\")
				i++
				joined += " " + strings.TrimSpace(lines[i])
			}
			regions = append(regions, codeRegion{line: start + 1, text: stripComment(joined)})
			continue
		}
		for _, m := range inlineSpanRe.FindAllStringSubmatch(line, -1) {
			regions = append(regions, codeRegion{line: i + 1, text: m[1]})
		}
	}
	return regions
}

// stripComment removes a trailing shell comment (space-delimited "#")
// from a command line.
func stripComment(line string) string {
	if i := strings.Index(line, " #"); i >= 0 {
		return strings.TrimRight(line[:i], " \t")
	}
	if strings.HasPrefix(strings.TrimSpace(line), "#") {
		return ""
	}
	return strings.TrimRight(line, " \t")
}

// checkDoc validates every code region of one document against the
// harvested make targets, per-command flag sets and the metrics
// inventory.
func checkDoc(file, doc string, targets map[string]bool, cmds map[string]map[string]bool, metrics map[string]bool) []string {
	var problems []string
	for _, region := range codeRegions(doc) {
		// Pipelines and && chains carry independent command contexts.
		for _, segment := range splitSegments(region.text) {
			problems = append(problems, checkSegment(file, region.line, segment, targets, cmds)...)
		}
		for _, name := range docMetricRe.FindAllString(region.text, -1) {
			if !knownMetric(name, metrics) {
				problems = append(problems, fmt.Sprintf("%s:%d: metric %q not in the registered-metrics inventory", file, region.line, name))
			}
		}
	}
	return problems
}

var segmentSplitRe = regexp.MustCompile(`\|\||&&|\|`)

func splitSegments(line string) []string {
	return segmentSplitRe.Split(line, -1)
}

// checkSegment checks one command segment: make targets when the
// segment invokes make, flag names when it invokes (or consists only
// of) one of our commands.
func checkSegment(file string, line int, segment string, targets map[string]bool, cmds map[string]map[string]bool) []string {
	tokens := strings.Fields(segment)
	if len(tokens) == 0 {
		return nil
	}
	var problems []string

	// make <target>: every non-flag, non-assignment word after "make"
	// must be a real target.
	for i, tok := range tokens {
		if tok != "make" {
			continue
		}
		for _, t := range tokens[i+1:] {
			t = strings.Trim(t, "[]")
			if t == "" || strings.HasPrefix(t, "-") || strings.ContainsAny(t, "=$<>") {
				continue
			}
			if !targets[t] {
				problems = append(problems, fmt.Sprintf("%s:%d: make target %q not in Makefile", file, line, t))
			}
		}
		return problems // a make segment never also carries our CLI flags
	}

	// A path into cmd/ or bin/ must name a command that still exists:
	// the flag check below cannot see a deleted binary's flags at all.
	for _, tok := range tokens {
		if m := commandPathRe.FindStringSubmatch(strings.Trim(tok, "[]")); m != nil && cmds[m[1]] == nil {
			problems = append(problems, fmt.Sprintf("%s:%d: command %q has no package under the command directory", file, line, m[1]))
		}
	}

	// Resolve the command context: a token naming one of our binaries
	// (bare, ./bin/<name>, ./cmd/<name>, go run ./cmd/<name>).
	var known map[string]bool
	found := false
	for _, tok := range tokens {
		base := filepath.Base(strings.Trim(tok, "[]"))
		if f, ok := cmds[base]; ok {
			known, found = f, true
			break
		}
	}
	if !found {
		// An isolated flag mention (`-shards`, `--collector`) has no
		// command context: it must exist in at least one binary.
		if !strings.HasPrefix(tokens[0], "-") {
			return problems
		}
		known = map[string]bool{}
		for _, f := range cmds {
			for name := range f {
				known[name] = true
			}
		}
	}
	for _, tok := range tokens {
		tok = strings.Trim(tok, "[]|")
		if !strings.HasPrefix(tok, "-") || tok == "-" || tok == "--" {
			continue
		}
		name := strings.TrimLeft(tok, "-")
		if i := strings.IndexByte(name, '='); i >= 0 {
			name = name[:i]
		}
		if name == "" || !isFlagName(name) {
			continue
		}
		if !known[name] {
			problems = append(problems, fmt.Sprintf("%s:%d: flag %q not registered by any matching command", file, line, "-"+name))
		}
	}
	return problems
}

// commandPathRe matches a token that names a command by its path:
// cmd/<name>, ./cmd/<name>, bin/<name> or ./bin/<name>, optionally
// followed by a path inside it (cmd/collector/main.go:68).
var commandPathRe = regexp.MustCompile(`^(?:\./)?(?:cmd|bin)/([A-Za-z][A-Za-z0-9_-]*)(?:[/:]|$)`)

var flagNameRe = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_-]*$`)

func isFlagName(s string) bool { return flagNameRe.MatchString(s) }
