package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMakefileTargets(t *testing.T) {
	dir := t.TempDir()
	mk := filepath.Join(dir, "Makefile")
	writeFile(t, mk, `GO ?= go
COVER_MIN := 76.0

.PHONY: all test lint
all: test lint

test:
	$(GO) test ./...

bin/p4psonar cover.out: deps
	touch $@

%.gen: %.src
	gen $<
`)
	targets, err := makefileTargets(mk)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"all", "test", "bin/p4psonar", "cover.out"} {
		if !targets[want] {
			t.Errorf("target %q not harvested (got %v)", want, targets)
		}
	}
	for _, bad := range []string{"GO", "COVER_MIN", ".PHONY", "%.gen", "$(GO)"} {
		if targets[bad] {
			t.Errorf("non-target %q harvested", bad)
		}
	}
}

func TestCommandFlags(t *testing.T) {
	dir := t.TempDir()
	// A flag-package command and a manually parsed one.
	writeFile(t, filepath.Join(dir, "cmd", "tool", "main.go"), `package main

import "flag"

func main() {
	_ = flag.String("addr", "", "")
	var n int
	flag.IntVar(&n, "shards", 1, "")
}
`)
	writeFile(t, filepath.Join(dir, "cmd", "manual", "main.go"), `package main

import "os"

func main() {
	usage := "usage: manual [--collector HOST] [--samples_per_second N]"
	for _, a := range os.Args {
		if a == "--alert" {
			_ = usage
		}
	}
}
`)
	cmds, err := commandFlags(filepath.Join(dir, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	tool := cmds["tool"]
	if !tool["addr"] || !tool["shards"] {
		t.Errorf("tool flags = %v, want addr and shards", tool)
	}
	manual := cmds["manual"]
	for _, want := range []string{"collector", "samples_per_second", "alert"} {
		if !manual[want] {
			t.Errorf("manual flags = %v, want %q from string literals", manual, want)
		}
	}
	// Hyphenated prose inside literals must not become flags.
	if manual["second"] || tool["second"] {
		t.Error("mid-word hyphen harvested as a flag")
	}
}

func TestCodeRegionsJoinsContinuationsAndSpans(t *testing.T) {
	doc := "Intro prose with a -dash that is not code.\n" +
		"```sh\n" +
		"tool --addr :1 \\\n" +
		"    --shards 4   # comment stripped\n" +
		"# full-line comment dropped\n" +
		"```\n" +
		"Use `make test` and `--collector` inline.\n"
	regions := codeRegions(doc)
	var texts []string
	for _, r := range regions {
		if strings.TrimSpace(r.text) != "" {
			texts = append(texts, strings.Join(strings.Fields(r.text), " "))
		}
	}
	want := []string{"tool --addr :1 --shards 4", "make test", "--collector"}
	if len(texts) != len(want) {
		t.Fatalf("regions = %q, want %q", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("region %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestCheckDoc(t *testing.T) {
	targets := map[string]bool{"test": true, "lint": true}
	cmds := map[string]map[string]bool{
		"tool": {"addr": true, "shards": true},
	}
	doc := "```sh\n" +
		"make test VERBOSE=1\n" +
		"make fmt\n" +
		"go run ./cmd/tool -addr :1 -shards=4\n" +
		"go run ./cmd/tool -bogus | go test -run X .\n" +
		"go test -race ./...\n" +
		"```\n" +
		"Inline `make lint`, `make nope`, `-shards`, and `-missing` too.\n"
	problems := checkDoc("doc.md", doc, t.TempDir(), targets, cmds, nil)
	var got []string
	for _, p := range problems {
		got = append(got, p)
	}
	wantSubstrings := []string{
		`make target "fmt"`,
		`flag "-bogus"`,
		`make target "nope"`,
		`flag "-missing"`,
	}
	if len(got) != len(wantSubstrings) {
		t.Fatalf("problems = %v, want %d entries", got, len(wantSubstrings))
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(got[i], sub) {
			t.Errorf("problem %d = %q, want substring %q", i, got[i], sub)
		}
	}
}

func TestCheckDocQuotes(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "results", "run.txt"), "=== fig11 ===\n"+
		"destination   steady mean  cv     \n"+
		"  burst at 402.706ms, duration 97.622ms, peak occupancy 11.7%\n")
	writeFile(t, filepath.Join(root, "notes", "run.txt"), "  burst at 402.706ms, duration 97.622ms, peak occupancy 11.7%\n")
	quote := func(fence string, lines ...string) string {
		return "Prose.\n\n```" + fence + "\n" + strings.Join(lines, "\n") + "\n```\n"
	}
	const burst = "  burst at 402.706ms, duration 97.622ms, peak occupancy 11.7%"
	for name, doc := range map[string]string{
		"verbatim":         quote("results/run.txt", burst),
		"padding trimmed":  quote("results/run.txt", "destination   steady mean  cv"),
		"padding kept":     quote("results/run.txt", "destination   steady mean  cv     "),
		"several lines":    quote("results/run.txt", "=== fig11 ===", burst),
		"unlabelled fence": quote("", "12.3% of nothing") + quote("sh", "echo 11.8%"),
	} {
		if p := checkDoc("EXP.md", doc, root, nil, map[string]map[string]bool{}, nil); len(p) != 0 {
			t.Errorf("%s: %v", name, p)
		}
	}
	for name, c := range map[string]struct {
		doc, want string
	}{
		"one digit changed": {quote("results/run.txt", "=== fig11 ===", strings.Replace(burst, "11.7", "11.8", 1)),
			`EXP.md:5: quoted line is not a line of results/run.txt: "  burst at 402.706ms, duration 97.622ms, peak occupancy 11.8%"`},
		"outside results": {quote("notes/run.txt", burst), `EXP.md:4: quoted file "notes/run.txt": not a file under results/`},
		"escapes results": {quote("results/../notes/run.txt", burst), `EXP.md:4: quoted file "results/../notes/run.txt": not a file under results/`},
		"missing file":    {quote("results/gone.txt", burst, burst), `EXP.md:4: quoted file "results/gone.txt": open `},
	} {
		p := checkDoc("EXP.md", c.doc, root, nil, map[string]map[string]bool{}, nil)
		if len(p) != 1 || !strings.HasPrefix(p[0], c.want) {
			t.Errorf("%s: problems %q, want one starting %q", name, p, c.want)
		}
	}
}

func TestCheckSegmentContextRules(t *testing.T) {
	targets := map[string]bool{}
	cmds := map[string]map[string]bool{
		"tool":  {"addr": true},
		"other": {"deep": true},
	}
	// Foreign commands are never checked, even with unknown flags.
	if p := checkSegment("d", 1, "curl -s localhost:9600/metrics", targets, cmds); len(p) != 0 {
		t.Errorf("foreign command flagged: %v", p)
	}
	// Bare command name establishes context.
	if p := checkSegment("d", 1, "tool -addr :1", targets, cmds); len(p) != 0 {
		t.Errorf("bare command context failed: %v", p)
	}
	if p := checkSegment("d", 1, "tool -deep", targets, cmds); len(p) != 1 {
		t.Errorf("per-command isolation failed: %v", p)
	}
	// Isolated flags check against the union of all commands.
	if p := checkSegment("d", 1, "--deep", targets, cmds); len(p) != 0 {
		t.Errorf("union fallback failed: %v", p)
	}
	if p := checkSegment("d", 1, "--gone", targets, cmds); len(p) != 1 {
		t.Errorf("union fallback missed a stale flag: %v", p)
	}
	// Optional-argument brackets are stripped.
	if p := checkSegment("d", 1, "tool [-addr :1]", targets, cmds); len(p) != 0 {
		t.Errorf("bracket stripping failed: %v", p)
	}
	// A path into cmd/ or bin/ must name a command that exists, in
	// every spelling, whatever flags follow it.
	for _, seg := range []string{"go run ./cmd/tool -addr :1", "./bin/tool -addr :1", "bin/other -deep", "cmd/tool/main.go:12"} {
		if p := checkSegment("d", 1, seg, targets, cmds); len(p) != 0 {
			t.Errorf("%q: live command flagged: %v", seg, p)
		}
	}
	for _, seg := range []string{"go run ./cmd/gone -addr :1 stats", "bin/gone registers", "./bin/gone", "cmd/gone", "[cmd/gone/main.go:3]"} {
		if p := checkSegment("d", 1, seg, targets, cmds); len(p) != 1 || !strings.Contains(p[0], `command "gone"`) {
			t.Errorf("%q: deleted command not reported once: %v", seg, p)
		}
	}
}

// FuzzCodeRegions: no document panics the scanner; every region's line
// is a line of the document; no region's text spans a newline; and a
// document without a backtick has no code region at all.
func FuzzCodeRegions(f *testing.F) {
	f.Add("```sh\ntool --addr :1 \\\n    --shards 4   # c\n```\nUse `make test`.\n")
	f.Fuzz(func(t *testing.T, doc string) {
		regions := codeRegions(doc)
		lines := strings.Count(doc, "\n") + 1
		for _, r := range regions {
			if r.line < 1 || r.line > lines {
				t.Fatalf("region at line %d of a %d-line document", r.line, lines)
			}
			if strings.Contains(r.text, "\n") {
				t.Fatalf("region at line %d spans a newline: %q", r.line, r.text)
			}
		}
		if !strings.Contains(doc, "`") && len(regions) != 0 {
			t.Fatalf("no backtick, yet regions %q", regions)
		}
	})
}

func TestMetricsInventory(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "src", "obs.go"), `package x

const whole = "p4_fed_members"

func reg() {
	gauge("p4_dataplane_rtt_ns", 0)
	registerAs("p4_shipper_") // registration prefix
}
`)
	// Test files must not contribute scrape names.
	writeFile(t, filepath.Join(dir, "src", "obs_test.go"), `package x

const testOnly = "p4_test_only_metric"
`)
	inv, err := metricsInventory([]string{filepath.Join(dir, "src")})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p4_fed_members", "p4_dataplane_rtt_ns", "p4_shipper"} {
		if !inv[want] {
			t.Errorf("inventory missing %q (got %v)", want, inv)
		}
	}
	if inv["p4_test_only_metric"] {
		t.Error("test-file literal harvested")
	}
}

func TestKnownMetric(t *testing.T) {
	inv := map[string]bool{"p4_fed_members": true, "p4_shipper": true, "p4_dataplane_rtt_ns": true}
	for _, ok := range []string{
		"p4_fed_members",               // exact
		"p4_shipper_alpha_sw1_emitted", // prefix-registered family
		"p4_dataplane_rtt_ns_bucket",   // histogram expansion
		"p4_shipper_",                  // prose naming the family by prefix
		"p4_fed_*",                     // glob family reference
		"p4_dataplane_*",               // glob matching a longer name
	} {
		if !knownMetric(ok, inv) {
			t.Errorf("%q should resolve", ok)
		}
	}
	for _, bad := range []string{"p4_fed_member_count", "p4_gone", "p4_shippers_emitted", "p4_missing_*"} {
		if knownMetric(bad, inv) {
			t.Errorf("%q should not resolve", bad)
		}
	}
}

func TestCheckDocMetrics(t *testing.T) {
	inv := map[string]bool{"p4_fed_members": true, "p4_shipper": true}
	doc := "Watch `p4_fed_members` and the `p4_shipper_site_sw_emitted` family.\n" +
		"But `p4_fed_memberz` was renamed.\n"
	problems := checkDoc("doc.md", doc, t.TempDir(), nil, map[string]map[string]bool{}, inv)
	if len(problems) != 1 || !strings.Contains(problems[0], `"p4_fed_memberz"`) {
		t.Fatalf("problems = %v", problems)
	}
}

func TestCheckLedger(t *testing.T) {
	header := strings.Join(ledgerColumns, "\t")
	row := func(cols ...string) string { return strings.Join(cols, "\t") }
	good := []string{
		row("2026-10-18", "abc1234+uncommitted", "abc1234", "report_storm", "42", "cpu_s", "10", "1.6", "8.2", "1.3", "5.1", "10/10", "ok", "Intel(R) Xeon(R) Processor", "2", "14000", "13900", "0.000114", "9.4e-05", "pairs"),
		row("2026-10-17", "def5678", "abc1234", "elephants", "2026", "ingest_mpps", "10", "2.57", "6.5", "4.16", "-", "10/10", "met", "2-vCPU shared host", "2", "-", "-", "-", "-", "prose"),
	}
	exists := func(sha string) bool { return sha == "abc1234" || sha == "def5678" }
	if p := checkLedger("L", header+"\n"+strings.Join(good, "\n")+"\n", exists); len(p) != 0 {
		t.Fatalf("a good ledger: %v", p)
	}
	for name, bad := range map[string]string{
		"header":        strings.Replace(header, "seed", "sead", 1) + "\n" + good[0],
		"columns":       header + "\n" + good[0] + "\textra",
		"date":          header + "\n" + strings.Replace(good[0], "2026-10-18", "18.10.2026", 1),
		"no commit":     header + "\n" + strings.Replace(good[1], "def5678", "0000000", 1),
		"not a commit":  header + "\n" + strings.Replace(good[1], "def5678", "HEAD~1", 1),
		"median":        header + "\n" + strings.Replace(good[0], "\t1.6\t", "\tfast\t", 1),
		"pairs":         header + "\n" + strings.Replace(good[0], "10/10", "ten", 1),
		"verdict":       header + "\n" + strings.Replace(good[0], "\tok\t", "\tgreat\t", 1),
		"source":        header + "\n" + strings.Replace(good[0], "pairs", "guess", 1),
		"calibrated":    header + "\n" + strings.Replace(good[1], "\t-\tprose", "\t1\tprose", 1),
		"n":             header + "\n" + strings.Replace(good[0], "cpu_s\t10", "cpu_s\t0", 1),
		"seed":          header + "\n" + strings.Replace(good[0], "\t42\t", "\t-1\t", 1),
		"calibration":   header + "\n" + strings.Replace(good[0], "14000", "n/a", 1),
		"workload name": header + "\n" + strings.Replace(good[0], "report_storm", "report storm", 1),
	} {
		if p := checkLedger("L", bad+"\n", exists); len(p) != 1 {
			t.Errorf("%s: %d problems, want 1: %v", name, len(p), p)
		}
	}
}
