// Command p4lint runs the repository's domain-aware static-analysis
// passes over package patterns and reports file:line diagnostics. It
// exits non-zero when any diagnostic is found — a package that does not
// type-check is one, whichever passes were selected — so it gates CI
// alongside go vet and the race detector.
//
// Usage:
//
//	p4lint [-only lockorder,timeunits,...] [-gha] [pattern ...]
//
// Patterns are directories, optionally ending in /... to recurse
// (default "./..."). Examples:
//
//	go run ./cmd/p4lint ./...
//	go run ./cmd/p4lint -only timeunits ./internal/dataplane
//	go run ./cmd/p4lint -gha ./...   # GitHub Actions ::error annotations
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	asGHA := flag.Bool("gha", false, "emit diagnostics as GitHub Actions ::error annotations")
	flag.Usage = usage
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := analysis.All()
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4lint:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4lint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4lint:", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	if *asGHA {
		analysis.RenderGitHub(os.Stdout, diags)
	} else {
		analysis.RenderText(os.Stdout, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "p4lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: p4lint [-only a,b] [-gha] [pattern ...]\n\nanalyzers:\n")
	for _, a := range analysis.All() {
		fmt.Fprintf(os.Stderr, "  %-13s %s\n", a.Name, a.Doc)
	}
	flag.PrintDefaults()
}
