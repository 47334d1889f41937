// Command p4psonar regenerates the paper's tables and figures.
//
// Usage:
//
//	p4psonar run [-paper] [-shards N] [-out DIR] [-seed N] [-cpuprofile F]
//	             [-memprofile F] [-obs-addr :9600]
//	             table1|fig9|fig10|fig11|fig12|fig13|fig14|all
//
// By default experiments run at fast scale (1/20 bandwidth, identical
// RTTs and shapes); -paper runs the full 10 Gbps testbed parameters.
// -shards partitions flows across N independent data-plane pipes
// (Tofino's multi-pipe model); 1 is the byte-identical single pipe.
// Each experiment prints its panels as ASCII charts and, with -out,
// writes CSV series for external plotting. -cpuprofile and -memprofile
// capture pprof profiles over the selected experiments (see README's
// Profiling section); -obs-addr serves the live alternative — process
// self-metrics at /metrics plus on-demand pprof at /debug/pprof/ —
// for watching a long -paper run from the outside.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "run" {
		usage()
		os.Exit(2)
	}
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	paper := fs.Bool("paper", false, "run at full 10 Gbps paper scale (slow)")
	shards := fs.Int("shards", 1, "data-plane pipes to partition flows across (1 = single pipe)")
	out := fs.String("out", "", "directory for CSV output (optional)")
	seed := fs.Uint64("seed", 42, "simulation seed (Figures 13 and 14 do not depend on it)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile over the selected experiments to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile taken after the experiments to this file")
	obsAddr := fs.String("obs-addr", "", "self-telemetry HTTP endpoint: process /metrics, pprof (empty disables)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2) // flag.ExitOnError has already printed the problem
	}

	targets := fs.Args()
	if len(targets) == 0 {
		usage()
		os.Exit(2)
	}

	if *obsAddr != "" {
		reg := obs.NewRegistry()
		reg.AddProcessMetrics()
		srv, bound, err := reg.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4psonar:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "p4psonar: self-telemetry on http://%s/ (metrics, pprof)\n", bound)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4psonar:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "p4psonar:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	scale := experiments.Fast()
	if *paper {
		scale = experiments.Paper()
	}
	scale.Shards = *shards

	run := func(name string) error {
		fmt.Printf("=== %s (%s scale) ===\n\n", name, scale.Name)
		switch name {
		case "table1":
			r := experiments.RunTable1(experiments.Table1Config{Scale: scale, Seed: *seed})
			fmt.Println(r.Render())
		case "fig9", "fig10":
			r := experiments.RunFig9(experiments.Fig9Config{Scale: scale, Seed: *seed})
			if name == "fig9" {
				fmt.Println(r.Render())
			} else {
				fmt.Println(r.RenderFig10())
			}
			if *out != "" {
				return r.SaveCSV(*out)
			}
		case "fig11":
			r := experiments.RunFig11(experiments.Fig11Config{Scale: scale, Seed: *seed})
			fmt.Println(r.Render())
			if *out != "" {
				return r.SaveCSV(*out)
			}
		case "fig12":
			r := experiments.RunFig12(experiments.Fig12Config{Scale: scale, Seed: *seed})
			fmt.Println(r.Render())
			if *out != "" {
				return r.SaveCSV(*out)
			}
		case "fig13":
			r := experiments.RunFig13(experiments.Fig13Config{Scale: scale})
			fmt.Println(r.Render())
			if *out != "" {
				return r.SaveCSV(*out)
			}
		case "fig14":
			r := experiments.RunFig14(experiments.Fig13Config{Scale: scale})
			fmt.Println(r.Render())
			if *out != "" {
				return r.SaveCSV(*out)
			}
		case "reconfig":
			r, err := experiments.RunReconfigUnderLoad(experiments.ReconfigConfig{Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		case "federation":
			// Fast is the CI-sized 2×2 fleet; -paper the 10-switch,
			// 210k-flow multi-site topology from EXPERIMENTS.md.
			spool, err := os.MkdirTemp("", "p4-fed-spool-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(spool)
			fcfg := experiments.FederationConfig{SpoolRoot: spool, Seed: *seed}
			if *paper {
				fcfg = experiments.FederationPaper(spool)
				fcfg.Seed = *seed
			}
			r, err := experiments.RunFederation(fcfg)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
			if *out != "" {
				if err := r.SaveCSV(*out); err != nil {
					return err
				}
			}
			if !r.Pass() {
				return fmt.Errorf("federation violated its accounting invariants")
			}
		case "scale":
			// Fast sweeps to 200k flows; -paper to the full 1M-flow
			// point the nightly workflow records.
			r := experiments.RunScaleSweep(experiments.ScaleSweepConfig{Scale: scale, Shards: *shards, Seed: *seed})
			fmt.Println(r.Render())
			if !r.Pass() {
				return fmt.Errorf("scale sweep violated its analytical guarantees")
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if len(targets) == 1 && targets[0] == "all" {
		targets = []string{"table1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "reconfig"}
	}
	for _, name := range targets {
		if err := run(name); err != nil {
			fmt.Fprintln(os.Stderr, "p4psonar:", err)
			os.Exit(1)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4psonar:", err)
			os.Exit(1)
		}
		defer f.Close()
		// The allocation profile samples every heap allocation site since
		// process start; GC first so live-heap numbers are meaningful too.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "p4psonar:", err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: p4psonar run [-paper] [-shards N] [-out DIR] [-seed N] [-cpuprofile F] [-memprofile F] [-obs-addr ADDR] table1|fig9|fig10|fig11|fig12|fig13|fig14|reconfig|scale|federation|all`)
}
