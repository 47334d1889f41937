// Command replay drives the data plane's batch execution path at full
// machine speed and reports throughput: packets per second and the
// gigabits per second the ingested traffic represents. It is the
// ingest front-end counterpart to p4psonar — where p4psonar answers
// "what does the pipeline measure", replay answers "how fast does this
// machine push packets through the real match-action program".
//
// Usage:
//
//	replay [-n N] [-flows N] [-mss N] [-shards N] [-batch N]
//	       [-trace FILE] [-record FILE] [-cpuprofile FILE]
//
// By default a deterministic synthetic workload of -n TAP records
// (interleaved TCP flows with ACKs, egress copies and periodic
// retransmissions) streams through a -shards pipeline in fronts of
// -batch views. -trace replays a recorded binary trace instead (see
// trafficgen.Recorder); -record writes the synthetic workload to a
// trace file and exits, so the exact same packet stream can be
// replayed later or on another machine. -cpuprofile captures a pprof
// profile of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/dataplane"
	"repro/internal/replay"
)

func main() {
	n := flag.Int("n", 2_000_000, "synthetic TAP records to generate")
	flows := flag.Int("flows", 64, "concurrent synthetic flows")
	mss := flag.Int("mss", 1460, "TCP payload bytes per synthetic data segment")
	shards := flag.Int("shards", 1, "data-plane pipes to partition flows across (1 = single pipe)")
	batch := flag.Int("batch", 1024, "front capacity: views per ProcessFront call")
	trace := flag.String("trace", "", "replay this recorded trace file instead of generating traffic")
	record := flag.String("record", "", "write the synthetic workload to this trace file and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the replay run to this file")
	flag.Parse()

	synth := &replay.Synth{Flows: *flows, Packets: *n, MSS: *mss}

	if *record != "" {
		if err := recordTrace(*record, synth); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d synthetic records to %s\n", *n, *record)
		return
	}

	var src replay.Source = synth
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = replay.NewReader(f)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	plane := dataplane.NewPipes(dataplane.Config{}, *shards)
	res := replay.Runner{Plane: plane, Batch: *batch}.Run(src)
	if rd, ok := src.(*replay.Reader); ok {
		if err := rd.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("records    %d (%d ingress, %d egress)\n",
		res.Packets, res.Stats.IngressCopies, res.Stats.EgressCopies)
	fmt.Printf("elapsed    %v\n", res.Elapsed)
	fmt.Printf("throughput %.2f Mpps, %.2f Gbps represented\n",
		res.PPS()/1e6, res.Gbps())
	fmt.Printf("pipeline   %d rtt samples, %d losses counted, %d microbursts\n",
		res.Stats.RTTSamples, lossCount(plane), res.Stats.Microbursts)
}

// lossCount sums the pkt_loss register across the flow table — the
// pipeline's retransmission tally for the whole run.
func lossCount(p *dataplane.Pipes) uint64 {
	var total uint64
	size := p.Config().FlowTableSize
	for idx := 0; idx < size; idx++ {
		v, _ := p.ReadRegister("pkt_loss", uint32(idx))
		total += v
	}
	return total
}

// recordTrace streams the synthetic workload into a trace file.
func recordTrace(path string, src replay.Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := replay.NewWriter(f)
	var rec replay.Record
	for src.Next(&rec) {
		if err := w.Write(&rec); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}
