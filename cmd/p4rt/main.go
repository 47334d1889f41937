// Command p4rt is the switch-operator tool for a running collector:
// it speaks the runtime API (the stand-in for P4Runtime/BfRt) to read
// data-plane registers, inspect pipeline statistics and program the
// monitor table — the operations §4.1 attributes to "the APIs provided
// by the manufacturer of the switch".
//
// Usage:
//
//	p4rt [-addr HOST:9559] registers
//	p4rt [-addr HOST:9559] register-read NAME INDEX
//	p4rt [-addr HOST:9559] flow-read FLOWID REVID     (hex ids from the digests)
//	p4rt [-addr HOST:9559] table-skip PREFIX          (e.g. 10.9.0.0/16)
//	p4rt [-addr HOST:9559] stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/p4runtime"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9559", "collector p4runtime address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	client, err := p4runtime.Dial(*addr, 5*time.Second)
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	switch args[0] {
	case "registers":
		names, err := client.ListRegisters()
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}

	case "register-read":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		idx, err := strconv.ParseUint(args[2], 0, 32)
		if err != nil {
			fatal(fmt.Errorf("bad index %q: %w", args[2], err))
		}
		v, err := client.RegisterRead(args[1], uint32(idx))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s[%d] = %d\n", args[1], idx, v)

	case "flow-read":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		id, err1 := strconv.ParseUint(args[1], 0, 32)
		rev, err2 := strconv.ParseUint(args[2], 0, 32)
		if err1 != nil || err2 != nil {
			fatal(fmt.Errorf("flow ids must be numeric (hex ok): %v %v", err1, err2))
		}
		f, err := client.FlowRead(uint32(id), uint32(rev))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("bytes=%d pkts=%d loss=%d rtt=%.3fms qdelay=%dns flight=%d fin=%v\n",
			f.Bytes, f.Pkts, f.PktLoss, f.RTTMs, f.QDelay, f.Flight, f.FinSeen)

	case "table-skip":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		if err := client.TableSkip(args[1]); err != nil {
			fatal(err)
		}
		fmt.Printf("monitor table: skip %s\n", args[1])

	case "stats":
		resp, err := client.Do(p4runtime.Request{Op: p4runtime.OpStats})
		if err != nil {
			fatal(err)
		}
		s := resp.Stats
		fmt.Printf("ingress=%d egress=%d rtt-samples=%d eack-evictions=%d qsig-miss=%d collisions=%d microbursts=%d skipped=%d\n",
			s.IngressCopies, s.EgressCopies, s.RTTSamples, s.EACKEvictions,
			s.QSigMismatches, s.SlotCollisions, s.Microbursts, s.SkippedPackets)

	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: p4rt [-addr HOST:9559] registers|register-read NAME IDX|flow-read ID REV|table-skip PREFIX|stats`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p4rt:", err)
	os.Exit(1)
}
