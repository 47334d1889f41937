// Limitation identification (§5.4.2 / Figure 12): three concurrent
// transfers, each bottlenecked differently — by the network (random
// loss), by the receiver (small TCP buffer), and by the sender
// (application pacing). The P4 data plane watches flight size against
// packet losses (the Dapper heuristic) and tells the administrator
// which transfers would NOT benefit from active measurements.
//
//	go run ./examples/limitation
package main

import (
	"fmt"
	"sort"

	"repro/p4psonar"
)

func main() {
	r := p4psonar.RunFig12(p4psonar.Fig12Config{
		Duration: 30 * p4psonar.Second,
	})

	fmt.Println(r.Render())

	fmt.Println("operator guidance (§3.3.4):")
	var dsts []string
	for dst := range r.Verdicts {
		dsts = append(dsts, dst)
	}
	sort.Strings(dsts)
	for _, dst := range dsts {
		switch verdict := r.Verdicts[dst]; verdict {
		case p4psonar.LimitedByNetwork:
			fmt.Printf("  %s: network-limited -> running active tests to localise the problem is justified\n", dst)
		case p4psonar.LimitedByEndpoint:
			fmt.Printf("  %s: endpoint-limited -> do NOT run active tests; tune the DTN instead\n", dst)
		default:
			fmt.Printf("  %s: %s\n", dst, verdict)
		}
	}
}
