package experiments

import (
	"fmt"
	"time"

	"repro/internal/controlplane"
	"repro/internal/faultnet"
	"repro/internal/psarchiver"
	"repro/internal/resilient"
)

// shipLeg is one Figure 7 shipping leg over an in-memory
// fault-injection listener: reports counted upstream of a resilient
// shipper, Report_v1 over the listener, the Logstash TCP input feeding
// an archiver pipeline. The outage and federation scenarios script
// their faults on ln and read the leg's counters after drainClose.
type shipLeg struct {
	ln      *faultnet.Listener
	input   *psarchiver.TCPInput
	shipper *resilient.Shipper
	counter *controlplane.CountingSink // emitted, upstream of the shipper
}

// newShipLeg builds the leg on ln, which the caller may already have
// set refusing (an archiver down before the shipper's first dial).
func newShipLeg(ln *faultnet.Listener, pipeline *psarchiver.Pipeline, memSpool int, spoolDir string, seed uint64) (*shipLeg, error) {
	shipper, err := resilient.New(resilient.Config{ //p4:lint-exempt determinism: the shipper's internal wall-clock (write deadlines, backoff stamps) never reaches the scenario's counted output
		Dial:       ln.Dial,
		MemSpool:   memSpool,
		SpoolDir:   spoolDir,
		BackoffMin: time.Millisecond,
		BackoffMax: 8 * time.Millisecond,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	return &shipLeg{
		ln:      ln,
		input:   psarchiver.NewInputFromListener(pipeline, ln),
		shipper: shipper,
		counter: &controlplane.CountingSink{Next: shipper},
	}, nil
}

// wait polls the shipper until cond holds. Outages, drains and spool
// replays are asynchronous wall-clock processes, so scenario phases
// synchronise on observed counters, never on sleeps; what names the
// waiter in the timeout error.
func (l *shipLeg) wait(what string, cond func(resilient.Stats) bool) error {
	deadline := time.Now().Add(30 * time.Second) //p4:lint-exempt determinism: the scenarios drive real TCP shippers; this is a convergence timeout, not measured output
	for time.Now().Before(deadline) {            //p4:lint-exempt determinism: same convergence timeout as above
		if cond(l.shipper.Stats()) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("experiments: %s did not converge; shipper %s", what, l.shipper.Stats())
}

// drainClose waits for the queue and spool to empty, then shuts the
// leg down in order: the shipper, then the input — whose Close closes
// the listener too and waits for the serving goroutines, so every
// delivered line is processed before the caller reads a counter.
func (l *shipLeg) drainClose(what string) error {
	if err := l.wait(what, func(s resilient.Stats) bool { return s.Queued == 0 && s.SpoolPending == 0 }); err != nil {
		return err
	}
	if err := l.shipper.Close(); err != nil {
		return err
	}
	return l.input.Close()
}
