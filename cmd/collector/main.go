// Command collector runs the switch control-plane agent as a live
// daemon: it drives the simulated Science DMZ in real time (one
// virtual second per wall second), accepts psconfig config-P4
// commands over TCP, and ships every Report_v1 record as
// newline-delimited JSON to a Logstash TCP input — exactly the Figure
// 7 wiring. Without --logstash it prints the reports to stdout.
//
// Shipping is resilient (package resilient): the collector starts
// even when the archiver is down, reconnects with exponential
// backoff, spools reports to --spool-dir during outages and replays
// them in order on reconnect, and accounts for every record in the
// stats line it prints at shutdown. SIGINT/SIGTERM flush the
// in-flight reports before exiting.
//
// Usage:
//
//	collector [--listen :9161] [--logstash HOST:PORT] [--duration 60] [--seed 42]
//	          [--shards N] [--spool-dir DIR] [--max-spool BYTES] [--mem-spool N]
//	          [--backoff-min D] [--backoff-max D] [--write-timeout D]
//	          [--obs-addr :9600] [--site NAME --switch-id NAME]
//
// --site/--switch-id stamp every report with a fleet member identity
// (DESIGN.md §5.9) so a shared archiver can attribute documents.
//
// With --obs-addr the collector serves its own telemetry: Prometheus
// text at /metrics (pipeline counters, extraction-latency histograms,
// the shipper's degradation-ladder gauges), the report-lifecycle trace
// ring at /trace and pprof at /debug/pprof/.
//
// Try it together with the other tools:
//
//	collector --listen :9161 &
//	psconfig config-P4 --collector localhost:9161 --metric rtt --samples_per_second 4
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/psconfig"
	"repro/internal/resilient"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

func main() {
	listen := flag.String("listen", ":9161", "address for psconfig config-P4 commands")
	logstash := flag.String("logstash", "", "Logstash TCP input address (default: stdout)")
	duration := flag.Int("duration", 60, "virtual seconds to run")
	seed := flag.Uint64("seed", 42, "simulation seed")
	shards := flag.Int("shards", 1, "data-plane pipes to partition flows across (1 = single pipe)")
	spoolDir := flag.String("spool-dir", "", "directory for the on-disk report spool during archiver outages (empty disables)")
	maxSpool := flag.Int64("max-spool", 64<<20, "cap on pending disk-spool bytes before reports degrade to stdout")
	memSpool := flag.Int("mem-spool", 4096, "in-memory report queue depth (oldest dropped beyond it)")
	backoffMin := flag.Duration("backoff-min", 50*time.Millisecond, "initial reconnect backoff")
	backoffMax := flag.Duration("backoff-max", 5*time.Second, "reconnect backoff ceiling")
	writeTimeout := flag.Duration("write-timeout", 5*time.Second, "per-write deadline on the archiver connection")
	obsAddr := flag.String("obs-addr", "", "self-telemetry HTTP endpoint: /metrics, /trace, pprof (empty disables)")
	agingWindow := flag.Duration("aging-window", 0, "evict unannounced flow-table cells idle longer than this to the sketch tier (0 disables aging)")
	site := flag.String("site", "", "federation site identity stamped into every report as site_id (empty disables stamping)")
	switchID := flag.String("switch-id", "", "federation switch identity stamped into every report as switch_id")
	flag.Parse()

	cfg := resilient.Config{
		MemSpool:      *memSpool,
		SpoolDir:      *spoolDir,
		MaxSpoolBytes: *maxSpool,
		BackoffMin:    *backoffMin,
		BackoffMax:    *backoffMax,
		WriteTimeout:  *writeTimeout,
		Seed:          *seed,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "collector: shipper: "+format+"\n", args...)
		},
	}
	if *logstash != "" {
		addr := *logstash
		cfg.Dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	shipper, err := resilient.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "collector:", err)
		os.Exit(1)
	}
	// The counter upstream of the shipper bounds loss end to end: its
	// count must equal the shipper's Emitted at shutdown.
	sink := &controlplane.CountingSink{Next: shipper}
	// In a federated fleet each member stamps its identity before
	// counting, so the shared archiver can attribute every document.
	var out controlplane.Sink = sink
	if *site != "" || *switchID != "" {
		out = controlplane.IdentitySink{SiteID: *site, SwitchID: *switchID, Next: sink}
	}

	// A fast-scale Fig. 9-style workload provides live traffic; every
	// report goes to the resilient shipper and none is kept in memory.
	sys := core.NewSystem(core.Options{
		BottleneckBps: netsim.Mbps(500),
		Seed:          *seed,
		Shards:        *shards,
		Sink:          out,
		ControlPlane: controlplane.Config{
			AgingWindow: simtime.Time(agingWindow.Nanoseconds()),
		},
	})
	// stepMu serialises engine stepping with the one path that reads
	// engine-owned state from another goroutine: the /metrics scrape's
	// register scans. psconfig commands do not need it:
	// ControlPlane.Update publishes config generations lock-free, so the
	// config channel can never stall the simulation stepper (DESIGN.md
	// §5.7).
	var stepMu sync.Mutex

	// Self-telemetry (opt-in): counters, histograms and the shipper
	// trace ring behind /metrics, /trace and pprof. Scrapes of
	// engine-owned state (register scans, the flow directory) run under
	// the same mutex that serialises simulation stepping.
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		reg.Sync = func(f func()) {
			stepMu.Lock()
			defer stepMu.Unlock()
			f()
		}
		reg.AddProcessMetrics()
		sys.DataPlane.RegisterObs(reg)
		sys.ControlPlane.RegisterObs(reg)
		shipper.RegisterObs(reg)
		srv, bound, err := reg.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "collector:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "collector: self-telemetry on http://%s/ (metrics, trace, pprof)\n", bound)
	}
	sys.Start()

	sender := tcp.Config{MSS: 1448}
	total := simtime.Time(*duration) * simtime.Second
	sys.TransferToExternal(0, 0, 0, total, sender, tcp.Config{})
	sys.TransferToExternal(1, 0, 0, total, sender, tcp.Config{})
	sys.TransferToExternal(2, total/3, 0, total-total/3, sender, tcp.Config{})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "collector:", err)
		os.Exit(1)
	}
	defer ln.Close()
	go psconfig.ServeConfig(ln, sys.ControlPlane)
	fmt.Fprintf(os.Stderr, "collector: config API on %s, running %d virtual seconds\n", ln.Addr(), *duration)

	// Flush-then-exit on SIGINT/SIGTERM: stop stepping the simulation,
	// let the shipper drain (to the archiver, the disk spool, or
	// stdout), and print the accounting before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	// Advance the simulation one virtual second per wall second so the
	// report stream looks live.
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	interrupted := false
loop:
	for vt := simtime.Second; vt <= total; vt += simtime.Second {
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "collector: %v, flushing reports\n", sig)
			interrupted = true
			break loop
		case <-ticker.C:
		}
		stepMu.Lock()
		sys.Engine.Run(vt)
		stepMu.Unlock()
	}

	// Close flushes the in-memory queue: remaining records ship if the
	// archiver is reachable, otherwise spill to disk or stdout — never
	// silently vanish.
	if err := shipper.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "collector: closing shipper:", err)
	}
	st := shipper.Stats()
	fmt.Fprintf(os.Stderr, "collector: done, %d reports emitted (%s)\n", sink.Count(), st)
	if interrupted {
		os.Exit(130)
	}
}
