// Package resilient is the report-export subsystem between the switch
// control plane and any downstream archiver (Figure 7's "Report_v1 →
// Logstash" hop). The paper's value proposition is a *continuous*
// stream of measurement records; a fail-fast exporter that dials once
// and drops on any error silently falsifies every downstream dashboard.
// This package instead degrades in explicit, counted steps:
//
//	archiver up      → ship over TCP with a per-write deadline
//	transient error  → keep the record, reconnect with exponential
//	                   backoff + deterministic jitter, resend
//	archiver down    → circuit breaker opens after N consecutive
//	                   failures; records spill to a newline-delimited
//	                   JSON disk spool, replayed in order on reconnect
//	disk unavailable → records degrade to the fallback writer (stdout)
//	memory spool full→ drop-oldest, with an exact dropped counter
//
// A healthy connection is written a front at a time: whatever is queued
// when the run goroutine looks, up to 64 KB, in one Write, and exactly
// the records whose last byte the connection accepted leave the queue.
// No timer is involved, so an idle shipper adds no latency; the spool,
// its replay and the fallback stay one record at a time.
//
// Every record is accounted for exactly once in Stats:
//
//	Emitted == Shipped + Replayed + Fallback + Dropped + Queued + SpoolPending
//
// holds in every Stats snapshot — state transitions that move a record
// between terms happen under the same lock the snapshot takes, so even
// a mid-outage /metrics scrape balances exactly (modulo records
// inherited from a previous run's spool file, which are Replayed
// without having been Emitted), and after Close with Queued == 0.
// Tests assert this invariant under scripted faults (package faultnet)
// rather than observing good behaviour by luck; RegisterObs exposes
// the same counters as live gauges plus a lifecycle trace ring.
package resilient

import (
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// Stats is a consistent snapshot of the shipper's counters, in the
// style of psarchiver.PipelineStats.
type Stats struct {
	// Emitted counts reports accepted by Emit (including ones later
	// dropped or degraded).
	Emitted uint64
	// Shipped counts records fully delivered to an archiver
	// connection.
	Shipped uint64
	// Replayed counts the subset of deliveries that came back off the
	// disk spool after an outage (Replayed records are NOT counted in
	// Shipped; the two are disjoint).
	Replayed uint64
	// Retried counts write attempts the connection did not accept in
	// full, leaving the unaccepted records queued for resend.
	Retried uint64
	// Writes counts conn.Write calls on archiver connections and
	// WriteBytes the bytes they accepted: (Shipped+Replayed)/Writes is
	// the reports one syscall carries.
	Writes     uint64
	WriteBytes uint64
	// Dropped counts records lost with certainty: memory-spool
	// overflow (drop-oldest), encode failures, fallback write errors,
	// and emits after Close.
	Dropped uint64
	// Spilled counts records appended to the disk spool while the
	// circuit breaker was open (or during a failed final flush).
	Spilled uint64
	// Fallback counts records degraded to the fallback writer because
	// no disk spool was available (or it was full / broken).
	Fallback uint64
	// DialAttempts and Reconnects describe connection churn:
	// Reconnects counts successful dials that followed at least one
	// failure.
	DialAttempts uint64
	Reconnects   uint64
	// BreakerOpens counts circuit-breaker open transitions.
	BreakerOpens uint64
	// Queued is the current memory-spool depth; SpoolPending the
	// number of records waiting on disk (including records left over
	// from a previous process run).
	Queued       uint64
	SpoolPending uint64
}

// Delivered is the total number of records that reached the archiver,
// in-order shipments plus post-outage replays.
func (s Stats) Delivered() uint64 { return s.Shipped + s.Replayed }

// String renders the counters the way the collector prints them at
// shutdown.
func (s Stats) String() string {
	return fmt.Sprintf(
		"emitted=%d shipped=%d replayed=%d retried=%d dropped=%d spilled=%d fallback=%d dials=%d reconnects=%d breaker_opens=%d queued=%d spool_pending=%d",
		s.Emitted, s.Shipped, s.Replayed, s.Retried, s.Dropped, s.Spilled,
		s.Fallback, s.DialAttempts, s.Reconnects, s.BreakerOpens, s.Queued, s.SpoolPending)
}

// Config parameterises a Shipper. The zero value of every field except
// Dial selects a production-reasonable default.
type Config struct {
	// Dial opens a connection to the archiver. It is retried with
	// backoff, so it may fail at startup — the shipper still starts
	// and spools. A nil Dial puts the shipper in terminal mode: every
	// record goes straight to Fallback (the collector's stdout mode).
	Dial func() (net.Conn, error)

	// MemSpool bounds the in-memory queue, in records. When full the
	// OLDEST queued record is dropped (and counted) so the stream
	// stays fresh. Default 4096.
	MemSpool int

	// SpoolDir enables the disk spool: records spilled during an
	// outage land in SpoolDir/reports.spool.ndjson and are replayed in
	// order on reconnect (including across process restarts). Empty
	// disables the disk tier.
	SpoolDir string

	// MaxSpoolBytes caps the pending bytes on disk; beyond it records
	// degrade to Fallback. Default 64 MiB.
	MaxSpoolBytes int64

	// BackoffMin/BackoffMax bound the reconnect backoff (exponential,
	// doubling, with deterministic "equal jitter" in [d/2, d)).
	// Defaults 50ms and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration

	// BreakerFailures is the number of consecutive dial/write failures
	// that opens the circuit breaker (switching from hold-in-memory to
	// spill-to-disk). Default 3.
	BreakerFailures int

	// WriteTimeout is the per-write deadline on archiver connections;
	// a stalled archiver fails the write instead of wedging the
	// shipper. Default 5s.
	WriteTimeout time.Duration

	// Seed drives the jitter RNG. The same seed and fault sequence
	// reproduce the same backoff schedule.
	Seed uint64

	// Fallback is the last-resort destination. Default os.Stdout.
	Fallback io.Writer

	// Sleep, when non-nil, replaces the backoff sleep — the test hook
	// that makes chaos scenarios run in microseconds. It must return
	// false if the shipper should stop waiting (Close).
	Sleep func(d time.Duration) bool

	// Logf, when non-nil, receives one line per state transition
	// (reconnects, breaker opens, spool events).
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.MemSpool <= 0 {
		c.MemSpool = 4096
	}
	if c.MaxSpoolBytes <= 0 {
		c.MaxSpoolBytes = 64 << 20
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = c.BackoffMin
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Fallback == nil {
		c.Fallback = os.Stdout
	}
	return c
}
