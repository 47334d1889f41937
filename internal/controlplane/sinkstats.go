package controlplane

import "sync"

// IdentitySink stamps every report with a fleet member identity
// before passing it on — the "which switch said this" provenance a
// shared archiver needs when N members ship into one store (DESIGN.md
// §5.9). Reports keep any identity already present only if the sink's
// fields are empty, so re-stamping downstream cannot silently rewrite
// provenance set closer to the source.
type IdentitySink struct {
	// SiteID and SwitchID are stamped into every report.
	SiteID   string
	SwitchID string
	// Next receives the stamped report. Nil discards.
	Next Sink
}

// Emit implements Sink.
func (s IdentitySink) Emit(r Report) {
	if s.SiteID != "" {
		r.SiteID = s.SiteID
	}
	if s.SwitchID != "" {
		r.SwitchID = s.SwitchID
	}
	if s.Next != nil {
		s.Next.Emit(r)
	}
}

// CountingSink wraps a sink with a thread-safe emit counter, the
// cheapest observability a shipping path can have: when a downstream
// sink degrades (drops, spools, falls back), comparing its own
// counters against the CountingSink upstream of it bounds the loss.
type CountingSink struct {
	// Next receives every report after the count. Nil discards.
	Next Sink

	mu sync.Mutex
	n  uint64
}

// Emit implements Sink.
func (c *CountingSink) Emit(r Report) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	if c.Next != nil {
		c.Next.Emit(r)
	}
}

// Count returns the number of reports emitted so far.
func (c *CountingSink) Count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
