package resilient

import (
	"strings"

	"repro/internal/obs"
)

// RegisterObs wires the shipper's self-telemetry into r.
//
// The ladder counters are rendered by one Collect callback reading a
// single mutex-consistent Stats snapshot, so the PR-3 accounting
// invariant
//
//	emitted == shipped + replayed + fallback + dropped + queued + spool_pending
//
// holds in every /metrics scrape, not just at quiescent points (the
// shipper moves records between states under the same lock the
// snapshot takes). The trace ring records report-lifecycle and
// ladder-transition events: ship (one per front: bytes accepted,
// records shipped), retry, replay, spill, fallback, drop, drop_oldest,
// dial_fail (until the breaker opens), connect, breaker_open,
// breaker_close, spool_abandon.
func (s *Shipper) RegisterObs(r *obs.Registry) {
	s.RegisterObsAs(r, "p4_shipper")
}

// RegisterObsAs is RegisterObs under an explicit metric-name prefix
// (and trace-ring name), for fleet deployments where several member
// shippers share one registry: scrape output must keep names unique,
// so each member registers as e.g. "p4_shipper_siteA_sw1". The prefix
// replaces the default "p4_shipper".
func (s *Shipper) RegisterObsAs(r *obs.Registry, prefix string) {
	// The trace ring keeps its historical name ("shipper" under the
	// default prefix): rings are namespaced by /trace, not /metrics.
	s.trace.Store(r.NewTrace(strings.TrimPrefix(prefix, "p4_"), 1024))
	r.Collect(func(w obs.MetricWriter) {
		st := s.Stats()
		w.Gauge(prefix+"_emitted", "Reports accepted by Emit.", st.Emitted)
		w.Gauge(prefix+"_shipped", "Records fully delivered to a live archiver connection.", st.Shipped)
		w.Gauge(prefix+"_replayed", "Records delivered off the disk spool after an outage.", st.Replayed)
		w.Gauge(prefix+"_retried", "Write attempts not accepted in full, leaving records queued.", st.Retried)
		w.Gauge(prefix+"_writes", "conn.Write calls on archiver connections.", st.Writes)
		w.Gauge(prefix+"_write_bytes", "Bytes archiver connections accepted.", st.WriteBytes)
		w.Gauge(prefix+"_dropped", "Records lost with certainty (overflow, encode, fallback errors).", st.Dropped)
		w.Gauge(prefix+"_spilled", "Records appended to the disk spool.", st.Spilled)
		w.Gauge(prefix+"_fallback", "Records degraded to the fallback writer.", st.Fallback)
		w.Gauge(prefix+"_dial_attempts", "Archiver dial attempts.", st.DialAttempts)
		w.Gauge(prefix+"_reconnects", "Successful dials that followed at least one failure.", st.Reconnects)
		w.Gauge(prefix+"_breaker_opens", "Circuit-breaker open transitions.", st.BreakerOpens)
		w.Gauge(prefix+"_queued", "Current in-memory queue depth.", st.Queued)
		w.Gauge(prefix+"_spool_pending", "Records waiting on disk for replay.", st.SpoolPending)
	})
}

// tev records one trace event when instrumentation is on. kind must be
// a string literal so recording stays allocation-free.
func (s *Shipper) tev(kind string, a, b uint64) {
	if t := s.trace.Load(); t != nil {
		t.Add(kind, a, b)
	}
}
