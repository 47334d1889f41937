package controlplane

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
