package psconfig

import (
	"testing"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/simtime"
)

// newRealControlPlane builds a minimal live control plane so the tests
// can verify psconfig against the real Target implementation.
func newRealControlPlane(t *testing.T) *controlplane.ControlPlane {
	t.Helper()
	e := simtime.NewEngine()
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	sink := &controlplane.MemorySink{}
	cp := controlplane.New(e, dp, sink, controlplane.Config{LinkCapacityBps: 1e9})
	cp.Start()
	return cp
}
