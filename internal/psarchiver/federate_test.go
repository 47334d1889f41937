package psarchiver

import (
	"fmt"
	"testing"

	"repro/internal/controlplane"
)

func flowDoc(site, sw, flow string, bytes, packets float64) Document {
	return Document{Extra: obj{
		"kind":      "flow_summary",
		"site_id":   site,
		"switch_id": sw,
		"flow_id":   flow,
		"bytes":     bytes,
		"packets":   packets,
	}}
}

// typedFlowDoc is flowDoc as the control plane emits it, read from the
// store's columns rather than from Extra.
func typedFlowDoc(site, sw, flow string, bytes, packets uint64) Document {
	return NewDocument(controlplane.Report{Kind: controlplane.KindFlowSummary, SiteID: site, SwitchID: sw, FlowID: flow, Bytes: bytes, Packets: packets}, nil)
}

func fleetStore() *Store {
	s := NewStore()
	// alpha/sw1 and alpha/sw2 tap the same flows (two tap points on one
	// path); beta/sw1 sees its own flow. Flow f1 is snapshotted twice by
	// sw1 (cumulative rounds) — only the fullest snapshot must count. A
	// member's documents, typed or not, count as one member's.
	s.Index("p4-psonar-throughput", flowDoc("alpha", "sw1", "f1", 1000, 10))
	s.Index("p4-psonar-throughput", typedFlowDoc("alpha", "sw1", "f1", 4000, 40))
	s.Index("p4-psonar-throughput", typedFlowDoc("alpha", "sw2", "f1", 4000, 40))
	s.Index("p4-psonar-throughput", flowDoc("alpha", "sw1", "f2", 2000, 20))
	s.Index("p4-psonar-throughput", typedFlowDoc("alpha", "sw2", "f2", 1500, 20))
	s.Index("p4-psonar-throughput", flowDoc("beta", "sw1", "f3", 6000, 60))
	// An aggregate document counts toward member accounting but not flows.
	s.Index("p4-psonar-aggregate", NewDocument(controlplane.Report{Kind: controlplane.KindAggregate, SiteID: "beta", SwitchID: "sw1"}, nil))
	// Unstamped: single-switch streams sharing the store.
	s.Index("p4-psonar-throughput", flowDoc("", "", "legacy", 100, 1))
	s.Index("p4-psonar-throughput", typedFlowDoc("", "", "legacy", 100, 1))
	// Outside the prefix: ignored entirely.
	s.Index("other-throughput", flowDoc("alpha", "sw1", "f9", 1, 1))
	return s
}

func TestCrossSiteRollups(t *testing.T) {
	agg := CrossSite(fleetStore(), "p4-psonar")
	if agg.Documents != 9 || agg.Unstamped != 2 {
		t.Fatalf("documents=%d unstamped=%d", agg.Documents, agg.Unstamped)
	}
	if len(agg.Sites) != 2 || agg.Sites[0].Site != "alpha" || agg.Sites[1].Site != "beta" {
		t.Fatalf("sites: %+v", agg.Sites)
	}
	alpha, beta := agg.Sites[0], agg.Sites[1]
	if alpha.Documents != 5 || beta.Documents != 2 {
		t.Fatalf("site docs: alpha=%d beta=%d", alpha.Documents, beta.Documents)
	}
	// f1 counted once at its fullest tap observation (4000), not the
	// early 1000-byte snapshot and not double across tap points.
	if alpha.Flows != 2 || alpha.TotalBytes != 4000+2000 {
		t.Fatalf("alpha rollup: flows=%d bytes=%.0f", alpha.Flows, alpha.TotalBytes)
	}
	if beta.Flows != 1 || beta.TotalBytes != 6000 {
		t.Fatalf("beta rollup: flows=%d bytes=%.0f", beta.Flows, beta.TotalBytes)
	}
	if alpha.Fairness <= 0 || alpha.Fairness > 1 || agg.GlobalFairness <= 0 || agg.GlobalFairness > 1 {
		t.Fatalf("fairness out of range: site=%f global=%f", alpha.Fairness, agg.GlobalFairness)
	}
}

func TestCrossSitePathJoin(t *testing.T) {
	agg := CrossSite(fleetStore(), "p4-psonar")
	if len(agg.Paths) != 2 {
		t.Fatalf("paths: %+v", agg.Paths)
	}
	// Sorted by flow ID; tap points sorted inside each path.
	p1, p2 := agg.Paths[0], agg.Paths[1]
	if p1.FlowID != "f1" || p2.FlowID != "f2" {
		t.Fatalf("path order: %s, %s", p1.FlowID, p2.FlowID)
	}
	if fmt.Sprint(p1.Switches) != "[alpha/sw1 alpha/sw2]" {
		t.Fatalf("tap points: %v", p1.Switches)
	}
	// Both tap points converged on f1 → zero spread; f2's thinner tap
	// (1500 vs 2000) shows as on-path delta.
	if p1.Bytes != 4000 || p1.DeltaBytes != 0 {
		t.Fatalf("f1: bytes=%.0f delta=%.0f", p1.Bytes, p1.DeltaBytes)
	}
	if p2.Bytes != 2000 || p2.DeltaBytes != 500 {
		t.Fatalf("f2: bytes=%.0f delta=%.0f", p2.Bytes, p2.DeltaBytes)
	}
}

func TestCrossSiteMemberDocs(t *testing.T) {
	agg := CrossSite(fleetStore(), "p4-psonar")
	cases := []struct {
		site, sw string
		want     int
	}{
		{"alpha", "sw1", 3},
		{"alpha", "sw2", 2},
		{"beta", "sw1", 2},
		{"alpha", "ghost", 0},
		{"gamma", "sw1", 0},
	}
	for _, c := range cases {
		if got := agg.MemberDocs(c.site, c.sw); got != c.want {
			t.Fatalf("MemberDocs(%s,%s)=%d want %d", c.site, c.sw, got, c.want)
		}
	}
}

func TestCrossSiteEmptyStore(t *testing.T) {
	agg := CrossSite(NewStore(), "p4-psonar")
	if agg.Documents != 0 || len(agg.Sites) != 0 || len(agg.Paths) != 0 {
		t.Fatalf("empty store aggregate: %+v", agg)
	}
}
