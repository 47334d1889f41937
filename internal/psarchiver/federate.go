package psarchiver

import (
	"sort"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/metrics"
)

// This file is the shared archiver's fleet view (DESIGN.md §5.9): N
// members ship identity-stamped reports into one Store, and CrossSite
// rebuilds the observatory picture — per-site rollups, global
// fairness, per-member document accounting, and end-to-end path
// metrics joined across tap points that saw the same flow.

// SwitchDocs counts one member's documents inside a site rollup — the
// member-by-member resolution of the fleet exact-accounting invariant
// (every archived document is attributable to exactly one switch).
type SwitchDocs struct {
	Switch    string
	Documents int
}

// SiteAggregate is one site's rollup across all of its switches.
type SiteAggregate struct {
	Site string
	// Switches lists the site's members and their document counts, in
	// switch order.
	Switches []SwitchDocs
	// Documents is the site total (sum over Switches).
	Documents int
	// Flows counts distinct flows summarised by this site's switches.
	Flows int
	// TotalBytes and TotalPackets sum the site's flow summaries (each
	// flow counted once, at its fullest tap-point observation).
	TotalBytes   float64
	TotalPackets float64
	// Fairness is Jain's index over the site's per-flow byte totals.
	Fairness float64
}

// PathMetric is one flow observed at two or more tap points, joined by
// flow ID — the end-to-end path view a single switch cannot produce.
type PathMetric struct {
	FlowID string
	// Switches lists the observing tap points as "site/switch", sorted.
	Switches []string
	// Bytes is the fullest observation of the flow; DeltaBytes is the
	// spread between the fullest and thinnest tap points (a nonzero
	// spread means the tap points disagree about the flow — on-path
	// loss between them, or an observation cut short).
	Bytes      float64
	DeltaBytes float64
}

// FleetAggregate is the cross-site rollup of a shared archiver.
type FleetAggregate struct {
	// Sites holds per-site rollups in site order.
	Sites []SiteAggregate
	// Documents counts every document in the prefix's indices;
	// Unstamped counts those without a member identity (single-switch
	// streams shipped into the shared store).
	Documents int
	Unstamped int
	// GlobalFairness is Jain's index over fleet-wide per-flow byte
	// totals, each flow counted once across all tap points.
	GlobalFairness float64
	// Paths lists flows seen at two or more tap points, by flow ID.
	Paths []PathMetric
}

// MemberDocs returns the total archived documents attributed to one
// member, resolving "site/switch" against the aggregate.
func (f FleetAggregate) MemberDocs(site, sw string) int {
	for _, s := range f.Sites {
		if s.Site != site {
			continue
		}
		for _, m := range s.Switches {
			if m.Switch == sw {
				return m.Documents
			}
		}
	}
	return 0
}

// CrossSite aggregates every index under "<prefix>-" into the fleet
// view. It is read-only over the store and deterministic: all slices
// come out sorted, so its rendering is witness-stable.
func CrossSite(store *Store, prefix string) FleetAggregate {
	type memberKey struct{ site, sw string }
	type flowObs struct {
		// bySwitch holds each tap point's fullest bytes observation of
		// the flow ("site/switch" → max bytes across that switch's
		// summaries), so per-round cumulative snapshots collapse to one
		// figure per tap point before tap points are compared.
		bySwitch   map[string]float64
		maxPackets float64
		sites      map[string]bool
	}
	siteField, switchField, flowField := controlplane.LookupField("site_id"), controlplane.LookupField("switch_id"), controlplane.LookupField("flow_id")
	bytesField, packetsField := controlplane.LookupField("bytes"), controlplane.LookupField("packets")
	// member counts a (site, switch) pair's documents: one per pair of
	// string-table ids in an index, and one per document with Extra.
	type member struct {
		key  memberKey
		tap  string // "site/switch"
		docs int
	}
	var members []*member
	newMember := func(c *cursor) *member {
		key := memberKey{c.str(siteField, "site_id"), c.str(switchField, "switch_id")}
		m := &member{key: key, tap: key.site + "/" + key.sw}
		members = append(members, m)
		return m
	}
	flows := make(map[string]*flowObs)

	var agg FleetAggregate
	for _, index := range store.Indices() {
		if !strings.HasPrefix(index, prefix+"-") {
			continue
		}
		byIDs := make(map[uint64]*member)
		store.scan(Query{Index: index}, func(c *cursor) {
			agg.Documents++
			var m *member
			if c.extra == nil {
				ids := uint64(c.id(siteField))<<32 | uint64(c.id(switchField))
				if m = byIDs[ids]; m == nil {
					m = newMember(c)
					byIDs[ids] = m
				}
			} else {
				m = newMember(c)
			}
			m.docs++
			if m.key == (memberKey{}) || c.str(kindField, "kind") != controlplane.KindFlowSummary {
				return
			}
			id := c.str(flowField, "flow_id")
			if id == "" {
				return
			}
			bytes, _ := c.float(bytesField, "bytes")
			packets, _ := c.float(packetsField, "packets")
			f := flows[id]
			if f == nil {
				f = &flowObs{bySwitch: make(map[string]float64), sites: make(map[string]bool)}
				flows[id] = f
			}
			if bytes > f.bySwitch[m.tap] || f.bySwitch[m.tap] == 0 {
				f.bySwitch[m.tap] = bytes
			}
			if packets > f.maxPackets {
				f.maxPackets = packets
			}
			f.sites[m.key.site] = true
		})
	}
	docsByMember := make(map[memberKey]int)
	for _, m := range members {
		docsByMember[m.key] += m.docs
	}
	agg.Unstamped = docsByMember[memberKey{}]
	delete(docsByMember, memberKey{})

	// Per-site rollups from the member counts and flow observations.
	bySite := make(map[string]*SiteAggregate)
	siteOf := func(site string) *SiteAggregate {
		s := bySite[site]
		if s == nil {
			s = &SiteAggregate{Site: site}
			bySite[site] = s
		}
		return s
	}
	for k, n := range docsByMember {
		s := siteOf(k.site)
		s.Switches = append(s.Switches, SwitchDocs{Switch: k.sw, Documents: n})
		s.Documents += n
	}
	siteBytes := make(map[string][]float64)
	var globalBytes []float64
	flowIDs := make([]string, 0, len(flows))
	for id := range flows {
		flowIDs = append(flowIDs, id)
	}
	sort.Strings(flowIDs)
	for _, id := range flowIDs {
		f := flows[id]
		var minTap, maxTap float64
		first := true
		for _, b := range f.bySwitch {
			if first || b < minTap {
				minTap = b
			}
			if b > maxTap {
				maxTap = b
			}
			first = false
		}
		globalBytes = append(globalBytes, maxTap)
		for site := range f.sites {
			s := siteOf(site)
			s.Flows++
			s.TotalBytes += maxTap
			s.TotalPackets += f.maxPackets
			siteBytes[site] = append(siteBytes[site], maxTap)
		}
		if len(f.bySwitch) >= 2 {
			sws := make([]string, 0, len(f.bySwitch))
			for sw := range f.bySwitch {
				sws = append(sws, sw)
			}
			sort.Strings(sws)
			agg.Paths = append(agg.Paths, PathMetric{
				FlowID:     id,
				Switches:   sws,
				Bytes:      maxTap,
				DeltaBytes: maxTap - minTap,
			})
		}
	}
	for site, s := range bySite {
		sort.Slice(s.Switches, func(i, j int) bool { return s.Switches[i].Switch < s.Switches[j].Switch })
		s.Fairness = metrics.JainFairness(siteBytes[site])
		agg.Sites = append(agg.Sites, *s)
	}
	sort.Slice(agg.Sites, func(i, j int) bool { return agg.Sites[i].Site < agg.Sites[j].Site })
	agg.GlobalFairness = metrics.JainFairness(globalBytes)
	return agg
}
