package psarchiver

import (
	"fmt"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/simtime"
)

// BenchmarkStoreIndex times Store.Index per document, the seal of every
// full segment included, on two streams into the metric index, each
// pass of a stream into a fresh store:
//   - report_storm: a control plane's own metric reports, 1500 flows and
//     four metrics per tick with RTT quantiles on the RTT ones;
//   - observatory: the preload of 4 members × 50 flows × 4 metrics per
//     step over 75 steps (60 000 documents), member by member and flow by
//     flow, with random values.
func BenchmarkStoreIndex(b *testing.B) {
	var storm []Document
	for _, r := range controlPlaneStream(b, 1500, 2) {
		if r.Kind == controlplane.KindMetric {
			storm = append(storm, metaDocument(r))
		}
	}
	preload := observatoryPreload()
	b.Run("report_storm", func(b *testing.B) { benchIndex(b, storm) })
	b.Run("observatory", func(b *testing.B) { benchIndex(b, preload) })
}

func benchIndex(b *testing.B, docs []Document) {
	name := indexNames[controlplane.KindMetric]
	s := NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(docs)
		if j == 0 && i > 0 {
			b.StopTimer()
			s = NewStore()
			b.StartTimer()
		}
		s.Index(name, docs[j])
	}
}

// metaDocument is r as the pipeline stores it: typed, with metadata.
func metaDocument(r controlplane.Report) Document {
	d := NewDocument(r, nil)
	AddMetadata(&d)
	return d
}

// observatoryPreload is the observatory workload's preloaded metric
// stream: two sites of two switches, a site's switches tapping the same
// 50 flows.
func observatoryPreload() []Document {
	const flowsPerSite, steps = 50, 75
	rng := simtime.NewRNG(42)
	members := [][2]string{{"site-a", "a1"}, {"site-a", "a2"}, {"site-b", "b1"}, {"site-b", "b2"}}
	flows := make([]string, 2*flowsPerSite)
	for i := range flows {
		flows[i] = fmt.Sprintf("%08x", uint32(rng.Uint64()))
	}
	var out []Document
	for m, mem := range members {
		for _, flow := range flows[m/2*flowsPerSite:][:flowsPerSite] {
			for t := 1; t <= steps; t++ {
				for _, metric := range controlplane.AllMetrics() {
					out = append(out, metaDocument(controlplane.Report{
						Kind: controlplane.KindMetric, TimeNs: int64(t) * 200_000_000, SiteID: mem[0], SwitchID: mem[1],
						Metric: metric, Value: 1 + float64(rng.Uint64()%1_000_000)/1000, Unit: "u",
						FlowID: flow, SrcIP: "10.0.0.1", DstIP: "10.1.0.1", SrcPort: 40000, DstPort: 5201, Proto: "tcp",
					}))
				}
			}
		}
	}
	return out
}
