package experiments

import (
	"fmt"
	"strings"

	"repro/internal/export"
	"repro/internal/mmwave"
	"repro/internal/simtime"
)

// Fig13Config parameterises the mmWave blockage observation of §5.4.3.
// It has no seed: mmwave.Run seeds its own fixed streams.
type Fig13Config struct {
	Scale Scale
}

func (c Fig13Config) withDefaults() Fig13Config {
	if c.Scale.Factor == 0 {
		c.Scale = Fast()
	}
	return c
}

// mmwave is the scenario of Figures 13 and 14: mmwave's default
// blockage, t=7 s for 2 s.
func (c Fig13Config) mmwave() mmwave.Config {
	return mmwave.Config{
		RateBps: c.Scale.Rate(1e9) * 10, // multi-Gbps mmWave at paper scale
	}
}

// Fig13Result carries the two IAT panels of Figure 13.
type Fig13Result struct {
	Config Fig13Config
	// NoBlockage is the Figure 13(a) run; Blockage is 13(b).
	NoBlockage mmwave.Result
	Blockage   mmwave.Result
	// IATIncrease is the ratio of the blocked run's maximum IAT to the
	// unblocked run's — the "multiple orders of magnitude" claim.
	IATIncrease float64
}

// RunFig13 executes both observation runs (no detector, no handover).
func RunFig13(cfg Fig13Config) *Fig13Result {
	cfg = cfg.withDefaults()
	base := cfg.mmwave()

	noBlock := base
	noBlock.BlockageStart = 1000 * simtime.Second // outside the run
	a := mmwave.Run(mmwave.DetectorNone, noBlock)
	b := mmwave.Run(mmwave.DetectorNone, base)

	res := &Fig13Result{Config: cfg, NoBlockage: a, Blockage: b}
	if a.MaxIAT > 0 {
		res.IATIncrease = float64(b.MaxIAT) / float64(a.MaxIAT)
	}
	return res
}

// Render draws the Figure 13 panels.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	b.WriteString(export.Chart("Figure 13(a): packet IAT, no blockage (us)", 72, 10, r.NoBlockage.IAT))
	b.WriteByte('\n')
	b.WriteString(export.Chart("Figure 13(b): packet IAT, blockage at t=7s (us)", 72, 10, r.Blockage.IAT))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "max IAT: %v (no blockage) vs %v (blockage) — %.0fx increase\n",
		r.NoBlockage.MaxIAT, r.Blockage.MaxIAT, r.IATIncrease)
	return b.String()
}

// SaveCSV writes both IAT series.
func (r *Fig13Result) SaveCSV(dir string) error {
	if err := export.SaveCSV(dir+"/fig13a_iat.csv", r.NoBlockage.IAT); err != nil {
		return err
	}
	return export.SaveCSV(dir+"/fig13b_iat.csv", r.Blockage.IAT)
}

// Fig14Result carries the detector-comparison result of Figure 14.
type Fig14Result struct {
	Config  Fig13Config
	Results map[mmwave.DetectorKind]mmwave.Result
	// OrderingHolds verifies the paper's claim: P4 < throughput < RSSI
	// in both detection latency and outage duration.
	OrderingHolds bool
}

// RunFig14 races the three detectors under the same blockage.
func RunFig14(cfg Fig13Config) *Fig14Result {
	cfg = cfg.withDefaults()
	all := mmwave.CompareAll(cfg.mmwave())
	res := &Fig14Result{Config: cfg, Results: all}
	p4 := all[mmwave.DetectorP4IAT]
	tp := all[mmwave.DetectorThroughput]
	rs := all[mmwave.DetectorRSSI]
	res.OrderingHolds = p4.DetectionLatency < tp.DetectionLatency &&
		tp.DetectionLatency < rs.DetectionLatency &&
		p4.OutageDuration < tp.OutageDuration &&
		tp.OutageDuration < rs.OutageDuration
	return res
}

// Render draws the Figure 14 throughput curves and the summary table.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	kinds := []mmwave.DetectorKind{mmwave.DetectorP4IAT, mmwave.DetectorThroughput, mmwave.DetectorRSSI}
	b.WriteString(export.Chart("Figure 14: throughput during 2s blockage (bps)", 72, 12,
		r.Results[kinds[0]].Throughput,
		r.Results[kinds[1]].Throughput,
		r.Results[kinds[2]].Throughput,
	))
	b.WriteByte('\n')
	rows := [][]string{}
	for _, k := range kinds {
		res := r.Results[k]
		rows = append(rows, []string{
			k.String(),
			res.DetectionLatency.String(),
			res.OutageDuration.String(),
			fmt.Sprintf("%d/%d", res.Delivered, res.Offered),
		})
	}
	b.WriteString(export.Table([]string{"system", "detection latency", "outage", "delivered/offered"}, rows))
	fmt.Fprintf(&b, "ordering P4 < throughput < RSSI holds: %v\n", r.OrderingHolds)
	return b.String()
}

// SaveCSV writes the three throughput curves.
func (r *Fig14Result) SaveCSV(dir string) error {
	return export.SaveCSV(dir+"/fig14_throughput.csv",
		r.Results[mmwave.DetectorP4IAT].Throughput,
		r.Results[mmwave.DetectorThroughput].Throughput,
		r.Results[mmwave.DetectorRSSI].Throughput,
	)
}
