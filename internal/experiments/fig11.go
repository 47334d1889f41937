package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// Fig11Config parameterises the small-buffer microburst use case of
// §5.4.1: three 100 ms-RTT flows share a bottleneck whose buffer is
// BDP/4; an injected microburst bloats the queue, causing losses and a
// multi-second throughput collapse.
type Fig11Config struct {
	Scale Scale
	// Duration of the run; default 60 s.
	Duration simtime.Time
	// BurstAt is the microburst injection time; default 20 s.
	BurstAt simtime.Time
	Seed    uint64
}

func (c Fig11Config) withDefaults() Fig11Config {
	if c.Scale.Factor == 0 {
		c.Scale = Fast()
	}
	if c.Duration <= 0 {
		c.Duration = 60 * simtime.Second
	}
	if c.BurstAt <= 0 {
		c.BurstAt = 20 * simtime.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Fig11Result carries the Figure 11 panels.
type Fig11Result struct {
	Config      Fig11Config
	BufferBytes int

	QueueOcc   map[string]*metrics.Series
	Loss       map[string]*metrics.Series
	Throughput map[string]*metrics.Series

	// Microbursts detected by the data plane, with nanosecond times.
	Bursts []controlplane.Report

	// Shape diagnostics (§5.4.1's observations).
	MaxLossPct      float64      // worst per-window loss percentage
	FlowsOver005    int          // flows whose loss crossed 0.05%
	FlowsOver015    int          // flows whose loss crossed 0.15%
	RecoveryTime    simtime.Time // aggregate throughput back to 90% of pre-burst
	PreBurstAggBps  float64
	PostBurstDipBps float64
}

// RunFig11 executes the experiment.
func RunFig11(cfg Fig11Config) *Fig11Result {
	cfg = cfg.withDefaults()
	// All three paths at 100 ms RTT (§5.4.1), buffer BDP/4.
	rtts := [3]simtime.Time{100 * simtime.Millisecond, 100 * simtime.Millisecond, 100 * simtime.Millisecond}
	buffer := core.BDPBytes(cfg.Scale.Bottleneck(), 100*simtime.Millisecond) / 4
	sys := core.NewSystem(core.Options{
		BottleneckBps: cfg.Scale.Bottleneck(),
		RTTs:          rtts,
		BufferBytes:   buffer,
		Seed:          cfg.Seed,
		Shards:        cfg.Scale.Shards,
	})
	sys.Start()

	sender := tcp.Config{MSS: cfg.Scale.MSS}
	for i := 0; i < 3; i++ {
		sys.TransferToExternal(i, 0, 0, cfg.Duration, sender, tcp.Config{})
	}
	// The burst fills half the buffer instantaneously: buffer/2 bytes
	// of MSS-payload UDP packets (42 B of headers each).
	sys.InjectMicroburst(0, cfg.BurstAt, buffer/2/(cfg.Scale.MSS+42), cfg.Scale.MSS)
	sys.Run(cfg.Duration)

	res := &Fig11Result{
		Config:      cfg,
		BufferBytes: buffer,
		QueueOcc:    sys.SeriesByDestination(controlplane.MetricQueueOccupancy),
		Loss:        sys.SeriesByDestination(controlplane.MetricPacketLoss),
		Throughput:  sys.SeriesByDestination(controlplane.MetricThroughput),
		Bursts:      sys.MicroburstReports(),
	}

	// Loss threshold crossings after the burst (the paper's 0.05% and
	// 0.15% observations).
	for _, ser := range res.Loss {
		var worst float64
		for _, p := range ser.Between(cfg.BurstAt, cfg.BurstAt+10*simtime.Second) {
			if p.V > worst {
				worst = p.V
			}
		}
		if worst > res.MaxLossPct {
			res.MaxLossPct = worst
		}
		if worst > 0.05 {
			res.FlowsOver005++
		}
		if worst > 0.15 {
			res.FlowsOver015++
		}
	}

	// Aggregate throughput recovery.
	agg := metrics.NewSeries("aggregate")
	type acc struct {
		sum float64
		n   int
	}
	byTime := map[simtime.Time]*acc{}
	var order []simtime.Time
	for _, ser := range res.Throughput {
		for _, p := range ser.Points {
			a, ok := byTime[p.T]
			if !ok {
				a = &acc{}
				byTime[p.T] = a
				order = append(order, p.T)
			}
			a.sum += p.V
		}
	}
	sortTimes(order)
	for _, t := range order {
		agg.Append(t, byTime[t].sum)
	}
	pre := agg.Between(cfg.BurstAt-5*simtime.Second, cfg.BurstAt)
	for _, p := range pre {
		res.PreBurstAggBps += p.V
	}
	if len(pre) > 0 {
		res.PreBurstAggBps /= float64(len(pre))
	}
	dip := res.PreBurstAggBps
	for _, p := range agg.Between(cfg.BurstAt, cfg.Duration+simtime.Nanosecond) {
		if p.V < dip {
			dip = p.V
		}
	}
	res.PostBurstDipBps = dip
	for _, p := range agg.Between(cfg.BurstAt+simtime.Second, cfg.Duration+simtime.Nanosecond) {
		if p.V >= 0.9*res.PreBurstAggBps {
			res.RecoveryTime = p.T - cfg.BurstAt
			break
		}
	}
	return res
}

func sortTimes(ts []simtime.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}

// Render draws the Figure 11 panels and summary.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	collect := func(m map[string]*metrics.Series) []*metrics.Series {
		var list []*metrics.Series
		for _, k := range sortedKeys(m) {
			list = append(list, m[k])
		}
		return list
	}
	b.WriteString(export.Chart("Figure 11: queue occupancy (%)", 72, 10, collect(r.QueueOcc)...))
	b.WriteByte('\n')
	b.WriteString(export.Chart("Figure 11: packet losses (%)", 72, 10, collect(r.Loss)...))
	b.WriteByte('\n')
	b.WriteString(export.Chart("Figure 11: throughput (bps)", 72, 10, collect(r.Throughput)...))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "buffer=BDP/4=%d bytes; microbursts detected: %d\n", r.BufferBytes, len(r.Bursts))
	// The first five bursts, then every one from the injection on: the
	// start-up excursions alone would hide the burst the run injects.
	skipped := 0
	for i, burst := range r.Bursts {
		if i >= 5 && simtime.Time(burst.TimeNs) < r.Config.BurstAt {
			skipped++
			continue
		}
		if skipped > 0 {
			fmt.Fprintf(&b, "  ... and %d more before the injected burst\n", skipped)
			skipped = 0
		}
		fmt.Fprintf(&b, "  burst at %v, duration %v, peak occupancy %.1f%%\n",
			simtime.Time(burst.TimeNs), simtime.Time(burst.DurationNs), burst.Value)
	}
	if skipped > 0 {
		fmt.Fprintf(&b, "  ... and %d more before the injected burst\n", skipped)
	}
	fmt.Fprintf(&b, "worst window loss %.3f%%; flows >0.05%%: %d; flows >0.15%%: %d; throughput recovery %v\n",
		r.MaxLossPct, r.FlowsOver005, r.FlowsOver015, r.RecoveryTime)
	return b.String()
}

// SaveCSV writes the panels to dir.
func (r *Fig11Result) SaveCSV(dir string) error {
	save := func(name string, m map[string]*metrics.Series) error {
		var list []*metrics.Series
		for _, k := range sortedKeys(m) {
			list = append(list, m[k])
		}
		if len(list) == 0 {
			return nil
		}
		return export.SaveCSV(dir+"/"+name+".csv", list...)
	}
	if err := save("fig11_queue_occupancy", r.QueueOcc); err != nil {
		return err
	}
	if err := save("fig11_loss", r.Loss); err != nil {
		return err
	}
	return save("fig11_throughput", r.Throughput)
}
