package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// Fig12Config parameterises the limitation-identification use case of
// §5.4.2. Three tests run concurrently:
//
//   - DTN1: the network is the bottleneck (0.01% random loss on its
//     path) — fluctuating throughput, verdict "network";
//   - DTN2: the receiver is the bottleneck (small TCP buffer) — steady
//     ~250 Mbps, verdict "sender/receiver";
//   - DTN3: the sender is the bottleneck (500 Mbps pacing) — steady
//     500 Mbps, verdict "sender/receiver".
type Fig12Config struct {
	Scale Scale
	// Duration of the run; default 40 s.
	Duration simtime.Time
	Seed     uint64
}

// The three limits. The endpoint rates are at paper scale; Scale.Rate
// scales them where they are used.
const (
	// dtn1LossRate is the random loss on DTN1's path (0.01%).
	dtn1LossRate = 0.0001
	// receiverCapBps is DTN2's intended ceiling, converted to a
	// receive-buffer size via its RTT.
	receiverCapBps = 250e6
	// senderPaceBps is DTN3's pacing rate.
	senderPaceBps = 500e6
)

func (c Fig12Config) withDefaults() Fig12Config {
	if c.Scale.Factor == 0 {
		c.Scale = Fast()
	}
	if c.Duration <= 0 {
		c.Duration = 40 * simtime.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Fig12Result carries the Figure 12 panel and the verdicts.
type Fig12Result struct {
	Config     Fig12Config
	System     *core.System
	Throughput map[string]*metrics.Series
	// Verdicts maps destination address to the P4 system's latest
	// limitation classification.
	Verdicts map[string]string
	// Expected maps destination address to the ground-truth verdict.
	Expected map[string]string
	// SteadyMean and SteadyCV summarise each flow's post-ramp
	// throughput (mean and coefficient of variation) — DTN2/3 steady,
	// DTN1 fluctuating.
	SteadyMean map[string]float64
	SteadyCV   map[string]float64
}

// RunFig12 executes the experiment.
func RunFig12(cfg Fig12Config) *Fig12Result {
	cfg = cfg.withDefaults()
	sys := core.NewSystem(core.Options{
		BottleneckBps: cfg.Scale.Bottleneck(),
		RTTs:          RTTs(),
		Seed:          cfg.Seed,
		Shards:        cfg.Scale.Shards,
	})
	// DTN1's path impairment: random loss on its access link.
	sys.ExternalAccessLinks[0].LossRate = dtn1LossRate
	sys.Start()

	sender := tcp.Config{MSS: cfg.Scale.MSS}

	// DTN1: network-limited by loss.
	sys.TransferToExternal(0, 0, 0, cfg.Duration, sender, tcp.Config{})

	// DTN2: receiver-limited. Buffer = cap * RTT2.
	rtt2 := RTTs()[1]
	rcvBuf := int(cfg.Scale.Rate(receiverCapBps) * rtt2.Seconds() / 8)
	sys.TransferToExternal(1, 0, 0, cfg.Duration, sender, tcp.Config{RcvBufBytes: rcvBuf})

	// DTN3: sender-limited by pacing.
	paced := sender
	paced.PacingBps = cfg.Scale.Rate(senderPaceBps)
	sys.TransferToExternal(2, 0, 0, cfg.Duration, paced, tcp.Config{})

	sys.Run(cfg.Duration)

	res := &Fig12Result{
		Config:     cfg,
		System:     sys,
		Throughput: sys.SeriesByDestination(controlplane.MetricThroughput),
		Verdicts:   dominantVerdicts(sys, cfg.Duration/2),
		Expected: map[string]string{
			sys.ExternalDTNs[0].IP().String(): controlplane.LimitedByNetwork,
			sys.ExternalDTNs[1].IP().String(): controlplane.LimitedByEndpoint,
			sys.ExternalDTNs[2].IP().String(): controlplane.LimitedByEndpoint,
		},
		SteadyMean: map[string]float64{},
		SteadyCV:   map[string]float64{},
	}

	// Steady-state stats over the second half of the run.
	for dst, ser := range res.Throughput {
		pts := ser.Between(cfg.Duration/2, cfg.Duration+simtime.Nanosecond)
		if len(pts) == 0 {
			continue
		}
		var sum float64
		for _, p := range pts {
			sum += p.V
		}
		mean := sum / float64(len(pts))
		var varsum float64
		for _, p := range pts {
			d := p.V - mean
			varsum += d * d
		}
		res.SteadyMean[dst] = mean
		if mean > 0 {
			res.SteadyCV[dst] = math.Sqrt(varsum/float64(len(pts))) / mean
		}
	}
	return res
}

// dominantVerdicts tallies the limitation reports from `from` onward
// and returns the most frequent verdict per destination — individual
// windows are noisy (a window may see no loss on a lossy path), but
// the steady-state majority is the operator-facing answer.
func dominantVerdicts(sys *core.System, from simtime.Time) map[string]string {
	counts := map[string]map[string]int{}
	for _, r := range sys.Archived(controlplane.KindLimitation, nil) {
		if r.Time() < from || !core.IsExternal(r.DstIP) {
			continue
		}
		if counts[r.DstIP] == nil {
			counts[r.DstIP] = map[string]int{}
		}
		counts[r.DstIP][r.Limitation]++
	}
	out := map[string]string{}
	for dst, m := range counts {
		best, bestN := "", -1
		for v, n := range m {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		out[dst] = best
	}
	return out
}

// Correct reports whether every verdict matches the ground truth.
func (r *Fig12Result) Correct() bool {
	for dst, want := range r.Expected {
		if r.Verdicts[dst] != want {
			return false
		}
	}
	return true
}

// Render draws the Figure 12 panel and the verdict table.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	var list []*metrics.Series
	for _, k := range sortedKeys(r.Throughput) {
		list = append(list, r.Throughput[k])
	}
	b.WriteString(export.Chart("Figure 12: throughput by destination (bps)", 72, 12, list...))
	b.WriteByte('\n')
	rows := [][]string{}
	for _, dst := range sortedKeys(r.Expected) {
		rows = append(rows, []string{
			dst,
			fmt.Sprintf("%.1f Mbps", r.SteadyMean[dst]/1e6),
			fmt.Sprintf("%.3f", r.SteadyCV[dst]),
			r.Verdicts[dst],
			r.Expected[dst],
		})
	}
	b.WriteString(export.Table(
		[]string{"destination", "steady mean", "cv", "P4 verdict", "ground truth"}, rows))
	fmt.Fprintf(&b, "all verdicts correct: %v\n", r.Correct())
	return b.String()
}

// SaveCSV writes the throughput panel to dir.
func (r *Fig12Result) SaveCSV(dir string) error {
	var list []*metrics.Series
	for _, k := range sortedKeys(r.Throughput) {
		list = append(list, r.Throughput[k])
	}
	if len(list) == 0 {
		return nil
	}
	return export.SaveCSV(dir+"/fig12_throughput.csv", list...)
}
