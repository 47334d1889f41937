package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dataplane"
	"repro/internal/oracle"
	"repro/internal/packet"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/sketch"
)

// This file implements the accuracy-vs-memory scale sweep for the
// two-tier telemetry design (DESIGN.md §5.8): the exact register tier
// holds a fixed 2048-cell flow table while the lean sketch tier
// absorbs every non-admitted and evicted flow in O(1/ε · ln 1/δ)
// memory. The sweep replays synthetic workloads from 10⁴ up to 10⁶
// concurrent flows through the batch front-end and checks, per sweep
// point, that the implementation delivers exactly what the analysis
// promises: admitted (heavy-hitter) flows read back bit-exact,
// sketch-tier estimates never undercount and overcount within the
// ⌈ε·N⌉ bound at the configured confidence, and eviction folds lose
// no history.

// ScaleSweepConfig parameterises the sweep.
type ScaleSweepConfig struct {
	Scale Scale
	// FlowCounts are the concurrent-flow populations to sweep. Default
	// {10k, 50k, 200k} at fast scale, {10k, 100k, 1M} at paper scale.
	FlowCounts []int
	// PacketsPerFlow is the average number of TAP records per flow
	// (the Synth round-robins records, so data, ACK and egress copies
	// all count). Default 32.
	PacketsPerFlow int
	// Shards is the pipe count (0/1 = single pipe).
	Shards int
	// Seed picks the flow numbering (synthSource): each seed replays
	// its own population.
	Seed uint64
}

func (c ScaleSweepConfig) withDefaults() ScaleSweepConfig {
	if c.Scale.Factor == 0 {
		c.Scale = Fast()
	}
	if len(c.FlowCounts) == 0 {
		if c.Scale.Name == "paper" {
			c.FlowCounts = []int{10_000, 100_000, 1_000_000}
		} else {
			c.FlowCounts = []int{10_000, 50_000, 200_000}
		}
	}
	if c.PacketsPerFlow <= 0 {
		c.PacketsPerFlow = 32
	}
	return c
}

// The sweep's fixed design point.
const (
	// sweepFlowTableSize is the exact tier's cell count: the paper's
	// table, deliberately orders of magnitude below the flow population
	// so the sketch tier carries the load.
	sweepFlowTableSize = 2048
	// sweepEpsilon is the lean tier's ε; sweepDelta is the δ the
	// sketch package always builds for.
	sweepEpsilon = 1e-4
	sweepDelta   = 0.01
	// sweepRetransEvery rewinds each flow's sequence cursor every N
	// data segments, producing ground-truth loss events.
	sweepRetransEvery = 7
)

// ScalePoint is one sweep point's outcome.
type ScalePoint struct {
	// Flows and Packets describe the workload.
	Flows, Packets int
	// PPS and Gbps are the batch path's measured replay rates.
	PPS, Gbps float64
	// Admitted and Sketched split the audited flows, every data flow
	// of the point, by tier.
	Admitted, Sketched int
	// ExactLoss and SketchLoss are the loss the two tiers report for
	// the flows each holds; OracleLoss is the true total.
	ExactLoss, SketchLoss, OracleLoss uint64
	// AliasedPackets and Evictions are the pipeline's merged counters
	// after the run (evictions from the post-run aging sweep).
	AliasedPackets, Evictions uint64
	// ExactMemBytes and LeanMemBytes are the two tiers' storage
	// footprints; BytesPerFlow divides their sum by the flow count.
	ExactMemBytes, LeanMemBytes uint64
	BytesPerFlow                float64
	// PktsBound and BytesBound are the sketches' analytical ⌈ε·N⌉
	// overcount caps at the end of the run; MaxPktsErr and MaxBytesErr
	// the largest overcounts actually observed on sketch-tier flows.
	PktsBound, BytesBound   uint64
	MaxPktsErr, MaxBytesErr uint64

	// Audit failures. A correct implementation keeps Undercounts,
	// ExactMismatches and FoldErrors at zero always, and
	// BoundViolations within the (ε, δ) allowance.
	Undercounts     int // estimate below ground truth (violates CMS never-undercount)
	ExactMismatches int // admitted flow whose exact counters differ from truth
	BoundViolations int // sketch query overcounting beyond bound + dup-FP allowance
	FoldErrors      int // evicted flow whose estimate no longer covers its history
	// BoundAllowance is the violation budget: with δ per query and
	// three audited queries per sketch-tier flow, a handful of
	// excursions is expected noise, not a defect.
	BoundAllowance int
}

// Pass reports whether the point met every analytical guarantee.
func (p ScalePoint) Pass() bool {
	return p.Undercounts == 0 && p.ExactMismatches == 0 &&
		p.FoldErrors == 0 && p.BoundViolations <= p.BoundAllowance
}

// ScaleSweepResult is the whole sweep.
type ScaleSweepResult struct {
	Config ScaleSweepConfig
	Points []ScalePoint
}

// Pass reports whether every point passed.
func (r *ScaleSweepResult) Pass() bool {
	for _, p := range r.Points {
		if !p.Pass() {
			return false
		}
	}
	return len(r.Points) > 0
}

// synthSource builds the sweep point's workload. One constructor keeps
// the measured run and the oracle's pass byte-identical. Seed k numbers
// the flows from k·flows, modulo the numbers Synth can address, so two
// seeds replay disjoint populations.
func (c ScaleSweepConfig) synthSource(flows int) *replay.Synth {
	return &replay.Synth{
		Flows:        flows,
		Packets:      flows * c.PacketsPerFlow,
		MSS:          c.Scale.MSS,
		RetransEvery: sweepRetransEvery,
		FlowBase:     int(c.Seed%uint64(replay.SynthFlowNumbers/flows)) * flows,
	}
}

// RunScaleSweep replays each flow population through a fresh pipeline
// and audits the two-tier guarantees of every flow against the oracle.
func RunScaleSweep(cfg ScaleSweepConfig) *ScaleSweepResult {
	cfg = cfg.withDefaults()
	res := &ScaleSweepResult{Config: cfg}
	for _, flows := range cfg.FlowCounts {
		res.Points = append(res.Points, runScalePoint(cfg, flows))
	}
	return res
}

func runScalePoint(cfg ScaleSweepConfig, flows int) ScalePoint {
	packets := flows * cfg.PacketsPerFlow
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	plane := dataplane.NewPipes(dataplane.Config{
		FlowTableSize: sweepFlowTableSize,
		// The announce latch would exempt cells from aging; at sweep
		// densities the long-flow CMS saturates, so disable it and let
		// the post-run aging sweep evict every cell.
		LongFlowBytes:    1 << 62,
		SketchEpsilon:    sweepEpsilon,
		DupFilterInserts: packets,
	}, shards)

	// Measured run: the full stream through the batch path.
	run := replay.Runner{Plane: plane}.Run(cfg.synthSource(flows)) //p4:lint-exempt determinism: Runner's wall clock only stamps Result.Elapsed (the PPS/Gbps figures); every audited quantity is counter state

	// Ground truth: the oracle is shown the identical stream after the
	// measured run, so its cost stays out of the Mpps column.
	truth := oracle.New()
	var (
		rec replay.Record
		pkt packet.Packet
	)
	for src := cfg.synthSource(flows); src.Next(&rec); {
		truth.Observe(rec.CopyInto(&pkt))
	}

	pt := ScalePoint{
		Flows:   flows,
		Packets: packets,
		PPS:     run.PPS(),
		Gbps:    run.Gbps(),
	}

	// Audit pass 1, pre-eviction: tier split, exactness, bounds. The
	// shards are read directly here: Runner.Run ended on Flush and a
	// merged StatsSnapshot and nothing was ingested since, so no replay
	// is in flight (dataplane.Pipes.Shard).
	dupFP := 0.0
	for i := 0; i < shards; i++ {
		if r := plane.Shard(i).Lean().DupFPRate(); r > dupFP {
			dupFP = r
		}
	}
	var admitted []packet.FiveTuple
	for _, ft := range truth.DataFlows() {
		t, est := truth.Flow(ft), plane.EstimateFlow(dataplane.KeyOf(ft))
		if est.Admitted {
			pt.Admitted++
			pt.ExactLoss += est.ExactLoss
			admitted = append(admitted, ft)
			if est.ExactBytes != t.Bytes || est.ExactPkts != t.Pkts || est.ExactLoss != t.PktLoss {
				pt.ExactMismatches++
			}
			continue
		}
		pt.Sketched++
		pt.SketchLoss += est.Loss
		// The sketches never undercount, and loss could only if the dup
		// filter missed a duplicate, which it cannot.
		if est.Bytes < t.Bytes || est.Pkts < t.Pkts || est.Loss < t.PktLoss {
			pt.Undercounts++
			continue // the overcount math below assumes est >= truth
		}
		if e := est.Bytes - t.Bytes; e > pt.MaxBytesErr {
			pt.MaxBytesErr = e
		}
		if e := est.Pkts - t.Pkts; e > pt.MaxPktsErr {
			pt.MaxPktsErr = e
		}
		if est.Bytes-t.Bytes > est.BytesBound {
			pt.BoundViolations++
		}
		if est.Pkts-t.Pkts > est.PktsBound {
			pt.BoundViolations++
		}
		// Loss additionally tolerates the dup filter's spurious
		// positives at its analytical rate over this flow's tests (at
		// most one per packet).
		fpAllow := uint64(math.Ceil(dupFP*float64(t.Pkts))) + 1
		if est.Loss-t.PktLoss > est.LossBound+fpAllow {
			pt.BoundViolations++
		}
		pt.PktsBound, pt.BytesBound = est.PktsBound, est.BytesBound
	}
	pt.OracleLoss = truth.Loss()
	// δ per query, three audited bound queries per sketch-tier flow;
	// triple the expectation before calling noise a defect. delta is a
	// variable so each product rounds in float64; a constant expression
	// would fold 3·δ·3 exactly and could move the ceiling.
	delta := sweepDelta
	pt.BoundAllowance = int(math.Ceil(3*delta*3*float64(pt.Sketched))) + 1

	pt.ExactMemBytes = plane.FlowTableMemoryBytes()
	pt.LeanMemBytes = plane.LeanMemoryBytes()
	pt.BytesPerFlow = float64(pt.ExactMemBytes+pt.LeanMemBytes) / float64(flows)

	// Audit pass 2: age every cell out (idle beyond the window) and
	// verify the folds kept each admitted flow's history queryable. An
	// hour past the start is past every stamp yet well inside the 48-bit
	// stamps' horizon, where a far-future now would wrap.
	plane.AgeFlows(3600*simtime.Second, simtime.Second)
	for _, ft := range admitted {
		t := truth.Flow(ft)
		est := plane.EstimateFlow(dataplane.KeyOf(ft))
		if est.Admitted || est.Bytes < t.Bytes || est.Pkts < t.Pkts || est.Loss < t.PktLoss {
			pt.FoldErrors++
		}
	}
	snap := plane.StatsSnapshot()
	pt.AliasedPackets = snap.AliasedPackets
	pt.Evictions = snap.Evictions
	return pt
}

// Render draws the sweep as a fixed-width table plus verdict lines.
func (r *ScaleSweepResult) Render() string {
	var b strings.Builder
	g := sketch.GeometryFor(sweepEpsilon, sweepDelta)
	fmt.Fprintf(&b, "two-tier scale sweep: %d-cell exact tier + %dx%d sketch rows (ε=%.1e δ=%.2f)\n\n",
		sweepFlowTableSize, g.Depth, g.Width, g.Epsilon, g.Delta)
	fmt.Fprintf(&b, "%10s %10s %8s %7s %9s %9s %8s %11s %11s %6s\n",
		"flows", "packets", "Mpps", "Gbps", "exactMem", "leanMem", "B/flow", "maxPktsErr", "pktsBound", "pass")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %10d %8.2f %7.2f %8.1fM %8.1fM %8.1f %11d %11d %6v\n",
			p.Flows, p.Packets, p.PPS/1e6, p.Gbps,
			float64(p.ExactMemBytes)/1e6, float64(p.LeanMemBytes)/1e6,
			p.BytesPerFlow, p.MaxPktsErr, p.PktsBound, p.Pass())
	}
	b.WriteByte('\n')
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d flows: %d/%d admitted exact, %d sketched; loss exact=%d sketch=%d oracle=%d; aliased=%d evicted=%d undercnt=%d exactmis=%d boundviol=%d/%d fold=%d\n",
			p.Flows, p.Admitted, p.Admitted+p.Sketched, p.Sketched,
			p.ExactLoss, p.SketchLoss, p.OracleLoss,
			p.AliasedPackets, p.Evictions,
			p.Undercounts, p.ExactMismatches, p.BoundViolations, p.BoundAllowance, p.FoldErrors)
	}
	fmt.Fprintf(&b, "\nall analytical guarantees held: %v\n", r.Pass())
	return b.String()
}
