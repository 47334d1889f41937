// Package p4psonar is the public facade of the P4-perfSONAR
// reproduction: it re-exports the assembled system (topology + TAPs +
// P4 data plane + control plane + perfSONAR archiver) and the
// experiment drivers for the paper's figures.
//
// Quick start:
//
//	sys := p4psonar.NewSystem(p4psonar.Options{})
//	sys.Start()
//	sys.TransferToExternal(0, 0, 0, 10*p4psonar.Second, p4psonar.SenderConfig{MSS: 8960}, p4psonar.ReceiverConfig{})
//	sys.Run(12 * p4psonar.Second)
//	for dst, series := range sys.SeriesByDestination(p4psonar.MetricThroughput) {
//		fmt.Println(dst, series.Mean())
//	}
package p4psonar

import (
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mmwave"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// System assembly.
type (
	// System is the full testbed plus measurement chain (Figure 4).
	System = core.System
	// Options configures the testbed; zero values select the paper's
	// parameters (10 Gbps bottleneck, 50/75/100 ms RTTs, 1-BDP buffer).
	Options = core.Options
	// SenderConfig tunes a transfer's sending endpoint: MSS and
	// pacing. Congestion control is CUBIC, as on the testbed's DTNs.
	SenderConfig = tcp.Config
	// ReceiverConfig tunes a transfer's receiving endpoint: its
	// receive buffer (the advertised window).
	ReceiverConfig = tcp.Config
)

// NewSystem builds the testbed.
func NewSystem(opts Options) *System { return core.NewSystem(opts) }

// BDPBytes computes a bandwidth-delay product in bytes.
func BDPBytes(bps float64, rtt Time) int { return core.BDPBytes(bps, rtt) }

// Virtual time.
type Time = simtime.Time

// Time units.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// Metrics and reports.
type (
	// Metric names one of the four monitored quantities.
	Metric = controlplane.Metric
	// Report is the structured record the control plane emits.
	Report = controlplane.Report
)

// The four configurable metrics of Figure 5(a).
const (
	MetricThroughput     = controlplane.MetricThroughput
	MetricPacketLoss     = controlplane.MetricPacketLoss
	MetricRTT            = controlplane.MetricRTT
	MetricQueueOccupancy = controlplane.MetricQueueOccupancy
)

// KindAlert is the kind of the control plane's threshold alerts, for
// System.Archived.
const KindAlert = controlplane.KindAlert

// Limitation verdicts (§4.4).
const (
	LimitedByNetwork  = controlplane.LimitedByNetwork
	LimitedByEndpoint = controlplane.LimitedByEndpoint
)

// Experiments: one entry point per figure.
type (
	// Scale selects paper-scale or fast-scale experiment runs.
	Scale = experiments.Scale
)

// Experiment configurations and results.
type (
	Fig12Config = experiments.Fig12Config
	Fig12Result = experiments.Fig12Result
	Fig13Config = experiments.Fig13Config
	Fig13Result = experiments.Fig13Result
	Fig14Result = experiments.Fig14Result
)

// RunFig12 regenerates Figure 12.
func RunFig12(cfg Fig12Config) *Fig12Result { return experiments.RunFig12(cfg) }

// RunFig13 regenerates Figure 13.
func RunFig13(cfg Fig13Config) *Fig13Result { return experiments.RunFig13(cfg) }

// RunFig14 regenerates Figure 14.
func RunFig14(cfg Fig13Config) *Fig14Result { return experiments.RunFig14(cfg) }

// mmWave blockage use case (§5.4.3).
type (
	// BlockageDetector selects a detection design for the mmWave use
	// case.
	BlockageDetector = mmwave.DetectorKind
	// BlockageResult reports one blockage scenario run.
	BlockageResult = mmwave.Result
)

// Blockage detector kinds.
const (
	DetectorP4IAT      = mmwave.DetectorP4IAT
	DetectorThroughput = mmwave.DetectorThroughput
	DetectorRSSI       = mmwave.DetectorRSSI
)
