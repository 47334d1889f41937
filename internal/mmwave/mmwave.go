// Package mmwave reproduces the paper's §5.4.3 use case: detecting
// throughput degradation caused by line-of-sight (LOS) blockage on
// 60 GHz mmWave links in data centers, following Mazloum et al. [26].
// A constant-bit-rate flow crosses a mmWave link that a blockage
// severs for a fixed window; three detector designs race to notice and
// fail traffic over to a backup path:
//
//   - the P4-based detector watches per-packet inter-arrival times in
//     the data plane (Figure 13's signal) and reacts within an IAT
//     threshold;
//   - the throughput-based detector is a controller polling byte
//     counters on an interval;
//   - the RSSI-based detector mimics off-the-shelf devices that
//     average received signal strength and apply hysteresis before
//     declaring the beam lost.
//
// Figure 14's result — P4 reacts before throughput even degrades,
// throughput-polling next, RSSI last — falls out of the three
// reaction mechanisms.
package mmwave

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// DetectorKind selects the blockage-detection design.
type DetectorKind int

// The three systems Figure 14 compares.
const (
	DetectorNone       DetectorKind = iota // no detector: Figure 13 observation runs
	DetectorP4IAT                          // P4 data plane watching inter-arrival times
	DetectorThroughput                     // controller polling throughput
	DetectorRSSI                           // device-level RSSI with averaging + hysteresis
)

// String names the detector variant for report and chart labels.
func (k DetectorKind) String() string {
	switch k {
	case DetectorP4IAT:
		return "p4-iat"
	case DetectorThroughput:
		return "throughput"
	case DetectorRSSI:
		return "rssi"
	default:
		return "none"
	}
}

// Config parameterises a blockage scenario.
type Config struct {
	// RateBps is the CBR offered load; default 1 Gbps (multi-Gbps
	// point-to-point mmWave). The mmWave and backup links run at twice
	// this rate.
	RateBps float64
	// Duration is the total run; default 14 s (Figure 13 plots ~14 s).
	Duration simtime.Time
	// BlockageStart and BlockageDuration define the LOS loss window;
	// defaults t=7 s and 2 s (Figures 13 and 14).
	BlockageStart    simtime.Time
	BlockageDuration simtime.Time
}

// pktPayload is the CBR flow's payload per packet in bytes.
const pktPayload = 1400

// Detector tuning.
const (
	iatThreshold  = simtime.Millisecond       // P4 watchdog
	pollInterval  = 100 * simtime.Millisecond // throughput controller
	rssiWindow    = simtime.Second            // averaging+hysteresis
	rssiSample    = 10 * simtime.Millisecond  // RSSI sampling period
	throughputCut = 0.5                       // degradation fraction that triggers
)

func (c Config) withDefaults() Config {
	if c.RateBps <= 0 {
		c.RateBps = netsim.Gbps(1)
	}
	if c.Duration <= 0 {
		c.Duration = 14 * simtime.Second
	}
	if c.BlockageStart <= 0 {
		c.BlockageStart = 7 * simtime.Second
	}
	if c.BlockageDuration <= 0 {
		c.BlockageDuration = 2 * simtime.Second
	}
	return c
}

// Result reports one scenario run.
type Result struct {
	// Detector identifies the system under test.
	Detector DetectorKind
	// DetectedAt is when the detector declared blockage (0 = never).
	DetectedAt simtime.Time
	// DetectionLatency = DetectedAt - BlockageStart.
	DetectionLatency simtime.Time
	// RecoveredAt is when delivered throughput climbed back above 90%
	// of the offered rate after the blockage began (0 = never).
	RecoveredAt simtime.Time
	// OutageDuration = RecoveredAt - BlockageStart: the Figure 14
	// "recovery speed".
	OutageDuration simtime.Time
	// Throughput is the delivered rate in 50 ms bins (Figure 14 curve).
	Throughput *metrics.Series
	// IAT is the per-packet inter-arrival series, subsampled (Figure 13
	// curve).
	IAT *metrics.Series
	// MaxIAT is the largest observed inter-arrival gap.
	MaxIAT simtime.Time
	// Delivered and Offered count packets.
	Delivered, Offered uint64
}

// rssiLOS and rssiBlocked model received signal strength in dBm.
const (
	rssiLOS     = -45.0
	rssiBlocked = -85.0
	rssiCut     = -75.0
)

// Run executes one blockage scenario with the chosen detector.
func Run(kind DetectorKind, cfg Config) Result {
	cfg = cfg.withDefaults()
	e := simtime.NewEngine()

	res := Result{Detector: kind}
	res.Throughput = metrics.NewSeries("throughput-" + kind.String())
	res.IAT = metrics.NewSeries("iat-" + kind.String())

	// Receiver: counts arrivals, tracks IAT.
	var lastArrival simtime.Time
	var binBytes uint64
	handedOver := false

	rx := &netsim.Sink{Label: "rx"}

	// Paths: primary (mmWave, blockable) and backup.
	linkBps := 2 * cfg.RateBps
	primary := netsim.NewLink(e, "mmwave", rx, linkBps, 5*simtime.Microsecond, simtime.NewRNG(1))
	backup := netsim.NewLink(e, "backup", rx, linkBps, 20*simtime.Microsecond, simtime.NewRNG(2))

	// Watchdog for the P4 IAT detector.
	var watchdogGen uint64
	triggerHandover := func(at simtime.Time) {
		if handedOver {
			return
		}
		handedOver = true
		res.DetectedAt = at
		res.DetectionLatency = at - cfg.BlockageStart
	}
	armWatchdog := func() {
		if kind != DetectorP4IAT || handedOver {
			return
		}
		watchdogGen++
		gen := watchdogGen
		e.Schedule(iatThreshold, func() {
			if gen == watchdogGen && !handedOver {
				triggerHandover(e.Now())
			}
		})
	}

	rx.OnPacket = func(p *packet.Packet) {
		now := e.Now()
		if lastArrival != 0 {
			iat := now - lastArrival
			if iat > res.MaxIAT {
				res.MaxIAT = iat
			}
			// Subsample the IAT series to keep figures tractable: every
			// 256th packet, plus every abnormal gap.
			if rx.Packets%256 == 0 || iat > 10*iatThreshold {
				res.IAT.Append(now, iat.Seconds()*1e6) // microseconds
			}
		}
		lastArrival = now
		binBytes += uint64(p.WireLen())
		armWatchdog()
	}

	// CBR source: one packet every gap, steered by handedOver.
	ft := packet.FiveTuple{
		SrcIP:   packet.MustAddr("10.1.0.1"),
		DstIP:   packet.MustAddr("10.1.0.2"),
		SrcPort: 7000,
		DstPort: 7001,
		Proto:   packet.ProtoUDP,
	}
	wire := pktPayload + packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen
	gap := simtime.Time(float64(wire*8) / cfg.RateBps * 1e9)
	var send func()
	send = func() {
		if e.Now() >= cfg.Duration {
			return
		}
		p := packet.NewUDP(ft, pktPayload)
		res.Offered++
		if handedOver {
			backup.Send(p)
		} else {
			primary.Send(p)
		}
		e.Schedule(gap, send)
	}
	e.Schedule(0, send)

	// Blockage window.
	e.At(cfg.BlockageStart, func() { primary.Down = true })
	e.At(cfg.BlockageStart+cfg.BlockageDuration, func() { primary.Down = false })

	// Throughput-based controller.
	if kind == DetectorThroughput {
		var prev uint64
		simtime.NewTicker(e, pollInterval, pollInterval, func(now simtime.Time) {
			delta := rx.Bytes - prev
			prev = rx.Bytes
			rate := float64(delta*8) / pollInterval.Seconds()
			if now > pollInterval && rate < throughputCut*cfg.RateBps {
				triggerHandover(now)
			}
		})
	}

	// RSSI-based device logic: EWMA of sampled RSSI with a hysteresis
	// window — the device waits for the averaged signal to stay below
	// the cut for the whole window before declaring the beam lost.
	if kind == DetectorRSSI {
		ewma := rssiLOS
		belowSince := simtime.Time(-1)
		rng := simtime.NewRNG(99)
		simtime.NewTicker(e, rssiSample, rssiSample, func(now simtime.Time) {
			raw := rssiLOS
			if now >= cfg.BlockageStart && now < cfg.BlockageStart+cfg.BlockageDuration {
				raw = rssiBlocked
			}
			raw += (rng.Float64() - 0.5) * 4 // ±2 dB noise
			ewma = 0.8*ewma + 0.2*raw
			if ewma < rssiCut {
				if belowSince < 0 {
					belowSince = now
				} else if now-belowSince >= rssiWindow {
					triggerHandover(now)
				}
			} else {
				belowSince = -1
			}
		})
	}

	// Throughput bins (50 ms) and recovery detection.
	const bin = 50 * simtime.Millisecond
	simtime.NewTicker(e, bin, bin, func(now simtime.Time) {
		rate := float64(binBytes*8) / bin.Seconds()
		binBytes = 0
		res.Throughput.Append(now, rate)
		if res.RecoveredAt == 0 && now > cfg.BlockageStart && rate >= 0.9*cfg.RateBps {
			res.RecoveredAt = now
			res.OutageDuration = now - cfg.BlockageStart
		}
	})

	e.Run(cfg.Duration)
	res.Delivered = rx.Packets
	return res
}

// CompareAll runs the three detectors plus the no-detector observation
// under identical conditions — the full Figure 13 + 14 experiment.
func CompareAll(cfg Config) map[DetectorKind]Result {
	out := make(map[DetectorKind]Result, 4)
	for _, k := range []DetectorKind{DetectorNone, DetectorP4IAT, DetectorThroughput, DetectorRSSI} {
		out[k] = Run(k, cfg)
	}
	return out
}

// Describe renders a result line for the experiment console.
func (r Result) Describe() string {
	det := "never"
	if r.DetectedAt > 0 {
		det = fmt.Sprintf("+%v", r.DetectionLatency)
	}
	rec := "never"
	if r.RecoveredAt > 0 {
		rec = fmt.Sprintf("+%v", r.OutageDuration)
	}
	return fmt.Sprintf("%-11s detected %s, throughput recovered %s, maxIAT %v",
		r.Detector, det, rec, r.MaxIAT)
}
