// Package pscheduler models the regular perfSONAR measurement machinery
// the paper compares against (Table 1): pScheduler runs *active* tests
// (iPerf3-style throughput, ping-style latency) between perfSONAR nodes
// on a schedule, and the stock Logstash configuration aggregates each
// test to coarse values — the average for throughput, min/mean/max for
// RTT. The contrast with the P4 system's passive per-packet visibility
// is the heart of the paper's evaluation.
package pscheduler

import (
	"repro/internal/controlplane"
	"repro/internal/packet"
	"repro/internal/psarchiver"
	"repro/internal/simtime"
	"repro/internal/tcp"
	"repro/internal/trafficgen"
)

// ThroughputResult is one aggregated iperf3-style test outcome: the
// stock perfSONAR Logstash keeps only the average value (§2.3).
type ThroughputResult struct {
	Src, Dst   string
	StartedAt  simtime.Time
	Duration   simtime.Time
	AvgBps     float64
	BytesMoved uint64
	Retransmit uint64
}

// LatencyResult is one aggregated ping-style test outcome: min, mean
// and max RTT (§2.3).
type LatencyResult struct {
	Src, Dst  string
	StartedAt simtime.Time
	Sent      int
	Received  int
	MinRTT    simtime.Time
	MeanRTT   simtime.Time
	MaxRTT    simtime.Time
}

// Scheduler runs active tests between perfSONAR nodes over the same
// simulated network the real traffic crosses.
type Scheduler struct {
	engine   *simtime.Engine
	pipeline *psarchiver.Pipeline

	// Results retains everything locally, in addition to the archiver
	// records, for the Table 1 comparison harness.
	Throughput []ThroughputResult
	Latency    []LatencyResult

	nextProbePort uint16
}

// New creates a scheduler that archives results through the given
// Logstash pipeline (nil disables archiving).
func New(e *simtime.Engine, pipeline *psarchiver.Pipeline) *Scheduler {
	return &Scheduler{engine: e, pipeline: pipeline, nextProbePort: 33434}
}

// ScheduleThroughput runs an iperf3-style test of the given duration
// from src to dst every interval, starting at first. This is the
// periodic active measurement a regular perfSONAR deployment performs.
func (s *Scheduler) ScheduleThroughput(src, dst *tcp.Host, first, interval, duration simtime.Time, cfg tcp.Config) {
	run := func(now simtime.Time) {
		s.runThroughput(src, dst, now, duration, cfg)
	}
	simtime.NewTicker(s.engine, first, interval, run)
}

func (s *Scheduler) runThroughput(src, dst *tcp.Host, start, duration simtime.Time, cfg tcp.Config) {
	port := s.nextProbePort
	s.nextProbePort++
	h := trafficgen.Transfer{
		From:         src,
		To:           dst,
		Port:         port,
		Start:        s.engine.Now(),
		Duration:     duration,
		SenderConfig: cfg,
	}.Launch(s.engine)
	h.OnComplete = func(h *trafficgen.Handle) {
		st := h.Conn.Stats
		dur := h.CompletedAt - st.StartTime
		var avg float64
		if dur > 0 {
			avg = float64(st.BytesAcked) * 8 / dur.Seconds()
		}
		res := ThroughputResult{
			Src:        src.Name(),
			Dst:        dst.Name(),
			StartedAt:  st.StartTime,
			Duration:   dur,
			AvgBps:     avg, // Logstash keeps only the average (§2.3)
			BytesMoved: st.BytesAcked,
			Retransmit: st.Retransmissions,
		}
		s.Throughput = append(s.Throughput, res)
		s.archive("pscheduler_throughput", st.StartTime, map[string]interface{}{
			"src":        res.Src,
			"dst":        res.Dst,
			"avg_bps":    res.AvgBps,
			"bytes":      res.BytesMoved,
			"retransmit": res.Retransmit,
		})
	}
}

// ScheduleLatency runs a ping-style probe train from src to dst every
// interval: count UDP probes, one per probeGap, RTT measured against
// the echo responder installed on dst.
func (s *Scheduler) ScheduleLatency(src, dst *tcp.Host, first, interval simtime.Time, count int, probeGap simtime.Time) {
	run := func(now simtime.Time) {
		s.runLatency(src, dst, count, probeGap)
	}
	simtime.NewTicker(s.engine, first, interval, run)
}

func (s *Scheduler) runLatency(src, dst *tcp.Host, count int, probeGap simtime.Time) {
	trafficgen.EchoResponder(dst)
	port := s.nextProbePort
	s.nextProbePort++
	start := s.engine.Now()

	sentAt := make(map[uint16]simtime.Time, count)
	var rtts []simtime.Time
	received := 0

	prevUDP := src.OnUDP
	src.OnUDP = func(pkt *packet.Packet) {
		if pkt.SrcPort != port && pkt.DstPort != port {
			if prevUDP != nil {
				prevUDP(pkt)
			}
			return
		}
		if t0, ok := sentAt[pkt.IPID]; ok {
			rtts = append(rtts, s.engine.Now()-t0)
			delete(sentAt, pkt.IPID)
			received++
		}
	}

	ft := packet.FiveTuple{
		SrcIP:   src.IP(),
		DstIP:   dst.IP(),
		SrcPort: port,
		DstPort: port,
		Proto:   packet.ProtoUDP,
	}
	for i := 0; i < count; i++ {
		i := i
		s.engine.Schedule(simtime.Time(i)*probeGap, func() {
			p := packet.NewUDP(ft, 64)
			p.IPID = uint16(i + 1)
			sentAt[p.IPID] = s.engine.Now()
			src.SendPacket(p)
		})
	}

	// Collect after the train plus a grace period.
	s.engine.Schedule(simtime.Time(count)*probeGap+2*simtime.Second, func() {
		src.OnUDP = prevUDP
		res := LatencyResult{
			Src:       src.Name(),
			Dst:       dst.Name(),
			StartedAt: start,
			Sent:      count,
			Received:  received,
		}
		if len(rtts) > 0 {
			var sum simtime.Time
			res.MinRTT = rtts[0]
			for _, r := range rtts {
				if r < res.MinRTT {
					res.MinRTT = r
				}
				if r > res.MaxRTT {
					res.MaxRTT = r
				}
				sum += r
			}
			res.MeanRTT = sum / simtime.Time(len(rtts))
		}
		s.Latency = append(s.Latency, res)
		s.archive("pscheduler_latency", start, map[string]interface{}{
			"src":         res.Src,
			"dst":         res.Dst,
			"sent":        res.Sent,
			"received":    res.Received,
			"min_rtt_ms":  res.MinRTT.Millis(),
			"mean_rtt_ms": res.MeanRTT.Millis(),
			"max_rtt_ms":  res.MaxRTT.Millis(),
		})
	})
}

// archive ships one test result: kind and time_ns are Report_v1's, the
// result's own keys ride beside the report.
func (s *Scheduler) archive(kind string, at simtime.Time, result map[string]interface{}) {
	if s.pipeline != nil {
		s.pipeline.Process(psarchiver.NewDocument(controlplane.Report{Kind: kind, TimeNs: int64(at)}, result))
	}
}
