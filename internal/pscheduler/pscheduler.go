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

// The kinds of the scheduler's documents: the pipeline routes each to
// an index of its own (psarchiver.IndexName).
const (
	KindThroughput = "pscheduler_throughput"
	KindLatency    = "pscheduler_latency"
)

// Scheduler runs active tests between perfSONAR nodes over the same
// simulated network the real traffic crosses, and archives each test's
// aggregate as one document; it keeps no result of its own.
type Scheduler struct {
	engine        *simtime.Engine
	pipeline      *psarchiver.Pipeline
	nextProbePort uint16
}

// New creates a scheduler that archives results through the given
// Logstash pipeline.
func New(e *simtime.Engine, pipeline *psarchiver.Pipeline) *Scheduler {
	return &Scheduler{engine: e, pipeline: pipeline, nextProbePort: 33434}
}

// ScheduleThroughput runs an iperf3-style test of the given duration
// from src to dst every interval, starting at first. This is the
// periodic active measurement a regular perfSONAR deployment performs.
func (s *Scheduler) ScheduleThroughput(src, dst *tcp.Host, first, interval, duration simtime.Time, cfg tcp.Config) {
	simtime.NewTicker(s.engine, first, interval, func(simtime.Time) {
		s.runThroughput(src, dst, duration, cfg)
	})
}

func (s *Scheduler) runThroughput(src, dst *tcp.Host, duration simtime.Time, cfg tcp.Config) {
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
		s.archive(KindThroughput, st.StartTime, map[string]interface{}{
			"src":        src.Name(),
			"dst":        dst.Name(),
			"avg_bps":    avg, // Logstash keeps only the average (§2.3)
			"bytes":      st.BytesAcked,
			"retransmit": st.Retransmissions,
		})
	}
}

// ScheduleLatency runs a ping-style probe train from src to dst every
// interval: count UDP probes, one per probeGap, RTT measured against
// the echo responder installed on dst.
func (s *Scheduler) ScheduleLatency(src, dst *tcp.Host, first, interval simtime.Time, count int, probeGap simtime.Time) {
	simtime.NewTicker(s.engine, first, interval, func(simtime.Time) {
		s.runLatency(src, dst, count, probeGap)
	})
}

func (s *Scheduler) runLatency(src, dst *tcp.Host, count int, probeGap simtime.Time) {
	trafficgen.EchoResponder(dst)
	port := s.nextProbePort
	s.nextProbePort++
	start := s.engine.Now()

	sentAt := make(map[uint16]simtime.Time, count)
	var rtts []simtime.Time

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
		var minRTT, meanRTT, maxRTT simtime.Time
		if len(rtts) > 0 {
			var sum simtime.Time
			minRTT = rtts[0]
			for _, r := range rtts {
				minRTT, maxRTT = min(minRTT, r), max(maxRTT, r)
				sum += r
			}
			meanRTT = sum / simtime.Time(len(rtts))
		}
		s.archive(KindLatency, start, map[string]interface{}{
			"src":         src.Name(),
			"dst":         dst.Name(),
			"sent":        count,
			"received":    len(rtts),
			"min_rtt_ms":  minRTT.Millis(),
			"mean_rtt_ms": meanRTT.Millis(),
			"max_rtt_ms":  maxRTT.Millis(),
		})
	})
}

// archive ships one test result: kind and time_ns are Report_v1's, the
// result's own keys ride beside the report.
func (s *Scheduler) archive(kind string, at simtime.Time, result map[string]interface{}) {
	s.pipeline.Process(psarchiver.NewDocument(controlplane.Report{Kind: kind, TimeNs: int64(at)}, result))
}
