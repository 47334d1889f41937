package pscheduler

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tcp"
	"repro/internal/trafficgen"
)

// Hop is one traceroute hop: the responding address and the probe's
// round-trip time (zero Router means no response).
type Hop struct {
	TTL    int
	Router string
	RTT    simtime.Time
}

// TraceResult is one completed path trace.
type TraceResult struct {
	Src, Dst  string
	StartedAt simtime.Time
	Hops      []Hop
	// Reached reports whether the destination answered.
	Reached bool
}

// ScheduleTrace runs a traceroute-style path measurement from src to
// dst every interval: one UDP probe per TTL, hop addresses recovered
// from the switches' TTL-exceeded notifications, terminated by the
// destination's echo.
func (s *Scheduler) ScheduleTrace(src, dst *tcp.Host, first, interval simtime.Time, maxHops int) {
	run := func(now simtime.Time) {
		s.runTrace(src, dst, maxHops)
	}
	simtime.NewTicker(s.engine, first, interval, run)
}

func (s *Scheduler) runTrace(src, dst *tcp.Host, maxHops int) {
	trafficgen.EchoResponder(dst)
	port := s.nextProbePort
	s.nextProbePort++
	start := s.engine.Now()

	result := &TraceResult{Src: src.Name(), Dst: dst.Name(), StartedAt: start}
	hops := make([]Hop, maxHops)
	sentAt := make(map[uint16]simtime.Time, maxHops)
	answered := 0

	prevUDP := src.OnUDP
	src.OnUDP = func(pkt *packet.Packet) {
		ttl := int(pkt.IPID) // probes carry their TTL as the IP ID
		if ttl < 1 || ttl > maxHops || pkt.DstPort != port && pkt.SrcPort != port {
			if prevUDP != nil {
				prevUDP(pkt)
			}
			return
		}
		t0, ok := sentAt[pkt.IPID]
		if !ok || hops[ttl-1].Router != "" {
			return
		}
		hops[ttl-1] = Hop{TTL: ttl, Router: pkt.SrcIP.String(), RTT: s.engine.Now() - t0}
		answered++
		if pkt.SrcIP == dst.IP() {
			result.Reached = true
		}
	}

	// One probe per TTL, 50 ms apart (like traceroute's pacing).
	for ttl := 1; ttl <= maxHops; ttl++ {
		ttl := ttl
		s.engine.Schedule(simtime.Time(ttl-1)*50*simtime.Millisecond, func() {
			p := packet.NewUDP(packet.FiveTuple{
				SrcIP:   src.IP(),
				DstIP:   dst.IP(),
				SrcPort: port,
				DstPort: port,
				Proto:   packet.ProtoUDP,
			}, 40)
			p.TTL = uint8(ttl)
			p.IPID = uint16(ttl)
			sentAt[p.IPID] = s.engine.Now()
			src.SendPacket(p)
		})
	}

	// Collect after the probe train plus a grace period.
	s.engine.Schedule(simtime.Time(maxHops)*50*simtime.Millisecond+2*simtime.Second, func() {
		src.OnUDP = prevUDP
		// Trim trailing unanswered hops past the destination.
		last := 0
		for i, h := range hops {
			if h.Router != "" {
				last = i + 1
			}
			if result.Reached && h.Router == dst.IP().String() {
				last = i + 1
				break
			}
		}
		result.Hops = hops[:last]
		s.Traces = append(s.Traces, *result)

		s.archive("pscheduler_trace", start, map[string]interface{}{
			"src":     result.Src,
			"dst":     result.Dst,
			"reached": result.Reached,
			"hops":    len(result.Hops),
		})
	})
}

// RenderTrace formats one trace like the traceroute tool.
func RenderTrace(r TraceResult) string {
	out := fmt.Sprintf("traceroute %s -> %s (reached: %v)\n", r.Src, r.Dst, r.Reached)
	for _, h := range r.Hops {
		if h.Router == "" {
			out += fmt.Sprintf("%2d  *\n", h.TTL)
			continue
		}
		out += fmt.Sprintf("%2d  %-16s %v\n", h.TTL, h.Router, h.RTT)
	}
	return out
}
