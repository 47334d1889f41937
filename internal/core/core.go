// Package core assembles the paper's full system (Figures 3, 4 and 8):
// the Science DMZ topology — an internal network and three external
// networks joined by two legacy switches with a 10 Gbps bottleneck —
// plus the measurement chain: passive optical TAPs on the core switch,
// the P4 data plane, the switch control plane, and the perfSONAR
// archiver (Logstash → OpenSearch). Experiments and examples build a
// System and drive traffic through it.
package core

import (
	"fmt"
	"net/netip"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/psarchiver"
	"repro/internal/pscheduler"
	"repro/internal/simtime"
	"repro/internal/switchsim"
	"repro/internal/tap"
	"repro/internal/tcp"
	"repro/internal/trafficgen"
)

// ExternalNetworks is the number of external networks in Figure 8.
const ExternalNetworks = 3

// Options configures a System. Zero values select the paper's testbed
// parameters.
type Options struct {
	// BottleneckBps is the inter-switch link rate; default 10 Gbps
	// ("the link interconnecting these switches acts as a performance
	// bottleneck, operating at a throughput of 10 Gbps").
	BottleneckBps float64
	// RTTs are the round-trip times from the internal DTN to the three
	// external DTNs; default 50, 75, 100 ms (§5.1).
	RTTs [ExternalNetworks]simtime.Time
	// BufferBytes is the core switch's bottleneck-port buffer. Default
	// one BDP at the largest RTT (the §5.4.1 guideline).
	BufferBytes int
	// Seed drives every random stream in the simulation.
	Seed uint64
	// Shards is the number of independent data-plane pipes the flows
	// are partitioned across (the multi-pipe model of a Tofino ASIC).
	// 0 or 1 runs the single-pipe pipeline with byte-identical output;
	// higher values batch per-shard work and replay it in parallel
	// between barriers (see dataplane.Pipes).
	Shards int
	// ControlPlane tunes extraction and alerting; LinkCapacityBps and
	// BufferBytes are filled in from the topology automatically.
	ControlPlane controlplane.Config
	// Sink, when set, receives every control-plane report instead of
	// Pipeline: the live collector streams them to Logstash this way,
	// and Store then holds none of them.
	Sink controlplane.Sink
}

func (o Options) withDefaults() Options {
	if o.BottleneckBps <= 0 {
		o.BottleneckBps = netsim.Gbps(10)
	}
	var zero [ExternalNetworks]simtime.Time
	if o.RTTs == zero {
		o.RTTs = [ExternalNetworks]simtime.Time{
			50 * simtime.Millisecond,
			75 * simtime.Millisecond,
			100 * simtime.Millisecond,
		}
	}
	if o.BufferBytes <= 0 {
		maxRTT := o.RTTs[0]
		for _, r := range o.RTTs[1:] {
			if r > maxRTT {
				maxRTT = r
			}
		}
		o.BufferBytes = BDPBytes(o.BottleneckBps, maxRTT)
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// BDPBytes computes the bandwidth-delay product in bytes (§5.4.1).
func BDPBytes(bps float64, rtt simtime.Time) int {
	return int(bps * rtt.Seconds() / 8)
}

// System is the assembled testbed plus measurement chain.
type System struct {
	Opts   Options
	Engine *simtime.Engine
	RNG    *simtime.RNG

	// Hosts (Figure 8).
	InternalDTN   *tcp.Host
	LocalPerfNode *tcp.Host
	ExternalDTNs  [ExternalNetworks]*tcp.Host
	ExternalPerf  [ExternalNetworks]*tcp.Host

	// Switches. CoreSwitch is the tapped legacy switch next to the
	// internal network; AggSwitch is the second legacy switch.
	CoreSwitch *switchsim.Switch
	AggSwitch  *switchsim.Switch
	// BottleneckPort is the monitored core-switch output port on the
	// inter-switch link.
	BottleneckPort *switchsim.Port
	// BottleneckLink is the core→agg direction of the inter-switch link.
	BottleneckLink *netsim.Link
	// ExternalAccessLinks are the agg→DTN_i links (impairment points
	// for the Fig. 12 network-loss test).
	ExternalAccessLinks [ExternalNetworks]*netsim.Link

	// Measurement chain. DataPlane is the sharded front-end (a single
	// pipe unless Options.Shards > 1); reads through it always see the
	// merged multi-pipe view. Store is the archive, the one record of
	// every report and pScheduler result: Archived and the series
	// helpers read it, as Grafana reads OpenSearch.
	Taps         *tap.Pair
	DataPlane    *dataplane.Pipes
	ControlPlane *controlplane.ControlPlane
	Pipeline     *psarchiver.Pipeline
	Store        *psarchiver.Store
	Scheduler    *pscheduler.Scheduler
}

// internal addressing plan
var (
	internalDTNIP  = packet.MustAddr("172.16.0.10")
	internalPerfIP = packet.MustAddr("172.16.0.20")
)

// externalIP returns the address of host "kind" (10=DTN, 20=perfSONAR)
// in external network i (0-based).
func externalIP(i, host int) netip.Addr {
	return packet.MustAddr(fmt.Sprintf("192.168.%d.%d", i+1, host))
}

// NewSystem builds the full testbed.
func NewSystem(opts Options) *System {
	opts = opts.withDefaults()
	e := simtime.NewEngine()
	rng := simtime.NewRNG(opts.Seed)

	s := &System{Opts: opts, Engine: e, RNG: rng}

	// Hosts.
	s.InternalDTN = tcp.NewHost(e, "dtn-internal", internalDTNIP)
	s.LocalPerfNode = tcp.NewHost(e, "ps-local", internalPerfIP)
	for i := 0; i < ExternalNetworks; i++ {
		s.ExternalDTNs[i] = tcp.NewHost(e, fmt.Sprintf("dtn%d", i+1), externalIP(i, 10))
		s.ExternalPerf[i] = tcp.NewHost(e, fmt.Sprintf("ps%d", i+1), externalIP(i, 20))
	}

	// Switches.
	s.CoreSwitch = switchsim.New(e, "core-switch")
	s.AggSwitch = switchsim.New(e, "agg-switch")

	const hostDelay = 50 * simtime.Microsecond
	const interSwitchDelay = 2 * simtime.Millisecond
	bigBuffer := 1 << 30
	// Host access links run at 4x the bottleneck, so sender bursts
	// queue at the monitored core-switch port rather than at the NIC.
	accessBps := 4 * opts.BottleneckBps

	// wireHost connects a host to its switch and returns the downlink
	// (switch→host), the convenient impairment point.
	wireHost := func(h *tcp.Host, sw *switchsim.Switch, bps float64, delay simtime.Time) *netsim.Link {
		up := netsim.NewLink(e, h.Name()+"-up", sw, bps, delay, rng.Fork())
		h.AttachUplink(up)
		down := netsim.NewLink(e, h.Name()+"-down", h, bps, delay, rng.Fork())
		sw.AddRoute(netip.PrefixFrom(h.IP(), 32), down, bigBuffer)
		return down
	}
	// Internal hosts <-> core switch.
	wireHost(s.InternalDTN, s.CoreSwitch, accessBps, hostDelay)
	wireHost(s.LocalPerfNode, s.CoreSwitch, accessBps, hostDelay)

	// Inter-switch bottleneck.
	s.BottleneckLink = netsim.NewLink(e, "core-agg", s.AggSwitch, opts.BottleneckBps, interSwitchDelay, rng.Fork())
	aggToCore := netsim.NewLink(e, "agg-core", s.CoreSwitch, opts.BottleneckBps, interSwitchDelay, rng.Fork())
	s.BottleneckPort = s.CoreSwitch.AddRoute(netip.MustParsePrefix("192.168.0.0/16"), s.BottleneckLink, opts.BufferBytes)
	s.AggSwitch.AddRoute(netip.MustParsePrefix("172.16.0.0/24"), aggToCore, bigBuffer)

	// External networks: the per-network access delay absorbs the RTT
	// difference (RTT_i = 2*(hostDelay + interSwitchDelay + extDelay_i)).
	for i := 0; i < ExternalNetworks; i++ {
		extDelay := opts.RTTs[i]/2 - interSwitchDelay - hostDelay
		if extDelay < 0 {
			extDelay = 0
		}
		s.ExternalAccessLinks[i] = wireHost(s.ExternalDTNs[i], s.AggSwitch, accessBps, extDelay)
		wireHost(s.ExternalPerf[i], s.AggSwitch, accessBps, extDelay)
	}

	// Measurement chain: TAPs on the core switch feed the P4 pipeline.
	// The microburst floor is a tenth of the monitored buffer's drain
	// time: excursions smaller than that are queueing noise, not bursts
	// worth alerting on.
	s.DataPlane = dataplane.NewPipes(dataplane.Config{BurstFloor: s.MaxQueueDelay() / 10}, opts.Shards)
	s.Taps = tap.NewPair(e, s.DataPlane)
	// The egress TAP mirrors the WAN-side port only — the monitored
	// bottleneck queue of §4.2 — so queue-delay and microburst signals
	// come from one queue.
	bottleneckName := s.BottleneckLink.Name()
	s.Taps.EgressFilter = func(link string) bool { return link == bottleneckName }
	// The data plane reads registers and returns without retaining the
	// mirrored copy, so TAP copies can come from the packet arena.
	s.Taps.Recycle = true
	s.Taps.Attach(s.CoreSwitch)

	s.Store = psarchiver.NewStore()
	s.Pipeline = psarchiver.NewPipeline()
	s.Pipeline.OpenSearchOutput(s.Store)

	cpCfg := opts.ControlPlane
	cpCfg.LinkCapacityBps = opts.BottleneckBps
	cpCfg.BufferBytes = opts.BufferBytes
	var sink controlplane.Sink = s.Pipeline
	if opts.Sink != nil {
		sink = opts.Sink
	}
	s.ControlPlane = controlplane.New(e, s.DataPlane, sink, cpCfg)

	s.Scheduler = pscheduler.New(e, s.Pipeline)
	return s
}

// Start launches the control plane's extraction tickers. Call after
// any psconfig adjustments that should apply from t=0.
func (s *System) Start() { s.ControlPlane.Start() }

// Run advances the simulation to the given absolute time.
func (s *System) Run(until simtime.Time) { s.Engine.Run(until) }

// TransferToExternal starts an iPerf3-style transfer from the internal
// DTN to external DTN i (0-based). A Duration of zero with Bytes zero
// defaults to 10 s.
func (s *System) TransferToExternal(i int, start simtime.Time, bytes uint64, duration simtime.Time, sender tcp.Config, receiver tcp.Config) *trafficgen.Handle {
	if i < 0 || i >= ExternalNetworks {
		panic(fmt.Sprintf("core: external network %d out of range", i))
	}
	return trafficgen.Transfer{
		From:           s.InternalDTN,
		To:             s.ExternalDTNs[i],
		Port:           uint16(5201 + i),
		Bytes:          bytes,
		Start:          start,
		Duration:       duration,
		SenderConfig:   sender,
		ReceiverConfig: receiver,
	}.Launch(s.Engine)
}

// InjectMicroburst fires a UDP packet train from the internal DTN
// toward external DTN i at the given time.
func (s *System) InjectMicroburst(i int, at simtime.Time, count, payload int) {
	trafficgen.Burst{
		From:    s.InternalDTN,
		DstIP:   s.ExternalDTNs[i].IP(),
		Count:   count,
		Payload: payload,
		At:      at,
	}.Launch(s.Engine)
}

// MaxQueueDelay returns the bottleneck buffer's drain time — 100%
// queue occupancy expressed as delay.
func (s *System) MaxQueueDelay() simtime.Time {
	return simtime.Time(float64(s.Opts.BufferBytes*8) / s.Opts.BottleneckBps * 1e9)
}
