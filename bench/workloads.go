package main

import (
	"math"
	"net/netip"
	"time"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/replay"
	"repro/internal/simtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long each
// workload's measured phase runs on the reference box. Workload sizes
// are fixed record and report counts derived from it (so CPU seconds
// and the golden fingerprints are for fixed work); --seconds 20 gives
// the sizes the issue was written with (32 M and 40 M records, 200 k
// preloaded documents; report_storm gets 1 M reports there, not 600 k:
// its rate was raised so that the default run times more than 2 s).
const defaultSeconds = 6

// Nominal work per requested second, from the sizing runs on the 2-core
// reference box.
const (
	elephantRecordsPerSecond = 1_600_000
	miceRecordsPerSecond     = 2_000_000
	stormReportsPerSecond    = 50_000
	preloadDocsPerSecond     = 10_000
	observatoryWriteRate     = 2000 // reports/s, open loop
)

// inFlightWindow is the closed loop's bound on emitted-but-not-indexed
// reports: the one producer stops feeding while this many are in
// flight, which keeps the shipper's --mem-spool from ever overflowing
// (drop-oldest would turn a slow archiver into lost reports).
const inFlightWindow = 32768

// workload describes one benchmark workload. name and why are what
// BENCHMARK.json lists; the rest configures the system strictly through
// what cmd/collector's flags and config-P4 expose.
type workload struct {
	name string
	why  string

	// Data-plane workloads (observatory has none).
	shards      int           // --shards
	agingWindow time.Duration // --aging-window
	memSpool    int           // --mem-spool
	rate        float64       // config-P4 --samples_per_second on all four metrics; 0 keeps the default 1 Hz
	// source builds the seeded record stream and says how many distinct
	// flows it offers per record fed.
	source func(seed uint64, records int) *stream
	// records returns the stream length for a run of the given seconds;
	// 0 means the run ends on a report count instead (reports).
	records func(seconds int) int
	reports func(seconds int) int
	// warm reports whether set-up feeds the stream until the control
	// plane's flow directory stops growing.
	warm bool

	observatory bool
}

func workloads() []workload {
	return []workload{
		{
			name:   "elephants",
			why:    "64 alias-free 1460 B flows at machine speed: every packet takes the exact register tier, so the data plane does nearly all the work",
			shards: 1, memSpool: 4096,
			source:  elephantStream,
			records: func(s int) int { return s * elephantRecordsPerSecond },
		},
		{
			name:   "elephants_2shard",
			why:    "the elephants stream through --shards 2: partition, per-shard fronts and the flush barrier, the one path sharding work may move",
			shards: 2, memSpool: 4096,
			source:  elephantStream,
			records: func(s int) int { return s * elephantRecordsPerSecond },
		},
		{
			name:   "mice",
			why:    "200k concurrent 100 B flows replaced every 2 s with --aging-window 1s: over 95% of packets go to the sketch tier and aging folds every generation",
			shards: 1, memSpool: 4096, agingWindow: time.Second,
			source:  miceStream,
			records: func(s int) int { return s * miceRecordsPerSecond },
		},
		{
			name:   "report_storm",
			why:    "1500 flows reported on all four metrics at 5 samples/s, closed loop: extraction, marshal, shipper, TCP, decode and Store.Index do the work, not the data plane",
			shards: 1, memSpool: 65536, rate: 5,
			source:  stormStream,
			reports: func(s int) int { return s * stormReportsPerSecond },
			warm:    true,
		},
		{
			name:        "observatory",
			why:         "a preloaded shared store queried in a closed loop beside four members writing at a fixed open-loop rate: reads against writes on the store's one lock, no data plane",
			observatory: true,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stream is a seeded record source plus what the generator knows about
// it, which the correctness checks compare the system's answers with.
type stream struct {
	src replay.Source
	// flowsOffered returns the distinct flows (connections) src has
	// produced records for so far.
	flowsOffered func() uint64
	// sampleFlows returns up to k forward flow numbers spread over those
	// flows; truth replays a fresh copy of the generator for n records
	// and returns the ingress bytes each of them sent.
	sampleFlows func(k int) []int
	truth       func(n uint64, flows []int) map[int]uint64
	// keyFlows are flow numbers whose keys feed the isolated kernels.
	keyFlows []int
}

// synthTuple is the 5-tuple replay.Synth gives flow number g (forward
// direction), mirroring its addressing.
func synthTuple(g int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, byte(g >> 8), byte(g)}),
		DstIP:   netip.AddrFrom4([4]byte{10, 1, byte(g >> 8), byte(g)}),
		SrcPort: uint16(40000 + g>>16),
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
}

// flowCells returns the flow-table cells, at the default table size,
// that flows base..base+n-1 of replay.Synth hash to: forward directions
// in fwd, reverse (ACK) directions in rev.
func flowCells(base, n int) (fwd, rev []uint32) {
	size := uint32(dataplane.Config{}.WithDefaults().FlowTableSize)
	for g := base; g < base+n; g++ {
		ft := synthTuple(g)
		fwd = append(fwd, uint32(dataplane.HashFiveTuple(ft))%size)
		rev = append(rev, uint32(dataplane.HashReverse(ft))%size)
	}
	return fwd, rev
}

// distinct counts the different values in the given slices.
func distinct(cells ...[]uint32) int {
	seen := map[uint32]bool{}
	for _, cs := range cells {
		for _, c := range cs {
			seen[c] = true
		}
	}
	return len(seen)
}

// seededBase picks, from the seed, a flow-number base whose flow-table
// cells satisfy ok. Synth numbers flows consecutively and the flow ID is
// a CRC, so how many of n flows share a cell swings widely with the
// base: elephants would move a few percent of its packets to the sketch
// tier, and report_storm would report anything from 870 to 1500 flows
// and an RTT for anything from 16 to 1100 of them. The workloads fix
// those properties so that a run measures the system, not the seed.
func seededBase(rng *simtime.RNG, n int, ok func(fwd, rev []uint32) bool) int {
	for {
		base := 1 + rng.Intn(1<<20)
		if ok(flowCells(base, n)) {
			return base
		}
	}
}

// aliasFreeBase is seededBase for flows that all get a cell of their
// own; with reverse set, their reverse directions too (no packet is
// aliased).
func aliasFreeBase(rng *simtime.RNG, n int, reverse bool) int {
	return seededBase(rng, n, func(fwd, rev []uint32) bool {
		if reverse {
			return distinct(fwd, rev) == 2*n
		}
		return distinct(fwd) == n
	})
}

// synthTruth replays a generator and sums the ingress bytes (IPv4 total
// length, what the data plane counts) of the wanted forward flows.
func synthTruth(src replay.Source, n uint64, flows []int) map[int]uint64 {
	type endpoint struct {
		ip   [4]byte
		port uint16
	}
	want := make(map[endpoint]int, len(flows))
	for _, g := range flows {
		want[endpoint{[4]byte{10, 0, byte(g >> 8), byte(g)}, uint16(40000 + g>>16)}] = g
	}
	out := make(map[int]uint64, len(flows))
	var rec replay.Record
	for i := uint64(0); i < n && src.Next(&rec); i++ {
		if rec.Point != 0 || rec.SrcIP[1] != 0 {
			continue // egress copy, or the reverse (ACK) direction
		}
		if g, ok := want[endpoint{rec.SrcIP, rec.SrcPort}]; ok {
			out[g] += uint64(rec.TotalLen)
		}
	}
	return out
}

func spread(lo, n, k int) []int {
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, lo+i*n/k)
	}
	return out
}

const elephantFlows = 64

func elephantStream(seed uint64, records int) *stream {
	rng := simtime.NewRNG(seed)
	base := aliasFreeBase(rng, elephantFlows, true)
	retrans := 900 + rng.Intn(200)
	mk := func() *replay.Synth {
		return &replay.Synth{Flows: elephantFlows, MSS: 1460, Packets: records, FlowBase: base, RetransEvery: retrans}
	}
	return &stream{
		src:          mk(),
		flowsOffered: func() uint64 { return elephantFlows },
		sampleFlows:  func(k int) []int { return spread(base, elephantFlows, k) },
		truth:        func(n uint64, flows []int) map[int]uint64 { return synthTruth(mk(), n, flows) },
		keyFlows:     spread(base, elephantFlows, elephantFlows),
	}
}

const (
	stormFlows   = 1500
	stormSpacing = 20 * simtime.Microsecond
)

// stormStream numbers its flows so that every one of them gets a cell
// (data packets claim cells before the first ACK) and their reverse
// directions take every cell that is left. The control plane reports an
// RTT only for flows whose ACKs found a cell, so this pins the reports
// per tick (about 5600: three metrics for all 1500 flows and an RTT for
// 1100) and with them the records fed per report.
func stormStream(seed uint64, _ int) *stream {
	rng := simtime.NewRNG(seed)
	size := dataplane.Config{}.WithDefaults().FlowTableSize
	base := seededBase(rng, stormFlows, func(fwd, rev []uint32) bool {
		return distinct(fwd) == stormFlows && distinct(fwd, rev) == size
	})
	retrans := 900 + rng.Intn(200)
	mk := func() *replay.Synth {
		return &replay.Synth{Flows: stormFlows, MSS: 1460, Packets: math.MaxInt, Spacing: stormSpacing, FlowBase: base, RetransEvery: retrans}
	}
	return &stream{
		src:          mk(),
		flowsOffered: func() uint64 { return stormFlows },
		sampleFlows:  func(k int) []int { return spread(base, stormFlows, k) },
		truth:        func(n uint64, flows []int) map[int]uint64 { return synthTruth(mk(), n, flows) },
		keyFlows:     spread(base, stormFlows, stormFlows),
	}
}

const (
	miceFlows      = 200_000
	miceGenRecords = 2_000_000 // 2 simulated seconds at the 1 µs default spacing
)

// miceStream is the lean-tier workload: generations of 200k concurrent
// 100 B flows, each generation replaced after 2 simulated seconds through
// Synth.FlowBase. No flow comes near the long-flow threshold, so the
// control plane emits its one aggregate report per second and nothing
// else.
func miceStream(seed uint64, records int) *stream {
	rng := simtime.NewRNG(seed)
	base := 1 + rng.Intn(1<<20)
	live := &generations{base: base, left: records}
	return &stream{
		src:          live,
		flowsOffered: func() uint64 { return uint64(live.gen) * miceFlows },
		sampleFlows:  func(k int) []int { return spread(base, live.gen*miceFlows, k) },
		truth: func(n uint64, flows []int) map[int]uint64 {
			return synthTruth(&generations{base: base, left: records}, n, flows)
		},
		keyFlows: spread(base, miceFlows, 4096),
	}
}

// generations chains Synths of miceFlows flows, each miceGenRecords long
// and numbered after the last, shifting timestamps so the chain is one
// continuous stream of left records.
type generations struct {
	base    int
	left    int
	spacing simtime.Time // 0: Synth's 1 µs default
	gen     int
	cur     *replay.Synth
	offset  uint64
	last    uint64
}

// Next implements replay.Source.
func (g *generations) Next(r *replay.Record) bool {
	if g.left <= 0 {
		return false
	}
	if g.cur == nil || !g.cur.Next(r) {
		g.offset = g.last
		g.cur = &replay.Synth{Flows: miceFlows, MSS: 100, Packets: miceGenRecords, Spacing: g.spacing, FlowBase: g.base + g.gen*miceFlows}
		g.gen++
		if !g.cur.Next(r) {
			return false
		}
	}
	g.left--
	r.At += g.offset
	g.last = r.At
	return true
}
