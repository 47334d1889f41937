package dataplane

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tap"
)

// pipeBatch is the per-shard batch capacity: how many parsed copies a
// shard queues before the front-end forces a barrier flush. Sized so a
// typical inter-extraction interval batches hundreds of packets per
// shard while bounding the state replayed at each barrier.
const pipeBatch = 1024

// Pipes is the data plane as the control plane sees it: N ≥ 1
// independent DataPlane shards behind one surface, flows partitioned
// the way a Tofino's traffic manager spreads ports across pipes, each
// pipe owning a private register file, CMS and microburst detector.
// Both directions of a flow land on the same shard (the partition
// takes the flow ID of the canonical direction), so Algorithm 1's
// eACK matching and RTT pairing keep working unchanged inside one
// shard.
//
// Every control-plane method is one path at every shard count: take
// the mutex, replay whatever is batched and join it (the barrier), then
// visit the shards. A per-flow call (ReadFlow, ReadRTTHist, ResetWindow,
// ReleaseFlow) goes to the one pipe that owns the flow's cell; a by-name
// register read merges the cell through mergedRead, which applies the
// rule each register declares and is the identity at one shard. Only
// ingest chooses by shard count. One shard runs each copy or front
// straight through its pipe, with digests delivered inline in packet
// order and the hot path at 0 allocs/op. Above one shard ingest is
// pipelined, the way Tofino's pipes run on their own until the control
// plane extracts registers: ProcessCopy and ProcessFront move parsed
// views into the owning shard's pending front, a launch hands every
// pending front to its shard — one goroutine per shard with work — and
// returns, and the shards run while the producer fills and partitions
// the next front. A replay is joined by the next launch and by every
// barrier: points in the program, not in time. Packets destined to
// distinct shards commute — shard state is disjoint by construction —
// so the deferred replay produces exactly the per-shard state a serial
// run would (DESIGN.md §5.4).
//
// Concurrency contract: control-plane methods are safe for concurrent
// use at any shard count. Ingest is too above one shard (it serialises
// on the same mutex); at one shard ingest is lock-free and the caller
// must serialise it with everything else, as with a bare DataPlane.
// Long-flow and microburst handlers above one shard run at a join,
// while the mutex is held, on the goroutine that ingests or reads —
// never on a shard's goroutine and never on a metrics scrape — and
// must not call back into Pipes.
type Pipes struct {
	shards []*DataPlane
	n      int

	// onLongFlow and onMicroburst deliver the merged event streams.
	// Events carry the originating shard id; above one shard they are
	// delivered when the replay that raised them is joined, in shard
	// order, with original timestamps.
	onLongFlow   func(LongFlowEvent)
	onMicroburst func(MicroburstEvent)

	// Two sets of per-shard fronts, nil at one shard: ingest appends to
	// fronts under mu; flight is the set the last launch handed to the
	// shards, theirs alone until replay is waited on. A launch swaps
	// them.
	mu     sync.Mutex
	fronts []*Front
	flight []*Front
	replay sync.WaitGroup // the replay in flight; Add and Wait under mu

	// Batch-shape telemetry (RegisterObs): views per drained front and
	// the simulated time span each front covers. Atomic observes, so
	// concurrent shard replays may record them.
	frontViews  *obs.Histogram
	frontSpanNs *obs.Histogram

	// Per-shard deferred event buffers, appended by shard hooks during
	// replay (single writer per index) and drained in shard order when
	// the replay is joined.
	lfPend [][]LongFlowEvent
	mbPend [][]MicroburstEvent

	// replays[i] replays shard i's flight and marks the replay done: built
	// once, so a launch's go statement allocates no closure.
	replays []func()

	flushes      uint64
	batchedViews uint64
}

// NewPipes builds shards independent pipelines behind one front-end.
// shards < 1 is treated as 1. Every shard gets the same Config (same
// FlowTableSize, so a flow aliases the same cell index on whichever
// shard owns it — the property the merge rules rely on).
func NewPipes(cfg Config, shards int) *Pipes {
	if shards < 1 {
		shards = 1
	}
	p := &Pipes{n: shards, shards: make([]*DataPlane, shards)}
	for i := range p.shards {
		p.shards[i] = New(cfg)
	}
	if p.n == 1 {
		// Synchronous ingest: digests go straight up, in packet order.
		p.shards[0].OnLongFlow = func(ev LongFlowEvent) {
			if p.onLongFlow != nil {
				p.onLongFlow(ev)
			}
		}
		p.shards[0].OnMicroburst = func(ev MicroburstEvent) {
			if p.onMicroburst != nil {
				p.onMicroburst(ev)
			}
		}
		return p
	}
	p.fronts = make([]*Front, shards)
	p.flight = make([]*Front, shards)
	p.lfPend = make([][]LongFlowEvent, shards)
	p.mbPend = make([][]MicroburstEvent, shards)
	p.replays = make([]func(), shards)
	for i, d := range p.shards {
		p.replays[i] = func() {
			defer p.replay.Done()
			p.replayShard(i)
		}
		p.fronts[i] = NewFront(pipeBatch)
		p.flight[i] = NewFront(pipeBatch)
		d.OnLongFlow = func(ev LongFlowEvent) {
			ev.Shard = i
			p.lfPend[i] = append(p.lfPend[i], ev)
		}
		d.OnMicroburst = func(ev MicroburstEvent) {
			ev.Shard = i
			p.mbPend[i] = append(p.mbPend[i], ev)
		}
	}
	return p
}

// NumShards returns the pipe count.
func (p *Pipes) NumShards() int { return p.n }

// Shard exposes one underlying pipe for white-box tests and per-shard
// telemetry. Above one shard the pipe belongs to its replay goroutine
// from a launch until the next join, so reading it directly is a data
// race unless a barrier (Flush or any merged read) came first and
// nothing was ingested since.
func (p *Pipes) Shard(i int) *DataPlane { return p.shards[i] }

// Config returns the (defaulted) per-shard pipeline configuration.
func (p *Pipes) Config() Config { return p.shards[0].Config() }

// ProcessCopy implements tap.Monitor. One shard processes the copy in
// place. Above one shard the copy is parsed into a value view (the tap
// pair may recycle the packet immediately) and appended to the owning
// shard's pre-allocated pending front — no per-packet goroutines, no
// per-packet allocation; a full front triggers a launch.
//
// p4:hotpath
func (p *Pipes) ProcessCopy(c tap.Copy) {
	if p.n == 1 {
		p.shards[0].ProcessCopy(c)
		return
	}
	var v view
	parseCopy(&v, c)
	s := v.shard(p.n)
	p.mu.Lock() //p4:lint-exempt hotpathprop: the batch mutex is the documented serial-equivalence barrier; the critical section only appends to a pre-sized front and is never held across I/O
	p.fronts[s].append(&v)
	p.batchedViews++
	if p.fronts[s].Len() >= pipeBatch {
		p.launchLocked()
	}
	p.mu.Unlock() //p4:lint-exempt hotpathprop: pairs with the exempted Lock above
}

// ProcessFront ingests a whole pre-parsed front in one call — the bulk
// counterpart of ProcessCopy for producers (the replay front-end) that
// batch upstream of the partition. One shard drains the front straight
// through its pipe run-to-completion, with events delivered inline
// exactly as ProcessCopy would. Above one shard the mutex is taken
// once per front instead of once per packet: every view is copied to
// its owning shard's pending front while the previous front is still
// being replayed, then the launch joins that replay, delivers its
// events and starts this one. ProcessFront does not wait for it: state
// and events of this front are due at the next barrier or ingest call.
// Either way the caller may reuse f (Reset and refill) immediately.
//
// p4:hotpath
func (p *Pipes) ProcessFront(f *Front) {
	if f.Len() == 0 {
		return
	}
	if p.n == 1 {
		p.drain(0, f)
		return
	}
	b := f.views
	p.mu.Lock() //p4:lint-exempt hotpathprop: one acquisition per front, not per packet — this hoist is the point of the batch path
	for k := range b {
		p.fronts[b[k].shard(p.n)].append(&b[k])
	}
	p.batchedViews += uint64(len(b))
	p.launchLocked()
	p.mu.Unlock() //p4:lint-exempt hotpathprop: pairs with the exempted Lock above
}

// drain runs front f through shard i run-to-completion. The histogram
// observes are atomic, so concurrent shard replays may record them.
//
// p4:hotpath
func (p *Pipes) drain(i int, f *Front) {
	if p.frontViews != nil {
		p.frontViews.Observe(uint64(f.Len()))
		p.frontSpanNs.Observe(uint64(f.Span()))
	}
	p.shards[i].ProcessFront(f)
}

// Flush forces the barrier: every batched view has been replayed on its
// shard and deferred events have been delivered before Flush returns,
// and nothing is pending or in flight. The engine (or any caller about
// to read state) uses it to re-establish the serial-equivalent view.
func (p *Pipes) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
}

// flushLocked is the barrier: launch what is pending, then join it.
func (p *Pipes) flushLocked() {
	p.launchLocked()
	p.joinLocked()
}

// launchLocked joins the replay in flight, then hands every pending
// front to its shard: the two sets swap and each shard with work gets
// one goroutine, placed by the Go scheduler, which nobody waits for
// here. The goroutine runs the shard's prebuilt replay, so a launch
// allocates nothing. A launch that finds one shard busy replays it on
// the caller's goroutine instead, spawning nothing. Each shard is
// replayed by exactly one goroutine at a time, so per-shard state stays
// single-writer.
func (p *Pipes) launchLocked() {
	p.joinLocked()
	busy, last := 0, 0
	for i, f := range p.fronts {
		if f.Len() > 0 {
			busy, last = busy+1, i
		}
	}
	if busy == 0 {
		return
	}
	p.flushes++
	p.fronts, p.flight = p.flight, p.fronts
	if busy == 1 {
		p.replayShard(last)
		return
	}
	for i, f := range p.flight {
		if f.Len() == 0 {
			continue
		}
		p.replay.Add(1)
		go p.replays[i]()
	}
}

// joinLocked waits for the replay in flight — the happens-before edge
// that makes the shards' writes visible to the caller — and delivers
// the events it deferred, in shard order. With nothing in flight and
// nothing deferred it does nothing.
func (p *Pipes) joinLocked() {
	p.replay.Wait()
	for i := range p.lfPend {
		for _, ev := range p.lfPend[i] {
			if p.onLongFlow != nil {
				p.onLongFlow(ev)
			}
		}
		p.lfPend[i] = p.lfPend[i][:0]
		for _, ev := range p.mbPend[i] {
			if p.onMicroburst != nil {
				p.onMicroburst(ev)
			}
		}
		p.mbPend[i] = p.mbPend[i][:0]
	}
}

// replayShard drains the front shard i was handed and leaves it empty
// for the next swap.
func (p *Pipes) replayShard(i int) {
	p.drain(i, p.flight[i])
	p.flight[i].Reset()
}

// onShards is the control plane's way into shard state: under the
// mutex and after the barrier, visit every shard in order.
func (p *Pipes) onShards(visit func(*DataPlane)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
	for _, d := range p.shards {
		visit(d)
	}
}

// mergedRead returns cell idx of reg — one of shard 0's registers —
// combined across every shard by the rule reg declares. It is the only
// place the cross-shard merge is written down; the caller holds the
// mutex and has flushed.
func (p *Pipes) mergedRead(reg *Register, idx uint32) uint64 {
	v := reg.Read(idx)
	for _, d := range p.shards[1:] {
		o := d.regs[reg.slot].Read(idx)
		switch reg.merge {
		case mergeSum:
			v += o
		case mergeMax:
			v = max(v, o)
		case mergeMin:
			v = min(v, o)
		case mergeFirst:
			if v == 0 || (o != 0 && o < v) {
				v = o
			}
		}
	}
	return v
}

// SetLongFlowHandler installs the merged long-flow digest callback.
func (p *Pipes) SetLongFlowHandler(fn func(LongFlowEvent)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onLongFlow = fn
}

// SetMicroburstHandler installs the merged microburst callback.
func (p *Pipes) SetMicroburstHandler(fn func(MicroburstEvent)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onMicroburst = fn
}

// owner is the pipe whose flow table holds id's cell: the shard whose
// owner_lo cell is id, or shard 0 when none is (so one pipe reads and
// writes the cell as a bare DataPlane does). Each pipe runs its own
// admission, so the same cell index can belong to different flows on
// different shards: a forward flow's cell and another connection's
// reverse direction, whose shard follows its own connection's key.
// Merging or broadcasting a per-flow call would mix or erase them. The
// caller holds the mutex and has flushed.
func (p *Pipes) owner(id FlowID) *DataPlane {
	for _, d := range p.shards {
		if d.ownerLo.Read(uint32(id)) == uint64(id) {
			return d
		}
	}
	return p.shards[0]
}

// ReadFlow flushes, then reads the flow's snapshot from the pipe that
// owns it.
func (p *Pipes) ReadFlow(id, revID FlowID) FlowSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
	return p.owner(id).ReadFlow(id, revID)
}

// ReadRTTHist flushes, then extracts the flow's in-register RTT
// histogram from the pipe that owns it.
func (p *Pipes) ReadRTTHist(id FlowID) RTTHist {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
	return p.owner(id).ReadRTTHist(id)
}

// ReadRegister flushes, then reads one merged register cell by P4
// name. The packet path folds any index onto its array; a by-name
// address must name a cell that exists, or it would silently read
// another flow's, so it fails for an unknown register or an index past
// its size.
func (p *Pipes) ReadRegister(name string, idx uint32) (uint64, error) {
	reg := p.shards[0].RegisterByName(name)
	if reg == nil {
		return 0, fmt.Errorf("unknown register %q", name)
	}
	if int(idx) >= reg.Size() {
		return 0, fmt.Errorf("register %s index %d out of range (size %d)", name, idx, reg.Size())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
	return p.mergedRead(reg, idx), nil
}

// ResetWindow flushes, then clears the per-window registers on the
// pipe that owns the flow.
func (p *Pipes) ResetWindow(id FlowID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
	p.owner(id).ResetWindow(id)
}

// ReleaseFlow flushes, then releases the flow's cells on the pipe that
// owns it.
func (p *Pipes) ReleaseFlow(id FlowID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
	p.owner(id).ReleaseFlow(id)
}

// ClearCMS flushes, then clears every shard's long-flow sketch.
func (p *Pipes) ClearCMS() { p.onShards((*DataPlane).ClearCMS) }

// AgeFlows flushes, then runs the aging sweep on every shard and
// returns the total number of cells evicted.
func (p *Pipes) AgeFlows(now, window simtime.Time) int {
	evicted := 0
	p.onShards(func(d *DataPlane) { evicted += d.AgeFlows(now, window) })
	return evicted
}

// StatsSnapshot flushes, then returns the pipeline counters summed
// across shards.
func (p *Pipes) StatsSnapshot() Stats {
	var s Stats
	p.onShards(func(d *DataPlane) { s.add(d.Stats) })
	return s
}

// OccupiedCells flushes, then sums flow-table occupancy across shards
// (shard flow sets are disjoint, so the sum is the union's size up to
// per-shard cell aliasing).
func (p *Pipes) OccupiedCells() uint64 {
	var n uint64
	p.onShards(func(d *DataPlane) { n += d.OccupiedCells() })
	return n
}

// EstimateFlow flushes, then answers from the flow's owning shard: the
// partition sends both directions of a key to one shard, so its
// two-tier estimate is the whole-traffic answer.
func (p *Pipes) EstimateFlow(key FlowKey) FlowEstimate {
	f := hashFlow(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
	return p.shards[f.shard(p.n)].estimate(&f)
}

// FlowTableMemoryBytes sums the exact tier's storage footprint across
// shards (fixed at construction, so no barrier).
func (p *Pipes) FlowTableMemoryBytes() uint64 {
	var b uint64
	for _, d := range p.shards {
		b += d.FlowTableMemoryBytes()
	}
	return b
}

// LeanMemoryBytes sums the sketch tier's storage footprint across
// shards.
func (p *Pipes) LeanMemoryBytes() uint64 {
	var b uint64
	for _, d := range p.shards {
		b += d.LeanMemoryBytes()
	}
	return b
}
