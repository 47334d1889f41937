// Package sketch provides the memory-bounded ("lean") telemetry tier:
// count-min sketches with explicit (ε, δ) error bounds for per-flow
// byte, packet and loss counting, plus a Bloom dup-filter that detects
// TCP retransmissions without per-flow sequence state. The structures
// follow Liu et al.'s Lean Algorithms (PAPERS.md): where the exact
// register tier (internal/dataplane) dedicates cells to heavy hitters,
// the lean tier absorbs every other flow — and every evicted flow — in
// O(1/ε · ln 1/δ) memory independent of the flow count.
//
// Every update path is pure array arithmetic over preallocated storage
// (the p4:hotpath contract): no allocation, no locking, no stdlib hash
// interface. A key is hashed once (Key.Hash); every row index of every
// sketch derives from that one word, so the packet path hashes at parse
// and passes the Hash down. Accuracy guarantees, per key k with true
// count a(k) and N total inserted count:
//
//	Estimate(k) ≥ a(k)                               (never undercounts)
//	P[ Estimate(k) > a(k) + ε·N ] ≤ δ                (CMS, Cormode & Muthukrishnan)
//
// The dup filter never misses a duplicate it has admitted (no false
// negatives: nothing clears it); its false positives overcount loss at
// the analytically-computable rate FPRate returns.
//
// The counter rows and the filter's bits come from sram.Words: zero
// pages until written, outside the Go heap, unmapped by a finalizer on
// the CMS or DupFilter that holds them. So no method returns a slice of
// them, and every exported method that reads or writes them either ends
// with runtime.KeepAlive of its receiver or leaves the whole access to
// a method that does.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/sram"
)

// Key is the packed wire-format 5-tuple the sketches index by — the
// same 13-byte layout as dataplane.FlowKey (src IP, dst IP, src port,
// dst port, protocol, network byte order), so the data plane converts
// between the two for free.
type Key [13]byte

// mix64 is the splitmix64 finalizer: an invertible avalanche over one
// 64-bit word. Unlike the CRC32 the exact tier uses for flow IDs, it
// never escapes its argument to an interface, keeping sketch updates
// allocation-free.
//
// p4:hotpath
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash is a key's one 64-bit mix. The data plane computes it once per
// packet, at parse, and every count-min row index in both tiers is
// derived from it (rowWalk).
type Hash uint64

// Hash mixes the key into its Hash.
//
// p4:hotpath
func (k *Key) Hash() Hash { return Hash(k.mix(0)) }

// mix hashes the key under a seed: the 13 bytes load as one 64-bit
// word plus a 40-bit tail, each folded through the splitmix64
// finalizer. The dup filter seeds it with the sequence number.
//
// p4:hotpath
func (k *Key) mix(seed uint64) uint64 {
	lo := binary.LittleEndian.Uint64(k[0:8])
	hi := uint64(k[8]) | uint64(k[9])<<8 | uint64(k[10])<<16 |
		uint64(k[11])<<24 | uint64(k[12])<<32
	x := mix64(lo ^ (seed * 0x9e3779b97f4a7c15))
	return mix64(x ^ hi)
}

// Geometry is a sketch's shape together with the error guarantee it
// delivers. Width and Depth are the physical dimensions; Epsilon and
// Delta are the bound the dimensions actually achieve (which is at
// least as tight as what was requested, since dimensions round up).
type Geometry struct {
	// Width is the number of counters per row: ⌈e/ε⌉ for a requested ε.
	Width int
	// Depth is the number of hash rows: ⌈ln(1/δ)⌉ for a
	// requested δ.
	Depth int
	// Epsilon is the delivered relative error: overcount ≤ ε·N where N
	// is the total count inserted across all keys.
	Epsilon float64
	// Delta is the delivered failure probability of the ε bound for any
	// single query.
	Delta float64
}

// GeometryFor derives the smallest geometry meeting a requested
// (ε, δ) bound: width = ⌈e/ε⌉, depth = ⌈ln(1/δ)⌉.
func GeometryFor(epsilon, delta float64) Geometry {
	if !(epsilon > 0 && epsilon < 1) || math.IsNaN(epsilon) {
		panic(fmt.Sprintf("sketch: epsilon %g out of range (0,1)", epsilon))
	}
	if !(delta > 0 && delta < 1) || math.IsNaN(delta) {
		panic(fmt.Sprintf("sketch: delta %g out of range (0,1)", delta))
	}
	return GeometryOf(int(math.Ceil(math.E/epsilon)), max(1, int(math.Ceil(math.Log(1/delta)))))
}

// GeometryOf is the geometry of given dimensions with the bound they
// deliver: ε = e/width, δ = e^-depth.
func GeometryOf(width, depth int) Geometry {
	return Geometry{
		Width:   width,
		Depth:   depth,
		Epsilon: math.E / float64(width),
		Delta:   math.Exp(-float64(depth)),
	}
}

// CMS is a count-min sketch with its analytical error bound attached.
// Rows are stored flat (depth × width) for cache locality. Row indexes
// are a pure function of the key's Hash and the geometry, so two
// sketches with the same geometry index identically (what lets the
// lean tier's three sketches share one index set per packet, and the
// sharded data plane sum estimates across pipes).
type CMS struct {
	width uint64
	rows  []uint64 // flat: rows[r*width : (r+1)*width]
	total uint64   // total count inserted (the N of the ε·N bound)
	geom  Geometry
}

// NewCMS builds a sketch with the given geometry (use GeometryFor to
// derive one from a requested bound).
func NewCMS(g Geometry) *CMS {
	if g.Width <= 0 || g.Depth <= 0 {
		panic(fmt.Sprintf("sketch: invalid CMS geometry %dx%d", g.Width, g.Depth))
	}
	c := &CMS{width: uint64(g.Width), geom: g}
	c.rows = sram.Words(c, g.Width*g.Depth)
	return c
}

// Geometry returns the sketch's shape and delivered (ε, δ) bound.
func (c *CMS) Geometry() Geometry { return c.geom }

// rowWalk splits a Hash into the Kirsch–Mitzenmacher pair every row
// index derives from: row r hashes to x + r·step (mod 2³²). step is
// odd, hence never zero, so the rows cannot all collapse onto one
// index.
//
// p4:hotpath
func rowWalk(h Hash) (x, step uint32) { return uint32(h), uint32(h>>32) | 1 }

// cell is the flat index of the counter a row hash x selects in the
// row starting at base: a multiply-shift reduction of x onto [0, width).
//
// p4:hotpath
func (c *CMS) cell(base uint64, x uint32) uint64 { return base + (uint64(x)*c.width)>>32 }

// Add adds count to the hashed key's counter in every row and returns
// the key's new estimate.
//
// p4:hotpath
func (c *CMS) Add(h Hash, count uint64) uint64 {
	est := ^uint64(0)
	x, step := rowWalk(h)
	for base := uint64(0); base < uint64(len(c.rows)); base += c.width {
		p := &c.rows[c.cell(base, x)]
		*p += count
		est = min(est, *p)
		x += step
	}
	c.total += count
	runtime.KeepAlive(c)
	return est
}

// At returns the hashed key's count estimate: the minimum across rows.
// Never below the true count; above it by more than ErrorBound with
// probability at most Geometry().Delta.
//
// p4:hotpath
func (c *CMS) At(h Hash) uint64 {
	est := ^uint64(0)
	x, step := rowWalk(h)
	for base := uint64(0); base < uint64(len(c.rows)); base += c.width {
		est = min(est, c.rows[c.cell(base, x)])
		x += step
	}
	runtime.KeepAlive(c)
	return est
}

// Update is Add for a caller holding only the key.
//
// p4:hotpath
func (c *CMS) Update(k *Key, count uint64) { c.Add(k.Hash(), count) }

// Total returns the total count inserted since construction (or the
// last Clear) — the N the ε·N bound scales with.
func (c *CMS) Total() uint64 { return c.total }

// ErrorBound returns the current analytical overcount bound ⌈ε·N⌉:
// any single Estimate exceeds the true count by more than this with
// probability at most Geometry().Delta.
func (c *CMS) ErrorBound() uint64 {
	return uint64(math.Ceil(c.geom.Epsilon * float64(c.total)))
}

// MemoryBytes returns the sketch's counter storage footprint.
func (c *CMS) MemoryBytes() uint64 { return uint64(len(c.rows)) * 8 }

// Clear zeroes every counter and the total. The never-undercount
// property restarts from the clear.
func (c *CMS) Clear() {
	for i := range c.rows {
		c.rows[i] = 0
	}
	c.total = 0
	runtime.KeepAlive(c)
}

// DupFilter is a Bloom filter over (flow key, sequence number) pairs:
// the lean tier's retransmission detector. A TCP data packet whose
// (key, seq) was already admitted is a duplicate — evidence of loss —
// without any per-flow sequence register. No false negatives; false
// positives (spurious loss counts) occur at the rate FPRate computes
// from the actual insert count.
//
// The exact tier's inserts (note) wait longer still. A Bloom insert is
// idempotent and commutative, and only a test or a bit comparison
// observes the array, so each flow-table cell keeps one open run of
// the pairs noted there since the last test — a key, a first sequence
// number, a segment length and a count — and the run's pairs are logged
// only when a pair breaks it, before any test and before a read of the
// bits (settle). A run never holds a pair from before a test, so the
// pairs it logs late are ones eager processing would have set after
// every test already logged: no test can tell.
//
// Logged pairs (inserts and tests whose answer is only counted, test)
// are write-behind: the pair's hash word waits in a small log, in
// arrival order, and is applied when the log fills or before the next
// TestAndSet, whichever comes first; a Lean also applies it before
// every read. Applying the log in order probes exactly what eager
// processing would have, so at every read the bit array, the insert
// count and the counted positives are what eager processing leaves.
type DupFilter struct {
	bits    []uint64
	mask    uint64 // bit-index mask (len(bits)*64 - 1, power of two)
	hashes  int
	inserts uint64
	logN    int                      // hash words waiting in log
	log     [dupLogWords]uint64      // k.mix(seq) of each pending insert or test
	tests   [dupLogWords / 64]uint64 // bit i set: log[i] is a test
	tags    [dupLogWords]Hash        // the tag of a pending test, at its log index
	hits    *CMS                     // counts one at the tag of each positive test

	runs     []dupRun // one per flow-table cell; count 0: no open run
	open     []uint32 // the cells whose run is open, capacity len(runs)
	deferred uint64   // the pairs the open runs hold
}

// dupRun is the open run of one flow-table cell: count pairs of key at
// sequence numbers first, first+step, …, first+(count-1)·step (mod
// 2⁶⁴), noted since the filter's last test and not logged yet.
type dupRun struct {
	first uint64
	count uint32
	step  uint32
	key   Key
}

// dupLogWords is the write-behind log's capacity. Draining probes that
// many pairs in one loop with no branch on the bit array's contents, so
// the cache misses of many packets overlap instead of stalling each
// packet in turn; 256 words (2 KB) is where the measured gain levels
// off.
const dupLogWords = 256

// NewDupFilter sizes a filter for an expected number of inserts at a
// target false-positive rate: m = ⌈-n·ln(p)/ln²2⌉ bits rounded up to a
// power of two, k = round(m/n · ln 2) hash probes.
func NewDupFilter(expectedInserts int, targetFP float64) *DupFilter {
	if expectedInserts <= 0 {
		expectedInserts = 1 << 20
	}
	if !(targetFP > 0 && targetFP < 1) || math.IsNaN(targetFP) {
		panic(fmt.Sprintf("sketch: dup-filter target FP %g out of range (0,1)", targetFP))
	}
	n := float64(expectedInserts)
	mBits := math.Ceil(-n * math.Log(targetFP) / (math.Ln2 * math.Ln2))
	logBits := int(math.Ceil(math.Log2(mBits)))
	if logBits < 9 {
		logBits = 9 // floor: one cache line of bits
	}
	k := int(math.Round(float64(uint64(1)<<logBits) / n * math.Ln2))
	if k < 1 {
		k = 1
	}
	// Cap the derived probe count at 8: beyond that the FP gain is
	// marginal but every TCP data packet pays the extra probes — logged
	// as a test in the sketch tier and as an insert in the exact tier,
	// the drain touches every probed word.
	if k > 8 {
		k = 8
	}
	return NewDupFilterBits(logBits, k)
}

// NewDupFilterBits builds a filter with 2^logBits bits and the given
// probe count directly.
func NewDupFilterBits(logBits, hashes int) *DupFilter {
	if logBits < 6 || logBits > 40 {
		panic(fmt.Sprintf("sketch: dup-filter logBits %d out of range 6..40", logBits))
	}
	if hashes < 1 || hashes > 16 {
		panic(fmt.Sprintf("sketch: dup-filter hashes %d out of range 1..16", hashes))
	}
	size := uint64(1) << logBits
	f := &DupFilter{mask: size - 1, hashes: hashes}
	f.bits = sram.Words(f, int(size/64))
	return f
}

// withCells gives the filter one open run per cell for note.
func (f *DupFilter) withCells(cells int) *DupFilter {
	f.runs = make([]dupRun, cells)
	f.open = make([]uint32, 0, cells)
	return f
}

// note records (k, seq) for a caller that discards the answer: the
// exact tier, whose flow owns flow-table cell cell and whose segment
// starting at seq is length long. The pair counts as an insert at once
// (FPRate is a pure read). It extends the cell's open run when it is
// the run's next pair at the run's length, and is already in the run
// when it is a resend of one at any length; anything else — a gap,
// another length, another key — logs the run and opens a new one with
// the pair. The length only guesses where the next pair will fall, so
// any length leaves the bits eager processing would.
//
// p4:hotpath
func (f *DupFilter) note(cell uint32, k *Key, seq uint64, length uint32) {
	f.inserts++
	r := &f.runs[cell]
	if r.count != 0 && r.key == *k {
		d := seq - r.first
		if d == uint64(r.count)*uint64(r.step) && length == r.step && r.count != math.MaxUint32 {
			r.count++
			f.deferred++
			return
		}
		if r.step != 0 && d%uint64(r.step) == 0 && d/uint64(r.step) < uint64(r.count) {
			return // a resend: its bits are already the run's
		}
	}
	if r.count != 0 {
		f.logRun(r)
	} else {
		f.open = append(f.open, cell)
	}
	*r = dupRun{first: seq, count: 1, step: length, key: *k}
	f.deferred++
}

// logRun logs a run's pairs in order and closes it.
//
// p4:hotpath
func (f *DupFilter) logRun(r *dupRun) {
	f.deferred -= uint64(r.count)
	seq := r.first
	for range r.count {
		f.log[f.logN] = r.key.mix(seq)
		f.logN++
		if f.logN == dupLogWords {
			f.drain()
		}
		seq += uint64(r.step)
	}
	r.count = 0
}

// logRuns logs every open run, cell by cell; the bits a set of
// inserts leaves do not depend on their order.
//
// p4:hotpath
func (f *DupFilter) logRuns() {
	for _, cell := range f.open {
		f.logRun(&f.runs[cell])
	}
	f.open = f.open[:0]
}

// settle logs the open runs and applies the log: what every reader of
// the bit array does first.
//
// p4:hotpath
func (f *DupFilter) settle() {
	if len(f.open) != 0 {
		f.logRuns()
	}
	if f.logN != 0 {
		f.drain()
	}
}

// test records (k, seq) and, if it was already present, counts one in
// the filter's hits sketch at tag: TestAndSet for a caller that only
// counts the positives. The open runs are logged first, so the test
// comes after every pair noted before it. The pair waits in the log and
// counts as an insert at once; whether it was present is decided, and
// counted, when the log drains.
//
// p4:hotpath
func (f *DupFilter) test(k *Key, seq uint64, tag Hash) {
	if len(f.open) != 0 {
		f.logRuns()
	}
	i := f.logN
	f.log[i] = k.mix(seq)
	f.tests[i>>6] |= 1 << (i & 63)
	f.tags[i] = tag
	f.logN++
	f.inserts++
	if f.logN == dupLogWords {
		f.drain()
	}
}

// drain applies every logged pair in log order and empties the log. A
// log of inserts only sets bits, in a loop of unconditional ORs.
// Otherwise every pair is probed, and each test's tag is kept,
// compacted to the front of tags, when all its probes were already set;
// the kept tags are counted after the loop. No branch depends on a word
// either loop loads, so the misses of successive pairs are in flight
// together.
//
// p4:hotpath
func (f *DupFilter) drain() {
	log := f.log[:f.logN]
	f.logN = 0
	if f.tests == [len(f.tests)]uint64{} {
		for _, h1 := range log {
			h2 := mix64(h1) | 1
			for i := 0; i < f.hashes; i++ {
				bit := (h1 + uint64(i)*h2) & f.mask
				f.bits[bit>>6] |= 1 << (bit & 63)
			}
		}
		return
	}
	kept := 0
	for i, h1 := range log {
		f.tags[kept] = f.tags[i]
		kept += int(f.probe(h1) & (f.tests[i>>6] >> (i & 63)))
	}
	f.tests = [len(f.tests)]uint64{}
	for _, tag := range f.tags[:kept] {
		f.hits.Add(tag, 1)
	}
}

// probe sets the probe bits of the pair whose mix is h1 and returns 1
// if every one was already set, else 0: the one test TestAndSet and a
// drain with tests share. Double hashing (Kirsch–Mitzenmacher) derives
// all positions from h1 and one more mix of it. Every store is
// unconditional and the answer is accumulated arithmetically, so
// nothing waits on a branch over a loaded word.
//
// p4:hotpath
func (f *DupFilter) probe(h1 uint64) uint64 {
	h2 := mix64(h1) | 1
	seen := uint64(1)
	for i := 0; i < f.hashes; i++ {
		bit := (h1 + uint64(i)*h2) & f.mask
		w, s := bit>>6, bit&63
		old := f.bits[w]
		seen &= old >> s
		f.bits[w] = old | 1<<s
	}
	return seen & 1
}

// TestAndSet reports whether (k, seq) was already present, inserting
// it either way. The open runs are logged and the log is applied first.
//
// p4:hotpath
func (f *DupFilter) TestAndSet(k *Key, seq uint64) bool {
	f.settle()
	f.inserts++
	seen := f.probe(k.mix(seq)) != 0
	runtime.KeepAlive(f)
	return seen
}

// FPRate returns the analytical false-positive probability at the
// current fill: (1 - e^(-k·n/m))^k with n the actual insert count.
func (f *DupFilter) FPRate() float64 {
	m := float64(f.mask + 1)
	n := float64(f.inserts)
	k := float64(f.hashes)
	return math.Pow(1-math.Exp(-k*n/m), k)
}

// MemoryBytes returns the filter's footprint: the bit array plus the
// write-behind log, its test mask and its tags. The runs are not
// counted: they stand for probes not made yet, one per exact-tier cell,
// not for anything the filter holds.
func (f *DupFilter) MemoryBytes() uint64 {
	return uint64(len(f.bits)+len(f.log)+len(f.tests)+len(f.tags)) * 8
}

// Config parameterises a Lean bundle. The zero value defaults to
// ε = 1e-3 for the counting sketches and a dup filter sized for 4M
// inserts.
type Config struct {
	// Epsilon bounds the byte/packet/loss sketches' overcount: ≤ ε·N
	// with probability ≥ 1-leanDelta per query.
	Epsilon float64
	// DupExpectedInserts sizes the retransmission dup filter for the
	// TCP data packets it is expected to hold. Nothing in the pipeline
	// clears the filter, so it fills for the pipe's life: a design fill,
	// not a per-window budget.
	DupExpectedInserts int
	// Cells is the exact tier's flow-table size: NoteSeq keeps one open
	// run of deferred inserts per cell. Zero leaves NoteSeq unusable.
	Cells int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 1e-3
	}
	if c.DupExpectedInserts == 0 {
		c.DupExpectedInserts = 4 << 20
	}
	return c
}

const (
	// leanDelta is the counting sketches' failure probability δ.
	leanDelta = 0.01
	// dupTargetFP is the dup filter's design false-positive rate at
	// Config.DupExpectedInserts.
	dupTargetFP = 0.01
)

// Lean bundles the lean tier's structures: byte, packet and loss
// sketches sharing one geometry, plus the retransmission dup filter.
// It is what a data-plane pipe updates for every packet the exact
// register tier did not admit, and what evicted exact-tier flows fold
// into. Counting methods take the key's Hash; Observe and Estimate
// also come in a Key form for callers that hold only the key.
type Lean struct {
	bytes, pkts, loss *CMS
	dup               *DupFilter
}

// NewLean builds the bundle (zero-value cfg = package defaults).
func NewLean(cfg Config) *Lean {
	cfg = cfg.withDefaults()
	g := GeometryFor(cfg.Epsilon, leanDelta)
	l := &Lean{
		bytes: NewCMS(g),
		pkts:  NewCMS(g),
		loss:  NewCMS(g),
		dup:   NewDupFilter(cfg.DupExpectedInserts, dupTargetFP).withCells(cfg.Cells),
	}
	l.dup.hits = l.loss
	return l
}

// Geometry returns the counting sketches' shared geometry.
func (l *Lean) Geometry() Geometry { return l.bytes.Geometry() }

// ObserveHash counts one packet of wireBytes for the hashed key. The
// byte and packet sketches share a geometry, so one walk of the rows
// serves both.
//
// p4:hotpath
func (l *Lean) ObserveHash(h Hash, wireBytes uint64) {
	x, step := rowWalk(h)
	for base := uint64(0); base < uint64(len(l.bytes.rows)); base += l.bytes.width {
		i := l.bytes.cell(base, x)
		l.bytes.rows[i] += wireBytes
		l.pkts.rows[i]++
		x += step
	}
	l.bytes.total += wireBytes
	l.pkts.total++
	runtime.KeepAlive(l)
}

// Observe is ObserveHash for a caller holding only the key.
//
// p4:hotpath
func (l *Lean) Observe(k *Key, wireBytes uint64) { l.ObserveHash(k.Hash(), wireBytes) }

// SeenSeq records a TCP data packet's (key, seq) in the dup filter and
// reports whether it was already present — a retransmission (or a
// filter false positive). The deferred inserts are logged first.
//
// p4:hotpath
func (l *Lean) SeenSeq(k *Key, seq uint64) bool {
	return l.dup.TestAndSet(k, seq)
}

// NoteSeq records a TCP data packet's (key, seq) in the dup filter for
// a caller that does not need SeenSeq's answer — the exact tier, which
// counts its own losses but must leave the pair where a later test
// finds it. cell is the flow's flow-table cell (below Config.Cells) and
// length the segment's length, expected ACK minus seq: the insert is
// deferred in the cell's open run until something reads the bits.
//
// p4:hotpath
func (l *Lean) NoteSeq(cell uint32, k *Key, seq uint64, length uint32) {
	l.dup.note(cell, k, seq, length)
	runtime.KeepAlive(l)
}

// TestSeq records a TCP data packet's (key, seq) in the dup filter and,
// if it was already present — a retransmission (or a filter false
// positive) — counts one loss for the hashed key h: SeenSeq plus the
// loss count, write-behind. The deferred inserts are logged first; the
// pair waits in the filter's log and its loss is counted when the log
// drains, which every reader of the loss sketch does first, so no read
// can tell.
//
// p4:hotpath
func (l *Lean) TestSeq(k *Key, seq uint64, h Hash) {
	l.dup.test(k, seq, h)
	runtime.KeepAlive(l)
}

// Fold adds a flow's exact-tier totals into the sketches — the
// eviction path: the flow's history must survive its register cells.
func (l *Lean) Fold(h Hash, bytes, pkts, loss uint64) {
	l.bytes.Add(h, bytes)
	l.pkts.Add(h, pkts)
	l.loss.Add(h, loss)
}

// EstimateHash returns the hashed key's byte, packet and loss
// estimates.
//
// p4:hotpath
func (l *Lean) EstimateHash(h Hash) (bytes, pkts, loss uint64) {
	l.dup.drain()
	bytes, pkts, loss = l.bytes.At(h), l.pkts.At(h), l.loss.At(h)
	runtime.KeepAlive(l)
	return bytes, pkts, loss
}

// Estimate is EstimateHash for a caller holding only the key.
//
// p4:hotpath
func (l *Lean) Estimate(k *Key) (bytes, pkts, loss uint64) { return l.EstimateHash(k.Hash()) }

// Bounds returns the current analytical overcount bounds (⌈ε·N⌉ per
// sketch, each holding with probability ≥ 1-δ).
func (l *Lean) Bounds() (bytes, pkts, loss uint64) {
	l.dup.drain()
	runtime.KeepAlive(l)
	return l.bytes.ErrorBound(), l.pkts.ErrorBound(), l.loss.ErrorBound()
}

// Totals returns each sketch's inserted total (the N of its bound).
func (l *Lean) Totals() (bytes, pkts, loss uint64) {
	l.dup.drain()
	runtime.KeepAlive(l)
	return l.bytes.Total(), l.pkts.Total(), l.loss.Total()
}

// DupFPRate returns the dup filter's analytical false-positive rate at
// its current fill — the rate at which fresh data packets spuriously
// count as losses.
func (l *Lean) DupFPRate() float64 { return l.dup.FPRate() }

// DupLoad returns the dup filter's pairs inserted so far and the pairs
// of them still deferred in open runs — the probes the next test will
// make first. A pure read: it logs no run and drains nothing.
func (l *Lean) DupLoad() (inserts, deferred uint64) { return l.dup.inserts, l.dup.deferred }

// MemoryBytes returns the bundle's total storage footprint.
func (l *Lean) MemoryBytes() uint64 {
	return l.bytes.MemoryBytes() + l.pkts.MemoryBytes() +
		l.loss.MemoryBytes() + l.dup.MemoryBytes()
}

// Equal reports whether two bundles hold the same state: every counter
// and total, every dup-filter bit and the insert count — what feeding
// one packet stream whole, in fronts or per packet must leave equal.
// Both dup filters log their open runs and apply their logs first,
// which no reader can tell.
func (l *Lean) Equal(o *Lean) bool {
	l.dup.settle()
	o.dup.settle()
	eq := l.bytes.equal(o.bytes) && l.pkts.equal(o.pkts) && l.loss.equal(o.loss) &&
		l.dup.hashes == o.dup.hashes && l.dup.inserts == o.dup.inserts &&
		slices.Equal(l.dup.bits, o.dup.bits)
	runtime.KeepAlive(l)
	runtime.KeepAlive(o)
	return eq
}

// equal reports whether two sketches hold the same counters and total.
func (c *CMS) equal(o *CMS) bool { return c.total == o.total && slices.Equal(c.rows, o.rows) }
