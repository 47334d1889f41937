package sketch

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// testRNG is a deterministic splitmix64 stream so the property trials
// are reproducible run to run.
type testRNG struct{ state uint64 }

func (r *testRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// keyFor derives a distinct 13-byte key from an integer flow index.
func keyFor(i uint64) Key {
	var k Key
	h := mix64(i + 1)
	for b := 0; b < 13; b++ {
		k[b] = byte(h >> (uint(b%8) * 8))
	}
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[2] = byte(i >> 16)
	k[12] = 6
	return k
}

func TestGeometryFor(t *testing.T) {
	g := GeometryFor(0.001, 0.01)
	if g.Width != int(math.Ceil(math.E/0.001)) {
		t.Errorf("width = %d, want ⌈e/ε⌉ = %d", g.Width, int(math.Ceil(math.E/0.001)))
	}
	if g.Depth != int(math.Ceil(math.Log(1/0.01))) {
		t.Errorf("depth = %d, want ⌈ln(1/δ)⌉ = %d", g.Depth, int(math.Ceil(math.Log(1/0.01))))
	}
	// Rounded-up dimensions must deliver a bound at least as tight as
	// requested.
	if g.Epsilon > 0.001 {
		t.Errorf("delivered ε %g looser than requested 0.001", g.Epsilon)
	}
	if g.Delta > 0.01 {
		t.Errorf("delivered δ %g looser than requested 0.01", g.Delta)
	}
	for _, bad := range []float64{0, 1, -0.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GeometryFor(%g, 0.01) did not panic", bad)
				}
			}()
			GeometryFor(bad, 0.01)
		}()
	}
}

// TestCMSNeverUndercounts is the one-sided error property: over seeded
// trials with heavy key skew, no estimate may fall below the true
// count — including after Fold-style bulk adds.
func TestCMSNeverUndercounts(t *testing.T) {
	for trial := uint64(0); trial < 5; trial++ {
		c := NewCMS(GeometryFor(0.01, 0.05))
		rng := &testRNG{state: trial * 7919}
		const flows = 4000
		truth := make(map[uint64]uint64, flows)
		for i := 0; i < 60000; i++ {
			f := rng.next() % flows
			// Zipf-ish skew: low flow indices send most of the traffic.
			count := uint64(40)
			if f < 16 {
				count = 1460
			}
			k := keyFor(f)
			c.Update(&k, count)
			truth[f] += count
		}
		for f, want := range truth {
			k := keyFor(f)
			if got := c.At(k.Hash()); got < want {
				t.Fatalf("trial %d: flow %d estimate %d < true %d", trial, f, got, want)
			}
		}
	}
}

// TestCMSErrorBoundHolds is the (ε, δ) property: the fraction of keys
// whose overcount exceeds the analytical ⌈ε·N⌉ bound must stay within
// the delivered δ, over seeded trials.
func TestCMSErrorBoundHolds(t *testing.T) {
	for trial := uint64(0); trial < 5; trial++ {
		c := NewCMS(GeometryFor(0.01, 0.05))
		rng := &testRNG{state: 1 + trial*104729}
		const flows = 5000
		truth := make(map[uint64]uint64, flows)
		for i := 0; i < 100000; i++ {
			f := rng.next() % flows
			k := keyFor(f)
			c.Update(&k, 1)
			truth[f]++
		}
		bound := c.ErrorBound()
		if bound == 0 {
			t.Fatal("zero error bound after inserts")
		}
		violations := 0
		for f, want := range truth {
			k := keyFor(f)
			if c.At(k.Hash()) > want+bound {
				violations++
			}
		}
		frac := float64(violations) / float64(len(truth))
		if delta := c.Geometry().Delta; frac > delta {
			t.Errorf("trial %d: bound violated for %.4f of keys, want ≤ δ = %.4f",
				trial, frac, delta)
		}
	}
}

// synthKey is flow g of replay.Synth's numbering (10.0.x.y -> 10.1.x.y,
// high bits in the source port, destination port 5201): consecutive,
// highly structured keys — the population the benchmark and the scale
// sweep put through the sketches.
func synthKey(g int) Key {
	port := uint16(40000 + g>>16)
	return Key{10, 0, byte(g >> 8), byte(g), 10, 1, byte(g >> 8), byte(g),
		byte(port >> 8), byte(port), 5201 >> 8, 5201 & 0xff, 6}
}

// rowGeometries are the two count-min shapes the data plane runs: the
// long-flow detector's 8192×4 and the lean tier's default.
func rowGeometries() []Geometry {
	return []Geometry{GeometryOf(8192, 4), NewLean(Config{}).Geometry()}
}

// TestCMSDerivedRowsHoldTheBound checks the (ε, δ) statement for rows
// that are all derived from one hash (DESIGN.md §5.8), on the keys
// least like random ones: 200k consecutively numbered Synth flows, one
// in a thousand a thousand times heavier than the rest. No estimate
// may undercount, and the overcount may exceed ⌈ε·N⌉ for at most δ of
// the keys.
func TestCMSDerivedRowsHoldTheBound(t *testing.T) {
	const flows = 200_000
	count := func(g int) uint64 {
		if g%1000 == 0 {
			return 1000
		}
		return 1
	}
	for _, g := range rowGeometries() {
		c := NewCMS(g)
		for f := 0; f < flows; f++ {
			k := synthKey(f)
			c.Update(&k, count(f))
		}
		bound, over := c.ErrorBound(), 0
		for f := 0; f < flows; f++ {
			k := synthKey(f)
			switch est := c.At(k.Hash()); {
			case est < count(f):
				t.Fatalf("%dx%d: flow %d estimate %d < true %d", g.Width, g.Depth, f, est, count(f))
			case est > count(f)+bound:
				over++
			}
		}
		if frac := float64(over) / flows; frac > g.Delta {
			t.Errorf("%dx%d: overcount beyond ⌈ε·N⌉ = %d for %.5f of keys, want ≤ δ = %.5f",
				g.Width, g.Depth, bound, frac, g.Delta)
		}
	}
}

// TestCMSRowsPairwiseSpread is the Kirsch–Mitzenmacher degeneracy
// guard: were the step between rows ever zero (or the reduction blind
// to it), two rows would send every key to the same column and the
// sketch would have fewer rows than it stores. Any two rows must agree
// on about 1/width of the keys, and each row must use its whole width.
func TestCMSRowsPairwiseSpread(t *testing.T) {
	const flows = 200_000
	for _, g := range rowGeometries() {
		c := NewCMS(g)
		agree := make([][]int, g.Depth)
		used := make([]map[uint64]bool, g.Depth)
		for r := range agree {
			agree[r], used[r] = make([]int, g.Depth), map[uint64]bool{}
		}
		col := make([]uint64, g.Depth)
		for f := 0; f < flows; f++ {
			k := synthKey(f)
			x, step := rowWalk(k.Hash())
			if step%2 == 0 {
				t.Fatalf("flow %d: even row step %d", f, step)
			}
			for r := range col {
				col[r] = c.cell(0, x)
				used[r][col[r]] = true
				x += step
				for q := 0; q < r; q++ {
					if col[q] == col[r] {
						agree[q][r]++
					}
				}
			}
		}
		for r := 0; r < g.Depth; r++ {
			if len(used[r]) != g.Width {
				t.Errorf("%dx%d: row %d uses %d of %d columns", g.Width, g.Depth, r, len(used[r]), g.Width)
			}
			for q := 0; q < r; q++ {
				if limit := 3 * flows / g.Width; agree[q][r] > limit {
					t.Errorf("%dx%d: rows %d and %d agree on %d of %d keys, want about %d (limit %d)",
						g.Width, g.Depth, q, r, agree[q][r], flows, flows/g.Width, limit)
				}
			}
		}
	}
}

// TestCMSTotalAndClear pins the bound's N bookkeeping and the clear
// semantics.
func TestCMSTotalAndClear(t *testing.T) {
	c := NewCMS(Geometry{Width: 64, Depth: 2, Epsilon: math.E / 64, Delta: math.Exp(-2)})
	k := keyFor(1)
	c.Update(&k, 100)
	c.Update(&k, 23)
	if c.Total() != 123 {
		t.Errorf("Total = %d, want 123", c.Total())
	}
	if got := c.At(k.Hash()); got < 123 {
		t.Errorf("Estimate = %d, want ≥ 123", got)
	}
	wantBound := uint64(math.Ceil(math.E / 64 * 123))
	if c.ErrorBound() != wantBound {
		t.Errorf("ErrorBound = %d, want %d", c.ErrorBound(), wantBound)
	}
	if c.MemoryBytes() != 64*2*8 {
		t.Errorf("MemoryBytes = %d, want %d", c.MemoryBytes(), 64*2*8)
	}
	c.Clear()
	if c.Total() != 0 || c.At(k.Hash()) != 0 || c.ErrorBound() != 0 {
		t.Errorf("Clear left state: total %d est %d bound %d",
			c.Total(), c.At(k.Hash()), c.ErrorBound())
	}
}

// TestDupFilterNeverMissesDuplicate: every admitted (key, seq) pair
// must test positive on re-probe — a retransmission is never missed
// while the filter is unCleared.
func TestDupFilterNeverMissesDuplicate(t *testing.T) {
	f := NewDupFilter(100000, 0.01)
	rng := &testRNG{state: 42}
	type pair struct {
		flow uint64
		seq  uint64
	}
	inserted := make([]pair, 0, 50000)
	for i := 0; i < 50000; i++ {
		p := pair{flow: rng.next() % 1000, seq: rng.next()}
		k := keyFor(p.flow)
		f.TestAndSet(&k, p.seq)
		inserted = append(inserted, p)
	}
	for _, p := range inserted {
		k := keyFor(p.flow)
		if !f.TestAndSet(&k, p.seq) {
			t.Fatalf("admitted pair (%d, %d) tested negative", p.flow, p.seq)
		}
	}
}

// TestDupFilterPositionsPinned pins the bit positions the default dup
// filter probes for a (key, seq) pair, recorded before the count-min
// rows moved to a shared hash: the benchmark's golden loss counts are
// this filter's false positives, so no probe may move.
func TestDupFilterPositionsPinned(t *testing.T) {
	keys := []Key{
		{10, 0, 0, 1, 10, 1, 0, 1, 0x9c, 0x40, 0x14, 0x51, 6},
		{10, 1, 0, 1, 10, 0, 0, 1, 0x14, 0x51, 0x9c, 0x40, 6},
		{172, 16, 0, 10, 192, 168, 1, 10, 0x9c, 0x40, 0x14, 0x51, 6},
		{},
		{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 17},
	}
	for _, tc := range []struct {
		key  int
		seq  uint64
		bits []uint64
	}{
		{0, 0x0, []uint64{66799038, 60437727, 54076416, 47715105, 41353794, 34992483, 28631172, 22269861}},
		{0, 0x1, []uint64{10140962, 25831125, 41521288, 57211451, 5792750, 21482913, 37173076, 52863239}},
		{0, 0x5a9, []uint64{57071048, 20015245, 50068306, 13012503, 43065564, 6009761, 36062822, 66115883}},
		{0, 0xffffffffffffffff, []uint64{46396810, 43983121, 41569432, 39155743, 36742054, 34328365, 31914676, 29500987}},
		{1, 0x1, []uint64{1237511, 12009222, 22780933, 33552644, 44324355, 55096066, 65867777, 9530624}},
		{1, 0x100000000, []uint64{33169806, 12942527, 59824112, 39596833, 19369554, 66251139, 46023860, 25796581}},
		{2, 0x5a9, []uint64{18086210, 63090203, 40985332, 18880461, 63884454, 41779583, 19674712, 64678705}},
		{3, 0x0, []uint64{0, 1, 2, 3, 4, 5, 6, 7}},
		{3, 0x1, []uint64{54318271, 16928034, 46646661, 9256424, 38975051, 1584814, 31303441, 61022068}},
		{4, 0x100000000, []uint64{15876419, 11086766, 6297113, 1507460, 63826671, 59037018, 54247365, 49457712}},
	} {
		l := NewLean(Config{})
		if l.SeenSeq(&keys[tc.key], tc.seq) {
			t.Fatalf("key %d seq %#x: fresh filter reports a duplicate", tc.key, tc.seq)
		}
		var got []uint64
		for w, word := range l.dup.bits {
			for ; word != 0; word &= word - 1 {
				got = append(got, uint64(w)*64+uint64(bits.TrailingZeros64(word)))
			}
		}
		want := slices.Clone(tc.bits)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("key %d seq %#x: probed bits %v, pinned %v", tc.key, tc.seq, got, want)
		}
	}
}

// TestDupFilterFPRate: the measured false-positive fraction on fresh
// pairs must stay near the analytical FPRate (2x slack plus an
// absolute floor absorbs trial variance).
func TestDupFilterFPRate(t *testing.T) {
	f := NewDupFilter(100000, 0.01)
	rng := &testRNG{state: 7}
	for i := 0; i < 100000; i++ {
		k := keyFor(rng.next() % 2000)
		f.TestAndSet(&k, rng.next()|1<<40) // seq space A
	}
	if a := f.FPRate(); a <= 0 || a >= 0.1 {
		t.Fatalf("analytical FP rate %g implausible for design point", a)
	}
	const probes = 50000
	fp := 0
	for i := 0; i < probes; i++ {
		k := keyFor(rng.next() % 2000)
		// Disjoint seq space: every probe pair is fresh, so a positive
		// test is a false positive (the probe's own insert then raises
		// the fill, which the final-fill analytical rate accounts for).
		seq := rng.next() | 1<<41
		if f.TestAndSet(&k, seq&^(1<<40)) {
			fp++
		}
	}
	measured := float64(fp) / probes
	// Every probe ran at or below the final fill, so the final-fill
	// analytical rate (plus statistical slack) upper-bounds the
	// measured fraction.
	if analytical := f.FPRate(); measured > 2*analytical+0.005 {
		t.Errorf("measured FP rate %.5f far above final-fill analytical %.5f", measured, analytical)
	}
}

// TestLeanFoldAndEstimate drives the bundle API end to end: live
// observes plus an eviction fold, then never-undercount and bound
// checks per flow.
func TestLeanFoldAndEstimate(t *testing.T) {
	l := NewLean(Config{Epsilon: 0.01, DupExpectedInserts: 1 << 16})
	rng := &testRNG{state: 99}
	const flows = 2000
	truthBytes := make([]uint64, flows)
	truthPkts := make([]uint64, flows)
	truthLoss := make([]uint64, flows)
	seen := make([]uint64, flows) // bit s: seq s sent
	for i := 0; i < 40000; i++ {
		f := rng.next() % flows
		k := keyFor(f)
		l.Observe(&k, 1500)
		truthBytes[f] += 1500
		truthPkts[f]++
		seq := rng.next() % 64 // heavy seq reuse → real duplicates
		if seen[f]&(1<<seq) != 0 {
			truthLoss[f]++ // dup filter has no false negatives, so the estimate is exact-or-over
		}
		seen[f] |= 1 << seq
		l.TestSeq(&k, seq, k.Hash())
	}
	// Eviction fold: flow 0 arrives with an exact history.
	k0 := keyFor(0)
	l.Fold(k0.Hash(), 1<<20, 700, 3)
	truthBytes[0] += 1 << 20
	truthPkts[0] += 700
	truthLoss[0] += 3

	bBound, pBound, _ := l.Bounds()
	if bBound == 0 || pBound == 0 {
		t.Fatal("zero bounds after traffic")
	}
	violB, violP := 0, 0
	for f := uint64(0); f < flows; f++ {
		k := keyFor(f)
		eb, ep, el := l.Estimate(&k)
		if eb < truthBytes[f] || ep < truthPkts[f] || el < truthLoss[f] {
			t.Fatalf("flow %d undercount: est (%d,%d,%d) truth (%d,%d,%d)",
				f, eb, ep, el, truthBytes[f], truthPkts[f], truthLoss[f])
		}
		if eb > truthBytes[f]+bBound {
			violB++
		}
		if ep > truthPkts[f]+pBound {
			violP++
		}
	}
	delta := l.Geometry().Delta
	if frac := float64(violB) / flows; frac > delta {
		t.Errorf("byte bound violated for %.4f of flows, want ≤ %.4f", frac, delta)
	}
	if frac := float64(violP) / flows; frac > delta {
		t.Errorf("pkt bound violated for %.4f of flows, want ≤ %.4f", frac, delta)
	}
	if l.MemoryBytes() == 0 {
		t.Error("MemoryBytes = 0")
	}
	if l.DupFPRate() <= 0 {
		t.Error("DupFPRate = 0 after inserts")
	}
}

// TestLeanDefaults pins the zero-config defaults' derived geometry.
func TestLeanDefaults(t *testing.T) {
	l := NewLean(Config{})
	g := l.Geometry()
	if g.Epsilon > 1e-3 || g.Delta > 0.01 {
		t.Errorf("default geometry (ε=%g, δ=%g) looser than documented ε=1e-3, δ=0.01",
			g.Epsilon, g.Delta)
	}
	// Three counting sketches at the default geometry stay well under a
	// megabyte per pipe — the bounded-memory story.
	if got := l.bytes.MemoryBytes() * 3; got > 1<<20 {
		t.Errorf("default counting sketches use %d bytes, want < 1 MiB", got)
	}
}
