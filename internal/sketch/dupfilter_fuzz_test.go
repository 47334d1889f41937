package sketch

import (
	"slices"
	"testing"
)

// dupPair maps a pair number onto a (key, seq): eight flows, so one
// flow's sequence numbers recur across the stream the way a
// connection's do.
func dupPair(p uint16) (Key, uint64) { return keyFor(uint64(p & 7)), uint64(p >> 3) }

// dupTag is the tag a logged test of pair p counts a positive at: one
// per flow, chosen so that in a one-row, eight-column sketch flow p&7
// owns column p&7 (the column is the tag's low 32 bits times the width,
// shifted down 32) and the counters are the flows' positive counts.
func dupTag(p uint16) Hash { return Hash(p&7) << 29 }

// checkDupOps drives a deferring filter and an eager reference — one
// that does every insert and every test through TestAndSet and counts
// each positive test at its tag at once, as the pipeline did before the
// log and the runs — through the same operations and fails on the first
// observable difference: a TestAndSet answer, FPRate, and at every read
// the bit array, the insert count and each tag's count of positives.
//
// ops is read two bytes at a time, (op, x), against a cursor c that
// numbers the pairs warm-inserted in order so far. Pair p is noted at
// cell p&7 with length 1, so each flow's in-order pairs extend the run
// at its own cell.
//
//	op&3 == 0  warm inserts: with op&4 clear, pairs c .. c+x; with op&4
//	           set one pair, shaped by op>>3&3:
//	             0  a resend of pair c-1-x, inside its flow's run unless
//	                the run broke since
//	             1  a gap: pair c+8+x, past segments of its flow never sent
//	             2  pair c at length 0 or 2 (x&1), not its run's length
//	             3  pair c at cell (c+1)&7, another flow's cell: a new key
//	                at a cell with a run, as after a release
//	op&3 == 1  TestAndSet pair c-1-x (inserted x+1 pairs ago), or with
//	           op&4 set pair c+x (not inserted yet); with op&8 set a
//	           logged test of that pair instead, tagged with its flow
//	op&3 == 2  FPRate; with op&8 set also a read: settle, compare state
//	op&3 == 3  nothing
//
// The filter is 4096 bits with 3 probes, so false positives are common
// and an answer that depended on a bit set too late would show.
func checkDupOps(t *testing.T, ops []byte) {
	t.Helper()
	f, ref := NewDupFilterBits(12, 3).withCells(8), NewDupFilterBits(12, 3)
	f.hits = NewCMS(GeometryOf(8, 1))
	var want [8]uint64 // the eager filter's positive tests per flow
	var c uint16
	warm := func(p uint16, cell uint32, length uint32) {
		k, seq := dupPair(p)
		f.note(cell, &k, seq, length)
		ref.TestAndSet(&k, seq)
	}
	same := func(i int) {
		t.Helper()
		var open uint64
		for _, cell := range f.open {
			open += uint64(f.runs[cell].count)
		}
		if open != f.deferred {
			t.Fatalf("op %d: open runs hold %d pairs, deferred count says %d", i/2, open, f.deferred)
		}
		f.settle()
		if f.deferred != 0 || len(f.open) != 0 {
			t.Fatalf("op %d: %d pairs in %d runs still deferred after settle", i/2, f.deferred, len(f.open))
		}
		if f.inserts != ref.inserts {
			t.Fatalf("op %d: inserts = %d, eager filter counted %d", i/2, f.inserts, ref.inserts)
		}
		if !slices.Equal(f.bits, ref.bits) {
			t.Fatalf("op %d: bit array differs from the eager filter's", i/2)
		}
		if !slices.Equal(f.hits.rows, want[:]) {
			t.Fatalf("op %d: positive tests per flow %v, eager filter counted %v", i/2, f.hits.rows, want)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, x := ops[i], uint16(ops[i+1])
		switch op & 3 {
		case 0:
			if op&4 == 0 {
				for n := uint16(0); n <= x; n++ {
					warm(c, uint32(c&7), 1)
					c++
				}
				break
			}
			switch op >> 3 & 3 {
			case 0:
				p := c - 1 - x
				warm(p, uint32(p&7), 1)
			case 1:
				p := c + 8 + x
				warm(p, uint32(p&7), 1)
				c = p + 1
			case 2:
				warm(c, uint32(c&7), uint32(x&1)*2)
				c++
			case 3:
				warm(c, uint32(c+1)&7, 1)
				c++
			}
		case 1:
			p := c - 1 - x
			if op&4 != 0 {
				p = c + x
			}
			k, seq := dupPair(p)
			seen := ref.TestAndSet(&k, seq)
			if op&8 != 0 {
				f.test(&k, seq, dupTag(p))
				if seen {
					want[p&7]++
				}
				break
			}
			if got := f.TestAndSet(&k, seq); got != seen {
				t.Fatalf("op %d: TestAndSet(pair %d) = %v with %d entries logged and %d pairs deferred, eager filter says %v",
					i/2, p, got, f.logN, f.deferred, seen)
			}
			same(i)
		case 2:
			if got, want := f.FPRate(), ref.FPRate(); got != want {
				t.Fatalf("op %d: FPRate = %g with %d entries logged and %d pairs deferred, eager filter says %g",
					i/2, got, f.logN, f.deferred, want)
			}
			if op&8 != 0 {
				same(i)
			}
		}
	}
	same(len(ops))
}

// TestDupFilterLogMatchesEager runs checkDupOps over a long generated
// interleaving: runs of 1..64 in-order warm inserts, single resends,
// gaps, length changes and new keys at a cell, single tests —
// synchronous or logged, of pairs inserted or not — FPRate and full
// reads that find the log at whatever level the runs since the last
// drain left it (full and drained included, some hundred times).
func TestDupFilterLogMatchesEager(t *testing.T) {
	rng := &testRNG{state: 23}
	ops := make([]byte, 0, 40000)
	for len(ops) < cap(ops) {
		r := rng.next()
		switch sel := r & 0xff; {
		case sel < 90: // a run of 1..64 in-order warm inserts
			ops = append(ops, 0, byte(r>>16)&63)
		case sel < 120: // one shaped warm insert
			ops = append(ops, 4|byte(r>>8)&3<<3, byte(r>>16)&15)
		case sel < 200: // a logged test
			ops = append(ops, 9|byte(r>>8)&4, byte(r>>16))
		case sel < 235:
			ops = append(ops, 1|byte(r>>8)&4, byte(r>>16))
		default:
			ops = append(ops, 2|byte(r>>8)&8, 0)
		}
	}
	checkDupOps(t, ops)
}

// FuzzDupFilterLog: under any interleaving of warm inserts (in order,
// resent, past a gap, at another length, another key at a cell), logged
// tests, TestAndSet, FPRate and reads the deferring filter is
// indistinguishable from one that inserts, tests and counts eagerly.
// The seed corpus in testdata/fuzz (a plain test under `go test`)
// crosses the log-full boundary, tests and reads FPRate with pairs
// logged and with runs open, tests a pair still logged or in an open
// run (logged and synchronously), tests one pair twice in one log, and
// breaks runs in each of the four ways. The op-3 bytes in the clear-*
// seeds decode to nothing; their other ops fill the log around them.
func FuzzDupFilterLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) { checkDupOps(t, ops) })
}
