package sketch

import (
	"slices"
	"testing"
)

// dupPair maps a pair number onto a (key, seq): eight flows, so one
// flow's sequence numbers recur across the stream the way a
// connection's do.
func dupPair(p uint16) (Key, uint64) { return keyFor(uint64(p & 7)), uint64(p >> 3) }

// checkDupOps drives a write-behind filter and an eager reference — one
// that does every insert through TestAndSet, as the exact tier did
// before the log — through the same operations and fails on the first
// observable difference: a TestAndSet answer, FPRate, and, after a
// final drain, the bit array and the insert count.
//
// ops is read two bytes at a time, (op, x), against a cursor c that
// counts the pairs inserted so far:
//
//	op&3 == 0  Insert pairs c .. c+x
//	op&3 == 1  TestAndSet pair c-1-x (inserted x+1 pairs ago), or with
//	           op&4 set pair c+x (not inserted yet)
//	op&3 == 2  FPRate
//	op&3 == 3  Clear
//
// The filter is 4096 bits with 3 probes, so false positives are common
// and an answer that depended on a bit set too late would show.
func checkDupOps(t *testing.T, ops []byte) {
	t.Helper()
	f, ref := NewDupFilterBits(12, 3), NewDupFilterBits(12, 3)
	var c uint16
	for i := 0; i+1 < len(ops); i += 2 {
		op, x := ops[i], uint16(ops[i+1])
		switch op & 3 {
		case 0:
			for n := uint16(0); n <= x; n++ {
				k, seq := dupPair(c)
				f.Insert(&k, seq)
				ref.TestAndSet(&k, seq)
				c++
			}
		case 1:
			p := c - 1 - x
			if op&4 != 0 {
				p = c + x
			}
			k, seq := dupPair(p)
			if got, want := f.TestAndSet(&k, seq), ref.TestAndSet(&k, seq); got != want {
				t.Fatalf("op %d: TestAndSet(pair %d) = %v with %d inserts logged, eager filter says %v",
					i/2, p, got, f.logN, want)
			}
		case 2:
			if got, want := f.FPRate(), ref.FPRate(); got != want {
				t.Fatalf("op %d: FPRate = %g with %d inserts logged, eager filter says %g",
					i/2, got, f.logN, want)
			}
		case 3:
			f.Clear()
			ref.Clear()
		}
	}
	f.drain()
	if f.inserts != ref.inserts {
		t.Fatalf("inserts = %d, eager filter counted %d", f.inserts, ref.inserts)
	}
	if !slices.Equal(f.bits, ref.bits) {
		t.Fatal("bit array differs from the eager filter's after the final drain")
	}
}

// TestDupFilterLogMatchesEager runs checkDupOps over a long generated
// interleaving: runs of 1..64 inserts, tests and FPRate reads that find
// the log at whatever level the runs since the last test left it (full
// and drained included, some hundred times), the occasional Clear.
func TestDupFilterLogMatchesEager(t *testing.T) {
	rng := &testRNG{state: 23}
	ops := make([]byte, 0, 40000)
	for len(ops) < cap(ops) {
		r := rng.next()
		switch sel := r & 0xff; {
		case sel < 160: // a run of 1..64 inserts
			ops = append(ops, 0, byte(r>>16)&63)
		case sel < 235:
			ops = append(ops, 1|byte(r>>8)&4, byte(r>>16))
		case sel < 250:
			ops = append(ops, 2, 0)
		default:
			ops = append(ops, 3, 0)
		}
	}
	checkDupOps(t, ops)
}

// FuzzDupFilterLog: under any interleaving of Insert, TestAndSet, Clear
// and FPRate the write-behind filter is indistinguishable from one that
// inserts eagerly. The seed corpus in testdata/fuzz (a plain test under
// `go test`) crosses the log-full boundary, tests and reads FPRate with
// a non-empty log, and clears with a non-empty log.
func FuzzDupFilterLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) { checkDupOps(t, ops) })
}
