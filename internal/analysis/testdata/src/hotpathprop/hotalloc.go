// The allocation half of the hotpathprop fixture: allocation patterns
// inside (and outside) p4:hotpath-annotated functions.
package hotpathprop

import (
	"fmt"
	"net/netip"
)

// Record mimics a per-flow report.
type Record struct {
	Blocks []uint64
	Label  string
}

// badAppendFresh grows a slice that nothing reuses.
//
// p4:hotpath
func badAppendFresh(r *Record, v uint64) []uint64 {
	out := growElsewhere(r.Blocks)
	out = append(out, v)         // self-append into out: accepted idiom
	fresh := append(r.Blocks, v) // want "append without capacity reuse in p4:hotpath function badAppendFresh"
	return fresh
}

func growElsewhere(in []uint64) []uint64 { return in }

// badMapLiteral builds a map per packet.
//
// p4:hotpath
func badMapLiteral(v uint64) int {
	m := map[uint64]int{v: 1} // want "map literal allocation in p4:hotpath function badMapLiteral"
	n := make(map[uint64]int) // want "make.map. allocation in p4:hotpath function badMapLiteral"
	n[v] = 2
	return len(m) + len(n)
}

// badNetipString renders an address per packet.
//
// p4:hotpath
func badNetipString(a netip.Addr) string {
	return a.String() // want "netip String allocation in p4:hotpath function badNetipString"
}

// badSprintf formats per packet.
//
// p4:hotpath
func badSprintf(id uint32) string {
	return fmt.Sprintf("%08x", id) // want "fmt.Sprintf allocation in p4:hotpath function badSprintf"
}

// badLiteralAlloc allocates inside a function literal: the literal runs
// on the packet path when the root invokes it, so the root's contract
// covers its body.
//
// p4:hotpath
func badLiteralAlloc(v uint64) int {
	count := func() int {
		m := make(map[uint64]int) // want "make.map. allocation in p4:hotpath function badLiteralAlloc"
		m[v] = 1
		return len(m)
	}
	return count()
}

// goodSelfAppend is the capacity-reuse idiom: the result feeds back
// into the slice it extends, so growth amortises to zero.
//
// p4:hotpath
func goodSelfAppend(r *Record, v uint64) {
	r.Blocks = append(r.Blocks, v)
}

// goodTrimmedScratch appends into a locally trimmed buffer, the packet
// arena's SACK recycling pattern.
//
// p4:hotpath
func goodTrimmedScratch(r *Record, vs []uint64) {
	buf := r.Blocks[:0]
	buf = append(buf, vs...)
	r.Blocks = buf
}

// goodSliceLiteral builds a small slice literal: it stays on the stack
// when it does not escape (the monitor-table lookup pattern), so the
// pass leaves slice literals alone.
//
// p4:hotpath
func goodSliceLiteral(v uint64) uint64 {
	keys := []uint64{v, v + 1}
	return keys[0] + keys[1]
}

// goodAs4 reads address bytes without rendering.
//
// p4:hotpath
func goodAs4(a netip.Addr) byte {
	b := a.As4()
	return b[0]
}

// goodPanicFormat formats only to die: a panic path aborts the run, so
// its allocations never land on a packet.
//
// p4:hotpath
func goodPanicFormat(v uint64) uint64 {
	if v == 0 {
		panic(fmt.Sprintf("zero value %d", v))
	}
	return v - 1
}

// coldPath is not annotated: the same allocations are fine here.
func coldPath(a netip.Addr, id uint32) string {
	m := map[uint32]string{id: a.String()}
	return fmt.Sprintf("%v", m)
}
