//go:build race

package dataplane

import (
	"encoding/binary"
	"hash/crc32"
)

// crcSum under the race detector delegates to the stdlib, whose
// architecture-specific assembly is not race-instrumented — the
// table-driven Go loops in crc_norace.go would pay an instrumented load
// per input byte. The heap escape the stdlib forces on its argument is
// irrelevant here (race builds assert behavior, not allocations; the
// AllocsPerRun tests are !race-gated). crcPair and crc12 are the same
// definitions as the non-race build's, spelled through crcSum
// (TestCRCSumMatchesStdlib pins all three in both builds).
func crcSum(p []byte) uint32 {
	return crc32.Checksum(p, crcTable)
}

func crcPair(k *FlowKey) (fwd, rev FlowID) {
	r := k.Reverse()
	return FlowID(crcSum(k[:])), FlowID(crcSum(r[:]))
}

func crc12(a uint32, b uint64) uint32 {
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:4], a)
	binary.BigEndian.PutUint64(buf[4:12], b)
	return crcSum(buf[:])
}
