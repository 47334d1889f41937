//go:build !race

package dataplane

import (
	"encoding/binary"
	"math/bits"
)

// crcSlicing extends crcTable to the slicing-by-8 form: table j maps a
// byte to its CRC contribution from j positions further into the
// message, so one step folds 8 (or 4) input bytes with independent
// table loads instead of dependent byte steps. Built once at init from
// the same Castagnoli polynomial; bit-identical output
// (TestCRCSumMatchesStdlib pins it).
var crcSlicing = func() [8][256]uint32 {
	var t [8][256]uint32
	copy(t[0][:], crcTable[:])
	for i := 0; i < 256; i++ {
		crc := t[0][i]
		for j := 1; j < 8; j++ {
			crc = t[0][byte(crc)] ^ (crc >> 8)
			t[j][i] = crc
		}
	}
	return t
}()

// fold8 advances a CRC state over 8 message bytes: lo is the state
// XORed with the first four (little-endian), hi the next four.
//
// p4:hotpath
func fold8(lo, hi uint32) uint32 {
	return crcSlicing[7][byte(lo)] ^
		crcSlicing[6][byte(lo>>8)] ^
		crcSlicing[5][byte(lo>>16)] ^
		crcSlicing[4][byte(lo>>24)] ^
		crcSlicing[3][byte(hi)] ^
		crcSlicing[2][byte(hi>>8)] ^
		crcSlicing[1][byte(hi>>16)] ^
		crcSlicing[0][byte(hi>>24)]
}

// fold4 advances a CRC state over 4 message bytes already XORed into it.
//
// p4:hotpath
func fold4(x uint32) uint32 {
	return crcSlicing[3][byte(x)] ^
		crcSlicing[2][byte(x>>8)] ^
		crcSlicing[1][byte(x>>16)] ^
		crcSlicing[0][byte(x>>24)]
}

// crcSum computes crc32.Checksum(p, crcTable) with a slicing-by-8 main
// loop and a table-driven tail. The stdlib entry point leaks its
// argument to escape analysis, which would move every packed key to the
// heap; the local loop keeps the hash input on the stack.
//
// p4:hotpath
func crcSum(p []byte) uint32 {
	crc := ^uint32(0)
	for len(p) >= 8 {
		crc = fold8(crc^binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
	}
	for _, b := range p {
		crc = crcTable[byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// crcPair is crcSum of a flow key and of its reverse — the flow ID and
// the reversed ID — as two interleaved chains of three dependent steps
// each (addresses, ports, protocol) instead of two passes of six: the
// reverse key's words are the forward key's, swapped.
//
// p4:hotpath
func crcPair(k *FlowKey) (fwd, rev FlowID) {
	src, dst := binary.LittleEndian.Uint32(k[0:4]), binary.LittleEndian.Uint32(k[4:8])
	ports := binary.LittleEndian.Uint32(k[8:12])
	f := fold4(fold8(^src, dst) ^ ports)
	r := fold4(fold8(^dst, src) ^ bits.RotateLeft32(ports, 16))
	f = crcTable[byte(f)^k[12]] ^ (f >> 8)
	r = crcTable[byte(r)^k[12]] ^ (r >> 8)
	return FlowID(^f), FlowID(^r)
}

// crc12 is crcSum of the 12 bytes big-endian(a) ‖ big-endian(b), the
// signature-index input of hash2, in two dependent steps straight from
// the words.
//
// p4:hotpath
func crc12(a uint32, b uint64) uint32 {
	return ^fold4(fold8(^bits.ReverseBytes32(a), bits.ReverseBytes32(uint32(b>>32))) ^
		bits.ReverseBytes32(uint32(b)))
}
