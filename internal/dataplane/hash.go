package dataplane

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"net/netip"

	"repro/internal/packet"
	"repro/internal/sketch"
)

// FlowID is the hash of a flow's 5-tuple — the identity the data plane
// reports to the control plane (§4).
type FlowID uint32

// crcTable mirrors the CRC32 polynomial Tofino's hash engines commonly
// use (Castagnoli). crcSum (crc_norace.go / crc_race.go) hashes with it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FlowKey is the wire-format 5-tuple as the parser extracts it: source
// IP, destination IP, source port, destination port, protocol — 13 bytes
// in network byte order. It is a comparable array, so it works as a map
// key, and the per-packet pipeline packs and hashes it exactly once, at
// parse (flowHash.hash).
type FlowKey [13]byte

// KeyOf packs a 5-tuple into its wire-format key.
//
// p4:hotpath
func KeyOf(ft packet.FiveTuple) FlowKey {
	var k FlowKey
	k.pack(ft.SrcIP, ft.DstIP, ft.SrcPort, ft.DstPort, ft.Proto)
	return k
}

// pack fills the key in place from the header fields. The parser packs
// straight from the packet into the view and hashes from there
// (flowHash.hash): no FiveTuple is built in between, its stores are the
// widths the hash routines load, and no copy of the key sits between
// the two, so the loads forward from the store buffer.
//
// p4:hotpath
func (k *FlowKey) pack(srcIP, dstIP netip.Addr, srcPort, dstPort uint16, proto packet.Proto) {
	src, dst := srcIP.As4(), dstIP.As4()
	binary.LittleEndian.PutUint64(k[0:8],
		uint64(binary.LittleEndian.Uint32(src[:]))|uint64(binary.LittleEndian.Uint32(dst[:]))<<32)
	binary.BigEndian.PutUint32(k[8:12], uint32(srcPort)<<16|uint32(dstPort))
	k[12] = uint8(proto)
}

// Tuple unpacks the key: the inverse of KeyOf.
func (k FlowKey) Tuple() packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   netip.AddrFrom4([4]byte(k[0:4])),
		DstIP:   netip.AddrFrom4([4]byte(k[4:8])),
		SrcPort: binary.BigEndian.Uint16(k[8:10]),
		DstPort: binary.BigEndian.Uint16(k[10:12]),
		Proto:   packet.Proto(k[12]),
	}
}

// Reverse returns the key with source and destination fields swapped —
// byte-identical to KeyOf(ft.Reverse()), without touching netip.
//
// p4:hotpath
func (k FlowKey) Reverse() FlowKey {
	var r FlowKey
	copy(r[0:4], k[4:8])    // src IP <- dst IP
	copy(r[4:8], k[0:4])    // dst IP <- src IP
	copy(r[8:10], k[10:12]) // src port <- dst port
	copy(r[10:12], k[8:10]) // dst port <- src port
	r[12] = k[12]
	return r
}

// reverses reports whether k is o with source and destination swapped
// (k == o.Reverse()), comparing word against rotated word so the packet
// path never builds the reversed key.
//
// p4:hotpath
func (k *FlowKey) reverses(o *FlowKey) bool {
	return binary.LittleEndian.Uint64(k[0:8]) == bits.RotateLeft64(binary.LittleEndian.Uint64(o[0:8]), 32) &&
		binary.LittleEndian.Uint32(k[8:12]) == bits.RotateLeft32(binary.LittleEndian.Uint32(o[8:12]), 16) &&
		k[12] == o[12]
}

// Hash computes the flow ID exactly as the paper's pipeline does: a CRC
// hash over the packed 5-tuple.
//
// p4:hotpath
func (k FlowKey) Hash() FlowID {
	return FlowID(crcSum(k[:]))
}

// HashFiveTuple computes the flow ID from a 5-tuple: a CRC hash over
// source IP, destination IP, source port, destination port and protocol.
func HashFiveTuple(ft packet.FiveTuple) FlowID {
	return KeyOf(ft).Hash()
}

// HashReverse computes the "reversed ID": the hash with the source and
// destination fields swapped. The data plane uses it to find the flow
// an acknowledgment belongs to (§4).
func HashReverse(ft packet.FiveTuple) FlowID {
	return KeyOf(ft).Reverse().Hash()
}

// hash2 combines a flow ID with a second word (an expected ACK number,
// an IP ID) into a register index, the way the pipeline builds the
// packet signatures of Algorithm 1: a CRC over the 12 bytes
// big-endian(id) ‖ big-endian(v).
//
// p4:hotpath
func hash2(id FlowID, v uint64) uint32 { return crc12(uint32(id), v) }

// flowHash is a flow key together with everything the pipeline ever
// hashes from it, computed in one place (hash) once per packet or per
// control-plane query: the paper's parser computes a flow's
// identity once and every later stage reuses it.
type flowHash struct {
	key FlowKey
	// id and revID are the CRC flow IDs of the key and of its reverse
	// (FlowKey.Hash / HashReverse). They choose the register cell and
	// the shard and seed the signature indexes.
	id, revID FlowID
	// h is the key's 64-bit mix: every count-min row index, in the
	// long-flow sketch (through longFlowHash) and in the lean tier,
	// derives from it.
	h sketch.Hash
}

// longFlowHash is the Hash the long-flow sketch is addressed by: the
// key's mix h with its low word, where the row walk starts, replaced by
// the flow ID bit-reversed. The sketch's multiply-shift reduction keeps
// a word's top bits, so row 0 is indexed by the ID's low bits — the
// bits that pick the register cell. Flows that hold cells of their own
// therefore never share row 0 (at any power-of-two width the table size
// divides; the defaults are 8192 and 2048), their estimates are exact,
// and each is announced by the packet that takes it over the threshold.
// With every row drawn from the mix, one or two of 1500 equal flows
// share all four rows with others and are announced at half the volume,
// long before the rest; the paper's sketch rows are CRC units, which
// keep closely numbered keys apart the same way.
//
// p4:hotpath
func longFlowHash(id FlowID, h sketch.Hash) sketch.Hash {
	return h&^math.MaxUint32 | sketch.Hash(bits.Reverse32(uint32(id)))
}

// hash fills in the hashes of f.key.
//
// p4:hotpath
func (f *flowHash) hash() {
	f.id, f.revID = crcPair(&f.key)
	f.h = f.key.sketchKey().Hash()
}

// hashFlow hashes a packed key.
func hashFlow(k FlowKey) flowHash {
	f := flowHash{key: k}
	f.hash()
	return f
}

// sketchKey views the key as the sketch package's key type (the same
// 13 bytes).
//
// p4:hotpath
func (k *FlowKey) sketchKey() *sketch.Key { return (*sketch.Key)(k) }

// shard is the partition function: the flow ID of the canonical
// direction — the lexicographically smaller of the key and its reverse
// — modulo the pipe count. Both directions of a flow share it, so a
// flow's data and its ACK stream land on the same pipe (Algorithm 1
// stores eACK state under the reversed ID and the ACK must find it).
//
// p4:hotpath
func (f *flowHash) shard(n int) int {
	k, id := &f.key, f.id
	src, dst := binary.BigEndian.Uint32(k[0:4]), binary.BigEndian.Uint32(k[4:8])
	if src > dst || (src == dst && binary.BigEndian.Uint16(k[8:10]) > binary.BigEndian.Uint16(k[10:12])) {
		id = f.revID
	}
	return int(uint32(id) % uint32(n))
}
