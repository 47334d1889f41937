package dataplane

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/packet"
	"repro/internal/tap"
)

// randomTuple derives a deterministic pseudo-random 5-tuple from rng.
func randomTuple(rng *rand.Rand) packet.FiveTuple {
	var src, dst [4]byte
	binary.BigEndian.PutUint32(src[:], rng.Uint32())
	binary.BigEndian.PutUint32(dst[:], rng.Uint32())
	proto := packet.ProtoTCP
	if rng.Intn(2) == 0 {
		proto = packet.ProtoUDP
	}
	return packet.FiveTuple{
		SrcIP:   netip.AddrFrom4(src),
		DstIP:   netip.AddrFrom4(dst),
		SrcPort: uint16(rng.Uint32()),
		DstPort: uint16(rng.Uint32()),
		Proto:   proto,
	}
}

// synthTuple is flow g of replay.Synth's numbering (10.0.x.y ->
// 10.1.x.y, high bits in the source port): consecutive, highly
// structured keys — what the benchmark and the scale sweep hash.
func synthTuple(g int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, byte(g >> 8), byte(g)}),
		DstIP:   netip.AddrFrom4([4]byte{10, 1, byte(g >> 8), byte(g)}),
		SrcPort: uint16(40000 + g>>16),
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
}

// parsed is the view parseCopy builds from a copy of a packet of ft.
func parsed(ft packet.FiveTuple, point tap.CopyPoint) (v view) {
	pkt := packet.NewTCP(ft, 1, 0, packet.FlagACK, 100)
	if ft.Proto == packet.ProtoUDP {
		pkt = packet.NewUDP(ft, 100)
	}
	parseCopy(&v, tap.Copy{Pkt: pkt, Point: point})
	return v
}

// TestCRCSumMatchesStdlib pins every CRC routine of this build (the
// race and the non-race one each run it) to the stdlib Castagnoli
// checksum: the generic loop, the interleaved flow-ID pair, the
// fixed-length signature hash, and the IDs a parsed view carries. Flow
// IDs and signature indexes feed the witness output, so none may ever
// diverge.
func TestCRCSumMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(32))
		rng.Read(buf)
		if got, want := crcSum(buf), crc32.Checksum(buf, crcTable); got != want {
			t.Fatalf("crcSum(%x) = %08x, stdlib %08x", buf, got, want)
		}
	}
	if crcSum(nil) != crc32.Checksum(nil, crcTable) {
		t.Fatal("crcSum(nil) diverges")
	}
	for i := 0; i < 4000; i++ {
		ft := randomTuple(rng)
		if i%2 == 1 {
			ft = synthTuple(i * 37)
		}
		k, r := KeyOf(ft), KeyOf(ft.Reverse())
		wantID := FlowID(crc32.Checksum(k[:], crcTable))
		wantRev := FlowID(crc32.Checksum(r[:], crcTable))
		if id, rev := crcPair(&k); id != wantID || rev != wantRev {
			t.Fatalf("crcPair(%v) = %08x, %08x, stdlib %08x, %08x", ft, id, rev, wantID, wantRev)
		}
		if HashFiveTuple(ft) != wantID || HashReverse(ft) != wantRev {
			t.Fatalf("HashFiveTuple/HashReverse(%v) diverge from stdlib", ft)
		}
		for _, point := range []tap.CopyPoint{tap.Ingress, tap.Egress} {
			v := parsed(ft, point)
			if v.id != wantID || v.revID != wantRev {
				t.Fatalf("parsed %v copy of %v carries %08x, %08x, want %08x, %08x",
					point, ft, v.id, v.revID, wantID, wantRev)
			}
		}
		var buf [12]byte
		word := rng.Uint64() >> uint(rng.Intn(64))
		binary.BigEndian.PutUint32(buf[0:4], uint32(wantID))
		binary.BigEndian.PutUint64(buf[4:12], word)
		if got, want := hash2(wantID, word), crc32.Checksum(buf[:], crcTable); got != want {
			t.Fatalf("hash2(%08x, %x) = %08x, stdlib %08x", wantID, word, got, want)
		}
	}
}

// shardOf is the partition function (flowHash.shard) for a bare key.
func shardOf(k FlowKey, n int) int {
	f := hashFlow(k)
	return f.shard(n)
}

// TestShardChoicePinned pins the partition to its definition: the
// flow ID of the lexicographically smaller of the key and its reverse,
// modulo the pipe count. The sharded goldens depend on these values.
func TestShardChoicePinned(t *testing.T) {
	canonical := func(k FlowKey) FlowKey {
		r := k.Reverse()
		if bytes.Compare(r[:], k[:]) < 0 {
			return r
		}
		return k
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 4000; i++ {
		ft := randomTuple(rng)
		switch i % 4 {
		case 1:
			ft = synthTuple(i)
		case 2:
			ft.DstIP = ft.SrcIP // the ports decide
		case 3:
			ft.DstIP, ft.DstPort = ft.SrcIP, ft.SrcPort // its own reverse
		}
		for _, k := range []FlowKey{KeyOf(ft), KeyOf(ft.Reverse())} {
			for _, n := range []int{2, 3, 4, 8} {
				want := int(uint32(canonical(k).Hash()) % uint32(n))
				v := parsed(k.Tuple(), tap.Ingress)
				if got := v.shard(n); got != want || shardOf(k, n) != want {
					t.Fatalf("key %v at %d shards: view says %d, shardOf %d, definition %d",
						k, n, got, shardOf(k, n), want)
				}
			}
		}
	}
}

// TestFlowKeyTupleRoundTrip pins Tuple as the inverse of KeyOf: the
// long-flow digest rebuilds its 5-tuple from the key.
func TestFlowKeyTupleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		var k FlowKey
		rng.Read(k[:])
		if got := KeyOf(k.Tuple()); got != k {
			t.Fatalf("KeyOf(%v.Tuple()) = %v", k, got)
		}
		if ft := randomTuple(rng); KeyOf(ft).Tuple() != ft {
			t.Fatalf("KeyOf(%v).Tuple() = %v", ft, KeyOf(ft).Tuple())
		}
	}
}

// TestFlowKeyLayout pins the packed wire format: hashes are computed
// over these exact bytes, so the layout is part of the flow-ID
// contract.
func TestFlowKeyLayout(t *testing.T) {
	ft := packet.FiveTuple{
		SrcIP:   packet.MustAddr("10.1.2.3"),
		DstIP:   packet.MustAddr("192.168.254.1"),
		SrcPort: 0x1234,
		DstPort: 0xabcd,
		Proto:   packet.ProtoTCP,
	}
	k := KeyOf(ft)
	want := FlowKey{10, 1, 2, 3, 192, 168, 254, 1, 0x12, 0x34, 0xab, 0xcd, byte(packet.ProtoTCP)}
	if k != want {
		t.Fatalf("KeyOf = %v, want %v", k, want)
	}
	rev := k.Reverse()
	wantRev := FlowKey{192, 168, 254, 1, 10, 1, 2, 3, 0xab, 0xcd, 0x12, 0x34, byte(packet.ProtoTCP)}
	if rev != wantRev {
		t.Fatalf("Reverse = %v, want %v", rev, wantRev)
	}
}

// TestKeyPathsMatchTuplePaths verifies the packed-key fast path agrees
// with the tuple entry points for arbitrary tuples.
func TestKeyPathsMatchTuplePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		ft := randomTuple(rng)
		k := KeyOf(ft)
		if k.Hash() != HashFiveTuple(ft) {
			t.Fatalf("key hash diverges for %v", ft)
		}
		if k.Reverse() != KeyOf(ft.Reverse()) {
			t.Fatalf("key reverse diverges for %v", ft)
		}
		if k.Reverse().Hash() != HashReverse(ft) {
			t.Fatalf("reverse hash diverges for %v", ft)
		}
		if k.Reverse().Reverse() != k {
			t.Fatalf("reverse not involutive for %v", ft)
		}
	}
}

// TestHashCollisionRate is the collision property test: CRC32 over
// random distinct 5-tuples should collide at roughly the birthday
// bound. With n=20000 draws into 2^32 buckets the expectation is
// n^2/2^33 ≈ 0.05 collisions; 10 would mean the hash lost entropy
// (e.g. a packing bug aliasing fields).
func TestHashCollisionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 20000
	seen := make(map[FlowID]FlowKey, n)
	keys := make(map[FlowKey]bool, n)
	collisions := 0
	for len(keys) < n {
		ft := randomTuple(rng)
		k := KeyOf(ft)
		if keys[k] {
			continue // duplicate tuple, not a hash collision
		}
		keys[k] = true
		id := k.Hash()
		if _, dup := seen[id]; dup {
			collisions++
		}
		seen[id] = k
	}
	if collisions > 10 {
		t.Fatalf("%d hash collisions over %d distinct tuples — far above the birthday bound", collisions, n)
	}
}

// TestLongFlowEstimateExactForOwnedCells pins the property longFlowHash
// exists for: flows that hold flow-table cells of their own never share
// row 0 of the long-flow sketch, so every estimate is exact and no flow
// is announced early on a neighbour's bytes. The populations are blocks
// of 1500 consecutively numbered Synth flows with distinct cells — the
// benchmark's report_storm, whose warm-up waits for the flow directory
// to stop growing and ends early if one flow is announced long before
// the rest. The packet path and the CMS wrapper must address the same
// counters.
func TestLongFlowEstimateExactForOwnedCells(t *testing.T) {
	const flows = 1500
	cfg := Config{}.WithDefaults()
	rng := rand.New(rand.NewSource(17))
	for blocks := 0; blocks < 8; {
		base := 1 + rng.Intn(1<<20)
		cells := make(map[uint32]bool, flows)
		for g := base; g < base+flows; g++ {
			cells[uint32(HashFiveTuple(synthTuple(g)))%uint32(cfg.FlowTableSize)] = true
		}
		if len(cells) != flows {
			continue
		}
		blocks++
		d := New(cfg)
		var wire uint64
		for g := base; g < base+flows; g++ {
			pkt := packet.NewTCP(synthTuple(g), 1, 0, packet.FlagACK, 1460)
			wire = uint64(pkt.TotalLen)
			d.ProcessCopy(tap.Copy{Pkt: pkt, Point: tap.Ingress})
		}
		for g := base; g < base+flows; g++ {
			k := KeyOf(synthTuple(g))
			if est := d.cms.s.At(cmsHash(&k)); est != wire {
				t.Fatalf("base %d flow %d: long-flow estimate %d after one %d-byte packet", base, g, est, wire)
			}
		}
	}
}
