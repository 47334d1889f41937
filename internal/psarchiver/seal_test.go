package psarchiver

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"repro/internal/controlplane"
)

// sealedValues indexes one value column at every segment size, 16 to
// 1024 documents, then one document more, which seals the last of them.
// Document d of the j-th segment holds words[(d+j) % len(words)], so a
// column repeats its words and where its first non-zero falls moves from
// segment to segment; every third document is one a caller built
// without NewDocument, so the flags vary too. It returns the index and
// each sealed segment's words.
func sealedValues(words []uint64) (*index, [][]uint64) {
	value := controlplane.LookupField("value")
	s := NewStore()
	var cols [][]uint64
	for size := minSegmentDocs; size <= maxSegmentDocs; size *= 2 {
		col := make([]uint64, size)
		for d := range col {
			col[d] = words[(d+len(cols))%len(words)]
			var r controlplane.Report
			value.SetWord(&r, col[d])
			doc := NewDocument(r, nil)
			if d%3 == 0 {
				doc = Document{Report: r}
			}
			s.Index("f", doc)
		}
		cols = append(cols, col)
	}
	s.Index("f", NewDocument(controlplane.Report{}, nil))
	return s.indices["f"], cols
}

// wordBytes reads b as little-endian words, a short tail padded with
// zeros, at most max of them.
func wordBytes(b []byte, max int) []uint64 {
	var out []uint64
	for len(b) > 0 && len(out) < max {
		var w [8]byte
		b = b[copy(w[:], b):]
		out = append(out, binary.LittleEndian.Uint64(w[:]))
	}
	return out
}

func bytesOfWords(words ...uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// spread returns n distinct words from base, less than 1<<width above
// it.
func spread(base uint64, n, width int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + (uint64(i)*0x9e3779b97f4a7c15)>>(64-width)
	}
	return out
}

// sealSeeds is one input per encoding a sealed column can take.
func sealSeeds() map[string][]byte {
	seeds := map[string][]byte{
		"constant −0.0": bytesOfWords(math.Float64bits(math.Copysign(0, -1))),
		"table of 2":    bytesOfWords(0, 1<<40),
		"table of 3":    bytesOfWords(0, 1<<40, 1<<50),
		"table of 5":    bytesOfWords(0, 1<<63, 0x7ff8000000000001, 0xfff0000000000001, ^uint64(0)),
		"table of 256":  bytesOfWords(spread(0x4000000000000000, 256, 60)...),
		"257, raw":      bytesOfWords(spread(0x4000000000000000, 257, 60)...),
		"raw with ^0":   bytesOfWords(append(spread(1, 299, 63), ^uint64(0))...),
	}
	for _, width := range []int{1, 2, 4, 8} {
		seeds["frame of reference "+string(rune('0'+width))] = bytesOfWords(1000, 1000+1<<width-1)
	}
	// Past 8 bits a table is tried, so only more than 256 distinct words
	// keep frame-of-reference codes.
	seeds["frame of reference 16"] = bytesOfWords(spread(5, 300, 16)...)
	seeds["frame of reference 32"] = bytesOfWords(spread(1<<62, 300, 32)...)
	return seeds
}

// FuzzSealColumn holds every sealed column to the words its open column
// held: each input, read as up to 300 words, becomes the value column of
// segments of 16 to 1024 documents (sealedValues). Once they are sealed,
// every document reads back its exact word and flags (−0.0, NaN
// payloads, ^uint64(0) and 0, which reads absent, included), mayHold
// rules out none of the column's words, and index.bytes is what the
// sealed segments' packed words and the open segment's columns (8 B per
// word, flags included) take, no more and no less.
func FuzzSealColumn(f *testing.F) {
	for _, seed := range sealSeeds() {
		f.Add(seed)
	}
	value := controlplane.LookupField("value")
	f.Fuzz(func(t *testing.T, in []byte) {
		words := wordBytes(in, 300)
		if len(words) == 0 {
			return
		}
		ix, cols := sealedValues(words)
		if len(ix.segs) != len(cols)+1 {
			t.Fatalf("%d segments, want %d", len(ix.segs), len(cols)+1)
		}
		c := cursor{ix: ix}
		packed := 0
		for j, col := range cols {
			seg := ix.segs[j]
			if seg.open != nil || seg.n != len(col) {
				t.Fatalf("segment %d: sealed %v, %d documents, want %d", j, seg.open == nil, seg.n, len(col))
			}
			c.enter(seg)
			for d, w := range col {
				c.i = d
				if got := c.word(value); got != w {
					t.Fatalf("segment %d document %d: word %#x, stored %#x", j, d, got, w)
				}
				if fl, want := c.column(flagSlot)[d], flagTime; (fl == want) != (d%3 != 0) {
					t.Fatalf("segment %d document %d: flags %#x", j, d, fl)
				}
			}
			held := map[uint64]bool{}
			for _, w := range col {
				held[w] = true
			}
			for w := range held {
				if !seg.mayHold(value.Pos(), func(x uint64) bool { return x == w }) {
					t.Fatalf("segment %d: mayHold rules out %#x, which the column holds", j, w)
				}
			}
			packed += 8 * len(seg.data)
		}
		// The open segment holds one document without a value: its flags
		// column, 8 B per document it can hold.
		if open := 8 * maxSegmentDocs; ix.bytes != packed+open {
			t.Fatalf("index.bytes %d, the sealed segments pack %d B and the open one holds %d", ix.bytes, packed, open)
		}
	})
}

// TestSealSeedsReachEveryEncoding checks that FuzzSealColumn's seeds
// reach every encoding: a constant, tables with 1-, 2-, 4- and 8-bit
// codes, frame-of-reference codes of every width, and raw words.
func TestSealSeedsReachEveryEncoding(t *testing.T) {
	value := controlplane.LookupField("value")
	reached := map[string]bool{}
	for _, in := range sealSeeds() {
		ix, cols := sealedValues(wordBytes(in, 300))
		for j := range cols {
			seg, bit := ix.segs[j], uint64(1)<<value.Pos()
			if seg.has&bit == 0 {
				continue
			}
			p := seg.cols[bits.OnesCount64(seg.has&(bit-1))]
			switch {
			case p.mask == 0:
				reached["constant"] = true
			case p.tab != 0:
				reached["table "+string(rune('0'+p.lg))] = true
			default:
				reached["frame "+string(rune('0'+p.lg))] = true
			}
		}
	}
	for _, enc := range []string{"constant", "table 0", "table 1", "table 2", "table 3",
		"frame 0", "frame 1", "frame 2", "frame 3", "frame 4", "frame 5", "frame 6"} {
		if !reached[enc] {
			t.Errorf("no seed seals a value column as %s (log₂ of the code width); reached %v", enc, reached)
		}
	}
}
