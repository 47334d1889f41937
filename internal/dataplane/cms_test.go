package dataplane

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func TestCMSGeometryValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 4}, {4, 0}, {-1, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCMS(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			NewCMS(bad[0], bad[1])
		}()
	}
}

// TestCMSKeyPathNeverUndercounts pins the count-min guarantee on the
// packed-key entry points the per-packet path uses: the estimate is
// always >= the true count, so an elephant can never hide (false
// negatives are impossible; only mice can be over-promoted).
func TestCMSKeyPathNeverUndercounts(t *testing.T) {
	cms := NewCMS(128, 4)
	rng := rand.New(rand.NewSource(23))
	truth := make(map[FlowKey]uint64)
	var keys []FlowKey
	for i := 0; i < 200; i++ {
		keys = append(keys, KeyOf(randomTuple(rng)))
	}
	for i := 0; i < 5000; i++ {
		k := keys[rng.Intn(len(keys))]
		n := uint64(rng.Intn(1500) + 1)
		truth[k] += n
		if est := cms.UpdateKey(k, n); est < truth[k] {
			t.Fatalf("update estimate %d below true count %d", est, truth[k])
		}
	}
	for k, want := range truth {
		if est := cms.s.At(cmsHash(&k)); est < want {
			t.Fatalf("estimate %d below true count %d", est, want)
		}
	}
}

// TestCMSKeyPathExactWhenSparse verifies a wide sketch counts a few
// flows exactly through the packed-key path: with no collisions the
// min across rows is the true sum.
func TestCMSKeyPathExactWhenSparse(t *testing.T) {
	cms := NewCMS(1<<16, 4)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 8; i++ {
		k := KeyOf(randomTuple(rng))
		cms.UpdateKey(k, 1000)
		cms.UpdateKey(k, 448)
		if est := cms.s.At(cmsHash(&k)); est != 1448 {
			t.Fatalf("sparse estimate %d, want exactly 1448", est)
		}
	}
}

func TestCMSClear(t *testing.T) {
	cms := NewCMS(64, 2)
	ft := packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.1"),
		DstIP:   packet.MustAddr("192.168.1.1"),
		SrcPort: 1,
		DstPort: 2,
		Proto:   packet.ProtoTCP,
	}
	k := KeyOf(ft)
	cms.UpdateKey(k, 99)
	cms.Clear()
	if got := cms.s.At(cmsHash(&k)); got != 0 {
		t.Fatalf("estimate after Clear = %d, want 0", got)
	}
}
