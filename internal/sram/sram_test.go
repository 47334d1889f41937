package sram

import (
	"runtime"
	"testing"
	"time"
)

// holder stands for a Register, CMS or DupFilter: an object that owns
// one array.
type holder struct{ w []uint64 }

// TestWordsZeroedAndIndependent: below and above the mapping line,
// Words returns arrays of the asked length, zeroed, sharing nothing,
// and only a mapped array moves MappedBytes.
func TestWordsZeroedAndIndependent(t *testing.T) {
	for _, n := range []int{0, 1, mapMin/8 - 1, mapMin / 8, 1 << 17} {
		before := MappedBytes()
		a, b := new(holder), new(holder)
		a.w, b.w = Words(a, n), Words(b, n)
		if len(a.w) != n || len(b.w) != n {
			t.Fatalf("Words(%d): lengths %d and %d", n, len(a.w), len(b.w))
		}
		want := uint64(0)
		if Maps && n*8 >= mapMin {
			want = 2 * uint64(n) * 8
		}
		if got := MappedBytes() - before; got != want {
			t.Errorf("Words(%d) twice: MappedBytes grew by %d, want %d", n, got, want)
		}
		for i := range a.w {
			if a.w[i] != 0 || b.w[i] != 0 {
				t.Fatalf("Words(%d): word %d not zero", n, i)
			}
			a.w[i] = uint64(i) + 1
		}
		for i := range b.w {
			if b.w[i] != 0 {
				t.Fatalf("Words(%d): a write to one array shows in the other at word %d", n, i)
			}
		}
		if want != 0 {
			for _, h := range []*holder{a, b} {
				runtime.SetFinalizer(h, nil)
				unmapWords(h.w)
			}
		}
		if got := MappedBytes(); got != before {
			t.Errorf("Words(%d): MappedBytes %d after unmapping, want %d", n, got, before)
		}
	}
}

// TestWordsReleasedWithOwner: a mapped array is unmapped once its
// owner is collected.
func TestWordsReleasedWithOwner(t *testing.T) {
	if !Maps {
		t.Skip("nothing is mapped in this build")
	}
	base := MappedBytes()
	func() {
		h := new(holder)
		h.w = Words(h, 1<<14)
		h.w[len(h.w)-1] = 1
	}()
	for i := 0; i < 200 && MappedBytes() != base; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer goroutine's turn
	}
	if got := MappedBytes(); got != base {
		t.Fatalf("MappedBytes %d after the owner was collected, want %d", got, base)
	}
}
