package genconfig

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// pair is a two-field config: the torn-read tests assert the fields
// are always observed moving together.
type pair struct {
	A, B uint64
}

func TestPublishAndCurrent(t *testing.T) {
	s := NewStore(pair{A: 1, B: 1})
	if got := s.Current(); got != (pair{1, 1}) {
		t.Fatalf("initial = %+v", got)
	}
	seq, err := s.Publish(func(cur pair) (pair, error) {
		cur.A, cur.B = 2, 2
		return cur, nil
	})
	if err != nil || seq != 1 {
		t.Fatalf("publish: seq=%d err=%v", seq, err)
	}
	if got := s.Current(); got != (pair{2, 2}) {
		t.Fatalf("after publish = %+v", got)
	}
	if s.Seq() != 1 {
		t.Fatalf("seq = %d", s.Seq())
	}
}

func TestPublishErrorChangesNothing(t *testing.T) {
	s := NewStore(pair{A: 7, B: 7})
	boom := errors.New("boom")
	_, err := s.Publish(func(cur pair) (pair, error) {
		cur.A = 99 // half-applied scratch state must be discarded
		return cur, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := s.Current(); got != (pair{7, 7}) {
		t.Fatalf("config changed on failed publish: %+v", got)
	}
	if s.Seq() != 0 {
		t.Fatalf("seq moved on failed publish: %d", s.Seq())
	}
}

// TestConcurrentPublishersSerialize proves the CAS loop loses no
// update: N goroutines each add 1 to a counter field, and the final
// value is exactly N at sequence number N.
func TestConcurrentPublishersSerialize(t *testing.T) {
	const writers, each = 8, 200
	s := NewStore(pair{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Publish(func(cur pair) (pair, error) {
					cur.A++
					cur.B++
					return cur, nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Current(); got.A != writers*each || got.B != writers*each {
		t.Fatalf("lost updates: %+v", got)
	}
	if s.Seq() != writers*each {
		t.Fatalf("seq = %d, want %d", s.Seq(), writers*each)
	}
}

// TestNoTornReadsUnderStorm runs Current readers against concurrent
// publishers that always keep A == B. Any observation with A != B is a
// torn read.
func TestNoTornReadsUnderStorm(t *testing.T) {
	s := NewStore(pair{})
	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if v := s.Current(); v.A != v.B {
					t.Errorf("torn Current read: %+v", v)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				_, _ = s.Publish(func(cur pair) (pair, error) {
					cur.A += uint64(w + 1)
					cur.B = cur.A
					return cur, nil
				})
			}
		}(w)
	}
	writers.Wait()
	close(done)
	readers.Wait()
}

// TestAcquireReleaseAllocFree pins the hot-path contract: reading the
// live generation allocates nothing (Publish may allocate; it is off
// the packet path).
func TestAcquireReleaseAllocFree(t *testing.T) {
	s := NewStore(pair{A: 3, B: 3})
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		v := s.Current()
		sink += v.A + v.B + s.Seq()
	})
	if allocs != 0 {
		t.Fatalf("generation read allocates %.1f/op (sink=%d)", allocs, sink)
	}
}

func ExampleStore_Publish() {
	s := NewStore(pair{A: 1, B: 1})
	_, err := s.Publish(func(cur pair) (pair, error) {
		cur.A, cur.B = 4, 4
		return cur, nil
	})
	fmt.Println(s.Current().A, s.Current().B, err)
	// Output: 4 4 <nil>
}
