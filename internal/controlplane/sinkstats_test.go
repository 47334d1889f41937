package controlplane

import (
	"sync"
	"testing"
)

func TestCountingSinkCountsConcurrently(t *testing.T) {
	mem := &MemorySink{}
	var mu sync.Mutex
	guarded := sinkFunc(func(r Report) {
		mu.Lock()
		mem.Emit(r)
		mu.Unlock()
	})
	c := &CountingSink{Next: guarded}
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Emit(Report{Kind: KindMetric})
			}
		}()
	}
	wg.Wait()
	if c.Count() != workers*each {
		t.Fatalf("count=%d, want %d", c.Count(), workers*each)
	}
	if len(mem.Reports) != workers*each {
		t.Fatalf("forwarded=%d, want %d", len(mem.Reports), workers*each)
	}
}

func TestCountingSinkNilNextDiscards(t *testing.T) {
	c := &CountingSink{}
	c.Emit(Report{Kind: KindAlert})
	if c.Count() != 1 {
		t.Fatalf("count=%d", c.Count())
	}
}

// sinkFunc adapts a function to the Sink interface for tests.
type sinkFunc func(Report)

func (f sinkFunc) Emit(r Report) { f(r) }
