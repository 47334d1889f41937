package dataplane

import (
	"repro/internal/simtime"
	"repro/internal/tap"
)

// Front is a reused, capacity-retained batch of parsed packet views —
// the software analogue of yanet2's packet_front. A producer fills it
// with AppendCopy (parsing each TAP copy exactly once), hands it to
// DataPlane.ProcessFront or Pipes.ProcessFront to drain
// run-to-completion, then Resets and refills. Reset keeps the backing
// array, so a front that has reached its working-set size never
// allocates again.
//
// A Front is not safe for concurrent use: exactly one goroutine may
// fill or drain it at a time. Ownership passes wholesale — the sharded
// front-end hands each shard's front to one goroutine, which hands it
// back empty.
type Front struct {
	views []view
}

// NewFront returns an empty front with capacity for n views. n is a
// starting size, not a limit; AppendCopy grows past it.
func NewFront(n int) *Front {
	return &Front{views: make([]view, 0, n)}
}

// Len reports the number of views currently batched.
func (f *Front) Len() int { return len(f.views) }

// Reset empties the front, retaining capacity for reuse.
//
// p4:hotpath
func (f *Front) Reset() { f.views = f.views[:0] }

// AppendCopy parses one TAP copy into the front. The copy is fully
// consumed here — the tap pair may recycle the packet as soon as
// AppendCopy returns.
//
// p4:hotpath
func (f *Front) AppendCopy(c tap.Copy) {
	f.views = append(f.views, view{})
	parseCopy(&f.views[len(f.views)-1], c)
}

// append adds an already-parsed view (the sharded front-end parses
// during partitioning, before choosing the shard front).
//
// p4:hotpath
func (f *Front) append(v *view) {
	f.views = append(f.views, *v)
}

// Span is the simulated time covered by the batch: the timestamp
// distance between its first and last view. Deterministic (pure
// simtime), so it can feed an obs histogram without breaking replay
// determinism.
func (f *Front) Span() simtime.Time {
	if len(f.views) < 2 {
		return 0
	}
	return f.views[len(f.views)-1].at - f.views[0].at
}
