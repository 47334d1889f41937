// Package genconfig is the repository's configuration publication
// primitive: all runtime-tunable state lives in an immutable snapshot
// published through a single atomic pointer. A reader loads the live
// snapshot once per work quantum (one control-plane tick, one batch
// front) and reads every field from that copy; a writer builds a
// complete successor off the current snapshot and installs it with one
// compare-and-swap.
//
// The discipline makes two failure modes structurally impossible:
//
//   - Torn reads. A published value is never mutated, so the copy a
//     reader takes comes from exactly one generation — there is no
//     instant at which half of a reconfiguration is visible.
//
//   - Partial application. Publish runs the caller's build function
//     against a scratch copy; an error publishes nothing, and the CAS
//     installs the successor in one step. Concurrent writers that lose
//     the CAS race rebuild against the winner's snapshot and retry, so
//     every published generation is a complete, validated state.
//
// No reader holds a reference into the store, so there is nothing to
// release: a superseded generation is garbage once the pointer moves.
package genconfig

import "sync/atomic"

// gen is one published generation. Its value is written exactly once,
// before the pointer to it is stored, and never mutated afterwards.
type gen[T any] struct {
	val T
	seq uint64
}

// Store publishes immutable generations of a config value T. T must be
// a pure value (no maps, slices or pointers to shared state): a copy
// of T must share nothing with the original, or the immutability
// argument above does not hold.
//
// All methods are safe for concurrent use. Current and Seq are one
// atomic load and allocate nothing (the per-packet benchmark gate
// depends on this); Publish allocates one generation per successful
// installation and runs off the packet path.
type Store[T any] struct {
	cur atomic.Pointer[gen[T]]
}

// NewStore returns a store whose generation 0 holds initial.
func NewStore[T any](initial T) *Store[T] {
	s := &Store[T]{}
	s.cur.Store(&gen[T]{val: initial})
	return s
}

// Current returns a copy of the live generation's value. The copy
// shares nothing with the store, so a reader may keep it for its whole
// quantum while writers publish successors.
func (s *Store[T]) Current() T { return s.cur.Load().val }

// Seq returns the live generation's sequence number: 0 for the initial
// generation, and each successful Publish increments it by one.
func (s *Store[T]) Seq() uint64 { return s.cur.Load().seq }

// Publish installs a new generation built by build, which receives a
// copy of the current snapshot and returns the complete successor. An
// error from build aborts the publish: the store is untouched and the
// error is returned. When a concurrent Publish wins the CAS race,
// build is re-run against the winner's snapshot, so the transaction
// semantics survive any number of concurrent writers. Returns the new
// generation's sequence number.
func (s *Store[T]) Publish(build func(cur T) (T, error)) (uint64, error) {
	for {
		old := s.cur.Load()
		next, err := build(old.val)
		if err != nil {
			return old.seq, err
		}
		ng := &gen[T]{val: next, seq: old.seq + 1}
		if s.cur.CompareAndSwap(old, ng) {
			return ng.seq, nil
		}
	}
}
