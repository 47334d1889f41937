package dataplane

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/sram"
)

// Register is a fixed-size stateful register array, the P4 construct
// the paper's per-flow statistics live in ("dedicated stateful
// registers where the data plane can track 2048 active flows
// simultaneously", §3.3.2). Each cell holds what a Tofino register of
// the declared width holds: every store truncates to it.
type Register struct {
	name  string
	cells []uint64
	// mask keeps the low width bits of every stored value, so an
	// over-wide write truncates and Add wraps at 2^width, as in P4's
	// Register<bit<W>, _>.
	mask uint64
	// merge is how one cell combines across pipes and slot is the
	// register's position in its pipeline's declaration order, the same
	// on every shard; DataPlane.declare sets both (see Pipes.mergedRead).
	merge mergeRule
	slot  int
}

// mergeRule is a register's cross-pipe merge: what the control plane
// reads for one cell when several pipes each hold a copy of the
// array. Every shard has the same table geometry, so a flow indexes
// the same cell on whichever shard owns it and the merged cell equals
// what a single pipe fed the whole trace would hold. The zero value is
// deliberately not a rule: New states one for every register.
type mergeRule uint8

const (
	// mergeSum: additive counters (bytes, packets, loss, flight,
	// histogram buckets).
	mergeSum mergeRule = iota + 1
	// mergeMax: timestamps, high-water marks and flags — and the
	// signature tables, where only the owning pipe's cell is non-zero.
	mergeMax
	// mergeFirst: first-write-wins stamps take the smallest non-zero.
	mergeFirst
	// mergeMin: the windowed minimum, whose no-sample sentinel is
	// all-ones and therefore the identity.
	mergeMin
)

// NewRegister allocates a register array of size cells, each width
// bits wide (1..64), the P4 declaration Register<bit<width>, _>(size).
// The cells come from sram.Words: an array of 64 KiB or more is zero
// pages until written and is unmapped when the register is collected.
func NewRegister(name string, size, width int) *Register {
	if size <= 0 {
		panic(fmt.Sprintf("dataplane: register %s must have positive size", name))
	}
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("dataplane: register %s width %d out of range 1..64", name, width))
	}
	r := &Register{name: name, mask: ^uint64(0) >> (64 - width)}
	r.cells = sram.Words(r, size)
	return r
}

// Name returns the register's P4 instance name.
func (r *Register) Name() string { return r.name }

// Size returns the number of cells.
func (r *Register) Size() int { return len(r.cells) }

// index folds an arbitrary 32-bit value onto the array.
func (r *Register) index(i uint32) uint32 { return i % uint32(len(r.cells)) }

// Read returns cell i (mod size).
func (r *Register) Read(i uint32) uint64 { return r.cells[r.index(i)] }

// Write stores the low width bits of v at cell i (mod size).
func (r *Register) Write(i uint32, v uint64) { r.cells[r.index(i)] = v & r.mask }

// Add increments cell i (mod size) by delta, wrapping at 2^width.
func (r *Register) Add(i uint32, delta uint64) {
	idx := r.index(i)
	r.cells[idx] = (r.cells[idx] + delta) & r.mask
}

// Max raises cell i to the low width bits of v if they are larger.
func (r *Register) Max(i uint32, v uint64) {
	idx := r.index(i)
	if v &= r.mask; v > r.cells[idx] {
		r.cells[idx] = v
	}
}

// Elapsed is the time from a 48-bit register stamp to now: the signed
// serial difference of their low 48 bits, which equals now − stamp
// whenever the two lie within 2^47 ns (about 39 h) of each other and
// stays right across the 48-bit clock's wrap every 2^48 ns (about
// 78 h). A stamp ahead of now reads negative.
func Elapsed(now, stamp simtime.Time) simtime.Time {
	return simtime.Time(int64(uint64(now-stamp)<<16) >> 16)
}
