// Package sram hands out the data plane's state arrays: n zeroed
// uint64 words that, like a switch's register SRAM, are zero before the
// first packet without anything clearing them. An array of mapMin bytes
// or more comes from an anonymous private mapping, whose pages the
// kernel zeroes on first touch: building it costs one system call
// whatever its size, a page nothing writes costs nothing, and the array
// lies outside the Go heap, so the collector neither clears nor scans
// it and it does not count toward the heap goal. Smaller arrays, and
// every array where Maps is false (no mmap, or a race build), come
// from make.
//
// The collector does not see a mapping, so it cannot keep one alive:
// Words ties it to the object that holds it, and a finalizer on that
// object unmaps it. Two rules follow. No slice of the array may leave
// its owner, since the owner's finalizer frees what the slice points
// at. And a method that can be the last use of its owner must end with
// runtime.KeepAlive of it, or the finalizer could unmap the array
// between the method's last read of the owner and its last read of the
// array.
package sram

import (
	"runtime"
	"sync/atomic"
)

// mapMin is the size, in bytes, from which Words maps an array instead
// of allocating it: 64 KiB, above a pipe's 16 KiB per-flow registers,
// which every packet touches anyway, and below every signature table
// and sketch row set, most of whose pages a run may never write.
const mapMin = 64 << 10

// mapped counts the bytes of every live mapping.
var mapped atomic.Int64

// MappedBytes returns the bytes of every live mapping in the process:
// the zero-page state of every pipe and sketch not yet released.
func MappedBytes() uint64 { return uint64(mapped.Load()) }

// Words returns n zeroed words (n ≥ 0) for owner, a pointer to the
// object that will hold them. An array of mapMin bytes or more is
// mapped where Maps allows it, and a finalizer on owner unmaps it once
// owner is unreachable; since an object carries one finalizer, an
// owner holds at most one mapped array. A smaller array comes from make
// and leaves owner without a finalizer.
func Words(owner any, n int) []uint64 {
	if !Maps || n*8 < mapMin {
		return make([]uint64, n)
	}
	w := mapWords(n)
	runtime.SetFinalizer(owner, func(any) { unmapWords(w) })
	return w
}
