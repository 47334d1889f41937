//go:build !unix || race

package sram

// Maps is false here: every array comes from make. That holds without
// mmap, and under the race detector, which does not see accesses to
// memory outside the Go heap: a race build keeps the state where the
// detector checks it.
const Maps = false

func mapWords(n int) []uint64 { return make([]uint64, n) }

func unmapWords([]uint64) {}
