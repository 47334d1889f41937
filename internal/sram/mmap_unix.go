//go:build unix && !race

package sram

import (
	"fmt"
	"syscall"
	"unsafe"
)

// Maps is true here: unix has anonymous private mappings. A race build
// takes mmap_other.go instead.
const Maps = true

// mapWords maps n zeroed words. The mapping is only reserved: the
// kernel backs a page, zeroed, when it is first touched.
func mapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("sram: mapping %d bytes: %v", n*8, err))
	}
	mapped.Add(int64(len(b)))
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// unmapWords releases a mapping mapWords made. syscall.Munmap finds it
// by its last byte, so the byte slice rebuilt here must span the whole
// mapping; it fails on anything else, and that is a bug worth a crash.
func unmapWords(w []uint64) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("sram: unmapping %d bytes: %v", len(b), err))
	}
	mapped.Add(-int64(len(b)))
}
