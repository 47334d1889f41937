// Package lockorder exercises the whole-program lock pass: a lock taken
// while another is held (directly and through a call) and locks held
// across blocking operations.
package lockorder

import (
	"net"
	"sync"
)

type a struct {
	mu   sync.Mutex
	peer *b
}

type b struct {
	mu   sync.Mutex
	peer *a
}

// forward acquires a.mu then b.mu.
func (x *a) forward() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.peer.mu.Lock() // want "x.peer.mu acquired in a.forward while x.mu is held"
	defer x.peer.mu.Unlock()
	x.peer.peer = x
}

// backward acquires b.mu, then reaches a.mu transitively through
// lockedTouch — the reverse of forward's order.
func (y *b) backward() {
	y.mu.Lock()
	defer y.mu.Unlock()
	y.peer.lockedTouch() // want "call to a.lockedTouch acquires a.mu in b.backward while y.mu is held"
}

func (x *a) lockedTouch() {
	x.mu.Lock()
	defer x.mu.Unlock()
}

// double re-acquires a lock this goroutine already holds.
func (x *a) double() {
	x.mu.Lock()
	x.mu.Lock() // want "acquired in a.double while already held"
	x.mu.Unlock()
	x.mu.Unlock()
}

// send writes to the network inside the critical section.
func (x *a) send(c net.Conn, buf []byte) {
	x.mu.Lock()
	c.Write(buf) // want "held across net Write I/O"
	x.mu.Unlock()
}

// notify sends on a channel inside the critical section.
func (x *a) notify(ch chan int) {
	x.mu.Lock()
	ch <- 1 // want "held across channel send"
	x.mu.Unlock()
}

// deliberate documents why its in-section send is safe.
func (x *a) deliberate(ch chan int) {
	x.mu.Lock()
	ch <- 1 //p4:lint-exempt lockorder: the channel is buffered to capacity and drained by this goroutine
	x.mu.Unlock()
}

// disciplined releases before blocking: no findings.
func (x *a) disciplined(c net.Conn, buf []byte) {
	x.mu.Lock()
	cp := append([]byte(nil), buf...)
	x.mu.Unlock()
	c.Write(cp)
}
