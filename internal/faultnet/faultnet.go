// Package faultnet provides deterministic network fault injection for
// testing the report-shipping path. Real outages are timing-dependent
// and unreproducible; faultnet instead scripts faults by *byte offset*
// and *operation count*, so a test that says "reset the connection
// after 100 bytes, refuse the next 3 dials" observes exactly the same
// failure sequence on every run.
//
// The building blocks:
//
//   - Listener: an in-memory net.Listener whose Accept side hands out
//     the server half of a net.Pipe. Because net.Pipe is synchronous, a
//     Write that returns success has *delivered* its bytes to the
//     reader — there is no kernel buffer to hide loss in — which is
//     what makes exact delivered-count assertions possible.
//   - Conn / Wrap: a net.Conn wrapper that applies a Script of write
//     faults (reset at a byte offset, partial write, stall).
//   - Listener.Refuse / RefuseNext: scripted dial failures.
//   - Listener.CutAll: kill every live connection, simulating the
//     archiver process dying mid-run.
//
// faultnet is a test harness: nothing in it is used on production
// paths.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrRefused is returned by Dial while the listener is refusing
// connections (scripted outage).
var ErrRefused = errors.New("faultnet: connection refused (scripted)")

// ErrReset is returned by a faulty Write when a scripted reset fires.
var ErrReset = errors.New("faultnet: connection reset (scripted)")

// FaultKind selects what happens when a scripted fault triggers.
type FaultKind int

const (
	// Reset tears the connection down once AfterBytes bytes have been
	// written: the triggering Write delivers only the bytes up to the
	// offset, both pipe halves close, and the Write returns ErrReset.
	// A mid-record offset therefore leaves the reader holding a
	// partial line — exactly the torn-write case the archiver input
	// must survive.
	Reset FaultKind = iota
	// Stall sleeps for Delay once the offset is reached, then delivers
	// the rest of the Write. Combined with a write deadline shorter
	// than Delay, the post-stall delivery fails with a timeout — the
	// hung-archiver case.
	Stall
)

// Fault is one scripted write fault on a connection.
type Fault struct {
	// AfterBytes triggers the fault once this many bytes have been
	// successfully written on the connection (cumulative across
	// Writes).
	AfterBytes int
	// Kind selects the behaviour at the trigger point.
	Kind FaultKind
	// Delay is the stall duration for Kind == Stall.
	Delay time.Duration
}

// Script is an ordered list of faults, consumed front to back. Faults
// must be ordered by AfterBytes.
type Script []Fault

// Conn wraps a net.Conn and applies a write-fault script. Reads pass
// through untouched. Conn is safe for the usual one-writer/one-reader
// pattern; Write itself is serialised by an internal mutex.
type Conn struct {
	net.Conn

	mu      sync.Mutex
	script  Script
	written int // bytes successfully written so far
}

// Wrap returns conn with the given write-fault script applied.
func Wrap(conn net.Conn, script Script) *Conn {
	return &Conn{Conn: conn, script: script}
}

// Write delivers b to the underlying connection, honouring the fault
// script. It returns the number of bytes actually delivered.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for {
		if len(c.script) == 0 {
			n, err := c.Conn.Write(b[total:])
			c.written += n
			return total + n, err
		}
		f := c.script[0]
		remaining := f.AfterBytes - c.written
		if remaining > len(b)-total {
			// The fault lies beyond this Write.
			n, err := c.Conn.Write(b[total:])
			c.written += n
			return total + n, err
		}
		// Deliver up to the fault offset, then fire it.
		if remaining > 0 {
			n, err := c.Conn.Write(b[total : total+remaining])
			c.written += n
			total += n
			if err != nil {
				return total, err
			}
		}
		c.script = c.script[1:]
		switch f.Kind {
		case Reset:
			_ = c.Conn.Close() // scripted teardown; the reset error is the result
			return total, ErrReset
		case Stall:
			time.Sleep(f.Delay)
			// Loop: deliver the remainder (the underlying conn's
			// write deadline, if set, applies and may now have
			// expired — that is the point of a stall fault).
		default:
			return total, fmt.Errorf("faultnet: unknown fault kind %d", f.Kind)
		}
	}
}

// Listener is an in-memory net.Listener with scripted dial outcomes.
// Servers Accept from it; clients obtain connections with Dial. The
// zero value is not usable — call NewListener.
type Listener struct {
	mu       sync.Mutex
	closed   bool
	refusing bool
	refuseN  int      // refuse the next N dials (counts down)
	scripts  []Script // consumed per successful dial, applied client-side
	conns    []net.Conn
	dials    int // total Dial attempts, for assertions

	backlog chan net.Conn
}

// NewListener returns a listener with an accept backlog of 16.
func NewListener() *Listener {
	return &Listener{backlog: make(chan net.Conn, 16)}
}

// Refuse switches scripted refusal on or off: while on, every Dial
// fails with ErrRefused (the archiver host is down).
func (l *Listener) Refuse(v bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refusing = v
}

// RefuseNext makes the next n Dial calls fail with ErrRefused, then
// dials succeed again.
func (l *Listener) RefuseNext(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refuseN = n
}

// ScriptNext queues a write-fault script; each successful Dial consumes
// one queued script (FIFO) and applies it to the client half. Dials
// beyond the queue get fault-free connections.
func (l *Listener) ScriptNext(scripts ...Script) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.scripts = append(l.scripts, scripts...)
}

// Dials returns the total number of Dial attempts so far, including
// refused ones.
func (l *Listener) Dials() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dials
}

// Dial returns the client half of a new connection, or ErrRefused
// while refusal is scripted. The returned conn applies the next queued
// fault script, if any. One critical section covers the refusal check
// and the registration of the new conn, so a Dial falls wholly before
// or after a Refuse + CutAll partition: none straddles it and escapes
// the cut.
func (l *Listener) Dial() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dials++
	if l.closed {
		return nil, net.ErrClosed
	}
	if l.refusing {
		return nil, ErrRefused
	}
	if l.refuseN > 0 {
		l.refuseN--
		return nil, ErrRefused
	}
	var script Script
	if len(l.scripts) > 0 {
		script = l.scripts[0]
		l.scripts = l.scripts[1:]
	}
	client, server := net.Pipe()
	// The non-blocking send happens under mu so Close (which marks the
	// listener closed under mu before closing the backlog channel)
	// cannot race a send-on-closed-channel panic.
	select {
	case l.backlog <- server:
		l.conns = append(l.conns, client, server)
	default:
		_ = client.Close()
		_ = server.Close()
		return nil, fmt.Errorf("faultnet: accept backlog full")
	}
	if script != nil {
		return Wrap(client, script), nil
	}
	return client, nil
}

// CutAll closes every live connection without touching the listener:
// the archiver process died, but the port may come back.
func (l *Listener) CutAll() {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		_ = c.Close() // scripted outage; errors are the point
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

// Close implements net.Listener: pending and future Accepts fail and
// all live connections are cut.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.backlog)
	l.CutAll()
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "faultnet" }
func (pipeAddr) String() string  { return "faultnet:mem" }
