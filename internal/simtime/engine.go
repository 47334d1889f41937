// Package simtime provides the deterministic discrete-event engine that
// drives every simulation in this repository. Time is virtual and measured
// in integer nanoseconds; events scheduled for the same instant fire in
// the order they were scheduled, which makes whole-system runs
// reproducible bit-for-bit given the same seed.
//
// The engine is the hottest code in the repository — every packet
// serialisation, propagation, TAP delivery and control-plane tick passes
// through it — so the queue is a typed, inlined 4-ary min-heap rather
// than container/heap: no interface boxing on push/pop, no indirect
// Less/Swap calls, and the backing slice doubles as its own free list
// (pop only shortens the length, so at steady state no event ever
// allocates). See DESIGN.md "Scheduler determinism contract" for why
// this preserves the seed-for-seed reproducibility guarantee.
package simtime

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It intentionally mirrors the nanosecond granularity of the
// Tofino switch clock the paper relies on.
type Time int64

// Common durations, expressed in Time units for convenience.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to simulation time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns the timestamp as floating-point seconds, the unit used
// on the x axis of every figure in the paper.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the timestamp as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time compactly for logs and reports.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// CallFunc is an argument-carrying callback: the scheduled fire time plus
// two opaque arguments supplied at scheduling time. Hot senders (links,
// TAPs) use package-level CallFunc values with AtCall so that scheduling
// a packet costs no closure allocation — the arguments ride in the event
// itself.
type CallFunc func(now Time, a, b any)

// event is a scheduled callback. seq breaks ties so that events scheduled
// earlier at the same timestamp run first. Exactly one of fn and call is
// set: fn is the ordinary closure path, call the allocation-free
// argument-carrying path.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	call CallFunc
	a, b any
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all simulated components run on the engine's
// goroutine, which is what makes runs deterministic.
type Engine struct {
	// pq is a 4-ary min-heap ordered by (at, seq). The slice is the
	// event free list: pop shortens the length and clears the vacated
	// slot, push reuses the retained capacity, so a warmed engine
	// schedules without allocating.
	pq  []event
	now Time
	seq uint64

	// Processed counts events executed; useful for benchmarks and as a
	// runaway guard in tests.
	Processed uint64
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Reserve pre-sizes the event queue for at least n outstanding events,
// avoiding growth reallocations during warm-up.
func (e *Engine) Reserve(n int) {
	if cap(e.pq) < n {
		pq := make([]event, len(e.pq), n)
		copy(pq, e.pq)
		e.pq = pq
	}
}

// push appends ev and restores the 4-ary heap invariant. It sifts a
// hole up rather than swapping: parents shift down one copy per level
// and ev lands exactly once, instead of three 72-byte event moves per
// level. Ordering is unchanged — the hole stops exactly where the
// swapping loop would have left ev.
//
// p4:hotpath
func (e *Engine) push(ev event) {
	e.pq = append(e.pq, ev)
	pq := e.pq
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if pq[parent].at < ev.at || (pq[parent].at == ev.at && pq[parent].seq < ev.seq) {
			break
		}
		pq[i] = pq[parent]
		i = parent
	}
	pq[i] = ev
}

// pop removes and returns the minimum event (sift-down). The vacated
// tail slot is cleared so popped closures and arguments do not pin their
// referents against the garbage collector while the slot waits on the
// free list. Like push, it sifts a hole down against the detached tail
// event's (at, seq) key held in registers: one event copy per level
// instead of a three-copy swap, with the tail landing exactly where the
// swapping loop would have put it.
//
// p4:hotpath
func (e *Engine) pop() event {
	pq := e.pq
	n := len(pq) - 1
	top := pq[0]
	tail := pq[n]
	pq[n] = event{} // release references; the slot stays on the free list
	e.pq = pq[:n]
	tailAt, tailSeq := tail.at, tail.seq
	i := 0
	for {
		// Children of i occupy 4i+1 .. 4i+4.
		first := i<<2 + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		minAt, minSeq := pq[min].at, pq[min].seq
		for c := first + 1; c < last; c++ {
			if pq[c].at < minAt || (pq[c].at == minAt && pq[c].seq < minSeq) {
				min, minAt, minSeq = c, pq[c].at, pq[c].seq
			}
		}
		if minAt > tailAt || (minAt == tailAt && minSeq > tailSeq) {
			break
		}
		pq[i] = pq[min]
		i = min
	}
	if n > 0 {
		pq[i] = tail
	}
	return top
}

// Schedule runs fn after delay. A negative delay is treated as zero
// (fires at the current instant, after already-queued same-instant
// events).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the absolute virtual time t. Scheduling in the past is a
// programming error and panics: silently reordering history would make
// simulation results meaningless.
//
// p4:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// AtCall runs call(t, a, b) at the absolute virtual time t. Unlike At,
// the callback carries its arguments in the event itself, so a
// package-level CallFunc schedules without allocating a closure — the
// per-packet path links and TAPs use. Pointer-shaped arguments (pointers,
// maps, channels) also avoid the interface boxing allocation; do not pass
// structs by value here.
//
// p4:hotpath
func (e *Engine) AtCall(t Time, call CallFunc, a, b any) {
	if t < e.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, call: call, a: a, b: b})
}

// Run executes events in timestamp order until the queue drains or the
// next event lies strictly beyond until. The clock is left at until (or
// at the last executed event if the queue drained earlier than until).
func (e *Engine) Run(until Time) {
	for len(e.pq) > 0 {
		if e.pq[0].at > until {
			break
		}
		next := e.pop()
		e.now = next.at
		e.Processed++
		if next.fn != nil {
			next.fn()
		} else {
			next.call(next.at, next.a, next.b)
		}
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes every queued event regardless of timestamp. Use only
// in tests with a bounded event population.
func (e *Engine) RunAll() {
	for len(e.pq) > 0 {
		next := e.pop()
		e.now = next.at
		e.Processed++
		if next.fn != nil {
			next.fn()
		} else {
			next.call(next.at, next.a, next.b)
		}
	}
}

// Ticker repeatedly invokes fn every interval starting at start. It is
// the building block for the control plane's periodic register
// extraction. The rescheduling callback is materialised once at
// construction and reused for every firing — rescheduling in place
// costs one heap push and zero allocations per tick.
type Ticker struct {
	engine   *Engine
	interval Time
	fn       func(Time)
	tickFn   func() // bound once; reused every reschedule
}

// NewTicker schedules fn to run at start and then every interval.
// interval must be positive.
func NewTicker(e *Engine, start, interval Time, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic("simtime: ticker interval must be positive")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.tickFn = t.tick
	e.At(start, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	t.fn(t.engine.Now())
	t.engine.Schedule(t.interval, t.tickFn)
}

// SetInterval changes the period applied after the next firing. This is
// how the control plane escalates the reporting rate when an alert
// threshold is exceeded.
func (t *Ticker) SetInterval(interval Time) {
	if interval <= 0 {
		panic("simtime: ticker interval must be positive")
	}
	t.interval = interval
}

// Interval returns the current period.
func (t *Ticker) Interval() Time { return t.interval }

// Timer is a resettable one-shot timer. Unlike scheduling a fresh
// closure per arm (the pattern TCP's retransmission timer used), a Timer
// materialises its engine callback once and lazily re-targets pending
// events: re-arming before expiry costs no allocation, and usually no
// new event either. Stale events fire as no-ops.
//
// The semantics match a conventional resettable timer: after Reset(d)
// the callback fires exactly once at now+d unless Reset or Stop
// intervenes first.
type Timer struct {
	engine *Engine
	fn     func()
	fireFn func() // bound once

	deadline Time
	armed    bool
	// pendingAt is the earliest outstanding engine event for this timer
	// (0 when none). Events later than the current deadline are
	// superseded by scheduling an earlier one; superseded events no-op.
	pendingAt Time
	pending   bool
}

// NewTimer creates a disarmed timer that runs fn on expiry.
func NewTimer(e *Engine, fn func()) *Timer {
	t := &Timer{engine: e, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire after d, replacing any earlier
// deadline. Non-positive d fires at the current instant (after queued
// same-instant events).
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	t.deadline = t.engine.Now() + d
	t.armed = true
	if !t.pending || t.pendingAt > t.deadline {
		t.pending = true
		t.pendingAt = t.deadline
		t.engine.At(t.deadline, t.fireFn)
	}
}

// Stop disarms the timer. A pending engine event may still fire but will
// find the timer disarmed and do nothing.
func (t *Timer) Stop() { t.armed = false }

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }

func (t *Timer) fire() {
	t.pending = false
	t.pendingAt = 0
	if !t.armed {
		return
	}
	now := t.engine.Now()
	if now < t.deadline {
		// Re-armed to a later deadline since this event was scheduled:
		// chase it.
		t.pending = true
		t.pendingAt = t.deadline
		t.engine.At(t.deadline, t.fireFn)
		return
	}
	t.armed = false
	t.fn()
}
