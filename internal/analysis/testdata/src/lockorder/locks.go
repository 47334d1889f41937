// The pairing half of the lockorder fixture: Lock calls that can leak
// across a return path. (Lock values copied by value are go vet's
// copylocks check, not p4lint's.)
package lockorder

import "sync"

// Guarded holds a mutex by value.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// goodPointerReceiver releases through defer.
func (g *Guarded) goodPointerReceiver() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// badLockNoUnlock takes the lock and never releases it.
func badLockNoUnlock(g *Guarded) int {
	g.mu.Lock() // want "reachable without g.mu.Unlock"
	return g.n
}

// badEarlyReturn releases on the happy path but not on the early one.
func badEarlyReturn(g *Guarded, skip bool) int {
	g.mu.Lock() // want "return at .* is reachable without g.mu.Unlock"
	if skip {
		return 0
	}
	n := g.n
	g.mu.Unlock()
	return n
}

// goodDefer releases on every path via defer.
func goodDefer(g *Guarded, skip bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if skip {
		return 0
	}
	return g.n
}

// goodPaired unlocks before each return in source order.
func goodPaired(g *Guarded, skip bool) int {
	g.mu.Lock()
	if skip {
		g.mu.Unlock()
		return 0
	}
	n := g.n
	g.mu.Unlock()
	return n
}

// goodRWLock pairs RLock with a deferred RUnlock.
func goodRWLock(mu *sync.RWMutex, n *int) int {
	mu.RLock()
	defer mu.RUnlock()
	return *n
}

// badRLockLeak reads under RLock but forgets to release before
// returning.
func badRLockLeak(mu *sync.RWMutex, n *int) int {
	mu.RLock() // want "reachable without mu.RUnlock"
	return *n
}

// badGoroutineLeak locks inside a goroutine literal and never unlocks:
// a literal is a body of its own, checked like a declared function.
func badGoroutineLeak(g *Guarded) {
	go func() {
		g.mu.Lock() // want "g.mu locked in func literal with no g.mu.Unlock"
		g.n++
	}()
}

// goodTryLock bails out when the lock is busy: a failed TryLock holds
// nothing, so the early return leaks nothing.
func goodTryLock(g *Guarded) int {
	if !g.mu.TryLock() {
		return 0
	}
	defer g.mu.Unlock()
	return g.n
}

// badOtherInstance releases a different value's lock: locks pair by
// receiver expression, so x.mu is still held at the return.
func badOtherInstance(x, y *Guarded) int {
	x.mu.Lock() // want "reachable without x.mu.Unlock"
	y.mu.Unlock()
	return x.n
}

// badNestedInstances nests two values of one type's lock: nothing
// orders them, so a second goroutine may nest them the other way round.
func badNestedInstances(x, y *Guarded) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock() // want "y.mu acquired in badNestedInstances while x.mu is held"
	defer y.mu.Unlock()
}

var registry = map[string]*sync.Mutex{}

func lockFor(name string) *sync.Mutex { return registry[name] }

// badCallResultLeak locks a mutex reached through a call: it has no
// field or variable to name it, but its expression still pairs.
func badCallResultLeak(name string) {
	lockFor(name).Lock() // want "lockFor.name. locked in badCallResultLeak with no lockFor.name..Unlock"
}
