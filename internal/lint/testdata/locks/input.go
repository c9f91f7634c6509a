// Package locks exercises the locks checker: every Lock needs a matching
// unlock on every path, locks must not be held across blocking operations,
// and sync primitives must not be copied by value.
package locks

import (
	"net/http"
	"sync"
	"time"
)

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// noUnlock never releases: exactly one finding at the Lock.
func (c *counter) noUnlock() int {
	c.mu.Lock() // finding: no matching unlock
	return c.n
}

// earlyReturn unlocks on the happy path but leaks on the error path.
func (c *counter) earlyReturn(bad bool) int {
	c.mu.Lock()
	if bad {
		return -1 // finding: returns while held
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// deferred is the canonical clean shape.
func (c *counter) deferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// deferredClosure releases through a deferred closure: clean.
func (c *counter) deferredClosure() int {
	c.mu.Lock()
	defer func() {
		c.n++
		c.mu.Unlock()
	}()
	return c.n
}

// branchUnlock releases on every branch before returning: clean.
func (c *counter) branchUnlock(bad bool) int {
	c.mu.Lock()
	if bad {
		c.mu.Unlock()
		return -1
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// rlockPair pairs RLock with RUnlock: clean.
func (c *counter) rlockPair() int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.n
}

// rlockWrongUnlock pairs RLock with Unlock: the RLock is never released.
func (c *counter) rlockWrongUnlock() int {
	c.rw.RLock() // finding: no matching unlock (Unlock does not release RLock)
	n := c.n
	c.rw.Unlock()
	return n
}

// doubleLock re-acquires while held: self-deadlock.
func (c *counter) doubleLock() {
	c.mu.Lock()
	c.mu.Lock() // finding: self-deadlock
	c.mu.Unlock()
}

// sendWhileHeld blocks on a channel send with the lock held.
func (c *counter) sendWhileHeld(ch chan int) {
	c.mu.Lock()
	ch <- c.n // finding: send while held
	c.mu.Unlock()
}

// recvWhileHeld blocks on a receive with the lock held.
func (c *counter) recvWhileHeld(ch chan int) {
	c.mu.Lock()
	c.n = <-ch // finding: receive while held
	c.mu.Unlock()
}

// selectWhileHeld blocks on a no-default select with the lock held.
func (c *counter) selectWhileHeld(a, b chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // finding: select with no default while held
	case v := <-a:
		c.n = v
	case v := <-b:
		c.n = v
	}
}

// nonBlockingSelect has a default case: clean.
func (c *counter) nonBlockingSelect(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case ch <- c.n:
	default:
	}
}

// sleepWhileHeld parks every other holder for the duration.
func (c *counter) sleepWhileHeld() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // finding: time.Sleep while held
	c.mu.Unlock()
}

// rpcWhileHeld holds the lock across an HTTP round trip.
func (c *counter) rpcWhileHeld(client *http.Client, req *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	client.Do(req) // finding: HTTP round trip while held
}

// unlockThenBlock releases before the blocking op: clean.
func (c *counter) unlockThenBlock(ch chan int) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	ch <- n
}

// goroutineIsSeparate: channel ops inside a spawned goroutine run after
// Unlock, not under the lock. Clean for this checker.
func (c *counter) goroutineIsSeparate(ch chan int) {
	c.mu.Lock()
	n := c.n
	go func() {
		ch <- n
	}()
	c.mu.Unlock()
}
