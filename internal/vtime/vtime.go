// Package vtime provides a pluggable notion of time for the ESG
// reproduction: a Clock interface implemented both by real wall-clock time
// and by a deterministic discrete-event simulated clock (Sim).
//
// All simulation-aware code (the network simulator, NWS sensors, the
// request manager's monitors, GridFTP timeouts) is written against Clock,
// so the same protocol code runs over real TCP in real time and over the
// simulated WAN in virtual time. Virtual time is what makes the paper's
// one-hour (Table 1) and fourteen-hour (Figure 8) experiments run in
// milliseconds, deterministically.
package vtime

import (
	"sync"
	"time"
)

// Clock abstracts time and time-coupled concurrency. Implementations:
// Real (wall clock, std goroutines) and Sim (virtual clock, managed
// goroutines that advance time only at quiescence).
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep pauses the calling goroutine for d. On a Sim clock the caller
	// must be a managed goroutine (started via Go or Run).
	Sleep(d time.Duration)
	// Go starts fn on a new goroutine managed by this clock.
	Go(fn func())
	// AfterFunc schedules fn to run after d. fn runs on the clock's event
	// context and must not block; use Go inside fn for blocking work.
	AfterFunc(d time.Duration, fn func()) Timer
	// NewCond returns a condition variable tied to this clock whose
	// WaitTimeout is measured on this clock.
	NewCond(l sync.Locker) Cond
}

// Timer is a cancellable pending AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// function from running.
	Stop() bool
}

// Cond is a condition variable usable with both clocks. Unlike sync.Cond
// it supports waiting with a timeout, which protocol code needs.
type Cond interface {
	// Wait atomically unlocks the associated Locker and suspends the
	// caller until Signal or Broadcast; it relocks before returning.
	Wait()
	// WaitTimeout is Wait with a deadline; it reports false if the wait
	// ended because the timeout elapsed.
	WaitTimeout(d time.Duration) bool
	// Signal wakes one waiter, if any.
	Signal()
	// Broadcast wakes all waiters.
	Broadcast()
}

// Real is the wall-clock Clock. The zero value is ready to use.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Go implements Clock.
func (Real) Go(fn func()) { go fn() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

// NewCond implements Clock.
func (Real) NewCond(l sync.Locker) Cond { return &chanCond{l: l} }

// chanCond is a channel-based condition variable that works for both
// clocks; it implements timeouts by racing a waiter wakeup against a
// scheduled timeout event. Waiter state transitions (fired, timed out,
// list membership) all happen under c.mu, so a timed-out waiter is
// removed from the list before Signal can see it, and — on a Sim clock —
// retired waiters can be recycled without any wakeup racing a stale
// pointer.
//
// On a Sim clock the recycling is per Sim, not per cond: conds are
// carved from the Sim's slab (Sim.NewCond), waiters come from its
// freelist, and each wait list starts on an inline array. A per-cond
// freelist never amortises across sessions, whose conds are new: each
// first Wait would pay a waiter and its channel.
// The Sim's freelist holds at most the peak number of concurrent
// waiters, and steady-state Wait/Signal allocates nothing however many
// conds a run creates.
type chanCond struct {
	sim *Sim        // the cond's clock; nil on the Real clock
	l   sync.Locker // nil: Wait unlocks nothing (Sim clock only)

	mu      sync.Mutex
	waiters []*waiter
	inl     [2]*waiter // waiters' first backing array
}

type waiter struct {
	ch       chan struct{}
	c        *chanCond // the cond the waiter is queued on (Sim clock only)
	fired    bool      // claimed by a signal, broadcast, or timeout (under c.mu)
	timedOut bool
	parked   bool // its goroutine is blocked on ch, parked or queued (Sim clock only)
}

// Fire is the waiter's timeout event on a Sim clock.
func (w *waiter) Fire(uint8) { w.c.timeout(w) }

func (c *chanCond) Wait() { c.wait(-1) }

func (c *chanCond) WaitTimeout(d time.Duration) bool { return c.wait(d) }

func (c *chanCond) wait(d time.Duration) bool {
	sim := c.sim
	var w *waiter
	if sim != nil {
		w = sim.getWaiter(c)
	} else {
		w = &waiter{ch: make(chan struct{}, 1)}
	}
	c.mu.Lock()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	var id EventID
	var t *time.Timer
	if d >= 0 {
		if sim != nil {
			id = sim.ScheduleHandler(siteCondTimeout, d, w, 0)
		} else {
			t = time.AfterFunc(d, func() { c.timeout(w) })
		}
	}
	if c.l != nil {
		c.l.Unlock()
		// Relock even if await unwinds via the simulation-teardown panic,
		// so callers' deferred Unlocks stay balanced.
		defer c.l.Lock()
	}
	c.await(w)
	timedOut := w.timedOut
	if sim != nil {
		sim.Cancel(id)
		sim.putWaiter(w)
	} else if t != nil {
		t.Stop()
	}
	return !timedOut
}

// timeout is the deadline callback: it claims the waiter, removes it from
// the wait list so signals skip it, and delivers its wakeup.
func (c *chanCond) timeout(w *waiter) {
	c.mu.Lock()
	if w.fired {
		c.mu.Unlock()
		return
	}
	w.fired = true
	w.timedOut = true
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.wakeLocked(w)
	c.mu.Unlock()
}

// await blocks until the waiter's channel is signalled. Sim overrides the
// blocking via park; for Real this is a plain channel receive.
func (c *chanCond) await(w *waiter) {
	if c.sim != nil {
		c.sim.park(w, 0, 0)
		return
	}
	<-w.ch
}

func (c *chanCond) Signal() {
	c.mu.Lock()
	// Every waiter still in the list is live: timeouts remove themselves.
	// The list shifts down rather than reslicing, so it stays on its
	// first backing array.
	if n := len(c.waiters); n > 0 {
		w := c.waiters[0]
		copy(c.waiters, c.waiters[1:])
		c.waiters = c.waiters[:n-1]
		w.fired = true
		c.wakeLocked(w)
	}
	c.mu.Unlock()
}

func (c *chanCond) Broadcast() {
	c.mu.Lock()
	for _, w := range c.waiters {
		w.fired = true
		c.wakeLocked(w)
	}
	c.waiters = c.waiters[:0]
	c.mu.Unlock()
}

// wakeLocked delivers a wakeup with c.mu held; the waiter channel is
// buffered and carries at most one pending signal, so the send cannot
// block.
func (c *chanCond) wakeLocked(w *waiter) {
	if c.sim != nil {
		c.sim.unpark(w)
		return
	}
	w.ch <- struct{}{}
}

// WaitGroup is a Clock-aware analog of sync.WaitGroup: Wait suspends in a
// way the simulated scheduler understands.
type WaitGroup struct {
	clk  Clock
	mu   sync.Mutex
	cond Cond
	n    int
}

// NewWaitGroup returns a WaitGroup bound to clk.
func NewWaitGroup(clk Clock) *WaitGroup {
	wg := &WaitGroup{clk: clk}
	wg.cond = clk.NewCond(&wg.mu)
	return wg
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	wg.n += delta
	if wg.n < 0 {
		wg.mu.Unlock()
		panic("vtime: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
	wg.mu.Unlock()
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Go runs fn on a managed goroutine and tracks it on the group.
func (wg *WaitGroup) Go(fn func()) {
	wg.Add(1)
	wg.clk.Go(func() {
		defer wg.Done()
		fn()
	})
}

// Wait blocks until the counter is zero. The Unlock is deferred because
// the cond relocks mu even when the simulation's teardown unwinds the
// wait, and members unwinding through Done need mu back.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	for wg.n != 0 {
		wg.cond.Wait()
	}
}
