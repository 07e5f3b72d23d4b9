package vtime

import (
	"sync"
	"testing"
	"time"
)

// TestCancelStormQueueBounded is the regression test for the old
// simTimer.Stop leak: cancelled events used to stay in the heap until
// their due time was popped, so arm/cancel churn (AIMD loss timers, conn
// deadlines) grew the queue without bound. With slot recycling the queue
// must stay flat no matter how many timers are cancelled.
func TestCancelStormQueueBounded(t *testing.T) {
	s := NewSim(1)
	s.Run(func() {
		const storm = 100_000
		for i := 0; i < storm; i++ {
			tm := s.AfterFunc(time.Hour, func() { t.Error("cancelled timer fired") })
			if !tm.Stop() {
				t.Fatal("Stop() = false on a pending timer")
			}
			if n := s.PendingEvents(); n > 1 {
				t.Fatalf("after %d cancels: %d events queued, want <= 1", i+1, n)
			}
		}
		if n := s.PendingEvents(); n != 0 {
			t.Fatalf("queue holds %d events after cancel storm, want 0", n)
		}
	})
}

// TestScheduleCancelStale verifies generation tagging: once a slot is
// recycled, the old EventID must not cancel (or otherwise disturb) the
// slot's next tenant.
func TestScheduleCancelStale(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.Run(func() {
		stale := s.Schedule(time.Second, func() {})
		if !s.Cancel(stale) {
			t.Fatal("Cancel on pending event = false")
		}
		// The recycled slot is reused by the next Schedule.
		s.Schedule(time.Second, func() { fired = true })
		if s.Cancel(stale) {
			t.Error("stale EventID cancelled the slot's new tenant")
		}
		if s.Cancel(0) {
			t.Error("Cancel(0) = true, want false")
		}
		s.Sleep(2 * time.Second)
	})
	if !fired {
		t.Fatal("event was lost to a stale cancel")
	}
}

// TestSimSleepAllocFree guards the managed-goroutine hot path: once its
// parker and event slot exist, Sleep must not allocate.
func TestSimSleepAllocFree(t *testing.T) {
	s := NewSim(1)
	s.Run(func() {
		s.Sleep(time.Millisecond) // warm the parker freelist and slot arena
		allocs := testing.AllocsPerRun(1000, func() {
			s.Sleep(time.Microsecond)
		})
		if allocs > 0 {
			t.Errorf("Sim.Sleep allocates %.1f objects per call, want 0", allocs)
		}
	})
}

// TestSimScheduleCancelAllocFree guards the timer hot path used by the
// network simulator (window growth, loss sampling, completions).
func TestSimScheduleCancelAllocFree(t *testing.T) {
	s := NewSim(1)
	fn := func() {}
	s.Run(func() {
		s.Cancel(s.Schedule(time.Hour, fn)) // warm the slot arena
		allocs := testing.AllocsPerRun(1000, func() {
			id := s.Schedule(time.Hour, fn)
			s.Cancel(id)
		})
		if allocs > 0 {
			t.Errorf("Schedule+Cancel allocates %.1f objects per call, want 0", allocs)
		}
	})
}

// TestSimCondWaitAllocFree guards the cond hot path (simnet read/write
// blocking): steady-state Wait/Broadcast on a Sim clock must recycle its
// waiter rather than allocate a new one.
func TestSimCondWaitAllocFree(t *testing.T) {
	s := NewSim(1)
	s.Run(func() {
		var mu sync.Mutex
		cond := s.NewCond(&mu)
		turn := 0 // 0: waiter may proceed to wait; 1: signaller may signal
		wg := NewWaitGroup(s)
		const rounds = 500
		wg.Go(func() {
			mu.Lock()
			for i := 0; i < rounds; i++ {
				turn = 1
				cond.Broadcast()
				for turn != 0 {
					cond.Wait()
				}
			}
			mu.Unlock()
		})
		var allocs float64
		wg.Go(func() {
			mu.Lock()
			// Warm one round, then measure.
			allocs = testing.AllocsPerRun(rounds-1, func() {
				for turn != 1 {
					cond.Wait()
				}
				turn = 0
				cond.Broadcast()
			})
			mu.Unlock()
		})
		wg.Wait()
		// AllocsPerRun rounds down; allow the warmup round's stragglers.
		if allocs > 1 {
			t.Errorf("Cond.Wait allocates %.1f objects per round, want ~0", allocs)
		}
	})
}

// TestSimCondRecyclingAcrossConds guards recycling that is per Sim, not
// per cond: once one round of waits has run on some conds, a round of
// waits on 100 conds that have never been waited on allocates nothing.
// A simulated session builds its conds fresh, so a per-cond freelist
// would pay a waiter, its channel and its timeout closure for every
// cond's first wait.
func TestSimCondRecyclingAcrossConds(t *testing.T) {
	s := NewSim(1)
	s.Run(func() {
		var mu sync.Mutex
		ctl := s.NewCond(&mu)
		var pending Cond // the cond the helper broadcasts next
		woken := false
		s.Go(func() {
			mu.Lock()
			defer mu.Unlock()
			for {
				for pending == nil {
					ctl.Wait()
				}
				c := pending
				pending, woken = nil, true
				c.Broadcast()
			}
		})
		const nConds, runs = 100, 3
		batches := make([][]Cond, runs+1)
		for i := range batches {
			for j := 0; j < nConds; j++ {
				batches[i] = append(batches[i], s.NewCond(&mu))
			}
		}
		next := 0
		round := func() {
			mu.Lock()
			for i, c := range batches[next] {
				pending, woken = c, false
				ctl.Signal()
				for !woken {
					if i%2 == 0 {
						c.Wait()
					} else {
						c.WaitTimeout(time.Hour) // exercise the timeout path too
					}
				}
			}
			mu.Unlock()
			next++
		}
		allocs := testing.AllocsPerRun(runs, round) // the first call is the warm-up round
		if allocs > 0 {
			t.Errorf("a wait round on %d new conds allocates %.1f objects, want 0", nConds, allocs)
		}
	})
}

// TestHandlerEventAllocFree guards the typed-event hot path (a flow's
// growth, loss, completion, linger and delivery): once the slot arena
// has room, a handler event's schedule, re-key, cancel, fire and
// RearmFiring cycle allocates nothing.
func TestHandlerEventAllocFree(t *testing.T) {
	s := NewSim(1)
	h := kindCounter{s: s}
	s.Run(func() {
		cycle := func() {
			id := s.ScheduleHandler(siteTestOnce, time.Hour, &h, 0)
			id = s.RescheduleHandler(siteTestLater, id, 2*time.Hour, &h, 1)
			s.Cancel(id)
			h.rearms = 2
			s.ScheduleHandler(siteTestTick, time.Microsecond, &h, 2)
			s.Sleep(10 * time.Microsecond)
		}
		cycle() // warm the slot arena and the parker
		allocs := testing.AllocsPerRun(100, cycle)
		if allocs > 0 {
			t.Errorf("a handler event cycle allocates %.1f objects, want 0", allocs)
		}
		if h.fired != [4]int{0, 0, 102 * 3, 0} {
			t.Errorf("fires by kind %v over 102 cycles, want 3 of kind 2 per cycle", h.fired)
		}
	})
}

// TestSimCondNewWaiterAllocs prices a timed wait on a waiter the Sim has
// never recycled: the waiter and its channel, and nothing for its
// timeout, which fires the waiter itself as a typed event.
func TestSimCondNewWaiterAllocs(t *testing.T) {
	s := NewSim(1)
	s.Run(func() {
		var mu sync.Mutex
		cond := s.NewCond(&mu)
		wait := func() {
			s.condMu.Lock()
			s.waitFree = s.waitFree[:0] // the next wait builds its waiter
			s.condMu.Unlock()
			mu.Lock()
			if cond.WaitTimeout(time.Millisecond) {
				t.Error("WaitTimeout reported a signal, want a timeout")
			}
			mu.Unlock()
		}
		wait() // size the slot arena and the freelist
		if allocs := testing.AllocsPerRun(100, wait); allocs != 2 {
			t.Errorf("a timed wait on a new waiter allocates %.1f objects, want 2 (the waiter and its channel)", allocs)
		}
	})
}
